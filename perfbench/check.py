"""Output checker: every record the program prints is checked.

A batch record fails when its line is not strict JSON (bare ``nan`` or
``inf`` included), when its status is not the expected one, or when its
value misses the reference:

- closed forms: within ``CLOSED_TOL * max(1, |ref|)`` of the 50-digit
  reference; the worst ``|v - ref| / |ref|`` is reported separately, in
  units of double eps, as ``max_err_eps``;
- quadrature records: converged and ``|v - ref| / (1 + |ref|) <= 1e-8``,
  the acceptance tolerance;
- ``mc`` records: within 4 standard errors of the closed form. A 4-sigma
  excursion happens by chance about once in 16 000 records, so, as in
  ``suites.monte_carlo_suite``, up to one miss per 20 ``mc`` records of a
  pass (at least one) is tolerated; past that every miss fails.
- invalid records: an error record.

A call whose exit code differs from the expected one fails all its
records; a call that raises fails the records it has not answered; a
call that prints more lines than it was given records fails at least
one. For ``verify`` calls the records are the checks: each must pass,
and the summary line must count them all with none failed.
"""

from __future__ import annotations

import json
import re

EPS = 2.0 ** -52
CLOSED_TOL = 1e-10
QUADRATURE_TOL = 1e-8
MC_SIGMAS = 4.0
# Checks each verify suite reports.
SUITE_CHECKS = {"certificate": 3, "ode": 2}
_EXACT_POINTS = re.compile(r"^\d+/(\d+) exact-zero")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(line: str):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


class Tally:
    """Failures, worst errors and machine-independent counts of checked output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_err_eps = 0.0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.evaluations: dict[str, list[int]] = {}
        self.mc_sigmas: list[float] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_err_eps = max(self.max_err_eps, other.max_err_eps)
        self.problems.extend(other.problems[:20 - len(self.problems)])
        for k, n in other.counts.items():
            self.count(k, n)
        for k, v in other.evaluations.items():
            self.evaluations.setdefault(k, []).extend(v)
        self.mc_sigmas.extend(other.mc_sigmas)


def _check_record(line: str, expect, tally: Tally) -> None:
    try:
        rec = strict_loads(line)
    except ValueError as exc:
        tally.fail(1, f"invalid JSON ({exc}): {line[:120]}")
        return
    if not isinstance(rec, dict):
        tally.fail(1, f"not a JSON object: {line[:120]}")
        return
    status = rec.get("status")
    tally.count(f"records.{rec.get('op')}.{status}")
    if expect.kind == "error":
        if status != "error":
            tally.fail(1, f"expected an error record: {line[:120]}")
        return
    value = rec.get("value")
    if (status != "ok" or rec.get("op") != expect.op
            or isinstance(value, bool) or not isinstance(value, (int, float))):
        tally.fail(1, f"expected an ok {expect.op} record: {line[:120]}")
        return
    ref = expect.ref
    if expect.kind == "closed":
        tally.max_err_eps = max(tally.max_err_eps, abs(value - ref) / (abs(ref) or 1.0) / EPS)
        ok = abs(value - ref) <= CLOSED_TOL * max(1.0, abs(ref))
    elif expect.kind == "quad":
        diag = rec.get("diagnostics", {})
        tally.evaluations.setdefault(expect.op, []).append(diag.get("evaluations", 0))
        ok = diag.get("converged") is True and abs(value - ref) / (1.0 + abs(ref)) <= QUADRATURE_TOL
    else:
        diag = rec.get("diagnostics", {})
        se = diag.get("standard_error", 0.0)
        tally.count("mc.samples", diag.get("samples", 0))
        sigmas = abs(value - ref) / se if se > 0.0 else (0.0 if value == ref else float("inf"))
        tally.mc_sigmas.append(sigmas)
        return
    if not ok:
        tally.fail(1, f"value misses reference {ref!r}: {line[:160]}")


def check_batch(output: str, expects: list, rc) -> Tally:
    """Check the output of one ``batch`` call against its expected records.

    `rc` is the call's exit code, or None if it raised.
    """
    tally = Tally()
    tally.attempted = len(expects)
    lines = output.splitlines()
    for line, expect in zip(lines, expects):
        _check_record(line, expect, tally)
    if len(lines) != len(expects):
        # Missing lines fail their records; extra lines fail at least one.
        tally.fail(max(1, len(expects) - len(lines)),
                   f"{len(lines)} output lines for {len(expects)} records")
    expected_rc = int(any(e.kind == "error" for e in expects))
    if rc is not None and rc != expected_rc:
        tally.failed = tally.attempted
        tally.problems.append(f"exit code {rc!r}, expected {expected_rc}")
    tally.failed = min(tally.failed, tally.attempted)
    return tally


def judge_mc(tally: Tally) -> None:
    """Fail the ``mc`` misses of one pass if there are more than chance allows."""
    misses = sum(s > MC_SIGMAS for s in tally.mc_sigmas)
    tally.count("mc.misses", misses)
    if misses > max(1, len(tally.mc_sigmas) // 20):
        tally.fail(misses, f"{misses} of {len(tally.mc_sigmas)} mc records beyond "
                   f"{MC_SIGMAS} sigma")


def check_verify(output: str, argv: list[str], rc) -> Tally:
    """Check the output of one ``verify --suite NAME`` call."""
    tally = Tally()
    expected = SUITE_CHECKS[argv[argv.index("--suite") + 1]]
    tally.attempted = expected
    lines = output.splitlines()
    passed = 0
    try:
        records = [strict_loads(line) for line in lines]
    except ValueError as exc:
        tally.fail(expected, f"invalid JSON in verify output: {exc}")
        return tally
    for rec in records[:-1]:
        tally.count("checks")
        if rec.get("status") == "pass":
            passed += 1
        match = _EXACT_POINTS.match(str(rec.get("detail", "")))
        if match:
            tally.count("exact_points", int(match.group(1)))
    summary = records[-1] if records else {}
    if (rc != 0 or len(records) != expected + 1 or passed != expected
            or summary.get("checks") != expected or summary.get("failed") != 0
            or summary.get("status") != "pass"):
        tally.fail(expected - passed or expected, f"verify {argv}: exit {rc!r}, "
                   f"{passed}/{expected} checks passed, summary {summary}")
    tally.count("checks.failed", expected - passed)
    return tally
