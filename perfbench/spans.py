"""Spans around calls into each layer of the program, recorded from outside it.

`Tracer.install` replaces the public functions of the layers with wrappers
in every ``cauchykl`` module that binds them, so calls between modules
are traced too. Each call leaves one span: name, start, end, parent span
and the id of the input being processed (the line of a ``batch`` stream,
or the index of a ``verify`` call). Spans stay in memory and
are written out once, at the end of the pass.

Layers are the program's modules; ``certificate`` includes the Fraction
jets it calls and ``cli.main`` is the root of every call.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (module, function names) wrapped by install().
TARGETS = {
    "core": ("density", "quantile", "kl_closed", "cross_entropy_closed", "entropy_closed",
             "kl_scale_family", "kl_location_family", "standardize_pair", "integral_a",
             "integral_a_canonical", "canonical_reduce", "integral_a_dd", "primitive_b",
             "prudnikov_special"),
    "oracle": ("integrate_real_line", "integral_a_numeric", "kl_numeric",
               "cross_entropy_numeric", "f_divergence_numeric", "kl_monte_carlo"),
    "certificate": ("verify_telescoping", "verify_ode_dadd", "verify_integration_constant",
                    "verify_g_factorization"),
    "suites": ("closed_vs_quadrature_suite", "certificate_suite", "ode_suite",
               "monte_carlo_suite"),
    # build_parser is wrapped so that cli.io, the self time of main, is only
    # reading, json.loads and printing.
    "cli": ("build_parser", "execute_job", "format_record"),
}

# Span fields.
NAME, START, END, PARENT, RECORD, NOTE = range(6)


def _note(result):
    """The machine-independent count a call returns, if any."""
    evaluations = getattr(result, "evaluations", None)
    if evaluations is not None:
        return evaluations if result.converged else -evaluations
    samples = getattr(result, "samples", None)
    if samples is not None:
        return samples
    if isinstance(result, Fraction):
        return int(result != 0)
    if isinstance(result, dict):
        return int(result.get("status") != "ok")
    if isinstance(result, list):
        return [len(result), sum(not getattr(o, "passed", True) for o in result)]
    return None


class Tracer:
    """Records spans; `clock` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.record = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.record, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[NOTE] = _note(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cauchykl" or n.startswith("cauchykl."))]
        for layer, names in TARGETS.items():
            module = sys.modules[f"cauchykl.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trecord\tnote\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[RECORD]}\t"
                         f"{'' if s[NOTE] is None else s[NOTE]}\n")


class LineFeed:
    """Standard input for a traced ``batch`` call: the record id is the line's index."""

    def __init__(self, tracer: Tracer, text: str) -> None:
        self._tracer = tracer
        self._lines = text.splitlines(keepends=True)

    def __iter__(self):
        tracer = self._tracer
        for i, line in enumerate(self._lines):
            tracer.record = i
            yield line


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


_EVAL_KINDS = ("oracle.kl_numeric", "oracle.cross_entropy_numeric", "oracle.integral_a_numeric")
_EXACT = ("certificate.verify_telescoping", "certificate.verify_ode_dadd")


def summarize(spans: list[list], calls: list[tuple[int, int, float]]) -> dict:
    """Per-layer samples and counts of one traced pass.

    `calls` holds (start_ns, end_ns, factor) for each timed ``cauchykl``
    call, in order; `factor` converts the call's wall time to reference
    time (see calib.py) and is applied to every span inside it.

    Returns ``samples`` (reference ns per span, by metric), ``self_s``
    (reference seconds of self time per layer) and ``counts`` (numbers
    that do not depend on the machine).
    """
    own = self_times(spans)
    samples: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    children: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "cli.execute_job" and s[PARENT] >= 0:
            children[s[PARENT]] = children.get(s[PARENT], 0) + 1
    evals = {k: [] for k in _EVAL_KINDS}
    counts = {"oracle.unconverged": 0, "oracle.mc_samples": 0, "certificate.nonzero_residuals": 0,
              "cli.error_records": 0, "suites.checks": 0, "suites.checks_failed": 0}
    j = 0
    for i, s in enumerate(spans):
        while j < len(calls) - 1 and s[START] >= calls[j][1]:
            j += 1
        factor = calls[j][2]
        name, note = s[NAME], s[NOTE]
        total = (s[END] - s[START]) * factor
        mine = own[i] * factor
        samples.setdefault(name, []).append(total)
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + mine * 1e-9
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        if name == "cli.main":
            samples.setdefault("cli.io", []).append(mine / max(1, children.get(i, 0)))
        elif note is None:
            continue  # the call raised, or returns no count
        elif name == "cli.execute_job":
            samples.setdefault("cli.validate", []).append(mine)
            counts["cli.error_records"] += note
        elif name == "oracle.integrate_real_line":
            samples.setdefault("oracle.ns_per_eval", []).append(total / abs(note))
            counts["oracle.unconverged"] += note < 0
        elif name in evals:
            evals[name].append(abs(note))
        elif name == "oracle.kl_monte_carlo":
            counts["oracle.mc_samples"] += note
        elif name in _EXACT:
            counts["certificate.nonzero_residuals"] += note
        elif name.startswith("suites."):
            counts["suites.checks"] += note[0]
            counts["suites.checks_failed"] += note[1]
    for name, values in evals.items():
        values.sort()
        counts[f"{name}_evals"] = values[len(values) // 2] if values else 0
        counts[f"{name}_evals_max"] = values[-1] if values else 0
    counts["cli.records"] = calls_by_name.get("cli.execute_job", 0)
    counts["core.calls"] = sum(n for k, n in calls_by_name.items() if k.startswith("core."))
    counts["certificate.exact_points"] = sum(calls_by_name.get(k, 0) for k in _EXACT)
    counts["calls"] = dict(sorted(calls_by_name.items()))
    return {"samples": samples, "self_s": self_s, "counts": counts}
