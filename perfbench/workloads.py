"""Seeded workload generator.

Each workload turns a seed into the input one pass of the benchmark feeds
the program: a list of segments, each one ``cauchykl`` call given as its
argument list and its standard input, plus what the checker expects of
every output record. The same seed gives the same segments.

Parameters are drawn as the acceptance suite draws them (``tests/
test_acceptance.py``): pairs with ``l ~ U(-100, 100)`` and
``s ~ U(0.01, 100)``, quadratics with ``a, c`` log-uniform on
``[1e-2, 1e2]`` and ``b = t * 2 * sqrt(a*c)``, ``t ~ U(-0.999, 0.999)``.
Closed-form references are mpmath at 50 digits, computed here and not
timed.

Inputs across the full double range (``s = 1e-200``, ``s = 1e300``,
``|dl| = 1e200``) are left out: at this version ``execute_job`` raises on
some of them, which stops the ``batch`` stream, and prints bare ``nan``
or ``inf`` for others. They become a workload of their own once every
record is an ok record with a finite value or an error record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

mpmath.mp.dps = 50
_M = mpmath.mpf


@dataclass
class Expect:
    """What the checker requires of one output record.

    kind is "closed" (value within tolerance of the 50-digit reference
    ``ref``), "quad" (converged and within 1e-8 of ``ref``), "mc" (within
    4 standard errors of ``ref``) or "error" (an error record).
    """

    op: str
    kind: str
    ref: float = 0.0


@dataclass
class Segment:
    """One ``cauchykl`` call: its arguments, its standard input, its expected records."""

    argv: list[str]
    stdin: str = ""
    expect: list[Expect] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    why: str
    segments: list[Segment]


# --------------------------------------------------------------------------
# 50-digit references for the closed forms
# --------------------------------------------------------------------------

def _ref_kl(l1, s1, l2, s2):
    num = (_M(s1) + _M(s2)) ** 2 + (_M(l1) - _M(l2)) ** 2
    return mpmath.log(num / (4 * _M(s1) * _M(s2)))


def _ref_cross_entropy(l1, s1, l2, s2):
    num = (_M(s1) + _M(s2)) ** 2 + (_M(l1) - _M(l2)) ** 2
    return mpmath.log(mpmath.pi * num / _M(s2))


def _ref_entropy(l, s):
    return mpmath.log(4 * mpmath.pi * _M(s))


def _ref_integral_a(a, b, c, d, e, f):
    a, b, c, d, e, f = map(_M, (a, b, c, d, e, f))
    r1 = mpmath.sqrt(4 * a * c - b * b)
    r2 = mpmath.sqrt(4 * d * f - e * e)
    return 2 * mpmath.pi * (mpmath.log(2 * a * f - b * e + 2 * c * d + r1 * r2)
                            - mpmath.log(2 * a)) / r1


def _ref_prudnikov(a, b, z):
    a, b, z = _M(a), _M(b), _M(z)
    return mpmath.pi / z * mpmath.log(z * z + 2 * a * z * mpmath.sqrt(1 - b * b) + a * a)


_REFERENCES = {
    "kl": _ref_kl,
    "cross-entropy": _ref_cross_entropy,
    "entropy": _ref_entropy,
    "integral-a": _ref_integral_a,
    "prudnikov": _ref_prudnikov,
}


def reference(op: str, params: dict) -> float:
    """The closed form of `op` at `params`, from mpmath at 50 digits, rounded once."""
    return float(_REFERENCES[op](**params))


# --------------------------------------------------------------------------
# parameter draws
# --------------------------------------------------------------------------

def _pair(rng) -> dict:
    l1, l2 = (float(v) for v in rng.uniform(-100.0, 100.0, 2))
    s1, s2 = (float(v) for v in rng.uniform(0.01, 100.0, 2))
    return {"l1": l1, "s1": s1, "l2": l2, "s2": s2}


def _extreme_pair(rng) -> dict:
    """Scale ratio and location gap up to 1e12, as in acceptance criterion 3."""
    s1 = float(10.0 ** rng.uniform(-6.0, 6.0))
    s2 = s1 * float(10.0 ** rng.uniform(0.0, 12.0))
    gap = float(10.0 ** rng.uniform(0.0, 12.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    l1 = float(rng.uniform(-100.0, 100.0))
    p = {"l1": l1, "s1": s1, "l2": l1 + gap, "s2": s2}
    if rng.random() < 0.5:
        p = {"l1": p["l2"], "s1": p["s2"], "l2": p["l1"], "s2": p["s1"]}
    return p


def _quadratic(rng) -> tuple[float, float, float]:
    a, c = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
    t = float(rng.uniform(-0.999, 0.999))
    return a, t * 2.0 * math.sqrt(a * c), c


def _quadratic_pair(rng) -> dict:
    a, b, c = _quadratic(rng)
    d, e, f = _quadratic(rng)
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


def _entropy(rng) -> dict:
    return {"l": float(rng.uniform(-100.0, 100.0)), "s": float(rng.uniform(0.01, 100.0))}


def _prudnikov(rng) -> dict:
    a, z = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
    return {"a": a, "b": float(rng.uniform(-0.99, 0.99)), "z": z}


def _invalid(rng, k: int) -> dict:
    """An invalid record of one of five kinds, chosen by k."""
    kind = k % 5
    if kind == 0:
        return {"op": "kl-divergence", "params": _pair(rng)}
    if kind == 1:
        params = _pair(rng)
        del params["s2"]
        return {"op": "kl", "params": params}
    if kind == 2:
        params = _entropy(rng)
        params["s"] = repr(params["s"])
        return {"op": "entropy", "params": params}
    if kind == 3:
        params = _pair(rng)
        params["s1"] = -params["s1"] if k % 2 else 0.0
        return {"op": "cross-entropy", "params": params}
    params = _quadratic_pair(rng)
    params["e"] = float(rng.uniform(1.01, 3.0)) * 2.0 * math.sqrt(params["d"] * params["f"])
    return {"op": "integral-a", "params": params}


def _batch(records: list[dict], expects: list[Expect]) -> list[Segment]:
    """The whole stream as one ``cauchykl batch`` call, as a user runs it."""
    return [Segment(["batch"], "".join(json.dumps(r) + "\n" for r in records), expects)]


# --------------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------------

CLOSED_RECORDS = 20_000
# Share of each op in batch-closed; the rest (2%) are invalid records.
CLOSED_MIX = {"kl": 0.40, "cross-entropy": 0.20, "entropy": 0.10,
              "integral-a": 0.20, "prudnikov": 0.08}
# Share of kl and cross-entropy records drawn at the extremes of criterion 3.
EXTREME_SHARE = 0.10


def batch_closed(seed: int) -> Workload:
    """A long ``cauchykl batch`` stream of closed-form records.

    Why: ``cli`` and ``core`` do all the work; ``oracle`` and
    ``certificate`` do none. Changes to record parsing, validation, the
    closed-form kernel and record formatting move it; changes to the
    quadrature engine and the certificate checks should not.
    """
    rng = np.random.Generator(np.random.PCG64([seed % 2**64, 1]))
    ops = []
    for op, share in CLOSED_MIX.items():
        ops += [op] * round(share * CLOSED_RECORDS)
    ops += ["invalid"] * (CLOSED_RECORDS - len(ops))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    draw = {"entropy": _entropy, "integral-a": _quadratic_pair, "prudnikov": _prudnikov}
    records, expects = [], []
    for k, op in enumerate(ops):
        if op == "invalid":
            record = _invalid(rng, k)
            expects.append(Expect(record["op"], "error"))
        else:
            if op in ("kl", "cross-entropy"):
                params = _extreme_pair(rng) if rng.random() < EXTREME_SHARE else _pair(rng)
            else:
                params = draw[op](rng)
            record = {"op": op, "params": params}
            expects.append(Expect(op, "closed", reference(op, params)))
        records.append(record)
    return Workload("batch-closed", batch_closed.__doc__, _batch(records, expects))


NUMERIC_QUADRATURE = 300  # split evenly over kl, cross-entropy and integral-a
NUMERIC_MC = 50
MC_SAMPLES = 200_000


def batch_numeric(seed: int) -> Workload:
    """A ``cauchykl batch`` stream of quadrature and Monte-Carlo records.

    Why: ``oracle`` does about 96% of the work; ``cli`` does the rest
    (reading, validating and formatting 350 records). The counts give
    quadrature and Monte-Carlo about half the time each.
    kl and cross-entropy integrands are bounded after the tan
    substitution; integral-a has a log singularity at the endpoints and
    needs the endpoint ladder, so a quadrature change that helps one kind
    and costs the other shows here, as does a change to the Monte-Carlo
    moments. Changes to batch formatting move it by a few percent at most.
    """
    rng = np.random.Generator(np.random.PCG64([seed % 2**64, 2]))
    third = NUMERIC_QUADRATURE // 3
    ops = ["kl"] * third + ["cross-entropy"] * third + ["integral-a"] * third + ["mc"] * NUMERIC_MC
    ops = [ops[i] for i in rng.permutation(len(ops))]
    records, expects = [], []
    for op in ops:
        if op == "integral-a":
            params = _quadratic_pair(rng)
        else:
            params = _pair(rng)
        if op == "mc":
            config = {"samples": MC_SAMPLES, "seed": int(rng.integers(0, 2**31))}
            expects.append(Expect(op, "mc", reference("kl", params)))
        else:
            config = {"numeric": True}
            expects.append(Expect(op, "quad", reference(op, params)))
        records.append({"op": op, "params": params, "config": config})
    return Workload("batch-numeric", batch_numeric.__doc__, _batch(records, expects))


def verify_exact(seed: int) -> Workload:
    """``cauchykl verify --suite certificate`` and ``--suite ode`` at their default counts.

    Why: exact Fraction-jet arithmetic in ``certificate`` is nearly all
    of the time (500 telescoping and 200 ODE points); ``oracle`` does
    only the 9 integrals of the integration-constant check. A change to
    how the certificate identities are checked moves it; ``cli`` and
    ``core`` changes should not.
    """
    suite_seed = str(seed % 2**31)
    return Workload("verify-exact", verify_exact.__doc__, [
        Segment(["verify", "--suite", "certificate", "--seed", suite_seed]),
        Segment(["verify", "--suite", "ode", "--seed", suite_seed]),
    ])


WORKLOADS = {w.__name__.replace("_", "-"): w for w in (batch_closed, batch_numeric, verify_exact)}
