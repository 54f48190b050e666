"""Batch verification suites driven by the CLI `verify` subcommand.

Each suite draws a seeded pseudorandom family of check points, runs the
relevant closed-form / oracle / certificate comparisons and returns one
CheckOutcome per aggregate check, carrying the worst residual observed.
All randomness flows through numpy's PCG64 generator, so a (suite,
count, seed) triple is fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import certificate, core, oracle
from .core import CauchyDist
from .errors import ParameterError

__all__ = [
    "CheckOutcome",
    "SUITE_NAMES",
    "run_suite",
    "closed_vs_quadrature_suite",
    "certificate_suite",
    "ode_suite",
    "monte_carlo_suite",
]

# Frozen transcription checksums: every certificate polynomial evaluated
# at (d, e, f, x) = (1, 1, 1, 1).
CHECKSUM_POINT = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
CHECKSUMS = {
    "operator_c3": Fraction(27),
    "operator_c2": Fraction(84),
    "operator_c1": Fraction(162),
    "operator_c0": Fraction(168),
    "certificate_polynomial": Fraction(-378),
    "psi": Fraction(14),
    "phi_partial_d": Fraction(1, 6),
    "psi_limit": Fraction(52),
}


@dataclass(frozen=True)
class CheckOutcome:
    """One aggregate verification check."""

    name: str
    passed: bool
    worst: float
    detail: str


def _random_pairs(rng: np.random.Generator, count: int) -> Iterator[tuple[CauchyDist, CauchyDist]]:
    for _ in range(count):
        l1, l2 = rng.uniform(-100.0, 100.0, 2)
        s1, s2 = rng.uniform(0.01, 100.0, 2)
        yield CauchyDist(float(l1), float(s1)), CauchyDist(float(l2), float(s2))


def _random_ratio(rng: np.random.Generator, positive: bool = False,
                  bound: int = 1000) -> tuple[int, int]:
    """(numerator, denominator) of a random rational, in lowest terms."""
    lo = 1 if positive else -bound
    num = int(rng.integers(lo, bound + 1))
    if not positive and num == 0:
        num = 1
    return _reduced(num, int(rng.integers(1, bound + 1)))


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _integer_point(*ratios: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
    """(D, (D*v1, D*v2, ...)) of rationals v = p/q in lowest terms, for the least D > 0."""
    D = math.lcm(*(q for _, q in ratios))
    return D, tuple([p * (D // q) for p, q in ratios])


def _certificate_point(rng: np.random.Generator) -> tuple[int, tuple[int, int, int]]:
    """`random_certificate_point` as its integer point (D, D*(d, e, f))."""
    while True:
        a, b = _random_ratio(rng, positive=True)  # d = a/b
        c, g = _random_ratio(rng)                 # e = c/g
        h, k = _random_ratio(rng, positive=True)  # m = h/k
        fn, fd = _reduced((c * c * k * k + h * h * g * g) * b, 4 * a * g * g * k * k)  # f = (e^2 + m^2)/(4*d)
        D, (d, e, f) = point = _integer_point((a, b), (c, g), (fn, fd))
        if not (d == f and e == 0):
            return point


def random_certificate_point(rng: np.random.Generator) -> tuple[Fraction, Fraction, Fraction]:
    """Rational (d, e, f) with 4*d*f - e^2 a strictly positive rational square.

    Built from the parametrization f = (e^2 + m^2) / (4*d) over random
    rational (d, e, m) with d, m > 0, which keeps every square root in
    the certificate expressions rational. The singular set d = f, e = 0
    is excluded by redrawing.
    """
    D, point = _certificate_point(rng)
    return tuple([Fraction(v, D) for v in point])


def _tame_point(rng: np.random.Generator, bound: int = 10) -> tuple[int, tuple[int, int, int]]:
    """`random_tame_point` as its integer point (D, D*(d, e, f))."""
    while True:
        D, (d, e, f) = point = _integer_point(_random_ratio(rng, positive=True, bound=bound),
                                              _random_ratio(rng, bound=bound),
                                              _random_ratio(rng, positive=True, bound=bound))
        if 4 * d * f - e * e > 0 and not (d == f and e == 0):
            return point


def random_tame_point(rng: np.random.Generator, bound: int = 10) -> tuple[Fraction, Fraction, Fraction]:
    """Rational (d, e, f) of moderate magnitude with 4*d*f - e^2 > 0.

    Used by the floating-point tail checks: the first-order deviation of
    psi (and of the primitive B) from its limit at |x| = 1e8 scales with
    powers of the coefficient magnitudes, so those checks need values
    within a few orders of 1, unlike the exact rational checks which
    tolerate numerators and denominators up to 1e3.
    """
    D, point = _tame_point(rng, bound)
    return tuple([Fraction(v, D) for v in point])


def _exact_zeros(check, names: str, points) -> tuple[int, str]:
    """Number of points where the exact `check` is nonzero, and a detail suffix
    naming the first of them in exact fractions, so one call reproduces it.

    Each point is (D, args): `check` runs at args, whose first three are
    D*(d, e, f), an integer point. Both exact residuals are homogeneous of
    degree 2 in (d, e, f), so there they are D^2 times the residual at
    (d, e, f) and vanish with it; the witness names (d, e, f).
    """
    nonzero, witness = 0, ""
    for D, args in points:
        if check(*args) != 0:
            if not nonzero:
                point = (*(Fraction(v, D) for v in args[:3]), *args[3:])
                witness = f"; first nonzero at {names} = ({', '.join(map(str, point))})"
            nonzero += 1
    return nonzero, witness


def _tail_limit(D: int, point: tuple[int, int, int]) -> float:
    """float(psi_limit(d, e, f)) from the integer point D*(d, e, f).

    psi_limit there is D^2 times the limit at (d, e, f), exactly, and one
    int true division rounds the limit correctly, as float() would.
    """
    scaled = certificate.psi_limit(*point)
    return scaled.numerator / (scaled.denominator * D * D)


def _worst_at(pair: tuple[CauchyDist, CauchyDist] | None, seed: int | None = None) -> str:
    """Detail suffix naming the pair (and sampler seed) of a worst residual exactly,
    with %r, so one CLI call reproduces it; empty when no pair was checked."""
    if pair is None:
        return ""
    p1, p2 = pair
    at = "" if seed is None else f"seed {seed}, "
    return "; worst at %s(l1, s1, l2, s2) = (%r, %r, %r, %r)" % (
        at, p1.location, p1.scale, p2.location, p2.scale)


def closed_vs_quadrature_suite(count: int, seed: int) -> list[CheckOutcome]:
    """Closed-form KL and cross-entropy against the quadrature oracle at its default tolerances.

    Each detail ends with the pair of its worst residual.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    checks = (("kl", core.kl_closed, oracle.kl_numeric),
              ("cross-entropy", core.cross_entropy_closed, oracle.cross_entropy_numeric))
    worst = {name: (0.0, None) for name, _, _ in checks}  # name -> (residual, pair)
    unconverged = 0
    for p1, p2 in _random_pairs(rng, count):
        for name, closed, numeric in checks:
            value = closed(p1, p2)
            result = numeric(p1, p2)
            residual = abs(value - result.value) / (1.0 + abs(value))
            if residual >= worst[name][0]:
                worst[name] = residual, (p1, p2)
            unconverged += not result.converged
    tol = 1e-8
    tails = {"kl": f", unconverged {unconverged}", "cross-entropy": ""}
    return [
        CheckOutcome(
            f"{name} closed vs quadrature", residual <= tol, residual,
            f"{count} pairs, worst |closed - numeric|/(1+|closed|) = {residual:.3e}, "
            f"tolerance {tol:.1e}{tails[name]}{_worst_at(pair)}",
        )
        for name, (residual, pair) in worst.items()
    ]


def certificate_suite(count: int, seed: int) -> list[CheckOutcome]:
    """Transcription checksums, exact telescoping residuals, psi tail limits."""
    rng = np.random.Generator(np.random.PCG64(seed))
    outcomes = []

    d, e, f, x = CHECKSUM_POINT
    c3, c2, c1, c0 = certificate.operator_coefficients(d, e, f)
    observed = {
        "operator_c3": c3,
        "operator_c2": c2,
        "operator_c1": c1,
        "operator_c0": c0,
        "certificate_polynomial": certificate.certificate_polynomial(d, e, f, x),
        "psi": certificate.psi(d, e, f, x),
        "phi_partial_d": certificate.phi_partial_d(d, e, f, x),
        "psi_limit": certificate.psi_limit(d, e, f),
    }
    mismatches = [k for k, v in CHECKSUMS.items() if observed[k] != v]
    outcomes.append(CheckOutcome(
        "transcription checksums", not mismatches, float(len(mismatches)),
        "all certificate data matches hand-verified values at (1,1,1,1)"
        if not mismatches else f"MISMATCH in {mismatches}",
    ))

    def telescoping_points():
        for _ in range(count):
            D, point = _certificate_point(rng)
            yield D, (*point, Fraction(*_random_ratio(rng)))

    nonzero, witness = _exact_zeros(certificate.verify_telescoping, "(d, e, f, x)",
                                    telescoping_points())
    outcomes.append(CheckOutcome(
        "telescoping residual", nonzero == 0, float(nonzero),
        f"{count - nonzero}/{count} exact-zero residuals in rational arithmetic{witness}",
    ))

    worst = 0.0
    for _ in range(count):
        D, point = _tame_point(rng)
        limit = _tail_limit(D, point)
        df, ef, ff = (v / D for v in point)
        dev = max(
            abs(certificate.psi(df, ef, ff, 1e8) - limit),
            abs(certificate.psi(df, ef, ff, -1e8) - limit),
        ) / (1.0 + abs(limit))
        worst = max(worst, dev)
    tol = 1e-5
    outcomes.append(CheckOutcome(
        "psi tail limit", worst <= tol, worst,
        f"{count} points, worst |psi(+/-1e8) - limit|/(1+|limit|) = {worst:.3e}, "
        f"tolerance {tol:.1e}",
    ))
    return outcomes


def ode_suite(count: int, seed: int) -> list[CheckOutcome]:
    """Exact ODE residuals of dA/dd plus the integration-constant check."""
    rng = np.random.Generator(np.random.PCG64(seed))
    nonzero, witness = _exact_zeros(certificate.verify_ode_dadd, "(d, e, f)", (
        _certificate_point(rng) for _ in range(count)))
    outcomes = [CheckOutcome(
        "ode residual of dA/dd", nonzero == 0, float(nonzero),
        f"{count - nonzero}/{count} exact-zero residuals at square-discriminant points{witness}",
    )]
    report = certificate.verify_integration_constant()
    outcomes.append(CheckOutcome(
        "integration constant", report.passed, report.max_deviation,
        f"max |closed - quadrature| = {report.max_deviation:.3e} over "
        f"{len(report.cases)} grid points, tolerance {report.tolerance:.1e}",
    ))
    return outcomes


def monte_carlo_suite(count: int, seed: int,
                      samples: int = oracle.DEFAULT_SAMPLES) -> list[CheckOutcome]:
    """Seeded Monte-Carlo KL estimates against the closed form.

    Each estimate should land within 4 standard errors of the closed
    form; a single 4-sigma excursion among the batch is statistically
    unremarkable, so one miss per 20 pairs is tolerated.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    misses = 0
    worst_sigmas, worst_seed, worst_pair = 0.0, None, None
    for index, (p1, p2) in enumerate(_random_pairs(rng, count)):
        closed = core.kl_closed(p1, p2)
        result = oracle.kl_monte_carlo(p1, p2, samples, seed=seed + index)
        if result.standard_error == 0.0:
            hit = result.estimate == closed
            sigmas = 0.0 if hit else math.inf
        else:
            sigmas = abs(result.estimate - closed) / result.standard_error
            hit = sigmas <= 4.0
        if sigmas >= worst_sigmas:
            worst_sigmas, worst_seed, worst_pair = sigmas, seed + index, (p1, p2)
        misses += not hit
    allowed = max(1, count // 20)
    return [CheckOutcome(
        "monte-carlo 4-sigma coverage", misses <= allowed, float(misses),
        f"{count - misses}/{count} estimates within 4 standard errors "
        f"(worst {worst_sigmas:.2f} sigma, {samples} samples each, up to {allowed} misses allowed)"
        f"{_worst_at(worst_pair, worst_seed)}",
    )]


# Suite name -> (default count, runner(count, seed, samples)). Runners look
# the suite functions up at call time, so rebinding them takes effect.
_SUITES = {
    "closed-vs-quadrature": (1000, lambda n, seed, samples: closed_vs_quadrature_suite(n, seed)),
    "certificate": (500, lambda n, seed, samples: certificate_suite(n, seed)),
    "ode": (200, lambda n, seed, samples: ode_suite(n, seed)),
    "monte-carlo": (20, lambda n, seed, samples: monte_carlo_suite(n, seed, samples)),
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, count: int | None, seed: int,
              samples: int = oracle.DEFAULT_SAMPLES) -> list[CheckOutcome]:
    """Run one named suite (or all of them) and collect outcomes."""
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if count is not None and count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed!r}")
    outcomes: list[CheckOutcome] = []
    for suite_name in _SUITES if name == "all" else (name,):
        default_count, runner = _SUITES[suite_name]
        outcomes.extend(runner(default_count if count is None else count, seed, samples))
    return outcomes
