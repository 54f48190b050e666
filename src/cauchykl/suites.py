"""Batch verification suites driven by the CLI `verify` subcommand.

Each suite runs the relevant closed-form / oracle / certificate
comparisons and returns one CheckOutcome per aggregate check, carrying
the worst residual observed; a NaN ranks above every number (`_rank`),
so it fails its check and is the case named. The float suites
(closed-vs-quadrature, monte-carlo) draw a seeded pseudorandom family of
check points from numpy's PCG64 generator, so a (suite, count, seed)
triple is fully reproducible. The exact suites (certificate, ode) draw
nothing, so --count and --seed do not change them.

Their five identities, the telescoping relation, the tail limit, the
ODE, the residues and the factorization, are polynomial identities
between two sides a/b = c/d, each run once on exact polynomials
(`jets._Poly`) by its unchecked body (`_sides`) and proved by one runner
(`_prove_polynomial`): the identity holds when b and d are not the zero
polynomial and a*d - c*b is, which one Kronecker substitution in the last
variable decides without expanding a*d or c*b. A failure runs the body
itself at small integer points and names the first where its int sides have
a*d - c*b, b and d nonzero: there a scalar `certificate.verify_*` call runs
the same body on the same ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import certificate, core, oracle
from .core import CauchyDist
from .errors import ParameterError
from .jets import _Poly

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
# at (d, e, f, x) = (1, 1, 1, 1). d, e and f are ints, which keeps the
# polynomials on int arithmetic; x stays a Fraction, so phi_partial_d's
# one division is exact.
CHECKSUM_POINT = (1, 1, 1, Fraction(1))
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
# Largest deviation the float checks against the quadrature oracle accept.
_FLOAT_TOLERANCE = 1e-8


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


def _scaled_point(d, e, m) -> tuple:
    """(4d^2, 4de, e^2 + m^2): 4d times the point (d, e, f) at f = (e^2 + m^2)/(4d),
    which is every point whose guard 4*d*f - e^2 is a square m^2, scaled; there the
    guard is (4dm)^2 and its root 4dm. On ints and on `jets._Poly` alike."""
    return 4 * d * d, 4 * d * e, e * e + m * m


def _points(coordinates: str) -> Iterator[tuple]:
    """Small integer points of `coordinates`, by the sum of their coordinates and then
    in lexicographic order, each as the int arguments (d, e, f) or (d, e, f, x) of a
    body there: (d, e, f) or (d, e, f, x) with 4*d*f - e^2 > 0, or (d, e, m) off the
    singular set (e, m) = (0, 2d), as its `_scaled_point` is on d = f, e = 0 there."""
    for total in itertools.count(2):
        for d in range(1, total):
            for e in range(total - d):
                rest = total - d - e
                if coordinates == "d e m":
                    if (e, rest) != (0, 2 * d):
                        yield _scaled_point(d, e, rest)
                elif coordinates == "d e f":
                    if 4 * d * rest > e * e:
                        yield d, e, rest
                else:
                    yield from ((d, e, f, rest - f) for f in range(1, rest + 1)
                                if 4 * d * f > e * e)


def _sides(body, coordinates: str) -> tuple:
    """`body`'s two sides (a, b) and (c, d), each part a `jets._Poly`: the unchecked
    `certificate` body runs once on the variables of Z[d, e, f] or Z[d, e, f, x] for
    `coordinates` "d e f" or "d e f x", and for "d e m" on their `_scaled_point` in
    Z[d, e, m]. A part that is not an int or a polynomial raises TypeError
    (`certificate._exact_residual`)."""
    variables = _Poly.variables(coordinates)
    if coordinates == "d e m":
        variables = _scaled_point(*variables)
    zero = _Poly({}, tuple(coordinates.split()))
    (a, b), (c, d) = body(*variables)
    a, b, c, d = (part + zero for part in certificate._exact_residual(a, b, c, d))
    return (a, b), (c, d)


def _terms(polynomial: _Poly) -> str:
    n = len(polynomial.terms)
    return f"of {n} term" if n == 1 else f"of {n} terms"


def _norm_product(p: _Poly, q: _Poly) -> int:
    """||p||_1 * ||q||_inf, which no coefficient of p*q exceeds in size."""
    return sum(map(abs, p.terms.values())) * max(map(abs, q.terms.values()), default=0)


def _fails_at(body, point) -> bool:
    """Whether `body`'s int sides ((a, b), (c, d)) at the int point have a*d - c*b, b
    and d all nonzero. A body that divides by zero there (a jet division by a zero
    head, say) is no witness: its polynomial b or d vanishes at that point."""
    try:
        (a, b), (c, d) = body(*point)
    except ZeroDivisionError:
        return False
    return b != 0 and d != 0 and a * d != c * b


def _prove_polynomial(body, sides, what: str, note: str = "") -> tuple[int, str]:
    """Prove the identity a/b = c/d of `body`'s sides ((a, b), (c, d)) from `_sides`
    in their ring; return 0 or 1, the number of failures, and the detail.

    It holds wherever b*d does not vanish when b and d are not the zero polynomial
    and a*d - c*b is. The coefficients of a*d - c*b are at most bound =
    ||a||_1*||d||_inf + ||c||_1*||b||_inf < 2^k in size, k = bound.bit_length(),
    so its balanced digits in base X = 2^(k+1) in the last variable are unique: it
    is zero exactly when its value at X is. That Kronecker substitution compares
    A*D with C*B in one variable fewer and expands neither product of the full
    sides; no degree bound, grid or off-grid point is needed. Otherwise the detail
    ends with the first small integer point (`_points`) where the body itself, run
    there on ints, gives a*d - c*b, b and d all nonzero (`_fails_at`), named as the
    body's arguments (d, e, f) or (d, e, f, x): there the scalar `verify_*` runs the
    same body on the same ints and returns that nonzero residual.
    """
    (a, b), (c, d) = sides
    names = a.names
    ring = f"Z[{', '.join(names)}]"
    if names == ("d", "e", "m"):
        ring += " at (d, e, f) = (4d^2, 4de, e^2 + m^2), where 4*d*f - e^2 = (4dm)^2"
    if b == 0 or d == 0:
        return 1, f"{what}: disproved in {ring}, as its denominator is the zero polynomial{note}"
    k = (_norm_product(a, d) + _norm_product(c, b)).bit_length()
    if a.at_last(k + 1) * d.at_last(k + 1) == c.at_last(k + 1) * b.at_last(k + 1):
        return 0, (f"{what}: proved in {ring}, as a*d - c*b is the zero polynomial for its "
                   f"sides a/b and c/d: its coefficients are below 2^{k} in size and it "
                   f"vanishes at {names[-1]} = 2^{k + 1}, while b, {_terms(b)}, and d, "
                   f"{_terms(d)}, are not zero{note}")
    point = next(p for p in _points(" ".join(names)) if _fails_at(body, p))
    return 1, (f"{what}: disproved in {ring}, as a*d - c*b is not the zero polynomial for "
               f"its sides a/b and c/d{note}; first nonzero at "
               f"({', '.join('defx'[:len(point)])}) = ({', '.join(map(str, point))})")


def _rank(residual: float) -> tuple[bool, float]:
    """Sort key that picks a float check's worst residual: a NaN, which no comparison
    ranks, above every number, and numbers by their value."""
    return math.isnan(residual), residual


def _worst_at(pair: tuple[CauchyDist, CauchyDist], seed: int | None = None) -> str:
    """Detail suffix naming the pair (and sampler seed) of a worst residual exactly,
    with %r, so one CLI call reproduces it."""
    p1, p2 = pair
    at = "" if seed is None else f"seed {seed}, "
    return "; worst at %s(l1, s1, l2, s2) = (%r, %r, %r, %r)" % (
        at, p1.location, p1.scale, p2.location, p2.scale)


def closed_vs_quadrature_suite(count: int, seed: int) -> list[CheckOutcome]:
    """Closed-form KL and cross-entropy against the quadrature oracle at its default tolerances.

    Each detail ends with the pair of its worst residual.
    """
    oracle._check_integer(count, "count", 1)
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
            if _rank(residual) >= _rank(worst[name][0]):
                worst[name] = residual, (p1, p2)
            unconverged += not result.converged
    tails = {"kl": f", unconverged {unconverged}", "cross-entropy": ""}
    return [
        CheckOutcome(
            f"{name} closed vs quadrature", residual <= _FLOAT_TOLERANCE, residual,
            f"{count} pairs, worst |closed - numeric|/(1+|closed|) = {residual:.3e}, "
            f"tolerance {_FLOAT_TOLERANCE:.1e}{tails[name]}{_worst_at(pair)}",
        )
        for name, (residual, pair) in worst.items()
    ]


def certificate_suite() -> list[CheckOutcome]:
    """Transcription checksums, then the telescoping identity in Z[d, e, f, x] and the
    psi tail limits in Z[d, e, f], each proved as a polynomial identity
    (`_prove_polynomial`). psi's x-degree at infinity comes from dpsi/dx, the
    telescoping identity's right side, on the shipped psi's x-jet: a rational psi
    tends to one finite limit at both tails exactly when dpsi/dx has x-degree at
    most -2, and has x-degree one more than dpsi/dx otherwise."""
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

    body = certificate._telescoping_sides
    sides = _sides(body, "d e f x")
    nonzero, detail = _prove_polynomial(body, sides, "L[dphi/dd] - dpsi/dx")
    outcomes.append(CheckOutcome("telescoping residual", nonzero == 0, float(nonzero), detail))
    slope = sides[1][0].last_degree() - sides[1][1].last_degree()
    order = slope + 1 if slope >= 0 else 0
    body = certificate._tail_sides
    nonzero, detail = _prove_polynomial(
        body, _sides(body, "d e f"), "-2*p5/d^3 - psi_limit, p5 the x^5 coefficient of P",
        f"; dpsi/dx has x-degree {slope} at infinity, so psi has x-degree "
        + (f"{order} there, psi(1/t) has a pole at t = 0 and the tails diverge" if order
           else "<= 0 there, psi(1/t) is regular at t = 0 and both tails tend to -2*p5/d^3"))
    outcomes.append(CheckOutcome("psi tail limit", nonzero == 0 and not order,
                                 float(nonzero + order), detail))
    return outcomes


def ode_suite() -> list[CheckOutcome]:
    """L[dA/dd] = 0, dA/dd against the residue theorem and the log factorization
    G1*G2 = (d-f)^2 + e^2, each proved as a polynomial identity in Z[d, e, m]
    (`_prove_polynomial`), in one check, plus the integration-constant deviations,
    judged at `_FLOAT_TOLERANCE`, naming the worst (d, e, f)."""
    proofs = [_prove_polynomial(body, _sides(body, "d e m"), what) for body, what in (
        (certificate._ode_sides, "L[dA/dd / pi] for core's dA/dd / pi on a d-jet"),
        (certificate._residue_sides, "Re(2i*(Res_i + Res_rho)) - dA/dd / pi"),
        (certificate._g_sides, "m*(G1*G2 - (d-f)^2 - e^2), G1,2 = d + f +/- m"))]
    failures = sum(nonzero for nonzero, _ in proofs)
    outcomes = [CheckOutcome("ode residual of dA/dd", failures == 0, float(failures),
                             "; ".join(detail for _, detail in proofs))]
    cases = certificate.verify_integration_constant()
    d, e, worst = max(cases, key=lambda case: _rank(case[2]))
    outcomes.append(CheckOutcome(
        "integration constant", worst <= _FLOAT_TOLERANCE, worst,
        f"max |closed - quadrature| = {worst:.3e} over {len(cases)} grid points, "
        f"tolerance {_FLOAT_TOLERANCE:.1e}; worst at (d, e, f) = ({d!r}, {e!r}, {d!r})",
    ))
    return outcomes


def monte_carlo_suite(count: int, seed: int,
                      samples: int = oracle.DEFAULT_SAMPLES) -> list[CheckOutcome]:
    """Seeded Monte-Carlo KL estimates against the closed form.

    Each estimate should land within 4 standard errors of the closed
    form; a single 4-sigma excursion among the batch is statistically
    unremarkable, so one miss per 20 pairs is tolerated. An estimate or
    standard error that is not finite is a defect, not an excursion: it
    fails the check, whatever the allowance.
    """
    oracle._check_integer(count, "count", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    misses = nonfinite = 0
    worst_sigmas, worst_seed, worst_pair = 0.0, None, None
    for index, (p1, p2) in enumerate(_random_pairs(rng, count)):
        closed = core.kl_closed(p1, p2)
        result = oracle.kl_monte_carlo(p1, p2, samples, seed=seed + index)
        nonfinite += not (math.isfinite(result.estimate) and math.isfinite(result.standard_error))
        if result.standard_error == 0.0:
            hit = result.estimate == closed
            sigmas = 0.0 if hit else math.inf
        else:
            sigmas = abs(result.estimate - closed) / result.standard_error
            hit = sigmas <= 4.0
        if _rank(sigmas) >= _rank(worst_sigmas):
            worst_sigmas, worst_seed, worst_pair = sigmas, seed + index, (p1, p2)
        misses += not hit
    allowed = max(1, count // 20)
    tally = f", {nonfinite} not finite" if nonfinite else ""
    return [CheckOutcome(
        "monte-carlo 4-sigma coverage", misses <= allowed and not nonfinite, float(misses),
        f"{count - misses}/{count} estimates within 4 standard errors "
        f"(worst {worst_sigmas:.2f} sigma, {samples} samples each, up to {allowed} misses allowed"
        f"{tally}){_worst_at(worst_pair, worst_seed)}",
    )]


# Suite name -> (default count, runner(count, seed, samples)). Runners look
# the suite functions up at call time, so rebinding them takes effect. The
# exact suites prove polynomial identities, and ignore count and seed.
_SUITES = {
    "closed-vs-quadrature": (1000, lambda n, seed, samples: closed_vs_quadrature_suite(n, seed)),
    "certificate": (None, lambda n, seed, samples: certificate_suite()),
    "ode": (None, lambda n, seed, samples: ode_suite()),
    "monte-carlo": (20, lambda n, seed, samples: monte_carlo_suite(n, seed, samples)),
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, count: int | None, seed: int,
              samples: int = oracle.DEFAULT_SAMPLES) -> list[CheckOutcome]:
    """Run one named suite (or all of them) and collect outcomes."""
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if count is not None:
        oracle._check_integer(count, "count", 1)
    oracle._check_integer(seed, "seed", 0)
    outcomes: list[CheckOutcome] = []
    for suite_name in _SUITES if name == "all" else (name,):
        default_count, runner = _SUITES[suite_name]
        outcomes.extend(runner(default_count if count is None else count, seed, samples))
    return outcomes
