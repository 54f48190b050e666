"""Batch verification suites driven by the CLI `verify` subcommand.

Each suite runs the relevant closed-form / oracle / certificate
comparisons and returns one CheckOutcome per aggregate check, carrying
the worst residual observed; a NaN ranks above every number (`_rank`),
so it fails its check and is the case named. The float suites
(closed-vs-quadrature, monte-carlo) draw a seeded pseudorandom family of
check points from numpy's PCG64 generator, so a (suite, count, seed)
triple is fully reproducible. The exact suites (certificate, ode) draw
nothing, so --count and --seed do not change them.

Four of their five identities, the tail limit, the ODE, the residues and
the factorization, are polynomial identities, proved by one runner
(`_prove_polynomial`): it runs the identity's unchecked body once on
exact polynomials (`jets._Poly`) and proves it when the numerator is the
zero polynomial and the denominator is not; a failure names the first
small integer point where the numerator is nonzero, which a scalar
`certificate.verify_*` call reproduces. The telescoping identity stays on
a grid, because as a polynomial it costs several times as much: its
runner (`_prove`) builds the grid that its degree bounds
(`certificate.telescoping_degrees`) need in (d, e, f, x), runs its
integer-point core (`certificate.residual_telescoping`) once over it and
once at a fixed point off it, and writes the detail. The pairs (e, f)
form a staircase sized by the total degree in them (`_staircase`). The
grid is an open grid: one numpy object array of Python ints per
coordinate, shaped to broadcast against the others, with e and f on one
axis, so numpy evaluates every subexpression only over the coordinates
it depends on. Points are counted, and a witness is named, in C order
over the broadcast shape: d, then the pairs row by row, then x.
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
from .jets import _Poly, _first_at

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


def _open_grid(axes) -> tuple[np.ndarray, ...]:
    """One object array of Python ints per column of `axes`, a sequence of axes that
    each hold equal-length columns: a column spans its own axis and is 1 long on the
    others, so the columns of one axis vary together and those of different axes
    broadcast to their product."""
    return tuple(np.array(list(column), dtype=object).reshape(
        [-1 if axis == k else 1 for axis in range(len(axes))])
        for k, columns in enumerate(axes) for column in columns)


def _exact_zeros(residual, names: str, D, args) -> tuple[int, int, str]:
    """Number of points, number where the exact residual is nonzero, and a detail
    suffix naming the first of them in exact fractions, so one call reproduces it.

    `residual` is a `certificate.residual_*` core, run once on the grid `args`,
    whose first three arrays are D*(d, e, f), integer points; the grid's points
    are those of the arrays broadcast together, and ints make a grid of one point.
    Every part of its (num, den) must be an int, else TypeError
    (`certificate._exact_residual`). Every exact residual is homogeneous in
    (d, e, f), so it vanishes with the residual at (d, e, f), and the witness
    names (d, e, f).
    """
    num, den = certificate._exact_residual(residual, *args)
    nonzero = np.broadcast_to(num != 0, np.broadcast_shapes(*map(np.shape, args)))
    witness = ""
    if np.any(nonzero):
        witness = f"; first nonzero at {_at(names, *_first_at(nonzero, D, *args))}"
    return nonzero.size, int(np.count_nonzero(nonzero)), witness


def _at(names: str, scale, *point) -> str:
    """`names` = the integer point with its (d, e, f) divided by `scale`, exactly."""
    point = (*(Fraction(v, scale) for v in point[:3]), *point[3:])
    return f"{names} = ({', '.join(map(str, point))})"


def _span(name: str, values) -> str:
    """"name = v" for one value, else "name in first..last"."""
    return f"{name} = {values[0]}" if len(values) == 1 else f"{name} in {values[0]}..{values[-1]}"


def _staircase(rows: range, start: int, cap: int, total: int) -> tuple:
    """Columns (e, f) of the points (rows[i], start + j), j <= min(cap, total - i), row
    by row; their description; and the rule they prove with. A polynomial in (e, f)
    whose coefficient at the i-th e in Newton's form in e has degree
    <= min(cap, total - i) in f is zero if it vanishes there: row i fixes the i-th
    coefficient once the earlier ones are known to vanish."""
    pairs = [(e, start + j) for i, e in enumerate(rows) for j in range(min(cap, total - i) + 1)]
    return tuple(zip(*pairs)), (
        f"{_span('e', rows)} and {_span('f', range(start, start + cap + 1))} with "
        f"e + (f - {start}) <= {total}"), (
        f"in Newton's form in e the coefficient at the i-th e has degree "
        f"<= min({cap}, {total} - i) in f")


def _plane_grid(bounds) -> tuple[str, tuple, str]:
    """The grid (d, e, f, x) for an identity in (d, e, f, x): its description, its
    points and the rule that sizes its rows (`_staircase`). The pairs (e, f) lie on
    one axis, f from max(100, deg_e^2) up, so 4*d*f > e^2 and q > 0; with f - f0 for
    f, the residual keeps its degrees and its total degree ef in (e, f), so row e
    takes min(deg_f, ef - e) + 1 values of f, and x spans 0..deg_x."""
    top = bounds.top
    f0 = max(100, top.e ** 2)
    ds, xs = range(1, 2 if bounds.homogeneous else 2 + top.d), range(top.x + 1)
    pairs, plane, rows = _staircase(range(top.e + 1), f0, top.f, top.ef)
    grid = f"{_span('d', ds)}, {plane}, {_span('x', xs)}"
    return grid, _open_grid([(ds,), pairs, (xs,)]), rows


# An integer point (d, e, f, x) far from every grid and on no special set, where the
# telescoping proof also runs its core. A change in code the degree bounds do not run
# can vanish on a grid, but hardly also here.
_OFF_GRID = (1, 1009, 10**6 + 3, 10007)


def _prove(core, bounds, what: str, cleared: str) -> tuple[int, str]:
    """Prove an identity in (d, e, f, x) on the grid its degree bounds need, and check
    it at one point off the grid; return the number of nonzero residuals and the detail.

    `_exact_zeros` runs `core`, a `certificate.residual_*` core, once over the grid
    (`_plane_grid`), then once at `_OFF_GRID`, on ints. `what` names the residuals,
    `cleared` what makes them polynomials. The detail gives the tally, the grid and
    the bounds that make it a proof: the degrees and the total degree that sizes the
    rows; then the off-grid point, zero or not, and, last, the first nonzero point on
    the grid, if there is one.
    """
    top, names = bounds.top, "d e f x".split()
    grid, points, rows = _plane_grid(bounds)
    at_names = f"({', '.join(names)})"
    count, nonzero, witness = _exact_zeros(core, at_names, 1, points)
    off_nonzero = _exact_zeros(core, at_names, 1, _OFF_GRID)[1]
    shape = ("homogeneous in (d, e, f), so d = 1 suffices" if bounds.homogeneous
             else "not homogeneous in (d, e, f), so d spans the grid too")
    return nonzero + off_nonzero, (
        f"{count - nonzero}/{count} exact-zero {what}, "
        f"{'disproved' if nonzero or off_nonzero else 'proved'} on the grid {grid} "
        f"({count} points): times {cleared} it is a polynomial of degree "
        f"<= ({', '.join(map(str, top[:4]))}) in ({', '.join(names)}), {shape}, and of "
        f"total degree <= {top.ef} in (e, f), so {rows}; "
        f"{'nonzero' if off_nonzero else 'zero'} off the grid at {_at(at_names, 1, *_OFF_GRID)}"
        f"{witness}")


def _points(coordinates: str) -> Iterator[tuple]:
    """Small integer points (d, e, v), by d + e + v and then in lexicographic order,
    where a residual named at them reproduces: with v = f, those with
    4*d*f - e^2 > 0; with v = m, those with gcd(e^2 + m^2, 4d) = 1, where
    4d*(d, e, f) at f = (e^2 + m^2)/(4d) is already the least integer multiple, so
    the scalar check runs its core at the very same integer point. That also keeps
    them off the singular set e = 0, m = 2d, where e^2 + m^2 is even."""
    for total in itertools.count(2):
        for d in range(1, total):
            for e in range(total - d):
                v = total - d - e
                if (4 * d * v > e * e if coordinates == "d e f"
                        else math.gcd(e * e + v * v, 4 * d) == 1):
                    yield d, e, v


def _terms(polynomial: _Poly) -> str:
    n = len(polynomial.terms)
    return f"of {n} term" if n == 1 else f"of {n} terms"


def _prove_polynomial(body, coordinates: str, what: str, note: str = "") -> tuple[int, str]:
    """Prove one identity in (d, e, f) as a polynomial identity; return 0 or 1, the
    number of failures, and the detail.

    `body`, an unchecked `certificate` core, runs once on exact polynomials
    (`jets._Poly`): on the variables of Z[d, e, f] for `coordinates` "d e f", or for
    "d e m" at (4d^2, 4de, e^2 + m^2) in Z[d, e, m], 4d times the point (d, e, f) at
    f = (e^2 + m^2)/(4d), which is every point whose guard 4*d*f - e^2 is a square
    m^2, scaled; there the guard is (4dm)^2 and its root 4dm. When the numerator is
    the zero polynomial and the denominator is not, the identity holds wherever the
    denominator does not vanish: no degree bound, grid or off-grid point is needed.
    Otherwise the detail ends with the first small point (`_points`) where numerator
    and denominator are both nonzero, in (d, e, f), where the scalar `verify_*`
    reproduces a nonzero residual.
    """
    d, e, v = _Poly.variables(coordinates)
    scaled = (d, e, v) if coordinates == "d e f" else (4 * d * d, 4 * d * e, e * e + v * v)
    zero = _Poly({}, d.names)
    num, den = (zero + part for part in certificate._exact_residual(body, *scaled))
    ring = f"Z[{', '.join(d.names)}]"
    if coordinates == "d e m":
        ring += " at (d, e, f) = (4d^2, 4de, e^2 + m^2), where 4*d*f - e^2 = (4dm)^2"
    if den == 0:
        return 1, f"{what}: disproved in {ring}, as its denominator is the zero polynomial{note}"
    if num == 0:
        return 0, (f"{what}: proved in {ring}, as its numerator is the zero polynomial and "
                   f"its denominator, {_terms(den)}, is not{note}")
    point = next(p for p in _points(coordinates) if num.at(p) != 0 and den.at(p) != 0)
    scale = 1 if coordinates == "d e f" else 4 * point[0]
    return 1, (f"{what}: disproved in {ring}, as its numerator, {_terms(num)}, is not the "
               f"zero polynomial{note}; first nonzero at "
               f"{_at('(d, e, f)', scale, *(x.at(point) for x in scaled))}")


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
    """Transcription checksums, then the telescoping identity and the psi tail
    limits, proved on grids sized by `certificate.telescoping_degrees`."""
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

    residual, order = certificate.telescoping_degrees()
    nonzero, detail = _prove(certificate.residual_telescoping, residual,
                             "residuals L[dphi/dd] - dpsi/dx", "q^4*(x^2+1)^2")
    outcomes.append(CheckOutcome("telescoping residual", nonzero == 0, float(nonzero), detail))
    nonzero, detail = _prove_polynomial(
        certificate._tail_gap, "d e f", "-2*p5/d^3 - psi_limit, p5 the x^5 coefficient of P",
        f"; psi has x-degree {order} at infinity, so psi(1/t) "
        + ("is regular at t = 0 and both tails tend to -2*p5/d^3" if order <= 0
           else "has a pole at t = 0 and the tails diverge"))
    outcomes.append(CheckOutcome("psi tail limit", nonzero == 0 and order <= 0,
                                 float(nonzero + max(order, 0)), detail))
    return outcomes


def ode_suite() -> list[CheckOutcome]:
    """L[dA/dd] = 0, dA/dd against the residue theorem and the log factorization
    G1*G2 = (d-f)^2 + e^2, each proved as a polynomial identity in Z[d, e, m]
    (`_prove_polynomial`), in one check, plus the integration-constant deviations,
    judged at `_FLOAT_TOLERANCE`, naming the worst (d, e, f)."""
    proofs = [_prove_polynomial(certificate._ode_gap, "d e m",
                                "L[dA/dd / pi] for core's dA/dd / pi on a d-jet"),
              _prove_polynomial(certificate._residue_gap, "d e m",
                                "Re(2i*(Res_i + Res_rho)) - dA/dd / pi"),
              _prove_polynomial(certificate._g_gap, "d e m",
                                "m*(G1*G2 - (d-f)^2 - e^2), G1,2 = d + f +/- m")]
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
# exact suites prove polynomial identities and the telescoping identity on its
# derived grid, and ignore count and seed.
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
