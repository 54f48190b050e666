"""Batch verification suites driven by the CLI `verify` subcommand.

Each suite runs the relevant closed-form / oracle / certificate
comparisons and returns one CheckOutcome per aggregate check, carrying
the worst residual observed; a NaN ranks above every number (`_rank`),
so it fails its check and is the case named. The float suites
(closed-vs-quadrature, monte-carlo) draw a seeded pseudorandom family of
check points from numpy's PCG64 generator, so a (suite, count, seed)
triple is fully reproducible. The exact suites (certificate, ode) draw nothing, so
--count and --seed do not change them: each of their identities goes
through one runner (`_prove`), which builds the grid that the identity's
degree bounds (`cauchykl.certificate`) need, in (d, e, f[, x]) or in
(d, e, m) at f = (e^2 + m^2)/(4d), runs the identity's integer-point core
(`certificate.residual_*`) once over it and once at a fixed point off it,
and writes the detail. The pairs (e, f) or (e, m) form a staircase sized
by the total degree in them (`_staircase`); a (d, e, m) grid also uses the
derived parity in e and factor m^k: it spans only enough values of e^2 and
k fewer values of m > 0 (`_square_grid`). Each grid is an open grid: one
numpy object array of Python ints per coordinate, shaped to broadcast
against the others, with e and f (or m) on one axis, so numpy evaluates
every subexpression only over the coordinates it depends on. Points are
counted, and a witness is named, in C order over the broadcast shape:
d, then the pairs row by row, then x.
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
from .jets import _first_at

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


def _staircase(names: str, rows: range, start: int, cap: int, total: int, w: int) -> tuple:
    """Columns (u, v) of the points (rows[i], start + j), j <= min(cap, total - w*i), row
    by row; their description; and the rule they prove with. A polynomial in (u, v) whose
    coefficient at the i-th u in Newton's form in u (in u^2 for w = 2, u^2 distinct on
    the rows) has degree <= min(cap, total - w*i) in v is zero if it vanishes there: row
    i fixes the i-th coefficient once the earlier ones are known to vanish."""
    pairs = [(u, start + j) for i, u in enumerate(rows) for j in range(min(cap, total - w * i) + 1)]
    u, v = names.split()
    lead = u if rows[0] == 0 else f"({u} - {rows[0]})"
    outer, lead, step = (u, lead, "i") if w == 1 else (f"{u}^{w}", f"{w}*{lead}", f"{w}*i")
    return tuple(zip(*pairs)), (
        f"{_span(u, rows)} and {_span(v, range(start, start + cap + 1))} with "
        f"{lead} + ({v} - {start}) <= {total}"), (
        f"in Newton's form in {outer} the coefficient at the i-th {u} has degree "
        f"<= min({cap}, {total} - {step}) in {v}")


def _plane_grid(bounds, names: list[str]) -> tuple[str, int, tuple, str]:
    """The grid (d, e, f[, x]) for an identity in (d, e, f[, x]): its description, its
    scale 1, its points and the rule that sizes its rows (`_staircase`). The pairs
    (e, f) lie on one axis, f from max(100, deg_e^2) up, so 4*d*f > e^2 and q > 0; with
    f - f0 for f, the residual keeps its degrees and its total degree ef in (e, f), so
    row e takes min(deg_f, ef - e) + 1 values of f, and x spans 0..deg_x."""
    top = bounds.top
    f0 = max(100, top.e ** 2)
    ds, xs = range(1, 2 if bounds.homogeneous else 2 + top.d), range(top.s + 1)
    pairs, plane, rows = _staircase("e f", range(top.e + 1), f0, top.f, top.ef, 1)
    axes = [(ds,), pairs, (xs,)][:len(names) - 1]
    grid = ", ".join([_span("d", ds), plane, *([_span("x", xs)] if len(names) == 4 else [])])
    return grid, 1, _open_grid(axes), rows


def _square_points(d, e, m) -> tuple:
    """The scale 4d and the integer point (4d^2, 4de, e^2 + m^2) of (d, e, m), on ints or
    open-grid arrays: (d, e, f) times 4d at f = (e^2 + m^2)/(4d)."""
    return 4 * d, (4 * d * d, 4 * d * e, e * e + m * m)


def _square_grid(bounds) -> tuple[str, np.ndarray, tuple, str]:
    """The grid (d, e, m) for an identity in (d, e, f) at f = (e^2 + m^2)/(4d): its
    description, its scale, its integer points (`_square_points`), as arrays built from
    the open grid, so each spans only the axes of its coordinates, and the rule that
    sizes its rows. m > 2d avoids the singular set d = f, e = 0 (there m = 2d); over d,
    d^deg_f clears f's denominator, and the pairs (e, m) lie on one axis.

    The grid spans only the values the bounds' parity, factor m^k and total degree em
    in (e, m) need. Even in e, the cleared residual is m^k*Q(e^2, m), and e in
    0..sub_e // 2 gives enough distinct e^2; odd in e, it is e*m^k*Q(e^2, m), and as
    many values start at e = 1. Q has degree <= sub_m - k in m and total degree
    <= T = em - k (em - 1 - k if odd) in (e, m), so row i of e takes
    min(sub_m - k, T - 2i) + 1 values of m > 0 (`_staircase`). Of mixed parity, e
    spans 0..sub_e, Q(e, m) has total degree <= em - k, and row i takes
    min(sub_m - k, T - i) + 1 values.
    """
    top, k = bounds.top, bounds.least_s
    ds = range(1, 2 if bounds.homogeneous else 2 + top.d + top.f)
    es = {0: range(top.sub_e // 2 + 1), 1: range(1, (top.sub_e + 1) // 2 + 1),
          None: range(top.sub_e + 1)}[bounds.parity]
    pairs, plane, rows = _staircase("e m", es, 2 * ds[-1] + 1, top.sub_m - k,
                                    top.em - k - (bounds.parity == 1),
                                    1 if bounds.parity is None else 2)
    d, e, m = _open_grid([(ds,), pairs])
    return f"{_span('d', ds)}, {plane}", *_square_points(d, e, m), rows


# An integer point far from every grid and on no special set, where each proof also
# runs its core: (d, e, f, x) on (d, e, f[, x]) grids and (d, e, m) on (d, e, m) grids.
# A change in code the degree bounds do not run can vanish on a grid, but hardly
# also here.
_OFF_GRID = (1, 1009, 10**6 + 3, 10007)
_OFF_SQUARE = (1, 1009, 10007)


def _prove(core, bounds, coordinates: str, what: str, cleared: str,
           note: str = "") -> tuple[int, str]:
    """Prove one identity on the grid its degree bounds need, and check it at one
    point off the grid; return the number of nonzero residuals and the detail.

    `_exact_zeros` runs `core`, a `certificate.residual_*` core, once over the grid
    in `coordinates`: "d e f x" or "d e f" (`_plane_grid`), or "d e m" at
    f = (e^2 + m^2)/(4d) (`_square_grid`), then once at `_OFF_GRID` or `_OFF_SQUARE`,
    on ints. `what` names the residuals, `cleared` what makes them polynomials. The
    detail gives the tally, the grid and the bounds that make it a proof: the degrees,
    on (d, e, m) the parity in e and the factor m^k, and the total degree that sizes
    the rows; then `note`, the off-grid point, zero or not, and, last, the first
    nonzero point on the grid, in (d, e, f[, x]), if there is one.
    """
    top, names = bounds.top, coordinates.split()
    if coordinates == "d e m":
        grid, D, points, rows = _square_grid(bounds)
        off_D, off = _square_points(*_OFF_SQUARE)
        k = bounds.least_s
        power = "m" if k == 1 else f"m^{k}"
        parity = {0: f"even in e, so of degree <= {top.sub_e // 2} in e^2",
                  1: f"odd in e, so e times a polynomial of degree <= {(top.sub_e - 1) // 2} in e^2",
                  None: "of mixed parity in e"}[bounds.parity]
        factor = (f"a multiple of {power}, so of degree <= {top.sub_m - k} in m once {power} is "
                  "divided out" if k else "no known multiple of m")
        degrees, cleared, at = ((top.d + top.f, top.sub_e, top.sub_m), f"{cleared} and d^{top.f}",
                                " at f = (e^2 + m^2)/(4d)")
        note = (f"; it is {parity}, {factor}, and of total degree <= {top.em} in (e, m), "
                f"so {rows}{note}")
        total = ""
    else:
        grid, D, points, rows = _plane_grid(bounds, names)
        off_D, off = 1, _OFF_GRID[:len(names)]
        degrees, at = top[:len(names)], ""
        total = f", and of total degree <= {top.ef} in (e, f), so {rows}"
    at_names = f"({', '.join(coordinates.replace('m', 'f').split())})"
    count, nonzero, witness = _exact_zeros(core, at_names, D, points)
    off_nonzero = _exact_zeros(core, at_names, off_D, off)[1]
    shape = ("homogeneous in (d, e, f), so d = 1 suffices" if bounds.homogeneous
             else "not homogeneous in (d, e, f), so d spans the grid too")
    return nonzero + off_nonzero, (
        f"{count - nonzero}/{count} exact-zero {what}, "
        f"{'disproved' if nonzero or off_nonzero else 'proved'} on the grid {grid}{at} "
        f"({count} points): times {cleared} it is a polynomial of degree "
        f"<= ({', '.join(map(str, degrees))}) in ({', '.join(names)}), {shape}{total}{note}; "
        f"{'nonzero' if off_nonzero else 'zero'} off the grid at {_at(at_names, off_D, *off)}"
        f"{witness}")


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

    residual, order, limit = certificate.telescoping_degrees()
    nonzero, detail = _prove(certificate.residual_telescoping, residual, "d e f x",
                             "residuals L[dphi/dd] - dpsi/dx", "q^4*(x^2+1)^2")
    outcomes.append(CheckOutcome("telescoping residual", nonzero == 0, float(nonzero), detail))
    nonzero, detail = _prove(
        certificate.residual_tail_limit, limit, "d e f",
        "residuals -2*p5/d^3 - psi_limit, p5 the x^5 coefficient of P", "d^3",
        f"; psi has x-degree {order} at infinity, so psi(1/t) "
        + ("is regular at t = 0 and both tails tend to -2*p5/d^3" if order <= 0
           else "has a pole at t = 0 and the tails diverge"))
    outcomes.append(CheckOutcome("psi tail limit", nonzero == 0 and order <= 0,
                                 float(nonzero + max(order, 0)), detail))
    return outcomes


def ode_suite() -> list[CheckOutcome]:
    """L[dA/dd] = 0, dA/dd against the residue theorem and the log factorization
    G1*G2 = (d-f)^2 + e^2, proved on the (d, e, m) grids that `certificate.ode_degrees`,
    `certificate.residue_degrees` and `certificate.g_factorization_degrees` size, in one
    check, plus the integration-constant deviations, judged at `_FLOAT_TOLERANCE`, naming
    the worst (d, e, f)."""
    proofs = [_prove(certificate.residual_ode_dadd, certificate.ode_degrees(), "d e m",
                     "residuals of L[dA/dd] for core's dA/dd / pi = num/den", "m^6*den^4"),
              _prove(certificate.residual_dadd_residues, certificate.residue_degrees(), "d e m",
                     "differences dA/dd - 2*pi*i*(Res_i + Res_rho)", "its denominator"),
              _prove(certificate.residual_g_factorization, certificate.g_factorization_degrees(),
                     "d e m", "residuals G1*G2 - (d-f)^2 - e^2, G1,2 = d + f +/- m", "m")]
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
# exact suites prove on derived grids and ignore count and seed.
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
