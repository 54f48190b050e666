"""Independent numerical evaluation of the integrals behind the closed forms.

Everything here integrates over the real line through the compactifying
substitution x = tan(theta), which maps R onto (-pi/2, pi/2) and turns
the heavy Cauchy tails into a bounded factor: for the standard density,
p(tan(theta)) * sec^2(theta) is the constant 1/pi. The finite interval is
then covered by panels and refined adaptively with an embedded
Gauss(7)/Kronrod(15) pair, always splitting the panel with the largest
error estimate. Two kinds of panel boundaries are installed up front:

* the vertices and half-widths of the quadratics involved (callers pass
  them as `breakpoints`), where the log factor or the density is sharpest;
* a geometric ladder accumulating at theta = +/-pi/2, because integrands
  carrying a bare log factor grow like log|tan(theta)| toward the
  endpoints and bisection alone is slow against that.

Panels are evaluated in batches: the initial panels in one call and the
two halves of each refinement step in one call, every node of every
panel in one array. Arithmetic (+ - * /) runs in numpy, which rounds
each operation exactly as Python floats do; transcendentals (math.tan at
the nodes, math.log in the integrands, a caller's f-divergence
generator) are applied to each element from libm, never through numpy's
SIMD np.tan/np.log, which differ from libm in the last bit on some
inputs and CPUs. The Kronrod and Gauss sums accumulate node by node in a
fixed order, so results are bit-identical to evaluating one node at a
time, and the same on every CPU for a given libm. The nodes of the
panels between consecutive ladder boundaries are the same for every
integral; their tangents are computed once per process, on
first use, into one table of 98 rows (split panels are not cached).

KL, cross-entropy and f-divergence between two Cauchy densities share
one integrand builder, `_pair_integral`: it forms the pair of quadratics
s_i^2 + (x - l_i)^2 at every node, places the six breakpoints l_i and
l_i -/+ s_i, and integrates the divergence's function of that pair.

Results report the value, the summed error estimate, the number of
integrand evaluations and a convergence flag; exhausting the refinement
depth yields converged=False rather than an exception, so batch drivers
can record partial results. Everything is deterministic: identical inputs
produce bit-identical results.

The Monte-Carlo estimator draws through the quantile map
l + s*tan(pi*(u - 1/2)) from numpy's seeded PCG64 generator, making every
estimate reproducible from (inputs, samples, seed). Its mean and standard
error are built from correctly rounded sums (math.fsum semantics, summed
by `correctly_rounded_sum`), so they do not depend on the order in which
numpy reduces an array.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import CauchyDist, PositiveQuadratic
from .errors import IntegrandEvaluationError, ParameterError

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "MonteCarloResult",
    "DEFAULT_CONFIG",
    "DEFAULT_SAMPLES",
    "integrate_real_line",
    "integral_a_numeric",
    "kl_numeric",
    "cross_entropy_numeric",
    "f_divergence_numeric",
    "correctly_rounded_sum",
    "kl_monte_carlo",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (QUADPACK dqk15 abscissae and weights).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_HALF_PI = 0.5 * math.pi
# Ladder of panel boundaries accumulating at the interval ends; the
# innermost boundary sits at distance (pi/4) * 2**-47 ~ 5.6e-15 from the
# endpoint, past which the leftover sliver contributes below 1e-13 even
# for log-singular integrands.
_ENDPOINT_LEVELS = 48
# Hard cap on refinement steps; unreachable for the integrand family this
# oracle targets, present so a pathological user integrand cannot spin.
_MAX_SPLITS = 200_000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for the adaptive integrator."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_refinement_depth: int = 20

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0.0 and math.isfinite(self.relative_tolerance)):
            raise ParameterError(f"relative_tolerance must be > 0, got {self.relative_tolerance!r}")
        if not (self.absolute_tolerance > 0.0 and math.isfinite(self.absolute_tolerance)):
            raise ParameterError(f"absolute_tolerance must be > 0, got {self.absolute_tolerance!r}")
        if int(self.max_refinement_depth) < 1:
            raise ParameterError(f"max_refinement_depth must be >= 1, got {self.max_refinement_depth!r}")

    def tolerance_for(self, value: float) -> float:
        return max(self.absolute_tolerance, self.relative_tolerance * abs(value))


DEFAULT_CONFIG = QuadratureConfig()
# Monte-Carlo sample count used wherever the caller does not choose one.
DEFAULT_SAMPLES = 1_000_000
# Unit roundoff of binary64.
_U = 2.0 ** -53


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of one seeded Monte-Carlo estimation."""

    estimate: float
    standard_error: float
    samples: int
    seed: int


def _elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """`fn` applied to each element of the 1-D float array `x`, in order.

    Transcendentals go through here (math.tan, math.log, a caller's
    scalar function) rather than through numpy's ufuncs, whose SIMD
    builds can differ from libm by an ulp on some CPUs.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _ieee_log(v: float) -> float:
    if v > 0.0:
        return math.log(v)
    return -math.inf if v == 0.0 else math.nan


def _log(x: np.ndarray) -> np.ndarray:
    """math.log of each element; -inf at 0 and nan below 0 instead of raising."""
    try:
        return _elementwise(math.log, x)
    except ValueError:
        return _elementwise(_ieee_log, x)


# One panel's 15 nodes in the order they are evaluated: the centre c,
# then c - u_j and c + u_j for j = 0..6, as multiples of the half-width.
# A panel's nodes fill one row; flattened, the rows give the order in
# which a scalar loop would evaluate the panels.
_NODE_OFFSETS = np.array([0.0] + [sign * x for x in _XGK[:7] for sign in (-1.0, 1.0)])
# Weights of f(c) and of the pair sums f(c - u_j) + f(c + u_j): Kronrod
# on all eight, Gauss on f(c) and the pairs j = 1, 3, 5.
_KRONROD_WEIGHTS = np.array((_WGK[7],) + _WGK[:7])
_GAUSS_WEIGHTS = np.array((_WG[3],) + _WG[:3])


def _tan_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = tan(theta) at the 15 Kronrod nodes of each panel [a_i, b_i]."""
    c = 0.5 * (a + b)
    theta = c[:, None] + (0.5 * (b - a))[:, None] * _NODE_OFFSETS
    return _elementwise(math.tan, theta.ravel()).reshape(theta.shape)


def _gk15(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
) -> tuple[list[float], list[float]]:
    """Gauss-Kronrod 7/15 on every panel [a_i, b_i] at once.

    `f` maps a 1-D array of abscissae to the integrand's values there;
    `x` holds the panels' tan nodes, one row per panel. Returns the Kronrod
    values and the error estimates |K15 - G7| * h. The plain difference
    overestimates the Kronrod error by orders of magnitude on smooth
    panels, which keeps the reported estimate on the safe side. Both
    sums accumulate node by node (np.add.accumulate is sequential), so
    every panel gets the bits of a scalar evaluation. The first
    non-finite sample in evaluation order raises IntegrandEvaluationError.
    """
    x = x.ravel()
    y = f(x) * (1.0 + x * x)
    if not math.isfinite(y.sum()):
        # A sample is not finite, or the sum overflowed: look for the first.
        finite = np.isfinite(y)
        if not finite.all():
            i = int(finite.argmin())
            raise IntegrandEvaluationError(float(x[i]), float(y[i]))
    y = y.reshape(-1, 15)
    v = np.concatenate((y[:, :1], y[:, 1::2] + y[:, 2::2]), axis=1)
    resk = np.add.accumulate(v * _KRONROD_WEIGHTS, axis=1)[:, -1]
    resg = np.add.accumulate(v[:, ::2] * _GAUSS_WEIGHTS, axis=1)[:, -1]
    h = 0.5 * (b - a)
    return (resk * h).tolist(), (np.abs(resk - resg) * h).tolist()


@functools.cache
def _ladder() -> tuple[list[float], dict[tuple[float, float], int], np.ndarray]:
    """The fixed panel boundaries and the tan nodes of the panels between them.

    The boundaries are -pi/2, 0, pi/2 and the endpoint ladder, sorted.
    Row i of the table holds the nodes of the panel the index maps to i.
    Most initial panels of every integral are such panels, so the table
    is built on first use and kept for the process; split panels are not
    cached.
    """
    thetas = {-_HALF_PI, 0.0, _HALF_PI}
    for k in range(_ENDPOINT_LEVELS):
        delta = 0.25 * math.pi * 2.0 ** (-k)
        thetas.add(_HALF_PI - delta)
        thetas.add(delta - _HALF_PI)
    pts = sorted(thetas)
    index = {panel: i for i, panel in enumerate(zip(pts, pts[1:]))}
    return pts, index, _tan_nodes(np.array(pts[:-1]), np.array(pts[1:]))


def _theta_breakpoints(breakpoints: Iterable[float]) -> list[float]:
    """The ladder with atan(x) inserted for each finite breakpoint x."""
    pts = list(_ladder()[0])
    for x in breakpoints:
        if math.isfinite(x):
            theta = math.atan(x)
            i = bisect.bisect_left(pts, theta)
            if pts[i] != theta:
                pts.insert(i, theta)
    return pts


def _initial_nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Tan nodes of the initial panels, ladder panels taken from the table."""
    _, index, table = _ladder()
    rows = [index.get(panel, -1) for panel in zip(left.tolist(), right.tolist())]
    x = table[rows]  # a miss (row -1) is overwritten below
    miss = [i for i, row in enumerate(rows) if row < 0]
    if miss:
        x[miss] = _tan_nodes(left[miss], right[miss])
    return x


def integrate_real_line(
    integrand: Callable,
    config: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
    *,
    vectorized: bool = False,
) -> QuadratureResult:
    """Integrate `integrand` over the whole real line.

    `integrand` maps a float to a float, or, with `vectorized=True`, a
    1-D float array to an array of its values (the package's own
    integrands, which use numpy for + - * / and libm per element for
    transcendentals). `breakpoints` are x-space abscissae near which the
    integrand has structure (density spikes, log-factor minima); a panel
    boundary is placed at each. A non-finite integrand sample raises
    IntegrandEvaluationError carrying the offending abscissa; exhausting
    the refinement depth returns converged=False instead of raising.
    """
    if vectorized:
        f = integrand
    else:
        def f(x: np.ndarray) -> np.ndarray:
            return _elementwise(integrand, x)

    with np.errstate(all="ignore"):
        return _integrate(f, config, _theta_breakpoints(breakpoints))


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig,
    pts: list[float],
) -> QuadratureResult:
    left = np.array(pts[:-1])
    right = np.array(pts[1:])
    values, errors = _gk15(f, left, right, _initial_nodes(left, right))
    evaluations = 15 * len(values)
    total_value = 0.0
    total_error = 0.0
    # Heap entries: (-error, left, depth, right, value). Left endpoints are
    # unique across live panels, so ordering is total and deterministic.
    heap: list[tuple[float, float, int, float, float]] = []
    for a, b, value, err in zip(pts, pts[1:], values, errors):
        total_value += value
        total_error += err
        heap.append((-err, a, 0, b, value))
    heapq.heapify(heap)

    depth_capped: list[tuple[float, float, int, float, float]] = []
    capped_error = 0.0
    converged = True
    for _ in range(_MAX_SPLITS):
        if total_error <= config.tolerance_for(total_value):
            break
        if not heap:
            converged = False
            break
        neg_err, a, depth, b, value = heapq.heappop(heap)
        if depth >= config.max_refinement_depth:
            depth_capped.append((neg_err, a, depth, b, value))
            capped_error += -neg_err
            if capped_error > config.tolerance_for(total_value):
                # The irreducible panels alone already exceed the budget.
                converged = False
                break
            continue
        mid = 0.5 * (a + b)
        lo, hi = np.array((a, mid)), np.array((mid, b))
        (v1, v2), (e1, e2) = _gk15(f, lo, hi, _tan_nodes(lo, hi))
        evaluations += 30
        total_value += (v1 + v2) - value
        total_error += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, a, depth + 1, mid, v1))
        heapq.heappush(heap, (-e2, mid, depth + 1, b, v2))
    else:
        converged = False

    panels = [(a, value, -neg_err) for neg_err, a, _, _, value in heap]
    panels.extend((a, value, -neg_err) for neg_err, a, _, _, value in depth_capped)
    panels.sort(key=lambda p: p[0])
    value = math.fsum(p[1] for p in panels)
    error = math.fsum(p[2] for p in panels)
    if converged and error > config.tolerance_for(value):
        converged = False
    return QuadratureResult(value, error, evaluations, converged)


def _quadratic_breakpoints(*quadratics: PositiveQuadratic) -> list[float]:
    points: list[float] = []
    for q in quadratics:
        v, w = q.vertex, q.half_width
        points.extend((v - w, v, v + w))
    return points


def integral_a_numeric(
    q1: PositiveQuadratic,
    q2: PositiveQuadratic,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of A(q1; q2) = integral of log(q2(x)) / q1(x) over R."""

    def integrand(x: np.ndarray) -> np.ndarray:
        return _log(q2(x)) / q1(x)

    return integrate_real_line(integrand, config, _quadratic_breakpoints(q1, q2),
                               vectorized=True)


def _pair_integral(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig,
    term: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> QuadratureResult:
    """Integral over R of term(q1(x), q2(x)), where q_i(x) = s_i^2 + (x - l_i)^2.

    Every divergence between two Cauchy densities is an integral of a
    function of this pair of quadratics; panel boundaries go at l_i and
    l_i -/+ s_i, where each density is sharpest.
    """
    l1, s1 = p1.location, p1.scale
    l2, s2 = p2.location, p2.scale
    s1sq = s1 * s1
    s2sq = s2 * s2

    def integrand(x: np.ndarray) -> np.ndarray:
        u1 = x - l1
        u2 = x - l2
        return term(s1sq + u1 * u1, s2sq + u2 * u2)

    return integrate_real_line(integrand, config, (l1 - s1, l1, l1 + s1, l2 - s2, l2, l2 + s2),
                               vectorized=True)


def kl_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of KL(p1 : p2) = integral of p1(x) * log(p1(x)/p2(x))."""
    s1 = p1.scale
    scale_ratio = s1 / p2.scale
    # Forming the ratio before the log keeps the tails exact: the quotient
    # tends to s1/s2, never to an indeterminate difference.
    return _pair_integral(p1, p2, config, lambda q1x, q2x:
                          s1 / (math.pi * q1x) * _log(scale_ratio * (q2x / q1x)))


def cross_entropy_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of the cross-entropy, -integral of p1(x) * log(p2(x))."""
    s1 = p1.scale
    log_coeff = math.log(p2.scale / math.pi)
    return _pair_integral(p1, p2, config, lambda q1x, q2x:
                          -(s1 / (math.pi * q1x)) * (log_coeff - _log(q2x)))


def f_divergence_numeric(
    generator: Callable[[float], float],
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of the f-divergence integral of generator(p1/p2) * p2.

    `generator` should be convex with generator(1) = 0; this is the
    caller's responsibility and is not checked. generator(t) = t*log(t)
    recovers KL.
    """
    s2 = p2.scale
    scale_ratio = p1.scale / s2
    return _pair_integral(p1, p2, config, lambda q1x, q2x:
                          _elementwise(generator, scale_ratio * (q2x / q1x))
                          * (s2 / (math.pi * q2x)))


def correctly_rounded_sum(x: np.ndarray, work: np.ndarray | None = None) -> float:
    """Sum of a float64 array, correctly rounded: the same bits as math.fsum(x).

    The result does not depend on summation order, numpy build or CPU.
    One vectorised extraction splits every x_i exactly into q_i + r_i:
    with sigma = 2**(exponent(max|x|) + bit_length(n)), q_i = (x_i +
    sigma) - sigma is a multiple of 2**-53 * sigma and every partial sum
    of the q_i stays within sigma, so sum(q) is exact in any order, and
    r_i = x_i - q_i is exact with |r_i| <= 2**-53 * sigma. The residuals are summed in
    floating point under the a-priori bound 2*n*u * n*u*sigma (u =
    2**-53) on the error of any summation order; when both ends of that
    interval, added to sum(q), round to the same double, that double is
    the correctly rounded sum. Otherwise (and for inputs that are not
    finite, that span the far ends of the exponent range, or hold 2**26
    or more values) the result is math.fsum(x). `work`, if given, is a
    float64 array of x's shape that is overwritten.
    """
    n = x.size
    if n == 0:
        return 0.0
    m = max(float(x.max()), -float(x.min()))
    if not math.isfinite(m):
        return math.fsum(x)
    if m == 0.0:
        return math.fsum(x[:1]) if np.signbit(x).all() else 0.0
    k = math.frexp(m)[1] + n.bit_length()
    if k > 1023 or k < -1021 or n >= 1 << 26:
        return math.fsum(x)
    sigma = math.ldexp(1.0, k)
    t = np.add(x, sigma, out=work)
    t -= sigma
    exact = float(t.sum())
    np.subtract(x, t, out=t)
    residual = float(t.sum())
    bound = (2.0 * n * _U) * (n * _U * sigma)
    lo = exact + math.nextafter(residual - bound, -math.inf)
    hi = exact + math.nextafter(residual + bound, math.inf)
    if lo == hi:
        return lo
    return math.fsum(x)


def kl_monte_carlo(
    p1: CauchyDist,
    p2: CauchyDist,
    samples: int,
    seed: int,
) -> MonteCarloResult:
    """Monte-Carlo estimate of KL(p1 : p2) from `samples` quantile draws.

    Uniform variates come from numpy's PCG64 stream for the given seed, so
    the estimate is a pure function of (p1, p2, samples, seed). The
    log-density ratio between two Cauchy distributions is bounded, hence
    the estimator variance is finite and the standard error is
    meaningful. With L the n = `samples` log-ratios, the moments are

        estimate       = fsum(L) / n
        variance       = fsum((L - estimate)**2) / (n - 1)
        standard_error = sqrt(variance) / sqrt(n),

    each sum correctly rounded (correctly_rounded_sum), so they do not
    depend on how numpy orders a reduction.
    """
    samples = int(samples)
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples!r}")
    l1, s1 = p1.location, p1.scale
    l2, s2 = p2.location, p2.scale
    rng = np.random.Generator(np.random.PCG64(seed))
    # x = l1 + s1*tan(pi*(u - 1/2)), then the log of
    # (s1/s2) * ((s2^2 + (x-l2)^2) / (s1^2 + (x-l1)^2)), all in place.
    x = rng.random(samples)
    x -= 0.5
    x *= np.pi
    np.tan(x, out=x)
    x *= s1
    x += l1
    q1 = x - l1
    q1 *= q1
    q1 += s1 * s1
    x -= l2
    x *= x
    x += s2 * s2
    x /= q1
    x *= s1 / s2
    log_ratio = np.log(x, out=x)
    estimate = correctly_rounded_sum(log_ratio, work=q1) / samples
    deviation = np.subtract(log_ratio, estimate, out=x)
    deviation *= deviation
    variance = correctly_rounded_sum(deviation, work=q1) / (samples - 1)
    standard_error = math.sqrt(variance) / math.sqrt(samples)
    return MonteCarloResult(estimate, standard_error, samples, int(seed))
