"""Independent numerical evaluation of the integrals behind the closed forms.

Everything here integrates over the real line through the compactifying
substitution x = tan(theta), which maps R onto (-pi/2, pi/2) and turns
the heavy Cauchy tails into a bounded factor: for the standard density,
p(tan(theta)) * sec^2(theta) is the constant 1/pi. Panels cover the
interval and are refined with an embedded Gauss(7)/Kronrod(15) pair,
always splitting the panel with the largest error estimate.

Integrals over a pair of densities (or quadratics) are taken in the
standard frame of the first: t = (x - l1)/s1, or t = (x - v1)/w1 from
q1's vertex and half-width. With alpha = (l2 - l1)/s1, beta = s2/s1,
n(t) = beta^2 + (t - alpha)^2 and m(t) = 1 + t^2, _frame_ratio alone
forms the density ratio R(t) = p1/p2 = n/(beta*m). With t = tan(theta),
p1 dx = dtheta/pi: both rules evaluate the one sample term(R(tan(theta))),
and only integrate_real_line, whose variable is x, carries sec^2(theta).
KL's term is log, an f-divergence's generator(R)/R. Cross-entropy and
integral A carry log n = log m + log(n/m); log m integrates to log 4
(Gradshteyn & Ryzhik 4.295), and log(n/m) is bounded. So every pair
sample is bounded and analytic in theta, with structure only where a
density is narrow: t = 0 at width 1 and t = alpha at width beta. Panel
boundaries grade geometrically away from each feature (c, w), at c and
c -/+ w*4**k until the steps reach 4*(|alpha| + max(1, beta)), so a
scale ratio or gap of 10**k costs O(k) panels. integrate_real_line,
which has no pair, grades around x = 0 out to 2**53 instead, which
covers integrands whose tails grow like a log.

KL, cross-entropy and integral A try a second rule first: their
integrand is the log of a positive trigonometric polynomial in theta, on
which the N-node trapezoidal rule converges geometrically with a known
error (_trapezoid). N, a power of two up to 1024, comes from the pair's
KL, as 1 - |zeta|^2 = exp(-KL) in the frame, and the tolerance. N's
nodes extend N/2's, and each level (8, 16, ...) is built once per
process, at the first call that reaches it (_trapezoid_nodes). At
DEFAULT_CONFIG kl_numeric takes the trapezoid for KL up to about 3.46.
Where more nodes would be needed, the frame is
degenerate or a sample not finite, GK15 runs as it would alone, and
f-divergences and integrate_real_line always take it (a caller's
integrand need not be analytic). max_refinement_depth is GK15's alone.
The evaluation count names the rule: N, or a multiple of 15 for GK15.

Panels are evaluated in batches, every node of the initial panels in
one array and then both halves of each split. Arithmetic (+ - * /) runs
in numpy, which rounds each operation as Python floats do; math.tan,
math.log and a caller's f-divergence generator are applied per element
from libm, never through numpy's SIMD np.tan/np.log, which differ from
libm in the last bit on some inputs and CPUs. The Kronrod and Gauss
sums accumulate node by node in a fixed order and the trapezoid's by
math.fsum, so results are bit-identical to evaluating one node at a
time, on every CPU for a given libm. Results report the value, the
error estimate, the number of integrand evaluations and a convergence
flag; exhausting the refinement depth yields converged=False rather
than an exception.

The Monte-Carlo estimator samples the same frame: it averages log R(t)
over t = tan(pi*(u - 1/2)), u from numpy's seeded PCG64 generator, since
x - l1 for x = l1 + s1*t would round t away when s1 is small against
ulp(l1). An estimate is reproducible from (inputs, samples, seed) on one
CPU and numpy build, not across them: the per-sample np.tan and np.log
are numpy's SIMD ufuncs, which differ from libm in the last bit on some
inputs and CPUs (the ROADMAP item on seeded Monte-Carlo with the same
bits on every CPU). Its mean and standard error are built from sums in
one fixed order of IEEE additions (_tree_sum), so they do not depend on
the order in which numpy reduces an array. The estimator keeps one
sample array, the log-ratios, and runs every per-sample pass (draws,
transforms, sums) on blocks of _BLOCK elements that stay in cache; the
steps are elementwise and the order of the sums fixed, so the bits are
those of a whole-array evaluation.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

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
_LOG4 = math.log(4.0)
# Steps w*4**k span all of binary64 in this many grades, even from w = 0.
_MAX_GRADES = 1100
# Hard cap on refinement steps; unreachable for the integrand family this
# oracle targets, present so a pathological user integrand cannot spin.
_MAX_SPLITS = 200_000
# Largest trapezoid node count; a frame that needs more runs GK15.
_TRAPEZOID_CAP = 1024


def _check_integer(value, name: str, least: int) -> None:
    """Raise ParameterError unless `value` is an int (numpy's too), not a bool, and >= least."""
    if not (isinstance(value, (int, np.integer)) and type(value) is not bool and value >= least):
        raise ParameterError(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for both quadrature rules; the refinement budget is GK15's alone."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14
    max_refinement_depth: int = 20

    def __post_init__(self) -> None:
        # A real number (numpy's too), not a bool; CLI error records carry these messages.
        for name in ("relative_tolerance", "absolute_tolerance"):
            tol = getattr(self, name)
            if not (isinstance(tol, (int, float, np.integer, np.floating))
                    and type(tol) is not bool and 0.0 < tol < math.inf):
                raise ParameterError(f"{name} must be > 0, got {tol!r}")
        _check_integer(self.max_refinement_depth, "max_refinement_depth", 1)

    def tolerance_for(self, value: float) -> float:
        return max(self.absolute_tolerance, self.relative_tolerance * abs(value))


DEFAULT_CONFIG = QuadratureConfig()
# Monte-Carlo sample count used wherever the caller does not choose one.
DEFAULT_SAMPLES = 1_000_000
# Unit roundoff of binary64.
_U = 2.0 ** -53
# Elements per block of the Monte-Carlo passes, and lanes of its sums:
# 128 KiB of float64, so a block and its work buffer stay in cache.
_BLOCK = 16384


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


def _gk15(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[list[float], list[float]]:
    """Gauss-Kronrod 7/15 on every panel [a_i, b_i] of theta at once.

    `f` maps a 1-D array of x = tan(theta) to the theta-integrand there;
    no Jacobian is applied. Returns the Kronrod values and the error
    estimates |K15 - G7| * h. The plain difference overestimates the
    Kronrod error by orders of magnitude on smooth panels, which keeps the
    reported estimate on the safe side. Both sums accumulate node by node
    (np.add.accumulate is sequential), so every panel gets the bits of a
    scalar evaluation. The first non-finite sample in evaluation order
    raises IntegrandEvaluationError.
    """
    h = 0.5 * (b - a)
    theta = (0.5 * (a + b))[:, None] + h[:, None] * _NODE_OFFSETS
    x = _elementwise(math.tan, theta.ravel())
    y = f(x)
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
    return (resk * h).tolist(), (np.abs(resk - resg) * h).tolist()


def integrate_real_line(
    integrand: Callable,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate `integrand`, a map from float to float, over the whole real line.

    Panel boundaries grade geometrically around x = 0, at 0 and -/+4**k
    out to 2**53, which suits integrands that peak near the origin and
    whose tails grow like a log. A non-finite integrand sample raises
    IntegrandEvaluationError carrying the offending abscissa; exhausting
    the refinement depth returns converged=False instead of raising.
    """
    return _integrate(lambda x: _elementwise(integrand, x) * (1.0 + x * x), config,
                      ((0.0, 1.0),), 2.0 ** 53)


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    config: QuadratureConfig,
    features: Iterable[tuple[float, float]],
    reach: float,
    floor: float = 0.0,
) -> QuadratureResult:
    """Integral of f(tan(theta)) dtheta over (-pi/2, pi/2) by GK15, the worst panel split first.

    The first panel edges are -pi/2, pi/2 and atan(x) for each finite x among
    c and c -/+ w*4**k, k = 0, 1, ... until w*4**k >= reach, for each feature
    (c, w); c or w can be inf or nan, and (c, inf) adds the edge c alone. So
    panels widen geometrically from width w out to `reach`: a log-type dip at
    scale w, or log growth toward the ends of the theta interval, costs
    O(log(reach/w)) panels. The estimate is the summed |K15 - G7| plus a
    rounding term, 4u times the summed |panel value| plus `floor`, the rounding
    the samples cannot show; convergence is judged on both. Float warnings are
    off; a non-finite sample raises IntegrandEvaluationError.
    """
    points: list[float] = []
    for c, w in features:
        points.append(c)
        step = w
        for _ in range(_MAX_GRADES):
            points.extend((c - step, c + step))
            if step >= reach:
                break
            step *= 4.0
    pts = sorted({-_HALF_PI, _HALF_PI, *(math.atan(x) for x in points if math.isfinite(x))})
    with np.errstate(all="ignore"):
        values, errors = _gk15(f, np.array(pts[:-1]), np.array(pts[1:]))
        evaluations = 15 * len(values)
        total_value = total_abs = total_error = 0.0
        # Heap entries: (-error, left, depth, right, value). Left endpoints are
        # unique across live panels, so ordering is total and deterministic.
        heap: list[tuple[float, float, int, float, float]] = []
        for a, b, value, err in zip(pts, pts[1:], values, errors):
            total_value += value
            total_abs += abs(value)
            total_error += err
            heap.append((-err, a, 0, b, value))
        heapq.heapify(heap)

        depth_capped: list[tuple[float, float, int, float, float]] = []
        capped_error = 0.0
        converged = True
        for _ in range(_MAX_SPLITS):
            if total_error + floor + 4.0 * _U * total_abs <= config.tolerance_for(total_value):
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
            (v1, v2), (e1, e2) = _gk15(f, np.array((a, mid)), np.array((mid, b)))
            evaluations += 30
            total_value += (v1 + v2) - value
            total_abs += (abs(v1) + abs(v2)) - abs(value)
            total_error += (e1 + e2) - (-neg_err)
            heapq.heappush(heap, (-e1, a, depth + 1, mid, v1))
            heapq.heappush(heap, (-e2, mid, depth + 1, b, v2))

    # fsum is correctly rounded, so the order of the panels does not matter.
    value = math.fsum(p[4] for p in heap + depth_capped)
    error = (math.fsum(-p[0] for p in heap + depth_capped) + floor
             + 4.0 * _U * math.fsum(abs(p[4]) for p in heap + depth_capped))
    if converged and error > config.tolerance_for(value):
        converged = False
    return QuadratureResult(value, error, evaluations, converged)


@functools.cache
def _trapezoid_nodes(n: int) -> np.ndarray:
    """The first n nodes, read-only, n = 8, 16, ..., the cap: tan(pi*(j/8 - 1/2)), j < 8,
    then tan(pi*(j/N - 1/2)) for the odd j of each level N = 16, 32, ..., n, so N's
    nodes come first. Each level is built once, at the first call that reaches it."""
    if n == 8:
        nodes = np.array([math.tan(math.pi * (j / 8 - 0.5)) for j in range(8)])
    else:
        nodes = np.concatenate((_trapezoid_nodes(n // 2),
                                [math.tan(math.pi * (j / n - 0.5)) for j in range(1, n, 2)]))
    nodes.flags.writeable = False
    return nodes


def _trapezoid(sample: Callable[[np.ndarray], np.ndarray], alpha: float, beta: float,
               config: QuadratureConfig) -> QuadratureResult | None:
    """Mean of sample(tan(theta)) over theta by the N-node trapezoid; None where GK15 must run.

    sample, log R or log(beta*R), is the log of a trigonometric polynomial
    zero at tan(theta) = w, conj(w), w = alpha + i*beta. With zeta = (w - i)/(w + i)
    the error is (2/N)*log|1 - (-zeta)**N| (Trefethen & Weideman, SIAM Review
    56, 2014); reported is its bound -(2/N)*log(1 - |zeta|**N) plus rounding.
    N = 8 sizes the tolerance; then N is the least power of two whose bound is
    within half of it, until bound plus rounding are. None for a degenerate
    frame, a non-finite sample, N past the cap, or rounding over half the tolerance.
    q = 1 - |zeta|^2 is exactly exp(-KL) of the pair, so the bound depends on the pair
    only through its KL, and N on KL and the tolerance, sized from the 8-node value.
    At DEFAULT_CONFIG kl_numeric takes every pair with KL below 3.456 (N = 1024 at
    the top) and hands GK15 every pair above 3.470; in between the 8-node value
    decides (20 000 seeded pairs of every shape).
    """
    q = 4.0 * beta / (alpha * alpha + (beta + 1.0) * (beta + 1.0))  # 1 - |zeta|^2
    if not q > 0.0:  # beta 0, inf or nan, or alpha not finite
        return None
    rho = math.sqrt(1.0 - min(q, 1.0))
    # theta_j and its tan round by about 3u in theta, moving a term by 3u times
    # its slope, at most 4*rho/(1 - rho); R's arithmetic adds at most 9u, the log
    # 2u*|term|, fsum u*|T|. The rounding term exceeds their sum.
    rounding = _U * (16.0 + 16.0 * rho * (1.0 + rho) / q)

    def bound(n: int) -> float:
        rho_n = rho ** n
        return -2.0 / n * math.log1p(-rho_n) if rho_n < 1.0 else math.inf

    n, n_next, values, peak = 0, 8, [], 0.0
    while n_next <= _TRAPEZOID_CAP:
        y = sample(_trapezoid_nodes(n_next)[n:])
        top = float(np.abs(y).max())
        if not top < math.inf:  # a sample is nan or inf
            return None
        n, peak = n_next, max(peak, top)
        values += y.tolist()
        value = math.fsum(values) / n
        tol = config.tolerance_for(value)
        error = bound(n) + rounding + 4.0 * _U * peak
        if error <= tol:
            return QuadratureResult(value, error, n, True)
        if bound(n) <= 0.5 * tol:  # rounding, not N, is what fails
            return None
        while n_next <= _TRAPEZOID_CAP and bound(n_next) > 0.5 * tol:
            n_next *= 2
    return None


def _frame_ratio(t: np.ndarray, alpha: float, beta: float, out=None, work=None) -> np.ndarray:
    """R(t) = (beta^2 + (t - alpha)^2)/(beta*(1 + t^2)) into `out` (t works), 1 + t^2 in `work`."""
    m = np.square(t, out=work)  # the same IEEE product as t * t, in one operand
    m += 1.0
    m *= beta
    r = np.subtract(t, alpha, out=out)
    r *= r
    r += beta * beta
    r /= m
    return r


def _frame_integral(v1: float, w1: float, v2: float, w2: float, config: QuadratureConfig,
                    term: Callable[[np.ndarray], np.ndarray],
                    analytic: bool = False) -> QuadratureResult:
    """Mean over theta of the sample term(R(tan(theta))), R in the frame of (v1, w1).

    alpha = (v2 - v1)/w1 and beta = w2/w1. If `analytic` (term is log or log(beta*.))
    the trapezoid averages the sample first; GK15 integrates sample/pi in theta where
    it does not, graded away from t = 0 at width 1 and t = alpha at width beta. A term
    that need not be analytic (an f-divergence's) also gets edges where R = 1, at the
    kink a generator such as |t - 1| may have there. Each sample rounds R by a few
    ulps, which moves a log, and a generator of slope O(1) in log R, by a few ulps of
    1: GK15's estimate adds 4u for that rounding, which the samples cannot show.
    """
    alpha, beta = (v2 - v1) / w1, w2 / w1

    def sample(t: np.ndarray) -> np.ndarray:
        return term(_frame_ratio(t, alpha, beta))
    if analytic:
        r = _trapezoid(sample, alpha, beta, config)
        if r is not None:
            return r
    reach = 4.0 * (abs(alpha) + max(1.0, beta))
    features = [(0.0, 1.0), (alpha, beta)]
    if not analytic:
        # R = 1 at the roots of (1 - beta)*t^2 - 2*alpha*t + alpha^2 - beta*(1 - beta), whose
        # discriminant is 4*beta*(alpha^2 + (1 - beta)^2): q/(1 - beta) and, by Vieta, c/q.
        a = 1.0 - beta
        q = alpha + math.copysign(math.sqrt(beta * (alpha * alpha + a * a)), alpha)
        c = alpha * alpha - beta * a
        features += [(q / a if a else math.nan, math.inf), (c / q if q else math.nan, math.inf)]
    return _integrate(lambda t: sample(t) / math.pi, config, features, reach, 4.0 * _U)


def _expected_log(v1: float, w1: float, v2: float, w2: float, config: QuadratureConfig,
                  shift: float, scale: float = 1.0) -> QuadratureResult:
    """scale * (shift + E[log((x - v2)^2 + w2^2)]) for x ~ Cauchy(v1, w1).

    In the frame of (v1, w1) the log is 2*log(w1) + log(m) + log(n/m), with
    n/m = beta*R bounded; the expectation of log(m) is log 4. The error
    estimate is scaled with the value and covers the rounding of the shift.
    """
    beta = w2 / w1
    r = _frame_integral(v1, w1, v2, w2, config, lambda ratio: _log(beta * ratio), analytic=True)
    log_w1_sq = 2.0 * math.log(w1)
    # Each log and sum rounds by at most an ulp of the terms' summed
    # magnitude, which they may cancel to far less; scale and the product
    # with it add a few ulps of the value. 8 ulps of that magnitude bound all.
    rounding = 8.0 * math.ulp(abs(shift) + abs(log_w1_sq) + _LOG4 + abs(r.value))
    shift += log_w1_sq + _LOG4
    return QuadratureResult(scale * (shift + r.value), scale * (r.error_estimate + rounding),
                            r.evaluations, r.converged)


def integral_a_numeric(
    q1: PositiveQuadratic,
    q2: PositiveQuadratic,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of A(q1; q2) = integral of log(q2(x)) / q1(x) over R.

    With q_i(x) = a_i * ((x - v_i)^2 + w_i^2), A is pi/(a1*w1) times the
    expectation of log(q2(x)) under Cauchy(v1, w1).
    """
    w1 = q1.half_width
    return _expected_log(q1.vertex, w1, q2.vertex, q2.half_width, config,
                         math.log(q2.a), math.pi / (q1.a * w1))


def kl_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of KL(p1 : p2) = integral of p1(x) * log(p1(x)/p2(x)).

    In the frame of p1 this is the expectation of log R(t), R = p1/p2,
    under the standard Cauchy density.
    """
    return _frame_integral(p1.location, p1.scale, p2.location, p2.scale, config, _log,
                           analytic=True)


def cross_entropy_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of the cross-entropy, -integral of p1(x) * log(p2(x)).

    -log(p2(x)) = log(pi/s2) + log(s2^2 + (x - l2)^2).
    """
    return _expected_log(p1.location, p1.scale, p2.location, p2.scale, config,
                         math.log(math.pi / p2.scale))


def f_divergence_numeric(
    generator: Callable[[float], float],
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of the f-divergence integral of generator(p1/p2) * p2.

    `generator` should be convex with generator(1) = 0; this is the
    caller's responsibility and is not checked. generator(t) = t*log(t)
    recovers KL. In the frame of p1 the integrand is generator(R)/R, with
    R = p1/p2, against the standard Cauchy density.
    """
    return _frame_integral(p1.location, p1.scale, p2.location, p2.scale, config,
                           lambda ratio: _elementwise(generator, ratio) / ratio)


def _tree_sum(lanes: np.ndarray) -> float:
    """Sum of the 1-D float64 array `lanes` by a fixed binary tree, which overwrites it.

    Each level adds the second half of the m live values onto the first,
    elementwise, and carries an odd last value up unchanged, until one is
    left: ceil(log2(m)) levels of IEEE additions in an order that depends
    on m alone, so the bits do not depend on numpy build or CPU.
    """
    m = lanes.size
    while m > 1:
        h = m // 2
        lanes[:h] += lanes[h:2 * h]
        if m % 2:
            lanes[h] = lanes[m - 1]
        m -= h
    return float(lanes[0])


def kl_monte_carlo(
    p1: CauchyDist,
    p2: CauchyDist,
    samples: int,
    seed: int,
) -> MonteCarloResult:
    """Monte-Carlo estimate of KL(p1 : p2) from `samples` (an int >= 2) quantile draws.

    Uniform variates come from numpy's PCG64 stream for the given seed
    (an int >= 0; anything else raises ParameterError, as for samples), so on
    one CPU and numpy build the estimate is a function of (p1, p2, samples,
    seed); across them the SIMD np.tan and np.log may move its last bits
    (the ROADMAP item on seeded Monte-Carlo with the same bits on every
    CPU). It averages log R(t) over draws t in p1's frame, the
    frame kl_numeric integrates in: x = l1 + s1*t would round t away when
    s1 is small against ulp(l1). R is bounded, so the variance is finite.
    With L the n = `samples` log-ratios, the moments are

        estimate       = S(L) / n
        variance       = S((L - estimate)**2) / (n - 1)
        standard_error = sqrt(variance) / sqrt(n),

    where S adds element i into lane i mod _BLOCK (lanes start at -0.0, and
    -0.0 + v is v), in block order, then sums the lanes by _tree_sum. That
    order is fixed, so S does not depend on how numpy orders a reduction;
    it rounds by at most gamma_k * sum|x|, gamma_k = k*u/(1 - k*u), with
    k = ceil(n/_BLOCK) - 1 + ceil(log2(min(n, _BLOCK))) additions on any
    path (26 at 200 000 samples), far below the standard error. L is the one
    sample array: each block of _BLOCK draws is transformed in place while it
    is in cache, with one block-sized work buffer for m(t), which then holds
    the lanes. Every step is elementwise and a float64 draw takes one word of
    the stream, so the bits are those of evaluating each step on the whole
    array at once.
    """
    _check_integer(samples, "samples", 2)
    _check_integer(seed, "seed", 0)
    samples = int(samples)
    alpha, beta = (p2.location - p1.location) / p1.scale, p2.scale / p1.scale
    rng = np.random.Generator(np.random.PCG64(seed))
    log_ratio = np.empty(samples)
    lanes = np.empty(min(samples, _BLOCK))
    blocks = [log_ratio[i:i + _BLOCK] for i in range(0, samples, _BLOCK)]
    # t = tan(pi*(u - 1/2)), then log R(t), in place. An overflow needs no
    # warning: it makes the estimate non-finite, which callers check.
    with np.errstate(all="ignore"):
        for t in blocks:
            rng.random(t.size, out=t)
            t -= 0.5
            t *= np.pi
            np.tan(t, out=t)
            np.log(_frame_ratio(t, alpha, beta, out=t, work=lanes[:t.size]), out=t)
        lanes.fill(-0.0)
        for block in blocks:
            lanes[:block.size] += block
        estimate = _tree_sum(lanes) / samples
        lanes.fill(-0.0)
        for deviation in blocks:
            deviation -= estimate
            deviation *= deviation
            lanes[:deviation.size] += deviation
        variance = _tree_sum(lanes) / (samples - 1)
    standard_error = math.sqrt(variance) / math.sqrt(samples)
    return MonteCarloResult(estimate, standard_error, samples, int(seed))
