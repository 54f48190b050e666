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

Results report the value, the summed error estimate, the number of
integrand evaluations and a convergence flag; exhausting the refinement
depth yields converged=False rather than an exception, so batch drivers
can record partial results. Everything is deterministic: identical inputs
produce bit-identical results.

The Monte-Carlo estimator draws through the quantile map
l + s*tan(pi*(u - 1/2)) from numpy's seeded PCG64 generator, making every
estimate reproducible from (inputs, samples, seed).
"""

from __future__ import annotations

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


def _gk15(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 application on [a, b].

    Returns (Kronrod value, error estimate |K15 - G7| * h). The plain
    difference overestimates the Kronrod error by orders of magnitude on
    smooth panels, which keeps the reported estimate on the safe side.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        u = h * _XGK[j]
        s = g(c - u) + g(c + u)
        resk += _WGK[j] * s
        if j & 1:
            resg += _WG[j >> 1] * s
    return resk * h, abs(resk - resg) * h


def _theta_breakpoints(breakpoints: Iterable[float]) -> list[float]:
    thetas = {-_HALF_PI, 0.0, _HALF_PI}
    for x in breakpoints:
        if math.isfinite(x):
            thetas.add(math.atan(x))
    for k in range(_ENDPOINT_LEVELS):
        delta = 0.25 * math.pi * 2.0 ** (-k)
        thetas.add(_HALF_PI - delta)
        thetas.add(delta - _HALF_PI)
    return sorted(thetas)


def integrate_real_line(
    integrand: Callable[[float], float],
    config: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate `integrand` over the whole real line.

    `breakpoints` are x-space abscissae near which the integrand has
    structure (density spikes, log-factor minima); a panel boundary is
    placed at each. A non-finite integrand sample raises
    IntegrandEvaluationError carrying the offending abscissa; exhausting
    the refinement depth returns converged=False instead of raising.
    """

    def g(theta: float) -> float:
        x = math.tan(theta)
        y = integrand(x) * (1.0 + x * x)
        if not math.isfinite(y):
            raise IntegrandEvaluationError(x, y)
        return y

    pts = _theta_breakpoints(breakpoints)
    evaluations = 0
    total_value = 0.0
    total_error = 0.0
    # Heap entries: (-error, left, depth, right, value). Left endpoints are
    # unique across live panels, so ordering is total and deterministic.
    heap: list[tuple[float, float, int, float, float]] = []
    for a, b in zip(pts, pts[1:]):
        value, err = _gk15(g, a, b)
        evaluations += 15
        total_value += value
        total_error += err
        heapq.heappush(heap, (-err, a, 0, b, value))

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
        v1, e1 = _gk15(g, a, mid)
        v2, e2 = _gk15(g, mid, b)
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


def _cauchy_breakpoints(*dists: CauchyDist) -> list[float]:
    points: list[float] = []
    for p in dists:
        l, s = p.location, p.scale
        points.extend((l - s, l, l + s))
    return points


def integral_a_numeric(
    q1: PositiveQuadratic,
    q2: PositiveQuadratic,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of A(q1; q2) = integral of log(q2(x)) / q1(x) over R."""

    def integrand(x: float) -> float:
        return math.log(q2(x)) / q1(x)

    return integrate_real_line(integrand, config, _quadratic_breakpoints(q1, q2))


def kl_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of KL(p1 : p2) = integral of p1(x) * log(p1(x)/p2(x))."""
    l1, s1 = p1.location, p1.scale
    l2, s2 = p2.location, p2.scale
    scale_ratio = s1 / s2
    s1sq = s1 * s1
    s2sq = s2 * s2

    def integrand(x: float) -> float:
        u1 = x - l1
        u2 = x - l2
        q1x = s1sq + u1 * u1
        # Forming the ratio before the log keeps the tails exact: the
        # quotient tends to s1/s2, never to an indeterminate difference.
        return s1 / (math.pi * q1x) * math.log(scale_ratio * ((s2sq + u2 * u2) / q1x))

    return integrate_real_line(integrand, config, _cauchy_breakpoints(p1, p2))


def cross_entropy_numeric(
    p1: CauchyDist,
    p2: CauchyDist,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Quadrature value of the cross-entropy, -integral of p1(x) * log(p2(x))."""
    l1, s1 = p1.location, p1.scale
    l2, s2 = p2.location, p2.scale
    s1sq = s1 * s1
    s2sq = s2 * s2
    log_coeff = math.log(s2 / math.pi)

    def integrand(x: float) -> float:
        u1 = x - l1
        u2 = x - l2
        p1x = s1 / (math.pi * (s1sq + u1 * u1))
        return -p1x * (log_coeff - math.log(s2sq + u2 * u2))

    return integrate_real_line(integrand, config, _cauchy_breakpoints(p1, p2))


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
    l1, s1 = p1.location, p1.scale
    l2, s2 = p2.location, p2.scale
    scale_ratio = s1 / s2
    s1sq = s1 * s1
    s2sq = s2 * s2

    def integrand(x: float) -> float:
        u1 = x - l1
        u2 = x - l2
        q1x = s1sq + u1 * u1
        q2x = s2sq + u2 * u2
        ratio = scale_ratio * (q2x / q1x)
        p2x = s2 / (math.pi * q2x)
        return generator(ratio) * p2x

    return integrate_real_line(integrand, config, _cauchy_breakpoints(p1, p2))


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
    the estimator variance is finite and standard_error (sample standard
    deviation / sqrt(samples)) is meaningful.
    """
    samples = int(samples)
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(samples)
    x = p1.location + p1.scale * np.tan(np.pi * (u - 0.5))
    u1 = x - p1.location
    u2 = x - p2.location
    ratio = (p1.scale / p2.scale) * (
        (p2.scale * p2.scale + u2 * u2) / (p1.scale * p1.scale + u1 * u1)
    )
    log_ratio = np.log(ratio)
    estimate = float(np.mean(log_ratio))
    standard_error = float(np.std(log_ratio, ddof=1) / math.sqrt(samples))
    return MonteCarloResult(estimate, standard_error, samples, int(seed))
