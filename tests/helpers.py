"""Shared test helpers."""

import heapq
import math

import numpy as np

from cauchykl import CauchyDist, IntegrandEvaluationError, oracle
from cauchykl.oracle import QuadratureResult


def ulps_apart(x: float, y: float, scale: float | None = None) -> float:
    """|x - y| measured in ulps of `scale`.

    The default scale max(|x|, |y|, 1.0) treats sub-unit values at the
    unit spacing: identities verified through logs carry absolute errors
    of a few machine epsilons, which no tolerance finer than ulp(1.0)
    can meaningfully resolve.
    """
    if scale is None:
        scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) / math.ulp(scale)


def rel_err(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|)."""
    denom = max(abs(x), abs(y))
    if denom == 0.0:
        return 0.0
    return abs(x - y) / denom


def draw_pairs(seed: int, count: int):
    """Seeded parameter pairs with l ~ U(-100, 100) and s ~ U(0.01, 100)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for _ in range(count):
        l1, l2 = (float(v) for v in rng.uniform(-100.0, 100.0, 2))
        s1, s2 = (float(v) for v in rng.uniform(0.01, 100.0, 2))
        pairs.append((CauchyDist(l1, s1), CauchyDist(l2, s2)))
    return pairs


# ---------------------------------------------------------------------------
# Scalar reference quadrature: one node at a time, Python floats and libm.
# The batched engine in cauchykl.oracle must return == results.
# ---------------------------------------------------------------------------

def _reference_gk15(g, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    resk = oracle._WGK[7] * fc
    resg = oracle._WG[3] * fc
    for j in range(7):
        u = h * oracle._XGK[j]
        s = g(c - u) + g(c + u)
        resk += oracle._WGK[j] * s
        if j & 1:
            resg += oracle._WG[j >> 1] * s
    return resk * h, abs(resk - resg) * h


def _reference_breakpoints(breakpoints):
    half_pi = 0.5 * math.pi
    thetas = {-half_pi, 0.0, half_pi}
    for x in breakpoints:
        if math.isfinite(x):
            thetas.add(math.atan(x))
    for k in range(48):
        delta = 0.25 * math.pi * 2.0 ** (-k)
        thetas.add(half_pi - delta)
        thetas.add(delta - half_pi)
    return sorted(thetas)


def reference_integrate(integrand, config=oracle.DEFAULT_CONFIG, breakpoints=()):
    """Scalar GK15 with worst-panel-first refinement over the real line."""

    def g(theta):
        x = math.tan(theta)
        y = integrand(x) * (1.0 + x * x)
        if not math.isfinite(y):
            raise IntegrandEvaluationError(x, y)
        return y

    pts = _reference_breakpoints(breakpoints)
    evaluations = 0
    total_value = 0.0
    total_error = 0.0
    heap = []
    for a, b in zip(pts, pts[1:]):
        value, err = _reference_gk15(g, a, b)
        evaluations += 15
        total_value += value
        total_error += err
        heapq.heappush(heap, (-err, a, 0, b, value))

    depth_capped = []
    capped_error = 0.0
    converged = True
    for _ in range(200_000):
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
                converged = False
                break
            continue
        mid = 0.5 * (a + b)
        v1, e1 = _reference_gk15(g, a, mid)
        v2, e2 = _reference_gk15(g, mid, b)
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


def _around(centres_and_widths):
    return [x for v, w in centres_and_widths for x in (v - w, v, v + w)]


def _cauchy_breakpoints(p1, p2):
    return _around((p.location, p.scale) for p in (p1, p2))


def reference_kl(p1, p2, config=oracle.DEFAULT_CONFIG):
    l1, s1, l2, s2 = p1.location, p1.scale, p2.location, p2.scale
    scale_ratio = s1 / s2
    s1sq, s2sq = s1 * s1, s2 * s2

    def integrand(x):
        u1 = x - l1
        u2 = x - l2
        q1x = s1sq + u1 * u1
        return s1 / (math.pi * q1x) * math.log(scale_ratio * ((s2sq + u2 * u2) / q1x))

    return reference_integrate(integrand, config, _cauchy_breakpoints(p1, p2))


def reference_cross_entropy(p1, p2, config=oracle.DEFAULT_CONFIG):
    l1, s1, l2, s2 = p1.location, p1.scale, p2.location, p2.scale
    s1sq, s2sq = s1 * s1, s2 * s2
    log_coeff = math.log(s2 / math.pi)

    def integrand(x):
        u1 = x - l1
        u2 = x - l2
        p1x = s1 / (math.pi * (s1sq + u1 * u1))
        return -p1x * (log_coeff - math.log(s2sq + u2 * u2))

    return reference_integrate(integrand, config, _cauchy_breakpoints(p1, p2))


def reference_integral_a(q1, q2, config=oracle.DEFAULT_CONFIG):
    breakpoints = _around((q.vertex, q.half_width) for q in (q1, q2))
    return reference_integrate(lambda x: math.log(q2(x)) / q1(x), config, breakpoints)


def reference_f_divergence(generator, p1, p2, config=oracle.DEFAULT_CONFIG):
    l1, s1, l2, s2 = p1.location, p1.scale, p2.location, p2.scale
    scale_ratio = s1 / s2
    s1sq, s2sq = s1 * s1, s2 * s2

    def integrand(x):
        u1 = x - l1
        u2 = x - l2
        q1x = s1sq + u1 * u1
        q2x = s2sq + u2 * u2
        p2x = s2 / (math.pi * q2x)
        return generator(scale_ratio * (q2x / q1x)) * p2x

    return reference_integrate(integrand, config, _cauchy_breakpoints(p1, p2))
