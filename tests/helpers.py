"""Shared test helpers."""

import heapq
import math
from fractions import Fraction

import numpy as np

from cauchykl import CauchyDist, IntegrandEvaluationError, jets, oracle
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


def _random_ratio(rng: np.random.Generator, positive: bool = False,
                  bound: int = 1000) -> Fraction:
    """A random rational; a drawn numerator 0 becomes 1 unless `positive`."""
    lo = 1 if positive else -bound
    num = int(rng.integers(lo, bound + 1))
    if not positive and num == 0:
        num = 1
    return Fraction(num, int(rng.integers(1, bound + 1)))


def rational_sqrt(value) -> Fraction:
    """Exact square root of a nonnegative rational, if one exists (`jets._root`)."""
    return Fraction(*jets._root(*jets._split(value)))


def random_certificate_point(rng: np.random.Generator) -> tuple[Fraction, Fraction, Fraction]:
    """Rational (d, e, f) with 4*d*f - e^2 a strictly positive rational square.

    Built from the parametrization f = (e^2 + m^2) / (4*d) over random
    rational (d, e, m) with d, m > 0, which keeps every square root in
    the certificate expressions rational. e is never 0 (`_random_ratio`),
    so the singular set d = f, e = 0 is never drawn.
    """
    d, e, m = _random_ratio(rng, positive=True), _random_ratio(rng), _random_ratio(rng, positive=True)
    return d, e, (e * e + m * m) / (4 * d)


def random_tame_point(rng: np.random.Generator, bound: int = 10) -> tuple[Fraction, Fraction, Fraction]:
    """Rational (d, e, f) of moderate magnitude with 4*d*f - e^2 > 0.

    No suite draws it; the tests do, for the tail limits of psi, the G
    factorization and the primitive B (acceptance criteria 09-10). Their
    floating-point checks need values within a few orders of 1: the
    first-order deviation of psi (and of B) from its limit at |x| = 1e8
    scales with powers of the coefficient magnitudes.
    """
    while True:
        d, e, f = (_random_ratio(rng, positive=True, bound=bound), _random_ratio(rng, bound=bound),
                   _random_ratio(rng, positive=True, bound=bound))
        if 4 * d * f - e * e > 0:
            return d, e, f


# ---------------------------------------------------------------------------
# The certificate polynomials in their expanded, printed form: each
# coefficient of L and of P written out in powers of d, e and f. cauchykl
# evaluates them over shared powers and P by Horner's rule in x; the two
# must be the same polynomials.
# ---------------------------------------------------------------------------

def reference_operator_coefficients(d, e, f) -> tuple:
    """(c3, c2, c1, c0) of the telescoping operator, expanded."""
    c3 = (2 * d * f + e**2 + 6 * f**2) * (4 * d * f - e**2) * (d**2 - 2 * d * f + e**2 + f**2)
    c2 = (60 * d**3 * f**2 + 24 * d**2 * e**2 * f + 132 * d**2 * f**3
          - 6 * d * e**4 - 60 * d * e**2 * f**2 - 252 * d * f**4
          + 18 * e**4 * f + 108 * e**2 * f**3 + 60 * f**5)
    c1 = (96 * d**2 * f**2 + 60 * d * e**2 * f + 336 * d * f**3
          - 6 * e**4 - 84 * e**2 * f**2 - 240 * f**4)
    c0 = 24 * (d * f + e**2 + 5 * f**2) * f
    return c3, c2, c1, c0


def reference_leading_coefficient(d, e, f):
    """The x^5 coefficient p5 of P, expanded."""
    return e * (d**2 * f**2 - 4 * d * e**2 * f - 9 * d * f**3 - e**4 - 7 * e**2 * f**2 - 6 * f**4)


def reference_certificate_polynomial(d, e, f, x):
    """P(d,e,f; x), expanded in powers of x."""
    return (
        reference_leading_coefficient(d, e, f) * x**5
        - 3 * f * (3 * d * e**2 * f + 4 * d * f**3 + 2 * e**4 + 11 * e**2 * f**2 + 4 * f**4) * x**4
        + e * (d**2 * f**2 - 4 * d * e**2 * f - 18 * d * f**3 - e**4 - 16 * e**2 * f**2 - 51 * f**4) * x**3
        - f * (9 * d * e**2 * f + 16 * d * f**3 + 6 * e**4 + 37 * e**2 * f**2 + 32 * f**4) * x**2
        - 9 * e * f**2 * (d * f + e**2 + 5 * f**2) * x
        - 4 * f**3 * (d * f + e**2 + 5 * f**2)
    )


# ---------------------------------------------------------------------------
# Scalar reference quadrature: one node at a time, Python floats and libm.
# The pair integrals are taken in the standard frame of the first density,
# as in cauchykl.oracle, whose batched engine must return == results: the
# trapezoid for kl, cross-entropy and integral A where it applies, GK15
# for everything else.
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


def _reference_graded(features, reach):
    points = []
    for c, w in features:
        points.append(c)
        step = w
        for _ in range(1100):
            points.extend((c - step, c + step))
            if step >= reach:
                break
            step *= 4.0
    return points


def _reference_breakpoints(breakpoints):
    points = list(breakpoints) or _reference_graded([(0.0, 1.0)], 2.0 ** 53)
    half_pi = 0.5 * math.pi
    return sorted({-half_pi, half_pi} | {math.atan(x) for x in points if math.isfinite(x)})


def reference_integrate(integrand, config=oracle.DEFAULT_CONFIG, breakpoints=()):
    """Scalar GK15 with worst-panel-first refinement over the real line."""
    return _reference_integrate_theta(lambda x: integrand(x) * (1.0 + x * x), config, breakpoints)


def _reference_integrate_theta(sample, config, breakpoints, floor=0.0):
    """Scalar GK15 of sample(tan(theta)) dtheta over (-pi/2, pi/2); the estimate adds
    4u times the summed |panel value| plus `floor`, as the convergence test does."""

    def g(theta):
        x = math.tan(theta)
        y = sample(x)
        if not math.isfinite(y):
            raise IntegrandEvaluationError(x, y)
        return y

    pts = _reference_breakpoints(breakpoints)
    evaluations = 0
    total_value = 0.0
    total_abs = 0.0
    total_error = 0.0
    heap = []
    for a, b in zip(pts, pts[1:]):
        value, err = _reference_gk15(g, a, b)
        evaluations += 15
        total_value += value
        total_abs += abs(value)
        total_error += err
        heapq.heappush(heap, (-err, a, 0, b, value))

    depth_capped = []
    capped_error = 0.0
    converged = True
    for _ in range(200_000):
        if total_error + floor + 4.0 * 2.0 ** -53 * total_abs <= config.tolerance_for(total_value):
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
        total_abs += (abs(v1) + abs(v2)) - abs(value)
        total_error += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, a, depth + 1, mid, v1))
        heapq.heappush(heap, (-e2, mid, depth + 1, b, v2))
    else:
        converged = False

    panels = [(a, value, -neg_err) for neg_err, a, _, _, value in heap]
    panels.extend((a, value, -neg_err) for neg_err, a, _, _, value in depth_capped)
    panels.sort(key=lambda p: p[0])
    value = math.fsum(p[1] for p in panels)
    error = (math.fsum(p[2] for p in panels) + floor
             + 4.0 * 2.0 ** -53 * math.fsum(abs(p[1]) for p in panels))
    if converged and error > config.tolerance_for(value):
        converged = False
    return QuadratureResult(value, error, evaluations, converged)


def reference_trapezoid(alpha, beta, term, config=oracle.DEFAULT_CONFIG):
    """Scalar trapezoid in theta: None where GK15 must run, as in cauchykl.oracle.

    One node at a time: math.tan, the shipped _frame_ratio on floats,
    `term` (math.log of R or of beta*R) and math.fsum. N takes the values
    the oracle's rule gives: 8, then the least power of two whose bound
    -(2/N)*log(1 - |zeta|**N) is within half the tolerance, doubled while
    bound plus rounding exceeds the tolerance, up to 1024.
    """
    q = 4.0 * beta / (alpha * alpha + (beta + 1.0) * (beta + 1.0))
    if not q > 0.0:
        return None
    rho = math.sqrt(1.0 - min(q, 1.0))
    rounding = 2.0 ** -53 * (16.0 + 16.0 * rho * (1.0 + rho) / q)

    def bound(n):
        rho_n = rho ** n
        return -2.0 / n * math.log1p(-rho_n) if rho_n < 1.0 else math.inf

    n, n_next, values = 0, 8, []
    while n_next <= 1024:
        while n < n_next:
            n = 8 if n == 0 else 2 * n
            for j in range(n) if n == 8 else range(1, n, 2):
                t = math.tan(math.pi * (j / n - 0.5))
                try:
                    y = term(float(oracle._frame_ratio(t, alpha, beta)))
                except ValueError:
                    return None
                if not math.isfinite(y):
                    return None
                values.append(y)
        value = math.fsum(values) / n
        tol = config.tolerance_for(value)
        error = bound(n) + rounding + 4.0 * 2.0 ** -53 * max(map(abs, values))
        if error <= tol:
            return QuadratureResult(value, error, n, True)
        if bound(n) <= 0.5 * tol:
            return None
        while n_next <= 1024 and bound(n_next) > 0.5 * tol:
            n_next *= 2
    return None


def _reference_frame(v1, w1, v2, w2, term, config, analytic=False):
    """Mean over theta of term(R(tan(theta))) in the frame of (v1, w1), R = n/(beta*m).

    With `analytic`, the trapezoid runs first, and GK15 of term(R)/pi in
    theta where it gives None.
    """
    alpha, beta = (v2 - v1) / w1, w2 / w1
    if analytic:
        r = reference_trapezoid(alpha, beta, term, config)
        if r is not None:
            return r
    beta_sq = beta * beta

    def sample(t):
        u = t - alpha
        return term((beta_sq + u * u) / (beta * (1.0 + t * t))) / math.pi

    reach = 4.0 * (abs(alpha) + max(1.0, beta))
    points = _reference_graded([(0.0, 1.0), (alpha, beta)], reach)
    if not analytic:  # edges at the roots of R = 1, where a generator may have a kink
        a = 1.0 - beta
        q = alpha + math.copysign(math.sqrt(beta * (alpha * alpha + a * a)), alpha)
        if a:
            points.append(q / a)
        if q:
            points.append((alpha * alpha - beta * a) / q)
    return _reference_integrate_theta(sample, config, points, 4.0 * 2.0 ** -53)


def _reference_expected_log(v1, w1, v2, w2, config, shift, scale=1.0):
    beta = w2 / w1
    r = _reference_frame(v1, w1, v2, w2, lambda ratio: math.log(beta * ratio), config, True)
    log_w1_sq = 2.0 * math.log(w1)
    rounding = 8.0 * math.ulp(abs(shift) + abs(log_w1_sq) + math.log(4.0) + abs(r.value))
    shift += log_w1_sq + math.log(4.0)
    return QuadratureResult(scale * (shift + r.value), scale * (r.error_estimate + rounding),
                            r.evaluations, r.converged)


def reference_kl(p1, p2, config=oracle.DEFAULT_CONFIG):
    return _reference_frame(p1.location, p1.scale, p2.location, p2.scale, math.log, config, True)


def reference_cross_entropy(p1, p2, config=oracle.DEFAULT_CONFIG):
    return _reference_expected_log(p1.location, p1.scale, p2.location, p2.scale, config,
                                   math.log(math.pi / p2.scale))


def reference_integral_a(q1, q2, config=oracle.DEFAULT_CONFIG):
    w1 = q1.half_width
    return _reference_expected_log(q1.vertex, w1, q2.vertex, q2.half_width, config,
                                   math.log(q2.a), math.pi / (q1.a * w1))


def reference_f_divergence(generator, p1, p2, config=oracle.DEFAULT_CONFIG):
    return _reference_frame(p1.location, p1.scale, p2.location, p2.scale,
                            lambda ratio: generator(ratio) / ratio, config)
