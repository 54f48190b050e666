"""Quadrature and Monte-Carlo oracle: fixtures, determinism, error honesty."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cauchykl

from cauchykl import (
    CauchyDist,
    IntegrandEvaluationError,
    ParameterError,
    PositiveQuadratic,
    QuadratureConfig,
    cross_entropy_closed,
    cross_entropy_numeric,
    f_divergence_numeric,
    integral_a,
    integral_a_numeric,
    integrate_real_line,
    kl_closed,
    kl_monte_carlo,
    kl_numeric,
    standardize_pair,
)
from cauchykl import oracle, suites
from cauchykl.oracle import _BLOCK, _log, correctly_rounded_sum
from helpers import (
    draw_pairs,
    reference_cross_entropy,
    reference_f_divergence,
    reference_integral_a,
    reference_integrate,
    reference_kl,
)


def hellinger(t: float) -> float:
    return (math.sqrt(t) - 1.0) ** 2


def t_log_t(t: float) -> float:
    return t * math.log(t)


# ---------------------------------------------------------------------------
# integrate_real_line
# ---------------------------------------------------------------------------

def test_density_normalizes_to_one():
    r = integrate_real_line(lambda x: 1.0 / (math.pi * (1.0 + x * x)))
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-10


def test_canonical_log_integral():
    r = integrate_real_line(lambda x: math.log(1.0 + x * x) / (1.0 + x * x))
    assert r.converged
    assert abs(r.value - math.pi * math.log(4)) <= 1e-9 * math.pi * math.log(4)


def test_odd_integrand_vanishes():
    r = integrate_real_line(lambda x: x / (1.0 + x * x) ** 2)
    assert r.converged
    assert abs(r.value) <= 1e-12


def test_non_finite_sample_reports_abscissa():
    def bad(x):
        if 1.9 < x < 2.1:
            return math.nan
        return 1.0 / (1.0 + x * x)

    with pytest.raises(IntegrandEvaluationError) as info:
        integrate_real_line(bad)
    assert 1.9 < info.value.abscissa < 2.1


def test_depth_exhaustion_returns_unconverged():
    config = QuadratureConfig(relative_tolerance=1e-13, absolute_tolerance=1e-15,
                              max_refinement_depth=1)
    # |x - a|^{3/2} has limited smoothness at a generic abscissa no panel
    # boundary touches, so one refinement level cannot reach 1e-13.
    r = integrate_real_line(lambda x: abs(x - 0.3371) ** 1.5 / (1.0 + x ** 4), config)
    assert not r.converged
    assert math.isfinite(r.value)
    assert r.error_estimate > 0.0


def test_depth_capped_panel_under_budget_is_set_aside():
    # At depth 2 some panels cannot split; their summed estimate stays within
    # the tolerance, so refinement goes on elsewhere and converges. The
    # batched driver keeps the scalar reference's bits and count.
    config = QuadratureConfig(1e-6, 1e-14, 2)

    def wave(x):
        return math.cos(5.0 * x) * math.exp(-x * x)

    r = integrate_real_line(wave, config)
    assert r.converged and r.evaluations == 1050
    assert r == reference_integrate(wave, config)


def test_refinement_that_splits_every_panel_ends_unconverged():
    # A relative tolerance of 1e-17 lies below GK15's rounding term, so no
    # estimate meets it; at depth 1 each of the 56 first panels splits once,
    # and `_integrate` stops when no panel is left: 56 * (15 + 30) evaluations,
    # converged=False, the value pi to the bit.
    config = QuadratureConfig(1e-17, 1e-300, 1)
    r = integrate_real_line(lambda x: 1.0 / (1.0 + x * x), config)
    assert (r.value, r.evaluations, r.converged) == (math.pi, 2520, False)
    assert r == reference_integrate(lambda x: 1.0 / (1.0 + x * x), config)


def test_converged_flag_respects_tolerances():
    config = QuadratureConfig()
    r = integrate_real_line(lambda x: 1.0 / (math.pi * (1.0 + x * x)), config)
    assert r.converged
    assert r.error_estimate <= max(config.absolute_tolerance,
                                   config.relative_tolerance * abs(r.value))


def test_quadrature_config_validation():
    for name in ("relative_tolerance", "absolute_tolerance"):
        for tol in (0.0, -1e-10, math.inf, math.nan, "1e-3", None, True, np.bool_(True), 1e-3j):
            with pytest.raises(ParameterError, match=f"^{name} must be > 0, got "):
                QuadratureConfig(**{name: tol})
        for tol in (1e-3, np.float64(1e-3), np.float32(1e-3), 1, np.int64(1), 10**400):
            assert getattr(QuadratureConfig(**{name: tol}), name) == tol
    for depth in (0, 2.5, True, "3", math.nan, np.bool_(True), None):
        with pytest.raises(ParameterError):
            QuadratureConfig(max_refinement_depth=depth)
    for depth in (1, 3, np.int64(3), np.uint8(3)):
        assert QuadratureConfig(max_refinement_depth=depth).max_refinement_depth == depth


@pytest.mark.parametrize("name,least,call", [
    pytest.param("samples", 2, lambda v: kl_monte_carlo(CauchyDist(0, 1), CauchyDist(1, 2), v, 0),
                 id="mc-samples"),
    pytest.param("seed", 0, lambda v: kl_monte_carlo(CauchyDist(0, 1), CauchyDist(1, 2), 10, v),
                 id="mc-seed"),
    pytest.param("count", 1, lambda v: suites.run_suite("monte-carlo", v, 1, 10), id="suite-count"),
    pytest.param("seed", 0, lambda v: suites.run_suite("monte-carlo", 1, v, 10), id="suite-seed"),
])
def test_integer_parameters_are_checked(name, least, call):
    # Python or numpy ints, never bools, floats or strings, and none coerced.
    for bad in (least - 1, 2.5, np.float64(100.7), "100", True, np.bool_(True), None):
        if name == "count" and bad is None:
            continue  # None selects the suite's default count
        with pytest.raises(ParameterError, match=f"^{name} must be >= {least}, got "):
            call(bad)
    call(np.int64(least + 2))
    call(np.uint8(least + 2))
    r = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(1, 2), np.int64(10), np.uint8(3))
    assert (r.samples, r.seed) == (10, 3) and type(r.samples) is int and type(r.seed) is int


def test_log_falls_back_to_ieee_values():
    # math.log raises at 0 and below; _log then gives IEEE's -inf and nan, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = _log(np.array([2.0, 0.0, -1.0]))
    assert y[0] == math.log(2.0) and y[1] == -math.inf and math.isnan(y[2])


def test_breakpoints_accelerate_narrow_spikes():
    spike = CauchyDist(50.0, 0.001)
    r = kl_numeric(spike, CauchyDist(0.0, 1.0))
    assert r.converged
    closed = kl_closed(spike, CauchyDist(0.0, 1.0))
    assert abs(r.value - closed) <= 1e-8 * (1.0 + abs(closed))


# ---------------------------------------------------------------------------
# integral A / KL / cross-entropy against closed forms
# ---------------------------------------------------------------------------

def test_integral_a_numeric_fixtures():
    q11 = PositiveQuadratic(1, 0, 1)
    r = integral_a_numeric(q11, q11)
    assert r.converged
    assert abs(r.value - math.pi * math.log(4)) <= 1e-9

    r = integral_a_numeric(q11, PositiveQuadratic(1, 0, 4))
    assert abs(r.value - math.pi * math.log(9)) <= 1e-9

    q1, q2 = PositiveQuadratic(2, 1, 3), PositiveQuadratic(1, -1, 5)
    r = integral_a_numeric(q1, q2)
    closed = integral_a(q1, q2)
    assert abs(r.value - closed) <= 1e-8 * abs(closed)
    # regression fixture recorded from the first converged run
    assert r.value == pytest.approx(3.2529544459089363, rel=1e-10)


def test_kl_numeric_fixtures():
    p = CauchyDist(0, 1)
    r = kl_numeric(p, p)
    assert abs(r.value) <= 1e-12

    r = kl_numeric(CauchyDist(0, 1), CauchyDist(1, 1))
    assert abs(r.value - math.log(5 / 4)) <= 1e-9

    r = kl_numeric(CauchyDist(1, 2), CauchyDist(3, 5))
    assert abs(r.value - math.log(53 / 40)) <= 1e-9


def test_cross_entropy_numeric_fixtures():
    cases = [
        (CauchyDist(0, 1), CauchyDist(0, 1), math.log(4 * math.pi)),
        (CauchyDist(0, 1), CauchyDist(1, 1), math.log(5 * math.pi)),
        (CauchyDist(0, 1), CauchyDist(0, 2), math.log(9 * math.pi / 2)),
    ]
    for p1, p2, expected in cases:
        r = cross_entropy_numeric(p1, p2)
        assert r.converged
        assert abs(r.value - expected) <= 1e-9


def test_oracle_agreement_sample():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        l1, l2 = (float(v) for v in rng.uniform(-100, 100, 2))
        s1, s2 = (float(v) for v in rng.uniform(0.01, 100, 2))
        p1, p2 = CauchyDist(l1, s1), CauchyDist(l2, s2)
        closed = kl_closed(p1, p2)
        numeric = kl_numeric(p1, p2)
        assert abs(closed - numeric.value) <= 1e-8 * (1.0 + abs(closed))


def test_error_estimate_honesty():
    q11 = PositiveQuadratic(1, 0, 1)
    fixtures = [
        (integral_a_numeric(q11, q11), math.pi * math.log(4)),
        (integral_a_numeric(q11, PositiveQuadratic(1, 1, 1)),
         math.pi * math.log(2 + math.sqrt(3))),
        (kl_numeric(CauchyDist(0, 1), CauchyDist(1, 1)), math.log(5 / 4)),
        (cross_entropy_numeric(CauchyDist(0, 1), CauchyDist(0, 2)),
         math.log(9 * math.pi / 2)),
        (integrate_real_line(lambda x: 1.0 / (math.pi * (1.0 + x * x))), 1.0),
    ]
    for result, exact in fixtures:
        assert result.converged
        true_error = abs(result.value - exact)
        assert true_error <= 10.0 * result.error_estimate + 4.0 * math.ulp(abs(exact))


def test_converged_results_lie_within_their_estimate_at_extremes():
    # Scale ratios and gaps (in units of s1) from 1 to 1e12, at three
    # magnitudes of s1, both orders: every kl and cross-entropy result
    # converges, and its true error against 50-digit mpmath lies within
    # its own error estimate.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    checked = 0
    for ratio in (1.0, 1e3, 1e6, 1e9, 1e12):
        for gap in (0.0, 1.0, 1e3, 1e6, 1e9, 1e12):
            for s1 in (1e-6, 1.0, 1e6):
                pair = (CauchyDist(0.0, s1), CauchyDist(gap * s1, s1 * ratio))
                for p1, p2 in (pair, pair[::-1]):
                    dl = mp.mpf(p1.location) - mp.mpf(p2.location)
                    q = (mp.mpf(p1.scale) + mp.mpf(p2.scale)) ** 2 + dl * dl
                    kl = float(mp.log(q / (4 * mp.mpf(p1.scale) * mp.mpf(p2.scale))))
                    ce = float(mp.log(mp.pi * q / mp.mpf(p2.scale)))
                    for numeric, exact in ((kl_numeric, kl), (cross_entropy_numeric, ce)):
                        r = numeric(p1, p2)
                        assert r.converged, (numeric.__name__, p1, p2, r)
                        assert abs(r.value - exact) <= r.error_estimate + 4.0 * math.ulp(exact), \
                            (numeric.__name__, p1, p2, r, exact)
                        checked += 1
    assert checked == 360


# ---------------------------------------------------------------------------
# f-divergences
# ---------------------------------------------------------------------------

def test_f_divergence_t_log_t_is_kl():
    r = f_divergence_numeric(t_log_t, CauchyDist(0, 1), CauchyDist(1, 1))
    assert abs(r.value - math.log(5 / 4)) <= 1e-9


def test_f_divergence_hellinger_identical_is_zero():
    r = f_divergence_numeric(hellinger, CauchyDist(0, 1), CauchyDist(0, 1))
    assert abs(r.value) <= 1e-12


def test_f_divergence_standardization_invariance():
    p1, p2 = CauchyDist(1, 2), CauchyDist(3, 4)
    q1, q2 = standardize_pair(p1, p2)
    assert (q1, q2) == (CauchyDist(0, 1), CauchyDist(1, 2))
    for gen in (hellinger, t_log_t):
        a = f_divergence_numeric(gen, p1, p2)
        b = f_divergence_numeric(gen, q1, q2)
        assert abs(a.value - b.value) <= 1e-8


def test_f_divergences_depend_on_chi2_alone():
    # Each family holds pairs of different shape with one
    # chi2 = ((l1-l2)^2 + (s1-s2)^2)/(2*s1*s2): 9/8, then 1/2 through a
    # location shift, a pure scale change, a mix of both, and the image of
    # the mix under x -> 3x + 5.
    golden = (3.0 + math.sqrt(5.0)) / 2.0
    families = [
        (9.0 / 8.0, [
            (CauchyDist(0, 1), CauchyDist(0, 4)),
            (CauchyDist(0, 1), CauchyDist(0, 0.25)),
            (CauchyDist(3, 2), CauchyDist(3, 8)),
            (CauchyDist(0, 1), CauchyDist(1.5, 1)),
        ]),
        (0.5, [
            (CauchyDist(0, 1), CauchyDist(1, 1)),
            (CauchyDist(0, 1), CauchyDist(0, golden)),
            (CauchyDist(0, 1), CauchyDist(1, 2)),
            (CauchyDist(5, 3), CauchyDist(8, 6)),
        ]),
    ]
    for chi2, pairs in families:
        generators = [
            (hellinger, None),
            (lambda t: (t - 1.0) ** 2, chi2),  # Pearson: chi2 itself
            (t_log_t, math.log1p(chi2 / 2.0)),  # KL = log1p(chi2/2)
        ]
        for generator, exact in generators:
            values = [f_divergence_numeric(generator, p1, p2).value for p1, p2 in pairs]
            assert max(values) - min(values) <= 1e-12, values
            if exact is not None:
                assert abs(values[0] - exact) <= 1e-12
        # values holds t*log t last: each must be the closed-form KL
        assert all(abs(v - kl_closed(p1, p2)) <= 1e-12 for v, (p1, p2) in zip(values, pairs))


def _total_variation(t: float) -> float:
    return abs(t - 1.0) / 2.0


def test_total_variation_lies_within_its_estimate():
    # |t - 1| has a kink where the densities cross, at R = 1; GK15 places a panel
    # edge there. Total variation is (2/pi)*atan(sqrt(chi2/2)), chi2/2 = exp(KL) - 1,
    # for every Cauchy pair (Nielsen & Okamura, arXiv:2101.12459). Without the edges
    # 40 of these 200 pairs, and the first pair below by 1.7e-7, lay outside.
    def reference(p1, p2):
        return 2.0 / math.pi * math.atan(math.sqrt(math.expm1(kl_closed(p1, p2))))

    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(200):
        l1, l2 = rng.normal(0.0, 3.0, 2)
        s1, s2 = np.exp(rng.normal(0.0, 2.0, 2))
        pairs.append((CauchyDist(float(l1), float(s1)), CauchyDist(float(l2), float(s2))))
    cases = [(CauchyDist(0.9003953860516731, 0.09364158089904256),
              CauchyDist(1.3045110764393937, 0.948531060915459), QuadratureConfig(1e-12, 1e-15))]
    cases += [(p1, p2, oracle.DEFAULT_CONFIG) for p1, p2 in pairs]
    for p1, p2, config in cases:
        r = f_divergence_numeric(_total_variation, p1, p2, config)
        assert r.converged and abs(r.value - reference(p1, p2)) <= r.error_estimate, (p1, p2, r)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_quadrature_deterministic():
    p1, p2 = CauchyDist(-3.5, 0.25), CauchyDist(12.0, 7.0)
    a = kl_numeric(p1, p2)
    b = kl_numeric(p1, p2)
    assert a == b  # bit-identical dataclass comparison


def test_monte_carlo_deterministic():
    a = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(2, 3), 10_000, seed=123)
    b = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(2, 3), 10_000, seed=123)
    assert a == b
    c = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(2, 3), 10_000, seed=124)
    assert c.estimate != a.estimate


# ---------------------------------------------------------------------------
# batched panels against the scalar reference: the same bits
# ---------------------------------------------------------------------------

def _quadratic_pairs(seed: int, count: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for _ in range(count):
        a, c, d, f = (float(v) for v in 10.0 ** rng.uniform(-2, 2, 4))
        b = float(rng.uniform(-0.99, 0.99)) * math.sqrt(4.0 * a * c)
        e = float(rng.uniform(-0.99, 0.99)) * math.sqrt(4.0 * d * f)
        pairs.append((PositiveQuadratic(a, b, c), PositiveQuadratic(d, e, f)))
    return pairs


# Criterion-3 pairs (0, s1) and (gap, s1 * ratio), both orders.
_MAGNITUDES = (1.0, 1e3, 1e6, 1e9, 1e12)
_EXTREME_PAIRS = [
    (ratio, gap, s1, swap)
    for ratio in _MAGNITUDES for gap in _MAGNITUDES for s1 in (1e-6, 1.0, 1e6)
    for swap in (False, True)
]


def _bit_identity_cases():
    for p1, p2 in draw_pairs(4001, 15):
        yield "kl", kl_numeric, reference_kl, (p1, p2)
    for p1, p2 in draw_pairs(4002, 15):
        yield "cross-entropy", cross_entropy_numeric, reference_cross_entropy, (p1, p2)
    for q1, q2 in _quadratic_pairs(4003, 10):
        yield "integral-a", integral_a_numeric, reference_integral_a, (q1, q2)
    for p1, p2 in draw_pairs(4004, 6):
        yield ("hellinger", lambda a, b: f_divergence_numeric(hellinger, a, b),
               lambda a, b: reference_f_divergence(hellinger, a, b), (p1, p2))
    for ratio, gap, s1, swap in _EXTREME_PAIRS:
        pair = (CauchyDist(0.0, s1), CauchyDist(gap, s1 * ratio))
        pair = pair[::-1] if swap else pair
        yield "kl extreme", kl_numeric, reference_kl, pair
        yield "cross-entropy extreme", cross_entropy_numeric, reference_cross_entropy, pair


def test_batched_quadrature_matches_scalar_reference():
    # kl, cross-entropy and integral A take the trapezoid where it applies,
    # and GK15 past its cap; the references make the same choice one node
    # at a time. The evaluation count names the rule: a power of two for
    # the trapezoid, a multiple of 15 for GK15.
    checked = 0
    rules = set()
    for name, batched, reference, args in _bit_identity_cases():
        result = batched(*args)
        assert result == reference(*args), (name, args)
        rules.add((name, "GK15" if result.evaluations % 15 == 0 else "trapezoid"))
        checked += 1
    assert checked == 346
    assert rules == {("kl", "trapezoid"), ("cross-entropy", "trapezoid"),
                     ("integral-a", "trapezoid"), ("integral-a", "GK15"),
                     ("kl extreme", "trapezoid"), ("kl extreme", "GK15"),
                     ("cross-entropy extreme", "trapezoid"), ("cross-entropy extreme", "GK15"),
                     ("hellinger", "GK15")}


def test_batched_quadrature_matches_reference_when_unconverged():
    # One refinement level does not reach a relative tolerance of 1e-13.
    config = QuadratureConfig(relative_tolerance=1e-13, absolute_tolerance=1e-15,
                              max_refinement_depth=1)
    pair = (CauchyDist(50.0, 0.001), CauchyDist(0.0, 1.0))
    r = kl_numeric(*pair, config)
    assert not r.converged
    assert r == reference_kl(*pair, config)

    # A scalar integrand goes through the same engine, element by element.
    def rough(x):
        return abs(x - 0.3371) ** 1.5 / (1.0 + x ** 4)

    r = integrate_real_line(rough, config)
    assert not r.converged
    assert r == reference_integrate(rough, config)


def test_first_non_finite_sample_matches_reference():
    # In the frame of p1, (t - 1e200)^2 overflows, so every sample is inf;
    # the error names the first node of the first panel in the scalar
    # evaluation order.
    pair = (CauchyDist(0.0, 1.0), CauchyDist(1e200, 1.0))
    with pytest.raises(IntegrandEvaluationError) as batched:
        kl_numeric(*pair)
    with pytest.raises(IntegrandEvaluationError) as reference:
        reference_kl(*pair)
    assert str(batched.value) == str(reference.value)
    assert batched.value.abscissa == reference.value.abscissa


def test_frame_that_underflows_or_overflows_raises():
    # beta = s2/s1 underflows to 0, or alpha = (l2 - l1)/s1 overflows: the
    # grading still stops, and the first non-finite sample is reported.
    for pair in ((CauchyDist(0.0, 1e300), CauchyDist(0.0, 1e-300)),
                 (CauchyDist(-1e300, 1e-300), CauchyDist(1e300, 1.0))):
        with pytest.raises(IntegrandEvaluationError):
            kl_numeric(*pair)


# ---------------------------------------------------------------------------
# the trapezoidal rule for kl, cross-entropy and integral A
# ---------------------------------------------------------------------------

def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


_LAW_PAIRS = [
    (CauchyDist(0, 1), CauchyDist(1, 1)),
    (CauchyDist(1, 2), CauchyDist(3, 5)),
    (CauchyDist(-3, 0.5), CauchyDist(2, 1.5)),
    (CauchyDist(10, 4), CauchyDist(9, 0.7)),
    (CauchyDist(0, 1), CauchyDist(0, 3)),
]


def test_trapezoid_error_is_the_exact_law():
    # In p1's frame, with w = alpha + i*beta and zeta = (w - i)/(w + i), the
    # N-node trapezoid of log R misses KL by exactly (2/N)*log|1 - (-zeta)**N|;
    # the computed sums agree to within a few ulps of their largest term, both
    # at fixed N and at the N that kl_numeric chooses for three tolerances.
    nodes = oracle._trapezoid_nodes()
    for p1, p2 in _LAW_PAIRS:
        alpha, beta = (p2.location - p1.location) / p1.scale, p2.scale / p1.scale
        zeta = (complex(alpha, beta) - 1j) / (complex(alpha, beta) + 1j)
        kl = kl_closed(p1, p2)
        results = [kl_numeric(p1, p2, QuadratureConfig(relative_tolerance=rtol))
                   for rtol in (1e-3, 1e-6, 1e-10)]
        for n, value in [(n, None) for n in (8, 16, 32)] + [(r.evaluations, r.value) for r in results]:
            assert _is_power_of_two(n)
            t = nodes[:n]
            y = _log(oracle._frame_ratio(t, alpha, beta))
            if value is None:
                value = math.fsum(y) / n
            law = 2.0 / n * math.log(abs(1.0 - (-zeta) ** n))
            assert abs(value - kl - law) <= 4.0 * math.ulp(max(abs(y))) + 2.0 * math.ulp(kl), \
                (p1, p2, n, value - kl, law)


def _workload_quadratic_pairs(seed: int, count: int):
    """Quadratic pairs as the batch-numeric workload draws them: b = t*2*sqrt(a*c), |t| < 0.999."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for _ in range(count):
        coefficients = []
        for _ in range(2):
            a, c = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
            coefficients.append((a, float(rng.uniform(-0.999, 0.999)) * 2.0 * math.sqrt(a * c), c))
        pairs.append((PositiveQuadratic(*coefficients[0]), PositiveQuadratic(*coefficients[1])))
    return pairs


def _near_pairs():
    # p2 within a relative 1e-2 .. 1e-12 of p1 in location, scale or both.
    for k in (2, 4, 6, 8, 10, 12):
        for l1, s1 in ((0.0, 1.0), (37.5, 0.02), (-60.0, 80.0)):
            d = 10.0 ** -k
            yield CauchyDist(l1, s1), CauchyDist(l1 + d * s1, s1)
            yield CauchyDist(l1, s1), CauchyDist(l1, s1 * (1.0 + d))
            yield CauchyDist(l1, s1), CauchyDist(l1 - d * s1, s1 * (1.0 - d))


def test_error_estimate_bounds_the_true_error():
    # Against 50-digit mpmath, with no slack: every result converges and its
    # true error lies within its own estimate, on batch-numeric style draws
    # of all three ops and on near-equal pairs. The near pairs all take the
    # trapezoid, and so do most draws.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def pair_refs(p1, p2):
        l1, s1, l2, s2 = (mp.mpf(v) for v in (p1.location, p1.scale, p2.location, p2.scale))
        q = (s1 + s2) ** 2 + (l1 - l2) ** 2
        return mp.log(q / (4 * s1 * s2)), mp.log(mp.pi * q / s2)

    def integral_a_ref(q1, q2):
        a, b, c, d, e, f = (mp.mpf(v) for v in (q1.a, q1.b, q1.c, q2.a, q2.b, q2.c))
        r1, r2 = mp.sqrt(4 * a * c - b * b), mp.sqrt(4 * d * f - e * e)
        return 2 * mp.pi * (mp.log(2 * a * f - b * e + 2 * c * d + r1 * r2) - mp.log(2 * a)) / r1

    cases = []
    for draws, near in ((draw_pairs(2911, 40), False), (list(_near_pairs()), True)):
        for p1, p2 in draws:
            kl, ce = pair_refs(p1, p2)
            cases += [(kl_numeric, (p1, p2), kl, near), (cross_entropy_numeric, (p1, p2), ce, near)]
    cases += [(integral_a_numeric, pair, integral_a_ref(*pair), False)
              for pair in _workload_quadratic_pairs(2912, 40)]
    on_trapezoid = 0
    for numeric, args, exact, near in cases:
        r = numeric(*args)
        assert r.converged, (numeric.__name__, args, r)
        assert abs(mp.mpf(r.value) - exact) <= r.error_estimate, (numeric.__name__, args, r, exact)
        trapezoid = _is_power_of_two(r.evaluations)
        assert trapezoid or r.evaluations % 15 == 0
        assert trapezoid or not near, (numeric.__name__, args, r)
        on_trapezoid += trapezoid
    assert len(cases) == 228
    assert on_trapezoid >= 0.8 * len(cases)


def test_rule_selection():
    near = (CauchyDist(0, 1), CauchyDist(0.5, 1.5))
    # f-divergences stay on GK15, even where kl takes the trapezoid.
    for p1, p2 in [near, *draw_pairs(2913, 5)]:
        for generator in (hellinger, t_log_t, lambda t: abs(t - 1.0)):
            assert f_divergence_numeric(generator, p1, p2).evaluations % 15 == 0
    assert _is_power_of_two(kl_numeric(*near).evaluations)
    # A scale ratio of 1e6 puts |zeta| too near 1 for 1024 nodes: GK15, same bits.
    far = (CauchyDist(0, 1), CauchyDist(0, 1e6))
    for numeric, reference in ((kl_numeric, reference_kl),
                               (cross_entropy_numeric, reference_cross_entropy)):
        r = numeric(*far)
        assert r.evaluations % 15 == 0 and r == reference(*far)
    # max_refinement_depth governs GK15 only; the trapezoid ignores it.
    for numeric in (kl_numeric, cross_entropy_numeric):
        assert numeric(*near, QuadratureConfig(max_refinement_depth=1)) == numeric(*near)
    # A non-finite sample hands the frame to GK15; it never converges as a trapezoid.
    calls = []
    assert oracle._trapezoid(lambda t: calls.append(t.size) or np.full(t.size, math.nan),
                             0.5, 1.5, oracle.DEFAULT_CONFIG) is None
    assert calls == [8]


# kl_numeric at tolerances of 1e-15 on a near pair: the trapezoid meets its
# bound with N well under the cap, but its rounding term exceeds half the
# tolerance, so it hands the frame to GK15.
_ROUNDING_FLOOR_PAIR = (CauchyDist(-22.458876376132736, 819.5429140273678),
                        CauchyDist(-22.428250232539547, 819.6120135040095))
_ROUNDING_FLOOR_CONFIG = QuadratureConfig(1e-15, 1e-15)


def test_trapezoid_hands_off_to_gk15_at_its_rounding_floor():
    r = kl_numeric(*_ROUNDING_FLOOR_PAIR, _ROUNDING_FLOOR_CONFIG)
    assert r.evaluations == 225  # a multiple of 15: GK15's count
    assert r == reference_kl(*_ROUNDING_FLOOR_PAIR, _ROUNDING_FLOOR_CONFIG)
    # Not a frame past the cap: at the default tolerances the trapezoid takes it.
    assert _is_power_of_two(kl_numeric(*_ROUNDING_FLOOR_PAIR).evaluations)


def test_converged_result_below_the_rounding_floor_lies_within_its_estimate():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    p1, p2 = _ROUNDING_FLOOR_PAIR
    dl = mp.mpf(p1.location) - mp.mpf(p2.location)
    q = (mp.mpf(p1.scale) + mp.mpf(p2.scale)) ** 2 + dl * dl
    exact = float(mp.log(q / (4 * mp.mpf(p1.scale) * mp.mpf(p2.scale))))
    r = kl_numeric(p1, p2, _ROUNDING_FLOOR_CONFIG)
    assert r.converged
    assert abs(r.value - exact) <= r.error_estimate, (r, exact)


def test_trapezoid_frame_constant_is_exp_minus_kl():
    # q = 4*beta/(alpha^2 + (beta + 1)^2), 1 - |zeta|^2 in _trapezoid, is exp(-KL)
    # exactly, so the trapezoid's node count depends on the pair's KL alone.
    for p1, p2 in draw_pairs(3107, 500):
        alpha, beta = (p2.location - p1.location) / p1.scale, p2.scale / p1.scale
        q = 4.0 * beta / (alpha * alpha + (beta + 1.0) * (beta + 1.0))
        assert abs(q - math.exp(-kl_closed(p1, p2))) <= 4 * math.ulp(q), (p1, p2)


@pytest.mark.parametrize("kl, trapezoid", [(3.45, True), (3.47, False)])
def test_trapezoid_reach_is_set_by_kl(kl, trapezoid):
    # At the default tolerances kl_numeric takes the trapezoid below KL = 3.456
    # and GK15 above 3.470, whatever the pair's shape: location pairs at two scales.
    for s in (1.0, 1e-3):
        gap = 2.0 * s * math.sqrt(math.expm1(kl))  # KL = log(1 + gap^2/(4*s^2))
        r = kl_numeric(CauchyDist(0.0, s), CauchyDist(gap, s))
        assert abs(r.value - kl) <= 1e-9
        assert (_is_power_of_two(r.evaluations) if trapezoid else r.evaluations % 15 == 0), r


def test_trapezoid_nodes_are_built_on_first_use():
    script = ("import cauchykl.cli, cauchykl.oracle as o; "
              "print(o._trapezoid_nodes.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(cauchykl.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout == "0\n"
    nodes = oracle._trapezoid_nodes()
    assert nodes.size == 1024 and not nodes.flags.writeable
    assert sorted(nodes.tolist()) == [math.tan(math.pi * (j / 1024 - 0.5)) for j in range(1024)]


def test_kl_numeric_evaluation_count_is_pinned():
    # The README's --numeric example; the count does not depend on the machine.
    assert kl_numeric(CauchyDist(0, 1), CauchyDist(1, 1)).evaluations == 32


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

def test_monte_carlo_identical_distributions():
    r = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(0, 1), 100_000, seed=5)
    assert r.estimate == 0.0
    assert r.standard_error == 0.0


def test_monte_carlo_seeded_estimates():
    r = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(1, 1), 1_000_000, seed=42)
    assert abs(r.estimate - math.log(5 / 4)) <= 4.0 * r.standard_error
    # regression value from the first recorded run of this stream
    assert r.estimate == pytest.approx(0.22340153103299548, rel=1e-12)

    r = kl_monte_carlo(CauchyDist(0, 1), CauchyDist(0, 3), 1_000_000, seed=7)
    assert abs(r.estimate - math.log(4 / 3)) <= 4.0 * r.standard_error


def test_monte_carlo_keeps_narrow_pairs_far_from_the_origin():
    # ulp(1e10) is about 2*s1: sampling x = l1 + s1*t and subtracting l1
    # again put this estimate 13 standard errors off the closed form.
    p1, p2 = CauchyDist(1e10, 1e-6), CauchyDist(1e10 + 1e-6, 2e-6)
    r = kl_monte_carlo(p1, p2, 200_000, seed=7)
    assert abs(r.estimate - kl_closed(p1, p2)) <= 4.0 * r.standard_error


def test_monte_carlo_peak_memory_is_one_sample_array():
    samples = 200_000
    kl_monte_carlo(CauchyDist(1, 2), CauchyDist(3, 5), 100, seed=11)  # warm up numpy
    tracemalloc.start()
    try:
        kl_monte_carlo(CauchyDist(1, 2), CauchyDist(3, 5), samples, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The log-ratios plus the block buffers, never a second sample array.
    assert peak < 8 * samples + 16 * _BLOCK


def test_monte_carlo_rejects_tiny_sample_counts():
    with pytest.raises(ParameterError):
        kl_monte_carlo(CauchyDist(0, 1), CauchyDist(0, 2), 1, seed=0)


# ---------------------------------------------------------------------------
# correctly rounded sums and the Monte-Carlo moments built on them
# ---------------------------------------------------------------------------

def _adversarial_arrays():
    rng = np.random.Generator(np.random.PCG64(2024))
    yield np.array([1.0, 2.0 ** -53])  # exact tie, rounds to even
    yield np.array([1.0, 2.0 ** -53, 2.0 ** -105])  # just above the tie
    yield np.array([1e16, 1.0, -1e16])
    yield np.array([1e300, 1e-300, -1e300])
    for n in (2, 3, 17, 1000, 5000, 3 * _BLOCK + 5):
        yield rng.standard_normal(n)
        big = rng.standard_normal(n) * 1e16
        small = rng.standard_normal(n)
        yield rng.permutation(np.concatenate([big, small, -big]))
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, -250, n)
        yield np.abs(rng.standard_normal(n)) + 0.3


def test_correctly_rounded_sum_equals_fsum_bit_for_bit():
    for x in _adversarial_arrays():
        expected = math.fsum(x).hex()
        assert correctly_rounded_sum(x).hex() == expected


def test_correctly_rounded_sum_owns_one_block_buffer():
    x = np.random.Generator(np.random.PCG64(9)).standard_normal(4 * _BLOCK + 3)
    correctly_rounded_sum(x[:100])  # warm up numpy
    tracemalloc.start()
    try:
        correctly_rounded_sum(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * _BLOCK + 4096


def test_correctly_rounded_sum_of_zeros_and_non_finite():
    assert correctly_rounded_sum(np.zeros(0)) == 0.0
    assert correctly_rounded_sum(np.array([0.0, -0.0])).hex() == math.fsum([0.0, -0.0]).hex()
    assert correctly_rounded_sum(np.array([-0.0, -0.0])).hex() == math.fsum([-0.0, -0.0]).hex()
    assert math.isnan(correctly_rounded_sum(np.array([1.0, math.nan])))
    assert correctly_rounded_sum(np.array([1.0, math.inf])) == math.inf


def test_correctly_rounded_sum_falls_back_at_the_ends_of_the_exponent_range():
    # The extraction constant 2**(exponent(max|x|) + bit_length(n)) would
    # overflow, or its residual bound underflow: math.fsum's bits instead.
    for x in ([1e308, -1e308, 1.0], [5e-324, 5e-324, -1e-323]):
        assert correctly_rounded_sum(np.array(x)).hex() == math.fsum(x).hex()


def test_correctly_rounded_sum_fast_path_on_sample_moments(monkeypatch):
    # Log-ratio sized data must not fall back to math.fsum (48 ms per
    # 200k values against about 1 ms for the vectorised path).
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.standard_normal(200_000) + 0.25
    expected = math.fsum(x)

    def no_fsum(values):
        raise AssertionError("fell back to math.fsum")

    monkeypatch.setattr(math, "fsum", no_fsum)
    assert correctly_rounded_sum(x) == expected


def _reference_monte_carlo(p1, p2, samples, seed):
    """The per-sample log-ratios in p1's frame, written out, moments by math.fsum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(samples)
    t = np.tan(np.pi * (u - 0.5))
    alpha = (p2.location - p1.location) / p1.scale
    beta = p2.scale / p1.scale
    ratio = (beta * beta + (t - alpha) * (t - alpha)) / (beta * (1.0 + t * t))
    log_ratio = np.log(ratio)
    estimate = math.fsum(log_ratio) / samples
    variance = math.fsum((log_ratio - estimate) ** 2) / (samples - 1)
    return estimate, math.sqrt(variance) / math.sqrt(samples)


@pytest.mark.parametrize("samples", [2, 1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                                     200_000])
def test_monte_carlo_moments_match_fsum_reference(samples):
    cases = [
        (CauchyDist(0, 1), CauchyDist(0, 3), 7),
        (CauchyDist(1, 2), CauchyDist(3, 5), 11),
        (CauchyDist(-40.0, 0.05), CauchyDist(60.0, 90.0), 12),
    ]
    for p1, p2, seed in cases:
        r = kl_monte_carlo(p1, p2, samples, seed=seed)
        estimate, standard_error = _reference_monte_carlo(p1, p2, samples, seed)
        assert r.estimate.hex() == estimate.hex()
        assert r.standard_error.hex() == standard_error.hex()


def test_monte_carlo_moments_take_the_fast_path(monkeypatch):
    # Both block-wise sums of a 200 000-sample estimate stay on the
    # vectorised path; the reference moments are taken before fsum goes.
    p1, p2 = CauchyDist(1, 2), CauchyDist(3, 5)
    estimate, standard_error = _reference_monte_carlo(p1, p2, 200_000, 11)

    def no_fsum(values):
        raise AssertionError("fell back to math.fsum")

    monkeypatch.setattr(math, "fsum", no_fsum)
    r = kl_monte_carlo(p1, p2, 200_000, seed=11)
    assert (r.estimate, r.standard_error) == (estimate, standard_error)


@pytest.mark.xfail(strict=True, raises=IntegrandEvaluationError, reason=(
    "ROADMAP item 1, the _frame_ratio FOUND in CHANGES.md: beta*beta and (t - alpha)^2 "
    "overflow, so the integrand raises where the closed form is finite"))
@pytest.mark.parametrize("numeric, closed, p2", [
    (kl_numeric, kl_closed, CauchyDist(0.0, 1e160)),
    (cross_entropy_numeric, cross_entropy_closed, CauchyDist(1e160, 1.0)),
], ids=["kl", "cross-entropy"])
def test_quadrature_at_huge_parameters_matches_the_closed_form(numeric, closed, p2):
    p1 = CauchyDist(0.0, 1.0)
    value, r = closed(p1, p2), numeric(p1, p2)
    assert r.converged and abs(r.value - value) <= 1e-8 * (1.0 + abs(value)), (r, value)
