"""Quadrature and Monte-Carlo oracle: fixtures, determinism, error honesty."""

import math

import numpy as np
import pytest

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
from cauchykl.oracle import correctly_rounded_sum
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


def test_converged_flag_respects_tolerances():
    config = QuadratureConfig()
    r = integrate_real_line(lambda x: 1.0 / (math.pi * (1.0 + x * x)), config)
    assert r.converged
    assert r.error_estimate <= max(config.absolute_tolerance,
                                   config.relative_tolerance * abs(r.value))


def test_quadrature_config_validation():
    with pytest.raises(ParameterError):
        QuadratureConfig(relative_tolerance=0.0)
    with pytest.raises(ParameterError):
        QuadratureConfig(absolute_tolerance=-1e-10)
    with pytest.raises(ParameterError):
        QuadratureConfig(max_refinement_depth=0)


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


# Criterion-3 pairs (0, s1) and (gap, s1 * ratio), both orders, chosen
# among those that take at most about 60k evaluations.
_EXTREME_PAIRS = [
    (ratio, gap, s1, swap)
    for ratio, gap, s1 in ((1.0, 1.0, 1e-6), (1.0, 1e6, 1e-6), (1e6, 1e6, 1e-6),
                           (1e6, 1e12, 1e-6), (1e12, 1.0, 1e6), (1e12, 1e12, 1e-6))
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
    checked = 0
    for name, batched, reference, args in _bit_identity_cases():
        assert batched(*args) == reference(*args), (name, args)
        checked += 1
    assert checked == 70


def test_batched_quadrature_matches_reference_when_unconverged():
    config = QuadratureConfig(max_refinement_depth=1)
    pair = (CauchyDist(50.0, 0.001), CauchyDist(0.0, 1.0))
    r = kl_numeric(*pair, config)
    assert not r.converged
    assert r == reference_kl(*pair, config)

    # A scalar integrand goes through the same engine, element by element.
    config = QuadratureConfig(relative_tolerance=1e-13, absolute_tolerance=1e-15,
                              max_refinement_depth=1)
    def rough(x):
        return abs(x - 0.3371) ** 1.5 / (1.0 + x ** 4)

    r = integrate_real_line(rough, config)
    assert not r.converged
    assert r == reference_integrate(rough, config)


def test_first_non_finite_sample_matches_reference():
    # s1 * s1 overflows, so every sample is nan; the error names the first
    # node of the first panel in the scalar evaluation order.
    pair = (CauchyDist(0.0, 1e300), CauchyDist(0.0, 2e300))
    with pytest.raises(IntegrandEvaluationError) as batched:
        kl_numeric(*pair)
    with pytest.raises(IntegrandEvaluationError) as reference:
        reference_kl(*pair)
    assert str(batched.value) == str(reference.value)
    assert batched.value.abscissa == reference.value.abscissa


def test_kl_numeric_evaluation_count_is_pinned():
    # The README's --numeric example; the count does not depend on the machine.
    assert kl_numeric(CauchyDist(0, 1), CauchyDist(1, 1)).evaluations == 1515


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
    for n in (2, 3, 17, 1000, 5000):
        yield rng.standard_normal(n)
        big = rng.standard_normal(n) * 1e16
        small = rng.standard_normal(n)
        yield rng.permutation(np.concatenate([big, small, -big]))
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, -250, n)
        yield np.abs(rng.standard_normal(n)) + 0.3


def test_correctly_rounded_sum_equals_fsum_bit_for_bit():
    for x in _adversarial_arrays():
        assert correctly_rounded_sum(x).hex() == math.fsum(x).hex()
        work = np.empty_like(x)
        assert correctly_rounded_sum(x, work=work).hex() == math.fsum(x).hex()


def test_correctly_rounded_sum_of_zeros_and_non_finite():
    assert correctly_rounded_sum(np.zeros(0)) == 0.0
    assert correctly_rounded_sum(np.array([0.0, -0.0])).hex() == math.fsum([0.0, -0.0]).hex()
    assert correctly_rounded_sum(np.array([-0.0, -0.0])).hex() == math.fsum([-0.0, -0.0]).hex()
    assert math.isnan(correctly_rounded_sum(np.array([1.0, math.nan])))
    assert correctly_rounded_sum(np.array([1.0, math.inf])) == math.inf


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
    """The per-sample log-ratios as first written, moments by math.fsum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(samples)
    x = p1.location + p1.scale * np.tan(np.pi * (u - 0.5))
    u1 = x - p1.location
    u2 = x - p2.location
    ratio = (p1.scale / p2.scale) * (
        (p2.scale * p2.scale + u2 * u2) / (p1.scale * p1.scale + u1 * u1)
    )
    log_ratio = np.log(ratio)
    estimate = math.fsum(log_ratio) / samples
    variance = math.fsum((log_ratio - estimate) ** 2) / (samples - 1)
    return estimate, math.sqrt(variance) / math.sqrt(samples)


@pytest.mark.parametrize("samples", [2, 1000, 200_000])
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
