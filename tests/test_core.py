"""Closed-form layer: fixtures from the defining formulas plus invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from cauchykl import (
    CanonicalReduction,
    CauchyDist,
    ParameterError,
    PositiveQuadratic,
    SingularPointError,
    canonical_reduce,
    cross_entropy_closed,
    density,
    entropy_closed,
    integral_a,
    integral_a_canonical,
    integral_a_dd,
    kl_closed,
    kl_location_family,
    kl_scale_family,
    primitive_b,
    prudnikov_special,
    quantile,
    standardize_pair,
)
from cauchykl import core
from cauchykl.core import cross_entropy_floats, entropy_floats, integral_a_floats
from helpers import draw_pairs, random_tame_point, rel_err, ulps_apart

locations = st.floats(-100.0, 100.0)
scales = st.floats(0.01, 100.0)
dists = st.builds(CauchyDist, location=locations, scale=scales)


def quadratics(rng: np.random.Generator) -> PositiveQuadratic:
    a, c = (float(v) for v in 10.0 ** rng.uniform(-2, 2, 2))
    t = float(rng.uniform(-0.999, 0.999))
    return PositiveQuadratic(a, t * 2.0 * math.sqrt(a * c), c)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_cauchy_dist_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        CauchyDist(0.0, 0.0)
    with pytest.raises(ParameterError):
        CauchyDist(0.0, -1.0)
    with pytest.raises(ParameterError):
        CauchyDist(math.nan, 1.0)
    with pytest.raises(ParameterError):
        CauchyDist(math.inf, 1.0)
    with pytest.raises(ParameterError):
        CauchyDist(0.0, math.inf)


def test_positive_quadratic_invariants():
    q = PositiveQuadratic(2.0, 1.0, 3.0)
    assert q.discriminant_guard == 23.0
    assert q.vertex == -0.25
    assert q(1.0) == 6.0
    with pytest.raises(ParameterError):
        PositiveQuadratic(-1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        PositiveQuadratic(1.0, 0.0, -1.0)
    with pytest.raises(ParameterError):
        PositiveQuadratic(1.0, 2.0, 1.0)  # discriminant guard exactly zero
    with pytest.raises(ParameterError):
        PositiveQuadratic(1.0, 3.0, 1.0)
    with pytest.raises(ParameterError):
        PositiveQuadratic(1.0, math.nan, 1.0)


def test_positive_quadratic_guard_that_overflows():
    # 4*a*c and b^2 both overflow, so 4*a*c - b^2 is inf - inf = NaN; the
    # check still rejects 4ac < b^2 and keeps 4ac > b^2.
    with pytest.raises(ParameterError, match=r"must satisfy 4\*a\*c - b\^2 > 0, got nan"):
        PositiveQuadratic(1e300, 3e300, 1e300)
    with pytest.raises(ParameterError, match="must satisfy"):
        integral_a_floats(1.0, 0.0, 1.0, 1e300, -3e300, 1e300)
    q = PositiveQuadratic(1e300, 1.9e300, 1e300)
    assert math.isnan(q.discriminant_guard)


def test_positive_quadratic_from_cauchy():
    q = PositiveQuadratic.from_cauchy(CauchyDist(3.0, 2.0))
    assert (q.a, q.b, q.c) == (1.0, -6.0, 13.0)
    assert q.vertex == 3.0
    assert q.half_width == 2.0


def test_canonical_reduction_invariants():
    with pytest.raises(ParameterError):
        CanonicalReduction(1.0, 0.0, 1.0, -1.0)
    with pytest.raises(ParameterError):
        CanonicalReduction(1.0, 3.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# density and quantile
# ---------------------------------------------------------------------------

def test_density_fixtures():
    assert density(CauchyDist(0, 1), 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert density(CauchyDist(0, 1), 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert density(CauchyDist(3, 2), 3.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


@given(dists, st.floats(-1e6, 1e6))
def test_density_positive(dist, x):
    assert density(dist, x) > 0.0


def test_density_is_within_three_ulps_over_the_full_range():
    # s, l and x log-uniform over 1e+-300, and every other x at a distance from l
    # within 1e+-3 of s: within 3 ulps of 50-digit mpmath, where the direct
    # formula's s*s or pi*(s^2 + u^2) underflows or overflows too.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    assert density(CauchyDist(0.0, 1e-300), 0.0) == pytest.approx(1.0 / (math.pi * 1e-300))
    assert density(CauchyDist(0.0, 1e-170), 1e-170) == pytest.approx(0.5 / (math.pi * 1e-170))
    assert density(CauchyDist(0.0, 1e300), 0.0) == pytest.approx(1.0 / (math.pi * 1e300))
    rng = np.random.Generator(np.random.PCG64(216))

    def signed_power():
        return float(10.0 ** rng.uniform(-300, 300)) * (1 if rng.integers(2) else -1)

    for k in range(2000):
        s, l, x = abs(signed_power()), signed_power(), signed_power()
        if k % 2:
            x = l + s * float(10.0 ** rng.uniform(-3, 3)) * (1 if rng.integers(2) else -1)
        u = mp.mpf(x) - mp.mpf(l)
        exact = float(mp.mpf(s) / (mp.pi * (mp.mpf(s) ** 2 + u * u)))
        assert ulps_apart(density(CauchyDist(l, s), x), exact, exact) <= 3.0, (l, s, x)


def test_density_where_x_minus_l_overflows():
    # |x| and |l| in 10^[307.9, 308.25] with opposite signs, s in 10^[300, 308.25]:
    # x - l overflows in most draws, and the kernel carries half of each difference.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.Generator(np.random.PCG64(229))
    overflows = 0
    for _ in range(1000):
        x, l = (float(10.0 ** rng.uniform(307.9, 308.25)) for _ in range(2))
        x, l = (x, -l) if rng.integers(2) else (-x, l)
        s = float(10.0 ** rng.uniform(300, 308.25))
        overflows += math.isinf(x - l)
        u = mp.mpf(x) - mp.mpf(l)
        exact = float(mp.mpf(s) / (mp.pi * (mp.mpf(s) ** 2 + u * u)))
        value = density(CauchyDist(l, s), x)
        assert value > 0.0 and ulps_apart(value, exact, exact) <= 1.0, (l, s, x)
    assert overflows > 500


@pytest.mark.xfail(strict=True, raises=OverflowError, reason=(
    "ROADMAP Blocking, the density OverflowError FOUND in CHANGES.md: where s/(pi*s^2) "
    "exceeds the largest double, math.ldexp raises OverflowError"))
def test_density_above_the_largest_double_is_inf():
    assert density(CauchyDist(0.0, 1e-309), 0.0) == math.inf


def test_density_and_the_divergences_run_the_one_kernel(monkeypatch):
    # density, KL, cross-entropy and entropy each form their log argument (or its
    # inverse) in one call of core._scaled_ratio, and carry no scaling of their own.
    kernel, calls = core._scaled_ratio, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(core, "_scaled_ratio", counted)
    for l, s, x in ((0.0, 1.0, 0.5), (1e308, 1e300, -1e308), (0.0, 5e-324, 1e-300)):
        assert math.isfinite(density(CauchyDist(l, s), x))
        assert len(calls) == 1, calls
        calls.clear()
    for function, args in ((core.kl_floats, (0.0, 1.0, 2.0, 3.0)),
                           (core.kl_floats, (-1e308, 1e-300, 1e308, 1e308)),
                           (cross_entropy_floats, (0.0, 1.0, 2.0, 3.0)),
                           (cross_entropy_floats, (-1e308, 5e-324, 1e308, 1e-300)),
                           (entropy_floats, (1.0, 2.0)), (entropy_floats, (0.0, 5e-324))):
        assert math.isfinite(function(*args))
        assert len(calls) == 1, (function.__name__, calls)
        calls.clear()


def test_quantile_fixtures():
    assert quantile(CauchyDist(0, 1), 0.5) == 0.0
    assert quantile(CauchyDist(0, 1), 0.75) == pytest.approx(1.0, rel=1e-15)
    assert quantile(CauchyDist(5, 2), 0.25) == pytest.approx(3.0, rel=1e-15)


@given(dists, st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@example(CauchyDist(0.0, 1.0), 0.001, math.nextafter(0.001, 1.0))
def test_quantile_strictly_increasing(dist, u1, u2):
    if u1 == u2:
        return
    lo, hi = min(u1, u2), max(u1, u2)
    assert quantile(dist, lo) < quantile(dist, hi)


def test_quantile_tails_are_within_three_ulps():
    # Below 1/4 and above 3/4 the quantile reflects to s/tan(pi*u) and
    # s/tan(pi*(1 - u)); at l = 0 each is within 3 ulps of 50-digit mpmath,
    # on u uniform in a tail and log-uniform down to 1e-12 from its end.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.Generator(np.random.PCG64(208))
    tails = {False: 0, True: 0}
    for k in range(4000):
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        if k % 4 < 2:
            u = float(rng.uniform(0.0, 0.25))
        else:
            u = float(10.0 ** rng.uniform(-12.0, math.log10(0.25)))
        u = 1.0 - u if k % 2 else u
        if not (u < 0.25 or u > 0.75):
            continue
        exact = float(mp.mpf(s) * mp.tan(mp.pi * (mp.mpf(u) - mp.mpf(0.5))))
        assert ulps_apart(quantile(CauchyDist(0.0, s), u), exact, abs(exact)) <= 3.0, (s, u)
        tails[u > 0.75] += 1
    assert min(tails.values()) >= 1900


def test_quantile_domain_errors():
    for u in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ParameterError):
            quantile(CauchyDist(0, 1), u)


# ---------------------------------------------------------------------------
# KL, cross-entropy, entropy
# ---------------------------------------------------------------------------

def test_kl_fixtures():
    assert kl_closed(CauchyDist(0, 1), CauchyDist(0, 1)) == 0.0
    assert kl_closed(CauchyDist(0, 1), CauchyDist(1, 1)) == pytest.approx(math.log(5 / 4), rel=1e-15)
    assert kl_closed(CauchyDist(0, 1), CauchyDist(0, 2)) == pytest.approx(math.log(9 / 8), rel=1e-15)
    assert kl_closed(CauchyDist(1, 2), CauchyDist(3, 5)) == pytest.approx(math.log(53 / 40), rel=1e-15)


@given(dists, dists)
def test_kl_symmetric_bit_identical(p1, p2):
    assert kl_closed(p1, p2) == kl_closed(p2, p1)


@given(dists, dists)
def test_kl_nonnegative_and_zero_iff_equal(p1, p2):
    value = kl_closed(p1, p2)
    assert value >= 0.0
    if p1 == p2:
        assert value == 0.0
    if value == 0.0:
        # log1p returned exactly 0, so its argument was exactly 0;
        # distinct parameters at these magnitudes cannot give that.
        assert kl_closed(p1, p1) == 0.0


@given(dists)
def test_kl_identity_of_indiscernibles(p):
    assert kl_closed(p, p) == 0.0


def _near_equal_pairs(seed: int, count: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for _ in range(count):
        l1, s1 = float(rng.uniform(-100.0, 100.0)), float(rng.uniform(0.01, 100.0))
        gap = 10.0 ** float(rng.uniform(-15.0, -1.0))
        l2 = l1 + float(rng.standard_normal()) * gap * s1
        s2 = s1 * (1.0 + float(rng.standard_normal()) * gap)
        pairs.append((CauchyDist(l1, s1), CauchyDist(l2, s2)))
    return pairs


def test_kl_closed_relative_error_against_mpmath():
    """A few eps of relative error against 50-digit mpmath, near-equal pairs included."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    pairs = draw_pairs(1012, 1000) + _near_equal_pairs(12, 1000)
    pairs.append((CauchyDist(0.0, 1.0), CauchyDist(0.0, 1.0 + 1e-10)))
    worst = 0.0
    for p1, p2 in pairs:
        dl = mp.mpf(p1.location) - mp.mpf(p2.location)
        ds = mp.mpf(p1.scale) - mp.mpf(p2.scale)
        exact = mp.log1p((dl * dl + ds * ds) / (4 * mp.mpf(p1.scale) * mp.mpf(p2.scale)))
        if exact == 0:
            continue
        worst = max(worst, float(abs(kl_closed(p1, p2) - exact) / exact) / 2.0 ** -52)
    assert worst <= 4.0, f"worst relative error {worst:.2f} eps"


def test_kl_closed_positive_for_near_equal_scales():
    value = kl_closed(CauchyDist(0.0, 1.0), CauchyDist(0.0, 1.0 + 1e-10))
    assert value == pytest.approx(2.5e-21, rel=1e-6, abs=0.0)


def test_kl_finite_at_extreme_ratios():
    cases = [
        (CauchyDist(0, 1e-12), CauchyDist(0, 1.0)),
        (CauchyDist(0, 1.0), CauchyDist(0, 1e12)),
        (CauchyDist(0, 1e-6), CauchyDist(1e12, 1e6)),
        (CauchyDist(-1e12, 1e-6), CauchyDist(1e12, 1e6)),
    ]
    for p1, p2 in cases:
        v = kl_closed(p1, p2)
        assert math.isfinite(v) and v > 0.0


def test_cross_entropy_fixtures():
    assert cross_entropy_closed(CauchyDist(0, 1), CauchyDist(0, 1)) == pytest.approx(
        math.log(4 * math.pi), rel=1e-15)
    assert cross_entropy_closed(CauchyDist(0, 1), CauchyDist(1, 1)) == pytest.approx(
        math.log(5 * math.pi), rel=1e-15)
    assert cross_entropy_closed(CauchyDist(0, 1), CauchyDist(0, 2)) == pytest.approx(
        math.log(9 * math.pi / 2), rel=1e-15)


def test_entropy_fixtures():
    assert entropy_closed(CauchyDist(0, 1)) == pytest.approx(math.log(4 * math.pi), rel=1e-15)
    assert entropy_closed(CauchyDist(7, 2)) == pytest.approx(math.log(8 * math.pi), rel=1e-15)
    # s = 1/(4*pi) makes the argument of the log round to exactly 1
    assert abs(entropy_closed(CauchyDist(0, 1 / (4 * math.pi)))) <= 1e-15


@given(dists)
def test_entropy_is_self_cross_entropy_exactly(p):
    assert entropy_closed(p) == cross_entropy_closed(p, p)


@given(dists, dists)
def test_decomposition(p1, p2):
    kl = kl_closed(p1, p2)
    ce = cross_entropy_closed(p1, p2)
    h = entropy_closed(p1)
    scale = max(abs(kl), abs(ce), abs(h), 1.0)
    assert ulps_apart(kl, ce - h, scale=scale) <= 4.0


# ---------------------------------------------------------------------------
# scale / location families and standardization
# ---------------------------------------------------------------------------

def test_scale_family_fixtures():
    assert kl_scale_family(1.0, 1.0) == 0.0
    assert kl_scale_family(1.0, 2.0) == pytest.approx(math.log(9 / 8), rel=1e-15)
    assert kl_scale_family(2.0, 1.0) == kl_scale_family(1.0, 2.0)
    with pytest.raises(ParameterError):
        kl_scale_family(0.0, 1.0)


@given(scales, scales, locations)
def test_scale_family_matches_kl(s1, s2, l):
    assert kl_scale_family(s1, s2) == kl_closed(CauchyDist(l, s1), CauchyDist(l, s2))


def test_location_family_fixtures():
    assert kl_location_family(0.0, 0.0, 1.0) == 0.0
    assert kl_location_family(0.0, 1.0, 1.0) == pytest.approx(math.log(5 / 4), rel=1e-15)
    assert kl_location_family(0.0, 2.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(ParameterError):
        kl_location_family(0.0, 1.0, -1.0)


@given(locations, locations, scales)
def test_location_family_matches_kl(l1, l2, s):
    assert kl_location_family(l1, l2, s) == kl_closed(CauchyDist(l1, s), CauchyDist(l2, s))


def test_location_family_full_range():
    """KL depends on (l1 - l2)/s alone, down to subnormal and up to the largest scales."""
    unit = kl_location_family(0.0, 1.0, 1.0)
    assert unit == pytest.approx(math.log(1.25), rel=1e-15)
    for s in (5e-324, 1e-300, 1e-200, 1e200, 1e300, 1.7e308):
        assert kl_location_family(0.0, s, s) == unit
        assert kl_location_family(s, 0.0, s) == unit
        assert kl_location_family(s, s, s) == 0.0
        assert kl_location_family(0.0, 0.0, s) == 0.0


def test_kl_closed_full_range_fixtures():
    """Inputs whose direct products over- or underflow, against 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    cases = [
        ((0.0, 1e-200), (1e-200, 1e-200)),
        ((0.0, 1e-200), (0.0, 3e-200)),
        ((0.0, 1e300), (0.0, 2e300)),
        ((0.0, 1.0), (1e200, 1.0)),
        ((-1e308, 5e-324), (1e308, 1e-300)),
        ((0.0, 5e-324), (0.0, 1.7e308)),
        ((1e-300, 1e-300), (-1e-300, 1e300)),
    ]
    for (l1, s1), (l2, s2) in cases:
        p1, p2 = CauchyDist(l1, s1), CauchyDist(l2, s2)
        dl, ds = mp.mpf(l1) - mp.mpf(l2), mp.mpf(s1) - mp.mpf(s2)
        exact = mp.log1p((dl * dl + ds * ds) / (4 * mp.mpf(s1) * mp.mpf(s2)))
        value = kl_closed(p1, p2)
        assert value == kl_closed(p2, p1)
        assert float(abs(value - exact) / exact) <= 4 * 2.0 ** -52, (p1, p2, value)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(finite, positive, finite, positive)
def test_kl_closed_full_range_against_mpmath(l1, s1, l2, s2):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    p1, p2 = CauchyDist(l1, s1), CauchyDist(l2, s2)
    value = kl_closed(p1, p2)
    assert value == kl_closed(p2, p1)
    if p1 == p2:
        assert value == 0.0
    dl, ds = mp.mpf(l1) - mp.mpf(l2), mp.mpf(s1) - mp.mpf(s2)
    exact = mp.log1p((dl * dl + ds * ds) / (4 * mp.mpf(s1) * mp.mpf(s2)))
    if exact >= 2.0 ** -1022:
        assert float(abs(value - exact) / exact) <= 4 * 2.0 ** -52


@given(dists, dists, st.integers(-900, 900))
def test_kl_closed_invariant_under_power_of_two_scaling(p1, p2, k):
    """Scaling all four parameters by 2**k is exact, and so must leave KL's bits alone."""
    scaled = [math.ldexp(v, k) for v in (p1.location, p1.scale, p2.location, p2.scale)]
    assume(all(math.ldexp(v, -k) == w for v, w in zip(scaled, (p1.location, p1.scale,
                                                                p2.location, p2.scale))))
    q1, q2 = CauchyDist(*scaled[:2]), CauchyDist(*scaled[2:])
    assert kl_closed(q1, q2) == kl_closed(p1, p2)


def _eps_of_unit(value, exact):
    """|value - exact| in eps of max(1, |exact|)."""
    return float(abs(value - exact) / max(1, abs(exact))) / 2.0 ** -52


def _mp50():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    return mp


def _cross_entropy_exact(mp, l1, s1, l2, s2):
    dl, ss = mp.mpf(l1) - mp.mpf(l2), mp.mpf(s1) + mp.mpf(s2)
    return mp.log(mp.pi * (dl * dl + ss * ss) / mp.mpf(s2))


def test_cross_entropy_and_entropy_full_range_fixtures():
    """Inputs whose direct products over- or underflow, against 50-digit mpmath."""
    mp = _mp50()
    cases = [
        ((0.0, 1e300), (0.0, 2e300)),  # (s1 + s2)^2 overflowed: inf
        ((0.0, 1e-200), (0.0, 1e-200)),  # it underflowed: log(0)
        ((0.0, 1.7e308), (0.0, 1e-300)),  # 4*s1 would overflow
        ((0.0, 1.7e308), (0.0, 1.0)),
        ((0.0, 1.7e308), (0.0, 1.7e308)),  # s1 + s2 overflows
        ((-1e308, 1.0), (1e308, 1.0)),  # l1 - l2 overflows
        ((-1e308, 1.7e308), (1e308, 5e-324)),
    ]
    for (l1, s1), (l2, s2) in cases:
        p1, p2 = CauchyDist(l1, s1), CauchyDist(l2, s2)
        value = cross_entropy_closed(p1, p2)
        assert _eps_of_unit(value, _cross_entropy_exact(mp, l1, s1, l2, s2)) <= 4.0, (p1, p2)
        dl, ds = mp.mpf(l1) - mp.mpf(l2), mp.mpf(s1) - mp.mpf(s2)
        kl = mp.log1p((dl * dl + ds * ds) / (4 * mp.mpf(s1) * mp.mpf(s2)))
        assert kl_closed(p1, p2) == kl_closed(p2, p1)
        assert abs(kl_closed(p1, p2) - kl) <= 4 * 2.0 ** -52 * kl, (p1, p2)
    for s, approx in ((1e-300, -688.2), (5e-324, -741.9), (1.7e308, 712.26)):
        value = entropy_closed(CauchyDist(0.0, s))
        assert value == pytest.approx(approx, abs=0.05)
        assert _eps_of_unit(value, mp.log(4 * mp.pi * mp.mpf(s))) <= 4.0


@given(finite, positive, finite, positive)
def test_cross_entropy_full_range_against_mpmath(l1, s1, l2, s2):
    mp = _mp50()
    value = cross_entropy_closed(CauchyDist(l1, s1), CauchyDist(l2, s2))
    assert _eps_of_unit(value, _cross_entropy_exact(mp, l1, s1, l2, s2)) <= 4.0


@given(finite, positive)
def test_entropy_full_range_against_mpmath(l, s):
    mp = _mp50()
    assert _eps_of_unit(entropy_closed(CauchyDist(l, s)), mp.log(4 * mp.pi * mp.mpf(s))) <= 4.0


@given(st.floats(-2.0 ** 500, 2.0 ** 500), st.floats(2.0 ** -500, 2.0 ** 500),
       st.floats(-2.0 ** 500, 2.0 ** 500), st.floats(2.0 ** -500, 2.0 ** 500))
def test_cross_entropy_is_the_direct_formula_where_it_stays_normal(l1, s1, l2, s2):
    """Where every product stays normal and the log's argument lies within
    2**+-990, the power-of-two scaling must not move a bit."""
    dl, ds = l1 - l2, s1 + s2
    terms = (dl * dl, ds * ds, ds * ds + dl * dl, math.pi * (ds * ds + dl * dl))
    assume(all(v == 0.0 or 2.0 ** -1022 <= v < math.inf for v in terms))
    argument = math.pi * (ds * ds + dl * dl) / s2
    assume(2.0 ** -990 <= argument <= 2.0 ** 990)
    assert cross_entropy_closed(CauchyDist(l1, s1), CauchyDist(l2, s2)) == math.log(argument)


def test_standardize_fixtures():
    std = CauchyDist(0, 1)
    assert standardize_pair(CauchyDist(0, 1), CauchyDist(3, 2)) == (std, CauchyDist(3, 2))
    assert standardize_pair(CauchyDist(1, 2), CauchyDist(3, 4)) == (std, CauchyDist(1, 2))
    assert standardize_pair(CauchyDist(5, 1), CauchyDist(5, 1)) == (std, std)


@given(dists, dists)
def test_standardize_preserves_kl(p1, p2):
    # Attainable bound: the standardized parameters are correctly rounded
    # quotients, and their half-ulp errors amplify through the squared
    # terms of the divergence formula to at most ~4 ulps at unit scale.
    q1, q2 = standardize_pair(p1, p2)
    assert ulps_apart(kl_closed(q1, q2), kl_closed(p1, p2)) <= 4.0


# ---------------------------------------------------------------------------
# the integral A: closed forms, reduction, derivative and primitive
# ---------------------------------------------------------------------------

def test_integral_a_fixtures():
    q = PositiveQuadratic(1, 0, 1)
    assert integral_a(q, q) == pytest.approx(math.pi * math.log(4), rel=1e-15)
    # Cauchy pair l1=0, s1=1, l2=0, s2=2; the value cross-checks against
    # the quadrature oracle in the acceptance suite.
    assert integral_a(q, PositiveQuadratic(1, 0, 4)) == pytest.approx(
        math.pi * math.log(9), rel=1e-14)


def test_integral_a_canonical_fixtures():
    assert integral_a_canonical(1, 0, 1) == pytest.approx(math.pi * math.log(4), rel=1e-15)
    assert integral_a_canonical(1, 1, 1) == pytest.approx(
        math.pi * math.log(2 + math.sqrt(3)), rel=1e-15)
    assert integral_a_canonical(2, 0, 2) == pytest.approx(math.pi * math.log(8), rel=1e-15)
    with pytest.raises(ParameterError):
        integral_a_canonical(1, 2, 1)


def test_canonical_reduce_fixtures():
    # weight x^2 + 1 reduces to the identity
    red = canonical_reduce(PositiveQuadratic(1, 0, 1), PositiveQuadratic(2, 1, 3))
    assert (red.D, red.E, red.F, red.K) == (2.0, 1.0, 3.0, 1.0)
    # weight x^2 + 4 (Cauchy l=0, s=2) against the standard quadratic
    red = canonical_reduce(PositiveQuadratic(1, 0, 4), PositiveQuadratic(1, 0, 1))
    assert (red.D, red.E, red.F, red.K) == (4.0, 0.0, 1.0, 0.5)


def test_canonical_reduce_consistency():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(300):
        q1, q2 = quadratics(rng), quadratics(rng)
        red = canonical_reduce(q1, q2)
        assert red.reduced_quadratic().discriminant_guard > 0.0
        full = integral_a(q1, q2)
        via_reduction = red.K * integral_a_canonical(red.D, red.E, red.F)
        assert rel_err(full, via_reduction) <= 1e-12


def test_integral_a_dd_fixtures():
    assert integral_a_dd(1, 0, 2) == pytest.approx(math.pi * (math.sqrt(2) - 1), rel=1e-14)
    with pytest.raises(SingularPointError):
        integral_a_dd(1, 0, 1)
    with pytest.raises(SingularPointError):
        integral_a_dd(2, 0, 2)
    with pytest.raises(ParameterError):
        integral_a_dd(1, 5, 1)


def test_integral_a_dd_matches_finite_difference():
    h = 1e-5
    for d, e, f in [(2.0, 0.0, 1.0), (1.0, 0.5, 2.0), (3.0, -1.0, 0.75)]:
        fd = (integral_a_canonical(d + h, e, f) - integral_a_canonical(d - h, e, f)) / (2 * h)
        assert rel_err(integral_a_dd(d, e, f), fd) <= 1e-6


def test_integral_a_dd_relative_error_against_mpmath():
    """A few eps against 50-digit mpmath on generic draws and within 1e-6 and
    1e-12 of the singular set d = f, e = 0, where the paper's form cancels."""
    mp = _mp50()
    rng = np.random.Generator(np.random.PCG64(6))
    points = []
    for _ in range(1000):
        d, f = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        t = rng.uniform(-0.9, 0.9)  # keeps the guard 4*d*f - e^2 from cancelling
        points.append((float(d), float(t * 2.0 * math.sqrt(d * f)), float(f)))
    for width in (1e-6, 1e-12):
        for _ in range(500):
            f = float(10.0 ** rng.uniform(-2.0, 2.0))
            dd, de = rng.uniform(-width, width, 2)
            points.append((f * (1.0 + float(dd)), f * float(de), f))
    worst = 0.0
    for d, e, f in points:
        r = mp.sqrt(4 * mp.mpf(d) * f - mp.mpf(e) ** 2)
        exact = mp.pi * (r + 2 * f) / (r * (d + f + r))
        worst = max(worst, float(abs(integral_a_dd(d, e, f) - exact) / exact) / 2.0 ** -52)
    assert worst <= 4.0, f"worst relative error {worst:.3g} eps"


def test_quadratic_one_zero_one_rounds_as_x_squared_plus_one():
    # (1*x + 0)*x + 1 is x*x + 1.0 to the bit: 1*x is exact, and x + 0 only
    # turns -0.0 into 0.0, whose square is 0.0 either way.
    for x in (0.0, -0.0, 5e-324, -3.5, 0.1, 1e154, -1e155, math.inf, -math.inf, math.nan):
        assert repr(core._quadratic(1, 0, 1, x)) == repr(x * x + 1.0)
        assert repr(core._quadratic(2.0, -3.0, 4.0, x)) == repr((2.0 * x - 3.0) * x + 4.0)


def test_primitive_b_anchored_at_zero():
    assert primitive_b(1, 0, 2, 0.0) == 0.0
    assert primitive_b(1, 1, 2, 0.0) == 0.0
    with pytest.raises(SingularPointError):
        primitive_b(1, 0, 1, 0.5)


def test_primitive_b_tail_difference():
    v = integral_a_dd(1, 0, 2)
    diff = primitive_b(1, 0, 2, 1e8) - primitive_b(1, 0, 2, -1e8)
    assert abs(diff - v) <= 1e-5 * (1.0 + abs(v))


def test_primitive_b_is_finite_up_to_the_largest_double():
    # Beyond |x| = 1 the log ratio log(q(x) / (x^2 + 1)) is taken from q's reversal
    # at 1/x, so no square overflows: at +-max B's tail difference is dA/dd within
    # 11 eps (10.1 measured) on criterion 10's draws, where the two logs of x^2
    # once gave -inf from x = 1e154 and NaN from 1e155.
    big = sys.float_info.max
    for x in (1e154, 1e155, big, -big):
        assert math.isfinite(primitive_b(2, 0.5, 1, x))
    rng = np.random.Generator(np.random.PCG64(1010))
    for _ in range(100):
        d, e, f = (float(v) for v in random_tame_point(rng, bound=20))
        v = integral_a_dd(d, e, f)
        diff = primitive_b(d, e, f, big) - primitive_b(d, e, f, -big)
        assert abs(diff - v) <= 11 * 2.0 ** -52 * (1.0 + abs(v)), (d, e, f)


def test_primitive_b_derivative_is_phi_partial_d():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(100):
        d = float(rng.uniform(0.2, 5.0))
        f = float(rng.uniform(0.2, 5.0))
        e = float(rng.uniform(-1.0, 1.0)) * 2.0 * math.sqrt(d * f) * 0.95
        if abs(d - f) < 1e-3 and abs(e) < 1e-3:
            continue
        x = float(rng.uniform(-10.0, 10.0))
        h = 1e-5 * max(1.0, abs(x))
        fd = (primitive_b(d, e, f, x + h) - primitive_b(d, e, f, x - h)) / (2 * h)
        expected = x * x / (((d * x + e) * x + f) * (x * x + 1.0))
        assert abs(fd - expected) <= 1e-6 * (1.0 + abs(expected))


def test_prudnikov_fixtures():
    assert prudnikov_special(1, 0, 1) == pytest.approx(math.pi * math.log(4), rel=1e-15)
    assert prudnikov_special(2, 0, 1) == pytest.approx(math.pi * math.log(9), rel=1e-15)
    assert prudnikov_special(1, 0.5, 1) == pytest.approx(
        math.pi * math.log(2 + math.sqrt(3)), rel=1e-14)
    # b = 1 boundary: inner quadratic degenerates to (x - a)^2
    assert prudnikov_special(2, 1.0, 1) == pytest.approx(math.pi * math.log(5), rel=1e-15)


def test_prudnikov_domain_errors():
    for a, b, z in [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1.5, 1.0),
                    (1.0, -1.0, 1.0), (-2.0, 0.0, 1.0)]:
        with pytest.raises(ParameterError):
            prudnikov_special(a, b, z)


def test_prudnikov_full_range_fixtures():
    """Inputs whose log argument over- or underflows, against 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for a, b, z in [(1e200, 0.5, 1e200), (1e-200, 0.5, 1e-200), (1e300, -0.9, 1e-300),
                    (1e-300, 0.3, 1e300), (1.7e308, 1.0, 1.7e308), (1e-300, 0.0, 2e-300)]:
        A, B, Z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        exact = mp.pi / Z * mp.log(Z * Z + 2 * A * Z * mp.sqrt((1 - B) * (1 + B)) + A * A)
        value = prudnikov_special(a, b, z)
        assert float(abs(value - exact) / abs(exact)) <= 4 * 2.0 ** -52, (a, b, z, value)


def _prudnikov_exact(a, b, z):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    A, B, Z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
    return mp.pi / Z * mp.log(Z * Z + 2 * A * Z * mp.sqrt((1 - B) * (1 + B)) + A * A)


def test_prudnikov_keeps_the_small_term_of_its_log():
    """Where min(a, z) << max(a, z) the log argument is 1 + tiny in units of max^2."""
    for a, b, z in [(1, 0, 1e-20), (1, 0, 1e-8), (1e-12, -0.5, 1), (1, 1, 1e-3)]:
        exact = _prudnikov_exact(a, b, z)
        value = prudnikov_special(a, b, z)
        assert float(abs(value - exact) / abs(exact)) <= 2 * 2.0 ** -52, (a, b, z, value)


@pytest.mark.parametrize("grid", ["log-uniform [1e-2, 1e2]", "uniform [0.5, 2]"])
def test_prudnikov_within_a_few_eps_on_seeded_grids(grid):
    # On [0.5, 2] the argument comes near 1, where 2*log(max(a, z)) cancels
    # against the log1p term; hence the bound in eps of max(1, |exact|).
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(2000):
        if grid.startswith("log"):
            a, z = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
        else:
            a, z = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        b = float(-rng.uniform(-1.0, 1.0))  # uniform on (-1, 1]
        exact = _prudnikov_exact(a, b, z)
        value = prudnikov_special(a, b, z)
        assert float(abs(value - exact) / max(1, abs(exact))) <= 12 * 2.0 ** -52, (a, b, z, value)


def test_prudnikov_matches_integral_a():
    assert rel_err(prudnikov_special(1, 0.5, 1),
                   integral_a(PositiveQuadratic(1, 0, 1), PositiveQuadratic(1, -1, 1))) <= 1e-14
    rng = np.random.Generator(np.random.PCG64(47))
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-1, 1))
        z = float(10.0 ** rng.uniform(-1, 1))
        b = float(rng.uniform(-0.99, 0.99))
        lhs = prudnikov_special(a, b, z)
        rhs = integral_a(PositiveQuadratic(1.0, 0.0, z * z),
                         PositiveQuadratic(1.0, -2.0 * a * b, a * a))
        assert rel_err(lhs, rhs) <= 1e-12


def test_cross_entropy_assembly_from_integral_a():
    # The quadratic (1, -2l, l^2+s^2) stores its discriminant 4s^2 only up
    # to a cancellation of order eps*(l/s)^2, so the achievable agreement
    # degrades with that condition number; 1e-12 holds wherever the
    # representation itself is good to 1e-12.
    eps = math.ulp(1.0)
    rng = np.random.Generator(np.random.PCG64(53))
    for _ in range(300):
        l1, l2 = (float(v) for v in rng.uniform(-100, 100, 2))
        s1, s2 = (float(v) for v in rng.uniform(0.01, 100, 2))
        p1, p2 = CauchyDist(l1, s1), CauchyDist(l2, s2)
        assembled = math.log(math.pi / s2) + s1 / math.pi * integral_a(
            PositiveQuadratic.from_cauchy(p1), PositiveQuadratic.from_cauchy(p2))
        tol = max(1e-12, eps * ((l1 / s1) ** 2 + (l2 / s2) ** 2))
        assert rel_err(cross_entropy_closed(p1, p2), assembled) <= tol


# ---------------------------------------------------------------------------
# Known defects of ROADMAP item 1 (Blocking), pinned as strict xfails: each
# turns into a failing XPASS once item 1 mends it, and its marker goes then.
# ---------------------------------------------------------------------------

def _integral_a_mp(mp, a, b, c, d, e, f):
    """A(a,b,c; d,e,f) by its closed form at 50 digits."""
    a, b, c, d, e, f = map(mp.mpf, (a, b, c, d, e, f))
    r1, r2 = mp.sqrt(4 * a * c - b * b), mp.sqrt(4 * d * f - e * e)
    return 2 * mp.pi * mp.log((2 * a * f - b * e + 2 * c * d + r1 * r2) / (2 * a)) / r1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: prudnikov's 2*log(big) + log1p(u) cancels where its argument is within "
    "1e-6 of 1: 1.6e9 eps of relative error at this point"))
def test_prudnikov_near_its_zero_is_within_eight_ulps():
    mp = _mp50()
    a, b, z = 0.32024979084276084, 0.772872554144168, 0.7656666414748257
    A, B, Z = map(mp.mpf, (a, b, z))
    exact = float(mp.pi / Z * mp.log(Z * Z + 2 * A * Z * mp.sqrt(1 - B * B) + A * A))
    assert ulps_apart(prudnikov_special(a, b, z), exact, abs(exact)) <= 8.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1, the integral_a_floats FOUND in CHANGES.md that names this record: "
    "log(num) - log(2*a) cancels: 892.8 eps of relative error on that record"))
def test_integral_a_on_the_found_record_is_within_eight_ulps():
    record = (1.2589780556051946, -0.08389740331771517, 0.017162295839330263,
              0.31595692054044666, 0.5689281435285461, 0.8782984359326295)
    exact = float(_integral_a_mp(_mp50(), *record))
    assert ulps_apart(integral_a_floats(*record), exact, abs(exact)) <= 8.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1, the full-range FOUND in CHANGES.md: integral_a at a = c = 1e200 "
    "is NaN, as 4*a*c overflows"))
def test_integral_a_of_a_huge_quadratic_is_within_eight_ulps():
    q = PositiveQuadratic(1e200, 0.0, 1e200)
    exact = float(_integral_a_mp(_mp50(), 1e200, 0.0, 1e200, 1e200, 0.0, 1e200))
    assert ulps_apart(integral_a(q, q), exact, abs(exact)) <= 8.0


@pytest.mark.xfail(strict=True, raises=ParameterError, reason=(
    "ROADMAP item 1, the full-range FOUND in CHANGES.md: 4*a*c underflows to 0, so "
    "PositiveQuadratic(1e-200, 0, 1e-200) is rejected"))
def test_tiny_positive_quadratic_is_accepted():
    assert PositiveQuadratic(1e-200, 0.0, 1e-200)(0.0) == 1e-200


# ---------------------------------------------------------------------------
# Known defect of ROADMAP item 16 (Blocking), pinned as strict xfails that
# measure relative error: near a zero of the log, a rounded argument is no
# longer a few ulps of the result. Each turns into a failing XPASS once item
# 16 mends it, and its marker goes then.
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 16, the cross-entropy and entropy FOUND in CHANGES.md: log(4*pi*s) of a "
    "rounded argument near 1; at s = 0.07957747154594767 it is 0.0, against 6.18e-17"))
def test_entropy_near_its_zero_is_within_eight_eps_relative():
    # The double nearest 1/(4*pi) and seeded s within 1e-3 relative of it.
    mp = _mp50()
    zero = 0.07957747154594767
    rng = np.random.Generator(np.random.PCG64(181))
    for s in (zero, *(zero * (1.0 + float(u)) for u in rng.uniform(-1e-3, 1e-3, 200))):
        exact = float(mp.log(4 * mp.pi * mp.mpf(s)))
        assert abs(entropy_floats(0.0, s) - exact) <= 8 * 2.0 ** -52 * abs(exact), s


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 16, the cross-entropy and entropy FOUND in CHANGES.md: the log of "
    "pi*((l1-l2)^2 + (s1+s2)^2)/s2 rounded near 1; up to 3.9e17 eps relative on these zeros"))
def test_cross_entropy_near_its_zeros_is_within_eight_eps_relative():
    # Seeded constructed zeros: l1 - l2 = sqrt(s2/pi - (s1+s2)^2), with s2 < 0.07 and
    # s1 + s2 below sqrt(s2/pi), so the exact argument is 1 up to the rounding of l1.
    mp = _mp50()
    rng = np.random.Generator(np.random.PCG64(191))
    for _ in range(200):
        s2 = float(rng.uniform(0.01, 0.07))
        s1 = float(rng.uniform(0.1, 0.9)) * (math.sqrt(s2 / math.pi) - s2)
        l1 = math.sqrt(s2 / math.pi - (s1 + s2) ** 2)
        exact = float(_cross_entropy_exact(mp, l1, s1, 0.0, s2))
        value = cross_entropy_floats(l1, s1, 0.0, s2)
        assert abs(value - exact) <= 8 * 2.0 ** -52 * abs(exact), (l1, s1, s2)
