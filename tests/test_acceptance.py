"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line. Seeds are
fixed per criterion (1000 + criterion number) and were chosen before any
outcome was observed.

Ulp-based tolerances use the scale max(|x|, |y|, 1.0); identities that
subtract quantities of larger magnitude (the entropy decomposition) are
measured in ulps of the largest participating operand, since the
difference cannot be more accurate than the operands it is formed from.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cauchykl import (
    CauchyDist,
    PositiveQuadratic,
    canonical_reduce,
    cross_entropy_closed,
    cross_entropy_numeric,
    entropy_closed,
    f_divergence_numeric,
    integral_a,
    integral_a_canonical,
    integral_a_dd,
    kl_closed,
    kl_location_family,
    kl_monte_carlo,
    kl_numeric,
    kl_scale_family,
    primitive_b,
    prudnikov_special,
    standardize_pair,
)
from cauchykl.certificate import psi, psi_limit, verify_ode_dadd, verify_telescoping
from helpers import draw_pairs, random_certificate_point, random_tame_point, rel_err, ulps_apart


def report(number: int, passed: bool, name: str, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}: {detail}")


def draw_quadratic(rng: np.random.Generator) -> PositiveQuadratic:
    a, c = (float(v) for v in 10.0 ** rng.uniform(-2, 2, 2))
    t = float(rng.uniform(-0.999, 0.999))
    return PositiveQuadratic(a, t * 2.0 * math.sqrt(a * c), c)


def test_criterion_01_closed_vs_quadrature():
    """KL and cross-entropy quadrature agree with the closed forms."""
    pairs = draw_pairs(1001, 1000)
    start = time.perf_counter()
    worst_kl = worst_ce = 0.0
    for p1, p2 in pairs:
        kl_c = kl_closed(p1, p2)
        worst_kl = max(worst_kl, abs(kl_c - kl_numeric(p1, p2).value) / (1.0 + abs(kl_c)))
        ce_c = cross_entropy_closed(p1, p2)
        worst_ce = max(worst_ce, abs(ce_c - cross_entropy_numeric(p1, p2).value)
                       / (1.0 + abs(ce_c)))
    elapsed = time.perf_counter() - start
    passed = worst_kl <= 1e-8 and worst_ce <= 1e-8 and elapsed <= 60.0
    report(1, passed, "closed form vs quadrature",
           f"1000 pairs, worst kl dev {worst_kl:.3e}, worst cross-entropy dev "
           f"{worst_ce:.3e} (tol 1e-8), runtime {elapsed:.1f}s (limit 60s)")
    assert worst_kl <= 1e-8
    assert worst_ce <= 1e-8
    assert elapsed <= 60.0


def test_criterion_02_symmetry_bit_identical():
    """KL is exchange-symmetric bit for bit on the criterion-1 pairs."""
    pairs = draw_pairs(1001, 1000)
    asymmetric = sum(kl_closed(p1, p2) != kl_closed(p2, p1) for p1, p2 in pairs)
    report(2, asymmetric == 0, "bit-identical symmetry",
           f"{1000 - asymmetric}/1000 pairs bit-identical under exchange")
    assert asymmetric == 0


def test_criterion_03_finiteness_at_extremes():
    """No overflow or NaN at scale ratios and location gaps up to 1e12."""
    magnitudes = (1.0, 1e3, 1e6, 1e9, 1e12)
    checked = 0
    finite = True
    for ratio in magnitudes:
        for gap in magnitudes:
            for s1 in (1e-6, 1.0, 1e6):
                p1 = CauchyDist(0.0, s1)
                p2 = CauchyDist(gap, s1 * ratio)
                v = kl_closed(p1, p2)
                w = kl_closed(p2, p1)
                finite &= math.isfinite(v) and math.isfinite(w) and v >= 0.0
                checked += 2
    report(3, finite, "finiteness at extreme ratios",
           f"{checked} evaluations with ratio and gap up to 1e12, all finite")
    assert finite


def test_criterion_04_special_cases():
    """Scale family, location family and entropy against kl_closed / log(4*pi*s)."""
    rng = np.random.Generator(np.random.PCG64(1004))
    worst_scale = worst_loc = worst_ent = 0.0
    for _ in range(100):
        s1, s2 = (float(v) for v in 10.0 ** rng.uniform(-3, 3, 2))
        l = float(rng.uniform(-100.0, 100.0))
        worst_scale = max(worst_scale, ulps_apart(
            kl_scale_family(s1, s2), kl_closed(CauchyDist(l, s1), CauchyDist(l, s2))))
    for _ in range(100):
        l1, l2 = (float(v) for v in rng.uniform(-100.0, 100.0, 2))
        s = float(10.0 ** rng.uniform(-3, 3))
        worst_loc = max(worst_loc, ulps_apart(
            kl_location_family(l1, l2, s), kl_closed(CauchyDist(l1, s), CauchyDist(l2, s))))
    for _ in range(100):
        s = float(10.0 ** rng.uniform(-3, 3))
        worst_ent = max(worst_ent, ulps_apart(
            entropy_closed(CauchyDist(0.0, s)), math.log(4.0 * math.pi * s)))
    passed = max(worst_scale, worst_loc, worst_ent) <= 2.0
    report(4, passed, "scale/location families and entropy",
           f"worst ulps: scale {worst_scale:.2f}, location {worst_loc:.2f}, "
           f"entropy {worst_ent:.2f} (tol 2)")
    assert worst_scale <= 2.0
    assert worst_loc <= 2.0
    assert worst_ent <= 2.0


def test_criterion_05_canonical_reduction():
    """A(q1; q2) equals K * A(1,0,1; D,E,F) to 1e-12 relative."""
    rng = np.random.Generator(np.random.PCG64(1005))
    worst = 0.0
    for _ in range(500):
        q1, q2 = draw_quadratic(rng), draw_quadratic(rng)
        red = canonical_reduce(q1, q2)
        worst = max(worst, rel_err(integral_a(q1, q2),
                                   red.K * integral_a_canonical(red.D, red.E, red.F)))
    report(5, worst <= 1e-12, "canonical reduction consistency",
           f"500 quadratic pairs, worst relative error {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_06_prudnikov_consistency():
    """Tabulated special case matches integral_a for b in (-0.99, 0.99)."""
    rng = np.random.Generator(np.random.PCG64(1006))
    worst = 0.0
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-2, 2))
        z = float(10.0 ** rng.uniform(-2, 2))
        b = float(rng.uniform(-0.99, 0.99))
        lhs = prudnikov_special(a, b, z)
        rhs = integral_a(PositiveQuadratic(1.0, 0.0, z * z),
                         PositiveQuadratic(1.0, -2.0 * a * b, a * a))
        worst = max(worst, rel_err(lhs, rhs))
    report(6, worst <= 1e-12, "tabulated special case consistency",
           f"200 points, worst relative error {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_07_telescoping_certificate():
    """Exact zero telescoping residual at 500 random rational points."""
    rng = np.random.Generator(np.random.PCG64(1007))
    start = time.perf_counter()
    nonzero = 0
    for _ in range(500):
        d, e, f = random_certificate_point(rng)
        x = Fraction(int(rng.integers(-1000, 1001)), int(rng.integers(1, 1001)))
        nonzero += verify_telescoping(d, e, f, x) != 0
    elapsed = time.perf_counter() - start
    passed = nonzero == 0 and elapsed <= 120.0
    report(7, passed, "telescoping certificate",
           f"{500 - nonzero}/500 exact-zero rational residuals, "
           f"runtime {elapsed:.1f}s (limit 120s)")
    assert nonzero == 0
    assert elapsed <= 120.0


def test_criterion_08_ode_certificate():
    """Exact zero residual of the operator applied to dA/dd at 200 points."""
    rng = np.random.Generator(np.random.PCG64(1008))
    nonzero = 0
    for _ in range(200):
        d, e, f = random_certificate_point(rng)
        nonzero += verify_ode_dadd(d, e, f) != 0
    report(8, nonzero == 0, "ode certificate for dA/dd",
           f"{200 - nonzero}/200 exact-zero residuals at square-discriminant points")
    assert nonzero == 0


def test_criterion_09_psi_tail_limits():
    """psi at x = +/-1e8 matches its limit formula to 1e-5."""
    rng = np.random.Generator(np.random.PCG64(1009))
    worst = 0.0
    for _ in range(100):
        d, e, f = random_tame_point(rng)
        limit = float(psi_limit(d, e, f))
        df, ef, ff = float(d), float(e), float(f)
        dev = max(abs(psi(df, ef, ff, 1e8) - limit),
                  abs(psi(df, ef, ff, -1e8) - limit)) / (1.0 + abs(limit))
        worst = max(worst, dev)
    report(9, worst <= 1e-5, "psi tail limits",
           f"100 points, worst normalized deviation {worst:.3e} (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_10_primitive_b():
    """B's tail difference reproduces dA/dd; dB/dx reproduces the integrand."""
    rng = np.random.Generator(np.random.PCG64(1010))
    worst_tail = 0.0
    for _ in range(100):
        d, e, f = (float(v) for v in random_tame_point(rng, bound=20))
        v = integral_a_dd(d, e, f)
        diff = primitive_b(d, e, f, 1e8) - primitive_b(d, e, f, -1e8)
        worst_tail = max(worst_tail, abs(diff - v) / (1.0 + abs(v)))

    worst_fd = 0.0
    for _ in range(100):
        d, e, f = (float(v) for v in random_tame_point(rng, bound=20))
        x = float(rng.uniform(-10.0, 10.0))
        h = 1e-5 * max(1.0, abs(x))
        fd = (primitive_b(d, e, f, x + h) - primitive_b(d, e, f, x - h)) / (2.0 * h)
        expected = x * x / (((d * x + e) * x + f) * (x * x + 1.0))
        worst_fd = max(worst_fd, abs(fd - expected) / (1.0 + abs(expected)))

    passed = worst_tail <= 1e-5 and worst_fd <= 1e-6
    report(10, passed, "primitive of the differentiated integrand",
           f"tail diff worst {worst_tail:.3e} (tol 1e-5), "
           f"derivative worst {worst_fd:.3e} (tol 1e-6), 100 points each")
    assert worst_tail <= 1e-5
    assert worst_fd <= 1e-6


def test_criterion_11_monte_carlo_coverage():
    """Seeded Monte-Carlo estimates land within 4 standard errors."""
    pairs = draw_pairs(1011, 20)
    hits = 0
    worst = 0.0
    for index, (p1, p2) in enumerate(pairs):
        closed = kl_closed(p1, p2)
        r = kl_monte_carlo(p1, p2, 1_000_000, seed=1011 + index)
        sigmas = math.inf if r.standard_error == 0.0 else \
            abs(r.estimate - closed) / r.standard_error
        worst = max(worst, sigmas)
        hits += sigmas <= 4.0
    report(11, hits >= 19, "monte-carlo coverage",
           f"{hits}/20 estimates within 4 standard errors at 1e6 samples "
           f"(worst {worst:.2f} sigma, need >= 19)")
    assert hits >= 19


def test_criterion_12a_standardization_invariance_strict():
    """KL invariance under joint standardization, at the 2-ulp gate.

    The standardized parameters (l2-l1)/s1 and s2/s1 are correctly
    rounded quotients. Those half-ulp input errors alone move the exact
    KL by up to 1.23 ulps on this sample (50-digit mpmath), so two
    correctly rounded results can sit 2 ulps apart; the margin is thin
    and the gate is kept as stated. Passing it takes a nearly correctly
    rounded kl_closed: the log1p chi-square form errs by at most 1.32
    ulps here and scores 2.00; the old log(num/den) form erred by up to
    2.43 ulps and scored 2.98.
    """
    pairs = draw_pairs(1012, 1000)
    worst = 0.0
    for p1, p2 in pairs:
        q1, q2 = standardize_pair(p1, p2)
        worst = max(worst, ulps_apart(kl_closed(q1, q2), kl_closed(p1, p2)))
    report(12, worst <= 2.0, "standardization invariance (strict 2 ulps)",
           f"1000 pairs, worst {worst:.2f} ulps (tol 2); rounding of the "
           f"standardized parameters alone moves the exact KL by up to 1.23 ulps")
    assert worst <= 2.0


def test_criterion_12a_standardization_invariance_attainable_bound():
    """The same invariance holds at the rounding-limited bound of 4 ulps."""
    pairs = draw_pairs(1012, 1000)
    worst = 0.0
    for p1, p2 in pairs:
        q1, q2 = standardize_pair(p1, p2)
        worst = max(worst, ulps_apart(kl_closed(q1, q2), kl_closed(p1, p2)))
    report(12, worst <= 4.0, "standardization invariance (attainable 4 ulps)",
           f"1000 pairs, worst {worst:.2f} ulps (rounding-limited bound 4)")
    assert worst <= 4.0


def test_criterion_12b_hellinger_invariance():
    """Squared-Hellinger quadrature values are standardization-invariant."""
    def hellinger(t: float) -> float:
        return (math.sqrt(t) - 1.0) ** 2

    pairs = draw_pairs(1012, 50)
    worst = 0.0
    for p1, p2 in pairs:
        direct = f_divergence_numeric(hellinger, p1, p2)
        q1, q2 = standardize_pair(p1, p2)
        standardized = f_divergence_numeric(hellinger, q1, q2)
        worst = max(worst, abs(direct.value - standardized.value))
    report(12, worst <= 1e-8, "squared-Hellinger standardization invariance",
           f"50 pairs, worst |direct - standardized| = {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_13_decomposition():
    """KL = cross-entropy - entropy in ulps of the participating operands."""
    pairs = draw_pairs(1013, 1000)
    worst = 0.0
    for p1, p2 in pairs:
        kl = kl_closed(p1, p2)
        ce = cross_entropy_closed(p1, p2)
        h = entropy_closed(p1)
        worst = max(worst, ulps_apart(kl, ce - h, scale=max(abs(kl), abs(ce), abs(h), 1.0)))
    report(13, worst <= 4.0, "entropy decomposition",
           f"1000 pairs, worst {worst:.2f} ulps of the largest operand (tol 4)")
    assert worst <= 4.0
