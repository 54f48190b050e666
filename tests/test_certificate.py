"""Certificate verification: exact residuals, grid proofs, checksums, tail behavior."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cauchykl import (ParameterError, SingularPointError, certificate, core, integral_a_dd, jets,
                      suites)
from cauchykl.certificate import (
    certificate_polynomial,
    operator_coefficients,
    phi_partial_d,
    psi,
    psi_limit,
    verify_dadd_residues,
    verify_g_factorization,
    verify_integration_constant,
    verify_ode_dadd,
    verify_tail_limit,
    verify_telescoping,
)
from cauchykl.cli import main
from cauchykl.jets import rational_sqrt
from cauchykl.suites import CHECKSUMS, certificate_suite, ode_suite
from helpers import random_certificate_point, random_tame_point

import test_core

ONE = Fraction(1)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    with pytest.raises(ParameterError):
        rational_sqrt(Fraction(2))
    with pytest.raises(ParameterError):
        rational_sqrt(Fraction(-1))


def test_phi_partial_d_fixtures():
    assert phi_partial_d(ONE, 0, ONE, Fraction(0)) == 0
    assert phi_partial_d(ONE, 0, ONE, ONE) == Fraction(1, 4)
    value = phi_partial_d(Fraction(2), ONE, Fraction(3), ONE)
    assert value == Fraction(1, 12)
    # independent expression tree for the same rational function
    d, e, f, x = Fraction(2), ONE, Fraction(3), ONE
    alt = (x ** 2) * (1 / (d * x ** 2 + e * x + f)) * (1 / (x ** 2 + 1))
    assert value == alt


def test_transcription_checksums():
    d = e = f = x = ONE
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    assert c3 == CHECKSUMS["operator_c3"] == 27
    assert c2 == CHECKSUMS["operator_c2"] == 84
    assert c1 == CHECKSUMS["operator_c1"] == 162
    assert c0 == CHECKSUMS["operator_c0"] == 168
    assert certificate_polynomial(d, e, f, x) == CHECKSUMS["certificate_polynomial"] == -378
    assert psi(d, e, f, x) == CHECKSUMS["psi"] == 14
    assert phi_partial_d(d, e, f, x) == CHECKSUMS["phi_partial_d"] == Fraction(1, 6)
    assert psi_limit(d, e, f) == CHECKSUMS["psi_limit"] == 52


def test_telescoping_fixture_points():
    assert verify_telescoping(1, 0, 2, Fraction(1, 3)) == 0
    assert verify_telescoping(Fraction(3, 2), Fraction(1, 2), 5, Fraction(-7, 4)) == 0
    # x = 0 annihilates dphi/dd itself but not its d-derivatives
    assert verify_telescoping(1, 0, 1, 0) == 0


def test_telescoping_rejects_invalid_parameters():
    with pytest.raises(ParameterError):
        verify_telescoping(1, 2, 1, 0)  # discriminant guard zero
    with pytest.raises(ParameterError):
        verify_telescoping(1, 3, 1, 0)
    with pytest.raises(ParameterError):
        verify_telescoping(-1, 0, -1, 0)


def test_telescoping_random_points():
    rng = np.random.Generator(np.random.PCG64(101))
    for _ in range(60):
        d, e, f = random_certificate_point(rng)
        x = Fraction(int(rng.integers(-1000, 1001)), int(rng.integers(1, 1001)))
        assert verify_telescoping(d, e, f, x) == 0


def test_psi_limit_fixtures():
    for f in (ONE, Fraction(5, 3), Fraction(7)):
        assert psi_limit(ONE, Fraction(0), f) == 0
    assert psi_limit(ONE, ONE, ONE) == 52
    with pytest.raises(ParameterError):
        psi_limit(0, ONE, ONE)


def test_psi_limit_matches_tail_evaluation():
    rng = np.random.Generator(np.random.PCG64(103))
    for _ in range(40):
        d, e, f = random_tame_point(rng)
        limit = float(psi_limit(d, e, f))
        df, ef, ff = float(d), float(e), float(f)
        for x in (1e8, -1e8):
            assert abs(psi(df, ef, ff, x) - limit) <= 1e-5 * (1.0 + abs(limit))


def test_ode_fixture_points():
    assert verify_ode_dadd(1, 3, Fraction(5, 2)) == 0
    assert verify_ode_dadd(2, 1, Fraction(17, 8)) == 0


def test_ode_rejects_singular_and_nonsquare():
    with pytest.raises(SingularPointError):
        verify_ode_dadd(1, 0, 1)
    with pytest.raises(SingularPointError):
        verify_ode_dadd(2, 0, 2)
    with pytest.raises(ParameterError):
        verify_ode_dadd(1, 1, 1)  # 4*d*f - e^2 = 3 is not a rational square
    with pytest.raises(ParameterError):
        verify_ode_dadd(1, 2, 1)  # discriminant guard zero


def test_lcm_of_d_e_f_denominators_clears_m():
    # verify_ode_dadd scales by D = lcm of the d, e, f denominators only:
    # (D*m)^2 = 4*(D*d)*(D*f) - (D*e)^2 is an integer square, so D*m is an int.
    rng = np.random.Generator(np.random.PCG64(109))
    for _ in range(200):
        d, e, f = random_certificate_point(rng)
        D = jets._clear((d, e, f))[1]
        assert (D * rational_sqrt(4 * d * f - e * e)).denominator == 1


def test_ode_random_points():
    rng = np.random.Generator(np.random.PCG64(107))
    for _ in range(25):
        d, e, f = random_certificate_point(rng)
        assert verify_ode_dadd(d, e, f) == 0


def test_ode_check_runs_the_shipped_dadd(monkeypatch):
    d, e, f = 1, 3, Fraction(5, 2)
    shipped = integral_a_dd(float(d), float(e), float(f))
    dadd_over_pi = core._dadd_over_pi

    def perturbed(d, e, f, sqrt):
        num, den = dadd_over_pi(d, e, f, sqrt)
        return num + d * d, den

    monkeypatch.setattr(core, "_dadd_over_pi", perturbed)
    assert integral_a_dd(float(d), float(e), float(f)) != shipped
    assert verify_ode_dadd(d, e, f) != 0


def test_scalar_checks_rescale_by_their_degree(monkeypatch):
    # Each scalar check runs its core at D*(d, e, f) and divides by D^degree. Under
    # perturbations that keep each residual homogeneous of its degree and nonzero,
    # it must equal the same formulas run in Fractions at the point itself, D = 2.
    shipped_p, shipped_dadd = certificate.certificate_polynomial, core._dadd_over_pi

    def perturbed_dadd(d, e, f, sqrt):
        num, den = shipped_dadd(d, e, f, sqrt)
        return num + d, den

    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped_p(d, e, f, x) + d**5 * x**5)
    monkeypatch.setattr(core, "_dadd_over_pi", perturbed_dadd)
    d, e, f, x = 1, 3, Fraction(5, 2), Fraction(2, 5)
    Jet = jets.Jet
    n, den = certificate.apply_operator(d, e, f, phi_partial_d(Jet.variable(d, 3), e, f,
                                                               Jet.constant(x, 3)))
    telescoping = n / den - psi(d, e, f, Jet.variable(x, 1)).derivative(1)
    num, den = core._dadd_over_pi(Jet.variable(d, 3), e, f, Jet.sqrt)
    n, den = certificate.apply_operator(d, e, f, num / den)
    m = rational_sqrt(4 * d * f - e * e)
    gap, gap_den = certificate._residue_gap(d, e, f, m, core._dadd_over_pi(d, e, f, lambda _: m))
    p = certificate.certificate_polynomial(d, e, f, Jet.variable(0, 5))
    tail = -2 * p.derivative(5) / math.factorial(5) / d**3 - psi_limit(d, e, f)
    direct = (telescoping, n / den, gap / gap_den, tail)
    assert all(type(r) is Fraction and r != 0 for r in direct)
    assert (verify_telescoping(d, e, f, x), verify_ode_dadd(d, e, f),
            verify_dadd_residues(d, e, f), verify_tail_limit(d, e, f)) == direct


def test_integration_constant_report():
    cases = verify_integration_constant()
    assert type(cases) is tuple and all(type(case) is tuple and len(case) == 3 for case in cases)
    assert [(d, e) for d, e, _ in cases] == [(d, e) for d in (1.0, 2.0, 5.0)
                                             for e in (0.0, d, 1.5 * d)]
    assert max(deviation for _, _, deviation in cases) <= 1e-8


def test_integration_constant_check_names_its_worst_point(monkeypatch):
    # An integral_a_canonical that is off at one grid point fails the check,
    # and the detail names that point as (d, e, f).
    shipped = certificate.integral_a_canonical
    monkeypatch.setattr(certificate, "integral_a_canonical", lambda d, e, f: shipped(d, e, f) + (
        1e-6 if (d, e) == (5.0, 7.5) else 0.0))
    outcome = ode_suite()[1]
    assert not outcome.passed and outcome.worst > 1e-8
    assert outcome.detail.endswith("; worst at (d, e, f) = (5.0, 7.5, 5.0)")


def test_operator_refuses_a_jet_below_order_three():
    with pytest.raises(ParameterError, match="the operator needs a jet of order >= 3, got 2"):
        certificate.apply_operator(1, 1, 1, jets.Jet.variable(1, 2))


def test_g_factorization_fixtures():
    # (1, 0, 1) lies on the singular set, where G2 = G3 = 0.
    for point in ((1, 0, 1), (2, 0, Fraction(1, 2)), (1, 3, Fraction(5, 2)), (1, 0, Fraction(9, 4))):
        residual = verify_g_factorization(*point)
        assert type(residual) is Fraction and residual == 0
    with pytest.raises(ParameterError):
        verify_g_factorization(1, 1, 1)  # 4*d*f - e^2 = 3 is not a rational square
    with pytest.raises(ParameterError):
        verify_g_factorization(1, 2, 1)  # discriminant guard zero


def test_g_factorization_random_points():
    rng = np.random.Generator(np.random.PCG64(109))
    for _ in range(200):
        d, e, f = random_certificate_point(rng)
        assert verify_g_factorization(d, e, f) == 0, (d, e, f)


# ---------------------------------------------------------------------------
# core's log-argument functions: one changed function fails every layer that
# runs it, the float closed forms and the exact proofs alike
# ---------------------------------------------------------------------------

def _change(monkeypatch, name, change):
    """Rebind core's function `name` so that it returns change(shipped result, *arguments)."""
    shipped = getattr(core, name)
    monkeypatch.setattr(core, name, lambda *args: change(shipped(*args), *args))


def test_g_factorization_reads_the_shipped_g1(monkeypatch):
    # With d added to core._g1's G1, the residual m*(G1*G2 - G3) is m*d*G2, 5/2
    # at (1, 3, 5/2), where m = 1 and G2 = 5/2. The same change moves the G1
    # whose log integral_a_canonical takes, and dA/dd / pi, whose denominator
    # is m*G1, so the exact ODE, residue and factorization proofs fail at
    # reproducible points.
    _change(monkeypatch, "_g1", lambda g1_r, d, e, f, sqrt: (g1_r[0] + d, g1_r[1]))
    residual = verify_g_factorization(1, 3, Fraction(5, 2))
    assert type(residual) is Fraction and residual == Fraction(5, 2)
    with pytest.raises(AssertionError):
        test_g_factorization_fixtures()
    with pytest.raises(AssertionError):
        test_core.test_integral_a_canonical_fixtures()
    outcome = ode_suite()[0]
    assert not outcome.passed
    ode_point, residues_point, factorization_point = _ode_witnesses(outcome.detail)
    assert verify_ode_dadd(*ode_point) != 0 and verify_dadd_residues(*residues_point) != 0
    assert verify_g_factorization(*factorization_point) != 0


def test_changed_guard_fails_validation_and_the_ode_proof(monkeypatch, capsys):
    # 5*a*c - b^2 admits (1, 2, 1), whose true guard is 0, and is no square on
    # the proof's grid, so `cauchykl verify --suite ode` stops with an error.
    _change(monkeypatch, "_guard", lambda guard, a, b, c: guard + a * c)
    assert core.PositiveQuadratic(1.0, 2.0, 1.0).discriminant_guard == 1.0
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test_core.test_positive_quadratic_invariants()
    assert main(["verify", "--suite", "ode"]) == 1
    assert "is not the square of a rational" in capsys.readouterr().err
    # 4 times the guard keeps every domain check and every square, but doubles
    # the root in dA/dd: the ODE proof finds nonzero residuals.
    monkeypatch.undo()
    _change(monkeypatch, "_guard", lambda guard, a, b, c: 4 * guard)
    outcome = ode_suite()[0]
    assert not outcome.passed
    assert verify_ode_dadd(*_ode_witnesses(outcome.detail)[0]) != 0


def test_changed_quadratic_fails_the_float_call_and_the_telescoping_proof(monkeypatch):
    # One more a*x^2 in core._quadratic moves q(x) and x^2 + 1 alike: the float
    # call, primitive B against its derivative, and the telescoping proof, on a
    # grid sized by the degree bounds of the same changed formula.
    _change(monkeypatch, "_quadratic", lambda q, a, b, c, x: q + a * x * x)
    assert core.PositiveQuadratic(1.0, 0.0, 1.0)(1.0) == 3.0
    with pytest.raises(AssertionError):
        test_core.test_primitive_b_derivative_is_phi_partial_d()
    telescoping = certificate_suite()[1]
    assert not telescoping.passed
    assert verify_telescoping(*_witness(telescoping.detail)) != 0


def test_changed_g3_fails_primitive_b_and_the_exact_checks(monkeypatch):
    # d^2 more in core._g3 moves primitive B's denominator, leaves the
    # factorization residual m*(G1*G2 - G3) at -m*d^2, -1 at (1, 3, 5/2) where
    # m = 1, and moves |q(i)|^2 in the residue check: the ode suite's residue
    # and factorization proofs fail, its ODE proof does not.
    _change(monkeypatch, "_g3", lambda g3, d, e, f: g3 + d * d)
    with pytest.raises(AssertionError):
        test_core.test_primitive_b_tail_difference()
    assert verify_g_factorization(1, 3, Fraction(5, 2)) == -1
    outcome = ode_suite()[0]
    assert not outcome.passed and outcome.detail.startswith("325/325 exact-zero")
    residues_point, factorization_point = _ode_witnesses(outcome.detail)
    assert verify_dadd_residues(*residues_point) != 0
    assert verify_g_factorization(*factorization_point) != 0


@pytest.mark.parametrize("name, change, test, argv", [
    ("_integral_a_arg", lambda num_den, *args: (num_den[0] * (1 + 2.0**-30), num_den[1]),
     "test_integral_a_fixtures", "integral-a --a 1 --b 0 --c 1 --d 1 --e 0 --f 1"),
    ("_prudnikov_arg", lambda big_u, *args: (big_u[0], big_u[1] + 2.0**-30),
     "test_prudnikov_fixtures", "prudnikov --a 1 --b 0 --z 1"),
], ids=["integral-a", "prudnikov"])
def test_changed_log_argument_fails_its_closed_form(monkeypatch, capsys, name, change, test, argv):
    # The float fixtures fail, and the CLI op, which runs the same function, moves.
    values = []
    for changed in (False, True):
        if changed:
            _change(monkeypatch, name, change)
        assert main(argv.split()) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] != values[1]
    with pytest.raises(AssertionError):
        getattr(test_core, test)()


def _random_nonzero_rational(rng):
    num = int(rng.integers(1, 1001)) * (1 if rng.integers(2) else -1)
    return Fraction(num, int(rng.integers(1, 1001)))


def test_exact_residuals_are_fractions():
    for point in [(1, 0, 2, Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 2), 5, Fraction(-7, 4)),
                  (1, 0, 1, 0)]:
        assert type(verify_telescoping(*point)) is Fraction
    for point in [(1, 3, Fraction(5, 2)), (2, 1, Fraction(17, 8))]:
        assert type(verify_ode_dadd(*point)) is Fraction


def test_inexact_residual_is_refused(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + 0.5 * x)
    with pytest.raises(TypeError):
        verify_telescoping(1, 0, 2, Fraction(1, 3))


def test_certificate_is_homogeneous():
    # The exact checks evaluate at D*(d, e, f) and divide by D^2; that
    # rests on these degrees, pinned here at random points and scalings.
    rng = np.random.Generator(np.random.PCG64(113))
    for _ in range(30):
        d, e, f = random_certificate_point(rng)
        x, lam = _random_nonzero_rational(rng), _random_nonzero_rational(rng)
        c = operator_coefficients(d, e, f)
        assert operator_coefficients(lam * d, lam * e, lam * f) == tuple(
            lam ** k * ck for k, ck in zip((6, 5, 4, 3), c))
        assert (certificate_polynomial(lam * d, lam * e, lam * f, x)
                == lam ** 5 * certificate_polynomial(d, e, f, x))
        lam = abs(lam)  # m = sqrt(4*d*f - e^2) scales with |lam|
        num, den = core._dadd_over_pi(d, e, f, rational_sqrt)
        scaled_num, scaled_den = core._dadd_over_pi(lam * d, lam * e, lam * f, rational_sqrt)
        assert (scaled_num, scaled_den) == (lam * num, lam ** 2 * den)  # degree 1 - 2 = -1


def test_non_homogeneous_perturbation_is_caught(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + x**5)
    assert verify_telescoping(1, 0, 2, Fraction(1, 3)) != 0
    rng = np.random.Generator(np.random.PCG64(127))
    for _ in range(10):
        assert verify_telescoping(*random_certificate_point(rng), _random_nonzero_rational(rng)) != 0


def _sympy_residual(sympy, d, e, f, x):
    """L[dphi/dd] - dpsi/dx by sympy differentiation of the shipped expressions."""
    dd, xx = sympy.symbols("d x")
    e_, f_ = sympy.Rational(e.numerator, e.denominator), sympy.Rational(f.numerator, f.denominator)
    at = {dd: sympy.Rational(d.numerator, d.denominator), xx: sympy.Rational(x.numerator, x.denominator)}
    y = phi_partial_d(dd, e_, f_, xx)
    c3, c2, c1, c0 = (sympy.Rational(c.numerator, c.denominator) for c in operator_coefficients(d, e, f))
    lhs = sum(c * sympy.diff(y, dd, k).subs(at) for k, c in zip((3, 2, 1, 0), (c3, c2, c1, c0)))
    rhs = sympy.diff(psi(dd, e_, f_, xx), xx).subs(at)
    r = sympy.Rational(lhs - rhs)
    return Fraction(int(r.p), int(r.q))


def test_telescoping_residual_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    point = (Fraction(5, 3), Fraction(-7, 2), Fraction(11, 4), Fraction(2, 5))
    assert _sympy_residual(sympy, *point) == verify_telescoping(*point) == 0
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**5)
    residual = verify_telescoping(*point)
    assert residual != 0
    assert _sympy_residual(sympy, *point) == residual


def _witness(detail):
    return tuple(Fraction(v) for v in detail.split(" = (")[-1].rstrip(")").split(", "))


def test_failing_checks_name_a_reproducing_witness(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + (x + 1) * d**5)
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and "disproved" in telescoping.detail
    point = _witness(telescoping.detail)
    assert len(point) == 4 and verify_telescoping(*point) != 0

    dadd_over_pi = core._dadd_over_pi
    monkeypatch.setattr(core, "_dadd_over_pi",
                        lambda d, e, f, sqrt: (dadd_over_pi(d, e, f, sqrt)[0] + d * d,
                                               dadd_over_pi(d, e, f, sqrt)[1]))
    ode = ode_suite()[0]
    assert not ode.passed
    point = _ode_witnesses(ode.detail)[-1]
    assert len(point) == 3 and verify_ode_dadd(*point) != 0 and verify_dadd_residues(*point) != 0


def test_phi_partial_d_mutation_is_caught(monkeypatch):
    shipped = certificate.phi_partial_d
    monkeypatch.setattr(certificate, "phi_partial_d", lambda d, e, f, x: shipped(d, e, f, x) + 1)
    telescoping = certificate_suite()[1]
    assert not telescoping.passed
    assert _witness(telescoping.detail) == (1, 0, 100, 0)  # the first grid point
    assert verify_telescoping(1, 0, 100, 0) != 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the telescoping grid is sized from hand-written forms of phi_partial_d "
    "and psi, so a term that vanishes with its x-derivative at every grid x passes the suite"))
@pytest.mark.parametrize("name", ["phi_partial_d", "psi"])
def test_grid_blind_bump_fails_the_certificate_suite(monkeypatch, name):
    shipped = getattr(certificate, name)
    monkeypatch.setattr(certificate, name, lambda d, e, f, x: shipped(d, e, f, x) + math.prod(
        (x - k) ** 2 for k in range(11)))
    if verify_telescoping(1, 1, 100, Fraction(1, 2)) == 0:
        pytest.fail("the bump must break the telescoping identity off the grid")
    assert not all(outcome.passed for outcome in certificate_suite())


def test_operator_mutation_is_caught(monkeypatch):
    # apply_operator sums c_k * k! * num_k on ints; this shows it reads the
    # shipped coefficients through the module attribute.
    shipped = certificate.operator_coefficients
    monkeypatch.setattr(certificate, "operator_coefficients",
                        lambda d, e, f: (*shipped(d, e, f)[:3], shipped(d, e, f)[3] + 1))
    assert verify_telescoping(1, 0, 2, Fraction(1, 3)) != 0
    assert verify_ode_dadd(1, 3, Fraction(5, 2)) != 0
    telescoping = certificate_suite()[1]
    ode = ode_suite()[0]
    assert not telescoping.passed and not ode.passed
    # c0 + 1 is not homogeneous, so d spans both grids; at x = 0 every
    # d-derivative of dphi/dd vanishes, so the first nonzero has x = 1.
    assert "d spans the grid" in telescoping.detail and "d spans the grid" in ode.detail
    assert _witness(telescoping.detail) == (1, 0, 100, 1)
    first = ode.detail.split("; first nonzero at (d, e, f) = (")[1].split(")")[0]
    assert tuple(map(Fraction, first.split(", "))) == (1, 0, Fraction(41 * 41, 4))
    assert verify_ode_dadd(1, 0, Fraction(41 * 41, 4)) != 0


def test_inexact_operator_is_refused(monkeypatch):
    shipped = certificate.operator_coefficients
    monkeypatch.setattr(certificate, "operator_coefficients",
                        lambda d, e, f: (*shipped(d, e, f)[:3], shipped(d, e, f)[3] + 0.5))
    with pytest.raises(TypeError):
        verify_telescoping(1, 0, 2, Fraction(1, 3))
    with pytest.raises(TypeError):
        verify_ode_dadd(1, 3, Fraction(5, 2))


def test_exact_checks_refuse_float_points():
    with pytest.raises(TypeError):
        verify_telescoping(1.0, 0, 2, Fraction(1, 3))
    with pytest.raises(TypeError):
        verify_telescoping(1, 0, 2, 0.5)
    with pytest.raises(TypeError):
        verify_ode_dadd(1, 3, 2.5)
    with pytest.raises(TypeError):
        verify_g_factorization(1, 3, 2.5)


def test_tail_limit_is_minus_two_p5_over_d_cubed():
    # psi_limit against the x^5 Taylor coefficient of the shipped P, exactly,
    # at random points and on e = 0, where the limit is 0.
    rng = np.random.Generator(np.random.PCG64(139))
    for _ in range(200):
        d, e, f = random_tame_point(rng)
        assert verify_tail_limit(d, e, f) == 0
        assert verify_tail_limit(d, 0, f) == 0 == psi_limit(d, 0, f)
    assert type(verify_tail_limit(1, 0, 1)) is Fraction


def test_tail_limit_catches_a_changed_x5_coefficient(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**5)
    assert verify_tail_limit(1, 0, 100) == Fraction(-2)
    tail = certificate_suite()[2]
    assert not tail.passed and _witness(tail.detail) == (1, 0, 100)


def test_exact_checks_build_one_fraction_each(monkeypatch):
    # The exact checks run on int numerators from the grid point to the
    # residual: only the returned residual is a Fraction. Any Fraction
    # arithmetic on the way would show up here as more constructions.
    rng = np.random.Generator(np.random.PCG64(149))
    x = Fraction(-7, 4)
    rational = random_certificate_point(rng)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))

    def count(step):
        start = len(built)
        result = step()
        return len(built) - start, result

    bounds, _ = count(lambda: (certificate.telescoping_degrees(), certificate.ode_degrees(),
                               certificate.residue_degrees()))
    grid, (_, _, points) = count(lambda: suites._square_grid(certificate.ode_degrees()))
    point = tuple(v[-1] for v in _points(*points))
    counts = [count(step) for step in (
        lambda: verify_telescoping(1, 6, 106, 10),
        lambda: verify_ode_dadd(*point),
        lambda: verify_dadd_residues(*point),
        lambda: verify_telescoping(*rational, x),
        lambda: verify_ode_dadd(*rational),
        lambda: verify_dadd_residues(*rational))]
    tail, limit = count(lambda: verify_tail_limit(1, 6, 106))
    monkeypatch.undo()
    assert (bounds, grid) == (0, 0)
    assert [n for n, _ in counts] == [1] * 6
    assert all(residual == 0 for _, residual in counts) and limit == 0
    assert tail == 1  # the residual: the limit is psi_limit's arithmetic without its Fraction


def test_derived_grid_degrees():
    # The bounds the tracker derives from the shipped formulas, which size
    # the suites' grids: (d, e, f, x) for telescoping, (e, m) at d = 1 for
    # the ODE and the residues. Each residual is homogeneous in (d, e, f).
    residual, order, limit = certificate.telescoping_degrees()
    assert tuple(residual.top[:4]) == (4, 6, 6, 10) and residual.homogeneous and order == 0
    assert tuple(limit.top[:3]) == (2, 5, 5) and limit.homogeneous
    # Their (d, e, f[, x]) grids: d = 1, e up to its degree, f from 100 over
    # deg_f + 1 values, x over deg_x + 1.
    telescoping, tail = (outcome.detail for outcome in certificate_suite()[1:])
    assert "on the grid d = 1, e in 0..6, f in 100..106, x in 0..10 (539 points)" in telescoping
    assert "on the grid d = 1, e in 0..5, f in 100..105 (36 points)" in tail
    ode, residues = certificate.ode_degrees(), certificate.residue_degrees()
    assert (ode.top.sub_e, ode.top.sub_m, ode.lo, ode.hi) == (24, 27, 16, 16)
    assert (residues.top.sub_e, residues.top.sub_m, residues.lo, residues.hi) == (10, 11, 8, 8)
    # Both are even in e and multiples of m^3 and m: their grids span e^2 for
    # e in 0..sub_e//2 and sub_m - k + 1 values of m.
    assert (ode.parity, ode.least_s, residues.parity, residues.least_s) == (0, 3, 0, 1)
    ranges = [suites._square_grid(bounds)[0] for bounds in (ode, residues)]
    assert ranges == [(range(1, 2), range(13), range(3, 28)), (range(1, 2), range(6), range(3, 14))]
    assert [math.prod(map(len, r)) for r in ranges] == [325, 66]
    detail = ode_suite()[0].detail
    for grid in ("d = 1, e in 0..12, m in 3..27", "(325 points)", "even in e",
                 "a multiple of m^3", "d = 1, e in 0..5, m in 3..13", "(66 points)",
                 "a multiple of m, "):
        assert grid in detail


def _ode_witnesses(detail):
    """Each first nonzero point the ODE check's detail names, one per failing grid."""
    return [tuple(Fraction(v) for v in part.split(")")[0].split(", "))
            for part in detail.split("first nonzero at (d, e, f) = (")[1:]]


# Changes to dA/dd's (numerator, denominator): an odd term in e, which leaves the
# residuals of mixed parity, and a term without m of the same degree (so d = 1
# still suffices), which leaves the residues' numerator with no factor m and
# the ODE's with only the one the chain rule dm/dd = 2f/m brings to each p_k.
_DADD_CHANGES = {"numerator + e": lambda d, e: (e, 0), "denominator + d^2": lambda d, e: (0, d * d)}


def _change_dadd(monkeypatch, change):
    _change(monkeypatch, "_dadd_over_pi", lambda num_den, d, e, f, sqrt: tuple(
        a + b for a, b in zip(num_den, _DADD_CHANGES[change](d, e))))


@pytest.mark.parametrize("change, facts, grids", [
    ("numerator + e", (None, 3, None, 1), ("e in 0..24, m in 3..27", "(625 points)",
                                           "e in 0..10, m in 3..13", "(121 points)")),
    ("denominator + d^2", (0, 1, 0, 0), ("e in 0..12, m in 3..29", "(351 points)",
                                         "e in 0..5, m in 3..14", "(72 points)")),
], ids=["numerator + e", "denominator + d^2"])
def test_changed_dadd_widens_its_grids(monkeypatch, change, facts, grids):
    # Without the parity or the power of m, each grid spans e or m over its
    # whole degree again, and both checks fail at a point that the scalar
    # checks reproduce.
    _change_dadd(monkeypatch, change)
    ode, residues = certificate.ode_degrees(), certificate.residue_degrees()
    assert (ode.parity, ode.least_s, residues.parity, residues.least_s) == facts
    assert ode.homogeneous and residues.homogeneous
    outcome = ode_suite()[0]
    assert not outcome.passed and all(grid in outcome.detail for grid in grids)
    ode_point, residues_point = _ode_witnesses(outcome.detail)
    assert verify_ode_dadd(*ode_point) != 0 and verify_dadd_residues(*residues_point) != 0


def test_degree_power_is_repeated_product():
    # p**n scales every bound by n in closed form; n - 1 products of p
    # give the same bounds (and n = 0 the constant 1).
    d, e, f, x = certificate._Degrees.variables(0)
    polynomials = [*certificate._Degrees.variables(0), *certificate._Degrees.variables(1),
                   d * x * x + e * x + f]
    for p in polynomials:
        product = 1
        for n in range(13):
            power = p**n
            if n == 0:
                assert power == 1
            else:
                assert _bounds(power) == _bounds(product)
            product = p * product


def _bounds(p):
    return p.top, p.lo, p.hi, p.parity, p.least_s


def test_parity_and_least_m_degree_rules():
    # e is odd and d, f, m and constants even; parities add under *, and survive
    # + only where they agree. The least m-degree takes the min under +, the sum
    # under *, and d/dm lowers it by 1, to no lower than 0.
    d, e, f, m = certificate._Degrees.variables(1)
    assert [(v.parity, v.least_s) for v in (d, e, f, m)] == [(0, 0), (1, 0), (0, 0), (0, 1)]
    assert ((e * e).parity, (e * m).parity, (e + 1).parity, (e + e * f).parity) == (0, 1, None, 1)
    assert ((m * m + m * d).least_s, (m**3 * e).least_s, (m + 1).least_s) == (1, 3, 0)
    diff = certificate._diff
    assert (diff(m**3 + m * e, m).least_s, diff(m + d, m).least_s, diff(m**2 * d, d).least_s) == (
        0, 0, 2)
    assert (diff(e * e * m, e).parity, diff(e * m, m).parity, diff(e * d, d).parity) == (1, 1, 1)
    # Odd in e: e times a polynomial of degree 1 in e^2, two values from e = 1.
    assert suites._square_grid(e**3 + e * d * f)[0] == (range(1, 2), range(1, 3), range(3, 6))


def test_higher_degree_term_in_p_grows_the_grid(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**6)
    residual, order, _ = certificate.telescoping_degrees()
    assert residual.top.s == 12 and order == 1
    telescoping, tail = certificate_suite()[1:]
    assert "x in 0..12 (637 points)" in telescoping.detail and not telescoping.passed
    assert not tail.passed and "the tails diverge" in tail.detail

    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + e**7)
    residual = certificate.telescoping_degrees()[0]
    assert residual.top.e == 8 and not residual.homogeneous

    # f starts at max(100, deg_e^2) of each grid's own identity: with e^11 in P
    # the telescoping residual has e-degree 12 and the tail limit 11.
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + e**11)
    residual, _, limit = certificate.telescoping_degrees()
    assert (residual.top.e, limit.top.e) == (12, 11)
    telescoping, tail = certificate_suite()[1:]
    assert "e in 0..12, f in 144..150, x in 0..10 (5005 points)" in telescoping.detail
    assert "e in 0..11, f in 121..126 (216 points)" in tail.detail
    assert not telescoping.passed and tail.passed


def _sympy_degrees(sympy, expression, variables):
    return tuple(sympy.Poly(sympy.expand(expression), *variables).degree(v) for v in variables)


def test_derived_degrees_bound_sympy(monkeypatch):
    # Bounds may exceed the true degrees, never fall short: compare with
    # sympy's degrees of each cleared half of the telescoping residual and
    # of the residues' numerator, and sympy's parities and powers of m with
    # the parity in e and the least m-degree that size the square grids.
    sympy = pytest.importorskip("sympy")
    d, e, f, x, m = sympy.symbols("d e f x m")
    q, w = d * x**2 + e * x + f, x**2 + 1
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    lhs = sum(c * (-1) ** k * math.factorial(k) * x ** (2 * k + 2) * q ** (3 - k) * w
              for k, c in enumerate((c0, c1, c2, c3)))
    rhs = sympy.cancel(sympy.diff(psi(d, e, f, x), x) * q**4 * w**2)
    top = certificate.telescoping_degrees()[0].top
    for half in (lhs, rhs):
        assert all(a <= b for a, b in zip(_sympy_degrees(sympy, half, (d, e, f, x)), top[:4]))
    numerator = certificate._residue_gap(1, e, (e**2 + m**2) / 4, m, core._dadd_over_pi(
        1, e, (e**2 + m**2) / 4, lambda _: m))[0]
    residues = certificate.residue_degrees().top
    assert _sympy_degrees(sympy, numerator, (e, m)) <= (residues.sub_e, residues.sub_m)
    _parity_and_m_factor_hold(sympy, vanishing=True)


def test_g_factorization_degrees_hold_in_sympy():
    # m*(G1*G2 - G3) in (d, e, f, m), before f = (e^2 + m^2)/(4d) makes it 0:
    # the bounds dominate sympy's degrees, and it is homogeneous of degree 3,
    # even in e and a multiple of m, as the tracker derives for its grid.
    sympy = pytest.importorskip("sympy")
    d, e, f, m = sympy.symbols("d e f m")
    gap = sympy.Poly(sympy.expand(certificate._g_gap(d, e, f, lambda _: m)), d, e, f, m)
    bounds = certificate.g_factorization_degrees()
    assert all(gap.degree(v) <= b for v, b in zip((d, e, f, m), bounds.top[:4]))
    assert (bounds.lo, bounds.hi, bounds.parity, bounds.least_s) == (3, 3, 0, 1)
    assert gap.homogeneous_order() == 3
    assert all(k[1] % 2 == 0 and k[3] >= 1 for k in gap.monoms())


@pytest.mark.parametrize("change", sorted(_DADD_CHANGES))
def test_derived_parity_and_m_factor_of_a_changed_dadd_hold_in_sympy(change, monkeypatch):
    sympy = pytest.importorskip("sympy")
    _change_dadd(monkeypatch, change)
    _parity_and_m_factor_hold(sympy, vanishing=False)


def _parity_and_m_factor_hold(sympy, vanishing):
    """The tracker's parity in e and least m-degree hold for the polynomials sympy
    expands: each term c_k*p_k*m^(6-2k)*den^(3-k) of the cleared ODE residual, in
    (d, e, f, m) and at d = 1, f = (e^2 + m^2)/4, and the residues' numerator in
    (d, e, f, m). For core's dA/dd (`vanishing`), the terms' sum and the numerator
    vanish at that f. A parity may be claimed only where sympy finds it, and the
    least m-degree may fall short of sympy's, never exceed it."""
    d, e, f, m = sympy.symbols("d e f m")
    num, den = core._dadd_over_pi(d, e, f, lambda _: m)
    rho = m * sympy.diff(den, d) + 2 * f * sympy.diff(den, m)
    p, terms = num, []
    for k, ck in enumerate(operator_coefficients(d, e, f)[::-1]):
        terms.append(ck * p * m ** (6 - 2 * k) * den ** (3 - k))
        p = (m * m * den * sympy.diff(p, d) + 2 * f * m * den * sympy.diff(p, m)
             - 4 * k * f * den * p - (k + 1) * m * rho * p)
    at = {d: 1, f: (e**2 + m**2) / 4}
    residues = certificate._residue_gap(d, e, f, m, (num, den))[0]
    if vanishing:
        assert sympy.expand(sum(terms).subs(at)) == 0 == sympy.expand(residues.subs(at))
    for bounds, polynomials in ((certificate.ode_degrees(),
                                 [*terms, *(term.subs(at) for term in terms)]),
                                (certificate.residue_degrees(), [residues])):
        for polynomial in polynomials:
            expanded = sympy.expand(polynomial)
            assert expanded != 0
            monomials = sympy.Poly(expanded, e, m).monoms()
            assert bounds.parity is None or {i % 2 for i, _ in monomials} == {bounds.parity}
            assert bounds.least_s <= min(j for _, j in monomials)


def test_dadd_residues_fixtures():
    assert verify_dadd_residues(1, 3, Fraction(5, 2)) == 0
    assert verify_dadd_residues(2, 1, Fraction(17, 8)) == 0
    assert verify_dadd_residues(1, 0, Fraction(9, 4)) == 0
    rng = np.random.Generator(np.random.PCG64(151))
    for _ in range(50):
        assert verify_dadd_residues(*random_certificate_point(rng)) == 0
    with pytest.raises(SingularPointError):
        verify_dadd_residues(1, 0, 1)  # i is a double pole
    with pytest.raises(ParameterError):
        verify_dadd_residues(1, 1, 1)  # 4*d*f - e^2 = 3 is not a rational square
    with pytest.raises(TypeError):
        verify_dadd_residues(1, 3, 2.5)


def test_dadd_residues_catch_a_changed_formula(monkeypatch):
    # The paper's form, undone by one sign, and core's form plus d^2.
    dadd_over_pi = core._dadd_over_pi
    monkeypatch.setattr(core, "_dadd_over_pi", lambda d, e, f, sqrt: (
        dadd_over_pi(d, e, f, sqrt)[0] + d * d, dadd_over_pi(d, e, f, sqrt)[1]))
    assert verify_dadd_residues(1, 3, Fraction(5, 2)) != 0
    monkeypatch.setattr(core, "_dadd_over_pi", lambda d, e, f, sqrt: (
        (d - f) * (4 * d * f - e * e) - (-2 * d * f + e * e + 2 * f * f) * sqrt(4 * d * f - e * e),
        ((d - f) ** 2 + e * e) * (4 * d * f - e * e)))
    assert verify_dadd_residues(1, 3, Fraction(5, 2)) != 0


def _grid(*ranges):
    """The open grid the suites build: one array per coordinate, shaped to broadcast."""
    return suites._product(ranges)


def _points(*arrays):
    """The arrays broadcast together and ravelled: one element per grid point, in
    itertools.product order."""
    return tuple(v.ravel() for v in np.broadcast_arrays(*arrays))


def _square(d_range, e_range, m_range):
    """Integer points (4d^2, 4de, e^2 + m^2) on the open grid, as the ODE suite builds them."""
    d, e, m = _grid(d_range, e_range, m_range)
    return 4 * d * d, 4 * d * e, e * e + m * m


def _small_grids():
    """(scalar check, core, grid) for each identity: grids with e = 0 and d beyond 1."""
    square = _square(range(1, 3), range(3), range(5, 7))
    return ((verify_telescoping, certificate.residual_telescoping,
             _grid(range(1, 3), range(3), range(3, 5), range(3))),
            (verify_tail_limit, certificate.residual_tail_limit,
             _grid(range(1, 3), range(3), range(3, 5))),
            (verify_ode_dadd, certificate.residual_ode_dadd, square),
            (verify_dadd_residues, certificate.residual_dadd_residues, square),
            (verify_g_factorization, certificate.residual_g_factorization, square))


def _grid_matches_scalar(verify, core_check, args):
    """The core's num/den at every index equals the scalar check at that integer
    point; returns how many of them are nonzero."""
    num, den, *points = _points(*core_check(*args), *args)
    assert len(num) == len(den) == len(points[0]) > 1
    nonzero = 0
    for k in range(len(num)):
        scalar = verify(*(v[k] for v in points))
        assert Fraction(num[k], den[k]) == scalar
        nonzero += scalar != 0
    return nonzero


def test_grid_cores_match_the_scalar_checks(monkeypatch):
    # The suites run each identity once on a whole grid; the same core at one
    # integer point is the scalar check, so the two must agree point by point,
    # on the shipped data and under mutations that make the residuals nonzero.
    grids = _small_grids()
    assert [_grid_matches_scalar(*grid) for grid in grids] == [0, 0, 0, 0, 0]
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**5)
    assert [_grid_matches_scalar(*grid) for grid in grids[:2]] == [36 - 12, 12]  # x = 0 vanishes
    dadd_over_pi = core._dadd_over_pi
    monkeypatch.setattr(core, "_dadd_over_pi", lambda d, e, f, sqrt: (
        dadd_over_pi(d, e, f, sqrt)[0] + d * d, dadd_over_pi(d, e, f, sqrt)[1]))
    # The G factorization reads core._g1, which this change keeps.
    assert [_grid_matches_scalar(*grid) for grid in grids[2:]] == [12, 12, 0]
    monkeypatch.setattr(core, "_dadd_over_pi", dadd_over_pi)
    _change(monkeypatch, "_g1", lambda g1_r, d, e, f, sqrt: (g1_r[0] + d, g1_r[1]))
    assert _grid_matches_scalar(*grids[4]) == 12  # m*d*G2, and G2 > 0 off d = f, e = 0


def test_grid_cores_check_every_point():
    # The domain and the singular set are checked elementwise: one bad point
    # in a grid raises the scalar check's exception.
    d, e, f = _grid(range(1, 2), range(3), range(1, 3))  # e = 2, f = 1: 4*d*f - e^2 = 0
    for core_check, args in ((certificate.residual_telescoping, (d, e, f, e)),
                             (certificate.residual_tail_limit, (d, e, f)),
                             (certificate.residual_ode_dadd, (d, e, f)),
                             (certificate.residual_dadd_residues, (d, e, f)),
                             (certificate.residual_g_factorization, (d, e, f))):
        with pytest.raises(ParameterError, match=r"\(1, 2, 1\)"):
            core_check(*args)
    with pytest.raises(ParameterError):  # d = -1
        certificate.residual_tail_limit(*_grid(range(1, -2, -2), range(1), range(1, 2)))
    # (4, 0, 4) is the square-grid point d = 1, e = 0, m = 2d: d = f, e = 0
    singular = _square(range(1, 2), range(2), range(2, 3))
    assert tuple(v[0] for v in _points(*singular)) == (4, 0, 4)
    for core_check in (certificate.residual_ode_dadd, certificate.residual_dadd_residues):
        with pytest.raises(SingularPointError):
            core_check(*singular)
    for core_check in (certificate.residual_ode_dadd, certificate.residual_dadd_residues,
                       certificate.residual_g_factorization):
        with pytest.raises(ParameterError, match="11 is not the square"):  # 16, then 11
            core_check(*_grid(range(1, 2), range(2, 4), range(5, 6)))


def test_grid_runner_refuses_inexact_residuals(monkeypatch):
    # Through the tracker, the jets and the runner's own check of every part.
    shipped = certificate.operator_coefficients
    monkeypatch.setattr(certificate, "operator_coefficients",
                        lambda d, e, f: (*shipped(d, e, f)[:3], shipped(d, e, f)[3] + 0.5))
    square = _square(range(1, 2), range(3), range(3, 5))
    for check, D, args in ((certificate.residual_telescoping, 1,
                            _grid(range(1, 2), range(3), range(9, 11), range(3))),
                           (certificate.residual_ode_dadd, 4, square)):
        with pytest.raises(TypeError):
            suites._exact_zeros(check, "(d, e, f)", D, args)
    with pytest.raises(TypeError):
        ode_suite()
    monkeypatch.undo()
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + 0.5 * x)
    with pytest.raises(TypeError):
        certificate_suite()
    with pytest.raises(TypeError):
        suites._exact_zeros(certificate.residual_telescoping, "(d, e, f, x)", 1,
                            _grid(range(1, 2), range(3), range(9, 11), range(3)))


def test_grid_runner_builds_no_fraction_when_every_residual_vanishes(monkeypatch):
    d = _grid(range(1, 3), range(3), range(5, 7))[0]
    square = _square(range(1, 3), range(3), range(5, 7))
    grids = ((1, certificate.residual_telescoping, _grid(range(1, 2), range(3), range(9, 11),
                                                         range(4))),
             (1, certificate.residual_tail_limit, _grid(range(1, 2), range(3), range(9, 11))),
             (4 * d, certificate.residual_ode_dadd, square),
             (4 * d, certificate.residual_dadd_residues, square))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    tallies = [suites._exact_zeros(check, "(d, e, f)", D, args) for D, check, args in grids]
    monkeypatch.undo()
    assert built == []
    assert tallies == [(24, 0, ""), (6, 0, ""), (12, 0, ""), (12, 0, "")]


def test_exact_suites_build_a_few_jets(monkeypatch):
    # Each identity runs once over its whole grid, so the jets built do not
    # grow with the grid: one per point built about 35 000.
    built = []
    make, init = jets.Jet._make.__func__, jets.Jet.__init__
    monkeypatch.setattr(jets.Jet, "_make", classmethod(
        lambda cls, *args: built.append(1) or make(cls, *args)))
    monkeypatch.setattr(jets.Jet, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert all(outcome.passed for outcome in certificate_suite() + ode_suite())
    assert 0 < len(built) <= 300


def _columns(*ranges):
    """The product grid materialised: one flat column per coordinate, in
    itertools.product order."""
    return tuple(np.array(column, dtype=object) for column in zip(*itertools.product(*ranges)))


def _layouts():
    """(core, names, (D, open grid), (D, flat columns)) for each identity, on grids
    with e = 0 and d in 1..2, as a residual that is not homogeneous needs."""
    telescoping, tail, square = ((range(1, 3), range(3), range(3, 5), range(3)),
                                 (range(1, 3), range(3), range(3, 5)),
                                 (range(1, 3), range(3), range(5, 7)))
    d, e, m = _columns(*square)
    flat_square = (4 * d, (4 * d * d, 4 * d * e, e * e + m * m))
    open_square = (4 * _grid(*square)[0], _square(*square))
    return ((certificate.residual_telescoping, "(d, e, f, x)",
             (1, _grid(*telescoping)), (1, _columns(*telescoping))),
            (certificate.residual_tail_limit, "(d, e, f)", (1, _grid(*tail)), (1, _columns(*tail))),
            (certificate.residual_ode_dadd, "(d, e, f)", open_square, flat_square),
            (certificate.residual_dadd_residues, "(d, e, f)", open_square, flat_square))


def _tallies_on_both_layouts():
    """Each core's num and den on the open grid, broadcast and ravelled, equal to
    those on the flat columns element by element; returns the runner's tallies,
    which must not depend on the layout either."""
    tallies = []
    for core_check, names, (D, grid), (flat_D, columns) in _layouts():
        on_open, on_columns = _points(*core_check(*grid), *grid)[:2], core_check(*columns)
        for a, b in zip(on_open, on_columns):
            assert a.shape == b.shape == columns[0].shape
            assert all(type(v) is int for v in a) and list(a) == list(b)
        tally = suites._exact_zeros(core_check, names, D, grid)
        assert tally == suites._exact_zeros(core_check, names, flat_D, columns)
        tallies.append(tally)
    return tallies


def test_open_grids_match_flat_columns(monkeypatch):
    # The suites run each core on an open grid, where every subexpression spans
    # only its own coordinates; the result, broadcast, is the one the fully
    # materialised grid gives, and so are the counts and the first witness.
    assert _tallies_on_both_layouts() == [(36, 0, ""), (12, 0, ""), (12, 0, ""), (12, 0, "")]
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**5)
    telescoping, tail, *square = _tallies_on_both_layouts()
    assert telescoping[:2] == (36, 36 - 12) and tail[:2] == (12, 12)  # x = 0 vanishes
    assert telescoping[2] == "; first nonzero at (d, e, f, x) = (1, 0, 3, 1)"
    assert tail[2] == "; first nonzero at (d, e, f) = (1, 0, 3)"
    assert square == [(12, 0, ""), (12, 0, "")]


def test_operator_runs_on_the_e_f_plane_only(monkeypatch):
    # On the telescoping grid d = 1, 7 values of e and f, 11 of x, the operator's
    # coefficients depend on (d, e, f) alone, so on the open grid every array it
    # receives or returns has at most 7*7 = 49 elements, not 539. Flat columns
    # would fail here, not only in a timing.
    sizes = []
    shipped = certificate.operator_coefficients

    def recording(d, e, f):
        result = shipped(d, e, f)
        sizes.extend(v.size for v in (d, e, f, *result) if type(v) is np.ndarray)
        return result

    monkeypatch.setattr(certificate, "operator_coefficients", recording)
    outcomes = certificate_suite()
    assert all(outcome.passed for outcome in outcomes)
    assert "(539 points)" in outcomes[1].detail
    assert max(sizes) == 49


def test_grid_runner_counts_and_checks_every_point(monkeypatch):
    # A residual that does not depend on a coordinate spans one element on its
    # axis; the runner still counts it, and names its witness, at every point of
    # the grid. An inexact denominator is refused like an inexact numerator.
    grid = _grid(range(1, 3), range(3), range(3, 5), range(4))

    def tail(d, e, f, x):
        return certificate.residual_tail_limit(d, e, f)

    assert suites._exact_zeros(tail, "(d, e, f, x)", 1, grid) == (48, 0, "")
    with pytest.raises(TypeError):
        suites._exact_zeros(lambda *args: (tail(*args)[0], tail(*args)[1] * 1.0),
                            "(d, e, f, x)", 1, grid)
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x**5)
    assert suites._exact_zeros(tail, "(d, e, f, x)", 1, grid) == (
        48, 48, "; first nonzero at (d, e, f, x) = (1, 0, 3, 0)")
