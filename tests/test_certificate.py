"""Certificate verification: exact residuals, polynomial proofs, checksums, tail behavior."""

import itertools
import json
import math
import operator
import re
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
from cauchykl.suites import CHECKSUMS, certificate_suite, ode_suite
from helpers import (random_certificate_point, random_tame_point, rational_sqrt,
                     reference_certificate_polynomial, reference_leading_coefficient,
                     reference_operator_coefficients)

import test_core

ONE = Fraction(1)


def test_rational_sqrt():
    # jets._root takes n/den as two ints and returns its root p/q as two ints, unreduced
    assert Fraction(*jets._root(9, 4)) == Fraction(3, 2)
    assert Fraction(*jets._root(0, 1)) == 0
    with pytest.raises(ParameterError):
        jets._root(2, 1)
    with pytest.raises(ParameterError):
        jets._root(-1, 1)


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
    # The root m of the guard at a rational point, which the residue and factorization
    # checks take there, has a denominator dividing D, the lcm of the d, e, f
    # denominators: (D*m)^2 = 4*(D*d)*(D*f) - (D*e)^2 is an integer square.
    rng = np.random.Generator(np.random.PCG64(109))
    for _ in range(200):
        d, e, f = random_certificate_point(rng)
        D = jets._clear((d, e, f))[1]
        m = certificate._square_root(4 * d * f - e * e)
        assert m > 0 and m * m == 4 * d * f - e * e and (D * m).denominator == 1


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
    # Each scalar check runs its body at the point itself, here one with denominator
    # D = 2, and must equal the same formulas run in Fractions there. Under
    # perturbations that keep each residual homogeneous of its degree and nonzero, it
    # is also its value at the integer point D*(d, e, f) over D**degree.
    shipped_p, shipped_dadd = certificate.certificate_polynomial, core._dadd_over_pi

    def perturbed_dadd(d, e, f, sqrt):
        num, den = shipped_dadd(d, e, f, sqrt)
        return num + d, den

    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped_p(d, e, f, x) + d**5 * x * x * x * x * x)
    monkeypatch.setattr(core, "_dadd_over_pi", perturbed_dadd)
    d, e, f, x = 1, 3, Fraction(5, 2), Fraction(2, 5)
    Jet = jets.Jet
    n, den = certificate.apply_operator(d, e, f, phi_partial_d(Jet.variable(d, 3), e, f,
                                                               Jet.constant(x, 3)))
    psi_jet = psi(d, e, f, Jet.variable(x, 1))
    telescoping = n / den - Fraction(psi_jet.derivative_numerator(1), psi_jet.denominator)
    num, den = core._dadd_over_pi(Jet.variable(d, 3), e, f, Jet.sqrt)
    n, den = certificate.apply_operator(d, e, f, num / den)
    (a, b), (c, dd) = certificate._residue_sides(d, e, f)
    p = certificate.certificate_polynomial(d, e, f, Jet.variable(0, 5))
    tail = -2 * p.coefficients[5] / d**3 - psi_limit(d, e, f)
    direct = (telescoping, n / den, a / b - c / dd, tail)
    assert all(type(r) is Fraction and r != 0 for r in direct)
    assert (verify_telescoping(d, e, f, x), verify_ode_dadd(d, e, f),
            verify_dadd_residues(d, e, f), verify_tail_limit(d, e, f)) == direct
    scaled = (verify_telescoping(2 * d, 2 * e, 2 * f, x), verify_ode_dadd(2 * d, 2 * e, 2 * f),
              verify_dadd_residues(2 * d, 2 * e, 2 * f), verify_tail_limit(2 * d, 2 * e, 2 * f))
    assert tuple(r / Fraction(2)**k for r, k in zip(scaled, (2, 2, -1, 2))) == direct


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
    assert "is not the square of a monomial" in capsys.readouterr().err
    # 4 times the guard keeps every domain check and every square, but doubles
    # the root in dA/dd: the ODE proof finds nonzero residuals.
    monkeypatch.undo()
    _change(monkeypatch, "_guard", lambda guard, a, b, c: 4 * guard)
    outcome = ode_suite()[0]
    assert not outcome.passed
    assert verify_ode_dadd(*_ode_witnesses(outcome.detail)[0]) != 0


def test_changed_quadratic_fails_the_float_call_and_the_telescoping_proof(monkeypatch):
    # One more a*x^2 in core._quadratic moves q(x) and x^2 + 1 alike: the float
    # call, primitive B against its derivative, and the telescoping proof, which
    # runs the same changed formula on polynomials.
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
    # and factorization proofs fail, each at a point its scalar check
    # reproduces, and its ODE proof does not.
    _change(monkeypatch, "_g3", lambda g3, d, e, f: g3 + d * d)
    with pytest.raises(AssertionError):
        test_core.test_primitive_b_tail_difference()
    assert verify_g_factorization(1, 3, Fraction(5, 2)) == -1
    outcome = ode_suite()[0]
    assert not outcome.passed and outcome.worst == 2
    assert outcome.detail.startswith("L[dA/dd / pi] for core's dA/dd / pi on a d-jet: proved in")
    witnesses = _proof_witnesses(outcome.detail)
    assert witnesses["ode"] is None
    assert verify_dadd_residues(*witnesses["residues"]) != 0
    assert verify_g_factorization(*witnesses["factorization"]) != 0


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
    # The (d, e, m) proofs run at (4d^2, 4de, e^2 + m^2), and every point with square
    # discriminant is a multiple of one of those; that rests on these degrees,
    # pinned here at random points and scalings.
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
                        lambda d, e, f, x: shipped(d, e, f, x) + x * x * x * x * x)
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
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
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
    assert "; first nonzero at (d, e, f, x) = (" in telescoping.detail
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
    assert _witness(telescoping.detail) == (1, 0, 1, 0)  # the first small point
    assert verify_telescoping(1, 0, 1, 0) != 0


@pytest.mark.parametrize("name", ["phi_partial_d", "psi"])
def test_grid_blind_bump_fails_the_certificate_suite(monkeypatch, name):
    # A term that vanishes with its x-derivative at every x in 0..10 passed the
    # telescoping grid once sized from hand-written forms of phi_partial_d and psi;
    # the polynomial proof runs the shipped ones and names a point beyond x = 10.
    shipped = getattr(certificate, name)
    monkeypatch.setattr(certificate, name, lambda d, e, f, x: shipped(d, e, f, x) + math.prod(
        (x - k) * (x - k) for k in range(11)))
    assert all(verify_telescoping(1, 0, 1, x) == 0 for x in range(11))
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and "disproved in Z[d, e, f, x]" in telescoping.detail
    point = _witness(telescoping.detail)
    assert point == (1, 0, 1, 11) and verify_telescoping(*point) != 0


def test_e_f_bump_off_the_staircase_fails_the_certificate_suite(monkeypatch):
    # A term in phi_partial_d that vanishes on the 28 (e, f) pairs of the staircase
    # e + (f - 100) <= 6 that the telescoping grid once had, though not on the
    # other 21 pairs of the 7 x 7 box: the polynomial proof needs no pairs and
    # names the first small point.
    shipped = certificate.phi_partial_d
    monkeypatch.setattr(certificate, "phi_partial_d", lambda d, e, f, x: shipped(d, e, f, x)
                        + math.prod(e + f - 100 - i for i in range(7)))
    staircase = [(e, 100 + j) for e in range(7) for j in range(7 - e)]
    assert len(staircase) == 28 and all(
        math.prod(e + f - 100 - i for i in range(7)) == 0 for e, f in staircase)
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and "disproved in Z[d, e, f, x]" in telescoping.detail
    point = _witness(telescoping.detail)
    assert point == (1, 0, 1, 0) and verify_telescoping(*point) != 0


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
    # At x = 0 every d-derivative of dphi/dd vanishes, so the first nonzero has
    # x = 1. The ODE's polynomial proof names the integer point of the first small
    # (d, e, m) = (1, 0, 1) where its cross difference is nonzero.
    assert _witness(telescoping.detail) == (1, 0, 1, 1)
    assert verify_telescoping(1, 0, 1, 1) != 0
    assert _proof_witnesses(ode.detail) == {"ode": (4, 0, 1), "residues": None,
                                            "factorization": None}
    assert verify_ode_dadd(4, 0, 1) != 0


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
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
    assert verify_tail_limit(1, 0, 100) == Fraction(-2)
    tail = certificate_suite()[2]
    assert not tail.passed and "disproved in Z[d, e, f]" in tail.detail
    assert _witness(tail.detail) == (1, 0, 1) and verify_tail_limit(1, 0, 1) == -2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the psi tail limit FOUND in CHANGES.md (ROADMAP Blocking): the check compares psi_limit "
    "with P's x^5 coefficient and never reads psi; at (1, 1, 1) this psi tends to 104 at "
    "x = +-1e6, while psi_limit is 52"))
def test_doubled_psi_and_operator_fail_the_tail_limit(monkeypatch):
    # 2*psi and 2*L still telescope, as L is linear, and only the transcription
    # checksums see the change, though psi's tails tend to twice psi_limit.
    shipped_psi, shipped_operator = certificate.psi, certificate.operator_coefficients
    monkeypatch.setattr(certificate, "psi", lambda d, e, f, x: 2 * shipped_psi(d, e, f, x))
    monkeypatch.setattr(certificate, "operator_coefficients",
                        lambda d, e, f: tuple(2 * c for c in shipped_operator(d, e, f)))
    assert [outcome.passed for outcome in certificate_suite()] == [False, True, False]


def test_polynomial_proofs_name_their_ring_and_their_bound():
    # Every identity is proved as a polynomial identity: the detail names its ring,
    # the power of two its last variable takes and the size of the denominators,
    # and no grid, degree bound or off-grid point.
    telescoping, tail = (outcome.detail for outcome in certificate_suite()[1:])
    assert telescoping.startswith(
        "L[dphi/dd] - dpsi/dx: proved in Z[d, e, f, x], as a*d - c*b is the zero polynomial "
        "for its sides a/b and c/d: its coefficients are below 2^24 in size and it vanishes "
        "at x = 2^25, while b, of 75 terms, and d, of 84 terms, are not zero")
    assert tail.startswith("-2*p5/d^3 - psi_limit, p5 the x^5 coefficient of P: proved in "
                           "Z[d, e, f], as a*d - c*b is the zero polynomial")
    assert tail.endswith("; dpsi/dx has x-degree -2 at infinity, so psi has x-degree <= 0 "
                         "there, psi(1/t) is regular at t = 0 and both tails tend to -2*p5/d^3")
    detail = ode_suite()[0].detail
    ring = ("proved in Z[d, e, m] at (d, e, f) = (4d^2, 4de, e^2 + m^2), where "
            "4*d*f - e^2 = (4dm)^2, as a*d - c*b is the zero polynomial")
    assert [part.split(", are not zero")[0].split("while ")[1]
            for part in detail.split(ring)[1:]] == [
        "b, of 25 terms, and d, of 1 term", "b, of 15 terms, and d, of 4 terms",
        "b, of 1 term, and d, of 1 term"]
    details = telescoping + tail + detail
    assert not any(word in details for word in ("grid", "exact-zero", "homogeneous"))


def _ode_witnesses(detail):
    """Each first nonzero point the ODE check's detail names, one per failing proof."""
    return [tuple(Fraction(v) for v in part.split(")")[0].split(", "))
            for part in detail.split("first nonzero at (d, e, f) = (")[1:]]


# The start of each polynomial proof's detail in the ode check.
_PROOFS = {"ode": "L[dA/dd / pi] for core's dA/dd / pi", "residues": "Re(2i*(Res_i + Res_rho))",
           "factorization": "m*(G1*G2 - (d-f)^2 - e^2)"}


def _proof_witnesses(detail):
    """The first nonzero point each (d, e, m) proof of the ode check names, or None."""
    starts = sorted((detail.index(text), name) for name, text in _PROOFS.items())
    ends = [start for start, _ in starts[1:]] + [len(detail)]
    return {name: (_ode_witnesses(detail[start:end]) or [None])[0]
            for (start, name), end in zip(starts, ends)}


def _small_regular_point(point) -> bool:
    """Whether (d, e, f) is (4d^2, 4de, e^2 + m^2) for ints d, m >= 1, e >= 0, all at most
    10, off the singular set m = 2d with e = 0."""
    return any(tuple(point) == (4 * d * d, 4 * d * e, e * e + m * m) and (e, m) != (0, 2 * d)
               for d in range(1, 11) for e in range(11) for m in range(1, 11))


# Changes to dA/dd's (numerator, denominator): an odd term in e and a term without m.
_DADD_CHANGES = {"numerator + e": lambda d, e: (e, 0), "denominator + d^2": lambda d, e: (0, d * d)}


def _change_dadd(monkeypatch, change):
    _change(monkeypatch, "_dadd_over_pi", lambda num_den, d, e, f, sqrt: tuple(
        a + b for a, b in zip(num_den, _DADD_CHANGES[change](d, e))))


@pytest.mark.parametrize("change", sorted(_DADD_CHANGES, reverse=True))
def test_changed_dadd_widens_its_grids(monkeypatch, change):
    # Once the (d, e, m) grids, sized by parity and powers of m that such changes
    # break; now the polynomial proofs need no grid, and both the ODE and the
    # residue proofs fail at small points the scalar checks reproduce, while the
    # factorization, which reads no dA/dd, still holds.
    _change_dadd(monkeypatch, change)
    outcome = ode_suite()[0]
    assert not outcome.passed and outcome.worst == 2
    witnesses = _proof_witnesses(outcome.detail)
    assert witnesses["factorization"] is None
    assert _small_regular_point(witnesses["ode"]) and _small_regular_point(witnesses["residues"])
    assert verify_ode_dadd(*witnesses["ode"]) != 0
    assert verify_dadd_residues(*witnesses["residues"]) != 0


def _shipped(name, change):
    """(module, name, changed function) for a rebinding of core's or certificate's `name`."""
    module = core if hasattr(core, name) else certificate
    shipped = getattr(module, name)
    return module, name, lambda *args: change(shipped(*args), *args)


# The mutations each polynomial proof must catch: (module function, change, the
# proofs that must fail). `_psi_limit_parts` is the tail limit's.
_POLYNOMIAL_MUTATIONS = {
    "c0 + 1": ("operator_coefficients", lambda c, d, e, f: (*c[:3], c[3] + 1), {"ode"}),
    "dA/dd numerator + d^2": ("_dadd_over_pi", lambda num_den, d, e, f, sqrt: (
        num_den[0] + d * d, num_den[1]), {"ode", "residues"}),
    "G3 + d*e": ("_g3", lambda g3, d, e, f: g3 + d * e, {"residues", "factorization"}),
    "limit + d^2": ("_psi_limit_parts", lambda parts, d, e, f: (parts[0] + d * d, parts[1]),
                    {"tail"}),
    "m*G3 + f - 1": ("_g_sides", lambda sides, d, e, f: (sides[0], (sides[1][0] + f - 1, 1)),
                     {"factorization"}),
}
_SCALAR_CHECKS = {"ode": verify_ode_dadd, "residues": verify_dadd_residues,
                  "factorization": verify_g_factorization, "tail": verify_tail_limit}


@pytest.mark.parametrize("mutation", sorted(_POLYNOMIAL_MUTATIONS))
def test_polynomial_proofs_fail_under_mutation(monkeypatch, mutation):
    # Each mutation fails exactly the polynomial proofs that run it, with no grid
    # and no off-grid point; each names a small integer point, the first where the
    # matching public scalar check returns a nonzero residual: every point before
    # it the check refuses, or gives 0 at.
    name, change, failing = _POLYNOMIAL_MUTATIONS[mutation]
    monkeypatch.setattr(*_shipped(name, change))
    tail = certificate_suite()[2]
    ode = ode_suite()[0]
    witnesses = {**_proof_witnesses(ode.detail),
                 "tail": _witness(tail.detail) if "first nonzero" in tail.detail else None}
    assert {proof for proof, point in witnesses.items() if point is not None} == failing
    assert (tail.passed, ode.passed) == ("tail" not in failing, not failing & set(_PROOFS))
    for proof in failing:
        point, check = witnesses[proof], _SCALAR_CHECKS[proof]
        assert all(type(v) is Fraction and v.denominator == 1 for v in point)
        points = (_small_points("d e f", 8) if proof == "tail"
                  else [suites._scaled_point(*p) for p in _SMALL_D_E_M])
        assert all(_refused_or_zero(check, p) for p in points[:points.index(point)])
        assert check(*point) != 0


def _refused_or_zero(check, point) -> bool:
    """Whether the scalar check refuses the point or gives 0 there."""
    try:
        return check(*point) == 0
    except (ParameterError, SingularPointError, ZeroDivisionError):
        return True


def test_factorization_witness_is_where_its_public_check_is_nonzero(monkeypatch):
    # verify_g_factorization accepts the singular set d = f, e = 0, where its sides
    # are 0: f - 1 on the right numerator is first nonzero at (d, e, m) = (1, 0, 2),
    # whose point (4, 0, 4) lies on that set, and the search names it there.
    monkeypatch.setattr(*_shipped(*_POLYNOMIAL_MUTATIONS["m*G3 + f - 1"][:2]))
    assert verify_g_factorization(4, 0, 1) == 0 and verify_g_factorization(4, 0, 4) == -3
    assert _proof_witnesses(ode_suite()[0].detail) == {"ode": None, "residues": None,
                                                      "factorization": (4, 0, 4)}


def test_higher_degree_term_in_p_grows_the_grid(monkeypatch):
    # psi's x-degree at infinity is read from dpsi/dx on the shipped psi's x-jet,
    # the telescoping proof's right side: an x^6 term in P gives psi x-degree 1, so
    # the tails diverge and the tail check fails by that order, while the x^5
    # coefficient, and so the tail limit's own identity, does not move.
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x * x)
    telescoping, tail = certificate_suite()[1:]
    assert not telescoping.passed
    assert verify_telescoping(*_witness(telescoping.detail)) != 0
    assert not tail.passed and tail.worst == 1 and "proved in Z[d, e, f]" in tail.detail
    assert tail.detail.endswith("; dpsi/dx has x-degree 0 at infinity, so psi has x-degree 1 "
                                "there, psi(1/t) has a pole at t = 0 and the tails diverge")

    # e^11 in P is not homogeneous and has no x: the telescoping proof fails at a
    # point its scalar check reproduces, and psi keeps its x-degree and tail limit.
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + e**11)
    telescoping, tail = certificate_suite()[1:]
    assert not telescoping.passed and tail.passed
    assert verify_telescoping(*_witness(telescoping.detail)) != 0


def test_polynomial_proof_refuses_a_zero_denominator(monkeypatch):
    # A dA/dd over the zero polynomial makes the residue gap 0/0: no identity is
    # proved, and no point is named, as the residual is defined nowhere.
    _change(monkeypatch, "_dadd_over_pi", lambda num_den, d, e, f, sqrt: (num_den[0], 0))
    sides = suites._sides(certificate._residue_sides, "d e m")
    assert suites._prove_polynomial(verify_dadd_residues, sides, "gap") == (
        1, "gap: disproved in Z[d, e, m] at (d, e, f) = (4d^2, 4de, e^2 + m^2), where "
           "4*d*f - e^2 = (4dm)^2, as its denominator is the zero polynomial")


def _small_points(coordinates, total):
    """Every point of ints d, f or m >= 1 and e, x >= 0 in `coordinates` whose sum is at
    most `total`, by the sum and then lexicographically."""
    n = len(coordinates.split())
    return sorted((p for p in itertools.product(range(total + 1), repeat=n)
                   if sum(p) <= total and p[0] >= 1 and p[2] >= 1), key=lambda p: (sum(p), p))


# Small (d, e, m) by their sum and then lexicographically: the first ones the
# (d, e, m) proofs' witness search tries.
_SMALL_D_E_M = _small_points("d e m", 8)


def test_witness_points_are_the_scalar_checks_own_integer_points():
    # `_points` enumerates small points by their sum and then lexicographically, each
    # as the int arguments of a scalar check: (d, e, f) and (d, e, f, x) as they are,
    # and (d, e, m) as (4d^2, 4de, e^2 + m^2), whose guard is (4dm)^2. It leaves no
    # point out: the check itself refuses one outside its domain.
    points = list(itertools.islice(suites._points("d e m"), len(_SMALL_D_E_M)))
    assert points == [(4 * d * d, 4 * d * e, e * e + m * m) for d, e, m in _SMALL_D_E_M]
    for coordinates in ("d e f", "d e f x"):
        small = _small_points(coordinates, 8)
        assert list(itertools.islice(suites._points(coordinates), len(small))) == small

    def body(d, e, f):
        return (e, 1), (0, 1)

    def check(*point):
        return certificate._difference(body(*point))

    assert suites._prove_polynomial(check, suites._sides(body, "d e m"), "e")[1].endswith(
        "; first nonzero at (d, e, f) = (4, 4, 2)")  # (d, e, m) = (1, 1, 1)
    assert verify_ode_dadd(4, 4, 2) == verify_dadd_residues(4, 4, 2) == 0
    # The witness is the first point where the check is nonzero: a point it refuses
    # (ParameterError, SingularPointError) or where it divides by zero is skipped,
    # and a TypeError propagates.
    refusals = {(1, 0, 1): ParameterError, (1, 0, 2): SingularPointError,
                (1, 1, 1): ZeroDivisionError}

    def refusing(*point):
        if point in refusals:
            raise refusals[point]
        return Fraction(1)

    sides = suites._sides(body, "d e f")
    assert suites._prove_polynomial(refusing, sides, "e")[1].endswith(
        "; first nonzero at (d, e, f) = (2, 0, 1)")
    refusals[2, 0, 1] = TypeError
    with pytest.raises(TypeError):
        suites._prove_polynomial(refusing, sides, "e")


def test_witness_search_skips_a_point_where_the_body_divides_by_zero(monkeypatch, capsys):
    # 1/x on the d-jet's constant x-jet and on psi's x-jet divides by a zero head at
    # x = 0, the first small point, though not on polynomials: the witness search
    # runs the body there, skips that point and names the next one, and `cauchykl
    # verify` prints a failing check, not a traceback.
    shipped = certificate.phi_partial_d
    monkeypatch.setattr(certificate, "phi_partial_d",
                        lambda d, e, f, x: shipped(d, e, f, x) + 1 / x)
    first, second = itertools.islice(suites._points("d e f x"), 2)
    with pytest.raises(ZeroDivisionError, match="zero head"):
        certificate._telescoping_sides(*first)
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and _witness(telescoping.detail) == second == (1, 0, 1, 1)
    assert verify_telescoping(*second) != 0
    assert main(["verify", "--suite", "certificate"]) == 1
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert err == "" and records[1]["check"] == "telescoping residual"
    assert records[1]["status"] == "fail"
    assert records[1]["detail"].endswith("; first nonzero at (d, e, f, x) = (1, 0, 1, 1)")


def test_a_disproof_with_no_scalar_witness_stops_at_the_cap(monkeypatch, capsys):
    # A factorization body whose polynomial sides differ while its int sides agree,
    # a defect that lives only in the polynomial ring: no small point is nonzero, so
    # the witness search stops after suites._WITNESS_POINTS points, and `cauchykl
    # verify` prints a failing check instead of searching forever. The cap lies far
    # beyond the furthest witness a test names, (1, 0, 1, 11), the 1002nd point.
    assert list(itertools.islice(suites._points("d e f x"), 1002))[-1] == (1, 0, 1, 11)
    assert suites._WITNESS_POINTS >= 5 * 1002
    shipped = certificate._g_sides

    def body(d, e, f):
        (a, b), (c, d_) = shipped(d, e, f)
        return (a + (d if type(d) is jets._Poly else 0), b), (c, d_)

    calls = []

    def capped(*point):
        calls.append(point)
        if len(calls) > suites._WITNESS_POINTS:
            raise AssertionError("the witness search ran past its cap")
        return verify_g_factorization(*point)

    monkeypatch.setattr(certificate, "_g_sides", body)
    monkeypatch.setattr(certificate, "verify_g_factorization", capped)
    assert main(["verify", "--suite", "ode"]) == 1
    out, err = capsys.readouterr()
    record = json.loads(out.splitlines()[0])
    assert err == "" and record["check"] == "ode residual of dA/dd"
    assert record["status"] == "fail" and len(calls) == suites._WITNESS_POINTS
    assert record["detail"].endswith(
        "m*(G1*G2 - (d-f)^2 - e^2), G1,2 = d + f +/- m: disproved in Z[d, e, m] at (d, e, f) "
        "= (4d^2, 4de, e^2 + m^2), where 4*d*f - e^2 = (4dm)^2, as a*d - c*b is not the zero "
        "polynomial for its sides a/b and c/d; yet no small point disagrees: capped is 0 or "
        f"refuses at the first {suites._WITNESS_POINTS} points, so the polynomial path and "
        "the scalar check disagree")


def test_exact_suites_run_each_body_once_on_polynomials(monkeypatch):
    # Each identity's sides are built once on polynomials, and the telescoping
    # proof shares its sides with psi's x-degree; a passing proof runs no body at
    # an integer point.
    runs = []
    for _, body, _ in _CORES:
        def counted(*point, body=body):
            runs.append((body.__name__, type(point[0]) is jets._Poly))
            return body(*point)
        monkeypatch.setattr(certificate, body.__name__, counted)
    assert all(outcome.passed for outcome in certificate_suite() + ode_suite())
    assert sorted(runs) == sorted((body.__name__, True) for _, body, _ in _CORES)


def _sympy_poly(sympy, polynomial, symbols):
    """A `jets._Poly` as a sympy Poly in `symbols`."""
    return sympy.Poly.from_dict(
        {tuple(jets._exponents(k, len(symbols))): c for k, c in polynomial.terms.items()},
        *symbols)


def test_telescoping_sides_match_sympy():
    # The sides the telescoping proof compares, expanded by sympy: the cross
    # difference a*d - c*b is 0 and b, d are not, so the identity sympy sees is the
    # one the Kronecker substitution proved.
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("d e f x")
    (a, b), (c, d) = ((_sympy_poly(sympy, part, symbols) for part in side)
                      for side in suites._sides(certificate._telescoping_sides, "d e f x"))
    assert (a * d - c * b).is_zero and not b.is_zero and not d.is_zero


def test_kernels_are_the_expanded_polynomials(monkeypatch):
    # Shared powers and Horner's rule change how c3..c0, p5 and P are
    # evaluated, not what they are: each minus its expanded form is 0 in
    # sympy, and the polynomial proofs of the telescoping relation, the tail
    # limit and the ODE give the same details from either form of c3..c0 and
    # p5 (P runs on x-jets, which have no **).
    sympy = pytest.importorskip("sympy")
    d, e, f, x = sympy.symbols("d e f x")
    shipped = (*operator_coefficients(d, e, f), certificate._leading_coefficient(d, e, f),
               certificate_polynomial(d, e, f, x))
    expanded = (*reference_operator_coefficients(d, e, f), reference_leading_coefficient(d, e, f),
                reference_certificate_polynomial(d, e, f, x))
    assert all(sympy.expand(a - b) == 0 for a, b in zip(shipped, expanded, strict=True))

    def results():
        return [outcome.detail for outcome in certificate_suite()[1:] + ode_suite()[:1]]
    before = results()
    monkeypatch.setattr(certificate, "operator_coefficients", reference_operator_coefficients)
    monkeypatch.setattr(certificate, "_leading_coefficient",
                        lambda d, e, f, powers=None: reference_leading_coefficient(d, e, f))
    assert results() == before


def _to_sympy(sympy, polynomial, symbols):
    """A `jets._Poly` as a sympy expression in `symbols`."""
    return sum(c * math.prod(v**j for v, j in zip(symbols, jets._exponents(k, len(symbols))))
               for k, c in polynomial.terms.items())


def _random_terms(rng, n):
    """Seeded random terms (coefficient, exponents) in n variables: up to 6 terms of
    degree up to 3 per variable."""
    return [(int(rng.integers(-9, 10)), [int(rng.integers(4)) for _ in range(n)])
            for _ in range(int(rng.integers(1, 7)))]


def _polynomial(terms, variables):
    """The sum of `terms` on `variables`, ints or `jets._Poly`."""
    return sum((c * math.prod(v**j for v, j in zip(variables, exponents))
                for c, exponents in terms), variables[0] * 0)


def _random_poly(rng, variables):
    """A seeded random polynomial: up to 6 terms of degree up to 3 per variable."""
    return _polynomial(_random_terms(rng, len(variables)), variables)


def test_poly_arithmetic_matches_sympy():
    # Seeded sums, differences, products and powers, each expanded by sympy; the
    # last variable at a power of two, evaluated by sympy at int points, and the
    # degree in it; the root of the square of a monomial and the refusal of any
    # other polynomial, naming it; and the refusal of any coefficient that is not
    # an int.
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("d e m")
    variables = jets._Poly.variables("d e m")
    rng = np.random.Generator(np.random.PCG64(163))
    for _ in range(25):
        a, b = _random_poly(rng, variables), _random_poly(rng, variables)
        sa, sb = (sympy.sympify(_to_sympy(sympy, p, symbols)) for p in (a, b))
        c = int(rng.integers(-5, 6))
        for poly, expression in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                                 (c - a * 3, c - sa * 3), (a**3, sa**3), (-b, -sb)):
            assert sympy.expand(_to_sympy(sympy, poly, symbols) - expression) == 0
            assert (poly == 0) == (sympy.expand(expression) == 0)
            point = tuple(int(v) for v in rng.integers(-6, 7, 3))
            bits = int(rng.integers(0, 9))
            assert sympy.sympify(_to_sympy(sympy, poly.at_last(bits), symbols[:2])).subs(
                dict(zip(symbols, point[:2]))) == expression.subs(
                dict(zip(symbols, (*point[:2], 2**bits))))
            degree = sympy.Poly(expression, *symbols).degree(symbols[2]) if poly != 0 else -1
            assert poly.last_degree() == degree
        for key, coefficient in a.terms.items():
            monomial = jets._Poly({key: coefficient}, a.names)
            assert (monomial * monomial).root() == (monomial if coefficient > 0 else -monomial)
    d, e, m = variables
    # Every branch of + - *: the zero polynomial and the int 0 on either side, the
    # ints +-1 and one near 2^70, one-term operands, cancelling products such as
    # (d + e)*(d - e) and sums such as x - x, and a longer right operand; each
    # result as sympy expands it, with no zero coefficient, and no operand's
    # terms changed. A zero addend hands back the other operand itself.
    x = d * d - 3 * e * m + 2
    operands = (jets._Poly({}, d.names), 0, 1, -1, 2**70 + 3, -7 * d * e * e,
                d + e, d - e, x, x * x + m)
    expressions = [sympy.sympify(_to_sympy(sympy, p, symbols) if type(p) is jets._Poly else p)
                   for p in operands]
    before = [dict(p.terms) if type(p) is jets._Poly else p for p in operands]
    for (p, sp), (q, sq) in itertools.product(zip(operands, expressions), repeat=2):
        if type(p) is not jets._Poly and type(q) is not jets._Poly:
            continue
        for op in (operator.add, operator.sub, operator.mul):
            poly = op(p, q)
            assert type(poly) is jets._Poly and poly.names == d.names
            assert 0 not in poly.terms.values()
            assert sympy.expand(_to_sympy(sympy, poly, symbols) - op(sp, sq)) == 0
        assert [dict(p.terms) if type(p) is jets._Poly else p for p in operands] == before
    assert x + 0 is x and 0 + x is x and x - 0 is x and x + operands[0] is x
    assert (16 * d * d * m * m).root() == 4 * d * m
    for square in ((d - e) * (d - e), -(d * d), d * e, 2 * d * d, d * d + 1, d**3):
        with pytest.raises(ParameterError,
                           match=re.escape(f"{square!r} is not the square of a monomial")):
            square.root()
    assert jets._Poly({}, ("d",)).root() == 0
    for bad in (0.5, Fraction(1, 2), np.int64(2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(d, bad)
            with pytest.raises(TypeError):
                op(bad, d)


def _scaled_symbols(sympy):
    """(d, e, m) as positive sympy symbols and the point (4d^2, 4de, e^2 + m^2)."""
    d, e, m = sympy.symbols("d e m", positive=True)
    return (d, e, m), (4 * d * d, 4 * d * e, e * e + m * m)


def _polynomial_body(body):
    """`body`'s sides ((a, b), (c, d)) at (4d^2, 4de, e^2 + m^2) in Z[d, e, m], as
    `_prove_polynomial` proves them."""
    return suites._sides(body, "d e m")


@pytest.mark.parametrize("mutation", [None, "G3 + d*e", "dA/dd numerator + d^2"])
def test_residue_and_factorization_polynomials_match_sympy(monkeypatch, mutation):
    # The same shipped lines on sympy symbols, with the root 4dm of the guard
    # (4dm)^2, expand to the polynomials the proofs find, each side's numerator
    # and denominator alike, whether the identity holds or not.
    sympy = pytest.importorskip("sympy")
    if mutation:
        name, change, _ = _POLYNOMIAL_MUTATIONS[mutation]
        monkeypatch.setattr(*_shipped(name, change))
    symbols, point = _scaled_symbols(sympy)
    d, _, m = symbols
    bodies = (certificate._residue_sides, certificate._g_sides)
    found = [_polynomial_body(body) for body in bodies]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificate, "_square_root", lambda guard: 4 * d * m)
        expected = [body(*point) for body in bodies]
    for sides, expressions in zip(found, expected, strict=True):
        for poly, expression in zip((p for side in sides for p in side),
                                    (x for side in expressions for x in side), strict=True):
            assert sympy.expand(_to_sympy(sympy, poly, symbols) - expression) == 0
    numerators = [a * dd - c * b == 0 for (a, b), (c, dd) in found]
    assert numerators == {None: [True, True], "G3 + d*e": [False, False],
                          "dA/dd numerator + d^2": [False, True]}[mutation]


@pytest.mark.parametrize("mutation", [None, "c0 + 1"])
def test_ode_polynomial_matches_sympy(monkeypatch, mutation):
    # L[dA/dd / pi], by sympy differentiation of core's dA/dd / pi in d, at
    # (4d^2, 4de, e^2 + m^2), equals a/b of the ODE proof's polynomials, whose
    # other side c/d is 0/1.
    sympy = pytest.importorskip("sympy")
    if mutation:
        name, change, _ = _POLYNOMIAL_MUTATIONS[mutation]
        monkeypatch.setattr(*_shipped(name, change))
    symbols, point = _scaled_symbols(sympy)
    dd, ee, ff = sympy.symbols("dd ee ff", positive=True)
    num, den = core._dadd_over_pi(dd, ee, ff, sympy.sqrt)
    y = num / den
    coefficients = certificate.operator_coefficients(dd, ee, ff)
    operator_on_y = sum(c * sympy.diff(y, dd, k) for k, c in zip((3, 2, 1, 0), coefficients))
    expected = operator_on_y.subs(dict(zip((dd, ee, ff), point)))
    (found_num, found_den), (zero, one) = _polynomial_body(certificate._ode_sides)
    assert found_den != 0 and (zero, one) == (0, 1)
    # Cross-multiplied: sympy's num/den over a common denominator against the proof's.
    num, den = sympy.fraction(sympy.together(expected))
    assert sympy.expand(num * _to_sympy(sympy, found_den, symbols)
                        - den * _to_sympy(sympy, found_num, symbols)) == 0
    assert (found_num == 0) == (mutation is None)


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


# (scalar check, unchecked body, ring) for each identity.
_CORES = ((verify_telescoping, certificate._telescoping_sides, "d e f x"),
          (verify_tail_limit, certificate._tail_sides, "d e f"),
          (verify_ode_dadd, certificate._ode_sides, "d e m"),
          (verify_dadd_residues, certificate._residue_sides, "d e m"),
          (verify_g_factorization, certificate._g_sides, "d e m"))
_CORE_NAMES = ("telescoping", "tail", "ode", "residues", "factorization")


def _polynomial_matches_check(check, body, coordinates):
    """The scalar check at each of the first 12 small integer points (`suites._points`)
    that it does not refuse is a/b - c/d of the sides, run once on polynomials and
    evaluated by sympy at the ring's point there, (d, e, m) for (4d^2, 4de, e^2 + m^2);
    returns how many are nonzero. The body is looked up as rebound, if it is."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(coordinates)
    sides = [_sympy_poly(sympy, part, symbols) for side in suites._sides(
        getattr(certificate, body.__name__), coordinates) for part in side]
    ring_points = _SMALL_D_E_M if coordinates == "d e m" else suites._points(coordinates)
    residuals = []
    for point, arguments in zip(ring_points, suites._points(coordinates)):
        assert arguments == (suites._scaled_point(*point) if coordinates == "d e m" else point)
        try:
            residual = check(*arguments)
        except (ParameterError, SingularPointError):
            continue
        a, b, c, d = (int(part.eval(dict(zip(symbols, point)))) for part in sides)
        assert type(residual) is Fraction and residual == Fraction(a * d - c * b, b * d)
        residuals.append(residual)
        if len(residuals) == 12:
            return sum(r != 0 for r in residuals)


def test_grid_cores_match_the_scalar_checks(monkeypatch):
    # The suites run each identity once on polynomials, and the scalar checks run
    # the same body at one point: at the integer point of a small point of the
    # ring, the polynomials evaluated there must give the check's very residual,
    # on the shipped data and under mutations that make the residuals nonzero.
    assert [_polynomial_matches_check(*core) for core in _CORES] == [0, 0, 0, 0, 0]
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
    assert [_polynomial_matches_check(*core) for core in _CORES[:2]] == [12 - 7, 12]  # x = 0 vanishes
    dadd_over_pi = core._dadd_over_pi
    monkeypatch.setattr(core, "_dadd_over_pi", lambda d, e, f, sqrt: (
        dadd_over_pi(d, e, f, sqrt)[0] + d * d, dadd_over_pi(d, e, f, sqrt)[1]))
    # The G factorization reads core._g1, which this change keeps.
    assert [_polynomial_matches_check(*core) for core in _CORES[2:]] == [12, 12, 0]
    monkeypatch.setattr(core, "_dadd_over_pi", dadd_over_pi)
    _change(monkeypatch, "_g1", lambda g1_r, d, e, f, sqrt: (g1_r[0] + d, g1_r[1]))
    # m*d*G2, and G2 > 0 off d = f, e = 0; on it, at (4, 0, 4), G2 = 0.
    assert _polynomial_matches_check(*_CORES[4]) == 12 - 1
    monkeypatch.undo()
    # The polynomial proofs' mutations, c0 + 1 not homogeneous among them: c0 is the
    # telescoping operator's too.
    for mutation, (name, change, failing) in _POLYNOMIAL_MUTATIONS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(*_shipped(name, change))
            counts = [_polynomial_matches_check(*core) for core in _CORES]
        assert {proof for proof, n in zip(_CORE_NAMES, counts) if n} == (
            failing | {"telescoping"} if mutation == "c0 + 1" else failing)


def test_grid_cores_check_every_point():
    # Each scalar check checks its point's domain and the singular set, at ints and
    # Fractions alike, raising an exception that names the point, and refuses a
    # guard that is not a square.
    for check, _, coordinates in _CORES:
        with pytest.raises(ParameterError, match=r"\(d, e, f\) = \(1, 2, 1\) must satisfy"):
            check(1, 2, 1, *(0,) * (coordinates == "d e f x"))
        with pytest.raises(ParameterError, match=r"\(d, e, f\) = \(1/2, 1, 1/2\) must"):
            check(Fraction(1, 2), 1, Fraction(1, 2), *(0,) * (coordinates == "d e f x"))
    with pytest.raises(ParameterError):  # d = -1
        verify_tail_limit(-1, 0, 1)
    for check in (verify_ode_dadd, verify_dadd_residues):
        for point in ((4, 0, 4), (Fraction(1, 2), 0, Fraction(1, 2))):  # d = f, e = 0
            with pytest.raises(SingularPointError, match="lies on the singular set"):
                check(*point)
    for check in (verify_ode_dadd, verify_dadd_residues, verify_g_factorization):
        with pytest.raises(ParameterError, match="11 is not the square"):
            check(1, 3, 5)
        with pytest.raises(ParameterError, match="is not the square"):
            check(Fraction(1, 2), 0, 1)  # 4*d*f - e^2 = 2
    # The witness search skips what its check refuses: every small point with
    # 4*d*f <= e^2, and, for the ODE and residue checks alone, the singular set,
    # where the factorization's sides are both 0.
    for check, _, coordinates in _CORES:
        for point in itertools.islice(suites._points(coordinates), 300):
            if 4 * point[0] * point[2] <= point[1] ** 2:
                with pytest.raises(ParameterError, match="must satisfy"):
                    check(*point)
    assert verify_g_factorization(4, 0, 4) == 0


def test_grid_runner_refuses_inexact_residuals(monkeypatch):
    # Through the jets and the polynomials, and the runner's own check of every
    # part of both sides: an inexact denominator is refused like a numerator.
    shipped = certificate.operator_coefficients
    monkeypatch.setattr(certificate, "operator_coefficients",
                        lambda d, e, f: (*shipped(d, e, f)[:3], shipped(d, e, f)[3] + 0.5))
    for body, coordinates in ((certificate._telescoping_sides, "d e f x"),
                              (certificate._ode_sides, "d e m")):
        with pytest.raises(TypeError):
            suites._sides(body, coordinates)
    with pytest.raises(TypeError):
        ode_suite()
    monkeypatch.undo()
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + 0.5 * x)
    with pytest.raises(TypeError):
        certificate_suite()
    for k in range(4):
        parts = [1, 1, 1, 1]
        parts[k] = 1.0
        with pytest.raises(TypeError, match="inexact residual part 1.0"):
            suites._sides(lambda *point: (parts[:2], parts[2:]), "d e f")


def test_grid_runner_builds_no_fraction_when_every_residual_vanishes(monkeypatch):
    # Every polynomial proof runs on ints and polynomials only: no Fraction is
    # built when the identity holds.
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    results = [suites._prove_polynomial(check, suites._sides(body, coordinates), "")
               for check, body, coordinates in _CORES]
    monkeypatch.undo()
    assert built == []
    assert [failures for failures, _ in results] == [0] * 5


def test_exact_suites_build_a_few_jets(monkeypatch):
    # Each identity runs once on polynomials, so the suites build a few jets:
    # one per point of the grids they once ran on built about 35 000.
    built = []
    make, init = jets.Jet._make.__func__, jets.Jet.__init__
    monkeypatch.setattr(jets.Jet, "_make", classmethod(
        lambda cls, *args: built.append(1) or make(cls, *args)))
    monkeypatch.setattr(jets.Jet, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert all(outcome.passed for outcome in certificate_suite() + ode_suite())
    assert 0 < len(built) <= 300


def _random_fraction(rng, variables):
    """A seeded random polynomial that is not zero, for a side's numerator or
    denominator, on `variables`. Its terms are redrawn while they sum to the zero
    polynomial of Z[d, e, f, x], so the same draws give it on ints too."""
    while True:
        terms = _random_terms(rng, len(variables))
        if _polynomial(terms, jets._Poly.variables("d e f x")) != 0:
            return _polynomial(terms, variables)


def _equal_pair(rng, variables):
    """a*k/(b*k) against a/b."""
    a, b, k = (_random_fraction(rng, variables) for _ in range(3))
    return (a * k, b * k), (a, b)


def _random_pair(rng, variables):
    return tuple((_random_fraction(rng, variables), _random_fraction(rng, variables))
                 for _ in range(2))


_PAIRS = {"equal": (_equal_pair, True), "random": (_random_pair, False),
          "+bound": (lambda rng, variables: _sides_at_the_bound(rng, variables, 1), False),
          "-bound": (lambda rng, variables: _sides_at_the_bound(rng, variables, -1), False)}


@pytest.mark.parametrize("kind", list(_PAIRS))
def test_kronecker_zero_test_agrees_with_the_expansion(kind):
    # Seeded pairs of sides in Z[d, e, f, x]: equal pairs a*k/(b*k) against a/b
    # compare equal; pairs built so that one coefficient of a*d - c*b is exactly
    # +bound or -bound, the largest the bound allows, compare unequal; random
    # pairs compare as the term-by-term expansion of a*d - c*b says. Each pair's
    # body replays its draws on any ring, and its check takes a/b - c/d of the
    # body's sides, so an unequal pair names a point where the int sides are unequal.
    make, equal = _PAIRS[kind]
    variables = jets._Poly.variables("d e f x")
    rng = np.random.Generator(np.random.PCG64(167))
    for _ in range(15):
        state = rng.bit_generator.state

        def body(*point, state=state):
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = state
            return make(replay, point)

        sides = make(rng, variables)
        (a, b), (c, d) = sides
        cross = a * d - c * b
        assert (cross == 0) == equal

        def check(*point, body=body):
            return certificate._difference(body(*point))

        failures, detail = suites._prove_polynomial(check, sides, "pair")
        assert failures == (cross != 0)
        assert detail.startswith(f"pair: {'disproved' if failures else 'proved'} in Z[d, e, f, x]")
        if failures:
            (a0, b0), (c0, d0) = body(*(int(v) for v in _witness(detail)))
            assert b0 * d0 != 0 and a0 * d0 != c0 * b0
        if kind.endswith("bound"):
            bound = suites._norm_product(a, d) + suites._norm_product(c, b)
            assert (1 if kind == "+bound" else -1) * bound in cross.terms.values()
            assert max(map(abs, cross.terms.values())) == bound


def _sides_at_the_bound(rng, variables, sign):
    """Sides ((a, b), (c, d)) whose a*d - c*b has the coefficient sign * bound at the
    monomial top: each term of a meets a term of d of the largest size and the same
    sign there, each term of c one of b of the opposite sign."""
    top = (3, 3, 3, 3)

    def monomial(exponents):
        return math.prod(v**j for v, j in zip(variables, exponents))

    def half():
        exponents = {tuple(int(j) for j in rng.integers(0, 4, 4)) for _ in range(4)}
        size = int(rng.integers(1, 9))
        coefficients = [int(rng.integers(1, 10)) * int(rng.choice([-1, 1])) for _ in exponents]
        numerator = sum(c * monomial(e) for c, e in zip(coefficients, exponents))
        partner = sum((size if c > 0 else -size) * monomial([t - j for t, j in zip(top, e)])
                      for c, e in zip(coefficients, exponents))
        return numerator, partner

    a, d = half()
    c, b = half()
    return (sign * a, -b), (sign * c, d)
