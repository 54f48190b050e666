"""Certificate verification: exact residuals, grid proofs, checksums, tail behavior."""

import itertools
import json
import math
import operator
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
    m = rational_sqrt(4 * d * f - e * e)
    gap, gap_den = certificate._residue_gap(d, e, f, lambda _: m)
    p = certificate.certificate_polynomial(d, e, f, Jet.variable(0, 5))
    tail = -2 * p.coefficients[5] / d**3 - psi_limit(d, e, f)
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
    assert "; first nonzero at (d, e, f, x) = (" in telescoping.detail  # on the grid
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


@pytest.mark.parametrize("name", ["phi_partial_d", "psi"])
def test_grid_blind_bump_fails_the_certificate_suite(monkeypatch, name):
    # The telescoping grid is sized from hand-written forms of phi_partial_d and
    # psi (ROADMAP item 4), so a term that vanishes with its x-derivative at every
    # grid x passes the grid; the off-grid point catches it and names itself.
    shipped = getattr(certificate, name)
    monkeypatch.setattr(certificate, name, lambda d, e, f, x: shipped(d, e, f, x) + math.prod(
        (x - k) * (x - k) for k in range(11)))
    if verify_telescoping(1, 1, 100, Fraction(1, 2)) == 0:
        pytest.fail("the bump must break the telescoping identity off the grid")
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and telescoping.detail.startswith("308/308 exact-zero")
    assert telescoping.detail.endswith("; nonzero off the grid at (d, e, f, x) = "
                                       "(1, 1009, 1000003, 10007)")
    assert verify_telescoping(*_witness(telescoping.detail)) != 0


def test_e_f_bump_off_the_staircase_fails_the_certificate_suite(monkeypatch):
    # A term in phi_partial_d that vanishes on the 28 (e, f) pairs of the
    # telescoping staircase, e + (f - 100) <= 6, though not on the other 21 pairs
    # of the 7 x 7 box it replaced: the tracker does not run it, so only the
    # off-grid point catches it.
    shipped = certificate.phi_partial_d
    monkeypatch.setattr(certificate, "phi_partial_d", lambda d, e, f, x: shipped(d, e, f, x)
                        + math.prod(e + f - 100 - i for i in range(7)))
    e, f = suites._plane_grid(certificate.telescoping_degrees()[0])[1][1:3]
    assert all(math.prod(a + b - 100 - i for i in range(7)) == 0 for a, b in zip(e.flat, f.flat))
    telescoping = certificate_suite()[1]
    assert not telescoping.passed and telescoping.detail.startswith("308/308 exact-zero")
    assert "disproved" in telescoping.detail
    point = _witness(telescoping.detail)
    assert point == (1, 1009, 1000003, 10007) and verify_telescoping(*point) != 0


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
    # c0 + 1 is not homogeneous, so d spans the telescoping grid; at x = 0 every
    # d-derivative of dphi/dd vanishes, so the first nonzero has x = 1. The ODE's
    # polynomial proof names the first small point where its numerator is nonzero.
    assert "d spans the grid" in telescoping.detail
    assert _witness(telescoping.detail) == (1, 0, 100, 1)
    assert _proof_witnesses(ode.detail) == {"ode": (1, 0, Fraction(1, 4)), "residues": None,
                                            "factorization": None}
    assert verify_ode_dadd(1, 0, Fraction(1, 4)) != 0


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

    bounds, _ = count(certificate.telescoping_degrees)
    proofs, _ = count(lambda: (suites._prove_polynomial(certificate._tail_gap, "d e f", ""),
                               suites._prove_polynomial(certificate._ode_gap, "d e m", ""),
                               suites._prove_polynomial(certificate._residue_gap, "d e m", "")))
    point = (4, 12, 10)  # 4*4*10 - 12^2 = 4^2
    counts = [count(step) for step in (
        lambda: verify_telescoping(1, 6, 106, 10),
        lambda: verify_ode_dadd(*point),
        lambda: verify_dadd_residues(*point),
        lambda: verify_telescoping(*rational, x),
        lambda: verify_ode_dadd(*rational),
        lambda: verify_dadd_residues(*rational))]
    tail, limit = count(lambda: verify_tail_limit(1, 6, 106))
    monkeypatch.undo()
    assert (bounds, proofs) == (0, 0)
    assert [n for n, _ in counts] == [1] * 6
    assert all(residual == 0 for _, residual in counts) and limit == 0
    assert tail == 1  # the residual: the limit is psi_limit's arithmetic without its Fraction


def test_derived_grid_degrees():
    # The bounds the tracker derives from the shipped formulas, which size the
    # telescoping grid in (d, e, f, x); the residual is homogeneous in (d, e, f).
    residual, order = certificate.telescoping_degrees()
    assert tuple(residual.top[:4]) == (4, 6, 6, 10) and residual.homogeneous and order == 0
    assert residual.top.ef == 6
    # Its grid: d = 1, the (e, f) pairs with e + (f - 100) <= ef from f = 100 over at
    # most deg_f + 1 values, x over deg_x + 1.
    telescoping, tail = (outcome.detail for outcome in certificate_suite()[1:])
    assert ("on the grid d = 1, e in 0..6 and f in 100..106 with e + (f - 100) <= 6, "
            "x in 0..10 (308 points)") in telescoping
    assert ("of total degree <= 6 in (e, f), so in Newton's form in e the coefficient "
            "at the i-th e has degree <= min(6, 6 - i) in f") in telescoping
    assert telescoping.endswith("; zero off the grid at (d, e, f, x) = (1, 1009, 1000003, 10007)")
    # The other four identities are polynomial identities, with no grid.
    assert tail.startswith("-2*p5/d^3 - psi_limit, p5 the x^5 coefficient of P: proved in "
                           "Z[d, e, f], as its numerator is the zero polynomial")
    detail = ode_suite()[0].detail
    ring = ("proved in Z[d, e, m] at (d, e, f) = (4d^2, 4de, e^2 + m^2), where "
            "4*d*f - e^2 = (4dm)^2, as its numerator is the zero polynomial and its denominator, ")
    assert [part.split(", is not")[0] for part in detail.split(ring)[1:]] == [
        "of 25 terms", "of 36 terms", "of 1 term"]
    assert "grid" not in tail + detail and "exact-zero" not in tail + detail


def _exact_rank(matrix) -> int:
    """The rank of a matrix of ints, by Gaussian elimination over Fractions."""
    rows, rank = [[Fraction(v) for v in row] for row in matrix], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, len(rows)):
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
    return rank


def _unisolvent(pairs, monomials) -> bool:
    """Whether as many points as monomials u^j v^l are given, and the monomials
    evaluated on them form a matrix of full rank: then only the zero polynomial in
    their span vanishes on the points."""
    return len(pairs) == len(monomials) == _exact_rank(
        [[u**j * v**l for j, l in monomials] for u, v in pairs])


def _made_bounds(**top):
    """Homogeneous bounds (so d = 1) with the given `_Top` fields, the rest 0."""
    return certificate._Degrees(certificate._CONSTANT._replace(**top), 0, 0)


def test_staircase_grids_are_unisolvent():
    # The grid `_prove` builds has as many points as the polynomial space it
    # claims has dimensions, and only 0 in that space vanishes on it: the (e, f)
    # plane, capped by deg_e, deg_f and the total degree ef.
    for deg_e, deg_f in itertools.product(range(5), repeat=2):
        for ef in range(deg_e + deg_f + 1):
            bounds = _made_bounds(e=deg_e, f=deg_f, x=1, ef=ef)
            _, (d, e, f, x), _ = suites._plane_grid(bounds)
            monomials = [(j, k) for j in range(deg_e + 1) for k in range(deg_f + 1) if j + k <= ef]
            assert np.broadcast_shapes(d.shape, e.shape, x.shape) == (1, len(monomials), 2)
            assert _unisolvent(list(zip(e.flat, f.flat)), monomials)


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
    """Whether (d, e, f) is (d, e, (e^2 + m^2)/(4d)) for ints d, m >= 1, e >= 0, all at most
    10, off the singular set m = 2d with e = 0."""
    d, e, f = point
    m = rational_sqrt(4 * d * f - e * e)
    return (all(v.denominator == 1 and 0 <= v <= 10 for v in (d, e, m)) and d >= 1 and m >= 1
            and not (e == 0 and m == 2 * d))


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
}
_SCALAR_CHECKS = {"ode": verify_ode_dadd, "residues": verify_dadd_residues,
                  "factorization": verify_g_factorization, "tail": verify_tail_limit}


@pytest.mark.parametrize("mutation", sorted(_POLYNOMIAL_MUTATIONS))
def test_polynomial_proofs_fail_under_mutation(monkeypatch, mutation):
    # Each mutation fails exactly the polynomial proofs that run it, with no grid
    # and no off-grid point; each names a small integer point, off the singular
    # set, where the matching scalar check returns a nonzero residual.
    name, change, failing = _POLYNOMIAL_MUTATIONS[mutation]
    monkeypatch.setattr(*_shipped(name, change))
    tail = certificate_suite()[2]
    ode = ode_suite()[0]
    witnesses = {**_proof_witnesses(ode.detail),
                 "tail": _witness(tail.detail) if "first nonzero" in tail.detail else None}
    assert {proof for proof, point in witnesses.items() if point is not None} == failing
    assert (tail.passed, ode.passed) == ("tail" not in failing, not failing & set(_PROOFS))
    for proof in failing:
        point = witnesses[proof]
        if proof == "tail":
            d, e, f = point
            assert all(type(v) is Fraction and v.denominator == 1 and 0 <= v <= 10 for v in point)
            assert 4 * d * f > e * e
        else:
            assert _small_regular_point(point)
        assert _SCALAR_CHECKS[proof](*point) != 0


def test_degree_power_is_repeated_product():
    # p**n scales every bound by n in closed form; n - 1 products of p
    # give the same bounds (and n = 0 the constant 1).
    d, e, f, x = certificate._Degrees.variables()
    for p in (d, e, f, x, d * x * x + e * x + f):
        product = 1
        for n in range(13):
            power = p**n
            if n == 0:
                assert power == 1
            else:
                assert _bounds(power) == _bounds(product)
            product = p * product


def _bounds(p):
    return p.top, p.lo, p.hi


def test_higher_degree_term_in_p_grows_the_grid(monkeypatch):
    shipped = certificate.certificate_polynomial
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x * x)
    residual, order = certificate.telescoping_degrees()
    assert residual.top.x == 12 and order == 1
    telescoping, tail = certificate_suite()[1:]
    assert "x in 0..12 (364 points)" in telescoping.detail and not telescoping.passed
    assert verify_telescoping(*_witness(telescoping.detail)) != 0
    assert not tail.passed and "the tails diverge" in tail.detail

    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + e**7)
    residual = certificate.telescoping_degrees()[0]
    assert residual.top.e == 8 and not residual.homogeneous

    # f starts at max(100, deg_e^2): with e^11 in P the telescoping residual has
    # e-degree 12, and its total degree in (e, f), so rows past e = deg_f take fewer
    # values of f. P's x^5 coefficient, and so the tail limit, does not move.
    monkeypatch.setattr(certificate, "certificate_polynomial",
                        lambda d, e, f, x: shipped(d, e, f, x) + e**11)
    residual = certificate.telescoping_degrees()[0]
    assert (residual.top.e, residual.top.ef) == (12, 12)
    telescoping, tail = certificate_suite()[1:]
    assert ("d in 1..5, e in 0..12 and f in 144..150 with e + (f - 144) <= 12, x in 0..10 "
            "(3850 points)") in telescoping.detail  # 5 * (7*7 + 6+5+4+3+2+1) * 11
    assert not telescoping.passed and tail.passed
    assert verify_telescoping(*_witness(telescoping.detail)) != 0


def test_polynomial_proof_refuses_a_zero_denominator(monkeypatch):
    # A dA/dd over the zero polynomial makes the residue gap 0/0: no identity is
    # proved, and no point is named, as the residual is defined nowhere.
    _change(monkeypatch, "_dadd_over_pi", lambda num_den, d, e, f, sqrt: (num_den[0], 0))
    assert suites._prove_polynomial(certificate._residue_gap, "d e m", "gap") == (
        1, "gap: disproved in Z[d, e, m] at (d, e, f) = (4d^2, 4de, e^2 + m^2), where "
           "4*d*f - e^2 = (4dm)^2, as its denominator is the zero polynomial")


def test_witness_points_are_the_scalar_checks_own_integer_points():
    # Each (d, e, m) witness is named as (d, e, (e^2 + m^2)/(4d)), whose least common
    # denominator is 4d, so `verify_*` runs its core at (4d^2, 4de, e^2 + m^2), the
    # point the polynomial was evaluated at; none lies on the singular set e = 0,
    # m = 2d. Each (d, e, f) witness lies in the domain 4*d*f > e^2.
    points = itertools.islice(suites._points("d e m"), 300)
    assert next(suites._points("d e m")) == (1, 0, 1)
    for d, e, m in points:
        assert jets._clear((d, e, Fraction(e * e + m * m, 4 * d)))[1] == 4 * d
        assert m >= 1 and not (e == 0 and m == 2 * d)
    assert next(suites._points("d e f")) == (1, 0, 1)
    assert all(4 * d * f > e * e and d >= 1 and f >= 1
               for d, e, f in itertools.islice(suites._points("d e f"), 300))


def _sympy_degrees(sympy, expression, variables):
    return tuple(sympy.Poly(sympy.expand(expression), *variables).degree(v) for v in variables)


def test_derived_degrees_bound_sympy():
    # Bounds may exceed the true degrees, never fall short: compare, one
    # variable at a time, with sympy's degrees of each cleared half of the
    # telescoping residual, and its total degree in (e, f) with ef.
    sympy = pytest.importorskip("sympy")
    d, e, f, x = sympy.symbols("d e f x")
    q, w = d * x**2 + e * x + f, x**2 + 1
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    lhs = sum(c * (-1) ** k * math.factorial(k) * x ** (2 * k + 2) * q ** (3 - k) * w
              for k, c in enumerate((c0, c1, c2, c3)))
    rhs = sympy.cancel(sympy.diff(psi(d, e, f, x), x) * q**4 * w**2)
    top = certificate.telescoping_degrees()[0].top
    for half in (lhs, rhs):
        assert _bounded(_sympy_degrees(sympy, half, (d, e, f, x)), top[:4])
        monomials = sympy.Poly(sympy.expand(half), d, e, f, x).monoms()
        assert top.ef >= max(j + k for _, j, k, _ in monomials)


def _bounded(degrees, bounds) -> bool:
    """Whether each degree is at most its own bound."""
    return all(a <= b for a, b in zip(degrees, bounds, strict=True))


def test_kernels_are_the_expanded_polynomials(monkeypatch):
    # Shared powers and Horner's rule change how c3..c0, p5 and P are
    # evaluated, not what they are: each minus its expanded form is 0 in
    # sympy, and the degree tracker and the ODE's polynomial proof (the tail
    # limit reads P on an x-jet, which has no **) give the same from either.
    sympy = pytest.importorskip("sympy")
    d, e, f, x = sympy.symbols("d e f x")
    shipped = (*operator_coefficients(d, e, f), certificate._leading_coefficient(d, e, f),
               certificate_polynomial(d, e, f, x))
    expanded = (*reference_operator_coefficients(d, e, f), reference_leading_coefficient(d, e, f),
                reference_certificate_polynomial(d, e, f, x))
    assert all(sympy.expand(a - b) == 0 for a, b in zip(shipped, expanded, strict=True))

    def results():
        residual, order = certificate.telescoping_degrees()
        return [_bounds(residual), order, ode_suite()[0].detail]
    before = results()
    monkeypatch.setattr(certificate, "operator_coefficients", reference_operator_coefficients)
    monkeypatch.setattr(certificate, "certificate_polynomial", reference_certificate_polynomial)
    monkeypatch.setattr(certificate, "_leading_coefficient",
                        lambda d, e, f, powers=None: reference_leading_coefficient(d, e, f))
    assert results() == before


def _to_sympy(sympy, polynomial, symbols):
    """A `jets._Poly` as a sympy expression in `symbols`."""
    return sum(c * math.prod(v**j for v, j in zip(symbols, jets._exponents(k, len(symbols))))
               for k, c in polynomial.terms.items())


def _random_poly(rng, variables):
    """A seeded random polynomial: up to 6 terms of degree up to 3 per variable."""
    p = variables[0] * 0
    for _ in range(int(rng.integers(1, 7))):
        p = p + int(rng.integers(-9, 10)) * math.prod(v ** int(rng.integers(4)) for v in variables)
    return p


def test_poly_arithmetic_matches_sympy():
    # Seeded sums, differences, products and powers, each expanded by sympy;
    # values at int points; the root of a perfect square and the refusal of a
    # non-square; and the refusal of any coefficient that is not an int.
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
            assert poly.at(point) == expression.subs(dict(zip(symbols, point)))
        if a != 0:
            root = (a * a).root()
            assert root == a or root == -a
            lead = max(root.terms)
            assert root.terms[lead] > 0
            with pytest.raises(ParameterError, match="is not the square of a rational polynomial"):
                (a * a + variables[0]).root()
    d, e, m = variables
    assert (16 * d * d * m * m).root() == 4 * d * m
    assert (d * d - 2 * d * e + e * e).root() == e - d  # the leading term is at e^2
    for square in (2 * d * d, -(d * d), d * e, d * d + 1, d**3):
        with pytest.raises(ParameterError):
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
    """`body`'s (num, den) at (4d^2, 4de, e^2 + m^2) in Z[d, e, m], as `_prove_polynomial`
    runs it."""
    d, e, m = jets._Poly.variables("d e m")
    zero = d * 0
    return tuple(zero + part for part in body(4 * d * d, 4 * d * e, e * e + m * m))


@pytest.mark.parametrize("mutation", [None, "G3 + d*e", "dA/dd numerator + d^2"])
def test_residue_and_factorization_polynomials_match_sympy(monkeypatch, mutation):
    # The same shipped lines on sympy symbols, with the root 4dm of the guard
    # (4dm)^2, expand to the polynomials the proofs find, numerator and
    # denominator alike, whether the identity holds or not.
    sympy = pytest.importorskip("sympy")
    if mutation:
        name, change, _ = _POLYNOMIAL_MUTATIONS[mutation]
        monkeypatch.setattr(*_shipped(name, change))
    symbols, point = _scaled_symbols(sympy)
    d, _, m = symbols
    for body in (certificate._residue_gap, certificate._g_gap):
        expected = body(*point, lambda guard: 4 * d * m)
        found = _polynomial_body(body)
        for poly, expression in zip(found, expected):
            assert sympy.expand(_to_sympy(sympy, poly, symbols) - expression) == 0
    numerators = [_polynomial_body(body)[0] == 0 for body in (certificate._residue_gap,
                                                              certificate._g_gap)]
    assert numerators == {None: [True, True], "G3 + d*e": [False, False],
                          "dA/dd numerator + d^2": [False, True]}[mutation]


@pytest.mark.parametrize("mutation", [None, "c0 + 1"])
def test_ode_polynomial_matches_sympy(monkeypatch, mutation):
    # L[dA/dd / pi], by sympy differentiation of core's dA/dd / pi in d, at
    # (4d^2, 4de, e^2 + m^2), equals num/den of the ODE proof's polynomials.
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
    found_num, found_den = _polynomial_body(certificate._ode_gap)
    assert found_den != 0
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


def _grid(*ranges):
    """The product grid of `ranges` as the suites build an open grid: one array per
    coordinate, each range on its own axis, shaped to broadcast (`np.ix_`)."""
    return suites._open_grid([(r,) for r in ranges])


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
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
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
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
    telescoping, tail, *square = _tallies_on_both_layouts()
    assert telescoping[:2] == (36, 36 - 12) and tail[:2] == (12, 12)  # x = 0 vanishes
    assert telescoping[2] == "; first nonzero at (d, e, f, x) = (1, 0, 3, 1)"
    assert tail[2] == "; first nonzero at (d, e, f) = (1, 0, 3)"
    assert square == [(12, 0, ""), (12, 0, "")]


def test_operator_runs_on_the_e_f_plane_only(monkeypatch):
    # On the telescoping grid d = 1, 28 pairs (e, f) on one axis, 11 values of x,
    # the operator's coefficients depend on (d, e, f) alone, so on the open grid
    # every array it receives or returns has at most 28 elements, not 308. Flat
    # columns would fail here, not only in a timing.
    sizes = []
    shipped = certificate.operator_coefficients

    def recording(d, e, f):
        result = shipped(d, e, f)
        sizes.extend(v.size for v in (d, e, f, *result) if type(v) is np.ndarray)
        return result

    monkeypatch.setattr(certificate, "operator_coefficients", recording)
    outcomes = certificate_suite()
    assert all(outcome.passed for outcome in outcomes)
    assert "(308 points)" in outcomes[1].detail
    assert max(sizes) == 28


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
                        lambda d, e, f, x: shipped(d, e, f, x) + d**5 * x * x * x * x * x)
    assert suites._exact_zeros(tail, "(d, e, f, x)", 1, grid) == (
        48, 48, "; first nonzero at (d, e, f, x) = (1, 0, 3, 0)")
