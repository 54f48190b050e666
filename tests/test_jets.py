"""Jet arithmetic against known Taylor expansions, exact and floating."""

import math
from fractions import Fraction

import pytest

from cauchykl import Jet, ParameterError, integral_a_dd, jets


def test_variable_and_constant():
    t = Jet.variable(Fraction(3), 4)
    assert t.coefficients == (Fraction(3), Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert t.order == 4
    c = Jet.constant(2.5, 3)
    assert c.coefficients == (2.5, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        Jet.variable(1.0, 0)
    with pytest.raises(ParameterError):
        Jet(())


def test_derivative_extraction():
    t = Jet.variable(Fraction(2), 3)
    cube = t * t * t
    assert cube.derivative(0) == 8
    assert cube.derivative(1) == 12
    assert cube.derivative(2) == 12
    assert cube.derivative(3) == 6
    with pytest.raises(ParameterError):
        cube.derivative(4)


def test_geometric_series():
    t = Jet.variable(Fraction(0), 5)
    g = 1 / (1 - t)
    assert g.coefficients == tuple(Fraction(1) for _ in range(6))


def test_log_series():
    t = Jet.variable(0.0, 5)
    g = (1 + t).log()
    expected = (0.0, 1.0, -0.5, 1 / 3, -0.25, 0.2)
    assert g.coefficients == pytest.approx(expected, abs=1e-15)


def test_sqrt_series():
    t = Jet.variable(0.0, 4)
    g = (1 + t).sqrt()
    expected = (1.0, 0.5, -1 / 8, 1 / 16, -5 / 128)
    assert g.coefficients == pytest.approx(expected, abs=1e-15)


def test_exact_sqrt_jet_with_rational_head():
    # 4*d*f - e^2 at (d, e, f) = (1, 3, 5/2) equals 1; the d-jet of its
    # square root stays rational and squares back exactly.
    d = Jet.variable(Fraction(1), 3)
    disc = 4 * d * Fraction(5, 2) - 9
    root = disc.sqrt(head=Fraction(1))
    assert all(isinstance(c, Fraction) for c in root.coefficients)
    assert (root * root).coefficients == disc.coefficients
    with pytest.raises(ParameterError):
        disc.sqrt(head=Fraction(2))
    # an int head is exact too: int / int would be a float, and no step divides
    int_root = disc.sqrt(head=1)
    assert all(isinstance(c, Fraction) for c in int_root.coefficients)
    assert int_root.coefficients == root.coefficients


def test_division_roundtrip_exact():
    t = Jet.variable(Fraction(2, 3), 4)
    num = 3 * t * t - t + Fraction(1, 7)
    den = t * t * t + 5
    assert ((num / den) * den).coefficients == num.coefficients


def test_exact_arithmetic_builds_no_fraction(monkeypatch):
    # +, -, *, / and sqrt stay on int numerators over one denominator;
    # Fractions appear only when the coefficients are read.
    t = Jet.variable(Fraction(2, 3), 3)
    s = Jet.variable(Fraction(5, 7), 3)
    built = []
    real = jets.Fraction
    monkeypatch.setattr(jets, "Fraction", lambda *a: built.append(a) or real(*a))
    r = (3 * t * s - t / (s * s + Fraction(1, 2)) + 1) / (4 * t * t + 1)
    root = (9 * t * t).sqrt(head=2)
    assert built == []
    monkeypatch.undo()
    tf, sf = Fraction(2, 3), Fraction(5, 7)
    assert r.coefficients[0] == (3 * tf * sf - tf / (sf * sf + Fraction(1, 2)) + 1) / (4 * tf * tf + 1)
    assert root.coefficients == (2, 3, 0, 0)


def test_power_matches_repeated_multiplication():
    t = Jet.variable(Fraction(1, 2), 4)
    assert (t ** 5).coefficients == (t * t * t * t * t).coefficients
    assert (t ** 0).coefficients == Jet.constant(1, 4).coefficients
    with pytest.raises(ParameterError):
        t ** -1


def test_scalar_mixing():
    t = Jet.variable(Fraction(1), 2)
    assert (2 - t).coefficients == (Fraction(1), Fraction(-1), Fraction(0))
    assert (6 / (1 + t)).coefficients == (Fraction(3), Fraction(-3, 2), Fraction(3, 4))


def test_order_mismatch_rejected():
    with pytest.raises(ParameterError):
        Jet.variable(1.0, 2) + Jet.variable(1.0, 3)


def test_float_jet_differentiates_closed_form():
    # d/dd of pi*log(d + f + sqrt(4*d*f - e^2)) must reproduce the closed
    # derivative of the canonical integral.
    for d, e, f in [(2.0, 0.0, 1.0), (1.0, 1.0, 3.0), (0.5, -0.25, 2.0)]:
        dj = Jet.variable(d, 1)
        value = math.pi * ((dj + f + (4 * dj * f - e * e).sqrt()).log())
        assert value.derivative(1) == pytest.approx(integral_a_dd(d, e, f), rel=1e-12)
