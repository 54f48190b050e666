"""Exact jet arithmetic against known Taylor expansions."""

import ast
import math
import operator
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cauchykl import Jet, ParameterError, certificate, core, jets
from helpers import random_certificate_point, rational_sqrt


def test_variable_and_constant():
    t = Jet.variable(Fraction(3), 4)
    assert t.coefficients == (Fraction(3), Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert t.order == 4
    c = Jet.constant(Fraction(5, 2), 3)
    assert c.coefficients == (Fraction(5, 2), 0, 0, 0)
    with pytest.raises(ParameterError):
        Jet.variable(1, 0)
    with pytest.raises(ParameterError, match="constant jets need order >= 0, got -2"):
        Jet.constant(3, -2)
    with pytest.raises(ParameterError):
        Jet(())
    # A jet reads as its coefficients, and == and hash compare them exactly.
    s = Jet.variable(Fraction(1, 2), 1)
    assert repr(s) == "Jet([Fraction(1, 2), Fraction(1, 1)])"
    assert s == Jet([Fraction(2, 4), 1]) and len({s, Jet([Fraction(2, 4), 1]), 2 * s}) == 2
    assert s != Jet.variable(Fraction(1, 2), 2) and s != Fraction(1, 2)


def test_derivative_extraction():
    t = Jet.variable(Fraction(2), 3)
    cube = t * t * t
    assert [Fraction(cube.derivative_numerator(k), cube.denominator) for k in range(4)] == [
        8, 12, 12, 6]
    with pytest.raises(ParameterError):
        cube.derivative_numerator(4)


def test_geometric_series():
    t = Jet.variable(Fraction(0), 5)
    g = 1 / (1 - t)
    assert g.coefficients == tuple(Fraction(1) for _ in range(6))


def test_sqrt_series():
    t = Jet.variable(0, 4)
    g = (1 + t).sqrt()
    assert g.coefficients == (1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128))
    assert Jet.constant(Fraction(9, 4), 2).sqrt().coefficients == (Fraction(3, 2), 0, 0)


def test_sqrt_over_a_negative_denominator():
    # Dividing by a jet with head -1 leaves the shared denominator
    # (-1)^3 = -1: -4/t at t = -1 + s is 4/(1 - s) with numerators (-4, ...).
    t = Jet.variable(-1, 2)
    g = -4 / t
    assert g._den < 0
    root = g.sqrt()
    assert root.coefficients == (2, 1, Fraction(3, 4))
    assert (root * root).coefficients == g.coefficients
    with pytest.raises(ParameterError):
        (-g).sqrt()


def test_sqrt_over_a_polynomial_denominator():
    # A jet divided by a polynomial has a polynomial denominator; its root is the
    # root of num_0 * den over den, the sign of den fixed by its leading coefficient,
    # so d^2/e^2 has the head d/e whichever sign den carries. A head whose num_0 * den
    # is not the square of a monomial raises ParameterError.
    d, e = jets._Poly.variables("d e")
    for sign in (1, -1):
        g = Jet.variable(sign * d * d, 2) / (sign * e * e)
        assert type(g.denominator) is jets._Poly
        root = g.sqrt()
        assert root * root == g
        assert root.derivative_numerator(0) * e == d * root.denominator
    with pytest.raises(ParameterError, match=r"1\*d\*e\^5 is not the square of a monomial"):
        (Jet.variable(d, 2) / e).sqrt()


def test_exact_sqrt_jet_with_rational_head():
    # 4*d*f - e^2 at (d, e, f) = (1, 3, 5/2) equals 1; the d-jet of its
    # square root stays rational and squares back exactly.
    d = Jet.variable(Fraction(1), 3)
    disc = 4 * d * Fraction(5, 2) - 9
    root = disc.sqrt()
    assert root.coefficients[0] == 1
    assert all(isinstance(c, Fraction) for c in root.coefficients)
    assert (root * root).coefficients == disc.coefficients
    for not_a_square in (disc + 1, disc / 3, disc - 2):  # heads 2, 1/3, -1
        with pytest.raises(ParameterError):
            not_a_square.sqrt()
    with pytest.raises(ParameterError, match="2 is not the square of a rational"):
        (disc + 1).sqrt()
    # A zero head, an int or the zero polynomial, has no quotient or root series.
    for zero in (Jet.variable(0, 2), Jet.variable(jets._Poly({}, ("d",)), 2)):
        with pytest.raises(ZeroDivisionError):
            1 / zero
        with pytest.raises(ZeroDivisionError):
            (zero * zero).sqrt()
    # an int jet gives the same root: int / int would be a float, and no step divides
    int_root = (10 * Jet.variable(1, 3) - 9).sqrt()
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
    root = (9 * t * t).sqrt()
    assert built == []
    monkeypatch.undo()
    tf, sf = Fraction(2, 3), Fraction(5, 7)
    assert r.coefficients[0] == (3 * tf * sf - tf / (sf * sf + Fraction(1, 2)) + 1) / (4 * tf * tf + 1)
    assert root.coefficients == (2, 3, 0, 0)


def test_scalar_mixing():
    t = Jet.variable(Fraction(1), 2)
    assert (2 - t).coefficients == (Fraction(1), Fraction(-1), Fraction(0))
    assert (6 / (1 + t)).coefficients == (Fraction(3), Fraction(-3, 2), Fraction(3, 4))


def test_order_mismatch_rejected():
    with pytest.raises(ParameterError):
        Jet.variable(Fraction(1, 2), 2) + Jet.variable(Fraction(1, 2), 3)


def test_non_rational_scalars_are_refused():
    t = Jet.variable(1, 2)
    for build in (lambda: Jet([1, 0.5]), lambda: Jet.variable(1.0, 2),
                  lambda: Jet.constant(2.5, 2), lambda: t * 0.5, lambda: 0.5 * t,
                  lambda: t + 0.5, lambda: 0.5 + t, lambda: t / 0.5):
        with pytest.raises(TypeError):
            build()


def test_log_g1_derivative_is_the_closed_dadd():
    # A(1,0,1; d,e,f) = pi*log(G1), G1 = d + f + sqrt(4*d*f - e^2), so
    # d/dd log(G1) = G1'/G1 must equal the formula core.integral_a_dd
    # runs, divided by pi, exactly at square-discriminant points.
    rng = np.random.Generator(np.random.PCG64(131))
    for _ in range(200):
        d, e, f = random_certificate_point(rng)
        dj = Jet.variable(d, 1)
        g1 = dj + f + (4 * dj * f - e * e).sqrt()
        num, den = core._dadd_over_pi(d, e, f, rational_sqrt)
        assert Fraction(g1.derivative_numerator(1), g1.derivative_numerator(0)) == num / den


def _seeded_jet(rng, order):
    """A jet with random int numerators over a random shared denominator of either sign."""
    den = int(rng.integers(1, 40)) * (1 if rng.integers(2) else -1)
    return Jet._make(tuple(int(v) for v in rng.integers(-50, 51, order + 1)), den)


def test_scalar_fast_paths_match_the_constant_jet_path():
    # A scalar enters as the constant jet, so + and - move c0 only and * scales,
    # its structural 0s skipping the products. The coefficients must be those of an
    # explicit constant jet, for int and Fraction scalars, including a scalar
    # over the jet's own denominator.
    rng = np.random.Generator(np.random.PCG64(151))
    for order in (1, 2, 3):
        for _ in range(30):
            jet = _seeded_jet(rng, order)
            num = int(rng.integers(-30, 31))
            for s in (num, Fraction(num, int(rng.integers(1, 12))),
                      Fraction(num, abs(jet._den)), Fraction(1, jet._den)):
                c = Jet.constant(s, order)
                assert (jet + s).coefficients == (jet + c).coefficients
                assert (s + jet).coefficients == (c + jet).coefficients
                assert (jet - s).coefficients == (jet - c).coefficients
                assert (s - jet).coefficients == (c - jet).coefficients
                assert (jet * s).coefficients == (s * jet).coefficients == (jet * c).coefficients
                assert (jet - s).coefficients == tuple(
                    v - (s if k == 0 else 0) for k, v in enumerate(jet.coefficients))


def test_order_one_product_and_difference():
    rng = np.random.Generator(np.random.PCG64(157))
    for _ in range(50):
        a, b = _seeded_jet(rng, 1), _seeded_jet(rng, 1)
        (a0, a1), (b0, b1) = a.coefficients, b.coefficients
        assert (a * b).coefficients == (a0 * b0, a0 * b1 + a1 * b0)
        assert (a - b).coefficients == (a0 - b0, a1 - b1)
        assert (a - a).coefficients == (0, 0)


def test_mixed_orders_are_refused_by_every_operation():
    low, high = Jet.variable(Fraction(1, 2), 1), Jet.variable(Fraction(1, 2), 3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        for a, b in ((low, high), (high, low)):
            with pytest.raises(ParameterError):
                op(a, b)
    for build in (lambda: low - 0.5, lambda: 0.5 - low, lambda: high * 0.25):
        with pytest.raises(TypeError):
            build()


def test_derivative_numerator_over_denominator_is_the_derivative():
    t = Jet.variable(Fraction(2, 3), 3)
    g = (3 * t * t - 1) / (t + 5)
    for k in range(4):
        assert (Fraction(g.derivative_numerator(k), g.denominator)
                == math.factorial(k) * g.coefficients[k])
    with pytest.raises(ParameterError):
        g.derivative_numerator(4)


def test_arrays_that_could_wrap_or_round_are_refused():
    # Jets take no arrays: int64 would wrap, float64 round, and an object array
    # holds no promise about its elements.
    t = Jet.variable(1, 2)
    for array in (np.array([1, 2]), np.array([1.0, 2.0]), np.array([1, 2], dtype=object)):
        for build in (lambda: Jet.variable(array, 2), lambda: Jet.constant(array, 2),
                      lambda: t * array, lambda: array * t, lambda: t + array, lambda: array - t):
            with pytest.raises(TypeError):
                build()


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


class _Plain(int):
    """An int that is not structural: `type(v) is int` fails, so no operation skips it."""


def _dense(jet, fill):
    """`jet` with each int numerator and its int denominator replaced by fill(value):
    the same values, but no structural 0 or 1 left for an operation to skip."""
    def dense(v):
        return fill(v) if type(v) is int else v
    return Jet._make(tuple(map(dense, jet._num)), dense(jet._den))


def test_skipping_structural_zeros_and_ones_changes_no_value():
    # Variable, constant and int-1 jets carry their 0s and 1s as Python ints,
    # which every product in + - * / and sqrt skips; the same jets with those
    # values as plain ints or constant polynomials ("dense") run every product.
    # Both must give the same coefficients, over ints, Fractions and polynomials,
    # where every head is a monomial, so that its square has a root.
    d, e = jets._Poly.variables("d e")
    domains = (((2, -3), _Plain), ((Fraction(2, 3), Fraction(-5, 7)), _Plain),
               ((d, e), lambda v: jets._Poly({0: v} if v else {}, d.names)))
    for (a, b), fill in domains:
        for order in (1, 3):
            jets_ = [Jet.variable(a, order), Jet.variable(b, order), Jet.constant(b, order),
                     Jet.variable(1, order), Jet.constant(1, order)]
            jets_.append(jets_[0] * jets_[1])
            for x in jets_:
                dx = _dense(x, fill)
                for y in jets_:
                    for op in _BINARY:
                        assert op(x, y) == op(dx, _dense(y, fill))
                for s in (0, 1, -1, 2, Fraction(1), Fraction(3, 2), a):
                    for op in _BINARY:
                        assert op(s, x) == op(s, dx)
                    for op in _BINARY[:3] if type(s) is int and s == 0 else _BINARY:
                        assert op(x, s) == op(dx, s)
                square = x * x
                assert square.sqrt() == _dense(square, fill).sqrt()


def test_no_operation_updates_an_operand():
    # A skipped product hands back an operand's own value, so an in-place update
    # of the result would change the operand; polynomials, unlike ints, could be
    # updated in place. Int-1 heads and denominators make division and sqrt skip
    # their scalings.
    d, e = jets._Poly.variables("d e")
    g = d * e
    head_one = Jet._make((1, g, g + 1, 2 * g), 1)
    squares = (head_one, head_one * head_one, Jet.variable(1, 3), Jet._make((g * g, g, 0, g), 1))
    operands = squares + (Jet.variable(g, 3), Jet.constant(g, 3))
    unary = (lambda x: x.sqrt(), lambda x: 1 - x, lambda x: 1 / x,
             lambda x: g * x, lambda x: x + g, lambda x: Fraction(1, 3) - x)

    def snapshot(*jets_):
        return [dict(v.terms) if type(v) is jets._Poly else v
                for j in jets_ for v in (*j._num, j._den)]

    for x in operands:
        for y in operands:
            for op in _BINARY:
                before = snapshot(x, y)
                op(x, y)
                assert snapshot(x, y) == before
    for x in squares:
        for op in unary:
            before = snapshot(x)
            op(x)
            assert snapshot(x) == before


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = [0]

    def __mul__(self, other):
        self.products[0] += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_variable_times_constant_skips_the_structural_products():
    # (v, 1, 0, 0) * (c, 0, 0, 0): only v * c runs. With every 0 and 1 a counted
    # int, the same product runs all 10 convolution terms and the denominators'
    # product.
    t = Jet._make((_Counted(3), 1, 0, 0), 1)
    k = Jet._make((_Counted(5), 0, 0, 0), 1)
    _Counted.products[0] = 0
    r = t * k
    assert _Counted.products[0] == 1
    assert r.coefficients == (15, 5, 0, 0)
    _Counted.products[0] = 0
    assert (_dense(t, _Counted) * _dense(k, _Counted)).coefficients == r.coefficients
    assert _Counted.products[0] == 11


def test_exact_modules_import_no_numpy():
    # The jets and the certificate checks run on ints and exact polynomials only.
    for module in (jets, certificate):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(name and name.split(".")[0] == "numpy" for name in imported), module
