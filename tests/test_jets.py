"""Exact jet arithmetic against known Taylor expansions."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from cauchykl import Jet, ParameterError, core, jets
from helpers import random_certificate_point, rational_sqrt


def test_variable_and_constant():
    t = Jet.variable(Fraction(3), 4)
    assert t.coefficients == (Fraction(3), Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert t.order == 4
    c = Jet.constant(Fraction(5, 2), 3)
    assert c.coefficients == (Fraction(5, 2), 0, 0, 0)
    with pytest.raises(ParameterError):
        Jet.variable(1, 0)
    with pytest.raises(ParameterError):
        Jet(())


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
    # A scalar enters as the constant jet, whose structural 0s leave + and -
    # moving c0 only and * scaling. The coefficients must be those of an
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


def _ints(*values):
    return np.array(values, dtype=object)


def test_object_array_jets_match_scalar_jets_elementwise():
    # One jet over an object array of ints carries the expansion at every
    # element: each coefficient is the scalar jet's at that element.
    heads = (1, 2, 5, -3)
    t = Jet.variable(_ints(*heads), 3)
    r = (3 * t * t - _ints(1, 0, 7, 2) * t + Fraction(1, 7)) / (t * t * t + 100)
    root = (9 * t * t).sqrt()
    for k, head in enumerate(heads):
        s = Jet.variable(head, 3)
        expected = (3 * s * s - (1, 0, 7, 2)[k] * s + Fraction(1, 7)) / (s * s * s + 100)
        assert tuple(Fraction(n[k], r.denominator[k]) for n in r._num) == expected.coefficients
        scalar_root = (9 * s * s).sqrt()
        assert (tuple(Fraction(n[k], root.denominator[k]) for n in root._num)
                == scalar_root.coefficients)
    assert all(type(v) is int for n in r._num for v in n)


def test_arrays_that_could_wrap_or_round_are_refused():
    t = Jet.variable(1, 2)
    for array in (np.array([1, 2]), np.array([1.0, 2.0])):  # int64 wraps, float64 rounds
        for build in (lambda: Jet.variable(array, 2), lambda: Jet.constant(array, 2),
                      lambda: t * array, lambda: array * t, lambda: t + array, lambda: array - t):
            with pytest.raises(TypeError):
                build()


def test_array_heads_are_checked_at_every_element():
    t = Jet.variable(_ints(1, 0, 2), 2)
    with pytest.raises(ZeroDivisionError):
        1 / t
    with pytest.raises(ZeroDivisionError):
        (t * t).sqrt()
    with pytest.raises(ParameterError, match="3 is not the square"):
        Jet.variable(_ints(4, 3, 2), 1).sqrt()  # 3 is the first element that is not a square


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _dense(jet, shape):
    """`jet` with each int numerator and its int denominator as an object array of
    `shape`: the same values, but no structural 0 or 1 left for an operation to skip."""
    def fill(v):
        return np.full(shape, v, dtype=object) if type(v) is int else v
    return Jet._make(tuple(map(fill, jet._num)), fill(jet._den))


def _at_points(jet, shape):
    """The jet's coefficients as Fractions at every point of `shape`, in C order."""
    *nums, den = (np.broadcast_to(np.asarray(v, dtype=object), shape)
                  for v in (*jet._num, jet._den))
    return [tuple(Fraction(n[i], den[i]) for n in nums) for i in np.ndindex(*shape)]


def test_grid_jets_are_readable():
    # A grid jet's repr names its broadcast shape and its first point, == compares
    # the exact coefficients at every point, and it has no hash; scalar jets read
    # as they always did.
    x = Jet.variable(_ints(1, 2, 5).reshape(3, 1), 2) / _ints(-3, 4).reshape(1, 2)
    assert repr(x) == ("Jet(grid of shape (3, 2), first point "
                       "[Fraction(-1, 3), Fraction(-1, 3), Fraction(0, 1)])")
    last = Jet.constant(_ints(0, 0, 0, 0, 0, 1).reshape(3, 2), 2)
    assert x == x * 3 / 3 == _dense(x, (3, 2)) and x * 2 == x + x
    assert x != x + last and x + last != x and x != Jet.variable(1, 2) and x != 1
    assert Jet.constant(_ints(2, 2), 1) == Jet.constant(2, 1)
    assert Jet.constant(_ints(2, 3), 1) != Jet.constant(2, 1) != Jet.constant(2, 2)
    with pytest.raises(TypeError, match="grid is unhashable"):
        hash(x)
    s = Jet.variable(Fraction(1, 2), 1)
    assert repr(s) == "Jet([Fraction(1, 2), Fraction(1, 1)])"
    assert s == Jet([Fraction(2, 4), 1]) and len({s, Jet([Fraction(2, 4), 1]), 2 * s}) == 2


def test_skipping_structural_zeros_and_ones_changes_no_value():
    # Variable, constant and int-1 jets carry their 0s and 1s as Python ints,
    # which + - * / and sqrt skip; the same jets with those values as object
    # arrays ("dense") run every product and sum. Both must give the same
    # coefficients at every point, over ints, Fractions and an open grid.
    domains = (((2, -3), (1,)), ((Fraction(2, 3), Fraction(-5, 7)), (1,)),
               ((_ints(1, 2, 5).reshape(3, 1), _ints(-3, 4).reshape(1, 2)), (3, 2)))
    for (a, b), shape in domains:
        for order in (1, 3):
            jets_ = [Jet.variable(a, order), Jet.variable(b, order), Jet.constant(b, order),
                     Jet.variable(1, order), Jet.constant(1, order)]
            jets_.append(jets_[0] * jets_[1] + 1)
            for x in jets_:
                dx = _dense(x, shape)
                for y in jets_:
                    for op in _BINARY:
                        assert (_at_points(op(x, y), shape)
                                == _at_points(op(dx, _dense(y, shape)), shape))
                for s in (0, 1, -1, 2, Fraction(1), Fraction(3, 2), a):
                    for op in _BINARY:
                        assert _at_points(op(s, x), shape) == _at_points(op(s, dx), shape)
                    for op in _BINARY[:3] if type(s) is int and s == 0 else _BINARY:
                        assert _at_points(op(x, s), shape) == _at_points(op(dx, s), shape)
                square = x * x
                assert (_at_points(square.sqrt(), shape)
                        == _at_points(_dense(square, shape).sqrt(), shape))


def test_no_operation_updates_an_operand():
    # A skipped product hands back an operand's own array, so an in-place
    # update of the result would change the operand. Int-1 heads and
    # denominators make division and sqrt skip their scalings.
    g = _ints(1, 2, 5).reshape(3, 1) * _ints(-3, 4).reshape(1, 2)
    head_one = Jet._make((1, g, g + 1, 2 * g), 1)
    squares = (head_one, head_one * head_one, Jet.variable(1, 3), Jet._make((g * g, g, 0, g), 1))
    operands = squares + (Jet.variable(g, 3), Jet.constant(g, 3))
    unary = (lambda x: x.sqrt(), lambda x: 1 - x, lambda x: 1 / x,
             lambda x: g * x, lambda x: x + g, lambda x: Fraction(1, 3) - x)

    def snapshot(*jets_):
        return [np.array(v, dtype=object) for j in jets_ for v in (*j._num, j._den)]

    def unchanged(before, *jets_):
        return all(np.array_equal(u, v) for u, v in zip(before, snapshot(*jets_)))

    for x in operands:
        for y in operands:
            for op in _BINARY:
                before = snapshot(x, y)
                op(x, y)
                assert unchanged(before, x, y)
    for x in squares:
        for op in unary:
            before = snapshot(x)
            op(x)
            assert unchanged(before, x)


class _Counted(int):
    """An int that counts the products it takes part in."""

    products = [0]

    def __mul__(self, other):
        self.products[0] += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_variable_times_constant_skips_the_structural_products():
    # (v, 1, 0, 0) * (c, 0, 0, 0) over a 4-point grid: only v * c runs, one
    # product per point. With every 0 and 1 an array of counted ints, the
    # same product runs all 10 convolution terms and the denominators' product.
    v = np.array([_Counted(k) for k in (1, 2, 3, 4)], dtype=object)
    c = np.array([_Counted(k) for k in (5, 6, 7, 8)], dtype=object)
    t, k = Jet.variable(v, 3), Jet.constant(c, 3)
    _Counted.products[0] = 0
    r = t * k
    assert _Counted.products[0] == 4
    assert _at_points(r, (4,)) == [(5, 5, 0, 0), (12, 6, 0, 0), (21, 7, 0, 0), (32, 8, 0, 0)]

    def dense(jet):
        def fill(n):
            return np.array([_Counted(n)] * 4, dtype=object) if type(n) is int else n
        return Jet._make(tuple(map(fill, jet._num)), fill(jet._den))

    _Counted.products[0] = 0
    assert _at_points(dense(t) * dense(k), (4,)) == _at_points(r, (4,))
    assert _Counted.products[0] == 4 * 11
