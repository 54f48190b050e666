"""Machine verification of the derivation chain behind the closed form of A.

The canonical integral A(1,0,1; d,e,f) has integrand

    phi(d,e,f; x) = log(d*x^2 + e*x + f) / (x^2 + 1),

whose d-derivative is the rational function

    dphi/dd (d,e,f; x) = x^2 / ((d*x^2 + e*x + f) * (x^2 + 1)).

The derivation rests on a creative-telescoping certificate: a linear
differential operator L in d (order 3, polynomial coefficients in
(d,e,f)) and a rational function psi with

    L[dphi/dd] = dpsi/dx.                                   (telescoping)

psi has equal finite limits at x = +oo and x = -oo, so integrating the
telescoping relation over R annihilates the boundary term and yields the
homogeneous ODE L[dA/dd] = 0, whose relevant solution is the closed form
of dA/dd; a primitive in d then gives A itself up to a constant that
turns out to be zero.

This module transcribes the certificate data (L, psi and the degree-5
numerator polynomial P of psi) and *proves* the claims on product grids:
a polynomial of degree at most n_i in its i-th variable that vanishes on
a product of n_i + 1 points per variable is zero, the tensor-grid form
of Alon's Combinatorial Nullstellensatz (Combin. Probab. Comput. 8,
1999). Each identity, times a known denominator, is a polynomial; a
degree-tracking scalar (`_Degrees`) runs the shipped formulas under
+ - * and ** to bound its degrees and to confirm it is homogeneous in
(d,e,f), so the slice d = 1 suffices. It also derives a parity in e and
a least degree in m: a polynomial even in e needs grid values only for
e^2, and one that m^k divides needs k fewer values of m > 0. The
identities are

* the telescoping relation, on a d-jet of order 3 and an x-jet of order
  1 (`verify_telescoping`, `telescoping_degrees`);
* the tail limits: psi(1/t) is regular at t = 0 when P has x-degree at
  most 5, so both limits are -2*p5/d^3, which `psi_limit` must equal
  (`verify_tail_limit`);
* the ODE L[dA/dd] = 0 for core's dA/dd formula, at points whose
  discriminant 4*d*f - e^2 is a rational square m^2, so the square-root
  jet stays in Q (`verify_ode_dadd`, `ode_degrees`);
* that formula against the residue theorem, the one outside fact
  (Bronstein, Symbolic Integration I, Springer 2005, ch. 2): dA/dd is
  2*pi*i times the residues at i and (-e + i*m)/(2*d)
  (`verify_dadd_residues`, `residue_degrees`);
* the factorization G1*G2 = (d-f)^2 + e^2 behind the final log
  simplification (`verify_g_factorization`, `g_factorization_degrees`).

These run core's own formulas, not copies: the guard (`core._guard`) in
every domain check and square root, q(x) and x^2 + 1 (`core._quadratic`)
in phi_partial_d, psi and `telescoping_degrees`, G3 (`core._g3`) in the
residue check and, with G1 and m (`core._g1`), in the factorization, and
dA/dd / pi (`core._dadd_over_pi`) in the ODE and residue checks, with m
the exact root of the guard (`jets._root`, `Jet.sqrt`).

Every check is an integer-point core, `residual_*(d, e, f, ...)`, that
returns its residual as (numerator, denominator) and runs the same lines
on ints or on numpy object arrays of ints that broadcast to a grid, so a
suite proves an identity in one call over its whole grid. On an open
grid, one array per coordinate, every subexpression runs only over the
coordinates it depends on: the operator's coefficients and P's
(d, e, f)-coefficients once per (d, e, f), powers of x once per x, and
only the mixed terms over the whole grid. The operator and P have int
coefficients at an integer point, and the fraction-free jets
(`cauchykl.jets`) keep int numerators over one int denominator. Each
core checks its points' domain (and the singular set d = f, e = 0)
elementwise, raising at the first point outside it in itertools.product
order. One runner, `_at_rational`, makes each public scalar check
`verify_*` from its core and the core's degree of homogeneity: it clears
the common denominator D of a rational point (`jets._clear`), runs the
core at the integer point D*(d,e,f) and rescales the residual by
D**degree into one Fraction. A residual part that is not an int raises
TypeError (`_exact_residual`, which the grid suites run too). The
vanishing integration constant, the one float check left, is
cross-checked against the quadrature oracle: `verify_integration_constant`
returns the deviation at each of its nine points, and the ode suite
judges them at 1e-8. Any nonzero residual disproves the transcription
and is reported, never patched.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import core
from .core import PositiveQuadratic, integral_a_canonical
from .errors import ParameterError
from .jets import Jet, _clear, _first_at, _root
from .oracle import integral_a_numeric

__all__ = [
    "phi_partial_d", "operator_coefficients", "apply_operator", "certificate_polynomial",
    "psi", "psi_limit",
    "verify_telescoping", "verify_ode_dadd", "verify_dadd_residues", "verify_tail_limit",
    "residual_telescoping", "residual_ode_dadd", "residual_dadd_residues",
    "residual_tail_limit", "residual_g_factorization",
    "telescoping_degrees", "ode_degrees", "residue_degrees", "g_factorization_degrees",
    "verify_integration_constant", "verify_g_factorization",
]


def phi_partial_d(d, e, f, x):
    """dphi/dd = x^2 / ((d*x^2 + e*x + f) * (x^2 + 1)).

    Polymorphic over the scalar domain: exact with Fraction arguments,
    and `d` may be a Jet to propagate derivatives in d.
    """
    return x * x / (core._quadratic(d, e, f, x) * core._quadratic(1, 0, 1, x))


def operator_coefficients(d, e, f) -> tuple:
    """Coefficients (c3, c2, c1, c0) of the telescoping operator

        L[y] = c3 * y''' + c2 * y'' + c1 * y' + c0 * y   (derivatives in d).
    """
    c3 = (2 * d * f + e**2 + 6 * f**2) * (4 * d * f - e**2) * (d**2 - 2 * d * f + e**2 + f**2)
    c2 = (60 * d**3 * f**2 + 24 * d**2 * e**2 * f + 132 * d**2 * f**3
          - 6 * d * e**4 - 60 * d * e**2 * f**2 - 252 * d * f**4
          + 18 * e**4 * f + 108 * e**2 * f**3 + 60 * f**5)
    c1 = (96 * d**2 * f**2 + 60 * d * e**2 * f + 336 * d * f**3
          - 6 * e**4 - 84 * e**2 * f**2 - 240 * f**4)
    c0 = 24 * (d * f + e**2 + 5 * f**2) * f
    return c3, c2, c1, c0


def apply_operator(d, e, f, y: Jet) -> tuple[int, int]:
    """L[y] = n / den for a d-jet y of order >= 3 expanded at an integer point (d, e, f),
    or at each point of a grid of them.

    There c3..c0 are ints, and with y's coefficients num_k / den the
    numerator n = sum_k c_k * k! * num_k is one int sum: the pair
    (n, den) is returned and no Fraction is built.
    """
    if y.order < 3:
        raise ParameterError(f"the operator needs a jet of order >= 3, got {y.order}")
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    n = (c3 * y.derivative_numerator(3) + c2 * y.derivative_numerator(2)
         + c1 * y.derivative_numerator(1) + c0 * y.derivative_numerator(0))
    return n, y.denominator


def _leading_coefficient(d, e, f):
    """The x^5 coefficient p5 of P."""
    return e * (d**2 * f**2 - 4 * d * e**2 * f - 9 * d * f**3 - e**4 - 7 * e**2 * f**2 - 6 * f**4)


def certificate_polynomial(d, e, f, x):
    """The degree-5 polynomial P(d,e,f; x) in the numerator of psi."""
    return (
        _leading_coefficient(d, e, f) * x**5
        - 3 * f * (3 * d * e**2 * f + 4 * d * f**3 + 2 * e**4 + 11 * e**2 * f**2 + 4 * f**4) * x**4
        + e * (d**2 * f**2 - 4 * d * e**2 * f - 18 * d * f**3 - e**4 - 16 * e**2 * f**2 - 51 * f**4) * x**3
        - f * (9 * d * e**2 * f + 16 * d * f**3 + 6 * e**4 + 37 * e**2 * f**2 + 32 * f**4) * x**2
        - 9 * e * f**2 * (d * f + e**2 + 5 * f**2) * x
        - 4 * f**3 * (d * f + e**2 + 5 * f**2)
    )


def psi(d, e, f, x):
    """The certificate  psi = -2*x*P / (d*x^2+e*x+f)^2 * dphi/dd."""
    q = core._quadratic(d, e, f, x)
    return -2 * x * certificate_polynomial(d, e, f, x) / (q * q) * phi_partial_d(d, e, f, x)


def _psi_limit_parts(d, e, f) -> tuple:
    """(-2*p5, d^3), the numerator and denominator of `psi_limit`, on ints or int arrays."""
    return -2 * _leading_coefficient(d, e, f), d**3


def psi_limit(d, e, f) -> Fraction:
    """Common limit -2*p5/d^3 of psi at x -> -/+oo, p5 the x^5 coefficient of P.

    Exact for int or rational (d, e, f). The limit is homogeneous of
    degree 2, so at an integer point D*(d, e, f) it is D^2 times the limit
    at (d, e, f), and p5 is int arithmetic there.
    """
    if d == 0:
        raise ParameterError("the tail limit of psi requires d != 0")
    return Fraction(*_psi_limit_parts(d, e, f))


def _check_domain(d, e, f) -> None:
    """Raise ParameterError at the first integer point (d, e, f), of ints or int
    arrays, outside 4*d*f - e^2 > 0, d > 0, f > 0; no positive factor changes that."""
    outside = (core._guard(d, e, f) <= 0) | (d <= 0) | (f <= 0)
    if np.any(outside):
        raise ParameterError(f"(d, e, f) proportional to {_first_at(outside, d, e, f)} "
                             "must satisfy 4*d*f - e^2 > 0, d > 0 and f > 0")


def _check_regular(d, e, f) -> None:
    """`core._check_regular_point` at the first point of d = f, e = 0, if any."""
    singular = (d == f) & (e == 0)
    if np.any(singular):
        core._check_regular_point(*_first_at(singular, d, e, f))


def _exact_residual(residual, *args) -> tuple:
    """(num, den) = residual(*args), each part an int or an object array of ints;
    any other element raises TypeError, naming the first. Each part is checked
    over its own elements, before any broadcast."""
    num, den = residual(*args)
    for part in (num, den):
        for v in part.flat if type(part) is np.ndarray else (part,):
            if type(v) is not int:
                raise TypeError(f"the exact check produced an inexact residual part {v!r}")
    return num, den


def _at_rational(residual, degree: int, d, e, f, *rest) -> Fraction:
    """The residual of the integer-point core `residual` at a rational point, one Fraction.

    The core runs at D*(d, e, f), D the least common denominator of (d, e, f), with
    the rest of the point (x) as it is. Its residual is homogeneous of `degree` in
    (d, e, f), so the one found there is D**degree times the one at (d, e, f).
    """
    (d, e, f), D = _clear((d, e, f))
    num, den = _exact_residual(residual, d, e, f, *rest)
    return Fraction(num, den * D**degree) if degree >= 0 else Fraction(num * D**-degree, den)


def verify_telescoping(d, e, f, x) -> Fraction:
    """Exact residual L[dphi/dd] - dpsi/dx at a rational point, zero if the certificate
    data is a valid telescoping pair for dphi/dd: `residual_telescoping`, of degree 2
    in (d, e, f) at fixed x (c3..c0 have degrees 6..3, the k-th d-derivative of
    dphi/dd degree -1-k, P degree 5)."""
    return _at_rational(residual_telescoping, 2, d, e, f, x)


def residual_telescoping(d, e, f, x) -> tuple:
    """(num, den) of L[dphi/dd] - dpsi/dx at an integer point (d, e, f) and a rational
    x, or elementwise for int arrays (d, e, f, x) of one grid.

    The operator and P have int coefficients there, and x enters the d-jet as a
    constant jet, so L[dphi/dd] is an int over the d-jet's denominator
    (`apply_operator`), dpsi/dx an int over the x-jet's, and their difference one
    int over the product.
    """
    _check_domain(d, e, f)
    lhs, lhs_den = apply_operator(d, e, f, phi_partial_d(Jet.variable(d, 3), e, f,
                                                         Jet.constant(x, 3)))
    rhs = psi(d, e, f, Jet.variable(x, 1))
    rhs_den = rhs.denominator
    return lhs * rhs_den - rhs.derivative_numerator(1) * lhs_den, lhs_den * rhs_den


def verify_ode_dadd(d, e, f) -> Fraction:
    """Exact residual of L[dA/dd / pi] at a rational point whose discriminant
    4*d*f - e^2 is m^2 for a rational m > 0: `residual_ode_dadd`, of degree 2, as
    dA/dd / pi has degree -1. D*m is an int, as (D*m)^2 = 4*(D*d)*(D*f) - (D*e)^2."""
    return _at_rational(residual_ode_dadd, 2, d, e, f)


def residual_ode_dadd(d, e, f) -> tuple:
    """(num, den) of L[dA/dd / pi] at an integer point (d, e, f) with square
    discriminant, or elementwise for int arrays of one grid.

    dA/dd / pi is core's formula, the one integral_a_dd runs, on a d-jet: `Jet.sqrt`
    finds the integer head m, so every Taylor coefficient stays rational. L is
    linear, so L[dA/dd] = 0 iff L[dA/dd / pi] = 0. Points on the singular set
    d = f, e = 0 are rejected, as the paper's form of dA/dd is undefined there and
    integral_a_dd raises there.
    """
    _check_domain(d, e, f)
    _check_regular(d, e, f)
    num, den = core._dadd_over_pi(Jet.variable(d, 3), e, f, Jet.sqrt)
    return apply_operator(d, e, f, num / den)


def _residue_gap(d, e, f, m, dadd):
    """(numerator, denominator) of Re(2i*(Res_i + Res_rho)) - num/den, (num, den) = dadd.

    The residues are those of x^2 / (q(x) * (x^2 + 1)) at i and
    rho = (-e + i*m) / (2*d), on Gaussian integers as (real, imaginary)
    parts: 2i*Res_i = -1/q(i), q(i) = (f - d) + i*e, and 2i*Res_rho =
    2*rho^2 / (m*(rho^2 + 1)) as q'(rho) = i*m, with 4*d^2*rho^2 = a + i*b
    and 4*d^2*(rho^2 + 1) = c + i*b; Re(u/v) = Re(u*conj(v)) / |v|^2.
    Only + - * are used, so the same lines run on ints and on `_Degrees`.
    """
    g = core._g3(d, e, f)  # |q(i)|^2
    a, b = e * e - m * m, -2 * e * m
    c = a + 4 * d * d
    h = c * c + b * b
    num, den = dadd
    return ((2 * (a * c + b * b) * g - (f - d) * m * h) * den - num * g * m * h,
            g * m * h * den)


def verify_dadd_residues(d, e, f) -> Fraction:
    """Exact residual of core's dA/dd against the residue theorem at a rational point
    with square discriminant 4*d*f - e^2 = m^2, m > 0: `residual_dadd_residues`, of
    degree -1."""
    return _at_rational(residual_dadd_residues, -1, d, e, f)


def residual_dadd_residues(d, e, f) -> tuple:
    """(num, den) of Re(2i*(Res_i + Res_rho)) - dA/dd / pi at an integer point (d, e, f)
    with square discriminant, or elementwise for int arrays of one grid.

    The integrand x^2 / (q(x) * (x^2 + 1)) of dA/dd has simple poles at i and
    rho = (-e + i*m)/(2*d) in the upper half-plane, so dA/dd = 2*pi*i*(Res_i + Res_rho),
    and dA/dd / pi is the real part of 2i*(Res_i + Res_rho) (`_residue_gap`); core's
    formula is `core._dadd_over_pi`, the one integral_a_dd runs. On the singular set
    d = f, e = 0, i is a double pole and SingularPointError is raised.
    """
    _check_domain(d, e, f)
    _check_regular(d, e, f)
    m = _root(core._guard(d, e, f), 1)[0]
    return _residue_gap(d, e, f, m, core._dadd_over_pi(d, e, f, lambda _: m))


def verify_tail_limit(d, e, f) -> Fraction:
    """Exact residual -2*p5/d^3 - psi_limit(d, e, f) at a rational point, p5 the x^5
    coefficient of the shipped P: `residual_tail_limit`, of degree 2."""
    return _at_rational(residual_tail_limit, 2, d, e, f)


def residual_tail_limit(d, e, f) -> tuple:
    """(num, den) of -2*p5/d^3 - psi_limit at an integer point (d, e, f), or
    elementwise for int arrays of one grid.

    With t = 1/x, psi(1/t) = -2*t^5*P(1/t) / ((d + e*t + f*t^2)^3 * (1 + t^2)),
    regular at t = 0 when P has x-degree at most 5 (`telescoping_degrees` reports
    that degree), so both tail limits of psi are -2*p5/d^3. p5 is read as the x^5
    Taylor coefficient of P at x = 0 from an x-jet of order 5; the limit is
    `psi_limit`'s own arithmetic (`_psi_limit_parts`).
    """
    _check_domain(d, e, f)
    p = certificate_polynomial(d, e, f, Jet.variable(0, 5))
    limit, limit_den = _psi_limit_parts(d, e, f)
    den = math.factorial(5) * p.denominator * d**3
    return -2 * p.derivative_numerator(5) * limit_den - limit * den, den * limit_den


def verify_g_factorization(d, e, f) -> Fraction:
    """Exact residual m*(G1*G2 - (d-f)^2 - e^2) at a rational point with square
    discriminant 4*d*f - e^2 = m^2, m > 0: `residual_g_factorization`, of degree 3."""
    return _at_rational(residual_g_factorization, 3, d, e, f)


def residual_g_factorization(d, e, f) -> tuple:
    """(num, den) of m*(G1*G2 - G3) at an integer point (d, e, f) with square
    discriminant m^2, or elementwise for int arrays of one grid, where
    G1,2 = d + f +/- m and G3 = (d-f)^2 + e^2.

    The identity turns (log G1 - log G2 + log G3)/2 into log G1 in the closed
    form of A. G1 and m are `core._g1`'s, the G1 whose log integral_a_canonical
    takes. On the singular set d = f, e = 0 both sides are 0.
    """
    _check_domain(d, e, f)
    return _g_gap(d, e, f, lambda guard: _root(guard, 1)[0]), 1


def _g_gap(d, e, f, sqrt):
    """m*(G1*G2 - G3) with G1 and m = sqrt(guard) from `core._g1` and G3 from `core._g3`.
    Only + - * are used, so the same lines run on ints and on `_Degrees`."""
    g1, m = core._g1(d, e, f, sqrt)
    return m * (g1 * (d + f - m) - core._g3(d, e, f))


# Greatest degrees of the monomials d^i e^j f^k s^l of a polynomial: i, j, k
# and l, and j + 2k and l + 2k, its degrees in e and m once f = (e^2 + m^2)/(4d)
# and s = m.
_Top = namedtuple("_Top", "d e f s sub_e sub_m")
_CONSTANT = _Top(0, 0, 0, 0, 0, 0)
_UNITS = (_Top(1, 0, 0, 0, 0, 0), _Top(0, 1, 0, 0, 1, 0), _Top(0, 0, 1, 0, 2, 2),
          _Top(0, 0, 0, 1, 0, 1))


def _parity_sum(a, b):
    """Parity in e of a product of polynomials of parities a and b (None: mixed)."""
    return None if a is None or b is None else (a + b) % 2


class _Degrees:
    """Degree bounds of a polynomial in (d, e, f, s), carried through + - * and **.

    `top` bounds the monomials' degrees (`_Top`); `lo` and `hi` bound
    their total degree in (d, e, f, s), where s counts with the degree it
    was made with: 0 for x, 1 for m = sqrt(4*d*f - e^2). lo == hi means
    homogeneous. `parity` is that of every monomial's degree in e: 0 even,
    1 odd, None mixed; e is odd and d, f, s and int constants are even, so
    it holds after f = (e^2 + m^2)/(4d) too. `least_s` bounds the
    monomials' degree in s from below, so s^least_s divides the polynomial,
    and m^least_s divides it after that substitution, as f brings no factor
    m. Bounds ignore cancellation: top and hi can exceed the true degrees,
    lo and least_s fall short of them, never the other way round, and no
    cancellation breaks a parity. The int 0 stands for the zero
    polynomial, any other int for a constant.
    """

    __slots__ = ("top", "lo", "hi", "parity", "least_s")

    def __init__(self, top: _Top, lo: int, hi: int, parity, least_s: int):
        self.top, self.lo, self.hi, self.parity, self.least_s = top, lo, hi, parity, least_s

    @classmethod
    def variables(cls, s_degree: int) -> tuple:
        return tuple(cls(unit, t, t, parity, least)
                     for unit, t, parity, least in zip(_UNITS, (1, 1, 1, s_degree), (0, 1, 0, 0),
                                                       (0, 0, 0, 1)))

    @property
    def homogeneous(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other):
        if type(other) is int:
            if other == 0:
                return self
            other = _Degrees(_CONSTANT, 0, 0, 0, 0)
        _refuse_inexact(other)
        return _Degrees(_Top._make(map(max, self.top, other.top)),
                        min(self.lo, other.lo), max(self.hi, other.hi),
                        self.parity if self.parity == other.parity else None,
                        min(self.least_s, other.least_s))

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if type(other) is int:
            return self if other else 0
        _refuse_inexact(other)
        return _Degrees(_Top._make(map(operator.add, self.top, other.top)),
                        self.lo + other.lo, self.hi + other.hi,
                        _parity_sum(self.parity, other.parity), self.least_s + other.least_s)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        # Every bound of p^n is n times p's: what n - 1 products would give.
        if exponent == 0:
            return 1
        return _Degrees(_Top._make(map(exponent.__mul__, self.top)),
                        exponent * self.lo, exponent * self.hi,
                        None if self.parity is None else exponent * self.parity % 2,
                        exponent * self.least_s)


def _refuse_inexact(other) -> None:
    """A polynomial with a coefficient that is not an int has no exact check: TypeError."""
    if type(other) is not _Degrees:
        raise TypeError(f"the degree bounds take int coefficients, got {other!r}")


def _diff(p, var: _Degrees):
    """Bounds of dp/dvar, var one of `_Degrees.variables`: 0 where p has no var.
    Like a division by var, it moves the parity by var's and the least s-degree
    down by var's, to no lower than 0."""
    if type(p) is int or p.top[var.top.index(1)] == 0:
        return 0
    return _Degrees(_Top._make(map(operator.sub, p.top, var.top)), p.lo - var.lo, p.hi - var.hi,
                    _parity_sum(p.parity, var.parity), max(p.least_s - var.least_s, 0))


def telescoping_degrees() -> tuple[_Degrees, int, _Degrees]:
    """Degree bounds of the telescoping residual times q^4*(x^2+1)^2, from the
    shipped L and P; the x-degree of psi at infinity; and bounds of P with its
    x^5 coefficient, for `verify_tail_limit`.

    The k-th d-derivative of dphi/dd is (-1)^k k! x^(2k+2) / (q^(k+1) (x^2+1)),
    so L[dphi/dd] times q^4 (x^2+1)^2 is sum_k c_k (-1)^k k! x^(2k+2)
    q^(3-k) (x^2+1). psi = -2 n / (q^3 (x^2+1)) with n = x^3 P, and dpsi/dx
    times q^4 (x^2+1)^2 is n' q w - n (3 q' w + q w'), w = x^2+1. Its x-degree
    follows from psi's order o at infinity (d > 0 keeps q of x-degree 2):
    psi' has order o - 1, or at most -2 when o <= 0, as psi tends to a
    constant plus O(1/x) then.
    """
    d, e, f, x = _Degrees.variables(0)
    q, w = core._quadratic(d, e, f, x), core._quadratic(1, 0, 1, x)
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    lhs = 0
    for k, ck in enumerate((c0, c1, c2, c3)):
        lhs = lhs + ck * x ** (2 * k + 2) * q ** (3 - k) * w
    polynomial = certificate_polynomial(d, e, f, x)
    n = x**3 * polynomial
    order = n.top.s - (q**3 * w).top.s
    rhs = _diff(n, x) * q * w - n * (3 * _diff(q, x) * w + q * _diff(w, x))
    rhs.top = rhs.top._replace(s=(q**4 * w**2).top.s + (order - 1 if order > 0 else -2))
    return lhs + rhs, order, polynomial + _leading_coefficient(d, e, f)


def ode_degrees() -> _Degrees:
    """Degree bounds of L[dA/dd / pi], cleared, from the shipped L and `core._dadd_over_pi`.

    With dA/dd / pi = num/den, polynomials in (d, e, f, m) for m = sqrt(4*d*f - e^2),
    and dm/dd = 2f/m along d, the k-th d-derivative is p_k / (m^(2k) den^(k+1)) with
    p_0 = num and p_(k+1) = m^2 den dp_k/dd + 2 f m den dp_k/dm - 4k f den p_k
    - (k+1) m rho p_k, where rho = m dden/dd = m d_d den + 2 f d_m den. So L[dA/dd / pi]
    times m^6 den^4 is sum_k c_k p_k m^(6-2k) den^(3-k). For the shipped formulas it
    is even in e, and m^3 divides it: den = m*(d + f + m) brings a factor m to every
    term of the recursion, so m^k divides p_k, and c3*p3 has the fewest.
    """
    d, e, f, m = _Degrees.variables(1)
    num, den = core._dadd_over_pi(d, e, f, lambda _: m)
    rho = m * _diff(den, d) + 2 * f * _diff(den, m)
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    p, cleared = num, 0
    for k, ck in enumerate((c0, c1, c2, c3)):
        cleared = cleared + ck * p * m ** (6 - 2 * k) * den ** (3 - k)
        p = (m * m * den * _diff(p, d) + 2 * f * m * den * _diff(p, m)
             - 4 * k * f * den * p - (k + 1) * m * rho * p)
    return cleared


def residue_degrees() -> _Degrees:
    """Degree bounds of the numerator of `_residue_gap` for core's dA/dd. For the
    shipped formulas it is even in e, as b = -2*e*m, its one odd part, enters only
    squared, and m divides it, as one term carries den = m*(d + f + m) and the
    other m."""
    d, e, f, m = _Degrees.variables(1)
    return _residue_gap(d, e, f, m, core._dadd_over_pi(d, e, f, lambda _: m))[0]


def g_factorization_degrees() -> _Degrees:
    """Degree bounds of `residual_g_factorization`'s numerator, from core's `_g1` and
    `_g3`. It is homogeneous of degree 3, even in e, as e enters only as e^2, and m
    divides it, as its outer factor."""
    d, e, f, m = _Degrees.variables(1)
    return _g_gap(d, e, f, lambda _: m)


def verify_integration_constant() -> tuple[tuple[float, float, float], ...]:
    """(d, e, |closed - quadrature|) at nine points, for the integration constant
    in A(1,0,1; d,e,f) = pi*log(G1) + const, which should be zero.

    The primitive of dA/dd determines A only up to a function of (e, f),
    already known to be an additive constant. Here the closed form
    pi*log(d + f + sqrt(4*d*f - e^2)) is compared against the quadrature
    oracle on the grid d = f in {1, 2, 5}, e in {0, d, 3*d/2}, at the
    default quadrature tolerances; any nonzero constant would show up as a
    common offset in every deviation.
    """
    weight = PositiveQuadratic(1.0, 0.0, 1.0)
    cases = []
    for d in (1.0, 2.0, 5.0):
        for e in (0.0, d, 1.5 * d):
            closed = integral_a_canonical(d, e, d)
            numeric = integral_a_numeric(weight, PositiveQuadratic(d, e, d))
            cases.append((d, e, abs(closed - numeric.value)))
    return tuple(cases)
