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
numerator polynomial P of psi) and *proves* the claims. Each identity is
one between two sides, a/b = c/d, each side a numerator over a
denominator, and the classical exact zero test of a rational identity
applies: clear the denominators, a*d - c*b = 0. The unchecked bodies
(`_telescoping_sides`, `_tail_sides`, `_ode_sides`, `_residue_sides`,
`_g_sides`) return the two sides, using only + - *, jets and one exact
square root, and jet division is fraction-free, so they run unchanged on
exact polynomials (`jets._Poly`). Sides whose cross difference is the
zero polynomial, over denominators that are not, prove the identity
outright, with no degree bound and no grid (`suites._prove_polynomial`).
The identities proved so are

* the telescoping relation, on a d-jet of order 3 and an x-jet of order 1
  (`verify_telescoping`), in Z[d, e, f, x];
* the tail limits: psi(1/t) is regular at t = 0 when psi has x-degree at
  most 0 at infinity, which the certificate suite reads from dpsi/dx on
  the telescoping proof's x-jet, so both limits are -2*p5/d^3, which
  `psi_limit` must equal (`verify_tail_limit`), in Z[d, e, f];
* the ODE L[dA/dd] = 0 for core's dA/dd formula, at points whose
  discriminant 4*d*f - e^2 is a rational square m^2, so the square-root
  jet stays in Q (`verify_ode_dadd`);
* that formula against the residue theorem, the one outside fact
  (Bronstein, Symbolic Integration I, Springer 2005, ch. 2): dA/dd is
  2*pi*i times the residues at i and (-e + i*m)/(2*d)
  (`verify_dadd_residues`);
* the factorization G1*G2 = (d-f)^2 + e^2 behind the final log
  simplification (`verify_g_factorization`).

The last three run in Z[d, e, m] at (d, e, f) = (4d^2, 4de, e^2 + m^2), 4d
times every point with square discriminant, where the guard is (4dm)^2
(`suites._scaled_point`).

These run core's own formulas, not copies: the guard (`core._guard`) in
every domain check and square root, q(x) and x^2 + 1 (`core._quadratic`)
in phi_partial_d and psi, G3 (`core._g3`) in the residue check and, with
G1 and m (`core._g1`), in the factorization, and dA/dd / pi
(`core._dadd_over_pi`) in the ODE and residue checks, with m the exact
root of the guard (`jets._root`, `Jet.sqrt`).

Each public scalar check `verify_*` checks its point, ints or Fractions,
runs the same body there and returns a/b - c/d as one Fraction. A failing
proof names as its witness the first small integer point where that check
returns a nonzero residual (`suites._prove_polynomial`), so the failure
reproduces with one call. The vanishing
integration constant, the one float check left, is cross-checked against
the quadrature oracle: `verify_integration_constant` returns the
deviation at each of its nine points, and the ode suite judges them at
1e-8. Any nonzero residual disproves the transcription and is reported,
never patched.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import core
from .core import PositiveQuadratic, integral_a_canonical
from .errors import ParameterError
from .jets import Jet, _root, _split
from .oracle import integral_a_numeric

__all__ = [
    "phi_partial_d", "operator_coefficients", "apply_operator", "certificate_polynomial",
    "psi", "psi_limit",
    "verify_telescoping", "verify_ode_dadd", "verify_dadd_residues", "verify_tail_limit",
    "verify_integration_constant", "verify_g_factorization",
]


def phi_partial_d(d, e, f, x):
    """dphi/dd = x^2 / ((d*x^2 + e*x + f) * (x^2 + 1)).

    Polymorphic over the scalar domain: exact with Fraction arguments,
    and `d` may be a Jet to propagate derivatives in d.
    """
    return x * x / (core._quadratic(d, e, f, x) * core._quadratic(1, 0, 1, x))


def _powers(d, e, f) -> tuple:
    """(e^2, f^2, d^2, e^4, f^3, d*f), formed once for each certificate polynomial."""
    e2, f2 = e * e, f * f
    return e2, f2, d * d, e2 * e2, f2 * f, d * f


def operator_coefficients(d, e, f) -> tuple:
    """Coefficients (c3, c2, c1, c0) of the telescoping operator

        L[y] = c3 * y''' + c2 * y'' + c1 * y' + c0 * y   (derivatives in d),

    each term as transcribed, over powers formed once (`_powers`).
    """
    e2, f2, d2, e4, f3, df = _powers(d, e, f)
    c3 = (2 * df + e2 + 6 * f2) * (4 * df - e2) * (d2 - 2 * df + e2 + f2)
    c2 = (60 * d2 * df * f + 24 * d2 * e2 * f + 132 * d2 * f3
          - 6 * d * e4 - 60 * df * e2 * f - 252 * df * f3
          + 18 * e4 * f + 108 * e2 * f3 + 60 * f3 * f2)
    c1 = (96 * df * df + 60 * df * e2 + 336 * df * f2
          - 6 * e4 - 84 * e2 * f2 - 240 * f2 * f2)
    c0 = 24 * (df + e2 + 5 * f2) * f
    return c3, c2, c1, c0


def apply_operator(d, e, f, y: Jet) -> tuple:
    """L[y] = n / den for a d-jet y of order >= 3 expanded at the point (d, e, f).

    With y's coefficients num_k / den, the numerator n = sum_k c_k * k! * num_k is
    one sum, of ints at an integer point, of Fractions at a rational one and of
    polynomials at a symbolic one: the pair (n, den) is returned, not their quotient.
    """
    if y.order < 3:
        raise ParameterError(f"the operator needs a jet of order >= 3, got {y.order}")
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    n = (c3 * y.derivative_numerator(3) + c2 * y.derivative_numerator(2)
         + c1 * y.derivative_numerator(1) + c0 * y.derivative_numerator(0))
    return n, y.denominator


def _leading_coefficient(d, e, f, powers=None):
    """The x^5 coefficient p5 of P, over `powers` = `_powers(d, e, f)` if given."""
    e2, f2, d2, e4, f3, df = powers or _powers(d, e, f)
    return e * (d2 * f2 - 4 * df * e2 - 9 * df * f2 - e4 - 7 * e2 * f2 - 6 * f2 * f2)


def certificate_polynomial(d, e, f, x):
    """The degree-5 polynomial P(d,e,f; x) = sum_k p_k * x^k in the numerator of psi,
    by Horner's rule in x: each p_k as transcribed, over the powers of `_powers`,
    with d*f + e^2 + 5*f^2, common to p1 and p0, formed once."""
    powers = e2, f2, d2, e4, f3, df = _powers(d, e, f)
    s = df + e2 + 5 * f2
    p5 = _leading_coefficient(d, e, f, powers)
    p4 = -3 * f * (3 * df * e2 + 4 * df * f2 + 2 * e4 + 11 * e2 * f2 + 4 * f2 * f2)
    p3 = e * (d2 * f2 - 4 * df * e2 - 18 * df * f2 - e4 - 16 * e2 * f2 - 51 * f2 * f2)
    p2 = -f * (9 * df * e2 + 16 * df * f2 + 6 * e4 + 37 * e2 * f2 + 32 * f2 * f2)
    p1 = -9 * e * f2 * s
    p0 = -4 * f3 * s
    return ((((p5 * x + p4) * x + p3) * x + p2) * x + p1) * x + p0


def psi(d, e, f, x):
    """The certificate  psi = -2*x*P / (d*x^2+e*x+f)^2 * dphi/dd."""
    q = core._quadratic(d, e, f, x)
    return -2 * x * certificate_polynomial(d, e, f, x) / (q * q) * phi_partial_d(d, e, f, x)


def _psi_limit_parts(d, e, f) -> tuple:
    """(-2*p5, d^3), the numerator and denominator of `psi_limit`."""
    return -2 * _leading_coefficient(d, e, f), d**3


def psi_limit(d, e, f) -> Fraction:
    """Common limit -2*p5/d^3 of psi at x -> -/+oo, p5 the x^5 coefficient of P,
    exact for int or rational (d, e, f)."""
    if d == 0:
        raise ParameterError("the tail limit of psi requires d != 0")
    return Fraction(*_psi_limit_parts(d, e, f))


def _check_domain(d, e, f) -> None:
    """Raise TypeError unless d, e and f are ints or Fractions, and ParameterError
    unless 4*d*f - e^2 > 0, d > 0 and f > 0."""
    for v in (d, e, f):
        if type(v) is not int and type(v) is not Fraction:
            raise TypeError(f"the exact checks take ints and Fractions, got {v!r}")
    if core._guard(d, e, f) <= 0 or d <= 0 or f <= 0:
        raise ParameterError(f"(d, e, f) = ({d}, {e}, {f}) "
                             "must satisfy 4*d*f - e^2 > 0, d > 0 and f > 0")


def _difference(sides) -> Fraction:
    """a/b - c/d of the sides (a, b) and (c, d) at a point, one Fraction; a part that
    is not an int or a Fraction raises TypeError."""
    (a, b), (c, d) = sides
    return Fraction(a * d - c * b, b * d)


def verify_telescoping(d, e, f, x) -> Fraction:
    """Exact residual L[dphi/dd] - dpsi/dx at a rational point, zero if the certificate
    data is a valid telescoping pair for dphi/dd: `_telescoping_sides` once the point
    is checked."""
    _check_domain(d, e, f)
    return _difference(_telescoping_sides(d, e, f, x))


def _telescoping_sides(d, e, f, x) -> tuple:
    """The sides (L[dphi/dd], its den) and (dpsi/dx, its den), unchecked, on ints,
    Fractions or `jets._Poly`.

    x enters the d-jet as a constant jet, so L[dphi/dd] is one sum over the d-jet's
    denominator (`apply_operator`), and dpsi/dx a numerator over the x-jet's.
    """
    lhs = apply_operator(d, e, f, phi_partial_d(Jet.variable(d, 3), e, f, Jet.constant(x, 3)))
    rhs = psi(d, e, f, Jet.variable(x, 1))
    return lhs, (rhs.derivative_numerator(1), rhs.denominator)


def verify_ode_dadd(d, e, f) -> Fraction:
    """Exact residual of L[dA/dd / pi] at a rational point whose discriminant
    4*d*f - e^2 is m^2 for a rational m > 0: `_ode_sides` once the point is checked.

    Points on the singular set d = f, e = 0 are rejected, as the paper's form of
    dA/dd is undefined there and integral_a_dd raises there.
    """
    _check_domain(d, e, f)
    core._check_regular_point(d, e, f)
    return _difference(_ode_sides(d, e, f))


def _ode_sides(d, e, f) -> tuple:
    """The sides (L[dA/dd / pi], its den) and 0, unchecked, on ints, Fractions or
    `jets._Poly`.

    dA/dd / pi is core's formula, the one integral_a_dd runs, on a d-jet: `Jet.sqrt`
    finds the head m, a rational or a polynomial, so every Taylor coefficient stays
    exact. L is linear, so L[dA/dd] = 0 iff L[dA/dd / pi] = 0.
    """
    num, den = core._dadd_over_pi(Jet.variable(d, 3), e, f, Jet.sqrt)
    return apply_operator(d, e, f, num / den), (0, 1)


def _square_root(guard):
    """m = sqrt(guard) of a square guard: an int, a Fraction or a `jets._Poly`."""
    p, q = _root(*_split(guard))
    return p if q == 1 else Fraction(p, q)


def _residue_sides(d, e, f):
    """The sides Re(2i*(Res_i + Res_rho)) and num/den, unchecked, each as (numerator,
    denominator), with m = sqrt(guard) and (num, den) = `core._dadd_over_pi`.

    The residues are those of x^2 / (q(x) * (x^2 + 1)) at i and
    rho = (-e + i*m) / (2*d), as (real, imaginary) parts: 2i*Res_i = -1/q(i),
    q(i) = (f - d) + i*e, and 2i*Res_rho = 2*rho^2 / (m*(rho^2 + 1)) as
    q'(rho) = i*m, with 4*d^2*rho^2 = a + i*b and 4*d^2*(rho^2 + 1) = c + i*b;
    Re(u/v) = Re(u*conj(v)) / |v|^2. Only + - * are used after the root, so
    the same lines run on ints, Fractions and `jets._Poly`.
    """
    m = _square_root(core._guard(d, e, f))
    g = core._g3(d, e, f)  # |q(i)|^2
    a, b = e * e - m * m, -2 * e * m
    c = a + 4 * d * d
    h = c * c + b * b
    return ((2 * (a * c + b * b) * g - (f - d) * m * h, g * m * h),
            core._dadd_over_pi(d, e, f, lambda _: m))


def verify_dadd_residues(d, e, f) -> Fraction:
    """Exact residual Re(2i*(Res_i + Res_rho)) - dA/dd / pi of core's dA/dd against the
    residue theorem at a rational point with square discriminant 4*d*f - e^2 = m^2,
    m > 0.

    The integrand x^2 / (q(x) * (x^2 + 1)) of dA/dd has simple poles at i and
    rho = (-e + i*m)/(2*d) in the upper half-plane, so dA/dd = 2*pi*i*(Res_i + Res_rho),
    and dA/dd / pi is the real part of 2i*(Res_i + Res_rho) (`_residue_sides`); core's
    formula is `core._dadd_over_pi`, the one integral_a_dd runs. On the singular set
    d = f, e = 0, i is a double pole and SingularPointError is raised.
    """
    _check_domain(d, e, f)
    core._check_regular_point(d, e, f)
    return _difference(_residue_sides(d, e, f))


def verify_tail_limit(d, e, f) -> Fraction:
    """Exact residual -2*p5/d^3 - psi_limit(d, e, f) at a rational point, p5 the x^5
    coefficient of the shipped P.

    With t = 1/x, psi(1/t) = -2*t^5*P(1/t) / ((d + e*t + f*t^2)^3 * (1 + t^2)),
    regular at t = 0 when psi has x-degree at most 0 at infinity (the certificate
    suite reads that degree from the shipped psi on its x-jet), so both tail limits
    of psi are -2*p5/d^3: `_tail_sides` once the point is checked.
    """
    _check_domain(d, e, f)
    return _difference(_tail_sides(d, e, f))


def _tail_sides(d, e, f) -> tuple:
    """The sides -2*p5/d^3 and psi_limit, unchecked, on ints, Fractions or `jets._Poly`.
    p5 is read as the x^5 Taylor coefficient of P at x = 0 from an x-jet of order 5;
    the limit is `psi_limit`'s own arithmetic (`_psi_limit_parts`).
    """
    p = certificate_polynomial(d, e, f, Jet.variable(0, 5))
    return ((-2 * p.derivative_numerator(5), math.factorial(5) * p.denominator * d**3),
            _psi_limit_parts(d, e, f))


def verify_g_factorization(d, e, f) -> Fraction:
    """Exact residual m*(G1*G2 - G3) at a rational point with square discriminant
    4*d*f - e^2 = m^2, m > 0, where G1,2 = d + f +/- m and G3 = (d-f)^2 + e^2.

    The identity turns (log G1 - log G2 + log G3)/2 into log G1 in the closed
    form of A. G1 and m are `core._g1`'s, the G1 whose log integral_a_canonical
    takes. On the singular set d = f, e = 0 both sides are 0.
    """
    _check_domain(d, e, f)
    return _difference(_g_sides(d, e, f))


def _g_sides(d, e, f) -> tuple:
    """The sides (m*G1*G2, 1) and (m*G3, 1), unchecked, with G1 and m = sqrt(guard)
    from `core._g1` and G3 from `core._g3`. Only + - * are used after the root, so
    the same lines run on ints, Fractions and `jets._Poly`."""
    g1, m = core._g1(d, e, f, _square_root)
    return (m * g1 * (d + f - m), 1), (m * core._g3(d, e, f), 1)


def verify_integration_constant() -> tuple[tuple[float, float, float], ...]:
    """(d, e, |closed - quadrature|) at nine points, for the integration constant
    in A(1,0,1; d,e,f) = pi*log(G1) + const, which should be zero.

    The primitive of dA/dd determines A only up to a function of (e, f), and
    nothing in the program proves that function constant: this is a float
    spot check at 9 points, all with d = f (ROADMAP item 15 proves it exactly
    through the gradient). The closed form pi*log(d + f + sqrt(4*d*f - e^2))
    is compared against the quadrature oracle on the grid d = f in
    {1, 2, 5}, e in {0, d, 3*d/2}, at the default quadrature tolerances.
    """
    weight = PositiveQuadratic(1.0, 0.0, 1.0)
    cases = []
    for d in (1.0, 2.0, 5.0):
        for e in (0.0, d, 1.5 * d):
            closed = integral_a_canonical(d, e, d)
            numeric = integral_a_numeric(weight, PositiveQuadratic(d, e, d))
            cases.append((d, e, abs(closed - numeric.value)))
    return tuple(cases)
