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
numerator polynomial P of psi) and *verifies* the claims instead of
trusting them:

* the telescoping relation is evaluated in exact rational arithmetic at
  arbitrary rational points (d,e,f,x), combining a d-jet of order 3 with
  an x-jet of order 1; the residual must be exactly zero;
* the ODE L[dA/dd] = 0 is checked exactly at rational points whose
  discriminant 4*d*f - e^2 is a rational square m^2, so the square-root
  jet stays in Q;
* the tail limits of psi, the vanishing integration constant and the
  factorization G1*G2 = (d-f)^2 + e^2 behind the final log simplification
  are checked numerically against the quadrature oracle.

Both sides of each exact identity are fixed rational functions of
(d,e,f,x); agreement at a single generic point is already strong
evidence, and the verification suites evaluate hundreds of random
points. Any nonzero residual disproves the transcription and is
reported, never patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import PositiveQuadratic, integral_a_canonical
from .errors import ParameterError, SingularPointError
from .jets import Jet
from .oracle import integral_a_numeric

__all__ = [
    "rational_sqrt",
    "phi_partial_d",
    "operator_coefficients",
    "apply_operator",
    "certificate_polynomial",
    "psi",
    "psi_limit",
    "verify_telescoping",
    "verify_ode_dadd",
    "verify_integration_constant",
    "verify_g_factorization",
    "ConstantZeroReport",
    "GFactorizationReport",
]


def rational_sqrt(value: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, if one exists."""
    value = Fraction(value)
    if value < 0:
        raise ParameterError(f"cannot take a rational square root of {value!r}")
    rn = isqrt(value.numerator)
    rd = isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        raise ParameterError(f"{value!r} is not the square of a rational")
    return Fraction(rn, rd)


def phi_partial_d(d, e, f, x):
    """dphi/dd = x^2 / ((d*x^2 + e*x + f) * (x^2 + 1)).

    Polymorphic over the scalar domain: exact with Fraction arguments,
    and `d` may be a Jet to propagate derivatives in d.
    """
    return x * x / ((d * (x * x) + e * x + f) * (x * x + 1))


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


def apply_operator(d, e, f, y: Jet):
    """L[y] for a d-jet y of order >= 3 expanded at d."""
    if y.order < 3:
        raise ParameterError(f"the operator needs a jet of order >= 3, got {y.order}")
    c3, c2, c1, c0 = operator_coefficients(d, e, f)
    return (c3 * y.derivative(3) + c2 * y.derivative(2)
            + c1 * y.derivative(1) + c0 * y.derivative(0))


def certificate_polynomial(d, e, f, x):
    """The degree-5 polynomial P(d,e,f; x) in the numerator of psi."""
    return (
        e * (d**2 * f**2 - 4 * d * e**2 * f - 9 * d * f**3 - e**4 - 7 * e**2 * f**2 - 6 * f**4) * x**5
        - 3 * f * (3 * d * e**2 * f + 4 * d * f**3 + 2 * e**4 + 11 * e**2 * f**2 + 4 * f**4) * x**4
        + e * (d**2 * f**2 - 4 * d * e**2 * f - 18 * d * f**3 - e**4 - 16 * e**2 * f**2 - 51 * f**4) * x**3
        - f * (9 * d * e**2 * f + 16 * d * f**3 + 6 * e**4 + 37 * e**2 * f**2 + 32 * f**4) * x**2
        - 9 * e * f**2 * (d * f + e**2 + 5 * f**2) * x
        - 4 * f**3 * (d * f + e**2 + 5 * f**2)
    )


def psi(d, e, f, x):
    """The certificate  psi = -2*x*P / (d*x^2+e*x+f)^2 * dphi/dd."""
    q = d * (x * x) + e * x + f
    return -2 * x * certificate_polynomial(d, e, f, x) / (q * q) * phi_partial_d(d, e, f, x)


def psi_limit(d, e, f):
    """Common limit of psi at x -> +oo and x -> -oo:

        -2*e*(d^2*f^2 - 4*d*e^2*f - 9*d*f^3 - e^4 - 7*e^2*f^2 - 6*f^4) / d^3.
    """
    if d == 0:
        raise ParameterError("the tail limit of psi requires d != 0")
    return -2 * e * (d**2 * f**2 - 4 * d * e**2 * f - 9 * d * f**3
                     - e**4 - 7 * e**2 * f**2 - 6 * f**4) / d**3


def _rational_triple(d, e, f) -> tuple[Fraction, Fraction, Fraction]:
    d, e, f = Fraction(d), Fraction(e), Fraction(f)
    if 4 * d * f - e * e <= 0:
        raise ParameterError(
            f"(d, e, f) = ({d}, {e}, {f}) must satisfy 4*d*f - e^2 > 0"
        )
    if d <= 0 or f <= 0:
        raise ParameterError(f"d and f must be positive, got {d}, {f}")
    return d, e, f


def verify_telescoping(d, e, f, x) -> Fraction:
    """Exact residual  L[dphi/dd] - dpsi/dx  at a rational point.

    Returns a Fraction that must be exactly zero if the certificate data
    is a valid telescoping pair for dphi/dd.
    """
    d, e, f = _rational_triple(d, e, f)
    x = Fraction(x)
    d_jet = Jet.variable(d, 3)
    lhs = apply_operator(d, e, f, phi_partial_d(d_jet, e, f, x))
    x_jet = Jet.variable(x, 1)
    rhs = psi(d, e, f, x_jet).derivative(1)
    return lhs - rhs


def verify_ode_dadd(d, e, f) -> Fraction:
    """Exact residual of L[dA/dd] at a rational point with square discriminant.

    Requires 4*d*f - e^2 = m^2 for a rational m > 0, so the square-root
    jet seeded with m keeps every Taylor coefficient of dA/dd rational.
    The constant factor pi is dropped: L is linear, so L[dA/dd] = 0 iff
    L[dA/dd / pi] = 0. Points on the singular set d = f, e = 0 are
    rejected, as the closed form of dA/dd is undefined there.
    """
    d, e, f = _rational_triple(d, e, f)
    if d == f and e == 0:
        raise SingularPointError(
            f"(d, e, f) = ({d}, {e}, {f}) lies on the singular set d = f, e = 0"
        )
    m = rational_sqrt(4 * d * f - e * e)
    d_jet = Jet.variable(d, 3)
    disc = 4 * d_jet * f - e * e
    root = disc.sqrt(head=m)
    g3 = (d_jet - f) * (d_jet - f) + e * e
    numerator = (d_jet - f) * disc + (-2 * d_jet * f + e * e + 2 * f * f) * root
    da_dd_over_pi = numerator / (g3 * disc)
    return apply_operator(d, e, f, da_dd_over_pi)


@dataclass(frozen=True)
class ConstantZeroReport:
    """Outcome of the integration-constant check."""

    cases: tuple[tuple[float, float, float], ...]  # (d, e, deviation)
    max_deviation: float
    tolerance: float
    passed: bool


def verify_integration_constant() -> ConstantZeroReport:
    """Confirm the integration constant in A(1,0,1; d,e,f) = pi*log(G1) + const is zero.

    The primitive of dA/dd determines A only up to a function of (e, f),
    already known to be an additive constant. Here the closed form
    pi*log(d + f + sqrt(4*d*f - e^2)) is compared against the quadrature
    oracle on the grid d = f in {1, 2, 5}, e in {0, d, 3*d/2}, at the
    default quadrature tolerances; any nonzero constant would show up as a
    common offset above the 1e-8 tolerance.
    """
    tolerance = 1e-8
    weight = PositiveQuadratic(1.0, 0.0, 1.0)
    cases = []
    worst = 0.0
    for d in (1.0, 2.0, 5.0):
        for e in (0.0, d, 1.5 * d):
            closed = integral_a_canonical(d, e, d)
            numeric = integral_a_numeric(weight, PositiveQuadratic(d, e, d))
            deviation = abs(closed - numeric.value)
            worst = max(worst, deviation)
            cases.append((d, e, deviation))
    return ConstantZeroReport(tuple(cases), worst, tolerance, worst <= tolerance)


@dataclass(frozen=True)
class GFactorizationReport:
    """Outcome of the factor check G1 * G2 = (d - f)^2 + e^2."""

    g1: float
    g2: float
    g3: float
    residual: float
    tolerance: float
    positivity_checked: bool
    positivity_ok: bool
    passed: bool


def verify_g_factorization(d: float, e: float, f: float) -> GFactorizationReport:
    """Check G1*G2 = G3 for G1,2 = d + f +/- sqrt(4*d*f - e^2), G3 = (d-f)^2 + e^2.

    This identity justifies replacing (log G1 - log G2 + log G3)/2 by
    log G1 in the closed form of A. The tolerance tracks the floating
    sqrt: |fl(G1*G2) - G3| is of order eps*(d+f)^2, with a floor of 1e-12
    for unit-scale inputs. Positivity of G1 and G2 holds strictly for
    every valid quadratic except on the boundary d = f, e = 0, where
    G2 = 0 and the sub-check is skipped.
    """
    q = PositiveQuadratic(d, e, f)
    d, e, f = q.a, q.b, q.c
    r = math.sqrt(q.discriminant_guard)
    g1 = d + f + r
    g2 = d + f - r
    g3 = (d - f) * (d - f) + e * e
    residual = abs(g1 * g2 - g3)
    tolerance = max(4.0 * math.ulp(max(g3, (d + f) * (d + f))), 1e-12 * max(1.0, g3))
    boundary = d == f and e == 0.0
    positivity_ok = True if boundary else (g1 > 0.0 and g2 > 0.0)
    return GFactorizationReport(
        g1=g1,
        g2=g2,
        g3=g3,
        residual=residual,
        tolerance=tolerance,
        positivity_checked=not boundary,
        positivity_ok=positivity_ok,
        passed=residual <= tolerance and positivity_ok,
    )
