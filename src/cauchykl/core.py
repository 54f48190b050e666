"""Closed-form divergences between Cauchy distributions.

The Cauchy density with location l and scale s > 0 is

    p_{l,s}(x) = s / (pi * (s^2 + (x - l)^2)).

Every information-theoretic quantity handled here reduces to the
six-parameter definite integral

    A(a,b,c; d,e,f) = integral over R of log(d*x^2 + e*x + f) / (a*x^2 + b*x + c) dx,

taken over pairs of *positive quadratics* (leading and constant
coefficients positive, discriminant guard 4*a*c - b^2 > 0, so the
quadratic has no real root). Its closed form is

    A(a,b,c; d,e,f) = 2*pi * (log(2*a*f - b*e + 2*c*d + sqrt(4*a*c - b^2) * sqrt(4*d*f - e^2))
                              - log(2*a)) / sqrt(4*a*c - b^2),

and in the canonical case (a,b,c) = (1,0,1) it collapses to

    A(1,0,1; d,e,f) = pi * log(d + f + sqrt(4*d*f - e^2)).

From A one gets the cross-entropy, the differential entropy
h(p_{l,s}) = log(4*pi*s), and the headline divergence formula

    KL(p_{l1,s1} : p_{l2,s2}) = log( ((s1+s2)^2 + (l1-l2)^2) / (4*s1*s2) ),

which is finite for every parameter pair and symmetric under exchange;
kl_closed evaluates it as log1p(((l1-l2)^2 + (s1-s2)^2) / (4*s1*s2)).
Each closed form is computed by a float entry point (`kl_floats`,
`cross_entropy_floats`, `entropy_floats`, `integral_a_floats`,
`prudnikov_floats`) that takes finite floats and checks only the domain;
the functions of `CauchyDist` and `PositiveQuadratic` are one-line
wrappers over them. Also provided: the reduction A(a,b,c; .) =
K * A(1,0,1; D,E,F), dA/dd of the canonical integral, and a primitive B
of the differentiated integrand.

Each closed form is a constant times the log of one expression, formed
in one function from + - * (prudnikov's also max, min and a division)
and a square root the caller passes in: `_guard` (4*a*c - b^2, read by
every domain check), `_g1` (G1 and its root), `_integral_a_arg` (A's
num/den, given both roots), `_prudnikov_arg`, and for KL and
cross-entropy `_scaled_ratio`, which scales by powers of two where a
term would leave the normal range, so KL, cross-entropy and entropy hold
over every finite input. q(x) by Horner's rule (`_quadratic`; x^2 + 1 is
`_quadratic(1, 0, 1, x)`) and G3 = (d-f)^2 + e^2 = G1*G2 (`_g3`), read by
PositiveQuadratic and primitive B, are formed once too. The float kernels
run these with math.sqrt; `cauchykl.certificate` runs `_quadratic`, `_guard`,
`_g1`, `_g3` and `_dadd_over_pi` (dA/dd / pi) on ints, int grids, jets and
degree bounds; `cauchykl.oracle` has the numerical counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SingularPointError

__all__ = [
    "CauchyDist", "PositiveQuadratic", "CanonicalReduction", "density", "quantile",
    "kl_closed", "cross_entropy_closed", "entropy_closed",
    "kl_floats", "cross_entropy_floats", "entropy_floats",
    "kl_scale_family", "kl_location_family", "standardize_pair",
    "integral_a", "integral_a_floats", "integral_a_canonical", "canonical_reduce",
    "integral_a_dd", "primitive_b", "prudnikov_special", "prudnikov_floats",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_scale(scale: float) -> None:
    """The domain check of CauchyDist: scale > 0."""
    if scale <= 0.0:
        raise ParameterError(f"scale must be positive, got {scale!r}")


def _quadratic(a, b, c, x):
    """q(x) = a*x^2 + b*x + c by Horner's rule; x^2 + 1 is _quadratic(1, 0, 1, x)."""
    return (a * x + b) * x + c


def _guard(a, b, c):
    """The discriminant guard 4*a*c - b^2 of the quadratic a*x^2 + b*x + c."""
    return 4 * a * c - b * b


def _g3(d, e, f):
    """G3 = (d - f)^2 + e^2 = G1*G2, G2 = d + f - r: |q(i)|^2 for q = (d, e, f)."""
    return (d - f) * (d - f) + e * e


def _g1(d, e, f, sqrt):
    """(G1, r): G1 = d + f + r, the log argument of A(1,0,1; d,e,f)/pi, r = sqrt(guard)."""
    r = sqrt(_guard(d, e, f))
    return d + f + r, r


def _integral_a_arg(a, b, c, d, e, f, r1, r2):
    """(num, den) with A(a,b,c; d,e,f) = 2*pi*log(num/den)/r1, r1 and r2 the guards' roots."""
    return 2 * a * f - b * e + 2 * c * d + r1 * r2, 2 * a


def _prudnikov_arg(a, b, z, sqrt):
    """(big, u) with big^2 * (1 + u) = z^2 + 2*a*z*sqrt(1-b^2) + a^2, prudnikov's log argument.

    big = max(a, z), r = min(a, z)/big <= 1 and u = r*(2*sqrt(1-b^2) + r) in [0, 3]:
    the argument itself is never formed, so it cannot over- or underflow.
    """
    big = max(a, z)
    r = min(a, z) / big
    return big, r * (2 * sqrt((1 - b) * (1 + b)) + r)


def _require_quadratic(a: float, b: float, c: float) -> float:
    """PositiveQuadratic's domain check; returns the guard: > 0, or NaN if 4*a*c and b^2 overflow."""
    if a <= 0.0:
        raise ParameterError(f"leading coefficient must be positive, got {a!r}")
    if c <= 0.0:
        raise ParameterError(f"constant coefficient must be positive, got {c!r}")
    guard = _guard(a, b, c)
    # NaN when 4*a*c and b^2 both overflow: then |b|/2 < sqrt(a)*sqrt(c) decides.
    if not guard > 0.0 and (guard <= 0.0 or not abs(b) * 0.5 < math.sqrt(a) * math.sqrt(c)):
        raise ParameterError(
            f"quadratic ({a!r}, {b!r}, {c!r}) must satisfy 4*a*c - b^2 > 0, got {guard!r}"
        )
    return guard


@dataclass(frozen=True)
class CauchyDist:
    """A Cauchy distribution given by location and scale.

    Invariants: both fields finite, scale strictly positive. The standard
    distribution is CauchyDist(0.0, 1.0).
    """

    location: float
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _require_finite("location", self.location))
        object.__setattr__(self, "scale", _require_finite("scale", self.scale))
        _require_scale(self.scale)


@dataclass(frozen=True)
class PositiveQuadratic:
    """Coefficients (a, b, c) of a quadratic a*x^2 + b*x + c positive on R.

    Invariants: a > 0, c > 0 and 4*a*c - b^2 > 0. Quadratics with
    discriminant guard <= 0 are rejected outright: the closed forms below
    divide by sqrt(4*a*c - b^2) or take logs of expressions that vanish on
    that boundary.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_finite("a", self.a))
        object.__setattr__(self, "b", _require_finite("b", self.b))
        object.__setattr__(self, "c", _require_finite("c", self.c))
        _require_quadratic(self.a, self.b, self.c)

    @property
    def discriminant_guard(self) -> float:
        """4*a*c - b^2, strictly positive for a valid instance unless it overflows (NaN)."""
        return _guard(self.a, self.b, self.c)

    @property
    def vertex(self) -> float:
        """Abscissa -b/(2a) where the quadratic attains its minimum."""
        return -self.b / (2.0 * self.a)

    @property
    def half_width(self) -> float:
        """Scale sqrt(4*a*c - b^2)/(2a) of the quadratic around its vertex."""
        return math.sqrt(self.discriminant_guard) / (2.0 * self.a)

    def __call__(self, x: float) -> float:
        return _quadratic(self.a, self.b, self.c, x)

    @classmethod
    def from_cauchy(cls, dist: CauchyDist) -> "PositiveQuadratic":
        """The quadratic s^2 + (x - l)^2 appearing in the Cauchy density."""
        l, s = dist.location, dist.scale
        return cls(1.0, -2.0 * l, l * l + s * s)


@dataclass(frozen=True)
class CanonicalReduction:
    """Data (D, E, F, K) reducing A(a,b,c; d,e,f) to K * A(1,0,1; D,E,F)."""

    D: float
    E: float
    F: float
    K: float

    def __post_init__(self) -> None:
        self.reduced_quadratic()
        if _require_finite("K", self.K) <= 0.0:
            raise ParameterError(f"K must be positive, got {self.K!r}")

    def reduced_quadratic(self) -> PositiveQuadratic:
        return PositiveQuadratic(self.D, self.E, self.F)


def density(dist: CauchyDist, x: float) -> float:
    """Density s / (pi * (s^2 + (x - l)^2)); strictly positive on R."""
    u = x - dist.location
    return dist.scale / (math.pi * (dist.scale * dist.scale + u * u))


def quantile(dist: CauchyDist, u: float) -> float:
    """Inverse CDF l + s*tan(pi*(u - 1/2)) for u in the open interval (0, 1).

    Below 1/4 it is l - s/tan(pi*u), above 3/4 l + s/tan(pi*(1 - u)):
    u - 1/2 would drop a small u's low bits, and tan near -/+pi/2 would
    amplify the rounding of pi*(u - 1/2). The tangent is within about
    2.5 ulps; neighbouring doubles u may still give one value.
    """
    if not 0.0 < u < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {u!r}")
    if u < 0.25:
        return dist.location - dist.scale / math.tan(math.pi * u)
    if u > 0.75:
        return dist.location + dist.scale / math.tan(math.pi * (1.0 - u))
    return dist.location + dist.scale * math.tan(math.pi * (u - 0.5))


def _scaled_ratio(l1: float, s1: float, l2: float, s2: float,
                  t: float, k: float, c: float) -> tuple[float, int]:
    """x and e with x * 2**e = k*((l1-l2)^2 + (s1+t)^2) / (c*s2), for every finite input.

    kl_floats passes t = -s2, k = 1/4, c = s1 (so 4*s1 cannot overflow),
    cross_entropy_floats t = s2, k = pi, c = 1. While the sum of squares
    lies in (2^-969, 2^511) and c*s2 in (2^-511, 2^1023) it is the direct
    quotient with e = 0: every product, and for cross-entropy (num/s2 >= s2)
    the quotient, stays normal. Otherwise the terms are scaled by powers of
    two (exact), both differences halved first if either overflows: the
    direct bits wherever those stay normal, and x in [1/16, 8*pi] unless
    both differences are 0.
    """
    dl = l1 - l2
    ds = s1 + t
    num = dl * dl + ds * ds
    den = c * s2
    if 2.0 ** -969 < num < 2.0 ** 511 and 2.0 ** -511 < den < 2.0 ** 1023:
        return k * num / den, 0
    h = math.isinf(dl) or math.isinf(ds)
    if h:  # a difference overflows: carry half of each
        dl, ds = 0.5 * l1 - 0.5 * l2, 0.5 * s1 + 0.5 * t
    j = math.frexp(max(abs(dl), abs(ds)))[1]
    (u, m), (v, n) = math.frexp(c), math.frexp(s2)
    a, b = math.ldexp(dl, -j), math.ldexp(ds, -j)
    return k * (a * a + b * b) / (u * v), 2 * (j + h) - m - n


def kl_floats(l1: float, s1: float, l2: float, s2: float) -> float:
    """Kullback-Leibler divergence between two Cauchy distributions.

        KL = log( ((s1+s2)^2 + (l1-l2)^2) / (4*s1*s2) ) = log1p(chi2 / 2),
        chi2 = ((l1-l2)^2 + (s1-s2)^2) / (2*s1*s2),

    the chi-square form of Nielsen & Okamura (arXiv:2101.12459), which
    avoids the cancellation of log(num/den) when num is close to den.
    Finite over the whole finite double range (chi2/2 comes from
    `_scaled_ratio`), symmetric in the two pairs bit-for-bit, and exactly
    0.0 when they coincide. The float entry point: the arguments must be
    finite floats; the scales are checked as CauchyDist checks them.
    """
    _require_scale(s1)
    _require_scale(s2)
    x, e = _scaled_ratio(l1, s1, l2, s2, -s2, 0.25, s1)
    if e > 1000 and x > 0.0:  # log1p(x * 2**e) = log(x) + e*log(2) + O(2**-1000)
        return math.log(x) + e * math.log(2.0)
    return math.log1p(math.ldexp(x, e))


def kl_closed(p1: CauchyDist, p2: CauchyDist) -> float:
    """Kullback-Leibler divergence KL(p1 : p2); see `kl_floats`."""
    return kl_floats(p1.location, p1.scale, p2.location, p2.scale)


def cross_entropy_floats(l1: float, s1: float, l2: float, s2: float) -> float:
    """Cross-entropy  h(p1 : p2) = log( pi*((s1+s2)^2 + (l1-l2)^2) / s2 ).

    The argument of the log is `_scaled_ratio`'s x * 2**e; beyond 2**+-1000
    the result is log(x) + e*log(2). So it holds over every finite input,
    as kl_floats does, with the direct formula's bits in range. The
    arguments must be finite floats, as for kl_floats.
    """
    _require_scale(s1)
    _require_scale(s2)
    x, e = _scaled_ratio(l1, s1, l2, s2, s2, math.pi, 1.0)
    if -1000 <= e <= 1000:
        return math.log(math.ldexp(x, e))
    return math.log(x) + e * math.log(2.0)  # x * 2**e may be out of the normal range


def cross_entropy_closed(p1: CauchyDist, p2: CauchyDist) -> float:
    """Cross-entropy h(p1 : p2); see `cross_entropy_floats`."""
    return cross_entropy_floats(p1.location, p1.scale, p2.location, p2.scale)


def entropy_floats(l: float, s: float) -> float:
    """Differential entropy log(4*pi*s), for every finite s > 0 (-741.9 at s = 5e-324).

    Computed as the self cross-entropy so the decomposition
    KL = cross-entropy - entropy holds as tightly as the formulas allow.
    """
    return cross_entropy_floats(l, s, l, s)


def entropy_closed(p: CauchyDist) -> float:
    """Differential entropy h(p); see `entropy_floats`."""
    return entropy_floats(p.location, p.scale)


def kl_scale_family(s1: float, s2: float) -> float:
    """KL divergence 2*log((s1+s2) / (2*sqrt(s1*s2))) for a common location: kl_closed at 0."""
    return kl_closed(CauchyDist(0.0, s1), CauchyDist(0.0, s2))


def kl_location_family(l1: float, l2: float, s: float) -> float:
    """KL divergence log(1 + (l1-l2)^2 / (4*s^2)) for a common scale: kl_closed at scale s."""
    return kl_closed(CauchyDist(l1, s), CauchyDist(l2, s))


def standardize_pair(p1: CauchyDist, p2: CauchyDist) -> tuple[CauchyDist, CauchyDist]:
    """Map (p1, p2) to (standard, p_{(l2-l1)/s1, s2/s1}).

    Joint affine rescaling by p1's parameters; every f-divergence,
    KL included, is invariant under it.
    """
    lam = (p2.location - p1.location) / p1.scale
    sig = p2.scale / p1.scale
    return CauchyDist(0.0, 1.0), CauchyDist(lam, sig)


def integral_a_floats(a: float, b: float, c: float, d: float, e: float, f: float) -> float:
    """Closed form 2*pi*(log(num) - log(den))/sqrt(4*a*c - b^2) of A(a,b,c; d,e,f), (num, den)
    from `_integral_a_arg`; num >= 4*sqrt(a*c*d*f) - |b*e| > 0 by the guards. The float entry
    point: the arguments must be finite floats, both triples checked as PositiveQuadratic does.
    """
    r1 = math.sqrt(_require_quadratic(a, b, c))
    num, den = _integral_a_arg(a, b, c, d, e, f, r1, math.sqrt(_require_quadratic(d, e, f)))
    return 2.0 * math.pi * (math.log(num) - math.log(den)) / r1


def integral_a(q1: PositiveQuadratic, q2: PositiveQuadratic) -> float:
    """A(a,b,c; d,e,f) with (a,b,c) from q1 and (d,e,f) from q2; see `integral_a_floats`."""
    return integral_a_floats(q1.a, q1.b, q1.c, q2.a, q2.b, q2.c)


def integral_a_canonical(d: float, e: float, f: float) -> float:
    """Closed form of the canonical case: A(1,0,1; d,e,f) = pi*log(d + f + sqrt(4*d*f - e^2))."""
    q = PositiveQuadratic(d, e, f)
    return math.pi * math.log(_g1(q.a, q.b, q.c, math.sqrt)[0])


def canonical_reduce(q1: PositiveQuadratic, q2: PositiveQuadratic) -> CanonicalReduction:
    """Affine change of variable reducing A(q1; q2) to K * A(1,0,1; D,E,F).

        D = d*(4*a*c - b^2) / (4*a^2)
        E = (a*e - b*d) * sqrt(4*a*c - b^2) / (2*a^2)
        F = (4*a^2*f - 2*a*b*e + b^2*d) / (4*a^2)
        K = 2 / sqrt(4*a*c - b^2)

    The reduced triple (D, E, F) is again a positive quadratic.
    """
    a, b, _c = q1.a, q1.b, q1.c
    d, e, f = q2.a, q2.b, q2.c
    disc1 = q1.discriminant_guard
    r1 = math.sqrt(disc1)
    a2 = a * a
    D = d * disc1 / (4.0 * a2)
    E = (a * e - b * d) * r1 / (2.0 * a2)
    F = (4.0 * a2 * f - 2.0 * a * b * e + b * b * d) / (4.0 * a2)
    K = 2.0 / r1
    return CanonicalReduction(D, E, F, K)


def _check_regular_point(d, e, f) -> None:
    """Reject the singular set d = f, e = 0 of dA/dd, for floats and Fractions alike."""
    if d == f and e == 0:
        raise SingularPointError(
            f"(d, e, f) = ({d}, {e}, {f}) lies on the singular set d = f, e = 0 "
            "where (d - f)^2 + e^2 vanishes"
        )


def integral_a_dd(d: float, e: float, f: float) -> float:
    """Derivative of the canonical integral with respect to d:

        dA/dd(1,0,1; d,e,f) = pi * (r + 2*f) / (r * (d + f + r)),   r = sqrt(4*d*f - e^2),

    the d-derivative of pi*log(G1), G1 = d + f + r. Every term is positive,
    so no digit cancels. The paper states it as

        pi * ( (d-f)*(4*d*f-e^2) + (-2*d*f+e^2+2*f^2)*sqrt(4*d*f-e^2) )
           / ( ((d-f)^2 + e^2) * (4*d*f-e^2) ),

    the same function by G1*G2 = (d-f)^2 + e^2, G2 = d + f - r, whose
    factor (d-f)^2 + e^2 vanishes on the set d = f, e = 0. There
    SingularPointError is raised, as the paper's form is undefined; A is
    smooth there and this form gives pi/(2*d).
    """
    q = PositiveQuadratic(d, e, f)
    _check_regular_point(d, e, f)
    num, den = _dadd_over_pi(q.a, q.b, q.c, math.sqrt)
    return math.pi * num / den


def _dadd_over_pi(d, e, f, sqrt):
    """Numerator and denominator of dA/dd / pi, (r + 2*f, r*G1) from `_g1`."""
    g1, r = _g1(d, e, f, sqrt)
    return r + 2 * f, r * g1


def _primitive_b_raw(d: float, e: float, f: float, x: float) -> float:
    r = math.sqrt(_guard(d, e, f))
    inner = ((d - f) * math.atan(x) - 0.5 * e * math.log(_quadratic(d, e, f, x))
             + 0.5 * e * math.log(_quadratic(1, 0, 1, x)))
    return (2.0 * r * inner - 4.0 * (d * f - 0.5 * e * e - f * f)
            * math.atan((2.0 * d * x + e) / r)) / (2.0 * _g3(d, e, f) * r)


def primitive_b(d: float, e: float, f: float, x: float) -> float:
    """Primitive B(d,e,f; x) = integral from 0 to x of y^2 / ((d*y^2+e*y+f)*(y^2+1)) dy.

    Evaluates the elementary antiderivative

        ( 2*sqrt(4*d*f-e^2) * ( (d-f)*atan(x) - (e/2)*log(d*x^2+e*x+f) + (e/2)*log(x^2+1) )
          - 4*(d*f - e^2/2 - f^2) * atan((2*d*x+e)/sqrt(4*d*f-e^2)) )
        / ( (2*d^2-4*d*f+2*e^2+2*f^2) * sqrt(4*d*f-e^2) )

    anchored at x = 0 so that B(d,e,f; 0) = 0. The difference of the two
    tail limits of B equals integral_a_dd(d, e, f). Shares the singular
    set d = f, e = 0 with integral_a_dd.
    """
    PositiveQuadratic(d, e, f)
    _check_regular_point(d, e, f)
    x = _require_finite("x", x)
    return _primitive_b_raw(d, e, f, x) - _primitive_b_raw(d, e, f, 0.0)


def prudnikov_special(a: float, b: float, z: float) -> float:
    """Special case tabulated in the Prudnikov-Brychkov-Marichev integral tables:

        integral over R of log(a^2 - 2*a*b*x + x^2) / (x^2 + z^2) dx
            = (pi/z) * log(z^2 + 2*a*z*sqrt(1-b^2) + a^2),   a > 0, z > 0, b in (-1, 1].

    For b < 1 this coincides with integral_a applied to (1, 0, z^2) and
    (1, -2*a*b, a^2). The boundary b = 1 (inner quadratic (x - a)^2, zero
    discriminant) is accepted here but is outside integral_a's domain.
    Checks that the arguments are finite, then runs `prudnikov_floats`.
    """
    return prudnikov_floats(_require_finite("a", a), _require_finite("b", b),
                            _require_finite("z", z))


def prudnikov_floats(a: float, b: float, z: float) -> float:
    """`prudnikov_special` for finite floats, checking only the domain: (pi/z) * (2*log(big)
    + log1p(u)), (big, u) from `_prudnikov_arg`; log1p keeps a u far below an ulp of 1."""
    if a <= 0.0:
        raise ParameterError(f"a must be positive, got {a!r}")
    if z <= 0.0:
        raise ParameterError(f"z must be positive, got {z!r}")
    if not -1.0 < b <= 1.0:
        raise ParameterError(f"b must lie in (-1, 1], got {b!r}")
    big, u = _prudnikov_arg(a, b, z, math.sqrt)
    return math.pi / z * (2.0 * math.log(big) + math.log1p(u))
