"""Truncated Taylor (jet) arithmetic, fraction-free.

A Jet stands for the coefficients (c0, ..., cn) of a Taylor expansion
sum_k c_k * t^k around a point, so c_k = f^(k) / k!. It stores them as
numerators over one shared denominator, c_k = num_k / den, and every
operation is one arithmetic path on those numerators:

* +, - and * convolve or add the numerators and multiply the
  denominators (a common denominator is kept as it is);
* / runs the fraction-free quotient recurrence (in the spirit of
  Bareiss' integer-preserving elimination, Math. Comp. 22, 1968)

      Z_k = U_k * v0^k - sum_{j<k} Z_j * v0^(k-j-1) * V_{k-j},

  so the quotient's coefficients are Z_k / v0^(k+1), and put back over
  one denominator;
* sqrt(head=) runs the analogous recurrence for the square root.

With int or `fractions.Fraction` inputs the numerators and denominators
are Python ints: no operation constructs a Fraction or takes a gcd, and
every result stays exact, which is what the certificate checks in
`cauchykl.certificate` rely on. `coefficients` and `derivative` return
Fractions for such jets. Square roots stay exact when the head value is
rational and supplied explicitly (`sqrt(head=m)` with m*m equal to the
head coefficient); an int head is exact too, as nothing is ever divided.
The same path serves float coefficients, for cross-checks at moderate
magnitudes: a quotient's denominator carries v0^(n+1), which can leave
the float range long before the coefficients do. Logarithms force a
float head and are meant for those cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Any, Iterable

from .errors import ParameterError

__all__ = ["Jet"]

Scalar = Any  # int, float, fractions.Fraction, or any field-like scalar


def _split(x: Scalar) -> tuple:
    """(numerator, denominator) of a rational scalar, (x, 1) of any other."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    return x, 1


class Jet:
    """Taylor coefficients of one scalar quantity in one variable."""

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[Scalar]):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise ParameterError("a jet needs at least the order-0 coefficient")
        if all(isinstance(c, Rational) for c in coefficients):
            den = math.lcm(*(int(c.denominator) for c in coefficients))
            self._num = tuple(int(c.numerator) * (den // int(c.denominator))
                              for c in coefficients)
            self._den = den
        else:
            self._num, self._den = coefficients, 1

    @classmethod
    def _make(cls, num: tuple, den) -> "Jet":
        jet = object.__new__(cls)
        jet._num, jet._den = num, den
        return jet

    @classmethod
    def variable(cls, value: Scalar, order: int) -> "Jet":
        """The identity jet t -> value + t, truncated at `order`."""
        if order < 1:
            raise ParameterError(f"variable jets need order >= 1, got {order!r}")
        p, q = _split(value)
        return cls._make((p, 0 * p + q) + (0 * p,) * (order - 1), q)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Jet":
        p, q = _split(value)
        return cls._make((p,) + (0 * p,) * order, q)

    def _ratio(self, n: Scalar) -> Scalar:
        """n / den: a Fraction when every numerator and the denominator are ints."""
        den = self._den
        if type(den) is int and all(type(x) is int for x in self._num):
            return Fraction(n, den)
        return n / den

    @property
    def coefficients(self) -> tuple:
        return tuple(self._ratio(n) for n in self._num)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def derivative(self, k: int) -> Scalar:
        """k-th derivative at the expansion point: k! * c_k."""
        if not 0 <= k <= self.order:
            raise ParameterError(f"derivative order {k!r} outside jet order {self.order}")
        return self._ratio(math.factorial(k) * self._num[k])

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if len(other._num) != len(self._num):
                raise ParameterError(
                    f"jet orders differ: {self.order} vs {other.order}"
                )
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        a, da, b, db = self._num, self._den, o._num, o._den
        if da == db:
            return Jet._make(tuple([x + y for x, y in zip(a, b)]), da)
        return Jet._make(tuple([x * db + y * da for x, y in zip(a, b)]), da * db)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet._make(tuple([-x for x in self._num]), self._den)

    def __sub__(self, other) -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            p, q = _split(other)
            return Jet._make(tuple([p * x for x in self._num]), q * self._den)
        o = self._coerce(other)
        a, b = self._num, o._num
        out = []
        for k in range(len(a)):
            acc = 0
            for j in range(k + 1):
                acc += a[j] * b[k - j]
            out.append(acc)
        return Jet._make(tuple(out), self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        o = self._coerce(other)
        u, v = self._num, o._num
        n = len(u) - 1
        v0 = v[0]
        if v0 == 0:
            raise ZeroDivisionError("jet division by a jet with zero head")
        powers = [1]  # v0^0 .. v0^(n+1)
        for _ in range(n + 1):
            powers.append(powers[-1] * v0)
        z: list = []
        for k in range(n + 1):
            acc = u[k] * powers[k]
            for j in range(k):
                acc -= z[j] * powers[k - j - 1] * v[k - j]
            z.append(acc)
        # U/V has coefficients (Z_k / v0^(k+1)) * (dv / du).
        dv = o._den
        return Jet._make(tuple([z[k] * powers[n - k] * dv for k in range(n + 1)]),
                         self._den * powers[n + 1])

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "Jet":
        if not isinstance(exponent, int) or exponent < 0:
            raise ParameterError(f"jet powers must be nonnegative integers, got {exponent!r}")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Jet.constant(1, self.order) if result is None else result

    def sqrt(self, head: Scalar | None = None) -> "Jet":
        """Square root jet; pass `head` with head*head == c0 to stay exact.

        With head = p/q, c_k = f_k/den and c = 2*p, the coefficients are
        p/q and T_k / (den^k * c^(2k-1)) for k >= 1, where
        T_k = q * (f_k * den^(k-1) * c^(2k-2) - sum_{0<j<k} T_j * T_{k-j}).
        """
        f, den = self._num, self._den
        if head is None:
            p, q = math.sqrt(f[0] / den), 1
        else:
            p, q = _split(head)
            if p * p * den != f[0] * q * q:
                raise ParameterError(
                    f"head {head!r} is not a square root of {self.coefficients[0]!r}")
        n = len(f) - 1
        c = 2 * p
        if n and c == 0:
            raise ZeroDivisionError("the square root of a jet with zero head has no Taylor series")
        c2 = c * c
        t: list = [0]
        scale = 1  # den^(k-1) * c^(2k-2)
        for k in range(1, n + 1):
            acc = f[k] * scale
            for j in range(1, k):
                acc -= t[j] * t[k - j]
            t.append(q * acc)
            scale *= den * c2
        # Over the shared denominator q * den^n * c^(2n): numerator k >= 1 is
        # T_k * q * den^(n-k) * c^(2(n-k)+1), and the head's is p * den^n * c^(2n).
        out = [p * den**n * c2**n]
        out.extend(t[k] * q * den ** (n - k) * c2 ** (n - k) * c for k in range(1, n + 1))
        return Jet._make(tuple(out), q * den**n * c2**n)

    def log(self) -> "Jet":
        """Logarithm jet with float head math.log(c0)."""
        f = self.coefficients
        out: list = [math.log(f[0])]
        for k in range(1, self.order + 1):
            acc = k * f[k]
            for j in range(1, k):
                acc = acc - j * out[j] * f[k - j]
            out.append(acc / (k * f[0]))
        return Jet(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Jet) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Jet({list(self.coefficients)!r})"
