"""Truncated Taylor (jet) arithmetic, exact and fraction-free.

A Jet stands for the coefficients (c0, ..., cn) of a Taylor expansion
sum_k c_k * t^k around a point, so c_k = f^(k) / k!. It stores them as
int numerators over one shared int denominator, c_k = num_k / den, and
every operation is one arithmetic path on those numerators:

* + and - are one combine, which adds or subtracts the numerators, each
  times the other operand's denominator, over the product of the
  denominators; * convolves the numerators and multiplies the
  denominators. A scalar p/q enters as the constant jet (p, 0, ...)/q,
  whose structural 0s (below) leave * scaling the numerators;
* / runs the fraction-free quotient recurrence (in the spirit of
  Bareiss' integer-preserving elimination, Math. Comp. 22, 1968)

      Z_k = U_k * v0^k - sum_{j<k} Z_j * v0^(k-j-1) * V_{k-j},

  so the quotient's coefficients are Z_k / v0^(k+1), and put back over
  one denominator;
* sqrt() runs the analogous recurrence for the square root, after
  finding the head's root as isqrt(num_0 * den) / |den| (`_root`, which
  takes polynomials too, if num_0 * den is the square of a monomial).

A numerator or denominator that is exactly the Python int 0 or 1 is
structural, and every jet has some: a variable jet is (v, 1, 0, ...) over
1, a constant jet (c, 0, ...) over 1. Every product above goes through
`_mul`, which returns 0 or the other operand itself for such an int, with
no product run; every coefficient is the same exact rational. A result
may thus be an operand's own value, so no operation updates a value in
place: each step rebinds (acc = acc - ..., never acc -= ...).

Jets are exact only. A scalar is an int, a rational
(`fractions.Fraction`) or an exact polynomial with int coefficients
(`_Poly`, so one jet carries the expansion at a symbolic point); anything
else, a numpy array included, raises TypeError at the operation that
receives it (`Jet.__array_ufunc__ = None` makes numpy defer an array-jet
operator to the jet, which refuses the array). No operation constructs a
Fraction or takes a gcd; `coefficients` returns Fractions, while
`derivative_numerator` over `denominator` gives a derivative as two ints
or two polynomials. This is what the certificate checks in
`cauchykl.certificate` rely on.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Iterable

from .errors import ParameterError

__all__ = ["Jet"]


def _mul(a, b):
    """a * b, with the int 0 or 1 in either place structural: the product is then 0
    or the other operand itself, and no product is run."""
    if type(a) is int and (a == 0 or a == 1):
        return b if a else 0
    if type(b) is int and (b == 0 or b == 1):
        return a if b else 0
    return a * b


_FIELD = 16  # bits per exponent in a packed monomial key


def _exponents(key: int, n: int) -> list:
    """The n exponents packed in a monomial key, variable 0's in the lowest bits."""
    return [(key >> (_FIELD * k)) & ((1 << _FIELD) - 1) for k in range(n)]


class _Poly:
    """An exact polynomial in the variables `names`: `terms` maps each monomial's
    packed exponents (`_exponents`) to its nonzero int coefficient, so a product of
    monomials is the sum of their keys, and keys order monomials lexicographically
    from the last variable. + - * and ** take ints and polynomials in the same
    variables; any other operand is left to its own type (a jet takes a polynomial
    as a scalar) or refused with TypeError, so every coefficient stays an int.
    `== 0` holds only for the zero polynomial, and `root` takes only the square of
    a monomial. No operation updates `terms` in place, so a result may be an
    operand itself: x + 0, x - 0 and 0 + x are x."""

    __slots__ = ("terms", "names")
    __array_ufunc__ = __hash__ = None  # numpy defers to a polynomial; it is unhashable

    def __init__(self, terms: dict, names: tuple):
        self.terms, self.names = terms, names

    @classmethod
    def variables(cls, names: str) -> tuple:
        """One polynomial per space-separated name: that variable itself."""
        names = tuple(names.split())
        return tuple(cls({1 << (_FIELD * k): 1}, names) for k in range(len(names)))

    @staticmethod
    def _terms(other):
        """other's terms if it is a polynomial or an int, else None."""
        if type(other) is int:
            return {0: other} if other else {}
        return other.terms if type(other) is _Poly else None

    def __add__(self, other, sign: int = 1):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        if not terms:
            return self  # x + 0, x - 0 and (by __radd__) 0 + x
        if sign == 1 and len(terms) > len(self.terms):
            out, terms = dict(terms), self.terms  # fold the shorter operand into the longer
        else:
            out = dict(self.terms)
        get = out.get
        for k, c in terms.items():
            c = get(k, 0) + sign * c
            if c:
                out[k] = c
            else:
                del out[k]  # c was nonzero, so out held -sign*c there
        return _Poly(out, self.names)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        short, long = self.terms, terms
        if len(short) > len(long):
            short, long = long, short
        if not short:
            return _Poly({}, self.names)
        rows = iter(short.items())
        ka, ca = next(rows)
        # The first row's keys are distinct and its products nonzero: no lookup.
        out = {ka + kb: ca * cb for kb, cb in long.items()}
        get = out.get
        for ka, ca in rows:
            for kb, cb in long.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if 0 in out.values():  # a coefficient cancelled
            out = {k: c for k, c in out.items() if c}
        return _Poly(out, self.names)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return math.prod([self] * exponent) if type(exponent) is int else NotImplemented

    def __eq__(self, other):
        terms = self._terms(other)
        return NotImplemented if terms is None else self.terms == terms

    def at_last(self, bits: int) -> "_Poly":
        """self with its last variable at 2^bits: a polynomial in the others."""
        shift = _FIELD * (len(self.names) - 1)
        low, out = (1 << shift) - 1, {}
        get = out.get
        for k, c in self.terms.items():
            key = k & low
            out[key] = get(key, 0) + (c << (bits * (k >> shift)))
        return _Poly({k: c for k, c in out.items() if c}, self.names[:-1])

    def last_degree(self) -> int:
        """The degree in the last variable; -1 for the zero polynomial."""
        return max(self.terms, default=-1) >> (_FIELD * (len(self.names) - 1))

    def root(self) -> "_Poly":
        """The monomial r with r*r == self and a positive coefficient, for self the
        square of a monomial, or 0 for 0; ParameterError otherwise, naming self.
        Every root a proof takes is of the guard (4dm)^2."""
        if not self.terms:
            return self
        if len(self.terms) == 1:
            (k, c), = self.terms.items()
            r = _exact_isqrt(c)
            if r > 0 and not any(j % 2 for j in _exponents(k, len(self.names))):
                return _Poly({k >> 1: r}, self.names)  # every exponent even: halve each
        raise ParameterError(f"{self} is not the square of a monomial")

    def __repr__(self) -> str:
        return " + ".join(
            str(c) + "".join(f"*{x}" if j == 1 else f"*{x}^{j}"
                             for x, j in zip(self.names, _exponents(k, len(self.names))) if j)
            for k, c in sorted(self.terms.items(), reverse=True)) or "0"


def _split(x: Rational) -> tuple[int, int]:
    """(numerator, denominator) of an int or rational scalar, or (x, 1) for an
    exact polynomial (`_Poly`)."""
    if type(x) is int or type(x) is _Poly:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"jets are exact: expected an int or a rational, got {x!r}")


def _clear(values) -> tuple[tuple, int]:
    """(numerators, D) for the least D > 0 that makes every D*v an int: v is its
    numerator over D. The values are ints, rationals or exact polynomials
    (`_split`); anything else raises TypeError."""
    parts = [_split(v) for v in values]
    den = math.lcm(*(q for _, q in parts))
    return tuple(_mul(p, den // q) for p, q in parts), den


def _exact_isqrt(square: int) -> int:
    """isqrt(square) if square is an integer square, else -1."""
    p = math.isqrt(max(square, 0))
    return p if p * p == square else -1


def _root(n, den) -> tuple:
    """(p, q) with p/q the square root of n/den: q = +/-den, the sign making q or,
    for a `_Poly`, its leading coefficient (at the largest key) positive, and p the
    root of n*q, isqrt(n*q) or the monomial `_Poly.root` finds.

    n/den is a rational square exactly when n*q is an integer square, so no
    Fraction is built and no gcd is taken; otherwise, or if a polynomial n*q is not
    the square of a monomial, ParameterError is raised.
    """
    if (den.terms[max(den.terms)] if type(den) is _Poly else den) < 0:
        n, den = -n, -den
    square = n * den
    if type(square) is _Poly:
        return square.root(), den
    p = _exact_isqrt(square)
    if p < 0:
        raise ParameterError(f"{Fraction(n, den)} is not the square of a rational")
    return p, den


class Jet:
    """Taylor coefficients of one scalar quantity in one variable."""

    __slots__ = ("_num", "_den")
    __array_ufunc__ = None  # array + - * / jet: numpy defers to the jet, which refuses it

    def __init__(self, coefficients: Iterable[Rational]):
        self._num, self._den = _clear(coefficients)
        if not self._num:
            raise ParameterError("a jet needs at least the order-0 coefficient")

    @classmethod
    def _make(cls, num: tuple, den: int) -> "Jet":
        jet = object.__new__(cls)
        jet._num, jet._den = num, den
        return jet

    @classmethod
    def variable(cls, value: Rational, order: int) -> "Jet":
        """The identity jet t -> value + t, truncated at `order`."""
        if order < 1:
            raise ParameterError(f"variable jets need order >= 1, got {order!r}")
        p, q = _split(value)
        return cls._make((p, q) + (0,) * (order - 1), q)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Jet":
        """The constant jet value, truncated at `order`."""
        if order < 0:
            raise ParameterError(f"constant jets need order >= 0, got {order!r}")
        p, q = _split(value)
        return cls._make((p,) + (0,) * order, q)

    @property
    def coefficients(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def denominator(self) -> int:
        """The int denominator that every coefficient shares."""
        return self._den

    def derivative_numerator(self, k: int) -> int:
        """k! * num_k: the k-th derivative at the expansion point over `denominator`."""
        if not 0 <= k <= self.order:
            raise ParameterError(f"derivative order {k!r} outside jet order {self.order}")
        return _mul(math.factorial(k), self._num[k])

    def _coerce(self, other) -> "Jet":
        """other as a jet of this order: a scalar p/q is the constant jet (p, 0, ...)/q."""
        if not isinstance(other, Jet):
            return Jet.constant(other, self.order)
        if len(other._num) != len(self._num):
            raise ParameterError(f"jet orders differ: {self.order} vs {other.order}")
        return other

    def _combine(self, other, op) -> "Jet":
        """self op other for op + or -, over the numerator tuples."""
        o = self._coerce(other)
        a, da, b, db = self._num, self._den, o._num, o._den
        return Jet._make(tuple([op(_mul(x, db), _mul(y, da)) for x, y in zip(a, b)]),
                         _mul(da, db))

    def __add__(self, other) -> "Jet":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet._make(tuple([-x for x in self._num]), self._den)

    def __sub__(self, other) -> "Jet":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        o = self._coerce(other)
        a, b = self._num, o._num
        out = []
        for k in range(len(a)):
            acc = _mul(a[0], b[k])
            for j in range(1, k + 1):
                acc = acc + _mul(a[j], b[k - j])
            out.append(acc)
        return Jet._make(tuple(out), _mul(self._den, o._den))

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
            powers.append(_mul(powers[-1], v0))
        z: list = []
        for k in range(n + 1):
            acc = _mul(u[k], powers[k])
            for j in range(k):
                acc = acc - _mul(z[j], _mul(powers[k - j - 1], v[k - j]))
            z.append(acc)
        # U/V has coefficients (Z_k / v0^(k+1)) * (dv / du).
        dv = o._den
        return Jet._make(tuple([_mul(_mul(z[k], powers[n - k]), dv) for k in range(n + 1)]),
                         _mul(self._den, powers[n + 1]))

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def sqrt(self) -> "Jet":
        """Square root jet; raises ParameterError unless c0 is a rational square.

        With head p/q = sqrt(c0), c_k = f_k/den and c = 2*p, the
        coefficients are p/q and T_k / (den^k * c^(2k-1)) for k >= 1, where
        T_k = q * (f_k * den^(k-1) * c^(2k-2) - sum_{0<j<k} T_j * T_{k-j}).
        """
        f, den = self._num, self._den
        p, q = _root(f[0], den)
        n = len(f) - 1
        c = 2 * p
        if n and c == 0:
            raise ZeroDivisionError("the square root of a jet with zero head has no Taylor series")
        step = _mul(den, c * c)
        scales = [1]  # (den * c^2)^0 .. (den * c^2)^n
        for _ in range(n):
            scales.append(_mul(scales[-1], step))
        t: list = [0]
        for k in range(1, n + 1):
            acc = _mul(f[k], scales[k - 1])
            for j in range(1, k):
                acc = acc - _mul(t[j], t[k - j])
            t.append(_mul(q, acc))
        # Over the shared denominator q * den^n * c^(2n): numerator k >= 1 is
        # T_k * q * den^(n-k) * c^(2(n-k)+1), and the head's is p * den^n * c^(2n).
        out = [_mul(p, scales[n])]
        out.extend(_mul(_mul(t[k], q), _mul(scales[n - k], c)) for k in range(1, n + 1))
        return Jet._make(tuple(out), _mul(q, scales[n]))

    def __eq__(self, other) -> bool:
        """Whether other is a jet of the same order with the same exact coefficients."""
        if not isinstance(other, Jet) or len(other._num) != len(self._num):
            return False
        da, db = self._den, other._den
        return all(_mul(x, db) == _mul(y, da) for x, y in zip(self._num, other._num))

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Jet({list(self.coefficients)!r})"
