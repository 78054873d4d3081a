"""Exact scalar arithmetic.

Two interchangeable backends sit behind one informal field contract
(add, negate, multiply, invert, equality, zero/one, integer power,
optional evaluation at a rational point):

* ``Rational`` -- arbitrary-precision rationals, provided by
  :class:`fractions.Fraction`.  Numeric runs default to q = 2.
* :class:`RatFun` -- rational functions in one formal variable q with
  rational coefficients, for identities that must hold for generic q.
  A value is stored as two integer polynomials, numerator and
  denominator, coprime over the rationals, with joint content 1 and a
  positive leading denominator coefficient.  That form is unique, so
  equality is a comparison of coefficient tuples, and all arithmetic
  runs on Python ints.

Both are immutable, all operations are pure, and values can be shared
freely between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import DahaError, InputError

Rational = Fraction

Scalar = Union[Fraction, "RatFun"]


def as_scalar(x) -> Scalar:
    """Coerce ints to Fraction; pass Fractions and RatFuns through."""
    if isinstance(x, (RatFun, Fraction)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a scalar: {x!r}")


def as_scalars(values) -> tuple:
    """:func:`as_scalar` of each value, all lifted into Q(q) when any is a
    RatFun: the one rule that puts a group of scalars into one field."""
    out = tuple(map(as_scalar, values))
    if any(type(x) is RatFun for x in out):
        return tuple(x if type(x) is RatFun else _raw(*_parts(x)) for x in out)
    return out


# ---------------------------------------------------------------------------
# dense univariate integer polynomials: sequences of int, ascending
# degree, no trailing zeros, zero polynomial = ()
# ---------------------------------------------------------------------------

def _ptrim(cs) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _padd(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(a, b) -> list:
    """Product of two nonzero polynomials."""
    if len(a) == 1:
        c = a[0]
        return list(b) if c == 1 else [c * x for x in b]
    if len(b) == 1:
        c = b[0]
        return list(a) if c == 1 else [c * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ppow(a, n: int) -> list:
    """a**n for a nonzero polynomial a and n >= 1."""
    out = None
    base = list(a)
    while True:
        if n & 1:
            out = base if out is None else _pmul(out, base)
        n >>= 1
        if not n:
            return out
        base = _pmul(base, base)


def _primitive(cs) -> list:
    """Divide a nonzero polynomial by its content; positive leading coeff."""
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return list(cs) if g == 1 else [c // g for c in cs]


def _prem(a, b) -> list:
    """Pseudo-remainder of a by b (b nonzero)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        c = r[-1]
        r = [lb * ci for ci in r]
        for i in range(db + 1):
            r[k + i] -= c * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _pgcd(a, b) -> tuple:
    """The gcd over the rationals of two nonzero polynomials, as a
    primitive integer polynomial with positive leading coefficient.

    The common power of q is split off first; what remains goes through
    a primitive Euclidean remainder sequence, which keeps coefficient
    growth under control.
    """
    i = 0
    while a[i] == 0:
        i += 1
    j = 0
    while b[j] == 0:
        j += 1
    a, b = a[i:], b[j:]
    if len(a) == 1 or len(b) == 1:
        g = (1,)
    elif a == b:
        g = tuple(_primitive(a))
    else:
        a, b = _primitive(a), _primitive(b)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _prem(a, b)
            if b:
                b = _primitive(b)
        g = tuple(a) if len(a) > 1 else (1,)
    m = min(i, j)
    return (0,) * m + g if m else g


def _pexquo(a, g) -> list:
    """a / g for a primitive divisor g of a.

    By Gauss's lemma the quotient of an integer polynomial by a
    primitive factor has integer coefficients, so every step of the
    long division divides exactly.
    """
    if len(g) == 1:
        return list(a)
    m = 0
    while g[m] == 0:
        m += 1
    if m == len(g) - 1:
        return list(a[m:])
    dg = len(g) - 1
    lg = g[-1]
    r = list(a)
    out = [0] * (len(a) - dg)
    for k in range(len(a) - 1 - dg, -1, -1):
        c = r[k + dg] // lg
        out[k] = c
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    return out


def _psqrt(a):
    """The square root with positive leading coefficient of a nonzero
    integer polynomial, or None when a is not the square of one."""
    if (len(a) - 1) % 2 or a[-1] < 0:
        return None
    lead = math.isqrt(a[-1])
    if lead * lead != a[-1]:
        return None
    n = (len(a) - 1) // 2
    g = [0] * (n + 1)
    g[n] = lead
    # match coefficients from the top down
    for k in range(n - 1, -1, -1):
        s = sum(g[i] * g[n + k - i] for i in range(k + 1, n))
        c, rem = divmod(a[n + k] - s, 2 * lead)
        if rem:
            return None
        g[k] = c
    if _pmul(g, g) != list(a):
        return None
    return g


def _fraction_sqrt(x: Fraction):
    """Exact square root of a rational, or None."""
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        return None
    return Fraction(pn, pd)


# ---------------------------------------------------------------------------
# rational functions in one formal variable
# ---------------------------------------------------------------------------

class RatFun:
    """A rational function num/den in one variable over the rationals.

    Stored as integer coefficient tuples ``_n``/``_d`` (ascending
    degree) in canonical form: coprime over the rationals, joint
    content 1 (the gcd of all their coefficients), positive leading
    denominator coefficient; the zero element is ()/(1,).  Two coprime
    representatives of one value differ by a rational factor, and the
    content and sign conditions fix that factor, so the form is unique
    and ``==`` compares tuples.

    The constructor is the one normalising entry point: it accepts
    sequences of int or Fraction coefficients, clears denominators,
    divides by the gcd and fixes content and sign.  Dividing by a
    primitive gcd is exact over the integers by Gauss's lemma, so no
    Fraction is created.
    Results that are canonical by construction (negation, inversion,
    powers, constants, cross-cancelled products and sums over coprime
    denominators) skip it; every result that needs a polynomial gcd
    goes through it.

    ``num`` and ``den`` are the monic-denominator views with Fraction
    coefficients, which is also what ``str`` prints.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=(1,)):
        scale = math.lcm(*(c.denominator for c in num), *(c.denominator for c in den))
        num = _ptrim(c.numerator * (scale // c.denominator) for c in num)
        den = _ptrim(c.numerator * (scale // c.denominator) for c in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            num, den = (), (1,)
        else:
            g = _pgcd(num, den)
            num, den = _content_free(_pexquo(num, g), _pexquo(den, g))
        _set_n(self, num)
        _set_d(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def variable(cls) -> "RatFun":
        """The generator q itself."""
        return _raw((0, 1), (1,))

    # -- structure ----------------------------------------------------

    @property
    def num(self) -> tuple:
        """Numerator coefficients (Fractions) over the monic denominator."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._n)

    @property
    def den(self) -> tuple:
        """Monic denominator coefficients (Fractions)."""
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise DahaError(f"non-constant rational function: {self}")
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _add(self._n, self._d, *o)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-c for c in self._n), self._d)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, d = o
        return _add(self._n, self._d, tuple(-x for x in c), d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _add(tuple(-x for x in self._n), self._d, *o)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _mul(self._n, self._d, *o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, d = o
        if not c:
            raise ZeroDivisionError("division by zero rational function")
        if c[-1] < 0:
            c, d = tuple(-x for x in c), tuple(-x for x in d)
        return _mul(self._n, self._d, d, c)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _raw(*o) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        num, den = self._n, self._d
        if n < 0:
            if not num:
                raise ZeroDivisionError("zero base with negative exponent")
            num, den = (den, num) if num[-1] > 0 else (
                tuple(-c for c in den), tuple(-c for c in num))
            n = -n
        if n == 0:
            return _ONE
        if not num:
            return self
        # a canonical a/b has a**n/b**n canonical: coprime, contents
        # cont(a)**n and cont(b)**n coprime, leading coefficient > 0
        return _raw(tuple(_ppow(num, n)), tuple(_ppow(den, n)))

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._n == o[0] and self._d == o[1]

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    # -- text ---------------------------------------------------------

    def __str__(self):
        num = ",".join(fraction_to_str(c) for c in self.num) if self._n else "0"
        den = ",".join(fraction_to_str(c) for c in self.den)
        return f"{num} | {den}"

    def __repr__(self):
        return f"RatFun({self})"


_set_n = RatFun._n.__set__
_set_d = RatFun._d.__set__


def _raw(num: tuple, den: tuple) -> RatFun:
    """A RatFun from coefficient tuples already in canonical form."""
    r = object.__new__(RatFun)
    _set_n(r, num)
    _set_d(r, den)
    return r


_ZERO = _raw((), (1,))
_ONE = _raw((1,), (1,))


def _parts(x):
    """(num, den) integer tuples of a RatFun, int or Fraction; else None."""
    if isinstance(x, RatFun):
        return x._n, x._d
    if isinstance(x, int):
        return ((x,) if x else ()), (1,)
    if isinstance(x, Fraction):
        return ((x.numerator,) if x else ()), (x.denominator,)
    return None


def _content_free(num, den):
    """Divide coprime num/den by their joint content, den leading > 0."""
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g == 1:
        return tuple(num), tuple(den)
    return tuple(c // g for c in num), tuple(c // g for c in den)


def _canonical(num, den) -> RatFun:
    """A RatFun from coprime num/den (num may be zero)."""
    if not num:
        return _ZERO
    return _raw(*_content_free(num, den))


def _mul(a, b, c, d) -> RatFun:
    """(a/b)(c/d) for canonical operands, cross-cancelled."""
    if not a or not c:
        return _ZERO
    # gcd(a, b) = gcd(c, d) = 1, so after removing gcd(a, d) and
    # gcd(c, b) the product of the numerators is coprime to that of the
    # denominators
    if len(a) > 1 and len(d) > 1:
        g = _pgcd(a, d)
        if len(g) > 1:
            a, d = _pexquo(a, g), _pexquo(d, g)
    if len(c) > 1 and len(b) > 1:
        g = _pgcd(c, b)
        if len(g) > 1:
            c, b = _pexquo(c, g), _pexquo(b, g)
    return _canonical(_pmul(a, c), _pmul(b, d))


def _add(a, b, c, d) -> RatFun:
    """a/b + c/d for canonical operands."""
    if not c:
        return _raw(a, b)
    if not a:
        return _raw(c, d)
    if b == d:
        if len(b) == 1:
            return _canonical(_padd(a, c), b)
        return RatFun(_padd(a, c), b)
    if len(b) > 1 and len(d) > 1:
        g = _pgcd(b, d)
        if len(g) > 1:
            b1 = _pexquo(b, g)
            return RatFun(_padd(_pmul(a, _pexquo(d, g)), _pmul(c, b1)), _pmul(b1, d))
    # coprime denominators: gcd(a*d + c*b, b) = gcd(a*d, b) = 1, and
    # likewise for d, so the sum needs no gcd
    return _canonical(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class RationalField:
    """Arbitrary-precision rationals; numeric default q = 2."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def default_q() -> Fraction:
        return Fraction(2)


class RatFunField:
    """Rational functions in the formal variable q."""

    name = "ratfun"
    zero = _ZERO
    one = _ONE

    @staticmethod
    def default_q() -> RatFun:
        return RatFun.variable()


QQ = RationalField()
QQ_Q = RatFunField()

_FIELDS = {QQ.name: QQ, QQ_Q.name: QQ_Q}


def field_by_name(name: str):
    try:
        return _FIELDS[name]
    except KeyError:
        raise DahaError(f"unknown scalar backend {name!r}") from None


# ---------------------------------------------------------------------------
# shared operations
# ---------------------------------------------------------------------------

def scalar_pow(x, n: int) -> Scalar:
    """x**n computed exactly, with x**0 = 1; zero base rejects n < 0."""
    x = as_scalar(x)
    if n < 0 and not x:
        raise ZeroDivisionError("zero base with negative exponent")
    return x ** n


def validate_q(q) -> bool:
    """True iff q is nonzero and not a root of unity in its field.

    Over the rationals that means q outside {0, 1, -1}; a non-constant
    rational function has infinite multiplicative order automatically.
    """
    q = as_scalar(q)
    if isinstance(q, RatFun):
        if not q.is_constant():
            return True
        q = q.as_fraction()
    return q not in (0, 1, -1)


def scalar_sqrt(x):
    """An exact square root of x in its own field, or None.

    A RatFun root has a numerator with positive leading coefficient.
    The canonical form of (s/t)**2 is s**2/t**2, so x = a/b has a root
    exactly when a and b are squares of integer polynomials.
    """
    x = as_scalar(x)
    if isinstance(x, RatFun):
        if not x:
            return x
        num = _psqrt(x._n)
        den = _psqrt(x._d)
        if num is None or den is None:
            return None
        return _raw(tuple(num), tuple(den))
    return _fraction_sqrt(x)


# ---------------------------------------------------------------------------
# serialization: Rational as "p/r" (omitting "/1"), RatFun as
# "num-coeffs | den-coeffs" in ascending degree
# ---------------------------------------------------------------------------

def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_to_str(x) -> str:
    x = as_scalar(x)
    if isinstance(x, RatFun):
        return str(x)
    return fraction_to_str(x)


_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _rational_parts(s: str) -> tuple:
    """The numerator and positive denominator ints of a rational string,
    not reduced.  After ``strip()`` the string must match
    ``-?[0-9]+(/[0-9]+)?`` (ASCII digits only: no exponent, decimal
    point, ``+``, ``_`` or spaces inside); otherwise, on a zero
    denominator, or past Python's limit on int string conversion, this
    raises ValueError.  Every scalar parser reads rationals here."""
    m = _RATIONAL.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"not a rational scalar: {s!r}")
    sign, num, den = m.groups()
    den = int(den) if den else 1
    if not den:
        raise ValueError(f"zero denominator in scalar {s.strip()!r}")
    return -int(num) if sign else int(num), den


def scalar_from_str(s: str) -> Scalar:
    """Parse a scalar string: a rational in the grammar of
    :func:`_rational_parts`, or ``num | den`` with comma-separated
    rational coefficients.  Malformed text and a zero denominator raise
    ValueError."""
    s = s.strip()
    if "|" in s:
        num_s, den_s = s.split("|")
        num = tuple(Fraction(*_rational_parts(c)) for c in num_s.split(",")) if num_s.strip() else ()
        den = tuple(Fraction(*_rational_parts(c)) for c in den_s.split(","))
        try:
            return RatFun(num, den)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {s!r}") from None
    return Fraction(*_rational_parts(s))


def scalar_from_json(value) -> Scalar:
    """A scalar string read from a JSON file; InputError when it is not
    a string or does not parse."""
    if not isinstance(value, str):
        raise InputError(f"a scalar must be a string, got {value!r}")
    try:
        return scalar_from_str(value)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def json_field(data, key: str, kind):
    """data[key] of a parsed JSON object, checked to be an instance of
    kind (a bool is never accepted); InputError otherwise."""
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value
