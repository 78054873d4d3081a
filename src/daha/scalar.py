"""Exact scalar arithmetic.

Two interchangeable backends sit behind one informal field contract
(add, negate, multiply, invert, equality, zero/one, integer power):

* ``Rational`` -- arbitrary-precision rationals, provided by
  :class:`fractions.Fraction`.  Numeric runs default to q = 2.
* :class:`RatFun` -- rational functions in one formal variable q with
  rational coefficients, for identities that must hold for generic q.
  A value is stored as two integer polynomials, numerator and
  denominator, coprime over the rationals, with joint content 1 and a
  positive leading denominator coefficient.  That form is unique, so
  equality is a comparison of coefficient tuples, and all arithmetic
  runs on Python ints.

The polynomial section below computes that canonical form for every
Q(q) value in the package: :func:`_canonical_polys` puts int
polynomials over one int polynomial denominator into it, for a RatFun
here and for the coefficients of :class:`daha.laurent.LaurentPoly`,
:class:`daha.modrep.SparseVec` and :class:`daha.linalg.Matrix`.

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


def _qval(c) -> int:
    """The power of q dividing a nonzero int polynomial."""
    i = 0
    while not c[i]:
        i += 1
    return i


def _pgcd(a, b) -> tuple:
    """The gcd over the rationals of two nonzero polynomials, as a
    primitive integer polynomial with positive leading coefficient.

    The common power of q is split off first; what remains goes through
    a primitive Euclidean remainder sequence, which keeps coefficient
    growth under control.
    """
    i, j = _qval(a), _qval(b)
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
    """a / g for a nonzero int polynomial g that divides a in Z[q]: a
    primitive g that divides a over Q does (Gauss's lemma), and so does
    every divisor in :func:`daha.linalg.det`.  The quotient is in Z[q],
    so each step of the long division divides exactly by g's leading
    coefficient; a divisor c*q^m shifts and divides by c.
    """
    m = _qval(g)
    if m == len(g) - 1:
        c = g[m]
        return list(a[m:]) if c == 1 else [x // c for x in a[m:]]
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


def _cofactors(a, b) -> tuple:
    """(fa, fb) with a*fa == b*fb, a common multiple of the nonzero int
    polynomials a and b whose content and polynomial part are their
    lcms: fa = b/g and fb = a/g for g the gcd of their contents times
    that of their primitive parts, which divides both in Z[q]."""
    if a == b:
        return (1,), (1,)
    if len(a) == 1 and len(b) == 1:
        g = math.gcd(a[0], b[0])
        return (b[0] // g,), (a[0] // g,)
    g = _pgcd(a, b)
    c = math.gcd(math.gcd(*a), math.gcd(*b))
    if c != 1:
        g = [c * x for x in g]
    return tuple(_pexquo(b, g)), tuple(_pexquo(a, g))


def _canonical_polys(polys, den) -> tuple:
    """The canonical form of the int polynomials polys over den, () for
    zero: strip the common power of q, divide by the polynomial gcd when
    den has two or more terms, then by the integer content, with den's
    leading coefficient > 0.  Returns (tuple of polynomials, den), den
    (1,) when every polynomial is zero.  Every Q(q) value is put into
    canonical form here.

    The form is unique.  If N/D and N'/D' are both canonical for one
    tuple of values, then D*N'_e = D'*N_e for every e.  Each power p^m
    of an irreducible p dividing D fails to divide some N_e, so p^m
    divides D'; hence D divides D', likewise D' divides D, and D' = c*D,
    N'_e = c*N_e for a rational c.  The content condition forces
    |c| = 1 and the sign condition c = 1.  So ``==`` on canonical forms
    compares tuples of ints.  A tuple of rationals is the degree-0
    case: D is a positive int and each N_e an int.
    """
    if not any(polys):
        return tuple(() for _ in polys), (1,)
    if not den[0] and not any(c[0] for c in polys if c):
        v = min(_qval(den), *map(_qval, filter(None, polys)))
        den = den[v:]
        polys = [c[v:] for c in polys]
    if len(den) > 1 and len(den) - _qval(den) > 1:
        g = den
        for c in polys:
            if c:
                g = _pgcd(g, c)
                if len(g) == 1:
                    break
        if len(g) > 1:
            den = _pexquo(den, g)
            polys = [_pexquo(c, g) if c else c for c in polys]
    g = math.gcd(*den)
    for c in polys:
        if g == 1:
            break
        g = math.gcd(g, *c)
    if den[-1] < 0:
        g = -g
    if g != 1:
        den = [x // g for x in den]
        polys = [[x // g for x in c] for c in polys]
    return tuple(map(tuple, polys)), tuple(den)


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
    degree) in the canonical form of :func:`_canonical_polys`, which
    is unique, so ``==`` compares tuples: coprime over the rationals,
    joint content 1 (the gcd of all their coefficients), positive
    leading denominator coefficient; the zero element is ()/(1,).

    The constructor accepts sequences of int or Fraction coefficients,
    clears their denominators and canonicalises by
    :func:`_canonical_polys`; sums, products and quotients do so by
    :func:`_ratfun`.  Results that are canonical by construction
    (negation, powers, square roots, constants) skip it.

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
        (num,), den = _canonical_polys((num,), den)
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


def _ratfun(num, den) -> RatFun:
    """The RatFun num/den of int polynomials, den nonzero, in the
    canonical form of :func:`_canonical_polys`."""
    (num,), den = _canonical_polys((num,), den)
    return _raw(num, den)


def _mul(a, b, c, d) -> RatFun:
    """(a/b)(c/d) for int polynomials a, c and nonzero b, d."""
    if not a or not c:
        return _ZERO
    return _ratfun(_pmul(a, c), _pmul(b, d))


def _add(a, b, c, d) -> RatFun:
    """a/b + c/d for canonical operands, over the lcm of b and d."""
    if not c:
        return _raw(a, b)
    if not a:
        return _raw(c, d)
    fa, fb = _cofactors(b, d)
    return _ratfun(_padd(_pmul(a, fa), _pmul(c, fb)), _pmul(b, fa))


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class RationalField:
    """Arbitrary-precision rationals; numeric default q = 2."""

    name = "rational"

    @staticmethod
    def default_q() -> Fraction:
        return Fraction(2)


class RatFunField:
    """Rational functions in the formal variable q."""

    name = "ratfun"

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
    """x as "p/r" in lowest terms, or "p" when r = 1.  An int prints
    as itself, since it has a numerator and a denominator too; nothing
    is copied."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_to_str(x) -> str:
    x = as_scalar(x)
    if isinstance(x, RatFun):
        return str(x)
    return fraction_to_str(x)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational_parts(s: str) -> tuple:
    """The numerator and positive denominator ints of a rational string,
    not reduced.  After ``strip()`` the string must match
    ``-?[0-9]+(/[0-9]+)?`` (ASCII digits only: no exponent, decimal
    point, ``+``, ``_`` or spaces inside); otherwise, on a zero
    denominator, or past Python's limit on int string conversion, this
    raises ValueError.  Every scalar parser reads rationals here, or
    many at once in :func:`_rational_lists` by the same grammar."""
    s = s.strip()
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ValueError(f"not a rational scalar: {s!r}")
    num, den = m.groups()
    den = int(den) if den else 1
    if not den:
        raise ValueError(f"zero denominator in scalar {s!r}")
    return int(num), den


def _rational_lists(strings: list) -> tuple:
    """:func:`_rational_parts` of each string: the list of their
    numerators and the list of their denominators.  The stripped strings
    are joined by commas and split once by the grammar of
    :func:`_rational_parts`; they all match it when the text between
    the matches is the commas alone and there is one match per string.
    The matched digits are then read by ``int``.  When that check fails,
    an int is past the limit or a denominator is zero, each string goes
    through :func:`_rational_parts`, which raises the ValueError that
    reading them one by one raises."""
    parts = _RATIONAL.split(",".join([s.strip() for s in strings]))
    nums, dens = parts[1::3], parts[2::3]  # between them the separators
    if (len(nums) == len(strings) and parts[0] == parts[-1] == ""
            and parts[3:-1:3].count(",") == len(nums) - 1):
        try:
            nums = list(map(int, nums))
            dens = [int(d) if d else 1 for d in dens]
        except ValueError:
            pass
        else:
            if 0 not in dens:
                return nums, dens
    parts = [_rational_parts(s) for s in strings]
    return [n for n, _ in parts], [d for _, d in parts]


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
