"""Laurent polynomials in z over Q or over Q(q), on integer polynomials.

A :class:`LaurentPoly` holds int polynomials in q over one int
polynomial denominator in a canonical form, so ``==`` compares ints and
a rational coefficient is the degree-0 case.  The arithmetic runs on
raw pairs (terms, den): terms maps a z exponent to a nonzero int
polynomial in q (ascending degree, no trailing zeros, as in
:mod:`daha.scalar`) and den is a nonzero int polynomial in q, held as a
tuple; the value is sum_e terms[e] / den * z^e.  Raw pairs need not be
reduced, and no function changes a raw pair it is given; only
:func:`daha.scalar._canonical_polys` puts values over one denominator
into canonical form, so a computation that chains several steps
canonicalises its result once.  The sums and scalings key terms by
anything hashable: :mod:`daha.modrep` keys its ladder vectors by basis
index, and :class:`daha.linalg.Matrix` holds Q(q) matrices in the same
canonical form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DahaError, TranscriptionError
from .scalar import (
    RatFun,
    _canonical_polys,
    _cofactors,
    _padd,
    _parts,
    _pmul,
    _ratfun,
    as_scalar,
    scalar_to_str,
)


def _times(terms: dict, c) -> dict:
    """Every coefficient times the nonzero int polynomial c."""
    if len(c) == 1:
        k = c[0]
        return terms if k == 1 else {e: [k * y for y in x] for e, x in terms.items()}
    return {e: _pmul(c, x) for e, x in terms.items()}


def _accumulate(out: dict, e: int, c) -> None:
    """out[e] += c, dropping the term if it cancels."""
    if e in out:
        s = _padd(out[e], c)
        if s:
            out[e] = s
        else:
            del out[e]
    else:
        out[e] = c


def _raw_add(a: tuple, b: tuple) -> tuple:
    (at, ad), (bt, bd) = a, b
    if not bt:
        return a
    if not at:
        return b
    if ad != bd:
        fa, fb = _cofactors(ad, bd)
        at, bt, ad = _times(at, fa), _times(bt, fb), tuple(_pmul(ad, fa))
    out = dict(at)
    for e, c in bt.items():
        _accumulate(out, e, c)
    return out, ad


def _raw_from_pairs(pairs) -> tuple:
    """The raw pair of the sum of (key, (num, den)) scalar pairs: the
    sum of the 1/den over one denominator, keyed by den, holds each
    den's cofactor, and each num is multiplied by its own once."""
    cofactors, den = {}, (1,)
    for d in dict.fromkeys(d for _, (n, d) in pairs if n):
        cofactors, den = _raw_add((cofactors, den), ({d: (1,)}, d))
    one = len(cofactors) == 1  # one denominator: its cofactor is 1
    out = {}
    for key, (n, d) in pairs:
        if n:
            _accumulate(out, key, n if one else _pmul(cofactors[d], n))
    return out, den


def _raw_scale(a: tuple, x: tuple) -> tuple:
    """a times the scalar pair x."""
    if not x[0]:
        return {}, (1,)
    return _times(a[0], x[0]), tuple(_pmul(a[1], x[1]))


def _raw_mul(a: tuple, b: tuple) -> tuple:
    """a*b; a's coefficients lead in each int product, which skips their
    zeros, so a short or monomial factor belongs in a."""
    out = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            _accumulate(out, e1 + e2, _pmul(c1, c2))
    return out, tuple(_pmul(a[1], b[1]))


def _raw_q2_over_z(a: tuple, s: tuple) -> tuple:
    """f(s/z) for the scalar pair s = q^2, over one denominator: the
    coefficient at -e is f_e s^e, and s^e = sn^(e+lo) sd^(hi-e) over
    sn^lo sd^hi with lo, hi the largest powers of 1/s and s needed."""
    terms, den = a
    if not terms:
        return a
    sn, sd = s
    lo, hi = max(0, -min(terms)), max(0, max(terms))
    pn, pd = [(1,)], [(1,)]
    for _ in range(lo + hi):
        pn.append(_pmul(sn, pn[-1]))
        pd.append(_pmul(sd, pd[-1]))
    out = {-e: _pmul(pd[hi - e], _pmul(pn[e + lo], c)) for e, c in terms.items()}
    return out, tuple(_pmul(den, _pmul(pn[lo], pd[hi])))


def _raw_div(a: tuple, b: tuple) -> tuple:
    """a/b by long division from the top z exponent; a nonzero
    remainder raises TranscriptionError.

    A divisor whose top coefficient is 1 or -1 (z^2 - q^2 and z^2 - 1
    for formal or integer q) divides with ring operations alone.  Any
    other divisor takes pseudo-division by its top coefficient l: after
    s steps, l^s a = Q b + R, and a/b = Q / l^s when R = 0.
    """
    (at, ad), (bt, bd) = a, b
    if not bt:
        raise DahaError("division by the zero Laurent polynomial")
    if not at:
        return a
    btop = max(bt)
    lead = tuple(bt[btop])
    rest = [(e - btop, tuple(-x for x in c)) for e, c in bt.items() if e != btop]
    unit = lead in ((1,), (-1,))
    r = dict(at)
    quo = {}
    scale = (1,)
    for k in range(max(at) - btop, min(at) - min(bt) - 1, -1):
        c = r.pop(k + btop, None)
        if c is None:
            continue
        if not unit:
            r, quo = _times(r, lead), _times(quo, lead)
            scale = tuple(_pmul(scale, lead))
        elif lead[0] < 0:
            c = [-x for x in c]
        quo[k] = c
        for e, x in rest:
            _accumulate(r, k + btop + e, _pmul(c, x))
    if r:
        raise TranscriptionError("non-cancelling Laurent division")
    return _times(quo, bd), tuple(_pmul(ad, scale))


def _canonical_terms(raw: tuple) -> tuple:
    """The raw pair (terms, den) in canonical form, as sorted (key,
    polynomial) pairs and den."""
    terms, den = raw
    keys = sorted(terms)
    polys, den = _canonical_polys([terms[e] for e in keys], den)
    return tuple(zip(keys, polys)), den


def _exponent(e) -> int:
    if not isinstance(e, int) or isinstance(e, bool):
        raise DahaError(f"a Laurent exponent must be an int, got {e!r}")
    return e


class _OneDenominator:
    """Coefficients keyed by an exponent or an index, held as int
    polynomials in q over one int polynomial denominator in the
    canonical form of :func:`daha.scalar._canonical_polys`, so ``==``
    compares tuples of ints; the common part of :class:`LaurentPoly`
    and :class:`daha.modrep.SparseVec`.  Each coefficient reads in the
    field of the inputs: a RatFun once any input scalar was one, a
    Fraction otherwise."""

    __slots__ = ("_terms", "_den", "_formal")

    def __init__(self, terms=()):
        pairs = [(self._key(e), as_scalar(c))
                 for e, c in (terms.items() if isinstance(terms, dict) else terms)]
        formal = any(isinstance(c, RatFun) for _, c in pairs)
        _fill(self, _raw_from_pairs([(e, _parts(c)) for e, c in pairs]), formal)

    @staticmethod
    def _key(e):
        return e

    @classmethod
    def _of(cls, raw: tuple, formal: bool):
        """The canonical value of a raw pair."""
        return _fill(object.__new__(cls), raw, formal)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    def _coefficients(self) -> tuple:
        """Sorted (key, coefficient) pairs."""
        if self._formal:
            return tuple((e, _ratfun(c, self._den)) for e, c in self._terms)
        den = self._den[0]
        return tuple((e, Fraction(c[0], den)) for e, c in self._terms)

    def _raw(self) -> tuple:
        return dict(self._terms), self._den

    def __add__(self, other):
        return self._of(_raw_add(self._raw(), other._raw()), self._formal or other._formal)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = as_scalar(c)
        return self._of(_raw_scale(self._raw(), _parts(c)), self._formal or isinstance(c, RatFun))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms and self._den == other._den

    def __hash__(self):
        return hash((self._terms, self._den))


_SETTERS = tuple(getattr(_OneDenominator, name).__set__ for name in _OneDenominator.__slots__)


def _fill(out: _OneDenominator, raw: tuple, formal: bool) -> _OneDenominator:
    """Set the slots of out from the canonical form of a raw pair."""
    for setter, value in zip(_SETTERS, (*_canonical_terms(raw), formal)):
        setter(out, value)
    return out


class LaurentPoly(_OneDenominator):
    """A Laurent polynomial in z over Q or Q(q), held as int polynomials
    in q over one int polynomial denominator: sum_e N_e(q)/D(q) z^e.

    Canonical form, that of :func:`daha.scalar._canonical_polys`: the
    N_e are nonzero; D and all N_e have no common factor of positive
    degree in Q[q]; the gcd of all their integer coefficients is 1; the
    leading coefficient of D is positive.  The form is unique, so ``==``
    compares tuples of ints.  A rational coefficient is the degree-0
    case: D is a positive int and each N_e an int.

    Exact division is long division in z from the top exponent.  The
    divisors of :func:`daha.modrep.poly_apply`, 1 - q^2 z^-2 and
    1 - z^2, are z^-2 times z^2 - q^2 and -(z^2 - 1), whose top
    coefficients are 1 and -1 when q is formal or an integer; each step
    then subtracts an int polynomial multiple of the divisor and stays
    in Z[q][z].  Other
    divisors take pseudo-division by their top coefficient l, which
    gives l^s a = Q b + R.  Quotient and remainder in Q(q)[z] are
    unique, so R = 0 exactly when b divides a, and a nonzero remainder
    raises TranscriptionError: a transcribed operator that fails to
    preserve the polynomial module cannot return a polynomial.

    ``terms`` gives sorted (exponent, coefficient) pairs with each
    coefficient in the field of the inputs: a RatFun once any input
    scalar was one, a Fraction otherwise.
    """

    __slots__ = ()
    _key = staticmethod(_exponent)

    @property
    def terms(self) -> tuple:
        return self._coefficients()

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._of(_raw_mul(self._raw(), other._raw()), self._formal or other._formal)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; a nonzero remainder is an
        internal error (it would mean a transcribed operator fails to
        preserve the polynomial module)."""
        return self._of(_raw_div(self._raw(), other._raw()), self._formal or other._formal)

    def __repr__(self):
        if not self._terms:
            return "LaurentPoly(0)"
        body = " + ".join(f"({scalar_to_str(c)})*z^{e}" for e, c in self.terms)
        return f"LaurentPoly({body})"
