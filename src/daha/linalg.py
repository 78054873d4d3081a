"""Dense exact linear algebra over an exact scalar field.

Everything here works with :mod:`daha.scalar` values (Fraction or
RatFun); a pivot is any nonzero entry, there are no tolerances
anywhere.  A :class:`Matrix` is held as rows over one denominator in a
ring, :data:`ZZ` (ints, for Q) or :data:`ZZ_Q` (int polynomials, for
Q(q)), and every routine asks that ring for its element and row
operations, canonical form, scalars and elimination steps (insert,
clear, the Bareiss step, the lcm of pivots), never which ring it is.
Products, sums, elimination, the determinant (Bareiss's), the inverse,
the Sylvester solve, the span closure and the spin of a vector run
fraction-free on ring rows and normalise once per result; every elimination is read off
:func:`_one_pivot`.  The span closure runs in F_P first, P = 2**20 - 3
(:data:`P`, a prime at which 2 is a primitive root, so the default
q = 2 is no root of unity there), on words packed into ints
(:class:`_Residues`: a semi-echelon basis, as in Parker's MeatAxe,
reduced by whole-word row operations on slots below P + n**2 * P**2),
each ring mapping its rows there by its ``residue``, and on the ring
rows only when that pass proves nothing
(see :func:`span_closure`); :func:`is_full_algebra` tries Norton's two
spins between the passes, since a short spin proves that the algebra
is not every matrix.  Fractions or RatFuns are made only for the scalars
a routine returns, by :func:`_scalars` as for :attr:`Matrix.entries`.
Matrices are immutable after construction, all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, attrgetter, floordiv, lshift, mul, neg, sub

from .errors import DahaError, InputError, SingularMatrixError
from .laurent import _raw_from_pairs
from .scalar import (
    QQ,
    QQ_Q,
    RatFun,
    _canonical_polys,
    _cofactors,
    _padd,
    _parts,
    _pexquo,
    _pgcd,
    _pmul,
    _ppow,
    _ratfun,
    _rational_lists,
    as_scalar,
    as_scalars,
    json_field,
    scalar_from_json,
    scalar_to_str,
)


class Matrix:
    """An immutable rows x cols matrix with exact scalar entries.

    A matrix holds its ring ``ring``, :data:`ZZ` for a rational matrix
    or :data:`ZZ_Q` for one with a RatFun entry (every entry then lifted
    into Q(q) by :func:`~daha.scalar.as_scalars`), and ring rows
    ``_rows`` over a denominator ``_den`` in the ring's canonical form,
    which is unique (see :class:`_Integers` and :class:`_Polynomials`),
    so ``==`` compares tuples of ints.  An operation joins its operands'
    rings: Z[q] wins, and Z rows are lifted to constant polynomials over
    (den,), canonical too, so an operation with a Q(q) operand gives a
    Q(q) result.  The scalar :attr:`entries` (Fractions or RatFuns) are
    built anew on each read, for printing and for callers outside this
    module, and :meth:`entry` builds one.  Only the constructors, and
    :meth:`scale` for its scalar, choose a ring.
    """

    __slots__ = ("rows", "cols", "ring", "_rows", "_den")

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0]:
            raise DahaError("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DahaError("ragged matrix rows")
        _ring_matrix(*_from_scalars(rows), self)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Matrix":
        """The n x n identity over field (QQ or QQ_Q): the ring's one on
        the diagonal, over one."""
        if n < 1:
            raise DahaError("empty matrix")
        ring = ZZ_Q if field is QQ_Q else ZZ
        one, zero = ring.one, ring.zero
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return _ring_matrix(ring, rows, one)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        """The matrix product: the ring multiplies the rows, over the
        product of the denominators, and the result is put into
        canonical form once (see :class:`_Integers` for why ``==`` on
        canonical pairs is exact matrix equality)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DahaError(f"shape mismatch {self.shape} * {other.shape}")
        ring = self.ring.join[other.ring]
        (a, ad), (b, bd) = ring.over(self), ring.over(other)
        return _ring_matrix(ring, ring.product(a, b), ring.mul(ad, bd))

    def scale(self, c) -> "Matrix":
        """c times the matrix: c's numerator times the rows, over the
        product of the denominators, in the join of the matrix's ring
        and c's."""
        ring, (rows, den), (cn, cd) = _with_scalar(self, c)
        return _ring_matrix(ring, ring.times(rows, [cn] * self.rows), ring.mul(den, cd))

    def __add__(self, other, sign=1):
        """self + sign * other, for sign 1 or -1, over the lcm of the
        denominators."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DahaError("shape mismatch in addition")
        ring = self.ring.join[other.ring]
        (a, ad), (b, bd) = ring.over(self), ring.over(other)
        fa, fb = ring.cofactors(ad, bd)
        if sign < 0:
            fb = ring.neg(fb)
        rows = [ring.combine(fa, x, fb, y) for x, y in zip(a, b)]
        return _ring_matrix(ring, rows, ring.mul(ad, fa))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        """rows/(-den), signed by the canonical form."""
        return _ring_matrix(self.ring, self._rows, self.ring.neg(self._den))

    def __eq__(self, other):
        """Equal (rows, den) pairs are equal matrices, canonical in one
        ring; any other two are compared over the join of their rings."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self._den == other._den and self._rows == other._rows:
            return True
        ring = self.ring.join[other.ring]
        return ring.over(self) == ring.over(other)

    def __hash__(self):
        return hash((self.rows, self.cols))

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The rows of scalars, built on each read (read it once where
        many entries are needed): Fractions of a rational matrix,
        RatFuns of a Q(q) one."""
        return _scalars(self.ring, self._rows, self._den)

    def entry(self, i: int, j: int):
        """Entry (i, j), without building the others."""
        return self.ring.scalar(self._rows[i][j], self._den)

    @property
    def field(self):
        """QQ for a rational matrix, QQ_Q for one over Q(q)."""
        return self.ring.field

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def apply(self, vec) -> tuple:
        """Matrix times a coordinate column vector."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DahaError("vector length mismatch")
        return tuple(sum(e * v for e, v in zip(row, vec)) for row in self.entries)

    def scalar_value(self):
        """The scalar c when this matrix equals c*I, else None."""
        if not self.is_square():
            return None
        rows = self._rows
        c = rows[0][0]
        if any(e != c if i == j else e for i, row in enumerate(rows) for j, e in enumerate(row)):
            return None
        return self.ring.scalar(c, self._den)

    def _strings(self) -> list:
        """The entries as exact strings, each read off its ring entry
        over the denominator by the ring."""
        string, den = self.ring.string, self._den
        return [[string(x, den) for x in row] for row in self._rows]

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self._strings())
        return f"Matrix[{body}]"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self._strings()}

    @classmethod
    def from_json(cls, data: dict) -> "Matrix":
        """A matrix from its JSON form.  With no ``|`` entry the strings
        are read as rationals, all at once by
        :func:`~daha.scalar._rational_lists` (the grammar of
        :func:`~daha.scalar._rational_parts`, read by ``int``), straight
        into int rows over the lcm of their denominators; otherwise all
        are parsed and lifted to Q(q).  An entry that does not parse, a
        zero denominator or an int past Python's limit on int string
        conversion raises InputError."""
        entries = json_field(data, "entries", list)
        widths = {len(row) if isinstance(row, list) else 0 for row in entries}
        if len(widths) != 1 or 0 in widths:
            raise InputError("matrix entries must be nonempty lists of equal length")
        flat = [e for row in entries for e in row]
        if all(isinstance(e, str) and "|" not in e for e in flat):
            try:
                nums, dens = _rational_lists(flat)
            except ValueError as exc:
                raise InputError(str(exc)) from None
            den, cols = lcm(*dens), len(entries[0])
            ints = [x * (den // d) for x, d in zip(nums, dens)]
            m = _ring_matrix(ZZ, [ints[i:i + cols] for i in range(0, len(ints), cols)], den)
        else:
            m = cls([[scalar_from_json(e) for e in row] for row in entries])
        if m.rows != json_field(data, "rows", int) or m.cols != json_field(data, "cols", int):
            raise InputError("matrix JSON shape mismatch")
        return m


_set_rows, _set_cols, _set_ring, _set_body, _set_den = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__
)


def _from_scalars(rows) -> tuple:
    """Rows of scalars, lifted into one field by
    :func:`~daha.scalar.as_scalars`, as (ring, ring rows, den) over one
    denominator by the ring's ``lift``: the way in from scalars, a
    RatFun choosing Z[q]."""
    cols = len(rows[0])
    flat = as_scalars(chain.from_iterable(rows))
    ring = ZZ_Q if isinstance(flat[0], RatFun) else ZZ
    flat, den = ring.lift(flat)
    return ring, [flat[i:i + cols] for i in range(0, len(flat), cols)], den


def _ring_matrix(ring, rows, den, m=None) -> Matrix:
    """The matrix rows/den in ring's canonical form (for Z, den a nonzero
    int of either sign), filled into m when given (as
    :meth:`Matrix.__init__` fills itself): the one way back from ring
    rows, and the one place a matrix is made."""
    rows, den = ring.canonical(rows, den)
    m = object.__new__(Matrix) if m is None else m
    _set_rows(m, len(rows))
    _set_cols(m, len(rows[0]))
    _set_ring(m, ring)
    _set_body(m, rows)
    _set_den(m, den)
    return m


def _joined(*mats) -> tuple:
    """The join of the rings of mats, Z[q] when any is over Z[q], and
    each of mats as (rows, den) over it, the rows of a Z one lifted."""
    ring = ZZ
    for m in mats:
        ring = ring.join[m.ring]
    return ring, [ring.over(m) for m in mats]


def _with_scalar(m: Matrix, c) -> tuple:
    """The join of m's ring and that of the scalar c, with m as (rows,
    den) and c as (num, den) over it."""
    c = as_scalar(c)
    ring = m.ring.join[ZZ_Q if isinstance(c, RatFun) else ZZ]
    return ring, ring.over(m), ring.parts(c)


def _scalars(ring, rows, den) -> tuple:
    """Ring rows over den as rows of scalars: Fractions over Z, RatFuns
    over Z[q]."""
    scalar = ring.scalar
    return tuple(tuple(scalar(x, den) for x in row) for row in rows)


def _primitive(v):
    """An int vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


class _Integers:
    """Z, the ring of a rational matrix's rows.

    Canonical form (:meth:`canonical`): int rows over a positive int
    denominator with no common factor.  That form is unique.  Reduced
    fractions n/e over their lcm D already have content 1: a prime
    p | D divides some e as often as D, and p divides neither that n
    nor D/e.  Any content-1 pair (rows', D') for the same matrix has
    D | D' and rows' = (D'/D)*rows, so D' = D.  Hence ``==`` on
    canonical (rows, den) pairs is exact matrix equality.
    """

    zero, one, field = 0, 1, QQ
    add, sub, mul, neg, quo, pow, lcm = add, sub, mul, neg, floordiv, pow, lcm
    scalar = Fraction  # x over den, read back
    over = attrgetter("_rows", "_den")  # a matrix over Z as (rows, den)
    parts = attrgetter("numerator", "denominator")  # a Fraction's (num, den)

    def as_poly(self, m) -> tuple:
        """m's canonical int rows over den as constant polynomials over
        (den,), canonical too."""
        return tuple(tuple((x,) if x else () for x in row) for row in m._rows), (m._den,)

    def lift(self, scalars) -> tuple:
        """Fractions as ints over the lcm of their denominators, and that
        lcm."""
        den = lcm(*(x.denominator for x in scalars))
        return [x.numerator * (den // x.denominator) for x in scalars], den

    def over_one(self, pairs) -> tuple:
        """Keyed (numerator, denominator) pairs, the keys distinct, over one
        den, the lcm of the nonzero ones' denominators: ({key: num}, den)."""
        den = lcm(*(d for _, (n, d) in pairs if n))
        return {key: n * (den // d) for key, (n, d) in pairs if n}, den

    def canonical(self, rows, den) -> tuple:
        """rows/den (an int den of either sign) divided by the gcd of all
        entries and den, signed so that den > 0, as tuples."""
        g = gcd(den, *chain.from_iterable(rows)) if den != 1 else 1
        if den < 0:
            g = -g
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
        return tuple(map(tuple, rows)), den

    def string(self, x: int, den: int) -> str:
        """x/den in lowest terms as an exact string, without "/1"."""
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    def cofactors(self, a, b) -> tuple:
        """(fa, fb) with a*fa == b*fb == lcm(a, b), up to sign."""
        g = gcd(a, b)
        return b // g, a // g

    def product(self, a, b) -> list:
        """The int rows of a*b."""
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]

    def times(self, rows, factors) -> list:
        """Each int row times its factor."""
        return [[c * x for x in row] for row, c in zip(rows, factors)]

    def combine(self, s, row, c, top) -> list:
        """``s*row + c*top`` on int rows."""
        return [s * x + c * y for x, y in zip(row, top)]

    def step(self, pv, row, tail, prev) -> list:
        """One Bareiss step on int rows: ``(pv*row - row[0]*top) // prev``
        on the entries after the pivot column, tail those of top."""
        f = row[0]
        return [(pv * a - f * b) // prev for a, b in zip(row[1:], tail)]

    def insert(self, basis, v) -> bool:
        """Fraction-free reduction of a flat int vector against primitive rows.

        ``basis`` maps a pivot column p to ``[b, support]``: a primitive row
        b whose first nonzero entry is b[p], and the (column, entry) pairs
        of its nonzeros after p, listed when b is first used (None until
        then; most rows of a small rref never are).  Only the leading entry
        of v is eliminated, while a basis row has its pivot there, by the
        step ``v <- s*v - c*b`` with ``s = b[p]/g``, ``c = v[p]/g`` and
        ``g = gcd(b[p], v[p])``; it clears v[p] and keeps the entries before
        it zero, so the scan resumes where it stopped.  b is zero outside p
        and its support, so ``- c*b`` touches only those entries, in place
        on a copy of the input.  A unit step (s = +-1, the common case)
        scales nothing: v is held as ``sign * u``, and
        ``u <- u - sign*s*c*b``, ``sign <- sign*s`` is the same step, since
        s*(sign*u) - c*b = (sign*s)*(u - sign*s*c*b) when s*s = 1.  Any
        other step multiplies u by s*sign first and resets sign to 1.  The
        stored row is ``sign * u`` divided by the gcd of its entries: the
        row the step-by-step recurrence gives, sign included, so
        :func:`_rref` and :func:`kernel_line` see the same rows.
        """
        v = list(v)
        sign = 1  # the reduced vector is sign * v
        lead = 0
        size = len(v)
        while True:
            while lead < size and not v[lead]:
                lead += 1
            if lead == size:
                return False
            entry = basis.get(lead)
            if entry is None:
                g = gcd(*v)
                if g > 1 or sign < 0:
                    g *= sign
                    v = [x // g for x in v]
                basis[lead] = [v, None]
                return True
            b, support = entry
            if support is None:
                support = entry[1] = [(j, b[j]) for j in range(lead + 1, size) if b[j]]
            bp, x = b[lead], sign * v[lead]
            g = gcd(bp, x)
            s, c = bp // g, x // g
            if s == 1 or s == -1:
                f = sign * s * c
                sign *= s
            else:
                f = c
                s *= sign
                v = [s * a for a in v]
                sign = 1
            for j, y in support:
                v[j] -= f * y
            v[lead] = 0

    def clear(self, v, b, p):
        """``(b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])``, zero at
        p, divided by the gcd of its entries."""
        g = gcd(b[p], v[p])
        bp, c = b[p] // g, v[p] // g
        return _primitive([bp * x - c * y for x, y in zip(v, b)])

    def residue(self, x: int) -> int:
        """x mod P, the ring map Z -> F_P of :func:`span_closure`."""
        return x % P

    def word(self, a, w):
        """The n x n int matrix a times the flat row-major word w, flat and
        divided by the gcd of its entries.  Row i of a is given as the pairs
        (k*n, a[i][k]) of its nonzero entries, so row i of the product sums
        a[i][k] times the row w[k*n:k*n+n] of the word over them only."""
        n = len(a)
        out = []
        for terms in a:
            if not terms:
                out += [0] * n
                continue
            k, x = terms[0]
            acc = [x * y for y in w[k:k + n]]
            for k, x in terms[1:]:
                acc = [s + x * y for s, y in zip(acc, w[k:k + n])]
            out += acc
        return _primitive(out)


class _Polynomials:
    """Z[q], the ring of a Q(q) matrix's rows: int polynomials, ascending
    degree, () for zero, in the unique form of
    :func:`~daha.scalar._canonical_polys`: the entries N_ij and D have
    no common factor of positive degree in Q[q], the gcd of all their
    int coefficients is 1, and D has a positive leading coefficient.
    Its operations are Z's on polynomials, each gcd a polynomial gcd
    (Gauss's lemma makes every such division exact in Z[q])."""

    zero, one, field = (), (1,), QQ_Q
    add, quo, pow, scalar = map(staticmethod, (_padd, _pexquo, _ppow, _ratfun))
    parts, cofactors, over_one = map(staticmethod, (_parts, _cofactors, _raw_from_pairs))
    as_poly = attrgetter("_rows", "_den")

    def sub(self, a, b):
        return _padd(a, [-x for x in b])

    def mul(self, a, b):
        return _pmul(a, b) if a and b else ()

    def neg(self, a):
        return [-x for x in a]

    def over(self, m):
        """m as (rows, den) over Z[q], lifted by its ring."""
        return m.ring.as_poly(m)

    def lift(self, scalars) -> tuple:
        """RatFuns as int polynomials over one denominator, and that
        denominator."""
        terms, den = _raw_from_pairs([(k, (x._n, x._d)) for k, x in enumerate(scalars)])
        return [terms.get(k, ()) for k in range(len(scalars))], den

    def canonical(self, rows, den) -> tuple:
        cols = len(rows[0])
        flat, den = _canonical_polys([x for row in rows for x in row], den)
        return tuple(flat[i:i + cols] for i in range(0, len(flat), cols)), den

    def string(self, x, den) -> str:
        return scalar_to_str(_ratfun(x, den))

    def lcm(self, *heads):
        """The lcm of polynomials with positive leading coefficients."""
        top = (1,)
        for h in heads:
            top = _pmul(top, _cofactors(top, h)[0])
        return top

    def product(self, a, b) -> list:
        """The polynomial rows of a*b: each row of a sums its nonzero
        entries times the nonzero entries of b's rows."""
        support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
        out = []
        for row in a:
            acc = [()] * len(b[0])
            for k, x in enumerate(row):
                if x:
                    for j, y in support[k]:
                        acc[j] = _padd(acc[j], _pmul(x, y)) if acc[j] else _pmul(x, y)
            out.append(acc)
        return out

    def times(self, rows, factors) -> list:
        """Each polynomial row times its factor."""
        return [
            row if c == (1,) else [_pmul(c, x) if x and c else () for x in row]
            for row, c in zip(rows, factors)
        ]

    def combine(self, s, row, c, top) -> list:
        """``s*row + c*top`` on polynomial rows, s nonzero."""
        out = []
        for a, b in zip(row, top):
            x = _pmul(s, a) if a else ()
            out.append(_padd(x, _pmul(c, b)) if c and b else x)
        return out

    def cancel(self, v, b, p):
        """``(b[p]/g)*v - (v[p]/g)*b``, zero at p, with g the primitive gcd of
        b[p] and v[p], which divides both in Z[q] (Gauss's lemma)."""
        g = _pgcd(b[p], v[p])
        return self.combine(_pexquo(b[p], g), v, self.neg(_pexquo(v[p], g)), b)

    def residue(self, x) -> int:
        """x(Q0) mod P by Horner's rule, the ring map Z[q] -> F_P of
        :func:`span_closure`."""
        r = 0
        for c in reversed(x):
            r = (r * Q0 + c) % P
        return r

    def step(self, pv, row, tail, prev) -> list:
        """:meth:`_Integers.step` on polynomial rows, divided by
        :func:`~daha.scalar._pexquo`."""
        new = self.combine(pv, row[1:], self.neg(row[0]), tail)
        return [_pexquo(x, prev) if x else () for x in new]

    def insert(self, basis, v) -> bool:
        """:meth:`_Integers.insert` on a flat vector of int polynomials: the
        leading entry p of v is cleared by :meth:`cancel` while a basis
        row has its pivot there, and an independent v is stored at p as
        ``[row, None]``, the row its primitive part (divided by the gcd of
        its entries in Z[q], v[p] with a positive leading coefficient), in
        the format :func:`_rref` reads."""
        p = 0
        while True:
            p = next((i for i in range(p, len(v)) if v[i]), None)
            if p is None:
                return False
            if p not in basis:
                basis[p] = [_canonical_polys(v, v[p])[0], None]
                return True
            v = self.cancel(v, basis[p][0], p)

    def clear(self, v, b, p):
        """:meth:`cancel` kept as its primitive part, the first nonzero
        entry with a positive leading coefficient, as :meth:`insert`
        stores a row."""
        v = self.cancel(v, b, p)
        return _canonical_polys(v, next(filter(None, v)))[0]

    def word(self, a, w):
        """:meth:`_Integers.word` on int polynomials, the product kept as
        its primitive part as :meth:`clear` keeps a row."""
        n = len(a)
        out = []
        for terms in a:
            acc = [()] * n
            for k, x in terms:
                for j, y in enumerate(w[k:k + n]):
                    if y:
                        acc[j] = _padd(acc[j], _pmul(x, y)) if acc[j] else _pmul(x, y)
            out += acc
        return _canonical_polys(out, next(filter(None, out), (1,)))[0]


ZZ = _Integers()
ZZ_Q = _Polynomials()
# ring.join[other]: the ring of an operation on operands over ring and other
ZZ.join, ZZ_Q.join = {ZZ: ZZ, ZZ_Q: ZZ_Q}, {ZZ: ZZ_Q, ZZ_Q: ZZ_Q}

# P is prime and 2**20 = 3 (mod P), so a fold reduces; P - 1 = 2**2 * 3**3 * 7 * 19 * 73, and
# 2 is a primitive root mod P, so the default q = 2 is no root of unity in F_P
P = (1 << 20) - 3
Q0 = 314159  # q -> Q0 on Z[q]: a primitive root mod P, so no Q0**k = 1 for 0 < k < P - 1


def _folds(bound: int) -> int:
    """How many folds ``x -> (x mod 2**20) + 3*(x >> 20)`` bring every
    value up to bound to at most 2P - 1 (see :meth:`_Residues.canon`):
    a value up to b folds to at most 2**20 - 1 + 3*(b >> 20)."""
    k = 0
    while bound > 2 * P - 1:
        bound, k = (1 << 20) - 1 + 3 * (bound >> 20), k + 1
    return k


class _Residues:
    """F_P for the span closure of n x n matrices, its words packed into
    one int each: the flat row-major entry i in the W-bit slot at bit
    W*i, canonical when every slot is below P.

    A generator g is held as its columns spread over the row slots,
    E_k = sum_i g[i][k] << (W*n*i), so :meth:`word` forms g*w as
    sum_k E_k * row_k(w), n int products.  :meth:`insert` keeps the
    basis semi-echelon, as the MeatAxe does: each row canonical, 1 at its
    pivot (its lowest nonzero slot) and 0 below it, the rows in the
    order they were stored, and nothing cleared from a row once stored.
    A candidate v is reduced against the rows in that order, each
    coefficient read off the running sum, ``c = slot % P`` at the row's
    pivot, then ``v += (P - c)*b``, unfolded: each of the at most N = n*n
    rows adds below P**2 to a slot, so a slot stays below P + N*P**2; W
    is one bit more than that bound needs, so no slot ever carries into
    the next.  The sum is folded once at the end.

    Soundness: this is Gaussian elimination over F_P.  Each row was
    reduced against the rows before it, so it is 0 at their pivots.
    After row j the pivot slot of row j is 0 mod P, and the rows after
    it, 0 there, leave it so: the reduced v is 0 mod P at every pivot.
    It is v minus a combination of the rows, so it is 0 exactly when v
    lies in their span, and otherwise its lowest nonzero slot is a new
    pivot, and the new row is 0 at every earlier pivot.  So the F_P
    rank, and :func:`span_closure`'s result, are those of any
    elimination.
    """

    def __init__(self, n: int):
        size = n * n
        top = P + size * P * P  # the largest unfolded slot
        w = self.width = top.bit_length() + 1
        ones = sum(1 << (w * i) for i in range(size))
        self.n, self.threes = n, 3 * ones
        self.low, self.high = ((1 << 20) - 1) * ones, ((1 << (w - 20)) - 1) * ones
        self.bit20 = (1 << 20) * ones  # bit 20 of every slot
        self.slot, self.row = (1 << w) - 1, (1 << (w * n)) - 1
        self.ident = sum(1 << (w * (i * n + i)) for i in range(n))
        self.bits = [w * i for i in range(size)]  # where each slot starts
        self.column = sum(self.slot << (w * n * i) for i in range(n))  # slots of column 0
        self.reduce_folds, self.product_folds, self.scale_folds = (
            _folds(top), _folds(n * P * P), _folds(P * P))

    def canon(self, x: int, folds: int) -> int:
        """x with every slot reduced to its canonical residue, given that
        folds folds bring each slot to at most 2P - 1.  Since 2**20 = 3
        (mod P), a fold ``(x & low) + 3*((x >> 20) & high)`` keeps each
        slot's residue.  Then a slot x <= 2P - 1 gives y = x + 3 below
        2**21, and (y mod 2**20) + 3*(bit 20 of y) - 3 is x when x < P
        (bit 20 clear, y >= 3) and x - P otherwise, so no slot borrows."""
        low, high = self.low, self.high
        for _ in range(folds):
            x = (x & low) + 3 * ((x >> 20) & high)
        threes = self.threes
        x += threes
        return (x & low) + 3 * ((x & self.bit20) >> 20) - threes

    def generator(self, entries) -> tuple:
        """The n x n matrix of the flat row-major residues entries as the
        pairs (bit of row k, E_k) of the nonzero E_k, for :meth:`word`:
        packed as a word, column k shifted down to slot 0 and masked."""
        packed = sum(map(lshift, entries, self.bits))
        column, w = self.column, self.width
        columns = ((packed >> (w * k)) & column for k in range(self.n))
        return tuple((w * self.n * k, e) for k, e in enumerate(columns) if e)

    def word(self, g, w: int) -> int:
        """g times the canonical word w, canonical: row k of w, read off
        its n slots, times E_k lands g[i][k]*w[k][j] in slot i*n + j, each
        sum below n*P**2, and the sum over k is folded once."""
        row = self.row
        acc = 0
        for bit, e in g:
            acc += e * ((w >> bit) & row)
        return self.canon(acc, self.product_folds)

    def insert(self, basis, v: int) -> bool:
        """Reduce the canonical word v against basis (bit of a pivot slot
        -> row, in the order the rows were stored) and store it, 1 at its
        lowest nonzero slot, when it does not vanish."""
        acc, slot = v, self.slot
        for bit, b in basis.items():
            c = ((acc >> bit) & slot) % P
            if c:
                acc += (P - c) * b
        if acc is not v:
            acc = self.canon(acc, self.reduce_folds)
        if not acc:
            return False
        bit = (acc & -acc).bit_length() - 1
        bit -= bit % self.width
        basis[bit] = self.canon(acc * pow((acc >> bit) & slot, -1, P), self.scale_folds)
        return True


@lru_cache(maxsize=16)
def _residues(n: int) -> _Residues:
    """The :class:`_Residues` of n x n words, built once per n."""
    return _Residues(n)


@dataclass(frozen=True)
class Subspace:
    """A subspace of coordinate space, held as a reduced-echelon basis.

    Basis rows are pairwise independent with strictly increasing pivot
    columns, each 1 at its pivot (:func:`kernel` divides the rows of
    :func:`_one_pivot` by D); the zero space has an empty basis.
    """

    ambient: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rref(rows, ring):
    """The reduced row echelon form of ring rows, up to one nonzero factor
    per row: (rows, pivot columns).  The rows are inserted by the ring's
    insert (each storing ``[row, ...]`` at its pivot) until the basis is
    full, then each pivot column is cleared from the rows above by its
    clear, the gcd-cancelled step that keeps the primitive part."""
    insert, clear = ring.insert, ring.clear
    basis = {}  # pivot column -> [row, what insert keeps beside it]
    for row in rows:
        if insert(basis, row) and len(basis) == len(row):
            break
    pivots = sorted(basis)
    reduced = [basis[p][0] for p in pivots]
    for k in range(len(pivots) - 1, 0, -1):
        p, b = pivots[k], reduced[k]
        for i in range(k):
            if reduced[i][p]:
                reduced[i] = clear(reduced[i], b, p)
    return reduced, pivots


def _one_pivot(m: Matrix):
    """m's ring rows eliminated by :func:`_rref`, then each row multiplied
    by D/h, h its pivot and D the ring's lcm of the pivots (positive, or
    with a positive leading coefficient; one when there is none): (rows,
    pivot columns, D).  Each step is an invertible row operation over m's
    field, so the row space is kept, every pivot ends equal to D and the
    reduced row echelon form is the rows over D; rank, kernel,
    kernel_line, inverse and solve_right read every elimination off it."""
    ring = m.ring
    reduced, pivots = _rref(m._rows, ring)
    heads = [row[p] for row, p in zip(reduced, pivots)]
    top = ring.lcm(*heads)
    return ring.times(reduced, [ring.quo(top, h) for h in heads]), pivots, top


def rank(m: Matrix) -> int:
    """The number of pivots of :func:`_one_pivot`."""
    return len(_one_pivot(m)[1])


def _null_vectors(m: Matrix) -> list:
    """The kernel's spanning vectors in m's ring, from the rows of
    :func:`_one_pivot`, every pivot top = D: for each free column f,
    v_f = D, v_p = -row[f] at each pivot column p and 0 elsewhere."""
    ring = m.ring
    reduced, pivots, top = _one_pivot(m)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ring.zero] * m.cols
        v[f] = top
        for row, p in zip(reduced, pivots):
            v[p] = ring.neg(row[f])
        vectors.append(v)
    return vectors


def kernel(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank.

    The null vectors of :func:`_null_vectors` are brought to reduced
    echelon form by a second :func:`_one_pivot` on their ring rows and
    divided by its D once, so scalars are made for the basis alone."""
    vectors = _null_vectors(m)
    if not vectors:
        return Subspace(m.cols, ())
    reduced, _, top = _one_pivot(_ring_matrix(m.ring, vectors, m.ring.one))
    return Subspace(m.cols, _scalars(m.ring, reduced, top))


def kernel_line(m: Matrix):
    """A vector spanning the kernel of m when that kernel is a line, else
    None, in m's ring: the one vector of :func:`_null_vectors`."""
    vectors = _null_vectors(m)
    return vectors[0] if len(vectors) == 1 else None


def _minus_scalar(w: Matrix, theta, transpose=False) -> tuple:
    """w - theta, or w^T - theta when transpose, for a square w, as
    (ring, rows, den) with no scalar matrix formed: with w = R/D and
    theta = a/b over the join of their rings, w - theta = (bR - aD)/(bD),
    the ring rows of w times b with aD taken off the diagonal."""
    ring, (rows, den), (a, b) = _with_scalar(w, theta)
    rows = ring.times(rows, [b] * len(rows))
    if transpose:
        rows = list(zip(*rows))
    s = ring.neg(ring.mul(a, den))
    shifted = [[*row[:r], ring.add(row[r], s), *row[r + 1:]] for r, row in enumerate(rows)]
    return ring, shifted, ring.mul(b, den)


def scalar_minus(c, w: Matrix) -> Matrix:
    """c - w, c times the identity less the square matrix w: the rows of
    w - c (:func:`_minus_scalar`) over the negated denominator, put into
    canonical form once."""
    ring, rows, den = _minus_scalar(w, c)
    return _ring_matrix(ring, rows, ring.neg(den))


def eigenline(w: Matrix, theta, transpose=False):
    """An n x 1 matrix spanning ker(w - theta), or ker(w^T - theta) when
    transpose, when that kernel is a line, else None: the rows of
    :func:`_minus_scalar`, over one, for :func:`kernel_line`."""
    ring, rows, _ = _minus_scalar(w, theta, transpose)
    v = kernel_line(_ring_matrix(ring, rows, ring.one))
    return None if v is None else _ring_matrix(ring, [[x] for x in v], ring.one)


def _spin(ring, gens, v) -> tuple:
    """The standard basis of the column v under gens, all ring rows:
    (vectors, words).  Each product g u of a generator and a vector
    found, u by u and g by g, that the ring's insert finds outside their
    span is the next vector, until there are n; words[j] = (k, i) says
    that vector j + 1 is gens[k] times vector i.  They span the smallest
    subspace that holds v and is closed under gens."""
    n, basis = len(v), {}
    ring.insert(basis, [x for x, in v])
    vectors, words = [v], []
    for i, u in enumerate(vectors):
        for k, g in enumerate(gens):
            if len(vectors) == n:
                return vectors, words
            x = ring.product(g, u)
            if ring.insert(basis, [y for y, in x]):
                vectors.append(x)
                words.append((k, i))
    return vectors, words


def _norton(ring, gens, v, w):
    """Norton's two spins on ring rows (R. A. Parker, "The computer
    calculation of modular characters (the Meat-Axe)", 1984; D. F. Holt
    and S. Rees, J. Austral. Math. Soc. A 57, 1994): the spin of the
    column v under gens, as :func:`_spin` gives it, when that spin and
    the spin of the column w under the transposes of gens both reach n;
    else None.  The spin of v is the smallest subspace that holds v and
    is invariant under gens, and the annihilator of the spin of w is
    invariant under gens too, so a short spin of a nonzero vector gives
    a proper nonzero invariant subspace over the base field."""
    n = len(v)
    spin = _spin(ring, gens, v)
    if len(spin[0]) < n or len(_spin(ring, [list(zip(*g)) for g in gens], w)[0]) < n:
        return None
    return spin


def standard_basis(pairs, v: Matrix, u: Matrix, w: Matrix):
    """Norton's two spins and the standard basis, for n x 1 matrices v, u
    and w: (P, Q), column j of each the j-th word of the spin of v under
    the left matrices A_k of pairs, applied to v and, under the right
    ones B_k, to u; or None when the spin of v, or that of w under the
    transposes of the A_k, stops short of n (:func:`_norton`).  Each pair,
    (v, u) among them, is put over one denominator by the ring's
    cofactors, so column j of P and of Q carries the same factor.  A map
    F with F A_k = B_k F for every k and F v = u then has F P = Q, so
    it is Q P^-1."""
    ring, ((w, _), *over) = _joined(w, v, u, *chain.from_iterable(pairs))
    lefts, rights = [], []
    for (a, ad), (b, bd) in zip(over[::2], over[1::2]):
        fa, fb = ring.cofactors(ad, bd)
        lefts.append(ring.times(a, [fa] * len(a)))
        rights.append(ring.times(b, [fb] * len(b)))
    (v, *lefts), (u, *rights) = lefts, rights
    n = len(v)
    spin = _norton(ring, lefts, v, w)
    if spin is None:
        return None
    vectors, words = spin
    images = [u]
    for k, i in words:
        images.append(ring.product(rights[k], images[i]))
    return tuple(_ring_matrix(ring, [[col[r][0] for col in cols] for r in range(n)], ring.one)
                 for cols in (vectors, images))


def det(m: Matrix):
    """Exact determinant: :func:`_bareiss` on the ring rows A of m =
    A/den gives det A, and det m is det A over den**n, a Fraction or a
    RatFun."""
    if not m.is_square():
        raise DahaError("determinant of a non-square matrix")
    return m.ring.scalar(_bareiss(m._rows, m.ring), m.ring.pow(m._den, m.rows))


def _bareiss(rows, ring):
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968) on the
    square ring rows A: det A, in the ring.

    The step at pivot pv = top[k] turns each row below into ``(pv*row -
    row[k]*top) / prev``, prev the pivot before (one at first).  By
    Sylvester's identity, after k steps entry (i, j) is the minor of A on
    rows 1..k, i and columns 1..k, j (rows as swapped), so every division
    is exact in the ring and the last pivot is det A.  Entry k of a row
    below cancels, and no later step reads the columns up to k, so the
    ring's step forms the entries after k only: at step k each row holds
    its columns from k on.  A zero pivot is swapped with the first row
    below that is nonzero in its column, each swap flipping the sign; a
    column with none gives det A = zero."""
    rows = list(rows)
    n = len(rows)
    sign, prev, step = 1, ring.one, ring.step
    for k in range(n - 1):
        if not rows[k][0]:
            pr = next((i for i in range(k + 1, n) if rows[i][0]), None)
            if pr is None:
                return ring.zero
            rows[k], rows[pr], sign = rows[pr], rows[k], -sign
        pv, tail = rows[k][0], rows[k][1:]
        for i in range(k + 1, n):
            rows[i] = step(pv, rows[i], tail, prev)
        prev = pv
    return rows[-1][0] if sign > 0 else ring.neg(rows[-1][0])


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when det is zero.

    m = A/den is inverted by reducing [A | den*I], whose reduced row
    echelon form is [I | m^-1].  :func:`_one_pivot` gives it as
    D*[I | m^-1], D every row's pivot, so m^-1 is the right block over D."""
    if not m.is_square():
        raise DahaError("inverse of a non-square matrix")
    ring, n, den = m.ring, m.rows, m._den
    zero = ring.zero
    rows = [row + (zero,) * i + (den,) + (zero,) * (n - 1 - i) for i, row in enumerate(m._rows)]
    reduced, pivots, top = _one_pivot(_ring_matrix(ring, rows, ring.one))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _ring_matrix(ring, [row[n:] for row in reduced], top)


def solve_right(m: Matrix, rhs):
    """The unique solution x of m x = rhs, or None when none/ambiguous.

    With m = A/a and rhs = b/c on the joined ring rows, m x = rhs iff
    (c*A) x = a*b, so [c*A | a*b] is built once and reduced by
    :func:`_one_pivot`: x is its last column over D, as :func:`inverse`
    reads its right block.  No program code calls it; it stays because
    the benchmark's tracer wraps it by name (see
    ``tests/test_trace_targets.py``).
    """
    rhs = list(rhs)
    if len(rhs) != m.rows:
        raise DahaError("right-hand side length mismatch")
    ring, ((a, ad), (b, bd)) = _joined(m, Matrix([[x] for x in rhs]))
    rows = [[*x, *y] for x, y in zip(ring.times(a, [bd] * len(a)), ring.times(b, [ad] * len(b)))]
    reduced, pivots, top = _one_pivot(_ring_matrix(ring, rows, ring.one))
    if pivots != list(range(m.cols)):
        return None  # inconsistent (a pivot in the last column) or underdetermined
    return _scalars(ring, [[row[-1] for row in reduced]], top)[0]


def solve_sylvester_homogeneous(pairs) -> Subspace:
    """All matrices T with T*A_i = B_i*T for every pair (A_i, B_i).

    All A_i must be square of one size n and all B_i square of one size
    m; the result is the solution space inside coordinate space of
    dimension m*n, with T vectorized row-major (T[r][s] at index r*n+s).
    The system is written on the rows of the join of all the matrices'
    rings, as T*(A/a) = (B/b)*T iff T*(b*A) = (a*B)*T.
    """
    pairs = list(pairs)
    if not pairs:
        raise DahaError("no equation pairs given")
    n = pairs[0][0].rows
    m = pairs[0][1].rows
    for a, b in pairs:
        if not a.is_square() or a.rows != n:
            raise DahaError("left matrices must be square of equal size")
        if not b.is_square() or b.rows != m:
            raise DahaError("right matrices must be square of equal size")
    ring, over = _joined(*chain.from_iterable(pairs))
    rows = []
    for (ar, ad), (br, bd) in zip(over[::2], over[1::2]):
        ae, nbe = ring.times(ar, [bd] * n), ring.times(br, [ring.neg(ad)] * m)
        # row (r, c): b*A[s][c] at T[r][s], -a*B[r][u] at T[u][c], both at T[r][c]
        for r in range(m):
            for c in range(n):
                row = [ring.zero] * (m * n)
                for u in range(m):
                    row[u * n + c] = nbe[r][u]
                for s in range(n):
                    row[r * n + s] = ae[s][c]
                row[r * n + c] = ring.add(ae[c][c], nbe[r][r])
                rows.append(row)
    return kernel(_ring_matrix(ring, rows, ring.one))


def span_closure(gens) -> int:
    """Dimension of the unital matrix algebra generated by gens.

    Seeds with the identity and repeatedly left-multiplies each newly
    inserted word by every generator, inserting only products that
    enlarge the echelonized span, until stable or until the span is all
    n**2 matrices (see :func:`_closure` for what it skips and why that
    is sound: products g*w where g made w and g**2 lies in span(I, g),
    and every product with the last generator when the ordered product
    of all of them is a nonzero scalar).

    The closure runs on the ring rows of the generators over the join of
    their rings, each the generator scaled by its common denominator,
    and is still exact over the field: a nonzero scalar multiple of a
    generator generates the same unital algebra, and every word becomes
    a nonzero multiple of the corresponding word over the field, so the
    spans agree.  It runs twice at most: first in F_P on the rows' images
    under the ring's residue map (:func:`_residue_closure`), then, only
    when that falls short of n**2, on the ring rows themselves
    (:func:`_exact_closure`).

    Soundness of the F_P pass.  Reduction mod P and the substitution
    q -> Q0 followed by it are ring maps Z -> F_P and Z[q] -> F_P, so
    every word in the reduced generators is the image of the same word
    in the ring rows, and every minor of the reduced words is the image
    of a minor of the exact ones: the rank can only drop.  The argument
    of :func:`_closure`, the last-generator drop and the quadratic skip
    included, holds over any field, so the F_P pass returns the
    dimension over F_P of the algebra of the reduced generators, which
    is at most the exact dimension.  Hence n**2 in F_P proves n**2.
    Below n**2 nothing is proved (a reduced generator may even vanish,
    say when its entries are multiples of P), and the exact pass
    decides, so the result is always the exact dimension.  For n = 1 the
    answer is 1 without either pass: the unital algebra of 1 x 1
    matrices is the field.
    """
    ring, rows, n = _closure_input(gens)
    if n == 1:
        return 1
    if _residue_closure(ring, rows, n) == n * n:
        return n * n
    return _exact_closure(ring, rows, n)


def is_full_algebra(gens, lines) -> bool:
    """Whether the unital algebra generated by the n x n matrices gens is
    every n x n matrix: ``span_closure(gens) == n**2``, with a shorter
    proof when it is not.  The F_P pass of :func:`span_closure` runs
    first, and n**2 there returns True.  Below it, lines() gives
    nonzero n x 1 matrices (v, w), or None, and :func:`_norton` spins v
    under gens and w under their transposes: a spin that stops short of
    n is a proper nonzero subspace over the base field that is
    invariant under gens (the spin of v) or whose annihilator is (the
    spin of w), so the algebra lies in its stabiliser, a proper
    subalgebra, and False is proved.  When lines() gives None or both
    spins reach n, the exact pass decides, so True is always a closure
    of dimension n**2."""
    ring, rows, n = _closure_input(gens)
    if n == 1 or _residue_closure(ring, rows, n) == n * n:
        return True
    start = lines()
    if start is not None:
        spin_ring, ((v, _), (w, _), *over) = _joined(*start, *gens)
        if _norton(spin_ring, [g for g, _ in over], v, w) is None:
            return False
    return _exact_closure(ring, rows, n) == n * n


def _closure_input(gens) -> tuple:
    """The square generators gens of one size as (ring, ring rows, n),
    each generator's rows over the join of their rings."""
    gens = list(gens)
    if not gens:
        raise DahaError("no generators given")
    n = gens[0].rows
    for g in gens:
        if not g.is_square() or g.rows != n:
            raise DahaError("generators must be square of equal size")
    ring, over = _joined(*gens)
    return ring, [g for g, _ in over], n


def _residue_closure(ring, gens, n) -> int:
    """:func:`_closure` in F_P (:class:`_Residues`) on the images of the
    ring rows gens under the ring's residue map."""
    field = _residues(n)
    residue = ring.residue
    packed = [field.generator(map(residue, chain.from_iterable(g))) for g in gens]
    return _closure(packed, field.ident, field.word, field.insert, n * n)


def _exact_closure(ring, gens, n) -> int:
    """:func:`_closure` on the ring rows gens themselves.  Words are flat
    row-major ring lists, each generator multiplies by its nonzero
    entries only (the ring's word product), and the ring's insert
    reduces a candidate by the fraction-free step
    ``v <- (b[p]/g)*v - (v[p]/g)*b`` with g the gcd of b[p] and v[p] and
    stores it divided by the gcd of its entries: invertible row
    operations over the field, so membership in the span and the rank
    are those of elimination over the field (see
    :meth:`_Integers.insert`)."""
    ident = [ring.one if i == j else ring.zero for i in range(n) for j in range(n)]
    sparse = [[[(k * n, x) for k, x in enumerate(row) if x] for row in g] for g in gens]
    return _closure(sparse, ident, ring.word, ring.insert, n * n)


def _closure(gens, ident, product, insert, cap) -> int:
    """Close the span of ident under left multiplication by gens, as
    :func:`_rref` and :func:`_bareiss` take the ring's operations:
    product and insert are a ring's word product and insert.

    Soundness.  Let S be the span of the inserted words (ident and every
    product that enlarged the basis).  S holds ident and lies in the
    algebra, so S is the algebra as soon as g*w is in S for every
    generator g and inserted word w.  Each inserted word is multiplied
    by every generator once, and a product whose insertion fails is in
    S already.  The one product not formed is g*w where w = g*w' was
    made by g itself, and only when g**2 lies in span(I, g): then
    g*w = g**2*w' = a*w' + b*w, and w' and w are both inserted words.
    The condition is tested exactly on the generator, by inserting I, g
    and g**2 into an empty basis, once per generator and only when such
    a product first comes up; a generator with no quadratic relation
    never has a product skipped.  Independent vectors among n**2
    coordinates number at most cap = n**2, and a span of that dimension
    is every matrix, so the closure stops as soon as the basis reaches
    it.

    The last generator is dropped when the ordered product g1*...*gk is
    a nonzero scalar l*I (t0*t1*t2*t3 = q**-1 on a module), tested
    exactly: the product is stored into an empty basis, then the
    identity is rejected.  Every g_i is then invertible, g_i**-1 is a
    polynomial in g_i (Cayley-Hamilton), and gk = l*(g1*...*g(k-1))**-1
    lies in the unital algebra of the others.  The test reads only the
    generators, not params, so it holds on any input, a module whose
    relations fail included.
    """
    if len(gens) > 1 and cap > 1:
        whole = ident
        for g in reversed(gens):
            whole = product(g, whole)
        scalar = {}
        if insert(scalar, whole) and not insert(scalar, ident):
            gens = gens[:-1]
    basis = {}  # leading index -> what insert stores for that row
    insert(basis, ident)
    quadratic = [None] * len(gens)  # gens[i]**2 in span(I, gens[i]), once asked
    frontier = [(ident, None)]  # (word, index of the generator that made it)
    while frontier and len(basis) < cap:
        new = []
        for w, last in frontier:
            for i, g in enumerate(gens):
                if i == last:
                    if quadratic[i] is None:
                        gi = product(g, ident)
                        small = {}
                        insert(small, ident)
                        insert(small, gi)
                        quadratic[i] = not insert(small, product(g, gi))
                    if quadratic[i]:
                        continue
                cand = product(g, w)
                if insert(basis, cand):
                    if len(basis) == cap:
                        return cap
                    new.append((cand, i))
        frontier = new
    return len(basis)
