"""Dense exact linear algebra over an exact scalar field.

Everything here works with :mod:`daha.scalar` values (Fraction or
RatFun); a pivot is any nonzero entry, there are no tolerances
anywhere.  A rational matrix is held as int rows over one common
denominator, a matrix over Q(q) as int polynomial rows over one int
polynomial denominator in the canonical form that
:func:`daha.scalar._canonical_polys` computes.  Products, sums,
elimination, the determinant (Bareiss's), the inverse, the Sylvester
solve and the span closure run fraction-free on those rows and
normalise once per result; every elimination is read off
:func:`_one_pivot`.  The back-elimination :func:`_rref`, Bareiss's loop
:func:`_bareiss` and the span closure :func:`_closure` are each written
once and handed the int or the Z[q] row operations.  Fractions or
RatFuns are made only for the scalars a routine returns, by
:func:`_scalars` as for :attr:`Matrix.entries`.
Matrices are immutable after construction, all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul

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

    A rational matrix is held as int rows ``_ints`` over a positive int
    denominator ``_den``, with no common factor (canonical, see
    :meth:`__mul__`).  A matrix with a RatFun entry has every entry
    lifted into Q(q) (:func:`~daha.scalar.as_scalars`) and is held as
    int polynomial rows ``_polys`` (ascending degree, () for zero) over
    an int polynomial denominator ``_den``; ``_ints`` is None.  Its
    canonical form is the unique one of
    :func:`~daha.scalar._canonical_polys`: the entries N_ij and D have
    no common factor of positive degree in Q[q], the gcd of all their
    int coefficients is 1, and D has a positive leading coefficient.
    So ``==`` compares tuples of ints on both forms, and a rational
    matrix meets a Q(q) one as constant polynomials over (den,), which
    is canonical.  Those two are the only storage forms: the
    scalar :attr:`entries` (Fractions or RatFuns) are built anew on each
    read, for printing and for callers outside this module, and
    :meth:`entry` builds one.  A matrix learns its one field once, at
    construction, and an operation with a Q(q) operand gives a Q(q)
    result.
    """

    __slots__ = ("rows", "cols", "_ints", "_polys", "_den")

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0]:
            raise DahaError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DahaError("ragged matrix rows")
        flat = as_scalars(chain.from_iterable(rows))
        rows = tuple(flat[i:i + ncols] for i in range(0, len(flat), ncols))
        if isinstance(flat[0], RatFun):
            terms, den = _raw_from_pairs([(k, (x._n, x._d)) for k, x in enumerate(flat)])
            polys = [terms.get(k, ()) for k in range(len(flat))]
            _poly_matrix([polys[i:i + ncols] for i in range(0, len(flat), ncols)], den, self)
        else:
            pairs = [[(e.numerator, e.denominator) for e in row] for row in rows]
            _fill(self, *_over_lcm(pairs), polys=None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Matrix":
        """The n x n identity over field (QQ or QQ_Q), built straight on
        its canonical rows: int rows over 1, or int polynomial rows over
        (1,)."""
        if n < 1:
            raise DahaError("empty matrix")
        if field is QQ_Q:
            rows = tuple(tuple((1,) if i == j else () for j in range(n)) for i in range(n))
            return _fill(object.__new__(cls), None, (1,), rows)
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return _fill(object.__new__(cls), rows, 1, None)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        """The matrix product.

        Rational operands multiply int rows and denominators, then
        divide out the gcd of all entries and the denominator.  That
        pair is canonical.  Reduced fractions n/e over their lcm D
        already have content 1: a prime p | D divides some e as often
        as D, and p divides neither that n nor D/e.  Any content-1 pair
        (rows', D') for the same matrix has D | D' and rows' =
        (D'/D)*rows, so D' = D.  Hence ``==`` on canonical (rows, den)
        pairs is exact matrix equality.  Otherwise the int polynomial
        rows multiply over the product of the denominators, each row of
        the product summing its nonzero entries times the rows of
        ``other``, and the result is put into canonical form once.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DahaError(f"shape mismatch {self.shape} * {other.shape}")
        a, b = self._ints, other._ints
        if a is not None and b is not None:
            cols = list(zip(*b))
            rows = [[sum(map(mul, row, col)) for col in cols] for row in a]
            return _int_matrix(rows, self._den * other._den)
        (a, ad), (b, bd) = _poly_rows(self), _poly_rows(other)
        support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
        out = []
        for row in a:
            acc = [()] * other.cols
            for k, x in enumerate(row):
                if x:
                    for j, y in support[k]:
                        acc[j] = _padd(acc[j], _pmul(x, y)) if acc[j] else _pmul(x, y)
            out.append(acc)
        return _poly_matrix(out, _pmul(ad, bd))

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        if self._ints is not None and not isinstance(c, RatFun):
            num, den = c.numerator, self._den * c.denominator
            return _int_matrix([[num * x for x in row] for row in self._ints], den)
        rows, den = _poly_rows(self)
        cn, cd = _parts(c)
        if not cn:
            return _poly_matrix([[()] * self.cols] * self.rows, (1,))
        return _poly_matrix(_times_rows(rows, cn), _pmul(den, cd))

    def __add__(self, other, sign=1):
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DahaError("shape mismatch in addition")
        a, b = self._ints, other._ints
        if a is not None and b is not None:
            den = lcm(self._den, other._den)
            fa, fb = den // self._den, sign * (den // other._den)
            rows = [[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            return _int_matrix(rows, den)
        (a, ad), (b, bd) = _poly_rows(self), _poly_rows(other)
        fa, fb = _cofactors(ad, bd)
        if sign < 0:
            fb = [-x for x in fb]
        rows = [
            [_padd(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(_times_rows(a, fa), _times_rows(b, fb))
        ]
        return _poly_matrix(rows, _pmul(ad, fa))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self._ints is not None and other._ints is not None:
            return self._den == other._den and self._ints == other._ints
        return _poly_rows(self) == _poly_rows(other)

    def __hash__(self):
        return hash((self.rows, self.cols))

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The rows of scalars, built on each read (read it once where
        many entries are needed): Fractions of a rational matrix,
        RatFuns of a Q(q) one."""
        return _scalars(_ring_rows(self), self._den)

    def entry(self, i: int, j: int):
        """Entry (i, j), without building the others."""
        if self._ints is None:
            return _ratfun(self._polys[i][j], self._den)
        return Fraction(self._ints[i][j], self._den)

    @property
    def field(self):
        """QQ for a rational matrix, QQ_Q for one over Q(q)."""
        return QQ if self._ints is not None else QQ_Q

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
        rows = _ring_rows(self)
        c = rows[0][0]
        if any(e != c if i == j else e for i, row in enumerate(rows) for j, e in enumerate(row)):
            return None
        return _ratfun(c, self._den) if self._ints is None else Fraction(c, self._den)

    def _strings(self) -> list:
        """The entries as exact strings, read off the int rows of a
        rational matrix: x/den prints as (x/g)/(den/g) with g =
        gcd(x, den), without "/1"."""
        if self._ints is None:
            return [[scalar_to_str(e) for e in row] for row in self.entries]
        den = self._den
        return [[_ratio_str(x, den) for x in row] for row in self._ints]

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
            m = _int_matrix([ints[i:i + cols] for i in range(0, len(ints), cols)], den)
        else:
            m = cls([[scalar_from_json(e) for e in row] for row in entries])
        if m.rows != json_field(data, "rows", int) or m.cols != json_field(data, "cols", int):
            raise InputError("matrix JSON shape mismatch")
        return m


_set_rows, _set_cols, _set_ints, _set_polys, _set_den = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__
)


def _fill(m: Matrix, ints, den, polys) -> Matrix:
    """Set the slots of m from its int or its polynomial rows."""
    rows = polys if ints is None else ints
    _set_rows(m, len(rows))
    _set_cols(m, len(rows[0]))
    _set_ints(m, ints)
    _set_polys(m, polys)
    _set_den(m, den)
    return m


def _over_lcm(rows) -> tuple:
    """Rows of (numerator, positive denominator) int pairs as int rows
    over the lcm of the denominators, and that lcm: the one rule that
    turns rationals into int rows.  Reduced pairs give the canonical
    form (see :meth:`Matrix.__mul__`); others need :func:`_int_matrix`."""
    den = lcm(*(d for row in rows for _, d in row))
    return tuple(tuple(x * (den // d) for x, d in row) for row in rows), den


def _int_matrix(rows, den) -> Matrix:
    """The rational matrix rows/den (lists of ints, den > 0), reduced to
    the canonical form."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
    return _fill(object.__new__(Matrix), tuple(map(tuple, rows)), den, None)


def _ratio_str(x: int, den: int) -> str:
    """x/den in lowest terms as an exact string, without "/1"."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _poly_matrix(rows, den, out=None) -> Matrix:
    """The Q(q) matrix rows/den (rows of int polynomials, () for zero,
    over a nonzero int polynomial den) in canonical form, filled into
    out when given; every Q(q) matrix is made here."""
    cols = len(rows[0])
    flat, den = _canonical_polys([x for row in rows for x in row], den)
    polys = tuple(flat[i:i + cols] for i in range(0, len(flat), cols))
    return _fill(object.__new__(Matrix) if out is None else out, None, den, polys)


def _ring_matrix(rows, den) -> Matrix:
    """The matrix rows/den in canonical form: int rows over a nonzero int
    den of either sign, or int polynomial rows over a nonzero int
    polynomial den; the one way back from :func:`_ring_rows`."""
    if type(den) is not int:
        return _poly_matrix(rows, den)
    if den < 0:
        rows, den = [[-x for x in row] for row in rows], -den
    return _int_matrix(rows, den)


def _ring_rows(m: Matrix):
    """m's int rows, or its int polynomial rows over Q(q): zero exactly
    where m is."""
    return m._polys if m._ints is None else m._ints


def _poly_rows(m: Matrix) -> tuple:
    """m as (int polynomial rows, polynomial denominator): a rational
    matrix's canonical int rows are constants over (den,), canonical too."""
    if m._ints is None:
        return m._polys, m._den
    return tuple(tuple((x,) if x else () for x in row) for row in m._ints), (m._den,)


def _times_rows(rows, c):
    """Every entry of the polynomial rows times the nonzero polynomial c."""
    if c == (1,):
        return rows
    return [[_pmul(c, x) if x else () for x in row] for row in rows]


def _times_columns(m: Matrix, c) -> Matrix:
    """m diag(c) for scalars c: c put over one denominator L, each
    column of m's ring rows times its numerator, over m's denominator
    times L; no product of matrices.  A RatFun in m or c gives a Q(q)
    result, as in the other operations."""
    if m._ints is not None and not any(type(x) is RatFun for x in c):
        (nums,), den = _over_lcm([[(x.numerator, x.denominator) for x in c]])
        return _int_matrix([list(map(mul, row, nums)) for row in m._ints], m._den * den)
    terms, den = _raw_from_pairs([(j, _parts(x)) for j, x in enumerate(c)])
    nums = [terms.get(j, ()) for j in range(m.cols)]
    rows, mden = _poly_rows(m)
    rows = [[_pmul(x, y) if x and y else () for x, y in zip(row, nums)] for row in rows]
    return _poly_matrix(rows, _pmul(mden, den))


def _scalars(rows, den) -> tuple:
    """Ring rows over den as rows of scalars: Fractions over an int den,
    RatFuns over an int polynomial one."""
    if type(den) is int:
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)
    return tuple(tuple(_ratfun(x, den) for x in row) for row in rows)


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


def _rref(rows, insert, clear):
    """The reduced row echelon form of ring rows, up to one nonzero factor
    per row: (rows, pivot columns).  The rows are inserted by insert
    (:func:`_int_insert` or :func:`_poly_insert`, each storing ``[row,
    ...]`` at its pivot) until the basis is full, then each pivot column
    is cleared from the rows above by clear (:func:`_cancel` or
    :func:`_poly_clear`), the gcd-cancelled step that keeps the primitive
    part."""
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
    by D/h, h its pivot and D the lcm of the pivots (positive, or with a
    positive leading coefficient; 1 or (1,) when there is none): (rows,
    pivot columns, D).  Each step is an invertible row operation over m's
    field, so the row space is kept, every pivot ends equal to D and the
    reduced row echelon form is the rows over D; rank, kernel,
    kernel_line, inverse and solve_right read every elimination off it,
    alike on both rings."""
    if m._ints is not None:
        reduced, pivots = _rref(m._ints, _int_insert, _cancel)
        heads = [row[p] for row, p in zip(reduced, pivots)]
        top = lcm(*heads)
        return [[x * (top // h) for x in row] for row, h in zip(reduced, heads)], pivots, top
    reduced, pivots = _rref(m._polys, _poly_insert, _poly_clear)
    heads = [row[p] for row, p in zip(reduced, pivots)]
    top = heads[0] if heads else (1,)
    for h in heads[1:]:
        top = _pmul(top, _cofactors(top, h)[0])
    return [_times_rows([row], _pexquo(top, h))[0] for row, h in zip(reduced, heads)], pivots, top


def _poly_cancel(v, b, p):
    """``(b[p]/g)*v - (v[p]/g)*b``, zero at p, with g the primitive gcd of
    b[p] and v[p], which divides both in Z[q] (Gauss's lemma)."""
    g = _pgcd(b[p], v[p])
    return _combine(_pexquo(b[p], g), v, _pexquo(v[p], g), b)


def _poly_clear(v, b, p):
    """:func:`_poly_cancel` kept as its primitive part, the first nonzero
    entry with a positive leading coefficient, as :func:`_poly_insert`
    stores a row."""
    v = _poly_cancel(v, b, p)
    return _canonical_polys(v, next(filter(None, v)))[0]


def _combine(s, row, c, top):
    """``s*row - c*top`` on int polynomial rows, () for zero, s nonzero."""
    nc = [-x for x in c] if c else None
    out = []
    for a, b in zip(row, top):
        x = _pmul(s, a) if a else ()
        out.append(_padd(x, _pmul(nc, b)) if nc and b else x)
    return out


def rank(m: Matrix) -> int:
    """The number of pivots of :func:`_one_pivot`."""
    return len(_one_pivot(m)[1])


def _null_vectors(reduced, pivots, top, cols) -> list:
    """The kernel's spanning vectors in the ring of the rows of
    :func:`_one_pivot`, every pivot top = D: for each free column f,
    v_f = D, v_p = -row[f] at each pivot column p and 0 elsewhere."""
    zero = 0 if type(top) is int else ()
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[f] = top
        for row, p in zip(reduced, pivots):
            x = row[f]
            v[p] = -x if type(x) is int else [-c for c in x]
        vectors.append(v)
    return vectors


def kernel(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank.

    The null vectors of :func:`_null_vectors` are brought to reduced
    echelon form by a second :func:`_one_pivot` on their ring rows and
    divided by its D once, so scalars are made for the basis alone."""
    vectors = _null_vectors(*_one_pivot(m), m.cols)
    if not vectors:
        return Subspace(m.cols, ())
    reduced, _, top = _one_pivot(_ring_matrix(vectors, 1 if m._ints is not None else (1,)))
    return Subspace(m.cols, _scalars(reduced, top))


def kernel_line(m: Matrix):
    """A vector spanning the kernel of m when that kernel is a line, else
    None, in m's ring (ints or int polynomials): the one vector of
    :func:`_null_vectors`, built only when the kernel is a line."""
    reduced, pivots, top = _one_pivot(m)
    if len(pivots) != m.cols - 1:
        return None
    return _null_vectors(reduced, pivots, top, m.cols)[0]


def eigenbasis(w: Matrix, of: Matrix):
    """The matrix whose column i spans the kernel of w - theta_i, theta_i
    the i-th diagonal entry of of, or None when those entries are not
    distinct, when w and of lie over two fields or when a kernel is not
    a line.  With w = R/D, of = S/E and fa, fb the cofactors of D and E
    to their lcm L, w - theta_i = (fa R - fb S_ii I)/L: each shift is
    formed on w's int or int polynomial rows, with no scalar and no
    matrix sum, and handed to :func:`kernel_line`, whose columns are in
    that ring."""
    heads = [row[i] for i, row in enumerate(_ring_rows(of))]
    if len(set(heads)) != len(heads) or w.field is not of.field:
        return None
    if w._ints is not None:
        g = gcd(w._den, of._den)
        fa, fb = of._den // g, -(w._den // g)
        rows = [[fa * x for x in row] for row in w._ints]
        shifts, plus, one = [fb * h for h in heads], add, 1
    else:
        fa, fb = _cofactors(w._den, of._den)
        rows, fb = _times_rows(w._polys, fa), [-x for x in fb]
        shifts, plus, one = [_pmul(fb, h) if h else () for h in heads], _padd, (1,)
    columns = []
    for s in shifts:
        shifted = [[*row[:r], plus(row[r], s), *row[r + 1:]] for r, row in enumerate(rows)]
        v = kernel_line(_ring_matrix(shifted, one))
        if v is None:
            return None
        columns.append(v)
    return _ring_matrix(list(zip(*columns)), one)


def det(m: Matrix):
    """Exact determinant: :func:`_bareiss` on the int or int polynomial
    rows A of m = A/den gives det A, and det m is det A over den**n, a
    Fraction or a RatFun."""
    if not m.is_square():
        raise DahaError("determinant of a non-square matrix")
    if m._ints is not None:
        sign, d = _bareiss(m._ints, 1, 0, _int_step)
        return Fraction(sign * d, m._den ** m.rows)
    sign, d = _bareiss(m._polys, (1,), (), _poly_step)
    return _ratfun([sign * x for x in d], _ppow(m._den, m.rows))


def _bareiss(rows, one, zero, step):
    """Bareiss's fraction-free elimination (Math. Comp. 22, 1968) on the
    square ring rows A: (sign, d) with det A = sign*d.

    The step at pivot pv = top[k] turns each row below into ``(pv*row -
    row[k]*top) / prev``, prev the pivot before (one at first).  By
    Sylvester's identity, after k steps entry (i, j) is the minor of A on
    rows 1..k, i and columns 1..k, j (rows as swapped), so every division
    is exact in Z or Z[q] and the last pivot is det A.  A zero pivot is
    swapped with the first row below that is nonzero in its column, each
    swap flipping the sign; a column with none gives det A = zero.  step
    is :func:`_int_step` or :func:`_poly_step`."""
    rows = list(rows)
    n = len(rows)
    sign, prev = 1, one
    for k in range(n - 1):
        if not rows[k][k]:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return 1, zero
            rows[k], rows[pr], sign = rows[pr], rows[k], -sign
        top = rows[k]
        pv = top[k]
        for i in range(k + 1, n):
            rows[i] = step(pv, rows[i], rows[i][k], top, prev)
        prev = pv
    return sign, rows[-1][-1]


def _int_step(pv, row, f, top, prev):
    """One Bareiss step on int rows: ``(pv*row - f*top) // prev``."""
    return [(pv * a - f * b) // prev for a, b in zip(row, top)]


def _poly_step(pv, row, f, top, prev):
    """:func:`_int_step` on int polynomial rows, divided by
    :func:`~daha.scalar._pexquo`."""
    return [_pexquo(x, prev) if x else () for x in _combine(pv, row, f, top)]


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when det is zero.

    m = A/den is inverted by reducing [A | den*I], whose reduced row
    echelon form is [I | m^-1].  :func:`_one_pivot` gives it as
    D*[I | m^-1], D every row's pivot, so m^-1 is the right block over D."""
    if not m.is_square():
        raise DahaError("inverse of a non-square matrix")
    n, den = m.rows, m._den
    zero, one = (0, 1) if m._ints is not None else ((), (1,))
    rows = [
        row + (zero,) * i + (den,) + (zero,) * (n - 1 - i)
        for i, row in enumerate(_ring_rows(m))
    ]
    reduced, pivots, top = _one_pivot(_ring_matrix(rows, one))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _ring_matrix([row[n:] for row in reduced], top)


def solve_right(m: Matrix, rhs):
    """The unique solution x of m x = rhs, or None when none/ambiguous.

    With m = A/a and rhs = b/c on ring rows, m x = rhs iff (c*A) x = a*b,
    so [c*A | a*b] is built once and reduced by :func:`_one_pivot`: x is
    its last column over D, as :func:`inverse` reads its right block.
    No program code calls it; it stays because the benchmark's tracer
    wraps it by name (see ``tests/test_trace_targets.py``).
    """
    rhs = list(rhs)
    if len(rhs) != m.rows:
        raise DahaError("right-hand side length mismatch")
    b = Matrix([[x] for x in rhs])
    if m._ints is not None and b._ints is not None:
        rows, one = [[b._den * x for x in r] + [m._den * y] for r, (y,) in zip(m._ints, b._ints)], 1
    else:
        (ar, ad), (br, bd) = _poly_rows(m), _poly_rows(b)
        rows, one = [[*x, *y] for x, y in zip(_times_rows(ar, bd), _times_rows(br, ad))], (1,)
    reduced, pivots, top = _one_pivot(_ring_matrix(rows, one))
    if pivots != list(range(m.cols)):
        return None  # inconsistent (a pivot in the last column) or underdetermined
    return _scalars([[row[-1] for row in reduced]], top)[0]


def solve_sylvester_homogeneous(pairs) -> Subspace:
    """All matrices T with T*A_i = B_i*T for every pair (A_i, B_i).

    All A_i must be square of one size n and all B_i square of one size
    m; the result is the solution space inside coordinate space of
    dimension m*n, with T vectorized row-major (T[r][s] at index r*n+s).
    The system is written on int rows, or int polynomial rows when any
    matrix is over Q(q), as T*(A/a) = (B/b)*T iff T*(b*A) = (a*B)*T.
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
    rational = all(x._ints is not None for pair in pairs for x in pair)
    zero, plus = (0, add) if rational else ((), _padd)
    rows = []
    for a, b in pairs:
        if rational:
            ae = [[b._den * x for x in row] for row in a._ints]
            nbe = [[-a._den * x for x in row] for row in b._ints]
        else:
            (ar, ad), (br, bd) = _poly_rows(a), _poly_rows(b)
            ae, nbe = _times_rows(ar, bd), _times_rows(br, [-x for x in ad])
        # row (r, c): b*A[s][c] at T[r][s], -a*B[r][u] at T[u][c], both at T[r][c]
        for r in range(m):
            for c in range(n):
                row = [zero] * (m * n)
                for u in range(m):
                    row[u * n + c] = nbe[r][u]
                for s in range(n):
                    row[r * n + s] = ae[s][c]
                row[r * n + c] = plus(ae[c][c], nbe[r][r])
                rows.append(row)
    return kernel(_ring_matrix(rows, 1 if rational else (1,)))


def span_closure(gens) -> int:
    """Dimension of the unital matrix algebra generated by gens.

    Seeds with the identity and repeatedly left-multiplies each newly
    inserted word by every generator, inserting only products that
    enlarge the echelonized span, until stable or until the span is all
    n**2 matrices (see :func:`_closure` for what it skips and why that
    is sound: products g*w where g made w and g**2 lies in span(I, g),
    and every product with the last generator when the ordered product
    of all of them is a nonzero scalar).

    When every generator is rational the closure runs on their int
    rows, each the generator scaled by its common denominator, and is
    still exact over the rationals: a nonzero scalar multiple of a
    generator generates the same unital algebra, and every word becomes
    a nonzero multiple of the corresponding rational word, so the spans
    agree.  Words are flat row-major int lists, and each generator
    multiplies by its nonzero entries only.  Q(q) words are matrices,
    inserted as their flat int polynomial rows.  Either insert reduces a
    candidate by the fraction-free step ``v <- (b[p]/g)*v - (v[p]/g)*b``
    with g the gcd of b[p] and v[p] and stores it divided by the gcd of
    its entries: invertible row operations over the field, so
    membership in the span and the rank are those of elimination over
    the field (see :func:`_int_insert` and :func:`_poly_insert`).
    """
    gens = list(gens)
    if not gens:
        raise DahaError("no generators given")
    n = gens[0].rows
    for g in gens:
        if not g.is_square() or g.rows != n:
            raise DahaError("generators must be square of equal size")
    if all(g._ints is not None for g in gens):
        ident = [int(i == j) for i in range(n) for j in range(n)]
        sparse = [[[(k * n, x) for k, x in enumerate(row) if x] for row in g._ints] for g in gens]
        return _closure(sparse, ident, _int_product, _int_insert, n * n)
    insert = lambda basis, w: _poly_insert(basis, [x for row in w._polys for x in row])
    return _closure(gens, Matrix.identity(n, QQ_Q), mul, insert, n * n)


def _closure(gens, ident, product, insert, cap) -> int:
    """Close the span of ident under left multiplication by gens, on
    either ring: product and insert are the int or the Z[q] ones, as
    :func:`_rref` and :func:`_bareiss` take the ring's row operations.

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


def _int_insert(basis, v) -> bool:
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


def _cancel(v, b, p):
    """``(b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])``, zero at p,
    divided by the gcd of its entries."""
    g = gcd(b[p], v[p])
    bp, c = b[p] // g, v[p] // g
    return _primitive([bp * x - c * y for x, y in zip(v, b)])


def _poly_insert(basis, v) -> bool:
    """:func:`_int_insert` on a flat vector of int polynomials: the
    leading entry p of v is cleared by :func:`_poly_cancel` while a basis
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
        v = _poly_cancel(v, basis[p][0], p)


def _primitive(v):
    """An int vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_product(a, w):
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
