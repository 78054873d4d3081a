"""Dense exact linear algebra over an exact scalar field.

Everything here works with :mod:`daha.scalar` values (Fraction or
RatFun); a pivot is any nonzero entry, there are no tolerances
anywhere.  A rational matrix is held as int rows over one common
denominator, so its arithmetic, elimination, determinant and the span
closure run fraction-free on Python ints, and results read as
Fractions; RatFun input takes the field loops.  Matrices are immutable
after construction, all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

from .errors import DahaError, InputError, SingularMatrixError
from .scalar import (
    QQ,
    QQ_Q,
    RatFun,
    _rational_parts,
    as_scalar,
    as_scalars,
    json_field,
    scalar_from_json,
    scalar_to_str,
)


class Matrix:
    """An immutable rows x cols matrix with exact scalar entries.

    A rational matrix is held as int rows ``_ints`` over a positive
    denominator ``_den``, with no common factor (canonical, see
    :meth:`__mul__`); its Fraction :attr:`entries` are built on first
    read.  A matrix with a RatFun entry has every entry lifted into Q(q)
    (:func:`~daha.scalar.as_scalars`), keeps them (``_ints`` is None)
    and takes the field loops, as does every operation with such an
    operand; so a matrix learns its one field once, at construction.
    """

    __slots__ = ("rows", "cols", "_ints", "_den", "_entries")

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
            _fill(self, None, None, rows)
        else:
            pairs = [[(e.numerator, e.denominator) for e in row] for row in rows]
            _fill(self, *_over_lcm(pairs), None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "Matrix":
        return cls([[one if i == j else 0 for j in range(n)] for i in range(n)])

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
        pairs is exact matrix equality.  Other operands take the field
        loop, a sum of products per entry.
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
        bt = list(zip(*other.entries))
        return _field_matrix(
            [[sum(a * b for a, b in zip(arow, bcol)) for bcol in bt] for arow in self.entries]
        )

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        if self._ints is not None and not isinstance(c, RatFun):
            num, den = c.numerator, self._den * c.denominator
            return _int_matrix([[num * x for x in row] for row in self._ints], den)
        return _field_matrix([[e * c for e in row] for row in self.entries])

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
        if sign < 0:
            other = other.scale(-1)
        return _field_matrix(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

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
        return all(a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb))

    def __hash__(self):
        return hash((self.rows, self.cols))

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The rows of scalars; built on first read for a rational matrix."""
        rows = self._entries
        if rows is None:
            den = self._den
            rows = tuple(tuple(Fraction(x, den) for x in row) for row in self._ints)
            object.__setattr__(self, "_entries", rows)
        return rows

    def entry(self, i: int, j: int):
        """Entry (i, j), without building the others."""
        if self._ints is None:
            return self._entries[i][j]
        return Fraction(self._ints[i][j], self._den)

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
        ints = self._ints
        rows = self._entries if ints is None else ints
        c = rows[0][0]
        if any(e != c if i == j else e for i, row in enumerate(rows) for j, e in enumerate(row)):
            return None
        return c if ints is None else Fraction(c, self._den)

    def _strings(self) -> list:
        """The entries as exact strings, read off the int rows of a
        rational matrix: x/den prints as (x/g)/(den/g) with g =
        gcd(x, den), without "/1"."""
        if self._ints is None:
            return [[scalar_to_str(e) for e in row] for row in self._entries]
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
        are read as rationals straight into int rows over the lcm of
        their denominators; otherwise all are parsed and lifted to Q(q)."""
        entries = json_field(data, "entries", list)
        widths = {len(row) if isinstance(row, list) else 0 for row in entries}
        if len(widths) != 1 or 0 in widths:
            raise InputError("matrix entries must be nonempty lists of equal length")
        if all(isinstance(e, str) and "|" not in e for row in entries for e in row):
            try:
                parts = [[_rational_parts(e) for e in row] for row in entries]
            except ValueError as exc:
                raise InputError(str(exc)) from None
            m = _int_matrix(*_over_lcm(parts))
        else:
            m = cls([[scalar_from_json(e) for e in row] for row in entries])
        if m.rows != json_field(data, "rows", int) or m.cols != json_field(data, "cols", int):
            raise InputError("matrix JSON shape mismatch")
        return m


_SLOT_SETTERS = tuple(getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _fill(m: Matrix, ints, den, entries) -> Matrix:
    """Set the slots of m from one of its two forms."""
    rows = entries if ints is None else ints
    for setter, value in zip(_SLOT_SETTERS, (len(rows), len(rows[0]), ints, den, entries)):
        setter(m, value)
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


def _field_matrix(rows) -> Matrix:
    """A matrix from rows of scalars that are all RatFuns."""
    return _fill(object.__new__(Matrix), None, None, tuple(map(tuple, rows)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of coordinate space, held as a reduced-echelon basis.

    Basis rows are pairwise independent with strictly increasing pivot
    columns; the zero space has an empty basis.
    """

    ambient: int
    basis: tuple

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise DahaError("vector length does not match ambient dimension")
        reduced, _ = _rref_rows(Matrix(rows)) if rows else ([], [])
        return cls(ambient, tuple(tuple(r) for r in reduced))

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rref_rows(m: Matrix):
    """Reduced row echelon form of m's rows: (nonzero rows, pivot cols).

    A rational matrix is eliminated fraction-free on its int rows (a
    nonzero multiple of m, so the same row space) and the reduced rows
    come back as Fractions.  Forward elimination inserts the rows one by
    one with :func:`_int_insert`: a candidate is reduced at its leading
    entry by ``v <- (b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])``
    and stored divided by the gcd of its entries.  Back-elimination
    clears each pivot column from the rows above it by the same step,
    in decreasing pivot order, and divides out the content again; each
    row is divided by its pivot only once, at the end.  Every step is
    an invertible rational row operation, so the rows span the same
    space throughout, and the reduced row echelon form of a space is
    unique: the result is the one the field loop computes.  Other
    scalars (RatFun) take the field loop, which divides by the pivot.
    """
    if m._ints is None:
        return _field_rref_rows([list(r) for r in m._entries])
    reduced, pivots = _int_rref(m)
    zero = Fraction(0)
    return [
        [Fraction(x, row[p]) if x else zero for x in row]
        for row, p in zip(reduced, pivots)
    ], pivots


def _int_rref(m: Matrix):
    """:func:`_rref_rows` of a rational m before the division by the
    pivots: primitive int rows, each a multiple of a reduced row."""
    basis = {}  # pivot column -> [primitive int row, its support]
    for row in m._ints:
        _int_insert(basis, row)
        if len(basis) == m.cols:
            break
    pivots = sorted(basis)
    reduced = [basis[p][0] for p in pivots]
    for k in range(len(pivots) - 1, 0, -1):
        p, b = pivots[k], reduced[k]
        for i in range(k):
            if reduced[i][p]:
                reduced[i] = _primitive(_cancel(reduced[i], b, p))
    return reduced, pivots


def _field_rref_rows(rows):
    """In-place reduced row echelon form over any exact field."""
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m: Matrix) -> int:
    return len(_rref_rows(m)[1])


def kernel(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank."""
    reduced, pivots = _rref_rows(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    field = QQ if m._ints is not None else QQ_Q
    vectors = []
    for fc in free:
        v = [field.zero] * m.cols
        v[fc] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def kernel_line(m: Matrix):
    """A vector spanning the kernel of m when that kernel is a line, else
    None; from :func:`_int_rref` for a rational m, so without Fractions.
    With pivots h_r and free column f it is v_f = prod(h) and
    v_{p_r} = -row_r[f] * prod(h_s, s != r)."""
    if m._ints is None:
        reduced, pivots = _field_rref_rows([list(r) for r in m._entries])
    else:
        reduced, pivots = _int_rref(m)
    if len(pivots) != m.cols - 1:
        return None
    free = next(c for c, p in enumerate(pivots + [m.cols]) if c != p)
    heads = [row[p] for row, p in zip(reduced, pivots)]
    v = [0] * m.cols
    v[free] = prod(heads, start=QQ_Q.one if m._ints is None else 1)
    for r, (row, p) in enumerate(zip(reduced, pivots)):
        v[p] = -row[free] * prod(heads[:r] + heads[r + 1:])
    return v


def det(m: Matrix):
    """Exact determinant.

    Rational input: Bareiss's fraction-free elimination (Math. Comp. 22,
    1968) runs on the int rows, where every division is exact; the
    determinant is the last pivot divided by den**n.  Other scalars
    (RatFun) take elimination with exact pivoting.
    """
    if not m.is_square():
        raise DahaError("determinant of a non-square matrix")
    if m._ints is not None:
        return _int_det(m)
    return _field_det(m.entries)


def _field_det(entries):
    """Elimination with exact pivoting over any exact field."""
    rows = [list(r) for r in entries]
    n = len(rows)
    sign = 1
    acc = None
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            return entries[0][0] * 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        pv = rows[c][c]
        acc = pv if acc is None else acc * pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return acc if sign > 0 else -acc


def _int_det(m: Matrix):
    """Bareiss elimination on the int rows of a rational matrix; a Fraction."""
    rows = list(m._ints)
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            pr = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pr is None:
                return Fraction(0)
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        rk = rows[k]
        pv = rk[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(rows[i], rk)]
        prev = pv
    return Fraction(sign * rows[-1][-1], m._den ** n)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when det is zero.

    A rational m = A/den is inverted by reducing [A | den*I], whose
    reduced row echelon form is [I | m^-1].  :func:`_int_rref` gives
    row i of it as [h_i e_i | y_i] for a nonzero head h_i, so row i of
    m^-1 is y_i/h_i, and m^-1 is read off as int rows over the lcm of
    the |h_i|, each head's sign kept."""
    if not m.is_square():
        raise DahaError("inverse of a non-square matrix")
    n = m.rows
    if m._ints is None:
        rows = [
            list(row) + [QQ_Q.one if i == j else QQ_Q.zero for j in range(n)]
            for i, row in enumerate(m._entries)
        ]
        reduced, pivots = _field_rref_rows(rows)
    else:
        rows = [row + (0,) * i + (m._den,) + (0,) * (n - 1 - i) for i, row in enumerate(m._ints)]
        reduced, pivots = _int_rref(_int_matrix(rows, 1))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    if m._ints is None:
        return Matrix([row[n:] for row in reduced])
    heads = [row[i] for i, row in enumerate(reduced)]
    den = lcm(*heads)
    return _int_matrix([[x * (den // h) for x in row[n:]] for row, h in zip(reduced, heads)], den)


def solve_right(m: Matrix, rhs):
    """The unique solution x of m x = rhs, or None when none/ambiguous.

    No program code calls it; it stays because the benchmark's tracer
    wraps it by name (see ``tests/test_trace_targets.py``).
    """
    rhs = list(rhs)
    if len(rhs) != m.rows:
        raise DahaError("right-hand side length mismatch")
    rows = [list(row) + [b] for row, b in zip(m.entries, rhs)]
    reduced, pivots = _rref_rows(Matrix(rows))
    if m.cols in pivots:
        return None  # inconsistent
    if len(pivots) != m.cols:
        return None  # underdetermined
    return tuple(row[-1] for row in reduced)  # pivots are 0..cols-1


def solve_sylvester_homogeneous(pairs) -> Subspace:
    """All matrices T with T*A_i = B_i*T for every pair (A_i, B_i).

    All A_i must be square of one size n and all B_i square of one size
    m; the result is the solution space inside coordinate space of
    dimension m*n, with T vectorized row-major (T[r][s] at index r*n+s).
    When every matrix is rational the system is written on their int
    rows.
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
    rows = []
    for a, b in pairs:
        if rational:  # T*(A/a) = (B/b)*T iff T*(b*A) = (a*B)*T
            ae = [[b._den * x for x in row] for row in a._ints]
            be = [[a._den * x for x in row] for row in b._ints]
        else:
            ae, be = a.entries, b.entries
        for r in range(m):
            for c in range(n):
                row = [0] * (m * n)
                for s in range(n):
                    row[r * n + s] = ae[s][c]
                for u in range(m):
                    if be[r][u]:
                        row[u * n + c] = row[u * n + c] - be[r][u]
                rows.append(row)
    return kernel(_int_matrix(rows, 1) if rational else Matrix(rows))


def span_closure(gens) -> int:
    """Dimension of the unital matrix algebra generated by gens.

    Seeds with the identity and repeatedly left-multiplies each newly
    inserted word by every generator, inserting only products that
    enlarge the echelonized span, until stable or until the span is all
    n**2 matrices (see :func:`_closure` for what it skips and why that
    is sound).

    When every generator is rational the closure runs on their int
    rows, each the generator scaled by its common denominator, and is
    still exact over the rationals: a nonzero scalar multiple of a
    generator generates the same unital algebra, and every word becomes
    a nonzero multiple of the corresponding rational word, so the spans
    agree.  Words are flat row-major int lists, and each generator
    multiplies by its nonzero entries only.  A candidate is reduced by
    the fraction-free step ``v <- (b[p]/g)*v - (v[p]/g)*b`` with
    ``g = gcd(b[p], v[p])`` and then divided by the gcd of its entries:
    both are invertible rational row operations, so membership in the
    span and the rank are those of elimination over the rationals (see
    :func:`_int_insert` for the in-place unit step).  Other scalars
    (RatFun) take the field loop, which divides by the pivot.
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
    return _closure(gens, Matrix.identity(n, one=QQ_Q.one), mul, _field_insert, n * n)


def _closure(gens, ident, product, insert, cap) -> int:
    """Close the span of ident under left multiplication by gens.

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
    """
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


def _field_insert(basis, mat: Matrix) -> bool:
    """Reduce mat against basis by division; store it when independent."""
    v = [e for row in mat.entries for e in row]
    for p in sorted(basis):
        if v[p]:
            c = v[p]
            bv = basis[p]
            v = [a - c * b for a, b in zip(v, bv)]
    for p, x in enumerate(v):
        if x:
            inv = 1 / x
            basis[p] = tuple(e * inv for e in v)
            return True
    return False


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
    :func:`_int_rref` and :func:`kernel_line` see the same rows.
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
    """``(b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])``: zero at p."""
    g = gcd(b[p], v[p])
    bp, c = b[p] // g, v[p] // g
    return [bp * x - c * y for x, y in zip(v, b)]


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
