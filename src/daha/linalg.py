"""Dense exact linear algebra over an exact scalar field.

Everything here works entrywise with :mod:`daha.scalar` values
(Fraction or RatFun); a pivot is any nonzero entry, there are no
tolerances anywhere.  On rational input, elimination, determinants
and the span closure run fraction-free on Python ints and return
Fractions; RatFun input takes the field loops.  Matrices are immutable
after construction, all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DahaError, InputError, SingularMatrixError
from .scalar import QQ, QQ_Q, RatFun, as_scalar, json_field, scalar_from_json, scalar_to_str


class Matrix:
    """An immutable rows x cols matrix with exact scalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(as_scalar(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise DahaError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DahaError("ragged matrix rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "Matrix":
        zero = one - one
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, zero=Fraction(0)) -> "Matrix":
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        """Build from a list of column vectors (each a sequence of scalars)."""
        cols = [list(c) for c in columns]
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DahaError(f"shape mismatch {self.shape} * {other.shape}")
        bt = list(zip(*other.entries))
        out = []
        for arow in self.entries:
            out.append([sum(a * b for a, b in zip(arow, bcol)) for bcol in bt])
        return Matrix(out)

    def scale(self, c) -> "Matrix":
        return Matrix([[c * e for e in row] for row in self.entries])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DahaError("shape mismatch in addition")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    # -- views ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

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
        c = self.entries[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j:
                    if e != c:
                        return None
                elif e:
                    return None
        return c

    def __repr__(self):
        body = "; ".join(
            " ".join(scalar_to_str(e) for e in row) for row in self.entries
        )
        return f"Matrix[{body}]"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[scalar_to_str(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Matrix":
        entries = json_field(data, "entries", list)
        widths = {len(row) if isinstance(row, list) else 0 for row in entries}
        if len(widths) != 1 or 0 in widths:
            raise InputError("matrix entries must be nonempty lists of equal length")
        m = cls([[scalar_from_json(e) for e in row] for row in entries])
        if m.rows != json_field(data, "rows", int) or m.cols != json_field(data, "cols", int):
            raise InputError("matrix JSON shape mismatch")
        return m


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
        reduced, _ = _rref_rows(rows)
        return cls(ambient, tuple(tuple(r) for r in reduced))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.ambient:
            raise DahaError("vector length does not match ambient dimension")
        for row in self.basis:
            p = _leading_index(row)
            if v[p]:
                c = v[p]
                for i in range(p, self.ambient):
                    if row[i]:
                        v[i] = v[i] - c * row[i]
        return all(not x for x in v)


def _field_of_rows(rows):
    """The field the entries live in: RatFun if any entry is one."""
    return QQ_Q if any(RatFun in set(map(type, row)) for row in rows) else QQ


def _leading_index(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise DahaError("zero row has no leading index")


def _rref_rows(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot cols).

    When no entry is a RatFun the elimination runs on Python ints and
    still returns the rational reduced rows, as Fractions.  Each row is
    scaled by the lcm of its denominators.  Forward elimination inserts
    the rows one by one with :func:`_int_insert`: a candidate is reduced
    at its leading entry by ``v <- (b[p]/g)*v - (v[p]/g)*b`` with
    ``g = gcd(b[p], v[p])`` and stored divided by the gcd of its
    entries.  Back-elimination clears each pivot column from the rows
    above it by the same step, in decreasing pivot order, and divides
    out the content again; each row is divided by its pivot only once,
    at the end.  Every step is an invertible rational row operation, so
    the rows span the same space throughout, and the reduced row
    echelon form of a space is unique: the result is the one the field
    loop computes.  Other scalars (RatFun) take the field loop, which
    divides by the pivot.
    """
    if not rows:
        return [], []
    if _field_of_rows(rows) is not QQ:
        return _field_rref_rows(rows)
    ncols = len(rows[0])
    basis = {}  # pivot column -> primitive int row
    for row in rows:
        _int_insert(basis, _int_row(row)[0])
        if len(basis) == ncols:
            break
    pivots = sorted(basis)
    reduced = [basis[p] for p in pivots]
    for k in range(len(pivots) - 1, 0, -1):
        p, b = pivots[k], reduced[k]
        for i in range(k):
            if reduced[i][p]:
                reduced[i] = _primitive(_cancel(reduced[i], b, p))
    zero = Fraction(0)
    return [
        [Fraction(x, row[p]) if x else zero for x in row]
        for row, p in zip(reduced, pivots)
    ], pivots


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


def rref(m: Matrix):
    """Reduced row echelon form and rank."""
    rows = [list(r) for r in m.entries]
    reduced, pivots = _rref_rows(rows)
    zero = m.entries[0][0] * 0
    while len(reduced) < m.rows:
        reduced.append([zero] * m.cols)
    return Matrix(reduced), len(pivots)


def rank(m: Matrix) -> int:
    rows = [list(r) for r in m.entries]
    _, pivots = _rref_rows(rows)
    return len(pivots)


def kernel(m: Matrix) -> Subspace:
    """Basis of the right null space; dim = cols - rank."""
    rows = [list(r) for r in m.entries]
    reduced, pivots = _rref_rows(rows)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    field = _field_of_rows(m.entries)
    vectors = []
    for fc in free:
        v = [field.zero] * m.cols
        v[fc] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def det(m: Matrix):
    """Exact determinant.

    Rational input: each row is scaled by the lcm of its denominators
    and Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
    runs on the ints, where every division is exact; the determinant
    is the last pivot divided by the product of the row scales.  Other
    scalars (RatFun) take elimination with exact pivoting.
    """
    if not m.is_square():
        raise DahaError("determinant of a non-square matrix")
    if _field_of_rows(m.entries) is QQ:
        return _int_det(m.entries)
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


def _int_det(entries):
    """Bareiss elimination on the row-scaled ints; a Fraction."""
    rows, scale = [], 1
    for row in entries:
        ints, den = _int_row(row)
        rows.append(ints)
        scale *= den
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
    return Fraction(sign * rows[-1][-1], scale)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when det is zero."""
    if not m.is_square():
        raise DahaError("inverse of a non-square matrix")
    n = m.rows
    field = _field_of_rows(m.entries)
    one, zero = field.one, field.zero
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.entries)
    ]
    reduced, pivots = _rref_rows(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix([row[n:] for row in reduced[:n]])


def solve_right(m: Matrix, rhs):
    """The unique solution x of m x = rhs, or None when none/ambiguous.

    Used for applying inverse operators given in banded form; callers
    re-check the residual themselves.
    """
    rhs = [as_scalar(x) for x in rhs]
    if len(rhs) != m.rows:
        raise DahaError("right-hand side length mismatch")
    aug = [list(row) + [b] for row, b in zip(m.entries, rhs)]
    reduced, pivots = _rref_rows(aug)
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
    zero = _field_of_rows(row for a, b in pairs for row in a.entries + b.entries).zero
    rows = []
    for a, b in pairs:
        ae = a.entries
        be = b.entries
        for r in range(m):
            for c in range(n):
                row = [zero] * (m * n)
                for s in range(n):
                    row[r * n + s] = ae[s][c]
                for u in range(m):
                    if be[r][u]:
                        row[u * n + c] = row[u * n + c] - be[r][u]
                rows.append(row)
    return kernel(Matrix(rows))


def span_closure(gens) -> int:
    """Dimension of the unital matrix algebra generated by gens.

    Seeds with the identity and repeatedly left-multiplies each newly
    inserted word by every generator, inserting only products that
    enlarge the echelonized span, until stable.  The result is at most
    n**2.

    When every entry is a Fraction the closure runs on Python ints and
    is still exact over the rationals.  Each generator is scaled by the
    lcm of its denominators; a nonzero scalar multiple of a generator
    generates the same unital algebra, and every word becomes a nonzero
    multiple of the corresponding rational word, so the spans agree.
    A candidate is reduced by the fraction-free step
    ``v <- (b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])`` and
    then divided by the gcd of its entries: both are invertible
    rational row operations, so membership in the span and the rank
    are those of elimination over the rationals.  Other scalars (RatFun)
    take the field loop, which divides by the pivot.
    """
    gens = list(gens)
    if not gens:
        raise DahaError("no generators given")
    n = gens[0].rows
    for g in gens:
        if not g.is_square() or g.rows != n:
            raise DahaError("generators must be square of equal size")
    if _field_of_rows(row for g in gens for row in g.entries) is QQ:
        words = [_integer_rows(g.entries) for g in gens]
        ident = [[int(i == j) for j in range(n)] for i in range(n)]

        def insert(basis, word):
            return _int_insert(basis, [e for row in word for e in row])

        return _closure(words, ident, _int_product, insert, n * n)
    return _closure(gens, Matrix.identity(n, one=QQ_Q.one), mul, _field_insert, n * n)


def _closure(gens, ident, product, insert, cap) -> int:
    """Close the span of ident under left multiplication by gens."""
    basis = {}  # leading index -> flat basis vector
    insert(basis, ident)
    frontier = [ident]
    while frontier:
        if len(basis) > cap:
            raise DahaError("span closure exceeded its dimension cap")
        new = []
        for w in frontier:
            for g in gens:
                cand = product(g, w)
                if insert(basis, cand):
                    new.append(cand)
        frontier = new
        if len(basis) == cap:
            break
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

    Only the leading entry is eliminated, while a basis row has its
    pivot there; each step clears it and keeps the entries before it
    zero, so the scan resumes where it stopped."""
    lead = 0
    size = len(v)
    while True:
        while lead < size and not v[lead]:
            lead += 1
        if lead == size:
            return False
        b = basis.get(lead)
        if b is None:
            basis[lead] = _primitive(v)
            return True
        v = _cancel(v, b, lead)


def _cancel(v, b, p):
    """``(b[p]/g)*v - (v[p]/g)*b`` with ``g = gcd(b[p], v[p])``: zero at p."""
    g = gcd(b[p], v[p])
    bp, c = b[p] // g, v[p] // g
    return [bp * x - c * y for x, y in zip(v, b)]


def _primitive(v):
    """A nonzero int vector divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _int_row(row):
    """A row of Fractions (or ints) scaled by the lcm of its
    denominators: (int row, lcm)."""
    dens = [e.denominator for e in row]
    den = lcm(*dens)
    if den == 1:
        return [e.numerator for e in row], den
    return [e.numerator * (den // d) for e, d in zip(row, dens)], den


def _integer_rows(entries):
    """Rows of Fractions scaled by the lcm of their denominators to ints."""
    den = lcm(*(e.denominator for row in entries for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in entries]


def _int_product(a, b):
    """The integer matrix a*b divided by the gcd of its entries."""
    cols = list(zip(*b))
    out = [[sum(map(mul, row, col)) for col in cols] for row in a]
    g = gcd(*(x for row in out for x in row))
    if g > 1:
        out = [[x // g for x in row] for row in out]
    return out
