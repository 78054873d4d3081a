import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha import linalg
from daha.errors import InputError, SingularMatrixError
from daha.linalg import (
    Matrix,
    det,
    eigenline,
    inverse,
    kernel,
    kernel_line,
    rank,
    solve_right,
    solve_sylvester_homogeneous,
    span_closure,
    standard_basis,
    ZZ,
    _one_pivot,
)
from daha.analysis import (
    _recover,
    _shift,
    _standard_intertwiner,
    classify,
    criterion_E,
    criterion_O,
    find_intertwiner,
)
from daha.modrep import ModuleRep, _ladder_block, make_E, make_O
from daha.params import ParamQuadruple, canonical_orbit_rep
from daha.sampling import adversarial_even, adversarial_odd, sample_params
from daha.scalar import (
    QQ,
    QQ_Q,
    RatFun,
    _pgcd,
    as_scalar,
    scalar_from_str,
    scalar_to_str,
)

Q = RatFun.variable()


# -- the field loops: elimination over any exact field, by division ---------

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
            rows[r] = [e * inv if e else e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def one_pivot_rref(m):
    """The reduced row echelon form read off _one_pivot: its rows divided
    by their one pivot D, as scalars, and the pivot columns."""
    reduced, pivots, top = _one_pivot(m)
    return [[m.ring.scalar(x, top) for x in row] for row in reduced], pivots


def field_one_pivot(m):
    """A stand-in for _one_pivot that eliminates m's scalar entries by the
    field loop: the ring rows of the reduced rows, the pivots, and the
    denominator of those rows as D (the ring's one when there is none)."""
    reduced, pivots = _field_rref_rows([list(r) for r in m.entries])
    if not reduced:
        return [], [], m.ring.one
    r = Matrix(reduced)
    return [list(row) for row in r._rows], pivots, r._den


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
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
    return acc if sign > 0 else -acc


def field_bareiss(rows, ring):
    """A stand-in for _bareiss that runs _field_det on the scalars of the
    ring rows: det back in the ring, an int or an int polynomial (det of
    ring rows lies in the ring, so the 1 x 1 matrix of det is its ring
    entry over one)."""
    d = Matrix([[_field_det(linalg._scalars(ring, rows, ring.one))]])
    assert d._den == ring.one
    return d._rows[0][0]


def _field_insert(basis, mat):
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


def rand_matrix(rng, n, height=9):
    return Matrix(
        [
            [Fraction(rng.randint(-height, height), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_rref_examples():
    assert one_pivot_rref(Matrix.identity(3)) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    assert one_pivot_rref(Matrix([[1, 1], [1, 1]])) == ([[1, 1]], [0])
    assert one_pivot_rref(Matrix([[0, 0], [0, 0]])) == ([], [])
    assert one_pivot_rref(Matrix([[0, 2, 4], [0, 1, 3]])) == ([[0, 1, 0], [0, 0, 1]], [1, 2])


def test_kernel_examples():
    k = kernel(Matrix([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert k.basis[0] == (1, -1)

    assert kernel(Matrix.identity(3)).dim == 0
    assert kernel(Matrix([[0, 0], [0, 0]])).dim == 2


def test_rank_nullity():
    rng = random.Random("ranknullity")
    for _ in range(15):
        m = rand_matrix(rng, rng.randint(1, 5))
        assert rank(m) + kernel(m).dim == m.cols


def test_det_and_inverse_examples(p_even_d1):
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix([[1, Fraction(4, 3)], [0, 1]])) == 1
    swap = Matrix([[0, 1], [1, 0]])
    assert det(swap) == -1
    assert inverse(swap) == swap
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 1], [1, 1]]))


def test_inverse_round_trip():
    rng = random.Random("inverse")
    done = 0
    while done < 10:
        m = rand_matrix(rng, rng.randint(1, 5))
        if not det(m):
            continue
        assert m * inverse(m) == Matrix.identity(m.rows)
        done += 1


def test_ratfun_matrix_inverse():
    m = Matrix([[Q, 1], [0, Q ** -1]])
    assert det(m) == 1
    assert m * inverse(m) == Matrix.identity(2, QQ_Q)


def test_solve_right():
    m = Matrix([[1, 2], [3, 4], [0, 0]])
    x = solve_right(m, [5, 11, 0])
    assert x == (1, 2)
    assert solve_right(m, [1, 0, 1]) is None  # inconsistent
    assert solve_right(Matrix([[1, 1]]), [1]) is None  # underdetermined


def test_sylvester_examples(p_even_d1):
    ident = Matrix.identity(2)
    assert solve_sylvester_homogeneous([(ident, ident)]).dim == 4

    diag = Matrix([[1, 0], [0, 2]])
    space = solve_sylvester_homogeneous([(diag, diag)])
    assert space.dim == 2
    assert space.basis == ((1, 0, 0, 0), (0, 0, 0, 1))

    # Schur: two isomorphic irreducible modules leave a line of
    # intertwiners, spanned by an invertible matrix
    a = make_E(p_even_d1)
    b = make_E(p_even_d1.with_k(k2=Fraction(1, 3)))
    space = solve_sylvester_homogeneous(
        [(a.t[i], b.t[i]) for i in range(4)]
    )
    assert space.dim == 1
    t = Matrix([[space.basis[0][0], space.basis[0][1]], [space.basis[0][2], space.basis[0][3]]])
    assert det(t)


def test_sylvester_solutions_resubstitute():
    rng = random.Random("sylvester")
    for _ in range(5):
        n = rng.randint(1, 3)
        pairs = [(rand_matrix(rng, n), rand_matrix(rng, n)) for _ in range(2)]
        space = solve_sylvester_homogeneous(pairs)
        for vec in space.basis:
            t = Matrix([[vec[r * n + c] for c in range(n)] for r in range(n)])
            for a, b in pairs:
                assert t * a == b * t


def test_span_closure_examples(p_even_d1):
    assert span_closure([Matrix.identity(3)]) == 1
    assert span_closure([Matrix([[1, 0], [0, 2]])]) == 2
    gens = make_E(p_even_d1).t
    assert span_closure(gens) == 4


def test_span_closure_permutation_invariant(p_even_d1):
    gens = list(make_E(p_even_d1).t)
    rng = random.Random("perm")
    base = span_closure(gens)
    for _ in range(4):
        rng.shuffle(gens)
        assert span_closure(gens) == base


def test_subspace_contains():
    # the plane x + y = z, its basis in reduced echelon form
    s = kernel(Matrix([[1, 1, -1]]))
    assert s.dim == 2 and s.basis == ((1, 0, 1), (0, 1, 1))
    assert rank(Matrix(list(s.basis) + [[1, 1, 2]])) == 2
    assert rank(Matrix(list(s.basis) + [[0, 0, 1]])) == 3


def test_matrix_json_round_trip():
    m = Matrix([[Fraction(1, 2), Q], [0, 1]])
    again = Matrix.from_json(m.to_json())
    assert again == m


# -- the integer form of rational matrices against the field loop -----------

BIG = 10 ** 40 + 7


class FieldRef:
    """A matrix as rows of scalars (Fraction or RatFun) whose every
    operation is the entrywise field loop, each scalar normalised after
    each step: the reference for the int rows of a rational matrix and
    the int polynomial rows of a Q(q) one."""

    def __init__(self, entries):
        self.entries = tuple(tuple(as_scalar(e) for e in row) for row in entries)
        self.rows, self.cols = len(self.entries), len(self.entries[0])

    def __mul__(self, other):
        bt = list(zip(*other.entries))
        return FieldRef(
            [[sum(a * b for a, b in zip(arow, bcol)) for bcol in bt] for arow in self.entries]
        )

    def scale(self, c):
        return FieldRef([[e * c for e in row] for row in self.entries])

    def __add__(self, other):
        return FieldRef(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return self.entries == other.entries

    def scalar_value(self):
        if self.rows != self.cols:
            return None
        c = self.entries[0][0]
        rows = self.entries
        if any(e != c if i == j else e for i, row in enumerate(rows) for j, e in enumerate(row)):
            return None
        return c

    def to_json(self):
        strings = [[scalar_to_str(e) for e in row] for row in self.entries]
        return {"rows": self.rows, "cols": self.cols, "entries": strings}

    def __repr__(self):
        return "Matrix[" + "; ".join(" ".join(row) for row in self.to_json()["entries"]) + "]"


def field_copy(m):
    """The same entries in the field-loop reference."""
    return FieldRef(m.entries)


def agree(got, want, kind=Fraction):
    """A result in the int or polynomial form equals the field loop's
    result entry by entry, in the field ``kind``, prints like it, and
    equals (with the same hash) the matrix rebuilt from those scalars,
    which is in canonical form."""
    rebuilt = Matrix(want.entries)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert repr(got) == repr(want) and got.to_json() == want.to_json()
    assert got.scalar_value() == want.scalar_value()
    assert type(got.scalar_value()) is type(want.scalar_value())
    assert got.entries == want.entries
    assert all(type(e) is kind for row in got.entries for e in row)
    assert [[got.entry(i, j) for j in range(got.cols)] for i in range(got.rows)] == [
        list(row) for row in want.entries
    ]


def int_form_grid():
    """Seeded (a, a2, b) triples, a and a2 of one shape and b
    multipliable by a: 1x1, non-square products, zero matrices,
    negative entries and denominators near 10^40."""
    rng = random.Random("int-form")

    def rand(rows, cols, dens, height=9):
        return Matrix(
            [
                [Fraction(rng.randint(-height, height), rng.choice(dens)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )

    grid = []
    for r, k, c in [(1, 1, 1), (1, 3, 2), (3, 1, 3), (2, 3, 4), (4, 2, 1), (3, 3, 3), (5, 5, 5)]:
        for dens in ((1,), (2,), (1, 2, 3, 4, 6), (BIG, BIG - 2, 3)):
            grid.append((rand(r, k, dens), rand(r, k, dens), rand(k, c, dens)))
        zero_a, zero_b = Matrix([[0] * k] * r), Matrix([[0] * c] * k)
        grid.append((zero_a, rand(r, k, (1, 7)), zero_b))
        grid.append((rand(r, k, (BIG,)), zero_a, rand(k, c, (2, BIG))))
    for n, s in [(1, Fraction(-3, 7)), (3, Fraction(5, BIG)), (4, Fraction(-BIG, 6))]:
        scalar = Matrix.identity(n).scale(s)
        nudged = [list(row) for row in scalar.entries]
        nudged[-1][0] += Fraction(1, BIG)
        grid.append((scalar, Matrix(nudged), Matrix.identity(n).scale(2)))
    return grid


SCALES = (0, -1, 3, Fraction(-7, 2), Fraction(1, BIG), Fraction(-BIG, 3))


def test_int_form_matches_field_loop():
    grid = int_form_grid()
    assert any(a.scalar_value() not in (None, 0) for a, _, _ in grid)
    for a, a2, b in grid:
        fa, fa2, fb = field_copy(a), field_copy(a2), field_copy(b)
        agree(a * b, fa * fb)
        agree(a + a2, fa + fa2)
        agree(a - a2, fa - fa2)
        agree(-a, -fa)
        for s in SCALES:
            agree(a.scale(s), fa.scale(s))
        assert (a == a2) == (fa == fa2) == (a.entries == a2.entries)
        assert a + a2 - a2 == a and (a - a) * b == Matrix([[0] * b.cols] * a.rows)
        assert a.scale(Fraction(-BIG, 3)).scale(Fraction(-3, BIG)) == a
        if a.is_square():
            ident = Matrix.identity(a.rows)
            assert a * ident == ident * a == a
            assert (a * a) * a == a * (a * a)
            agree((a + ident) * (a - ident), (fa + field_copy(ident)) * (fa - field_copy(ident)))


def test_mixed_operands_give_ratfun_results():
    for a, a2, b in int_form_grid()[:12]:
        rb = lift(b).scale(Q) + Matrix.identity(b.rows, QQ_Q) * lift(b)
        ra = lift(a2).scale(Q + 1)
        results = {
            "a*rb": (a * rb, lift(a) * rb),
            "ra*b": (ra * b, ra * lift(b)),
            "a+ra": (a + ra, lift(a) + ra),
            "a-ra": (a - ra, lift(a) - ra),
            "ra-a": (ra - a, ra - lift(a)),
            "a.scale(q)": (a.scale(Q), lift(a).scale(Q)),
        }
        for name, (got, want) in results.items():
            assert all(isinstance(e, RatFun) for row in got.entries for e in row), name
            assert got == want and repr(got) == repr(want), name


# -- the polynomial rows of Q(q) matrices against the field loop -------------

NM = (1 + Q) / (2 - Q)  # a k with non-monomial numerator and denominator


def with_non_monomial_k1(p):
    """p with k1 = (1+q)/(2-q); the odd family's k3 makes up for it."""
    if p.parity == "even":
        return p.with_k(k1=NM)
    return p.with_k(k1=NM, k3=p.k3 * p.k1 / NM)


def poly_form_grid():
    """Seeded (a, a2, b) triples of Q(q) matrices, a and a2 of one shape
    and b multipliable by a: generators, inverses and the scalar
    t + t^-1 of formal modules of both families with d <= 5, with
    sampled and with non-monomial k's, non-square ladder blocks, the
    zero matrix and 1x1 matrices."""
    rng = random.Random("poly-form")
    grid = []
    for d in range(6):
        p = sample_params(rng, "odd" if d % 2 == 0 else "even", d, field=QQ_Q)
        for params in (p, with_non_monomial_k1(p)):
            module = make_module(params)
            t, ti = module.t, module.tinv
            g = rng.randrange(4)
            grid.append((t[g], ti[g], t[(g + 1) % 4]))
            grid.append((t[g] + ti[g], t[3] * t[0], ti[1]))
            n = d + 1
            tall, wide = _ladder_block(g, n + 1, n, params), _ladder_block(g, n, n + 1, params)
            grid.append((tall, _ladder_block(3 - g, n + 1, n, params), wide))
    zero = Matrix([[0] * 3] * 3).scale(Q ** 0)
    square = next(t for t in grid if t[0].shape == t[2].shape == (3, 3))
    grid.append((zero, square[0], square[1]))
    grid.append((square[0], zero, zero))
    for x, y, z in ((Q, NM, -Q ** -2), (NM, 1 / NM, Q * 0), (Q ** 0, Q ** 0, NM * NM)):
        grid.append((Matrix([[x]]), Matrix([[y]]), Matrix([[z]])))
    return grid


def make_module(p):
    return make_E(p) if p.parity == "even" else make_O(p)


def assert_canonical(m):
    """The polynomial rows are in the documented canonical form."""
    flat = [x for row in m._rows for x in row]
    assert m.field is QQ_Q and m._den[-1] > 0 and all(x == () or x[-1] for x in flat)
    assert gcd(*m._den, *(c for x in flat for c in x)) == 1
    common = m._den
    for x in flat:
        if x:
            common = _pgcd(common, x)
    assert common == (1,)


def zero_like(m):
    return Matrix([[0] * m.cols] * m.rows)


FORMAL_SCALES = SCALES + (Q, NM, -Q ** -2, Q * 0)


def test_polynomial_rows_match_the_field_loop():
    grid = poly_form_grid()
    assert sum(a.scalar_value() is not None for a, _, _ in grid) >= 12
    assert any(sum(map(bool, a._den)) > 1 for a, _, _ in grid)  # a den that is no monomial
    for a, a2, b in grid:
        fa, fa2, fb = field_copy(a), field_copy(a2), field_copy(b)
        for got, want in ((a * b, fa * fb), (a + a2, fa + fa2), (a - a2, fa - fa2), (-a, -fa)):
            agree(got, want, RatFun)
            assert_canonical(got)
        for s in FORMAL_SCALES:
            agree(a.scale(s), fa.scale(s), RatFun)
        assert (a == a2) == (fa == fa2) and a == Matrix(a.entries)
        assert (a == a.scale(2)) == (a == zero_like(a))
        assert a + a2 - a2 == a and a.scale(NM).scale(1 / NM) == a
        assert (a - a) * b == Matrix([[0] * b.cols] * a.rows)


def test_mixed_rational_and_polynomial_rows_match_the_field_loop():
    """A rational operand meets a Q(q) one as constants over one
    denominator: the results are Q(q) matrices equal to the field
    loop's, and a rational matrix lifted into Q(q) equals it."""
    rng = random.Random("poly-mixed")

    def rational_like(m):
        return Matrix([[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, BIG)))
                        for _ in range(m.cols)] for _ in range(m.rows)])

    for a, _, b in poly_form_grid():
        r, rb = rational_like(a), rational_like(b)
        fa, fr, fb, frb = map(field_copy, (a, r, b, rb))
        agree(a + r, fa + fr, RatFun)
        agree(r - a, fr - fa, RatFun)
        agree(r.scale(NM), fr.scale(NM), RatFun)
        agree(r * b, fr * fb, RatFun)
        agree(a * rb, fa * frb, RatFun)
        lifted = r.scale(Q ** 0)
        assert lifted.field is QQ_Q and lifted == r and r == lifted and hash(lifted) == hash(r)
        assert (lifted == r.scale(Q)) == (r == zero_like(r))


# -- span_closure: the integer path against independent references ----------

def lift(m):
    """The same matrix lifted into Q(q), which takes the int polynomial
    rows of span_closure's Q(q) branch."""
    return m.scale(Q ** 0)


def field_closure(gens):
    """span_closure's driver with the field loop's insert on the RatFun
    entries of the lifted generators."""
    gens = [lift(g) for g in gens]
    n = gens[0].rows
    return linalg._closure(gens, Matrix.identity(n, QQ_Q), mul, _field_insert, n * n)


def module_gens(p):
    return (make_E(p) if p.parity == "even" else make_O(p)).t


def test_integer_closure_matches_field_loop():
    # The int rows and the int polynomial rows of the same modules lifted
    # into Q(q), irreducible and reducible, then irreducible formal
    # modules with sampled and with non-monomial k's, against the field
    # closure.
    rng = random.Random("int-closure")
    verdicts = set()
    for d in range(6):
        family = "even" if d % 2 else "odd"
        samples = [sample_params(rng, family, d)]
        if family == "even":
            samples.append(adversarial_even(rng, d))
        elif d >= 2:
            samples.append(adversarial_odd(rng, d))
        for p in samples:
            gens = module_gens(p)
            dim = span_closure(gens)
            assert dim == field_closure(gens) == span_closure([lift(g) for g in gens]), p
            verdicts.add(dim == (d + 1) ** 2)
    assert verdicts == {True, False}
    for d in range(4):
        p = sample_params(rng, "odd" if d % 2 == 0 else "even", d, field=QQ_Q)
        for params in (p, with_non_monomial_k1(p)):
            gens = module_gens(params)
            assert gens[0].field is QQ_Q
            assert span_closure(gens) == field_closure(gens) == (d + 1) ** 2, params


def plain_insert(basis, v):
    """Reduce the int vector v against basis (pivot -> row) by whole-row
    steps ``b[p]*v - v[p]*b``, dividing out the content before each, and
    store it at its leading index when it does not vanish."""
    while any(v):
        c = gcd(*v)
        v = [x // c for x in v]
        p = next(i for i, x in enumerate(v) if x)
        if p not in basis:
            basis[p] = v
            return True
        b = basis[p]
        v = [b[p] * x - v[p] * y for x, y in zip(v, b)]
    return False


def plain_closure(gens):
    """The algebra's dimension by the textbook loop, sharing no code with
    span_closure: every new word times every generator, no skipped
    products and no early stop."""
    mats = []
    for g in gens:
        den = lcm(*(e.denominator for row in g.entries for e in row))
        mats.append([[int(e * den) for e in row] for row in g.entries])
    n = len(mats[0])
    basis = {}
    frontier = [[[int(i == j) for j in range(n)] for i in range(n)]]
    plain_insert(basis, [x for row in frontier[0] for x in row])
    while frontier:
        words = [[[sum(a * b for a, b in zip(row, col)) for col in zip(*w)] for row in g]
                 for w in frontier for g in mats]
        frontier = [w for w in words if plain_insert(basis, [x for row in w for x in row])]
    return len(basis)


@pytest.mark.parametrize("family,d", [("odd", 6), ("even", 7)])
def test_integer_closure_matches_field_loop_large(family, d):
    # The field closure on the lifted generators takes minutes here, so
    # the reference is the plain closure on the Fraction generators.
    rng = random.Random(f"int-closure-{d}")
    crit = criterion_E if family == "even" else criterion_O
    p = sample_params(rng, family, d)
    while not crit(p):
        p = sample_params(rng, family, d)
    gens = module_gens(p)
    n = d + 1
    reference = plain_closure(gens)
    assert span_closure(gens) == reference == n * n


def test_integer_closure_edge_cases():
    F = Fraction
    one_by_one = [Matrix([[F(-3, 7)]])]
    assert span_closure(one_by_one) == field_closure(one_by_one) == 1
    assert span_closure([Matrix([[0]])]) == 1
    assert span_closure([Matrix.identity(4)]) == 1
    assert span_closure([Matrix([[0] * 3] * 3)]) == 1
    diag = Matrix([[1, 0], [0, 2]])
    assert span_closure([Matrix([[0, 0], [0, 0]]), diag]) == 2
    rotation = Matrix([[0, -1], [1, 0]])  # generates a copy of Q(i)
    assert span_closure([rotation]) == field_closure([rotation]) == 2
    negatives = [
        Matrix([[-1, -2, 0], [0, -3, 0], [0, 0, -5]]),
        Matrix([[0, 0, 0], [-7, 0, 0], [0, 0, 0]]),
    ]
    assert span_closure(negatives) == field_closure(negatives)
    big = 10 ** 40 + 7
    huge = [
        Matrix([[F(1, big), F(-big, 3)], [0, F(2, big * big)]]),
        Matrix([[F(big, big + 2), 0], [F(-1, big - 1), F(5, 2)]]),
    ]
    assert span_closure(huge) == field_closure(huge) == 4


def test_closure_matches_plain_closure_on_a_grid(conjugate):
    # Both families at d <= 5, adversarial reducible samples, rational
    # conjugates and a module whose relations fail.
    rng = random.Random("plain-closure")
    modules = []
    for d in range(6):
        family = "odd" if d % 2 == 0 else "even"
        samples = [sample_params(rng, family, d), sample_params(rng, family, d)]
        if family == "even":
            samples.append(adversarial_even(rng, d))
        elif d >= 2:
            samples.append(adversarial_odd(rng, d))
        for p in samples:
            m = make_E(p) if family == "even" else make_O(p)
            modules.append(m)
            if d <= 3:
                modules.append(conjugate(m, rng))
    corrupt = Path(__file__).parent / "data" / "rational_even_d3_corrupt.json"
    modules.append(ModuleRep.from_json(json.loads(corrupt.read_text())))
    verdicts = set()
    for m in modules:
        dim = span_closure(m.t)
        assert dim == plain_closure(m.t), m.label
        verdicts.add(dim == m.dim * m.dim)
    assert verdicts == {True, False}


def test_closure_pruning_needs_the_quadratic_relation():
    # A generator with no quadratic relation gets no skipped products.
    assert span_closure([Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])]) == 3
    shift = Matrix([[int(j == i + 1) for j in range(4)] for i in range(4)])
    assert span_closure([shift]) == 4
    assert span_closure([shift.scale(Fraction(-2, 3)), Matrix.identity(4)]) == 4
    # A quadratic swap with a non-quadratic diagonal: M_2 + M_1.
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    diag = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert span_closure([swap, diag]) == span_closure([diag, swap]) == 5
    cube = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # x**3 = 1, not quadratic
    assert span_closure([cube]) == 3
    assert span_closure([swap, cube]) == plain_closure([swap, cube]) == 5  # S_3 on Q^3
    # Scalar and zero generators, alone and with others, and 1 x 1 input.
    assert span_closure([Matrix.identity(3).scale(5)]) == 1
    assert span_closure([Matrix.identity(2).scale(-1), Matrix([[1, 1], [0, 1]])]) == 2
    assert span_closure([Matrix([[0] * 4] * 4), shift.scale(0)]) == 1
    assert span_closure([Matrix([[0] * 4] * 4), shift]) == 4
    assert span_closure([Matrix([[x]]) for x in (Fraction(2), Fraction(0), Fraction(-1, 3))]) == 1
    lifted = [lift(diag), lift(swap)]
    assert span_closure(lifted) == 5
    assert span_closure([lift(shift)]) == 4


def ordered_product(gens):
    out = gens[0]
    for g in gens[1:]:
        out = out * g
    return out


def test_closure_with_a_scalar_product_matches_plain_closure():
    # A and B generate the upper triangular matrices (dimension 6), and
    # C = l*(AB)**-1 makes ABC = l*I; l = -2/3 makes the int branch's
    # primitive product -I.  The other sets keep every generator: an
    # order whose product is not scalar, a zero product (dropping e12
    # would lose it) and single generators.
    a = Matrix([[2, 1, 0], [0, -1, 3], [0, 0, 1]])
    b = Matrix([[1, 0, 2], [0, 3, 0], [0, 0, -2]])
    unit = [Matrix([[int((i, j) == ij) for j in range(3)] for i in range(3)])
            for ij in ((0, 0), (1, 1), (0, 1))]
    cases = []
    for lam in (Fraction(1), Fraction(-2, 3)):
        c = inverse(a * b).scale(lam)
        cases += [([a, b, c], lam), ([a, c, b], None)]
    scalar_gen = Matrix.identity(3).scale(Fraction(-2, 3))
    cases += [(unit, Fraction(0)), ([a], None), ([scalar_gen], Fraction(-2, 3))]
    for gens, scalar in cases:
        assert ordered_product(gens).scalar_value() == scalar
        want = plain_closure(gens)
        assert span_closure(gens) == want
        assert span_closure([lift(g) for g in gens]) == want
    assert plain_closure(cases[0][0]) == 6 and plain_closure(unit) == 4


def test_the_last_generator_is_dropped_on_a_module(monkeypatch):
    # t0*t1*t2*t3 = q**-1, so once the closure has formed that product
    # it never multiplies by t3 again, and the dimension is unchanged.
    m = make_E(sample_params(random.Random("drop-last"), "even", 7))
    real = ZZ.word
    calls = []

    def spy(a, w):
        calls.append(a)
        return real(a, w)

    monkeypatch.setattr(ZZ, "word", spy)
    dim = span_closure(m.t)
    monkeypatch.undo()
    assert dim == plain_closure(m.t)
    n = m.dim
    ident = [int(i == j) for i in range(n) for j in range(n)]
    rows = {id(a): a for a in calls}
    assert len(rows) == 4
    den = lcm(*(e.denominator for row in m.t[3].entries for e in row))
    t3 = [int(e * den) for row in m.t[3].entries for e in row]
    t3 = [x // gcd(*t3) for x in t3]
    (last,) = [a for a in rows.values() if real(a, ident) == t3]
    used = [i for i, a in enumerate(calls) if a is last]
    assert len(used) == 1 and used[0] < 4 < len(calls)


def test_int_insert_unit_steps_follow_the_recurrence():
    # The pivot -1 of column 0 divides every lead there: unit steps of
    # row scale s = -1, which store -v - c*b, not v + c*b.  The last row
    # also takes a unit step at pivot -9 and a scaled one at column 2.
    basis = {}
    for row in [(-1, 2, 3, 0, 5), (2, 5, 7, 1, 0), (3, -6, 0, 0, 1), (1, 7, 0, 2, 2)]:
        assert ZZ.insert(basis, row)
    assert {p: row for p, (row, _) in basis.items()} == {
        0: [-1, 2, 3, 0, 5],
        1: [0, -9, -13, -1, -10],
        2: [0, 0, -9, 0, -16],
        3: [0, 0, 0, -9, -133],
    }
    assert not ZZ.insert(basis, (0, 9, 13, 1, 10))
    assert [p for p, (_, support) in basis.items() if support is not None] == [0, 1, 2]
    for pivot, (row, support) in basis.items():
        assert support in (None, [(j, x) for j, x in enumerate(row) if x and j > pivot])
    # Random rows with many unit pivots of both signs give the rows,
    # signs included, of whole-row elimination.
    rng = random.Random("unit-steps")
    for _ in range(300):
        size = rng.randint(1, 7)
        rows = [[rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 3)) for _ in range(size)]
                for _ in range(rng.randint(1, 8))]
        got, want = {}, {}
        for row in rows:
            assert ZZ.insert(got, tuple(row)) == plain_insert(want, list(row))
        assert {p: row for p, (row, _) in got.items()} == want


def test_integer_closure_invariant_under_scaling(p_even_d1_reducible, p_odd_d2):
    rng = random.Random("scaling")
    cases = [module_gens(p_even_d1_reducible), module_gens(p_odd_d2)]
    cases += [[rand_matrix(rng, 3, height=2), rand_matrix(rng, 3, height=2)] for _ in range(3)]
    for gens in cases:
        base = span_closure(gens)
        for c in (Fraction(-1), Fraction(7, 3), Fraction(1, 10 ** 12)):
            i = rng.randrange(len(gens))
            scaled = list(gens)
            scaled[i] = gens[i].scale(c)
            assert span_closure(scaled) == base


def sympy_algebra_dim(gens):
    """Dimension of the generated algebra, computed with sympy ranks."""
    sympy = pytest.importorskip("sympy")
    mats = [
        sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in g.entries])
        for g in gens
    ]
    words = [sympy.eye(gens[0].rows)]
    while True:
        grown = words + [g * w for g in mats for w in words]
        stacked = sympy.Matrix([list(w) for w in grown])
        _, pivots = stacked.T.rref()
        if len(pivots) == len(words):
            return len(words)
        words = [grown[i] for i in pivots]


def test_integer_closure_matches_sympy_rank(p_even_d1, p_even_d1_reducible, p_odd_d2):
    rng = random.Random("sympy-closure")
    cases = [module_gens(p) for p in (p_even_d1, p_even_d1_reducible, p_odd_d2)]
    cases.append(module_gens(adversarial_odd(rng, 2)))
    cases.append([rand_matrix(rng, 3, height=3)])
    for gens in cases:
        assert span_closure(gens) == sympy_algebra_dim(gens)


def scalars_of_results(m, rhs, vectors):
    """Every scalar that kernel, inverse, solve_right and det return for
    the square invertible matrix m, and the basis of the kernel of the
    matrix whose rows are vectors."""
    out = [e for v in kernel(m).basis for e in v]
    out += [e for row in inverse(m).entries for e in row]
    out += list(solve_right(m, rhs))
    out.append(det(m))
    out += [e for v in kernel(Matrix(vectors)).basis for e in v]
    return out


def test_ratfun_results_have_one_scalar_type():
    m = Matrix([[Q, 1, Q + 1], [Q * Q, Q, Q * Q + Q], [0, 0, 0]])
    entries = [e for v in kernel(m).basis for e in v]
    square = Matrix([[Q, 1], [0, Q ** -1]])
    entries += [e for row in inverse(square).entries for e in row]
    entries += list(solve_right(square, [1, 0]))
    space = solve_sylvester_homogeneous([(square, square)])
    entries += [e for v in space.basis for e in v]
    entries += scalars_of_results(square, [Q, 1], [[Q, 1, 0], [Q * Q, Q, 1]])
    assert entries and all(isinstance(e, RatFun) for e in entries)


def test_rational_results_have_one_scalar_type():
    # Plain ints come back as Fractions, like Fraction input.
    F = Fraction
    cases = [
        (Matrix([[2, 1], [4, 3]]), [1, 0], [[2, 4, 0], [1, 2, 1], [0, 0, 3]]),
        (Matrix([[F(1, 2), 1], [0, F(-3, 4)]]), [F(1, 3), 1], [[F(1, 2), 0], [0, F(5, 3)]]),
    ]
    for m, rhs, vectors in cases:
        entries = scalars_of_results(m, rhs, vectors)
        assert entries and all(type(e) is Fraction for e in entries)


# -- rational elimination: the integer path against the field loop ----------

@pytest.fixture
def field_loop(monkeypatch):
    """A context in which rank, kernel, inverse, solve_right and det run
    the field loops on any input: rank, kernel and solve_right read every
    elimination off _one_pivot, which field_one_pivot stands in for, and
    det runs _bareiss on both rings, which field_bareiss stands in for."""
    @contextmanager
    def context():
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_one_pivot", field_one_pivot)
            patch.setattr(linalg, "_bareiss", field_bareiss)
            # the whole inverse, not only its elimination: the [A | den*I]
            # rows and the read-off of the right block stay out of the
            # reference too
            patch.setattr(linalg, "inverse", field_inverse)
            yield

    return context


def field_one(m):
    return Q ** 0 if m.field is QQ_Q else Fraction(1)


def field_inverse(m):
    """m^-1 read off the field loop's [I | m^-1] from [m | I]."""
    n, one = m.rows, field_one(m)
    rows = [list(row) + [one * (i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    reduced, _ = _field_rref_rows(rows)
    return Matrix([row[n:] for row in reduced])


def results(m):
    out = {"rank": rank(m), "kernel": kernel(m)}
    out["solve_right"] = solve_right(m, range(1, m.rows + 1))
    if m.is_square():
        out["det"] = det(m)
        out["inverse"] = linalg.inverse(m) if out["det"] else None
    return out


def bareiss_branches(x, c):
    """Matrices in x (2 or q), some over the denominator of c, on which
    det's one Bareiss loop takes each branch: a zero pivot at step 1
    swapped with the row below, and a column with no pivot at step 1 and
    at step 0, where the last entry is nonzero but det is 0."""
    swap = Matrix([[1, x, x * x], [x, x * x, 1], [1, 1 + x, 2]])
    stuck = Matrix([[x, 1, 0], [x * x, x, 0], [0, 0, 1]])
    return [swap, swap.scale(c), stuck, stuck.scale(c), Matrix([[0, 1], [0, x]])]


def elimination_grid():
    """Seeded rational matrices: tall, wide and square, full rank and
    rank-deficient, with zero rows, 1x1, negative entries and
    denominators of size 10^40; and the matrices of bareiss_branches."""
    rng = random.Random("int-elimination")
    big = 10 ** 40 + 7

    def rand(rows, cols, height, dens):
        return Matrix(
            [
                [Fraction(rng.randint(-height, height), rng.choice(dens)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )

    grid = [Matrix([[Fraction(-3, 7)]]), Matrix([[0]]), Matrix([[Fraction(1, big)]])]
    for rows, cols in [(1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 4), (6, 3), (3, 7), (6, 6)]:
        for dens in ((1,), (1, 2, 3, 4), (big, big - 2, 3)):
            full = rand(rows, cols, 9, dens)
            k = rng.randint(1, min(rows, cols))
            grid += [full, rand(rows, k, 4, dens) * rand(k, cols, 4, dens)]  # rank <= k
            with_zero_row = [list(row) for row in full.entries]
            with_zero_row[rng.randrange(rows)] = [Fraction(0)] * cols
            grid.append(Matrix(with_zero_row))
    return grid + bareiss_branches(2, Fraction(1, 3))


def test_integer_elimination_matches_field_loop(field_loop):
    grid = elimination_grid()
    with field_loop():
        expected = [results(m) for m in grid]
    assert any(r["rank"] < min(m.shape) for m, r in zip(grid, expected))
    assert any(r.get("inverse") for r in expected)
    for m, want in zip(grid, expected):
        assert one_pivot_rref(m) == _field_rref_rows([list(r) for r in m.entries]), m
        assert results(m) == want, m


def sylvester_systems():
    """The intertwining systems of both families for d <= 5: a module
    against itself, against its twisted canonical reference (the
    system classify solves) and against a module with other parameters."""
    rng = random.Random("int-sylvester")
    systems = []
    for d in range(6):
        if d % 2:
            p = sample_params(rng, "even", d)
            a = _shift(make_E(p), d % 4)
            pairs = [(a, a), (a, _shift(make_E(canonical_orbit_rep(p)), d % 4))]
            pairs.append((a, make_E(sample_params(rng, "even", d))))
        else:
            a = make_O(sample_params(rng, "odd", d))
            pairs = [(a, a), (a, make_O(sample_params(rng, "odd", d)))]
        systems += [[(x.t[i], y.t[i]) for i in range(4)] for x, y in pairs]
    return systems


def test_integer_sylvester_kernel_matches_field_loop(field_loop):
    systems = sylvester_systems()
    with field_loop():
        expected = [solve_sylvester_homogeneous(s) for s in systems]
    assert {space.dim for space in expected} == {0, 1}
    for system, want in zip(systems, expected):
        assert solve_sylvester_homogeneous(system) == want


def formal_elimination_grid():
    """Seeded Q(q) matrices: every matrix of poly_form_grid (generators,
    inverses and sums of formal modules with sampled and with
    non-monomial k's, non-square ladder blocks, the zero matrix, 1x1
    matrices) and the products of its triples, where a tall block times
    a wide one is rank-deficient; random matrices of small rational
    functions, rank-deficient products of them and copies with a zeroed
    row; zero leading entries that force row swaps; and the matrices of
    bareiss_branches."""
    rng = random.Random("poly-elimination")
    grid = []
    for a, a2, b in poly_form_grid():
        grid += [a, a2, b, a * b]
    pool = (0, 0, 1, -2, Fraction(2, 3), Q, -Q, Q ** -1, NM, 1 / NM, Q * Q - 3, (Q + 1) / Q)

    def rand(rows, cols):
        return Matrix([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]).scale(Q ** 0)

    for rows, cols in [(1, 3), (3, 1), (2, 4), (4, 2), (3, 3), (4, 4), (5, 3), (5, 5)]:
        full = rand(rows, cols)
        k = rng.randint(1, min(rows, cols) - (rows == cols > 1))
        grid += [full, rand(rows, k) * rand(k, cols)]
        zeroed = [list(row) for row in full.entries]
        zeroed[rng.randrange(rows)] = [0] * cols
        grid.append(Matrix(zeroed).scale(Q ** 0))
    grid += [Matrix([[0, Q], [NM, 1]]), Matrix([[0, 0, Q], [0, NM, 1], [Q, 1, 0]])]
    return grid + bareiss_branches(Q, 1 / (1 + Q))


def test_polynomial_elimination_matches_the_field_loop(field_loop):
    grid = formal_elimination_grid()
    assert all(m.field is QQ_Q for m in grid)
    with field_loop():
        expected = [results(m) for m in grid]
    assert sum(r["rank"] < min(m.shape) for m, r in zip(grid, expected)) >= 10
    assert sum(r["kernel"].dim == 1 for r in expected) >= 5
    assert any(r.get("inverse") for r in expected)
    singular = [m for m, r in zip(grid, expected) if m.is_square() and not r["det"]]
    assert len(singular) >= 5 and any(m.rows == 1 for m in singular)
    for m, want in zip(grid, expected):
        assert one_pivot_rref(m) == _field_rref_rows([list(r) for r in m.entries]), m
        assert results(m) == want, m
        line = kernel_line(m)
        if want["kernel"].dim == 1:
            reduced, _ = _field_rref_rows([[RatFun(x) for x in line]])
            assert reduced == [list(want["kernel"].basis[0])], m
        else:
            assert line is None, m
    for m in singular:
        with pytest.raises(SingularMatrixError):
            inverse(m)
    # the first column's zero leading entry swaps rows: det flips sign
    assert det(Matrix([[0, Q], [NM, 1]])) == -Q * NM
    assert det(Matrix([[0, 0, Q], [0, NM, 1], [Q, 1, 0]])) == -Q * Q * NM


def field_sylvester(pairs):
    """The Sylvester solution space from a system written on the RatFun
    entries; its kernel takes the field loop inside field_loop()."""
    n, m = pairs[0][0].rows, pairs[0][1].rows
    rows = []
    for a, b in pairs:
        ae, be = a.entries, b.entries
        for r in range(m):
            for c in range(n):
                row = [0] * (m * n)
                for s in range(n):
                    row[r * n + s] = ae[s][c]
                for u in range(m):
                    row[u * n + c] = row[u * n + c] - be[r][u]
                rows.append(row)
    return kernel(Matrix(rows))


def test_polynomial_sylvester_kernel_matches_field_loop(field_loop):
    # Formal modules of both families with d <= 3 against themselves,
    # a twist of themselves, the non-monomial k1 variant and a module
    # with other params; the last system mixes in a rational module.
    rng = random.Random("poly-sylvester")
    systems = []
    for d in range(4):
        family = "odd" if d % 2 == 0 else "even"
        p = sample_params(rng, family, d, field=QQ_Q)
        a, b = make_module(p), make_module(with_non_monomial_k1(p))
        other = make_module(sample_params(rng, family, d, field=QQ_Q))
        for x, y in ((a, a), (b, b), (a, _shift(a, 1)), (a, b), (a, other)):
            systems.append([(x.t[i], y.t[i]) for i in range(4)])
    rational = make_E(sample_params(rng, "even", 1))
    systems.append([(rational.t[i], lift(rational.t[i])) for i in range(4)])
    with field_loop():
        expected = [field_sylvester(system) for system in systems]
    assert {space.dim for space in expected} == {0, 1}
    for system, want in zip(systems, expected):
        assert solve_sylvester_homogeneous(system) == want


def test_eigenline_spans_a_kernel_line_or_declines():
    """eigenline(w, theta) on both rings: None for a kernel of nullity 0
    or 2; on a module's X, for each diagonal entry theta, a column v with
    X v = theta v and, with transpose, a row w with w X = theta w; and a
    rational w with a Q(q) theta is joined like any other operands,
    giving the lifted result."""
    assert eigenline(Matrix([[2, 1], [0, 3]]), 1) is None
    assert eigenline(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), 1) is None
    rng = random.Random("eigenline")
    rational = make_E(sample_params(rng, "even", 3)).x_matrix()
    formal = make_O(sample_params(rng, "odd", 2, field=QQ_Q)).x_matrix()
    for x in (rational, formal):
        for i in range(x.rows):
            theta = x.entry(i, i)
            v = eigenline(x, theta)
            w = Matrix([[e for (e,) in eigenline(x, theta, transpose=True).entries]])
            assert v.field is x.field and v.scalar_value() is None
            assert x * v == v.scale(theta) and w * x == w.scale(theta) and rank(w) == 1
    theta = rational.entry(2, 2)
    lifted = eigenline(rational, theta * Q ** 0)
    assert lifted.field is QQ_Q and lifted == eigenline(rational, theta)


def test_standard_basis_carries_the_words_to_a_conjugate():
    """The standard basis of an eigenvector of X under a module's
    generators, carried by the same words to the image of that vector in
    a conjugate module: Q P^-1 is the conjugating matrix, on both rings
    and across them, with generators over other denominators than the
    conjugate's.  On a reducible module, with e_1 spanning a submodule,
    standard_basis declines when v lies in it or when w lies in its
    annihilator, and not otherwise."""
    rng = random.Random("standard-basis")
    s = Matrix([[1, 2, 0, 0], [0, 1, 0, Fraction(1, 3)], [Fraction(-1, 2), 0, 1, 0], [0, 0, 5, 1]])
    for field in (QQ, QQ_Q):
        p = sample_params(rng, "even", 3, field=field)
        while not criterion_E(p):
            p = sample_params(rng, "even", 3, field=field)
        a = make_E(p)
        conj = [s * t * inverse(s) for t in a.t]
        assert any(c._den != t._den for c, t in zip(conj, a.t))
        x = a.x_matrix()
        theta = x.entry(0, 0)
        v, w = eigenline(x, theta), eigenline(x, theta, True)
        for others, u, want in ((conj, s * v, s), ([lift(t) for t in a.t], v, Matrix.identity(4))):
            basis, images = standard_basis(zip(a.t, others), v, u, w)
            assert images * inverse(basis) == want
    a = make_E(ParamQuadruple(2, Fraction(1, 2), 1, 1, 1, d=1, parity="even"))
    e0, e1 = Matrix([[1], [0]]), Matrix([[0], [1]])
    declines = {(v, w): standard_basis(zip(a.t, a.t), v, v, w) is None
                for v, w in ((e0, e0), (e0, e1), (e1, e0), (e1, e1))}
    assert declines == {(e0, e0): True, (e0, e1): False, (e1, e0): True, (e1, e1): True}


def test_formal_routines_read_no_entries(monkeypatch):
    """The Q(q) routines run on the int polynomial rows alone: with the
    RatFun views of every matrix patched to raise, each still answers."""
    rng = random.Random("no-entries")
    modules = []
    for family, d, crit in (("even", 3, criterion_E), ("odd", 2, criterion_O)):
        p = sample_params(rng, family, d, field=QQ_Q)
        while not crit(p):
            p = sample_params(rng, family, d, field=QQ_Q)
        modules.append(make_module(p))
    thetas = [(m.t[3] * m.t[0]).entry(0, 0) for m in modules]

    def refuse(*args):
        raise AssertionError("a Q(q) routine read the RatFun entries")

    monkeypatch.setattr(Matrix, "entries", property(refuse))
    monkeypatch.setattr(Matrix, "entry", refuse)
    for m, theta in zip(modules, thetas):
        n, t = m.dim, m.t
        ident = Matrix.identity(n, QQ_Q)
        assert all(inverse(g) * g == ident and det(g) for g in t)
        shifted = t[3] * t[0] - ident.scale(theta)
        (v,) = kernel(shifted).basis
        assert shifted * Matrix([[x] for x in v]) == Matrix([[0]] * n)
        assert kernel_line(shifted) is not None
        v, w = eigenline(t[3] * t[0], theta), eigenline(t[3] * t[0], theta, True)
        basis, images = standard_basis(zip(t, t), v, v, w)
        assert basis == images and rank(basis) == n
        assert span_closure(t) == n * n
        assert solve_sylvester_homogeneous(zip(t, t)).dim == 1


def test_kernel_rank_and_sylvester_build_no_matrix_from_scalars(monkeypatch):
    """rank, kernel and the Sylvester solve stay on ring rows from input
    to basis: with Matrix.__init__, the way in from scalars, patched to
    raise, each still answers on a rational and on a Q(q) input."""
    inputs = [
        Matrix([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1]]),
        Matrix([[Q, 1, Q + 1], [Q * Q, Q, Q * Q + Q], [0, 0, 0]]),
    ]

    def answers(m):
        return rank(m), kernel(m), solve_sylvester_homogeneous([(m, m)])

    wants = [answers(m) for m in inputs]
    assert [(r, k.dim) for r, k, _ in wants] == [(2, 1), (1, 2)]

    def refuse(*args):
        raise AssertionError("a matrix was built from scalars")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    for m, want in zip(inputs, wants):
        assert answers(m) == want


@pytest.mark.parametrize("e", range(4))
@pytest.mark.parametrize("family,d", [("even", 1), ("even", 3), ("odd", 2)])
def test_formal_classify_reads_single_entries_only(monkeypatch, family, d, e):
    """Formal classify certifies on the polynomial rows: with the RatFun
    view patched to raise (single entries still allowed), the standard-
    basis route and classify give the equations' certificate, for a k1 with a
    non-monomial numerator and denominator."""
    rng = random.Random(f"classify-no-entries:{family}:{d}")
    crit = criterion_E if family == "even" else criterion_O
    p = with_non_monomial_k1(sample_params(rng, family, d, field=QQ_Q))
    while not crit(p):
        p = with_non_monomial_k1(sample_params(rng, family, d, field=QQ_Q))
    m = _shift(make_module(p), e)
    eps, _, reference = _recover(m)
    want = find_intertwiner(m, reference)

    def refuse(*args):
        raise AssertionError("formal classify read the RatFun entries")

    monkeypatch.setattr(Matrix, "entries", property(refuse))
    assert _standard_intertwiner(m, reference, eps) == want
    assert classify(m).certificate == want


def test_integer_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def fraction(x):
        return Fraction(int(x.p), int(x.q))

    for m in elimination_grid():
        sm = sympy.Matrix(
            [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in m.entries]
        )
        reduced, pivots = one_pivot_rref(m)
        sreduced, spivots = sm.rref()
        assert pivots == list(spivots)
        assert [[fraction(e) for e in row] for row in sreduced.tolist()] == reduced + [
            [0] * m.cols for _ in range(m.rows - len(pivots))
        ]
        if m.is_square():
            assert det(m) == fraction(sm.det())


def test_formal_bareiss_branches_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(e):
        num, den = (sum(c * x ** i for i, c in enumerate(cs)) for cs in (e._n, e._d))
        return num / den

    for m in bareiss_branches(Q, 1 / (1 + Q)):
        want = sympy.Matrix([[to_sympy(e) for e in row] for row in m.entries]).det()
        assert sympy.cancel(to_sympy(det(m)) - want) == 0, m


# -- inverse and printing on int rows, against Fractions ---------------------

def test_inverse_matches_the_field_loop():
    """inverse reads y_i/h_i off _rref's rows [h_i e_i | y_i]; the
    canonical pair must be the one the field loop's [I | m^-1] gives,
    also where a head h_i is negative, and singular input raises."""
    rng = random.Random("int-inverse")
    grid = [Matrix([[0]]), Matrix([[-1, 2], [2, -4]])]
    for n in range(1, 9):
        for dens in ((1,), (1, 2, 3, 5), (BIG, 3)):
            for _ in range(3):
                grid.append(rand_matrix(rng, n, height=3).scale(Fraction(1, rng.choice(dens))))
            if n > 1:
                rows = [list(row) for row in rand_matrix(rng, n).entries]
                rows[-1] = [Fraction(-3, 2) * x for x in rows[0]]
                grid.append(Matrix(rows))
    negative_heads = singular = 0
    for m in grid:
        n = m.rows
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(m.entries)]
        reduced, pivots = _field_rref_rows(aug)
        if pivots[:n] != list(range(n)):
            singular += 1
            with pytest.raises(SingularMatrixError):
                inverse(m)
            continue
        ints = [row + (0,) * i + (m._den,) + (0,) * (n - 1 - i) for i, row in enumerate(m._rows)]
        heads = [row[i] for i, row in enumerate(linalg._rref(ints, ZZ)[0])]
        negative_heads += sum(h < 0 for h in heads)
        want = Matrix([row[n:] for row in reduced])
        got = inverse(m)
        assert (got._rows, got._den) == (want._rows, want._den), m
        assert got * m == Matrix.identity(n)
    assert negative_heads and singular >= 8


def test_strings_read_the_int_rows():
    triples = int_form_grid()
    grid = [m for triple in triples for m in triple] + [a * b for a, _, b in triples]
    grid.append(Matrix([[Fraction(1, 2), Fraction(1, 3)]]))
    assert any(m._den > 1 and any(gcd(x, m._den) > 1 for row in m._rows for x in row) for m in grid)
    for m in grid:
        want = [[scalar_to_str(Fraction(x, m._den)) for x in row] for row in m._rows]
        assert m._strings() == want
        assert m.to_json()["entries"] == want
        assert repr(m) == "Matrix[" + "; ".join(" ".join(row) for row in want) + "]"


def test_from_json_reads_unreduced_rationals_canonically():
    data = {"rows": 2, "cols": 2, "entries": [["2/4", "-12/8"], ["007", " -0 "]]}
    m = Matrix.from_json(data)
    want = Matrix([[Fraction(1, 2), Fraction(-3, 2)], [7, 0]])
    assert (m._rows, m._den) == (want._rows, want._den) == (((1, -3), (14, 0)), 2)
    assert m.to_json()["entries"] == [["1/2", "-3/2"], ["7", "0"]]


# -- reading matrix JSON, against scalar_from_str on each entry -------------

def _read_each(entries):
    """The rows of scalar_from_str of each entry, or None when an entry
    does not parse."""
    try:
        return [[scalar_from_str(e) for e in row] for row in entries]
    except ValueError:
        return None


def _check_loader(entries):
    want = _read_each(entries)
    data = {"rows": len(entries), "cols": len(entries[0]), "entries": entries}
    try:
        m = Matrix.from_json(data)
    except InputError:
        assert want is None, entries
    else:
        assert want is not None and m == Matrix(want), entries


# near-misses of the grammar: int() reads "+1", "1_0", " 1" and "١",
# float() "1.5" and "1e3"; "," splits the batch read and "|" the Q(q) one
_LOADER_TEXT = st.text("0123456789-/, +_.e\u0661|", max_size=7)
_LOADER_ENTRY = st.one_of(
    _LOADER_TEXT,
    st.fractions(max_denominator=10 ** 6).map(str),
    st.tuples(st.sampled_from(["", " ", "  "]), st.integers(-10 ** 30, 10 ** 30),
              st.integers(0, 40)).map(lambda t: f"{t[0]}{t[1]}/{t[2]}{t[0]}"),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_from_json_reads_each_entry_as_scalar_from_str(rows, cols, data):
    """Matrix.from_json equals scalar_from_str on every entry, or raises
    InputError exactly when an entry does not parse."""
    entries = [[data.draw(_LOADER_ENTRY) for _ in range(cols)] for _ in range(rows)]
    _check_loader(entries)


@pytest.mark.parametrize("entries", [
    [["1,2"]],
    [["1", "1,2"]],
    [["1,", "2"]],
    [[" 3/4 ", "-0", "007/14"]],
    [["1/0"]],
    [["2", "-5/00"]],
    [["", "1"]],
    [["+1"]],
    [["2", "1."]],
    [["1_0", "e5"]],
    [["\u0661"]],
    [["1" * 5000, "1"]],
    [["1/" + "7" * 5000]],
    [["1 | 1", "1/2"], ["-3", "0 | 1,2"]],
    [["1 | 1", "1/0"]],
])
def test_from_json_fixed_cases(entries):
    _check_loader(entries)


def test_from_json_keeps_the_error_of_the_first_bad_entry():
    with pytest.raises(InputError, match="zero denominator in scalar '1/0'"):
        Matrix.from_json({"rows": 1, "cols": 3, "entries": [["2", "1/0", "x"]]})
    with pytest.raises(InputError, match=r"not a rational scalar: '1,2'"):
        Matrix.from_json({"rows": 1, "cols": 2, "entries": [[" 1,2 ", "1/0"]]})
    with pytest.raises(InputError, match="limit"):
        Matrix.from_json({"rows": 1, "cols": 2, "entries": [["1/2", "1" * 5000]]})
    assert Matrix.from_json({"rows": 1, "cols": 1, "entries": [[" 3/4 "]]}) == Matrix([[Fraction(3, 4)]])
