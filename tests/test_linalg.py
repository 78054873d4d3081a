import random
from fractions import Fraction
from operator import mul

import pytest

from daha.errors import SingularMatrixError
from daha.linalg import (
    Matrix,
    Subspace,
    det,
    inverse,
    kernel,
    rank,
    rref,
    solve_right,
    solve_sylvester_homogeneous,
    span_closure,
    _closure,
    _field_insert,
)
from daha.analysis import criterion_E, criterion_O
from daha.modrep import make_E, make_O
from daha.sampling import adversarial_even, adversarial_odd, sample_params
from daha.scalar import RatFun

Q = RatFun.variable()


def rand_matrix(rng, n, height=9):
    return Matrix(
        [
            [Fraction(rng.randint(-height, height), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_rref_examples():
    ident = Matrix.identity(3)
    red, rk = rref(ident)
    assert red == ident and rk == 3

    red, rk = rref(Matrix([[1, 1], [1, 1]]))
    assert red == Matrix([[1, 1], [0, 0]]) and rk == 1

    red, rk = rref(Matrix.zeros(2, 2))
    assert red == Matrix.zeros(2, 2) and rk == 0


def test_kernel_examples():
    k = kernel(Matrix([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert k.basis[0] == (1, -1)

    assert kernel(Matrix.identity(3)).dim == 0
    assert kernel(Matrix.zeros(2, 2)).dim == 2


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
    assert m * inverse(m) == Matrix.identity(2, one=Q ** 0)


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
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    assert s.dim == 2
    assert s.contains([1, 1, 2])
    assert not s.contains([0, 0, 1])


def test_matrix_json_round_trip():
    m = Matrix([[Fraction(1, 2), Q], [0, 1]])
    again = Matrix.from_json(m.to_json())
    assert again == m


# -- span_closure: the integer path against independent references ----------

def lift(m):
    """The same matrix with RatFun entries, which takes the field loop."""
    return Matrix([[RatFun.from_fraction(e) for e in row] for row in m.entries])


def field_closure(gens):
    return span_closure([lift(g) for g in gens])


def module_gens(p):
    return (make_E(p) if p.parity == "even" else make_O(p)).t


def test_integer_closure_matches_field_loop():
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
            assert dim == field_closure(gens), p
            verdicts.add(dim == (d + 1) ** 2)
    assert verdicts == {True, False}


@pytest.mark.parametrize("family,d", [("odd", 6), ("even", 7)])
def test_integer_closure_matches_field_loop_large(family, d):
    # The RatFun-lifted field loop takes minutes here, so the reference
    # is the same field loop run directly on the Fraction generators.
    rng = random.Random(f"int-closure-{d}")
    crit = criterion_E if family == "even" else criterion_O
    p = sample_params(rng, family, d)
    while not crit(p):
        p = sample_params(rng, family, d)
    gens = module_gens(p)
    n = d + 1
    reference = _closure(gens, Matrix.identity(n), mul, _field_insert, n * n)
    assert span_closure(gens) == reference == n * n


def test_integer_closure_edge_cases():
    F = Fraction
    one_by_one = [Matrix([[F(-3, 7)]])]
    assert span_closure(one_by_one) == field_closure(one_by_one) == 1
    assert span_closure([Matrix([[0]])]) == 1
    assert span_closure([Matrix.identity(4)]) == 1
    assert span_closure([Matrix.zeros(3, 3)]) == 1
    diag = Matrix([[1, 0], [0, 2]])
    assert span_closure([Matrix.zeros(2, 2), diag]) == 2
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


def test_ratfun_results_have_one_scalar_type():
    m = Matrix([[Q, 1, Q + 1], [Q * Q, Q, Q * Q + Q], [0, 0, 0]])
    entries = [e for v in kernel(m).basis for e in v]
    square = Matrix([[Q, 1], [0, Q ** -1]])
    entries += [e for row in inverse(square).entries for e in row]
    entries += list(solve_right(square, [1, 0]))
    space = solve_sylvester_homogeneous([(square, square)])
    entries += [e for v in space.basis for e in v]
    assert entries and all(isinstance(e, RatFun) for e in entries)
