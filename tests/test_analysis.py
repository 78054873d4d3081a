import random
from fractions import Fraction

import pytest

from daha.analysis import (
    INDETERMINATE,
    burnside_irreducible,
    classify,
    criterion_E,
    criterion_O,
    det_fingerprint,
    find_intertwiner,
    is_intertwiner,
    l_diagonal_E,
    l_diagonal_O,
    l_matrix_O,
    l_matrix_routes,
    simultaneous_eigenvector,
    twist,
)
from daha.errors import ParameterError
from daha.linalg import Matrix
from daha.modrep import ModuleRep, central_character, make_E, make_O
from daha.params import ParamQuadruple, canonical_orbit_rep
from daha.sampling import adversarial_even, adversarial_odd, sample_even, sample_odd
from daha.scalar import QQ_Q, RatFun, scalar_pow

F = Fraction


def test_criterion_E_examples(p_even_d1, p_even_d1_reducible):
    assert criterion_E(p_even_d1)
    assert not criterion_E(p_even_d1_reducible)
    with pytest.raises(ParameterError):
        criterion_E(ParamQuadruple(2, 1, 1, 1, F(1, 2), d=0, parity="odd"))


def test_criterion_O_examples(p_odd_d0):
    assert criterion_O(p_odd_d0)
    bad = ParamQuadruple(2, 1, 1, F(1, 2), F(1, 4), d=2, parity="odd")
    assert not criterion_O(bad)


def test_burnside_examples(p_even_d1, p_even_d1_reducible, p_odd_d0):
    assert burnside_irreducible(make_E(p_even_d1))
    assert not burnside_irreducible(make_E(p_even_d1_reducible))
    assert burnside_irreducible(make_O(p_odd_d0))


def test_oracle_equivalence_small_grid():
    rng = random.Random("oracle")
    for d in (1, 3):
        for _ in range(6):
            p = sample_even(rng, d)
            assert criterion_E(p) == burnside_irreducible(make_E(p))
        p = adversarial_even(rng, d)
        assert not criterion_E(p)
        assert not burnside_irreducible(make_E(p))
    for d in (0, 2):
        for _ in range(6):
            p = sample_odd(rng, d)
            assert criterion_O(p) == burnside_irreducible(make_O(p))
    p = adversarial_odd(rng, 2)
    assert not criterion_O(p)
    assert not burnside_irreducible(make_O(p))


def test_l_matrix_d1(p_even_d1):
    routes = l_matrix_routes(p_even_d1)
    expected = Matrix([[F(-4, 3), 0], [0, F(-4, 3)]])
    for lm in routes.values():
        assert lm.entries == expected
    assert l_diagonal_E(p_even_d1, 0) == F(-4, 3)


def test_l_matrix_d0():
    p = ParamQuadruple(2, 1, 1, 1, F(1, 2), d=0, parity="odd")
    routes = l_matrix_routes(p)
    assert routes["operator"].entries == Matrix([[1]])
    assert routes["closed"].entries == Matrix([[1]])


def test_l_matrix_route_agreement_random():
    rng = random.Random("lmatrix")
    for d in (3, 5):
        p = sample_even(rng, d)
        routes = l_matrix_routes(p)
        ref = routes["operator"].entries
        n = d + 1
        assert all(not ref.entries[i][j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            assert ref.entries[i][i] == l_diagonal_E(p, i)
        assert (
            all(ref.entries[i][i] for i in range(n)) == criterion_E(p)
        )
    for d in (2, 4):
        p = sample_odd(rng, d)
        routes = l_matrix_routes(p)
        ref = routes["operator"].entries
        n = d + 1
        assert all(not ref.entries[i][j] for i in range(n) for j in range(i + 1, n))
        if criterion_O(p):
            for i in range(n):
                assert ref.entries[i][i] == l_diagonal_O(p, i)


def test_l_matrix_d6():
    rng = random.Random("lmatrix6")
    p = sample_odd(rng, 6)
    routes = l_matrix_routes(p)
    ref = routes["operator"].entries
    assert all(not ref.entries[i][j] for i in range(7) for j in range(i + 1, 7))
    if criterion_O(p):
        assert all(ref.entries[i][i] == l_diagonal_O(p, i) for i in range(7))


def test_l_matrix_adversarial_diagonal():
    rng = random.Random("lmatrixadv")
    p = adversarial_even(rng, 3)
    routes = l_matrix_routes(p)
    ref = routes["operator"].entries
    assert not all(ref.entries[i][i] for i in range(4))

    p = adversarial_odd(rng, 2)
    # closed seeds are not derived here: only operator and recurrence
    routes = l_matrix_routes(p)
    assert set(routes) == {"operator", "recurrence"}
    with pytest.raises(ParameterError):
        l_matrix_O(p, "closed")
    ref = routes["operator"].entries
    assert not all(ref.entries[i][i] for i in range(3))


def test_twist_group_behavior(p_even_d1):
    module = make_E(p_even_d1)
    assert twist(module, 0) is module
    roundtrip = twist(twist(module, 1), 3)
    assert roundtrip.t == module.t and roundtrip.twist == 0

    character = central_character(module)
    twisted = twist(module, 1)
    assert central_character(twisted) == character[1:] + character[:1]
    fp = det_fingerprint(module)
    assert det_fingerprint(twisted) == fp[1:] + fp[:1]


def test_det_fingerprint_examples(p_even_d1, p_odd_d0):
    assert det_fingerprint(make_E(p_even_d1)) == (F(1, 4), 1, 1, 1)
    assert det_fingerprint(make_O(p_odd_d0)) == (1, 1, 1, F(1, 2))


def test_find_intertwiner_schur(p_even_d1):
    module = make_E(p_even_d1)
    t = find_intertwiner(module, module)
    assert t is not None and t is not INDETERMINATE
    assert t.scalar_value() is not None  # scalar multiple of the identity


def test_find_intertwiner_k_flips(p_even_d1):
    module = make_E(p_even_d1)
    for variant in (
        p_even_d1.with_k(k1=1),
        p_even_d1.with_k(k2=F(1, 3)),
        p_even_d1.with_k(k3=1),
    ):
        other = make_E(variant)
        t = find_intertwiner(module, other)
        assert t is not None and t is not INDETERMINATE
        assert is_intertwiner(t, module, other)
    # the defining formulas only see k2 through k2 + 1/k2, so the
    # identity map itself intertwines the k2-inverted pair
    flipped = make_E(p_even_d1.with_k(k2=F(1, 3)))
    t = find_intertwiner(module, flipped)
    assert t.scalar_value() is not None


def test_find_intertwiner_negative(p_even_d1):
    # an irreducible module is isomorphic to itself twisted by 0 only
    module = make_E(p_even_d1)
    for e in (1, 2, 3):
        assert find_intertwiner(module, twist(module, e)) is None


def test_distinct_canonical_orbits_admit_no_intertwiner():
    rng = random.Random("injectivity")
    found = 0
    while found < 5:
        d = rng.choice((1, 3))
        a = sample_even(rng, d)
        b = sample_even(rng, d)
        if not (criterion_E(a) and criterion_E(b)):
            continue
        if canonical_orbit_rep(a) == canonical_orbit_rep(b):
            continue
        assert find_intertwiner(make_E(a), make_E(b)) is None
        found += 1


def test_find_intertwiner_dim_mismatch(p_even_d1, p_odd_d0):
    assert find_intertwiner(make_E(p_even_d1), make_O(p_odd_d0)) is None


def test_odd_cyclic_isomorphisms(p_odd_d2):
    module = make_O(p_odd_d2)
    k0, k1, k2, k3 = p_odd_d2.k
    for e, cycled in ((3, (k1, k2, k3, k0)), (2, (k2, k3, k0, k1)), (1, (k3, k0, k1, k2))):
        other = twist(
            make_O(ParamQuadruple(2, *cycled, d=2, parity="odd")), e
        )
        t = find_intertwiner(module, other)
        assert t is not None and t is not INDETERMINATE
        assert is_intertwiner(t, module, other)


def _direct_sum(a: ModuleRep, b: ModuleRep) -> ModuleRep:
    def block(m1, m2):
        n1, n2 = m1.rows, m2.rows
        zero = m1.entries[0][0] * 0
        rows = []
        for i in range(n1):
            rows.append(list(m1.entries[i]) + [zero] * n2)
        for i in range(n2):
            rows.append([zero] * n1 + list(m2.entries[i]))
        return Matrix(rows)

    return ModuleRep(
        dim=a.dim + b.dim,
        t=tuple(block(x, y) for x, y in zip(a.t, b.t)),
        tinv=tuple(block(x, y) for x, y in zip(a.tinv, b.tinv)),
        params=a.params,
        twist=a.twist,
        label=f"{a.label} (+) {b.label}",
    )


def test_find_intertwiner_indeterminate_path():
    # X (+) X against X (+) Z with Z sharing the central character of X
    # but not isomorphic to it: every intertwiner kills the second
    # summand, so the space is 2-dimensional with no invertible element.
    p = ParamQuadruple(2, F(1, 2), 1, F(1, 2), 1, d=1, parity="even")
    x = make_E(p)
    z = twist(x, 2)
    assert central_character(x) == central_character(z)
    a = _direct_sum(x, x)
    b = _direct_sum(x, z)
    assert find_intertwiner(a, b) is INDETERMINATE


def test_classify_even_round_trip():
    rng = random.Random("classify")
    for d in (1, 3):
        p = sample_even(rng, d)
        while not criterion_E(p):
            p = sample_even(rng, d)
        module = make_E(p)
        canonical = canonical_orbit_rep(p)
        for e in range(4):
            result = classify(twist(module, e))
            assert result.twist.value == e
            assert result.params == canonical
            assert result.parity == "even"
            assert is_intertwiner(
                result.certificate, twist(module, e), twist(make_E(canonical), e)
            )


def test_classify_odd_round_trip(p_odd_d2):
    result = classify(make_O(p_odd_d2))
    assert result.params == p_odd_d2
    assert result.twist.value == 0


def test_classify_twisted_odd_recovers_cycled(p_odd_d2):
    # the classification has no twist coordinate for odd dimensions:
    # a twisted module is identified by its cycled parameter quadruple
    module = make_O(p_odd_d2)
    result = classify(twist(module, 1))
    k0, k1, k2, k3 = p_odd_d2.k
    assert result.params.k == (k1, k2, k3, k0)


def test_classify_rejects_reducible(p_even_d1_reducible):
    with pytest.raises(ParameterError):
        classify(make_E(p_even_d1_reducible))


def test_simultaneous_eigenvector(p_even_d1, p_odd_d0):
    module = make_E(p_even_d1)
    vec = simultaneous_eigenvector(module, (3, 0))
    assert vec == (1, 0)  # the first basis vector direction
    assert simultaneous_eigenvector(make_O(p_odd_d0), (1, 2)) is not None

    rng = random.Random("simeig")
    for d, sampler, make in ((3, sample_even, make_E), (2, sample_odd, make_O)):
        p = sampler(rng, d)
        module = make(p)
        if burnside_irreducible(module):
            assert (
                simultaneous_eigenvector(module, (3, 0)) is not None
                or simultaneous_eigenvector(module, (1, 2)) is not None
            )
            assert (
                simultaneous_eigenvector(module, (0, 1)) is not None
                or simultaneous_eigenvector(module, (2, 3)) is not None
            )


def test_ratfun_classification_certificate_is_ratfun():
    rng = random.Random("ratfun-certificate")
    for p in (sample_even(rng, 1, field=QQ_Q), sample_odd(rng, 2, field=QQ_Q)):
        result = classify(make_E(p) if p.parity == "even" else make_O(p))
        entries = [e for row in result.certificate.entries for e in row]
        assert all(isinstance(e, RatFun) for e in entries), result.certificate
