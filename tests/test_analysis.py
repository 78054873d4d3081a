import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import daha.analysis
import daha.linalg
from daha.analysis import (
    INDETERMINATE,
    _recover,
    _spectral_intertwiner,
    burnside_irreducible,
    classify,
    criterion_E,
    criterion_O,
    det_fingerprint,
    find_intertwiner,
    is_intertwiner,
    l_matrix_O,
    l_matrix_routes,
    twist,
)
from daha.errors import ClassificationError, ParameterError
from daha.linalg import Matrix, det, inverse, kernel, rank, solve_sylvester_homogeneous
from daha.modrep import ModuleRep, central_character, make_E, make_O, verify_relations
from daha.params import ParamQuadruple, canonical_orbit_rep
from daha.sampling import adversarial_even, adversarial_odd, sample_even, sample_odd
from daha.scalar import QQ_Q, RatFun, field_by_name, scalar_pow

F = Fraction
DATA = Path(__file__).parent / "data"


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
        assert lm == expected


def test_l_matrix_d0():
    p = ParamQuadruple(2, 1, 1, 1, F(1, 2), d=0, parity="odd")
    routes = l_matrix_routes(p)
    assert routes["operator"] == Matrix([[1]])
    assert routes["closed"] == Matrix([[1]])


def test_l_matrix_route_agreement_random():
    rng = random.Random("lmatrix")
    for d in (3, 5):
        p = sample_even(rng, d)
        routes = l_matrix_routes(p)
        ref = routes["operator"]
        n = d + 1
        assert all(not ref.entries[i][j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            assert ref.entries[i][i] == routes["closed"].entry(i, i)
        assert (
            all(ref.entries[i][i] for i in range(n)) == criterion_E(p)
        )
    for d in (2, 4):
        p = sample_odd(rng, d)
        routes = l_matrix_routes(p)
        ref = routes["operator"]
        n = d + 1
        assert all(not ref.entries[i][j] for i in range(n) for j in range(i + 1, n))
        if criterion_O(p):
            for i in range(n):
                assert ref.entries[i][i] == routes["closed"].entry(i, i)


def test_l_matrix_d6():
    rng = random.Random("lmatrix6")
    p = sample_odd(rng, 6)
    routes = l_matrix_routes(p)
    ref = routes["operator"]
    assert all(not ref.entries[i][j] for i in range(7) for j in range(i + 1, 7))
    if criterion_O(p):
        assert all(ref.entries[i][i] == routes["closed"].entry(i, i) for i in range(7))


def test_l_matrix_adversarial_diagonal():
    rng = random.Random("lmatrixadv")
    p = adversarial_even(rng, 3)
    routes = l_matrix_routes(p)
    ref = routes["operator"]
    assert not all(ref.entries[i][i] for i in range(4))

    p = adversarial_odd(rng, 2)
    # closed seeds are not derived here: only operator and recurrence
    routes = l_matrix_routes(p)
    assert set(routes) == {"operator", "recurrence"}
    with pytest.raises(ParameterError):
        l_matrix_O(p, "closed")
    ref = routes["operator"]
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


@pytest.mark.parametrize("field", ["rational", "ratfun"])
def test_twist_keeps_the_relations(field):
    """The shift classify uses without a check is safe: every twist of a
    verified module verifies."""
    rng = random.Random(f"twist-relations:{field}")
    field = field_by_name(field)
    for module in (make_E(sample_even(rng, 3, field)), make_O(sample_odd(rng, 2, field))):
        assert verify_relations(module).ok
        for e in range(-1, 5):
            assert verify_relations(twist(module, e)).ok


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


def test_find_intertwiner_decides_invertibility_without_det(monkeypatch):
    """The search keeps a candidate exactly when its rank is full: the
    module pairs of the two rational intertwiner goldens, a formal pair
    and the indeterminate direct sum give the same results with
    ``det`` made to raise."""
    def module_file(name):
        return ModuleRep.from_json(json.loads((DATA / name).read_text()))

    even = [twist(make_E(ParamQuadruple(2, F(1, 8), 3, F(-2, 5), k3, d=5, parity="even")), 3)
            for k3 in (F(7, 3), F(3, 7))]
    odd = make_O(ParamQuadruple(2, 3, F(-5, 2), F(7, 3), F(-1, 560), d=4, parity="odd"))
    formal = module_file("ratfun_odd_d2.json")
    x = make_E(ParamQuadruple(2, F(1, 2), 1, F(1, 2), 1, d=1, parity="even"))
    pairs = [
        tuple(even),
        (odd, module_file("rational_odd_d4_conj.json")),
        (formal, _recover(formal)[2]),
        (_direct_sum(x, x), _direct_sum(x, twist(x, 2))),
    ]
    want = [find_intertwiner(a, b) for a, b in pairs]
    assert all(isinstance(t, Matrix) for t in want[:3]) and want[3] is INDETERMINATE

    def refuse(m):
        raise AssertionError("find_intertwiner computed a determinant")

    monkeypatch.setattr(daha.analysis, "det", refuse)
    assert [find_intertwiner(a, b) for a, b in pairs] == want


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
            assert result.twist == e
            assert result.params == canonical
            assert result.parity == "even"
            assert is_intertwiner(
                result.certificate, twist(module, e), twist(make_E(canonical), e)
            )


def test_classify_odd_round_trip(p_odd_d2):
    result = classify(make_O(p_odd_d2))
    assert result.params == p_odd_d2
    assert result.twist == 0


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


def test_ratfun_classification_certificate_is_ratfun():
    rng = random.Random("ratfun-certificate")
    for p in (sample_even(rng, 1, field=QQ_Q), sample_odd(rng, 2, field=QQ_Q)):
        result = classify(make_E(p) if p.parity == "even" else make_O(p))
        entries = [e for row in result.certificate.entries for e in row]
        assert all(isinstance(e, RatFun) for e in entries), result.certificate


# ---------------------------------------------------------------------------
# the eigenbasis route of classify
# ---------------------------------------------------------------------------

def _both_routes(m: ModuleRep):
    """The certificates onto m's classify reference from the eigenbases
    and from the intertwining equations."""
    eps, _, reference = _recover(m)
    return _spectral_intertwiner(m, reference, eps), find_intertwiner(m, reference)


def _spectral(m: ModuleRep):
    """The eigenbasis certificate of classify, or None."""
    try:
        eps, _, reference = _recover(m)
    except ClassificationError:
        return None
    return _spectral_intertwiner(m, reference, eps)


@pytest.mark.parametrize("family", ["even", "odd"])
def test_spectral_intertwiner_matches_the_equations(family, conjugate):
    """Against references that are isomorphic, that share the X-diagonal
    without being isomorphic, and that do not share it, the eigenbasis
    intertwiner is the equations' kernel vector or None with them."""
    rng = random.Random(f"spectral-references:{family}")
    seen = {"found": 0, "none": 0}
    for d in ((1, 3, 5) if family == "even" else (2, 4)):
        sampler, make = (sample_even, make_E) if family == "even" else (sample_odd, make_O)
        p = sampler(rng, d)
        while not (criterion_E(p) if family == "even" else criterion_O(p)):
            p = sampler(rng, d)
        a = make(p)
        k0, k1, k2, k3 = p.k
        if family == "even":
            others = [
                make_E(p.with_k(k1=1 / k1)),  # isomorphic
                make_E(p.with_k(k2=k2 + 1)),  # same X-diagonal, other module
                make_E(p.with_k(k3=k3 + 1)),  # other X-diagonal
                twist(a, 2),
            ]
        else:
            others = [make_O(p), twist(make_O(ParamQuadruple(2, k1, k2, k3, k0, d=d, parity="odd")), 1),
                      make_O(ParamQuadruple(2, k0, k1 * 2, k2 / 2, k3, d=d, parity="odd"))]
        for b in others:
            for a_in in (a, conjugate(a, rng)):
                got, want = _spectral_intertwiner(a_in, b), find_intertwiner(a_in, b)
                assert got == want
                seen["none" if want is None else "found"] += 1
    assert seen["found"] >= 2 and seen["none"] >= 2


def test_spectral_intertwiner_refuses_a_reference_on_the_same_spectrum():
    # same k0 and k3, so X has the same diagonal, but k1 differs: the
    # graph is strongly connected and only the edge equations fail
    a = make_E(ParamQuadruple(2, F(1, 4), F(2, 3), 3, F(5, 7), d=3, parity="even"))
    b = make_E(a.params.with_k(k1=F(3, 5)))
    x_diagonal = lambda m: [(m.t[3] * m.t[0]).entry(i, i) for i in range(4)]
    assert x_diagonal(a) == x_diagonal(b)
    assert _spectral_intertwiner(a, a) is not None
    assert _spectral_intertwiner(a, b) is None
    assert find_intertwiner(a, b) is None


def test_spectral_intertwiner_refuses_missing_eigenvalues():
    a = make_E(ParamQuadruple(2, F(1, 4), F(2, 3), 3, F(5, 7), d=3, parity="even"))
    b = make_E(a.params.with_k(k3=F(3, 5)))
    assert _spectral_intertwiner(a, b) is None
    assert _spectral_intertwiner(b, a) is None


def test_spectral_route_makes_no_scalar_matrices(monkeypatch):
    """On a twisted d=5 file the route shifts W on its int rows, folds
    diag(c) into P_b and scales T on its rows: only products remain,
    2 for the W's, 2 per A_k or B_k formed (3 A_k, 2 B_k), 1 for T and
    8 in the check."""
    module = ModuleRep.from_json(json.loads((DATA / "rational_even_d5_tw3.json").read_text()))
    eps, _, reference = _recover(module)
    counts = dict.fromkeys(("__mul__", "scale", "__add__", "__init__"), 0)
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(Matrix, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(Matrix, name, counting)
    cert = _spectral_intertwiner(module, reference, eps)
    assert counts == {"__mul__": 21, "scale": 0, "__add__": 0, "__init__": 0}
    monkeypatch.undo()
    assert cert.to_json() == find_intertwiner(module, reference).to_json()


def _formed_generators(monkeypatch):
    """The number of A_k the route formed on each call, read off the
    support lists it hands to the strong connectivity test."""
    formed = []
    reaches_all = daha.analysis._reaches_all

    def recording(support, n, forward):
        if forward:
            formed.append(len(support))
        return reaches_all(support, n, forward)

    monkeypatch.setattr(daha.analysis, "_reaches_all", recording)
    return formed


@pytest.mark.parametrize("field", ["rational", "ratfun"])
def test_lazy_conjugation_keeps_the_check_on_all_four_generators(monkeypatch, field):
    """b differs from a in k2 only: t0 and t1 are equal and X has the
    same simple spectrum, so both eigenbases exist, the graph of A_0,
    A_1 is connected and the tree gives a candidate T.  a and b are not
    isomorphic, and only the final check, which covers t2 and t3 whose
    A_k were never formed, refuses T."""
    q = field_by_name(field).default_q()
    a = make_E(ParamQuadruple(q, scalar_pow(q, -2), F(2, 3), 3, F(5, 7), d=3, parity="even"))
    b = make_E(a.params.with_k(k2=F(-4, 9)))
    assert criterion_E(a.params) and criterion_E(b.params)
    assert a.t[:2] == b.t[:2] and a.t[2:] != b.t[2:]
    x_diagonal = lambda m: [m.x_matrix().entry(i, i) for i in range(m.dim)]
    assert x_diagonal(a) == x_diagonal(b) and len(set(x_diagonal(a))) == a.dim
    formed = _formed_generators(monkeypatch)
    candidates = []

    def recording(t, a_in, b_in):
        candidates.append(t)
        return is_intertwiner(t, a_in, b_in)

    monkeypatch.setattr(daha.analysis, "is_intertwiner", recording)
    # with t2 alone doubled, the eigenbases and A_0, A_1 agree, so the
    # candidate is the identity: it intertwines t0, t1 and t3, not t2
    t2 = a.t[2].scale(2)
    doubled = ModuleRep(a.dim, (*a.t[:2], t2, a.t[3]), (*a.tinv[:2], inverse(t2), a.tinv[3]),
                        a.params, 0, "")
    for other in (b, doubled):
        formed.clear()
        assert _spectral_intertwiner(a, other) is None
        assert max(formed) == 2
        assert find_intertwiner(a, other) is None
    t, ident = candidates
    assert not is_intertwiner(t, a, b) and ident == a.identity_matrix()


@pytest.mark.parametrize("field", ["rational", "ratfun"])
def test_some_twists_need_a_third_generator(monkeypatch, field):
    """Even d=3 twists 1 and 3 connect the graph only with A_2; every
    twist still certifies with the equations' certificate, byte for byte."""
    q = field_by_name(field).default_q()
    p = ParamQuadruple(q, scalar_pow(q, -2), F(2, 3), 3, F(5, 7), d=3, parity="even")
    formed = _formed_generators(monkeypatch)
    for e in range(4):
        module = twist(make_E(p), e)
        eps, _, reference = _recover(module)
        formed.clear()
        cert = _spectral_intertwiner(module, reference, eps)
        assert max(formed) == (3 if e % 2 else 2)
        assert json.dumps(cert.to_json()) == json.dumps(find_intertwiner(module, reference).to_json())


@pytest.mark.parametrize(
    "p",
    [
        ParamQuadruple(2, F(-1, 2), F(9, 13), F(16, 15), -1, d=1, parity="even"),
        ParamQuadruple(2, F(7, 9), F(1, 7), F(-7, 2), F(-9, 28), d=2, parity="odd"),
    ],
    ids=["even-d1", "odd-d2"],
)
def test_repeated_x_diagonal_falls_back(p):
    module = make_E(p) if p.parity == "even" else make_O(p)
    x = module.t[3] * module.t[0]
    diagonal = [x.entry(i, i) for i in range(module.dim)]
    assert len(set(diagonal)) < len(diagonal)
    assert burnside_irreducible(module)
    spectral, equations = _both_routes(module)
    assert spectral is None and classify(module).certificate == equations


def test_classify_recovers_once_on_the_fallback(monkeypatch):
    """The closure fallback reuses the first recovery, or raises its
    error once the closure proves irreducibility."""
    import daha.analysis

    module = make_E(ParamQuadruple(2, F(-1, 2), F(9, 13), F(16, 15), -1, d=1, parity="even"))
    calls = []

    def counting(m):
        calls.append(m)
        return _recover(m)

    monkeypatch.setattr(daha.analysis, "_recover", counting)
    assert classify(module).certificate == find_intertwiner(module, _recover(module)[2])
    assert calls == [module]

    def failing(m):
        calls.append(m)
        raise ClassificationError("first recovery")

    calls.clear()
    monkeypatch.setattr(daha.analysis, "_recover", failing)
    with pytest.raises(ClassificationError, match="first recovery"):
        classify(module)
    assert calls == [module]


def test_spectral_route_refuses_reducible_modules(conjugate):
    rng = random.Random("spectral-reducible")
    for d in (1, 3, 5):
        for _ in range(3):
            module = twist(make_E(adversarial_even(rng, d)), rng.randrange(4))
            assert not burnside_irreducible(module)
            assert _spectral(module) is None
            assert _spectral(conjugate(module, rng)) is None
    for d in (2, 4):
        for _ in range(3):
            module = make_O(adversarial_odd(rng, d))
            assert not burnside_irreducible(module)
            assert _spectral(module) is None


def test_spectral_route_over_the_rational_functions(old_format):
    """Formal modules take the route with the equations' certificate, also
    when read from a file that prints their constants as bare rationals."""
    rng = random.Random("spectral-ratfun")
    for p in (sample_even(rng, 1, field=QQ_Q), sample_even(rng, 3, field=QQ_Q),
              sample_odd(rng, 0, field=QQ_Q), sample_odd(rng, 2, field=QQ_Q)):
        built = make_E(p) if p.parity == "even" else make_O(p)
        for module in (built, ModuleRep.from_json(old_format(built))):
            for e in range(4):
                got, want = _both_routes(twist(module, e))
                assert got is not None and got.to_json() == want.to_json()


@pytest.mark.parametrize("e", range(4))
def test_spectral_route_certifies_formal_even_d7(e):
    """The eigenbasis route decides formal d=7 on its own, with an
    invertible certificate that intertwines with the rebuilt reference.
    Invertibility is read off the rank (full rank iff det != 0), which
    eliminates with gcd-cancelled rows instead of Bareiss's growing
    minors."""
    q = QQ_Q.default_q()
    p = ParamQuadruple(q, q ** -4, 3, F(-12, 5), F(-4, 11), d=7, parity="even")
    module = twist(make_E(p), e)
    eps, _, reference = _recover(module)
    cert = _spectral_intertwiner(module, reference, eps)
    assert cert is not None
    assert rank(cert) == module.dim and is_intertwiner(cert, module, reference)


def _in_q_of_q(m: Matrix) -> bool:
    return m._ints is None and all(isinstance(e, RatFun) for row in m.entries for e in row)


def test_formal_values_hold_ratfuns_only(monkeypatch):
    """Formal params lift their rational k's into Q(q), and so every
    matrix, kernel basis and certificate built from them holds RatFuns
    only, also where a rational operand meets a formal one."""
    poly_matrix = daha.linalg._poly_matrix

    def checked(rows, den, out=None):
        m = poly_matrix(rows, den, out)
        assert _in_q_of_q(m)
        return m

    monkeypatch.setattr(daha.linalg, "_poly_matrix", checked)
    rng = random.Random("one-field")
    for sampler, d in ((sample_even, 1), (sample_even, 3), (sample_odd, 0), (sample_odd, 2)):
        p = sampler(rng, d, field=QQ_Q)
        crit = criterion_E if p.parity == "even" else criterion_O
        while not crit(p):
            p = sampler(rng, d, field=QQ_Q)
        assert all(isinstance(x, RatFun) for x in (p.q, *p.k))
        module = make_E(p) if p.parity == "even" else make_O(p)
        n = module.dim
        for e in range(4):
            m = twist(module, e)
            theta = m.x_matrix().entry(0, 0)
            mats = [*m.t, *m.tinv, m.x_matrix(), m.xinv_matrix(), m.y_matrix(),
                    m.t[0] * m.t[1] * m.t[2] * m.t[3], m.t[1] + m.tinv[1],
                    m.t[2] - m.tinv[2], m.t[3].scale(F(-2, 3)),
                    Matrix.identity(n) * m.t[0], m.t[1] + Matrix.identity(n),
                    Matrix.identity(n).scale(theta)]
            assert all(map(_in_q_of_q, mats))
            spaces = [
                kernel(m.x_matrix() - Matrix.identity(n).scale(theta)),
                solve_sylvester_homogeneous(zip(m.t, module.t)),
                solve_sylvester_homogeneous([(Matrix.identity(n), m.t[0])]),
            ]
            assert all(isinstance(x, RatFun) for s in spaces for v in s.basis for x in v)
            result = classify(m)
            assert all(isinstance(x, RatFun) for x in (result.params.q, *result.params.k))
            assert _in_q_of_q(result.certificate)


# the even family's k1..k3 and the odd family's k0..k2, at q = 2
_SMALL = st.fractions(min_value=-16, max_value=16, max_denominator=16).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, 2, 3, 4]), st.booleans(), _SMALL, _SMALL, _SMALL,
       st.integers(0, 3))
def test_classify_round_trips_on_both_families(d, sign, x, y, z, e):
    if d % 2:
        p = ParamQuadruple(2, (1 if sign else -1) * F(1, 2 ** ((d + 1) // 2)), x, y, z,
                           d=d, parity="even")
        assume(criterion_E(p))
        module = make_E(p)
        want_params = canonical_orbit_rep(p)
    else:
        p = ParamQuadruple(2, x, y, z, F(1, 2 ** (d + 1)) / (x * y * z), d=d, parity="odd")
        assume(criterion_O(p))
        module = make_O(p)
        k = p.k
        want_params = ParamQuadruple(2, *(k[(i + e) % 4] for i in range(4)), d=d, parity="odd")
    result = classify(twist(module, e))
    assert result.params == want_params
    assert result.twist == (e if d % 2 else 0)
    reference = make_E(want_params) if d % 2 else make_O(want_params)
    assert det(result.certificate)
    assert is_intertwiner(result.certificate, twist(module, e), twist(reference, e if d % 2 else 0))
    spectral, equations = _both_routes(twist(module, e))
    assert equations == result.certificate and spectral in (None, equations)
