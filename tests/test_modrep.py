import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha.errors import DahaError, InputError, ParameterError, TranscriptionError
from daha.linalg import Matrix, inverse, solve_right
from daha.modrep import (
    LaurentPoly,
    _ladder_block,
    CheckItem,
    ModuleRep,
    SparseVec,
    _Inverses,
    central_character,
    commutation_check,
    ladder_check,
    make_E,
    make_O,
    poly_apply,
    raising_product_annihilates,
    sparse_to_poly,
    verify_relations,
    verma_apply,
    verma_basis_image,
    verma_ladder_check,
    w_basis_check,
)
from daha.params import ParamQuadruple
from daha.sampling import (
    adversarial_even,
    adversarial_odd,
    sample_even,
    sample_free,
    sample_odd,
    sample_params,
)
from daha.scalar import QQ, QQ_Q, RatFun, as_scalars, scalar_from_json

F = Fraction
DATA = Path(__file__).parent / "data"


def test_make_E_d1_matrices(p_even_d1):
    module = make_E(p_even_d1)
    assert module.t[0] == Matrix([[F(1, 2), 0], [0, F(1, 2)]])
    assert module.t[1] == Matrix([[1, 0], [1, 1]])
    assert module.t[2] == Matrix([[1, F(-4, 3)], [-1, F(7, 3)]])
    assert module.t[3] == Matrix([[1, F(4, 3)], [0, 1]])
    assert verify_relations(module).ok


def test_make_E_central_character(p_even_d1):
    module = make_E(p_even_d1)
    assert central_character(module) == (F(5, 2), 2, F(10, 3), 2)


def test_make_E_reducible_invariant_line(p_even_d1_reducible):
    module = make_E(p_even_d1_reducible)
    assert verify_relations(module).ok
    # the line through v1 is invariant: nothing maps back onto v0
    for mat in module.t + tuple(module.tinv):
        image = mat.apply((0, 1))
        assert image[0] == 0


def test_make_E_rejects_wrong_parity(p_odd_d0):
    with pytest.raises(ParameterError):
        make_E(p_odd_d0)


def test_truncation_needs_the_parity_constraint():
    # without the constraint m_{d+1}, m_{d+2}, ... span no submodule, so
    # the truncated ladder matrices break a defining relation; at these
    # parameters t0 + t0^-1 (odd d) or t2 + t2^-1 (even d) is not scalar
    for d in (1, 2, 3, 4):
        free = ParamQuadruple(2, 5, F(2, 3), 7, F(3, 11), d=d, parity="free")
        t = tuple(_ladder_block(gen, d + 1, d + 1, free) for gen in range(4))
        module = ModuleRep(
            dim=d + 1, t=t, tinv=tuple(inverse(m) for m in t),
            params=free, twist=0, label="",
        )
        failed = {item.name for item in verify_relations(module).failed()}
        assert failed == {"t0+t0^-1 scalar" if d % 2 else "t2+t2^-1 scalar"}


def test_make_O_d0(p_odd_d0):
    module = make_O(p_odd_d0)
    assert [m.entries for m in module.t] == [((1,),), ((1,),), ((1,),), ((F(1, 2),),)]
    assert verify_relations(module).ok
    assert central_character(module) == (2, 2, 2, F(5, 2))


def test_make_O_d2(p_odd_d2):
    module = make_O(p_odd_d2)
    assert verify_relations(module).ok
    expected = tuple(k + 1 / k for k in p_odd_d2.k)
    assert central_character(module) == expected


def test_relation_sweep_random():
    rng = random.Random("relations")
    for d in (1, 3, 5, 7):
        for _ in range(4):
            assert verify_relations(make_E(sample_even(rng, d))).ok
    for d in (0, 2, 4, 6):
        for _ in range(4):
            assert verify_relations(make_O(sample_odd(rng, d))).ok


def test_verify_relations_fault_injection(p_even_d1):
    module = make_E(p_even_d1)
    entries = [list(row) for row in module.t[2].entries]
    entries[0][0] += 1
    broken = ModuleRep(
        dim=module.dim,
        t=(module.t[0], module.t[1], Matrix(entries), module.t[3]),
        tinv=module.tinv,
        params=module.params,
        twist=0,
        label="broken",
    )
    report = verify_relations(broken)
    assert not report.ok
    failed_names = {item.name for item in report.failed()}
    assert "t0*t1*t2*t3 = q^-1" in failed_names
    assert any(item.detail for item in report.failed())


def both_products_report(m):
    """The inverse checks of verify_relations with both products of
    every pair formed: the reference for the one product it forms when
    t t^-1 = 1 holds."""
    ident = m.identity_matrix()
    items = []
    for i, name in enumerate(("t0", "t1", "t2", "t3")):
        for tag, prod in ((f"{name}*{name}^-1 = 1", m.t[i] * m.tinv[i]),
                          (f"{name}^-1*{name} = 1", m.tinv[i] * m.t[i])):
            ok = prod == ident
            items.append(CheckItem(tag, ok, "" if ok else "difference " + repr(prod - ident)))
    return items


def test_verify_relations_forms_one_product_per_pair(monkeypatch, p_even_d1):
    """The reports on broken modules, rational and formal, and on the
    corrupt golden equal those of the both-products reference, and an
    intact pair costs one product."""
    rng = random.Random("one-product")
    corrupt = DATA / "rational_even_d3_corrupt.json"
    modules = [ModuleRep.from_json(json.loads(corrupt.read_text()))]
    for p in (p_even_d1, sample_odd(rng, 2), sample_even(rng, 3, field=QQ_Q)):
        module = make_E(p) if p.parity == "even" else make_O(p)
        modules += [module, _with_entry(module, 2, 0, 0), _with_entry(module, 0, 1, 0)]
        # t2 changed and the inverses kept, as in the fault injection above
        stale = ModuleRep(dim=module.dim, t=_with_entry(module, 2, 0, 0).t, tinv=module.tinv,
                          params=p, twist=0, label="stale")
        swapped = ModuleRep(dim=module.dim, t=module.t, tinv=module.t, params=p, twist=0,
                            label="swapped")
        modules += [stale, swapped]
    for d in (1, 2):
        free = ParamQuadruple(2, 5, F(2, 3), 7, F(3, 11), d=d, parity="free")
        t = tuple(_ladder_block(gen, d + 1, d + 1, free) for gen in range(4))
        modules.append(ModuleRep(dim=d + 1, t=t, tinv=tuple(inverse(m) for m in t),
                                 params=free, twist=0, label=""))
    failures = 0
    for module in modules:
        report = verify_relations(module)
        assert list(report.items[:8]) == both_products_report(module)
        assert len(report.items) == 13
        failures += sum(not item.passed for item in report.items[:8])
    assert failures >= 10

    counted = []
    mul = Matrix.__mul__

    def counting(a, b):
        counted.append(1)
        return mul(a, b)

    module = make_E(p_even_d1)
    monkeypatch.setattr(Matrix, "__mul__", counting)
    assert verify_relations(module).ok
    # four inverse pairs and the three products of t0 t1 t2 t3
    assert len(counted) == 7


def test_ladder_check_examples(p_even_d1):
    module = make_E(p_even_d1)
    assert ladder_check(module, "X").ok
    assert ladder_check(module, "Y").ok
    # the i=1 lowering step explicitly: (1 - k0 k3 q^2 X) v1 = rho_1 v0
    x = module.x_matrix()
    op = module.identity_matrix() - x.scale(F(1, 2) * 1 * 4)
    assert op.apply((0, 1)) == (F(-4, 3), 0)


def test_ladder_check_random():
    rng = random.Random("ladders")
    for d in (3, 5):
        module = make_E(sample_even(rng, d))
        assert ladder_check(module, "X").ok
        assert ladder_check(module, "Y").ok
    for d in (2, 4):
        module = make_O(sample_odd(rng, d))
        assert ladder_check(module, "X").ok
        assert ladder_check(module, "Y").ok


def test_commutation_and_annihilation():
    rng = random.Random("commutation")
    for d in (1, 3):
        module = make_E(sample_even(rng, d))
        assert commutation_check(module).ok
        assert raising_product_annihilates(module)
    for d in (0, 2, 4):
        module = make_O(sample_odd(rng, d))
        assert commutation_check(module).ok
        assert raising_product_annihilates(module)


def test_w_basis():
    rng = random.Random("wbasis")
    for d in (1, 3, 5):
        assert w_basis_check(make_E(sample_even(rng, d))).ok


# -- the ladder checks report a wrong generator ------------------------------

def _with_entry(module, gen, i, j):
    """module with 1 added to entry (i, j) of t_gen; the inverses follow."""
    rows = [list(row) for row in module.t[gen].entries]
    rows[i][j] += 1
    t = tuple(Matrix(rows) if g == gen else x for g, x in enumerate(module.t))
    return ModuleRep(dim=module.dim, t=t, tinv=_Inverses(t), params=module.params,
                     twist=0, label="perturbed")


LADDER_MODULES = [
    ParamQuadruple(2, F(1, 4), F(2, 3), 3, F(5, 7), d=3, parity="even"),
    ParamQuadruple(2, 1, 1, 3, F(1, 24), d=2, parity="odd"),
]


@pytest.mark.parametrize("p", LADDER_MODULES, ids=["even-d3", "odd-d2"])
def test_ladder_checks_report_a_wrong_generator(p):
    module = make_E(p) if p.parity == "even" else make_O(p)
    assert raising_product_annihilates(module)
    # t3 enters X = t3*t0 but not Y = t0*t1, and t1 the other way round
    wrong_x = _with_entry(module, 3, 0, 0)
    assert [item.name for item in ladder_check(wrong_x, "X").failed()] == ["X-ladder@0"]
    assert ladder_check(wrong_x, "Y").ok
    assert raising_product_annihilates(wrong_x)
    wrong_y = _with_entry(module, 1, 0, 0)
    assert ladder_check(wrong_y, "X").ok
    assert [item.name for item in ladder_check(wrong_y, "Y").failed()] == ["Y-ladder@0"]
    assert ladder_check(wrong_y, "Y").failed()[0].detail.startswith("got [")
    assert not raising_product_annihilates(wrong_y)


def test_w_basis_check_reports_a_wrong_generator():
    module = make_E(LADDER_MODULES[0])
    assert w_basis_check(module).ok
    failed = {item.name for item in w_basis_check(_with_entry(module, 3, 0, 0)).failed()}
    assert failed == {f"w-lowering@{i}" for i in range(4)}
    failed = {item.name for item in w_basis_check(_with_entry(module, 1, 0, 0)).failed()}
    assert "w-raising@3" in failed and "w vectors form a basis" not in failed


def test_verma_ladder_check_reports_a_wrong_action(monkeypatch, p_even_d1):
    import daha.modrep

    assert verma_ladder_check(p_even_d1, 4).ok
    monkeypatch.setattr(daha.modrep, "seq_rho", lambda *args: F(7))
    failed = {item.name for item in verma_ladder_check(p_even_d1, 4).failed()}
    assert failed == {f"verma-X@{i}" for i in range(1, 5)}
    monkeypatch.undo()

    # Y and Y^-1 with a stray m_(i+3) term
    apply = daha.modrep.verma_apply

    def wrong_y(gen, v, p):
        out = apply(gen, v, p)
        return out + SparseVec.unit(v.items[0][0] + 3) if gen in ("Y", "Yinv") else out

    monkeypatch.setattr(daha.modrep, "verma_apply", wrong_y)
    failed = {item.name for item in verma_ladder_check(p_even_d1, 4).failed()}
    assert failed == {f"verma-Y@{i}" for i in range(5)}


def test_verma_apply_examples(p_even_d1):
    p = p_even_d1
    m0 = SparseVec.unit(0)
    assert verma_apply(0, m0, p) == m0.scale(p.k0)
    t1m0 = verma_apply(1, m0, p)
    assert t1m0 == SparseVec.from_dict({0: p.k1, 1: 1 / p.k1})


def test_verma_inverse_generators(p_even_d1):
    p = p_even_d1
    rng = random.Random("verma")
    for gen in range(4):
        v = SparseVec.from_dict(
            {i: F(rng.randint(-5, 5)) for i in rng.sample(range(9), 3)}
        )
        forward = verma_apply(gen, v, p)
        back = verma_apply(f"t{gen}inv", forward, p)
        assert back == v


def _banded_inverse(gen, v, p):
    """The reference for an inverse generator: solve the banded system
    t*w = v on the index window [0, max index + 6] of the ladder basis."""
    width = (v.items[-1][0] if v.items else 0) + 6
    rhs = [p.q * 0] * (width + 2)
    for i, c in v.items:
        rhs[i] = c
    sol = solve_right(_ladder_block(gen, width + 2, width + 1, p), rhs)
    assert sol is not None
    return SparseVec.from_dict(dict(enumerate(sol)))


# each inverse word as the inverse generators it applies, rightmost first
_INVERSE_WORDS = {
    "t0inv": (0,), "t1inv": (1,), "t2inv": (2,), "t3inv": (3,),
    "Xinv": (3, 0), "Yinv": (0, 1),
}


def test_verma_inverse_matches_the_banded_solve():
    rng = random.Random("vermainverse")
    params = []
    for field in (QQ, QQ_Q):
        params += [sample_even(rng, 3, field=field), sample_odd(rng, 2, field=field),
                   sample_free(rng, field=field)]
    for p in params:
        one = p.q ** 0
        vectors = [SparseVec.unit(i, one) for i in (0, 1, 14, 15)]
        vectors.append(SparseVec.from_dict(
            {i: one * F(rng.randint(-5, 5), rng.randint(1, 4)) for i in rng.sample(range(16), 4)}
            | {15: p.q}
        ))
        for v in vectors:
            for word, gens in _INVERSE_WORDS.items():
                expected = v
                for gen in gens:
                    expected = _banded_inverse(gen, expected, p)
                assert verma_apply(word, v, p) == expected, (word, v)


def test_verma_ladder(p_even_d1, p_odd_d2):
    assert verma_ladder_check(p_even_d1, 12).ok
    assert verma_ladder_check(p_odd_d2, 12).ok
    free = ParamQuadruple(2, 5, F(2, 3), 7, F(3, 11), d=0, parity="free")
    assert verma_ladder_check(free, 12).ok


def test_poly_apply_examples(p_even_d1):
    p = p_even_d1
    one = LaurentPoly({0: 1})
    assert poly_apply(3, one, p) == one.scale(p.k3)
    assert poly_apply(0, one, p) == one.scale(p.k0)


def test_poly_y_multiplication():
    rng = random.Random("polyY")
    p = sample_free(rng)
    for _ in range(20):
        f = LaurentPoly(
            {rng.randint(-5, 5): F(rng.randint(-9, 9)) for _ in range(4)}
        )
        lhs = poly_apply(0, poly_apply(1, f, p), p)
        assert lhs == (f * LaurentPoly({1: 1})).scale(1 / p.q)  # z f / q


def test_verma_basis_image(p_even_d1):
    p = p_even_d1
    assert verma_basis_image(0, p) == LaurentPoly({0: 1})
    expected = LaurentPoly({0: 1, -1: -p.k0 * p.k1 * p.q})
    assert verma_basis_image(1, p) == expected


def test_poly_intertwining():
    rng = random.Random("intertwine")
    for p in (sample_even(rng, 3), sample_odd(rng, 2), sample_free(rng)):
        for i in range(9):
            image = verma_basis_image(i, p)
            mi = SparseVec.unit(i)
            for gen in range(4):
                assert poly_apply(gen, image, p) == sparse_to_poly(
                    verma_apply(gen, mi, p), p
                )


def test_formal_q_laurent_coefficients_stay_in_the_field():
    rng = random.Random("laurentfield")
    for p in (sample_even(rng, 3, field=QQ_Q), sample_odd(rng, 2, field=QQ_Q)):
        for i in range(4):
            image = verma_basis_image(i, p)
            polys = [image] + [poly_apply(gen, image, p) for gen in range(4)]
            assert all(isinstance(c, RatFun) for f in polys for _, c in f.terms)


def test_laurent_exact_div_guard():
    f = LaurentPoly({0: 1, 1: 1})
    g = LaurentPoly({0: 1, 2: -1})
    with pytest.raises(TranscriptionError):
        f.exact_div(g)
    assert (f * g).exact_div(g) == f


def test_module_json_round_trip(p_even_d1, p_odd_d2):
    for module in (make_E(p_even_d1), make_O(p_odd_d2)):
        again = ModuleRep.from_json(module.to_json())
        assert again == module


def test_symbolic_module(p_even_d1):
    rng = random.Random("symmod")
    p = sample_even(rng, 1, field=QQ_Q)
    module = make_E(p)
    assert verify_relations(module).ok
    assert central_character(module) == tuple(k + 1 / k for k in p.k)
    one = p.q ** 0
    assert ladder_check(module, "X").ok and ladder_check(module, "Y").ok
    po = sample_odd(rng, 2, field=QQ_Q)
    mo = make_O(po)
    assert verify_relations(mo).ok
    assert raising_product_annihilates(mo)


def test_constructed_inverses_are_computed_on_first_read(monkeypatch, p_even_d1):
    """A constructed module inverts a generator only when its inverse is
    read, and still compares, serialises and twists like one built with
    the tuple of inverses."""
    import daha.analysis
    import daha.modrep

    calls = []

    def counting(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(daha.modrep, "inverse", counting)
    for module in (make_E(p_even_d1), make_O(ParamQuadruple(2, 1, 1, 3, F(1, 24), d=2, parity="odd"))):
        calls.clear()
        twisted = daha.analysis.twist(module, 0)
        daha.analysis.burnside_irreducible(module)
        assert calls == []
        shifted = daha.analysis._shift(module, 1)
        assert calls == []
        eager = ModuleRep(
            dim=module.dim, t=module.t, tinv=tuple(inverse(m) for m in module.t),
            params=module.params, twist=0, label=module.label,
        )
        assert module == eager and eager == module and hash(module) == hash(eager)
        assert module.to_json() == eager.to_json()
        assert len(calls) == 4
        assert module.tinv[1] is module.tinv[1] and len(calls) == 4
        assert module.t + tuple(module.tinv) == module.t + tuple(eager.tinv)
        assert shifted.tinv == tuple(eager.tinv[(i + 1) % 4] for i in range(4))
        assert len(calls) == 8
        assert twisted is module
        assert verify_relations(shifted).ok


# -- ladder blocks against the field reference --------------------------------

def reference_column(gen, j, p):
    """Coordinates of generator gen applied to m_j by Fraction or RatFun
    arithmetic, normalised after every operation: the reference for the
    unreduced ring pairs of daha.modrep._verma_column."""
    q, (k0, k1, k2, k3) = p.q, p.k
    if gen == 0:
        if j == 0:
            return {0: k0}
        if j % 2 == 0:
            c = q ** -j / k0
            return {j - 1: c * (1 - q ** j) * (1 - k0 * k0 * q ** j), j: k0 + 1 / k0 - c}
        c = q ** (-j - 1) / k0
        return {j: c, j + 1: -c}
    if gen == 1:
        if j == 0:
            return {0: k1, 1: 1 / k1}
        if j % 2 == 0:
            return {j - 1: -k1 * (1 - q ** j) * (1 - k0 * k0 * q ** j), j: k1, j + 1: 1 / k1}
        return {j: 1 / k1}
    if gen == 2:
        if j % 2 == 0:
            c = q ** (-j - 1) / (k0 * k1 * k3)
            return {j: c, j + 1: -c}
        a = k0 * k1 * k3 * q ** j
        return {j - 1: (a - k2) * (a - 1 / k2) / a, j: k2 + 1 / k2 - 1 / a}
    if j % 2 == 0:
        return {j: k3}
    a = k0 * k1 * k3 * q ** j
    return {j - 1: -(a - k2) * (a - 1 / k2) / k3, j: 1 / k3, j + 1: k3}


def reference_block(gen, rows, cols, p):
    """The block built by Matrix(...) from the reference columns."""
    columns = [reference_column(gen, j, p) for j in range(cols)]
    return Matrix([[col.get(i, p.q * 0) for col in columns] for i in range(rows)])


BIG = F(10 ** 40 + 3, 7 ** 47)  # a numerator and a denominator of about 10^40


def _block_grid(rng, field):
    """Sampled params at d = 0..7 in the field (and adversarial ones
    when it is QQ), then q = -5/3 with huge k's: even, odd, and free
    params whose odd columns of t2 and t3 have a zero entry
    (a - k2 = 0 or a - 1/k2 = 0 for a = k0 k1 k3 q^j)."""
    grid = []
    for d in range(8):
        parity = "odd" if d % 2 == 0 else "even"
        grid += [sample_params(rng, parity, d, field=field) for _ in range(3)]
        if field is QQ and d % 2:
            grid.append(adversarial_even(rng, d))
        elif field is QQ and d >= 2:
            grid.append(adversarial_odd(rng, d))
    one = field.default_q() ** 0
    q = F(-5, 3) * one
    k0, k1, k3 = BIG * one, F(-3, 7) * one, 1 / BIG
    grid += [
        ParamQuadruple(q, -q ** -2, 1 / BIG, BIG, F(-2, 9), d=3, parity="even"),
        ParamQuadruple(q, BIG, F(-7, 2), 1 / BIG, q ** -5 * F(-2, 7), d=4, parity="odd"),
        ParamQuadruple(q, F(7, 2), F(-2, 9), 11, F(3, 13), d=3, parity="free"),
        ParamQuadruple(q, k0, k1, k0 * k1 * k3 * q, k3, d=5, parity="free"),
        ParamQuadruple(q, k0, k1, 1 / (k0 * k1 * k3 * q ** 3), k3, d=5, parity="free"),
    ]
    return grid


def _blocks(p):
    d = p.d
    for gen in range(4):
        for rows, cols in ((d + 1, d + 1), (d + 2, d + 1), (d + 1, d + 2), (d + 3, d + 1)):
            yield gen, rows, cols


def test_ladder_block_int_rows_match_the_scalar_build():
    """Rational blocks, scattered from unreduced int pairs and reduced
    once, equal the reference blocks in their canonical int rows."""
    rng = random.Random("ladder-int")
    zeros = 0
    for p in _block_grid(rng, QQ):
        for gen, rows, cols in _blocks(p):
            got = _ladder_block(gen, rows, cols, p)
            want = reference_block(gen, rows, cols, p)
            assert got.field is QQ
            assert (got._rows, got._den) == (want._rows, want._den), (p, gen, rows, cols)
        zeros += sum(not c for gen in range(4) for j in range(p.d + 1)
                     for c in reference_column(gen, j, p).values())
    assert zeros >= 4


def test_formal_q_ladder_blocks_stay_field_matrices():
    """Formal-q blocks, summed from the column table of unreduced
    polynomial pairs, equal the reference blocks, entry types included:
    every entry is a RatFun, since formal params lift their k's into
    Q(q).  The grid has the rational grid's shapes lifted into Q(q),
    formal zero entries, and the non-monomial k1 = (1+q)/(2-q)."""
    rng = random.Random("ladder-formal")
    grid = _block_grid(rng, QQ_Q)
    even = next(p for p in grid if (p.parity, p.d) == ("even", 3))
    odd = next(p for p in grid if (p.parity, p.d) == ("odd", 4))
    grid += [
        even.with_k(k1=NM, k3=1 / NM),
        odd.with_k(k1=NM, k3=odd.k3 * odd.k1 / NM),
        ParamQuadruple(RatFun.variable(), NM, F(-3, 4), 1 / NM, RatFun((0, 1), (1, 1)),
                       d=3, parity="free"),
    ]
    q = RatFun.variable()
    k0, k1, k3 = NM, q ** -2, F(5, 3) * q ** 0
    grid.append(ParamQuadruple(q, k0, k1, k0 * k1 * k3 * q ** 3, k3, d=4, parity="free"))
    zeros = 0
    for p in grid:
        for gen, rows, cols in _blocks(p):
            got = _ladder_block(gen, rows, cols, p)
            want = reference_block(gen, rows, cols, p)
            assert got == want and got.field is want.field is QQ_Q, (p, gen)
            assert {type(x) for row in got.entries for x in row} == {RatFun}
        zeros += sum(not c for gen in range(4) for j in range(p.d + 1)
                     for c in reference_column(gen, j, p).values())
    assert zeros >= 2


# -- the scalar grammar of module and parameter files ------------------------

ACCEPTED = {"2/4": F(1, 2), "-12/8": F(-3, 2), "-0": F(0), "007": F(7), " 3 ": F(3)}
REFUSED = ["1e5", "1.5", "+3", "1_0", "\u0663", "\u00b2", "3/-4", "1 / 2", "", "7" * 5000]


def _even_d1_file(backend):
    """An even d = 1 module file; its params' k3 and the entry t1[0][1]
    are free to change without breaking the loader's shape checks."""
    q = RatFun.variable() if backend == "ratfun" else 2
    k0 = q ** -1 if backend == "ratfun" else F(1, 2)
    return make_E(ParamQuadruple(q, k0, 2, 3, 5, d=1, parity="even")).to_json()


def _load_with(text, where):
    """Load a module file holding text as a rational module entry, as a
    RatFun coefficient or as the params scalar k3."""
    if where == "entry":
        data = _even_d1_file("rational")
        data["t"][1]["entries"][0][1] = text
    elif where == "coefficient":
        data = _even_d1_file("ratfun")
        data["t"][1]["entries"][0][1] = f"{text},1 | 1"
    else:
        data = _even_d1_file("rational")
        data["params"]["k"][3] = text
    return ModuleRep.from_json(data)


@pytest.mark.parametrize("where", ["entry", "coefficient", "params"])
@pytest.mark.parametrize("text", sorted(ACCEPTED))
def test_scalar_grammar_accepts(text, where):
    value = ACCEPTED[text]
    if where == "params" and not value:
        with pytest.raises(ParameterError, match="k3 must be nonzero"):
            _load_with(text, where)
        return
    m = _load_with(text, where)
    if where == "entry":
        assert m.t[1].entry(0, 1) == value and m.t[1] == Matrix(m.t[1].entries)
    elif where == "coefficient":
        assert m.t[1].entry(0, 1) == RatFun((value, 1))
    else:
        assert m.params.k3 == value


@pytest.mark.parametrize("where", ["entry", "coefficient", "params"])
@pytest.mark.parametrize("text", REFUSED, ids=lambda t: repr(t)[:12])
def test_scalar_grammar_refuses(text, where):
    with pytest.raises(InputError):
        _load_with(text, where)


_LOADER_TEXT = st.text(alphabet="0123456789/-|,.e ", max_size=8)


@settings(max_examples=150, deadline=None)
@given(_LOADER_TEXT, _LOADER_TEXT, _LOADER_TEXT)
def test_loaders_raise_only_package_errors(entry, q, k):
    """Short strings from the scalar alphabet, as a matrix entry, the
    params' q and a k, reach the loaders as DahaError or not at all."""
    data = _even_d1_file("rational")
    data["t"][2]["entries"][1][0] = entry
    data["params"]["q"], data["params"]["k"][2] = q, k
    for load, part in (
        (Matrix.from_json, data["t"][2]),
        (ParamQuadruple.from_json, data["params"]),
        (ModuleRep.from_json, data),
        (scalar_from_json, entry),
    ):
        try:
            load(part)
        except DahaError:
            pass


# -- the ladder module on raw pairs against field arithmetic -----------------

class RefVec:
    """Sorted (index, coefficient) pairs with nonzero coefficients in one
    field (:func:`~daha.scalar.as_scalars`), each normalised after each
    operation: the reference for SparseVec."""

    def __init__(self, coefs):
        pairs = list(coefs.items() if isinstance(coefs, dict) else coefs)
        acc = {}
        for i, c in zip([i for i, _ in pairs], as_scalars(c for _, c in pairs)):
            acc[i] = acc[i] + c if i in acc else c
        self.items = tuple(sorted((i, c) for i, c in acc.items() if c))

    def scale(self, c):
        return RefVec(tuple((i, x * c) for i, x in self.items))

    def __add__(self, other):
        return RefVec(self.items + other.items)

    def __sub__(self, other):
        return self + other.scale(-1)


def ref_forward(gen, v, p):
    return RefVec(tuple((i, c * e) for j, c in v.items
                        for i, e in reference_column(gen, j, p).items()))


def ref_inverse(gen, v, p):
    k = p.k[gen]
    w = v.scale(k + 1 / k) - ref_forward(gen, v, p)
    assert ref_forward(gen, w, p).items == v.items
    return w


# each word as (step, generator) pairs, rightmost factor first
REF_WORDS = {
    **{g: ((ref_forward, g),) for g in range(4)},
    **{f"t{g}": ((ref_forward, g),) for g in range(4)},
    **{f"t{g}inv": ((ref_inverse, g),) for g in range(4)},
    "X": ((ref_forward, 0), (ref_forward, 3)),
    "Y": ((ref_forward, 1), (ref_forward, 0)),
    "Xinv": ((ref_inverse, 3), (ref_inverse, 0)),
    "Yinv": ((ref_inverse, 0), (ref_inverse, 1)),
}

NM = RatFun((1, 1), (2, -1))  # (1+q)/(2-q)


def _vec_params():
    """Rational, formal and non-monomial params of all three parities."""
    rng = random.Random("raw-vectors")
    out = []
    for field in (QQ, QQ_Q):
        out += [sample_even(rng, 3, field=field), sample_odd(rng, 2, field=field),
                sample_free(rng, field=field)]
    even, odd = out[3], out[4]
    out += [
        even.with_k(k1=NM, k3=1 / NM),
        odd.with_k(k1=NM, k3=odd.k3 * odd.k1 / NM),
        ParamQuadruple(RatFun.variable(), NM, F(-3, 4), 1 / NM, RatFun((0, 1), (1, 1)),
                       d=0, parity="free"),
    ]
    return out


def _same_vec(got, want):
    assert got.items == want.items
    assert [type(c) for _, c in got.items] == [type(c) for _, c in want.items]


def test_verma_apply_matches_the_field_reference():
    rng = random.Random("raw-apply")
    for p in _vec_params():
        one = p.q ** 0
        coefs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        vectors = [{i: one} for i in range(7)] + [{i: 1} for i in (0, 3)]
        vectors.append(dict(zip(rng.sample(range(7), 4), coefs)) | {5: p.q * one})
        vectors.append({2: NM, 4: F(-1, 3)})
        for coefs in vectors:
            v, ref = SparseVec.from_dict(coefs), RefVec(coefs)
            _same_vec(v, ref)
            for word, steps in REF_WORDS.items():
                want = ref
                for step, gen in steps:
                    want = step(gen, want, p)
                _same_vec(verma_apply(word, v, p), want)
            assert sparse_to_poly(v, p) == sum(
                (verma_basis_image(i, p).scale(c) for i, c in v.items), LaurentPoly.zero()
            )


def test_sparse_vec_operations_match_the_field_reference():
    rng = random.Random("raw-ops")
    q = RatFun.variable()
    pool = [F(1), F(-7, 3), F(5, 1 << 70), q, NM, 1 / NM, q ** -3, RatFun((0,))]
    for _ in range(40):
        da = {rng.randrange(6): rng.choice(pool) for _ in range(3)}
        db = {rng.randrange(6): rng.choice(pool) for _ in range(3)}
        a, b, ra, rb = SparseVec.from_dict(da), SparseVec.from_dict(db), RefVec(da), RefVec(db)
        _same_vec(a + b, ra + rb)
        _same_vec(a - b, ra - rb)
        for c in (0, F(-2, 9), rng.choice(pool)):
            _same_vec(a.scale(c), ra.scale(c))
        assert ((a - b) == SparseVec.zero()) == (not (ra - rb).items)
        assert a == SparseVec(ra.items) and hash(a) == hash(SparseVec(ra.items))
    # a rational vector equals its lift into Q(q), with the same hash
    v = SparseVec.from_dict({0: F(1, 2), 3: F(-3)})
    lifted = v.scale(q ** 0)
    assert lifted == v and hash(lifted) == hash(v)
    assert [type(c) for _, c in lifted.items] == [RatFun, RatFun]
    assert repr(v) == "SparseVec((1/2)*m0 + (-3)*m3)" and repr(SparseVec.zero()) == "SparseVec(0)"


@pytest.fixture
def fresh_columns():
    """An empty column table before and after the test, so that neither a
    column cached earlier nor one the test perturbs outlives it."""
    import daha.modrep

    daha.modrep._verma_columns.cache_clear()
    yield
    daha.modrep._verma_columns.cache_clear()


@pytest.mark.parametrize("gen", range(4))
def test_a_perturbed_column_fails_the_inverse_recheck(monkeypatch, fresh_columns, gen):
    import daha.modrep

    column = daha.modrep._verma_column

    def perturbed(g, j, q, k, ring):
        # the column table's pairs hold polynomial numerators
        col = column(g, j, q, k, ring)
        return {i: ([2 * x for x in n] if (g, i) == (gen, j) else n, den)
                for i, (n, den) in col.items()}

    for p in _vec_params()[::2]:
        v = SparseVec.unit(2, p.q ** 0)
        assert verma_apply(gen, verma_apply(f"t{gen}inv", v, p), p) == v
        monkeypatch.setattr(daha.modrep, "_verma_column", perturbed)
        daha.modrep._verma_columns.cache_clear()
        with pytest.raises(TranscriptionError):
            verma_apply(f"t{gen}inv", v, p)
        monkeypatch.undo()
        daha.modrep._verma_columns.cache_clear()


def test_per_params_caches_stay_small():
    """Every cache keyed by params holds at most four entries, so a
    workload that cycles through more params reuses nothing across
    them; their values are built within one check."""
    import importlib
    import inspect

    cached = {}
    for name in ("scalar", "linalg", "laurent", "params", "modrep", "analysis", "cli"):
        module = importlib.import_module(f"daha.{name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and "p" in inspect.signature(obj).parameters:
                cached[f"{name}.{attr}"] = obj.cache_info().maxsize
    assert {"modrep._laurent_params", "modrep._verma_columns"} <= set(cached)
    assert all(size is not None and size <= 4 for size in cached.values()), cached
