import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from daha.errors import ParameterError
from daha.params import (
    ParamQuadruple,
    SignTriple,
    canonical_orbit_rep,
    orbit_act,
    orbit_members,
    seq_rho,
    violations,
)
from daha.analysis import criterion_E, criterion_O
from daha.sampling import adversarial_even, adversarial_odd, sample_even, sample_odd
from daha.scalar import QQ, QQ_Q, RatFun, scalar_pow, scalar_to_str


def test_quadruple_validation():
    with pytest.raises(ParameterError):
        ParamQuadruple(2, Fraction(1, 3), 1, 1, 1, d=1, parity="even")
    with pytest.raises(ParameterError):
        ParamQuadruple(2, 1, 1, 1, 1, d=0, parity="odd")
    with pytest.raises(ParameterError):
        ParamQuadruple(1, Fraction(1, 2), 1, 1, 1, d=1, parity="even")
    with pytest.raises(ParameterError):
        ParamQuadruple(2, 0, 1, 1, 1, d=1, parity="even")
    with pytest.raises(ParameterError):
        ParamQuadruple(2, Fraction(1, 2), 1, 1, 1, d=2, parity="even")
    # free parity skips the constraint
    ParamQuadruple(2, 5, 7, 11, 13, d=0, parity="free")


def seq_phi(q, k0, k1, k2, k3, i):
    """phi written out: the reference for rho at (k0, 1/k1, k2, k3)."""
    if i % 2 == 0:
        return (1 - scalar_pow(q, i)) * (1 - k0 * k0 * scalar_pow(q, i))
    a = k0 * k3 * scalar_pow(q, i) / k1
    return (a - k2) * (a - 1 / k2)


def seq_psi(q, k0, k1, k2, k3, i):
    """psi written out: the reference for rho at (k1, k2, k3, k0)."""
    if i % 2 == 0:
        return (1 - scalar_pow(q, i)) * (1 - k1 * k1 * scalar_pow(q, i))
    a = k0 * k1 * k2 * scalar_pow(q, i)
    return (a - k3) * (a - 1 / k3)


def test_sequence_examples(p_even_d1):
    q, (k0, k1, k2, k3) = p_even_d1.q, p_even_d1.k
    assert seq_rho(q, k0, k1, k2, k3, 0) == 0
    assert seq_rho(q, k0, k1, k2, k3, 1) == Fraction(-4, 3)
    assert seq_rho(q, k0, 1 / k1, k2, k3, 2) == 0  # phi_2


def test_sequence_truncation_vanishing():
    rng = random.Random("trunc")
    for d in (1, 3, 5):
        p = sample_even(rng, d)
        assert seq_rho(p.q, *p.k, d + 1) == 0


def test_sequences_are_parameter_substitutions():
    rng = random.Random("substitute")
    q_formal = RatFun.variable()
    for _ in range(20):
        ks = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
        rational = (Fraction(rng.randint(2, 5)), *ks)
        formal = (q_formal, *(k * scalar_pow(q_formal, rng.randint(-2, 2)) for k in ks))
        for q, k0, k1, k2, k3 in (rational, formal):
            for i in range(-6, 13):
                assert seq_phi(q, k0, k1, k2, k3, i) == seq_rho(q, k0, 1 / k1, k2, k3, i)
                assert seq_psi(q, k0, k1, k2, k3, i) == seq_rho(q, k1, k2, k3, k0, i)


def test_specialized_forms_cross_checked(p_odd_d2):
    """On the odd family, k0 k1 k2 k3 = q^{-d-1} collapses the odd-index
    rho and psi to (u - 1)(u / k^2 - 1) with u = q^{i-d-1} and k = k2
    (rho) or k3 (psi)."""
    rng = random.Random("specialized")
    cases = [p_odd_d2] + [sample_odd(rng, d, field) for field in (QQ, QQ_Q) for d in (0, 2, 4)]
    for p in cases:
        q, (k0, k1, k2, k3) = p.q, p.k
        for i in range(-3, 8, 2):
            u = scalar_pow(q, i - p.d - 1)
            assert seq_rho(q, k0, k1, k2, k3, i) == (u - 1) * (u / (k2 * k2) - 1)
            assert seq_rho(q, k1, k2, k3, k0, i) == (u - 1) * (u / (k3 * k3) - 1)


# Membership in the classification parameter sets EP and OP is the
# family's irreducibility criterion.

def test_in_EP_examples(p_even_d1, p_even_d1_reducible):
    assert criterion_E(p_even_d1)
    assert not criterion_E(p_even_d1_reducible)
    assert violations(p_even_d1_reducible) == [("P0", 1), ("P1", 1), ("P2", 1), ("P3", 1)]
    with pytest.raises(ParameterError):
        criterion_E(ParamQuadruple(2, 1, 1, 1, Fraction(1, 2), d=0, parity="odd"))


def test_in_OP_examples(p_odd_d0, p_odd_d2):
    assert criterion_O(p_odd_d0)
    assert criterion_O(p_odd_d2)
    bad = ParamQuadruple(2, 1, 1, Fraction(1, 2), Fraction(1, 4), d=2, parity="odd")
    assert not criterion_O(bad)
    assert violations(bad) == [("k2^2", 2)]


def test_in_EP_orbit_invariant():
    rng = random.Random("eporbit")
    for _ in range(30):
        p = sample_even(rng, rng.choice((1, 3, 5)))
        value = criterion_E(p)
        for s in SignTriple.all():
            assert criterion_E(orbit_act(p, s)) == value


def test_violations_single_for_adversarial_and_empty_iff_criterion():
    rng = random.Random("violations")
    for d in range(1, 8):
        if d % 2:
            family, adversarial, crit = "even", adversarial_even, criterion_E
        else:
            family, adversarial, crit = "odd", adversarial_odd, criterion_O
        for _ in range(10):
            bad = adversarial(rng, d)
            assert len(violations(bad)) == 1 and not crit(bad)
            p = sample_even(rng, d) if family == "even" else sample_odd(rng, d)
            assert (violations(p) == []) == crit(p)
    free = ParamQuadruple(2, 5, 7, 11, 13, d=0, parity="free")
    with pytest.raises(ParameterError):
        violations(free)


def test_orbit_action(p_even_d1):
    assert orbit_act(p_even_d1, SignTriple((1, 1, 1))) == p_even_d1
    flipped = orbit_act(p_even_d1, SignTriple((1, -1, 1)))
    assert flipped.k2 == Fraction(1, 3)
    s = SignTriple((-1, 1, -1))
    assert orbit_act(orbit_act(p_even_d1, s), s) == p_even_d1


def test_group_laws(p_even_d1):
    """The sign flips act as the group {+1, -1}^3: flipping by a and then
    by b is flipping by their product, so each flip undoes itself."""
    triples = SignTriple.all()
    assert len(set(triples)) == 8
    for a, b in itertools.product(triples, repeat=2):
        ab = SignTriple(tuple(x * y for x, y in zip(a.signs, b.signs)))
        assert orbit_act(orbit_act(p_even_d1, a), b) == orbit_act(p_even_d1, ab)


def test_canonical_orbit_rep(p_even_d1):
    canon = canonical_orbit_rep(p_even_d1)
    assert canon.k == (Fraction(1, 2), 1, Fraction(1, 3), 1)
    # fixed point when every orbit member coincides
    allones = ParamQuadruple(2, Fraction(1, 2), 1, 1, 1, d=1, parity="even")
    assert canonical_orbit_rep(allones) == allones
    # orbit invariance
    for s in SignTriple.all():
        assert canonical_orbit_rep(orbit_act(p_even_d1, s)) == canon
    assert canonical_orbit_rep(canon) == canon


def _least_of_eight(p):
    """The rule canonical_orbit_rep states, by brute force: the orbit
    member whose (k1, k2, k3) strings are lexicographically least."""
    return min(
        orbit_members(p), key=lambda m: tuple(scalar_to_str(x) for x in (m.k1, m.k2, m.k3))
    )


def test_canonical_orbit_rep_is_the_least_of_eight_members(p_odd_d2):
    rng = random.Random("orbit-rule")
    cases = [
        sample_even(rng, d, field) for field in (QQ, QQ_Q) for d in (1, 3, 5, 7) for _ in range(12)
    ]
    # k = +1 and -1 are their own inverses, so flips tie there; one
    # sample of each backend and d
    for p in cases[::12]:
        for ks in itertools.product((1, -1, p.k2), repeat=3):
            cases.append(p.with_k(k1=ks[0], k2=ks[1], k3=ks[2]))
    # k's that are rational functions of q, on both signs of their leading terms
    q = RatFun.variable()
    pool = (q, 1 / q, -scalar_pow(q, 2), (q + 1) / (q - 1), Fraction(-2, 3) * q, 1 / (q + 2))
    base = sample_even(rng, 1, QQ_Q)
    cases += [base.with_k(k1=a, k2=b, k3=c) for a, b, c in itertools.product(pool, repeat=3)]
    for p in cases:
        assert canonical_orbit_rep(p) == _least_of_eight(p), p.to_json()
    with pytest.raises(ParameterError):
        canonical_orbit_rep(p_odd_d2)


def test_symbolic_quadruples():
    rng = random.Random("symbolic")
    p = sample_even(rng, 3, field=QQ_Q)
    assert p.k0 * p.k0 == scalar_pow(p.q, -4)
    assert criterion_E(p)  # generic q avoids every q-power coincidence
    po = sample_odd(rng, 2, field=QQ_Q)
    assert po.k0 * po.k1 * po.k2 * po.k3 == scalar_pow(po.q, -3)
    assert criterion_O(po)


def test_params_json_round_trip(p_even_d1):
    again = ParamQuadruple.from_json(p_even_d1.to_json())
    assert again == p_even_d1
    rng = random.Random("json")
    p = sample_even(rng, 3, field=QQ_Q)
    assert ParamQuadruple.from_json(p.to_json()) == p


def test_hash_is_computed_once_and_matches_the_fields():
    """ParamQuadruple keeps the hash the dataclass would compute, once
    it is first asked for: equal params hash equally on both backends,
    and repr, == and to_json see the seven fields only."""
    rng = random.Random("params-hash")
    q = RatFun.variable()
    cases = [sample_even(rng, 3), sample_odd(rng, 2, field=QQ_Q),
             sample_even(rng, 1, field=QQ_Q).with_k(k1=(1 + q) / (2 - q))]
    for p in cases:
        again = ParamQuadruple.from_json(p.to_json())
        assert "_hash" not in vars(again)
        assert hash(again) == hash((p.q, *p.k, p.d, p.parity)) == vars(again)["_hash"]
        assert again == p and hash(again) == hash(p)
        assert [f.name for f in dataclasses.fields(p)] == ["q", "k0", "k1", "k2", "k3", "d", "parity"]
        assert repr(p) == (f"ParamQuadruple(q={p.q!r}, k0={p.k0!r}, k1={p.k1!r}, k2={p.k2!r}, "
                           f"k3={p.k3!r}, d={p.d}, parity={p.parity!r})")
    # a rational quadruple equals its lift into Q(q) and hashes the same
    rational = ParamQuadruple(2, Fraction(1, 2), 1, 3, 1, d=1, parity="even")
    lifted = ParamQuadruple(RatFun((2,)), Fraction(1, 2), 1, 3, 1, d=1, parity="even")
    assert all(isinstance(x, RatFun) for x in (lifted.q, *lifted.k))
    assert lifted == rational and hash(lifted) == hash(rational)
    assert lifted.to_json() != rational.to_json()
    assert rational.to_json() == {"q": "2", "k": ["1/2", "1", "3", "1"], "d": 1, "parity": "even"}
    assert rational != rational.with_k(k2=5) and len({rational, lifted, rational.with_k(k2=5)}) == 2
