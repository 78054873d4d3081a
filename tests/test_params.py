import random
from fractions import Fraction

import pytest

from daha.errors import ParameterError
from daha.params import (
    ParamQuadruple,
    SignTriple,
    TwistElement,
    canonical_orbit_rep,
    eval_sequence,
    orbit_act,
    seq_phi,
    seq_psi,
    seq_rho,
    violations,
)
from daha.analysis import criterion_E, criterion_O
from daha.sampling import adversarial_even, adversarial_odd, sample_even, sample_odd
from daha.scalar import QQ_Q, scalar_pow


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


def test_sequence_examples(p_even_d1):
    assert eval_sequence("rho", p_even_d1, 0) == 0
    assert eval_sequence("rho", p_even_d1, 1) == Fraction(-4, 3)
    assert eval_sequence("phi", p_even_d1, 2) == 0


def test_sequence_truncation_vanishing():
    rng = random.Random("trunc")
    for d in (1, 3, 5):
        p = sample_even(rng, d)
        assert eval_sequence("rho", p, d + 1) == 0


def test_sequences_are_parameter_substitutions():
    rng = random.Random("substitute")
    for _ in range(20):
        q = Fraction(rng.randint(2, 5))
        ks = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
        i = rng.randint(-6, 6)
        k0, k1, k2, k3 = ks
        assert seq_phi(q, k0, k1, k2, k3, i) == seq_rho(q, k0, 1 / k1, k2, k3, i)
        assert seq_psi(q, k0, k1, k2, k3, i) == seq_rho(q, k1, k2, k3, k0, i)


def test_specialized_forms_cross_checked(p_odd_d2):
    # eval_sequence recomputes the collapsed odd-family forms internally
    for i in range(-3, 8):
        eval_sequence("rho", p_odd_d2, i)
        eval_sequence("psi", p_odd_d2, i)


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
    assert orbit_act(p_even_d1, SignTriple.identity()) == p_even_d1
    flipped = orbit_act(p_even_d1, SignTriple((1, -1, 1)))
    assert flipped.k2 == Fraction(1, 3)
    s = SignTriple((-1, 1, -1))
    assert orbit_act(orbit_act(p_even_d1, s), s) == p_even_d1


def test_group_laws():
    triples = SignTriple.all()
    assert len(triples) == 8
    e = SignTriple.identity()
    for a in triples:
        assert a * e == a
        assert a * a == e
        for b in triples:
            assert a * b == b * a
            for c in triples:
                assert (a * b) * c == a * (b * c)
    twists = TwistElement.all()
    assert len(twists) == 4
    for a in twists:
        assert (a + (-a)).value == 0
        for b in twists:
            for c in twists:
                assert ((a + b) + c).value == (a + (b + c)).value


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
