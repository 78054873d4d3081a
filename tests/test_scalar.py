import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha.scalar import (
    QQ,
    QQ_Q,
    RatFun,
    _padd,
    _pexquo,
    _pgcd,
    _pmul,
    as_scalars,
    scalar_from_str,
    scalar_pow,
    scalar_sqrt,
    scalar_to_str,
    validate_q,
)

Q = RatFun.variable()


def rand_fraction(rng, allow_zero=False):
    while True:
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if allow_zero or x:
            return x


def rand_ratfun(rng, deg=3, allow_zero=False):
    while True:
        num = [rand_fraction(rng, allow_zero=True) for _ in range(rng.randint(1, deg + 1))]
        den = [rand_fraction(rng, allow_zero=True) for _ in range(rng.randint(1, deg + 1))]
        if not any(den):
            continue
        x = RatFun(num, den)
        if allow_zero or x:
            return x


def eval_at(f: RatFun, x) -> Fraction:
    """f at the rational point x, from its monic num/den views; a
    vanishing denominator raises ZeroDivisionError."""
    def horner(cs):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return horner(f.num) / horner(f.den)


def test_scalar_pow_examples():
    assert scalar_pow(2, -3) == Fraction(1, 8)
    assert scalar_pow(Q, 2) == Q * Q
    assert scalar_pow(Fraction(3, 2), 0) == 1
    with pytest.raises(ZeroDivisionError):
        scalar_pow(Fraction(0), -1)
    with pytest.raises(ZeroDivisionError):
        scalar_pow(RatFun(()), -2)


def test_validate_q():
    assert validate_q(2)
    assert validate_q(Fraction(-3, 7))
    assert not validate_q(-1)
    assert not validate_q(1)
    assert not validate_q(0)
    assert validate_q(Q)
    assert validate_q(Q ** -5)
    assert validate_q(RatFun((2,)))
    assert not validate_q(RatFun((-1,)))


@pytest.mark.parametrize("backend", ["rational", "ratfun"])
def test_field_axioms(backend):
    rng = random.Random(f"axioms:{backend}")
    make = rand_fraction if backend == "rational" else rand_ratfun
    for _ in range(40):
        a = make(rng, allow_zero=True)
        b = make(rng, allow_zero=True)
        c = make(rng, allow_zero=True)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0 * a
        if b:
            assert b * (1 / b) == b ** 0


def test_ratfun_canonical_form():
    # common factor cancels, denominator comes out monic
    f = RatFun([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)])
    assert f == Q + 1
    g = RatFun([Fraction(2)], [Fraction(4), Fraction(2)])
    assert g.den[-1] == 1
    # normalizing an already-normalized value is the identity
    assert RatFun(f.num, f.den) == f
    assert RatFun(()) == 0
    with pytest.raises(ZeroDivisionError):
        RatFun([Fraction(1)], ())


def test_ratfun_eval_homomorphism():
    rng = random.Random("evalhom")
    for _ in range(25):
        f = rand_ratfun(rng, allow_zero=True)
        g = rand_ratfun(rng, allow_zero=True)
        for _ in range(20):
            point = rand_fraction(rng, allow_zero=True)
            try:
                lhs_f, lhs_g = eval_at(f, point), eval_at(g, point)
                prod = eval_at(f * g, point)
                tot = eval_at(f + g, point)
            except ZeroDivisionError:
                continue
            assert prod == lhs_f * lhs_g
            assert tot == lhs_f + lhs_g
            break


def test_serialization_round_trip():
    assert scalar_to_str(Fraction(3, 2)) == "3/2"
    assert scalar_to_str(Fraction(-7)) == "-7"
    assert scalar_from_str("3/2") == Fraction(3, 2)
    assert scalar_to_str(Q * Q) == "0,0,1 | 1"
    assert scalar_from_str("0,0,1 | 1") == Q * Q
    f = (3 * Q ** 2 - Fraction(1, 2)) / (Q ** 3 + 7)
    assert scalar_from_str(scalar_to_str(f)) == f
    assert scalar_from_str(scalar_to_str(RatFun(()))) == RatFun(())


def test_scalar_sqrt():
    assert scalar_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert scalar_sqrt(Fraction(2)) is None
    assert scalar_sqrt(Fraction(-4)) is None
    f = (Q + 1) / Q ** 2
    assert scalar_sqrt(f * f) == f
    assert scalar_sqrt(Q) is None
    # root is recovered up to overall sign conventions of the canonical form
    g = (2 - Q) * (2 - Q)
    got = scalar_sqrt(g)
    assert got is not None and got * got == g


def test_field_descriptors():
    assert QQ.default_q() == 2
    assert QQ_Q.default_q() == Q


def test_eval_at_identity_on_rationals():
    assert eval_at(RatFun((Fraction(5, 3),)), 2) == Fraction(5, 3)
    assert eval_at(Q ** 2 + 1, Fraction(3)) == 10
    assert eval_at(1 / (Q - 2) + Q, Fraction(5, 2)) == Fraction(9, 2)


def test_ratfun_integer_canonical_form():
    """Coprime integer numerator and denominator, joint content 1,
    positive leading denominator coefficient; scaling both parts by any
    nonzero rational gives the same stored tuples."""
    rng = random.Random("int-canonical")
    for _ in range(200):
        f = rand_ratfun(rng, allow_zero=True)
        n, d = f._n, f._d
        assert all(type(c) is int for c in n + d)
        assert d and d[-1] > 0 and math.gcd(*n, *d) == 1
        c = rand_fraction(rng)
        g = RatFun([x * c for x in f.num], [x * c for x in f.den])
        assert (g._n, g._d) == (n, d)


def test_scalar_from_str_zero_denominator():
    for text in ("1/0", "1 | 0", "1 | 0,0", "1,2 | 1/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            scalar_from_str(text)


def test_ratfun_matches_sympy_cancel():
    """Canonical num/den against sympy.cancel on seeded random rational
    functions, with shared factors and sums over equal denominators."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random("sympy-cancel")

    def rand_poly():
        while True:
            cs = [rand_fraction(rng, allow_zero=True) for _ in range(rng.randint(1, 4))]
            if any(cs):
                return sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(cs))

    def coeffs(expr):
        return tuple(Fraction(str(c)) for c in reversed(sympy.Poly(expr, x).all_coeffs()))

    def canonical(expr):
        num, den = sympy.fraction(sympy.cancel(expr))
        lead = sympy.Poly(den, x).LC()
        num, den = sympy.expand(num / lead), sympy.expand(den / lead)
        return (coeffs(num) if num != 0 else ()), coeffs(den)

    for case in range(120):
        a, b, shared = rand_poly(), rand_poly(), rand_poly()
        if case % 2:
            f = RatFun(coeffs(sympy.expand(a * shared)), coeffs(sympy.expand(b * shared)))
            expr = a * shared / (b * shared)
        else:
            c = rand_poly()
            f = RatFun(coeffs(a), coeffs(b)) + RatFun(coeffs(c), coeffs(b))
            expr = (a + c) / b
        assert (f.num, f.den) == canonical(expr), (f, expr)


# The canonical form as an earlier RatFun computed it, apart from
# _canonical_polys: gcd and content per value, cross-cancelled
# products, and sums that take a gcd only over a shared denominator
# factor.  Kept as the reference for the values and bytes RatFun gives.
def _ref_content_free(num, den):
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    return tuple(c // g for c in num), tuple(c // g for c in den)


def _ref_reduce(num, den):
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    return _ref_content_free(_pexquo(num, g), _pexquo(den, g))


def _ref_canonical(num, den):
    return _ref_content_free(num, den) if num else ((), (1,))


def _ref_new(num, den):
    scale = math.lcm(*(c.denominator for c in num), *(c.denominator for c in den))
    num = [c.numerator * (scale // c.denominator) for c in num]
    den = [c.numerator * (scale // c.denominator) for c in den]
    while num and not num[-1]:
        num.pop()
    while not den[-1]:
        den.pop()
    return _ref_reduce(num, den)


def _ref_mul(a, b, c, d):
    if not a or not c:
        return (), (1,)
    if len(a) > 1 and len(d) > 1:
        g = _pgcd(a, d)
        if len(g) > 1:
            a, d = _pexquo(a, g), _pexquo(d, g)
    if len(c) > 1 and len(b) > 1:
        g = _pgcd(c, b)
        if len(g) > 1:
            c, b = _pexquo(c, g), _pexquo(b, g)
    return _ref_canonical(_pmul(a, c), _pmul(b, d))


def _ref_add(a, b, c, d):
    if not c:
        return a, b
    if not a:
        return c, d
    if b == d:
        return (_ref_canonical if len(b) == 1 else _ref_reduce)(_padd(a, c), b)
    if len(b) > 1 and len(d) > 1:
        g = _pgcd(b, d)
        if len(g) > 1:
            b1 = _pexquo(b, g)
            return _ref_reduce(_padd(_pmul(a, _pexquo(d, g)), _pmul(c, b1)), _pmul(b1, d))
    return _ref_canonical(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))


def test_ratfun_arithmetic_matches_the_reference_canonical_form():
    """RatFun(num, den) and + - * / give the reference's tuples on a
    seeded grid of values with non-monomial and monomial denominators,
    shared factors, zero, constants and negative leading coefficients."""
    rng = random.Random("canonical-reference")
    F = Fraction
    polys = [(F(1), F(1)), (F(2), F(-1)), (F(0), F(0), F(-3)), (F(-1), F(0), F(1)),
             (F(1, 2), F(0), F(-2, 3)), (F(5),), (F(-7, 4),), (F(0), F(3), F(3))]
    raw = [((), (F(1),)), ((F(1), F(1)), (F(2), F(-1)))]  # zero and (1+q)/(2-q)
    for _ in range(60):
        num, den, shared = (rng.choice(polys) for _ in range(3))
        if rng.random() < 0.5:
            num = tuple(_pmul(num, shared))
            den = tuple(_pmul(den, shared))
        raw.append((num, den))
    values = []
    for num, den in raw:
        x = RatFun(num, den)
        assert (x._n, x._d) == _ref_new(num, den), (num, den)
        values.append(x)
    values += [RatFun((F(3, 5),)), Q ** -2 * F(-2, 7)]
    for x in values:
        for y in rng.sample(values, 12):
            assert ((x + y)._n, (x + y)._d) == _ref_add(x._n, x._d, y._n, y._d)
            neg = tuple(-c for c in y._n)
            assert ((x - y)._n, (x - y)._d) == _ref_add(x._n, x._d, neg, y._d)
            assert ((x * y)._n, (x * y)._d) == _ref_mul(x._n, x._d, y._n, y._d)
            if y:
                num, den = (y._d, y._n) if y._n[-1] > 0 else (tuple(-c for c in y._d), neg)
                assert ((x / y)._n, (x / y)._d) == _ref_mul(x._n, x._d, num, den)
                assert str(x / y) == str(x * y ** -1)


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@st.composite
def ratfuns(draw):
    num = draw(st.lists(fractions, max_size=4))
    den = draw(st.lists(fractions, max_size=4))
    return RatFun(num, den if any(den) else den + [Fraction(1)])


@settings(max_examples=150, deadline=None)
@given(ratfuns(), ratfuns(), ratfuns())
def test_ratfun_field_axioms_property(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a and a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a
    if b:
        assert (a / b) * b == a
        assert b * b ** -1 == 1


@settings(max_examples=150, deadline=None)
@given(ratfuns())
def test_ratfun_string_round_trip_property(x):
    assert scalar_from_str(scalar_to_str(x)) == x


@given(fractions)
def test_ratfun_from_fraction_property(x):
    f = RatFun((x,))
    assert f == x and x == f
    assert hash(f) == hash(x)
    assert f.as_fraction() == x


@given(st.lists(fractions | st.integers(-50, 50), min_size=1, max_size=5))
def test_as_scalars_lifts_a_group_with_a_ratfun(xs):
    """A group of rationals stays rational; with a RatFun beside it, each
    rational is lifted into the canonical form of RatFun((x,))."""
    assert as_scalars(xs) == tuple(map(Fraction, xs))
    assert all(type(x) is Fraction for x in as_scalars(xs))
    lifted = as_scalars([*xs, Q])
    assert lifted[-1] is Q
    for x, f in zip(xs, lifted):
        want = RatFun((Fraction(x),))
        assert type(f) is RatFun and (f._n, f._d) == (want._n, want._d)
