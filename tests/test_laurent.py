"""The Laurent realization against a field-arithmetic reference.

``RefLaurent`` and the ``ref_*`` functions below carry every
coefficient as a Fraction or RatFun and normalise it after each
operation.  The package holds the same polynomials as int polynomials in
q over one denominator; on every input both must give the same
coefficients, in the same field.
"""

import functools
import random
from fractions import Fraction

import pytest

from daha.errors import DahaError, TranscriptionError
from daha.modrep import (
    LaurentPoly,
    SparseVec,
    poly_apply,
    sparse_to_poly,
    verma_apply,
    verma_basis_image,
)
from daha.params import ParamQuadruple
from daha.sampling import sample_even, sample_free, sample_odd
from daha.scalar import QQ_Q, RatFun, as_scalar, scalar_pow

F = Fraction


class RefLaurent:
    """Sorted (exponent, coefficient) pairs with distinct exponents and
    nonzero field coefficients."""

    def __init__(self, terms=()):
        acc = {}
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            c = as_scalar(c)
            if c:
                e = int(e)
                acc[e] = acc[e] + c if e in acc else c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c))

    def __add__(self, other):
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc[e] + c if e in acc else c
        return RefLaurent(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return RefLaurent(())
        return RefLaurent(tuple((e, x * c) for e, x in self.terms))

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e, c = e1 + e2, c1 * c2
                acc[e] = acc[e] + c if e in acc else c
        return RefLaurent(acc)

    def substitute_inverse(self):
        return RefLaurent(tuple((-e, c) for e, c in self.terms))

    def substitute_q2_inverse(self, q):
        return RefLaurent(tuple((-e, c * scalar_pow(q, 2 * e)) for e, c in self.terms))

    def exact_div(self, other):
        if not self.terms:
            return RefLaurent(())
        n_shift, d_shift = self.terms[0][0], other.terms[0][0]
        zero = self.terms[0][1] * 0
        nn = [zero] * (self.terms[-1][0] - n_shift + 1)
        for e, c in self.terms:
            nn[e - n_shift] = c
        dd = [zero] * (other.terms[-1][0] - d_shift + 1)
        for e, c in other.terms:
            dd[e - d_shift] = c
        quot = [zero] * max(len(nn) - len(dd) + 1, 1)
        while nn and len(nn) >= len(dd):
            k = len(nn) - len(dd)
            c = nn[-1] / dd[-1]
            quot[k] = c
            for i in range(len(dd)):
                nn[k + i] = nn[k + i] - c * dd[i]
            nn.pop()
            while nn and not nn[-1]:
                nn.pop()
        if any(nn):
            raise TranscriptionError("non-cancelling Laurent division")
        return RefLaurent(tuple((i + n_shift - d_shift, c) for i, c in enumerate(quot) if c))


def ref_poly_apply(gen, f, p):
    q, (k0, k1, k2, k3) = p.q, p.k
    one = q ** 0
    c0, c1 = k0 + 1 / k0, k1 + 1 / k1
    c2, c3 = k2 + 1 / k2, k3 + 1 / k3
    if gen == 0:
        g = f.substitute_q2_inverse(q)
        bracket = RefLaurent(((0, c0), (-1, -c1 * q)))
        den = RefLaurent(((0, one), (-2, -q * q)))
        return g.scale(k0) + (bracket * (f - g)).exact_div(den)
    if gen == 1:
        g = f.substitute_q2_inverse(q)
        a = RefLaurent(((0, c1), (-1, -c0 * q)))
        b = RefLaurent(((-2, -q * q * c1), (-3, k0 * q ** 3), (-1, q / k0)))
        den = RefLaurent(((0, one), (-2, -q * q)))
        return (a * f + b * g).exact_div(den)
    if gen == 2:
        g = f.substitute_inverse()
        a = RefLaurent(((0, c2), (1, -c3)))
        b = RefLaurent(((1, k3), (-1, 1 / k3), (0, -c2)))
        den = RefLaurent(((0, one), (2, -one)))
        return (a * f + b * g).exact_div(den)
    g = f.substitute_inverse()
    bracket = RefLaurent(((0, c3), (1, -c2)))
    den = RefLaurent(((0, one), (2, -one)))
    return g.scale(k3) + (bracket * (f - g)).exact_div(den)


@functools.cache
def ref_verma_basis_image(i, p):
    q, k0, k1 = p.q, p.k0, p.k1
    one = q ** 0
    out = RefLaurent(((0, one),))
    for h in range(i):
        coef = k0 * k1 * scalar_pow(q, 2 * ((h + 1) // 2)) * scalar_pow(q, (-1) ** h)
        z_exp = (-1) ** (h - 1)
        out = out * RefLaurent(((0, one), (z_exp, -coef)))
    return out


def ref_sparse_to_poly(v, p):
    out = RefLaurent(())
    for i, c in v.items:
        out = out + ref_verma_basis_image(i, p).scale(c)
    return out


def _same(new, ref):
    """Equal coefficients, and each in the same field."""
    assert new.terms == ref.terms
    assert [type(c) for _, c in new.terms] == [type(c) for _, c in ref.terms]


def _grid():
    """(id, params) pairs: each family at rational q, formal q, k's with
    non-monomial numerators and denominators, and a q that is neither
    the variable nor a rational."""
    rng = random.Random("laurent-grid")
    out = []
    for q in (F(2), F(3, 2), F(-5, 3)):
        out += [
            (f"even-q={q}", sample_even(rng, 3, q=q)),
            (f"odd-q={q}", sample_odd(rng, 2, q=q)),
            (f"free-q={q}", sample_free(rng, q=q)),
        ]
    out += [
        ("even-formal", sample_even(rng, 3, field=QQ_Q)),
        ("odd-formal", sample_odd(rng, 4, field=QQ_Q)),
    ]
    k1 = RatFun((2, 1), (-1, 3))
    k2 = RatFun((1, 0, 5), (7, 1))
    q = RatFun.variable()
    out += [
        ("even-formal-ratfun-k", sample_even(rng, 1, field=QQ_Q).with_k(k1=k1, k2=k2)),
        ("free-formal-ratfun-k",
         ParamQuadruple(q, k2, F(-3, 4), k1, RatFun((0, 1), (1, 1)), d=0, parity="free")),
        ("free-q=(1+2q)/3",
         ParamQuadruple(RatFun((1, 2), (3,)), F(2), F(-5, 3), F(5, 7), 1, d=0, parity="free")),
    ]
    return [pytest.param(p, id=name) for name, p in out]


@pytest.mark.parametrize("p", _grid())
def test_laurent_realization_matches_the_field_reference(p):
    one = p.q ** 0
    for i in range(11):
        ref_image = ref_verma_basis_image(i, p)
        image = verma_basis_image(i, p)
        _same(image, ref_image)
        mi = SparseVec.unit(i, one)
        for gen in range(4):
            left = poly_apply(gen, image, p)
            _same(left, ref_poly_apply(gen, ref_image, p))
            w = verma_apply(gen, mi, p)
            right = sparse_to_poly(w, p)
            _same(right, ref_sparse_to_poly(w, p))
            assert left == right


@pytest.mark.parametrize("p", _grid()[::3])
def test_poly_apply_matches_the_reference_off_the_images(p):
    """Random polynomials the ladder never produces: each generator's
    divided difference still divides exactly, as in the reference."""
    rng = random.Random("laurent-random")
    pool = [F(0), F(1), F(-2), F(3, 5), p.q]
    if isinstance(p.q, RatFun):
        pool = [RatFun((0,)), RatFun((1, -1), (2, 0, 1)), *(p.q * x for x in pool)]
    for _ in range(6):
        terms = {rng.randint(-4, 4): rng.choice(pool) for _ in range(4)}
        f, ref = LaurentPoly(terms), RefLaurent(terms)
        _same(f, ref)
        for gen in range(4):
            _same(poly_apply(gen, f, p), ref_poly_apply(gen, ref, p))


def test_laurent_ring_operations_match_the_reference():
    rng = random.Random("laurent-ring")
    q = RatFun.variable()
    pool = [RatFun((x,)) for x in (1, F(-7, 3), 5)] + [q, RatFun((2, 1), (-1, 3))]
    for _ in range(30):
        ta = {rng.randint(-3, 3): rng.choice(pool) for _ in range(3)}
        tb = {rng.randint(-3, 3): rng.choice(pool) for _ in range(3)}
        a, b = LaurentPoly(ta), LaurentPoly(tb)
        ra, rb = RefLaurent(ta), RefLaurent(tb)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(a * b, ra * rb)
        c = rng.choice(pool)
        _same(a.scale(c), ra.scale(c))
        if b.terms:
            _same((a * b).exact_div(b), ra)


def test_equal_values_have_one_form():
    q = RatFun.variable()
    half = LaurentPoly({0: F(1, 2), 3: F(-3, 4)})
    assert half == LaurentPoly({3: F(-6, 8), 0: F(2, 4)})
    assert half == LaurentPoly({0: 1, 3: F(-3, 2)}).scale(F(1, 2))
    assert hash(half) == hash(LaurentPoly({0: F(1, 2)}) + LaurentPoly({3: F(-3, 4)}))
    # over Q(q), a common factor of numerators and denominator cancels
    r = RatFun((1, 1), (0, 0, 2))
    f = LaurentPoly({-1: r, 2: r * q})
    assert f == LaurentPoly({-1: 1, 2: q}).scale(r)
    assert f.scale(1 / r) == LaurentPoly({-1: 1, 2: q})
    assert not (f - f).terms and (f - f) == LaurentPoly.zero()


def test_pseudo_division_by_a_non_monic_divisor():
    q = RatFun.variable()
    b = LaurentPoly({0: q + 1, 2: RatFun((3, 1), (1, 0, 2))})
    a = LaurentPoly({-1: F(2, 3), 1: q})
    assert (a * b).exact_div(b) == a
    with pytest.raises(TranscriptionError):
        (a * b + LaurentPoly({5: 1})).exact_div(b)
    with pytest.raises(DahaError):
        a.exact_div(LaurentPoly.zero())


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", True])
def test_laurent_exponent_must_be_an_int(bad):
    with pytest.raises(DahaError):
        LaurentPoly({bad: 1})


@pytest.mark.parametrize("p", _grid()[::2])
def test_basis_images_are_kept_per_params_and_extended_on_demand(p):
    """The raw images live in the params' cache entry: a call for a
    lower index reuses them, a call for a higher one extends the same
    list, and every image still matches the reference whatever order
    the indices come in."""
    from daha.modrep import _basis_images, _laurent_params

    _laurent_params.cache_clear()
    images = _basis_images(3, p)
    assert len(images) == 4
    assert _basis_images(1, p) is images and len(images) == 4
    assert _basis_images(7, p) is images and len(images) == 8
    for i in (5, 0, 7, 2, 9):
        _same(verma_basis_image(i, p), ref_verma_basis_image(i, p))
    assert len(images) == 10
    v = SparseVec.from_dict({1: p.q, 4: F(-2, 3)})
    _same(sparse_to_poly(v, p), ref_sparse_to_poly(v, p))
    assert len(images) == 10
