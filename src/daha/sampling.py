"""Seeded random parameter grids.

Free k-coordinates are drawn from a fixed pool of small-height
rationals (numerator and denominator up to 16, both signs) and the
constrained coordinate is then repaired exactly: k0 = +-q^{-(d+1)/2}
for the even family, k3 = q^{-d-1}/(k0*k1*k2) for the odd family.
Adversarial samples start from a valid quadruple and force exactly one
atomic irreducibility condition to fail.

Every function takes an explicit random.Random so that a seed fully
determines the grid.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DahaError
from .params import PARITY_EVEN, PARITY_ODD, ParamQuadruple, violations
from .scalar import QQ, scalar_pow

_POOL_HEIGHT = 16


def rational_pool():
    """Nonzero rationals +-p/r with 1 <= p, r <= 16, deduplicated."""
    seen = set()
    pool = []
    for p in range(1, _POOL_HEIGHT + 1):
        for r in range(1, _POOL_HEIGHT + 1):
            for sign in (1, -1):
                x = Fraction(sign * p, r)
                if x not in seen:
                    seen.add(x)
                    pool.append(x)
    pool.sort()
    return pool


_POOL = tuple(rational_pool())


def sample_even(rng: random.Random, d: int, field=QQ, q=None) -> ParamQuadruple:
    """A valid even-family quadruple: k0 = +-q^{-(d+1)/2}, rest from the pool."""
    if q is None:
        q = field.default_q()
    k0 = rng.choice((1, -1)) * scalar_pow(q, -(d + 1) // 2)
    k1, k2, k3 = (rng.choice(_POOL) for _ in range(3))
    return ParamQuadruple(q, k0, k1, k2, k3, d=d, parity=PARITY_EVEN)


def sample_odd(rng: random.Random, d: int, field=QQ, q=None) -> ParamQuadruple:
    """A valid odd-family quadruple: k0,k1,k2 from the pool, k3 repaired."""
    if q is None:
        q = field.default_q()
    k0, k1, k2 = (rng.choice(_POOL) for _ in range(3))
    k3 = scalar_pow(q, -d - 1) / (k0 * k1 * k2)
    return ParamQuadruple(q, k0, k1, k2, k3, d=d, parity=PARITY_ODD)


def sample_params(rng: random.Random, parity: str, d: int, field=QQ, q=None) -> ParamQuadruple:
    if parity == PARITY_EVEN:
        return sample_even(rng, d, field, q)
    if parity == PARITY_ODD:
        return sample_odd(rng, d, field, q)
    raise DahaError(f"cannot sample parity {parity!r}")


# ---------------------------------------------------------------------------
# adversarial samples: break exactly one irreducibility condition
# ---------------------------------------------------------------------------

def adversarial_even(rng: random.Random, d: int, q=None) -> ParamQuadruple:
    """An even-family quadruple violating exactly one atomic condition
    (one parameter product equal to one forbidden power q^{-i})."""
    if q is None:
        q = QQ.default_q()
    for _ in range(1000):
        k0 = rng.choice((1, -1)) * scalar_pow(q, -(d + 1) // 2)
        k1, k2 = rng.choice(_POOL), rng.choice(_POOL)
        i = rng.choice(range(1, d + 1, 2))
        which = rng.randrange(4)
        qi = scalar_pow(q, -i)
        if which == 0:
            k3 = qi / (k0 * k1 * k2)
        elif which == 1:
            k3 = qi * k1 / (k0 * k2)
        elif which == 2:
            k3 = qi * k2 / (k0 * k1)
        else:
            k3 = k0 * k1 * k2 / qi
        p = ParamQuadruple(q, k0, k1, k2, k3, d=d, parity=PARITY_EVEN)
        if len(violations(p)) == 1:
            return p
    raise DahaError("could not build a single-violation even sample")


def adversarial_odd(rng: random.Random, d: int, q=None) -> ParamQuadruple:
    """An odd-family quadruple violating exactly one atomic condition
    (one squared parameter equal to one forbidden power q^{-i})."""
    if d < 2:
        raise DahaError("the odd criterion is vacuous below d = 2")
    if q is None:
        q = QQ.default_q()
    for _ in range(1000):
        i = rng.choice(range(2, d + 1, 2))
        j = rng.randrange(3)
        ks = [rng.choice(_POOL) for _ in range(3)]
        ks[j] = rng.choice((1, -1)) * scalar_pow(q, -i // 2)
        k3 = scalar_pow(q, -d - 1) / (ks[0] * ks[1] * ks[2])
        p = ParamQuadruple(q, ks[0], ks[1], ks[2], k3, d=d, parity=PARITY_ODD)
        if len(violations(p)) == 1:
            return p
    raise DahaError("could not build a single-violation odd sample")


def sample_free(rng: random.Random, field=QQ, q=None) -> ParamQuadruple:
    """Arbitrary nonzero parameters with no parity constraint, for the
    universal ladder module."""
    if q is None:
        q = field.default_q()
    ks = [rng.choice(_POOL) for _ in range(4)]
    return ParamQuadruple(q, *ks, d=0, parity="free")
