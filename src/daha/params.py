"""Parameter quadruples and everything derived from parameters alone.

A quadruple (q, k0, k1, k2, k3) together with a target dimension d+1
determines one module of each family.  The even-dimensional family
requires d odd with k0**2 = q**(-d-1); the odd-dimensional family
requires d even with k0*k1*k2*k3 = q**(-d-1).  The universal ladder
module exists for arbitrary nonzero parameters, which is what parity
"free" is for.

This module also houses the central character and determinant
fingerprint that each family's module carries, the scalar coefficient
sequence that drives every ladder computation, the atomic
irreducibility conditions that cut out the classification parameter
sets, and the sign-flip action on k1, k2, k3 with its canonical orbit
representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, ParameterError
from .scalar import (
    as_scalars,
    json_field,
    scalar_from_json,
    scalar_pow,
    scalar_to_str,
    validate_q,
)

PARITY_EVEN = "even"  # module dimension d+1 even, d odd
PARITY_ODD = "odd"    # module dimension d+1 odd, d even
PARITY_FREE = "free"  # no constraint; only the universal module applies


@dataclass(frozen=True)
class ParamQuadruple:
    """Validated parameters (q, k0, k1, k2, k3, d, parity).

    The five scalars share one field (:func:`~daha.scalar.as_scalars`).
    Construction eagerly checks the parity constraint tying k0 (even
    family) or the product of all four k's (odd family) to q**(-d-1);
    every downstream formula silently assumes it.
    """

    q: object
    k0: object
    k1: object
    k2: object
    k3: object
    d: int
    parity: str

    def __post_init__(self):
        for name, value in zip(("q", "k0", "k1", "k2", "k3"), as_scalars((self.q, *self.k))):
            object.__setattr__(self, name, value)
        if not validate_q(self.q):
            raise ParameterError(f"q = {scalar_to_str(self.q)} is zero or a root of unity")
        for name in ("k0", "k1", "k2", "k3"):
            if not getattr(self, name):
                raise ParameterError(f"{name} must be nonzero")
        if self.parity == PARITY_EVEN:
            if self.d < 1 or self.d % 2 == 0:
                raise ParameterError(f"even family needs odd d >= 1, got d = {self.d}")
            if self.k0 * self.k0 != scalar_pow(self.q, -self.d - 1):
                raise ParameterError("k0^2 != q^{-d-1}")
        elif self.parity == PARITY_ODD:
            if self.d < 0 or self.d % 2:
                raise ParameterError(f"odd family needs even d >= 0, got d = {self.d}")
            if self.k0 * self.k1 * self.k2 * self.k3 != scalar_pow(self.q, -self.d - 1):
                raise ParameterError("k0*k1*k2*k3 != q^{-d-1}")
        elif self.parity != PARITY_FREE:
            raise ParameterError(f"unknown parity {self.parity!r}")

    def __hash__(self):
        """The hash the dataclass would compute, computed once on first
        use: a constant RatFun hashes through Fraction, and the
        per-params caches of :mod:`daha.modrep` look params up often."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.q, *self.k, self.d, self.parity))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def k(self) -> tuple:
        return (self.k0, self.k1, self.k2, self.k3)

    def with_k(self, k0=None, k1=None, k2=None, k3=None) -> "ParamQuadruple":
        ks = [k0, k1, k2, k3]
        new = [old if repl is None else repl for old, repl in zip(self.k, ks)]
        return ParamQuadruple(self.q, *new, d=self.d, parity=self.parity)

    def to_json(self) -> dict:
        return {
            "q": scalar_to_str(self.q),
            "k": [scalar_to_str(x) for x in self.k],
            "d": self.d,
            "parity": self.parity,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ParamQuadruple":
        ks = json_field(data, "k", list)
        if len(ks) != 4:
            raise InputError(f"params need four k values, got {len(ks)}")
        return cls(
            scalar_from_json(json_field(data, "q", str)),
            *(scalar_from_json(k) for k in ks),
            d=json_field(data, "d", int),
            parity=json_field(data, "parity", str),
        )


def family_invariants(p: ParamQuadruple):
    """The central character and the determinant fingerprint of the
    family's module at p: (k_i + 1/k_i), and (q^{-d-1}, 1, 1, 1) for the
    even family or (k0, k1, k2, k3) for the odd one."""
    character = tuple(k + 1 / k for k in p.k)
    if p.parity == PARITY_EVEN:
        one = p.q ** 0
        return character, (scalar_pow(p.q, -p.d - 1), one, one, one)
    return character, p.k


@dataclass(frozen=True)
class SignTriple:
    """An element of {+1, -1}^3 acting on (k1, k2, k3) by inversion."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(self.signs)
        if len(signs) != 3 or any(s not in (1, -1) for s in signs):
            raise ParameterError(f"not a sign triple: {signs!r}")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def all(cls):
        return tuple(cls(s) for s in itertools.product((1, -1), repeat=3))


# ---------------------------------------------------------------------------
# coefficient sequences
#
# One two-case formula indexed by any integer i: the even-index case is
# a q-Pochhammer-style factor pair, the odd-index case pairs a product
# of three parameters against k2 and its inverse.  The other sequences
# of the ladder computations are this one at substituted parameters:
# phi(k0, k1, k2, k3) = rho(k0, 1/k1, k2, k3) and
# psi(k0, k1, k2, k3) = rho(k1, k2, k3, k0).
# ---------------------------------------------------------------------------

def seq_rho(q, k0, k1, k2, k3, i: int):
    if i % 2 == 0:
        return (1 - scalar_pow(q, i)) * (1 - k0 * k0 * scalar_pow(q, i))
    a = k0 * k1 * k3 * scalar_pow(q, i)
    return (a - k2) * (a - 1 / k2)


# ---------------------------------------------------------------------------
# classification parameter sets and orbits
# ---------------------------------------------------------------------------

def violations(p: ParamQuadruple) -> list:
    """The atomic irreducibility conditions that p fails, as (name, i)
    pairs; the family's irreducibility criterion holds iff there are none.

    Even family: for each odd i in 1..d, none of the four parameter
    products P0 = k0*k1*k2*k3, P1 = k0*k2*k3/k1, P2 = k0*k1*k3/k2,
    P3 = k0*k1*k2/k3 may equal q^{-i}.  Odd family: for each even i in
    2..d, no k_j^2 ("k0^2" .. "k3^2") may equal q^{-i}.

    The criteria as stated also ask q^i != 1 and, for the even family,
    k0^2 != q^{-i} at even i in 2..d-1.  Neither can fail for a valid
    quadruple: ParamQuadruple rejects roots of unity, and with
    k0^2 = q^{-d-1} the second would make q^{d+1-i} = 1.  So they are
    left out.
    """
    k0, k1, k2, k3 = p.k
    if p.parity == PARITY_EVEN:
        named = (
            ("P0", k0 * k1 * k2 * k3),
            ("P1", k0 * k2 * k3 / k1),
            ("P2", k0 * k1 * k3 / k2),
            ("P3", k0 * k1 * k2 / k3),
        )
        powers = range(1, p.d + 1, 2)
    elif p.parity == PARITY_ODD:
        named = tuple((f"k{j}^2", kj * kj) for j, kj in enumerate(p.k))
        powers = range(2, p.d + 1, 2)
    else:
        raise ParameterError("violations needs an even- or odd-family quadruple")
    out = []
    for i in powers:
        qi = scalar_pow(p.q, -i)
        out.extend((name, i) for name, value in named if value == qi)
    return out


def orbit_act(p: ParamQuadruple, s: SignTriple) -> ParamQuadruple:
    """Invert the k's marked by -1 in the sign triple; k0 is untouched."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("the sign action is defined on the even family")
    k1, k2, k3 = (
        k if sign == 1 else 1 / k for k, sign in zip((p.k1, p.k2, p.k3), s.signs)
    )
    return ParamQuadruple(p.q, p.k0, k1, k2, k3, d=p.d, parity=p.parity)


def orbit_members(p: ParamQuadruple):
    return tuple(orbit_act(p, s) for s in SignTriple.all())


def canonical_orbit_rep(p: ParamQuadruple) -> ParamQuadruple:
    """Deterministic orbit representative: of the 8 sign-flipped
    members, the one whose (k1, k2, k3) string encoding is
    lexicographically least.  The i-th string depends on the i-th flip
    alone, so that member takes each k_i or 1/k_i, whichever string is
    least; a tie means k_i = 1/k_i.  Idempotent and orbit-invariant."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("the sign action is defined on the even family")
    k1, k2, k3 = (min(k, 1 / k, key=scalar_to_str) for k in (p.k1, p.k2, p.k3))
    return p.with_k(k1=k1, k2=k2, k3=k3)
