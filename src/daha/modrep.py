"""Concrete modules for the four-generator presentation.

Three realizations are built here:

* the infinite-dimensional ladder module with basis m_0, m_1, ... --
  applied lazily to finitely supported vectors by :func:`verma_apply`;
* finite-dimensional matrix modules -- :func:`make_E` (dimension d+1
  even) and :func:`make_O` (dimension d+1 odd), the truncations of the
  ladder module to m_0 .. m_d, which are its quotients under the parity
  constraint;
* the Laurent-polynomial realization in one variable z --
  :func:`poly_apply`, together with the basis image map
  :func:`verma_basis_image` that intertwines the two.

Matrices act on column coordinate vectors: the j-th column of a
generator matrix is the coordinate vector of the generator applied to
the j-th basis vector.  The generator columns are written once, in
:func:`_verma_column`, on unreduced (numerator, denominator) pairs of a
ring of :mod:`daha.linalg` (:func:`_pairs`): Z for the blocks of
rational params, Z[q] for the column table.  No entry is reduced on
its own.  A block goes over one denominator by its ring and is reduced
once by :func:`daha.linalg._ring_matrix`; a ladder vector is put into
canonical form once, by :func:`daha.scalar._canonical_polys`.  Both
forms are unique, so the result does not depend on the common factors
or signs of the pairs.  The column table :func:`_verma_columns` keeps
each column that the ladder module and the formal-q blocks read, as int
polynomials over one denominator, once per params.  The ladder factor
1 - c q^(2 ceil(i/2)) Op^(+-1) that every ladder check and the operator
routes of the L-matrices multiply is written once, in
:func:`_ladder_factor` (its scalar in :func:`_ladder_coef`).  Both
realisations take each inverse generator from the relation
t_i + t_i^{-1} = k_i + 1/k_i: a finite module built from params forms
the matrix (k_i + 1/k_i) - t_i on first read (:class:`_Inverses`), and
the ladder module applies it to a vector, re-checking t_i w = v on each
result (:func:`_verma_inverse`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import DahaError, InputError, ParameterError, TranscriptionError
from .linalg import ZZ, ZZ_Q, Matrix, _ring_matrix, rank, scalar_minus
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    seq_rho,
)
from .laurent import (
    LaurentPoly,
    _OneDenominator,
    _canonical_terms,
    _raw_add,
    _raw_div,
    _raw_from_pairs,
    _raw_mul,
    _raw_q2_over_z,
    _raw_scale,
    _times,
)
from .scalar import (
    QQ,
    QQ_Q,
    RatFun,
    _parts,
    _pmul,
    json_field,
    scalar_pow,
    scalar_to_str,
)

GEN_NAMES = ("t0", "t1", "t2", "t3")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Report:
    items: tuple

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failed(self):
        return [item for item in self.items if not item.passed]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [item.to_json() for item in self.items]}


# ---------------------------------------------------------------------------
# finite-dimensional modules
# ---------------------------------------------------------------------------

class _Inverses(Sequence):
    """The inverses of a constructed module's generators t_i, taken from
    the relation t_i + t_i^{-1} = c_i, c_i = k_i + 1/k_i, with the k's
    held in generator order: entry i is c_i - t_i
    (:func:`~daha.linalg.scalar_minus`), formed on its first read, and
    c_i is kept for :func:`_central_scalars`.  It compares, hashes and
    concatenates like the tuple of its entries.

    Soundness: t (c - t) = 1 is exactly t^2 - c t + 1 = 0.  When it
    holds, c - t is the two-sided inverse of the square matrix t, and
    t + t^{-1} = c.  So the product t_i t_i^{-1} = 1 of
    :func:`verify_relations` checks the quadratic relation and pins c_i
    to the scalar of t_i + t_i^{-1}; a read checks nothing on its own.
    """

    def __init__(self, mats, ks):
        self._mats = mats
        self._ks = ks
        self._known = [None] * len(mats)
        self._scalars = [None] * len(mats)

    def scalar(self, i):
        """c_i = k_i + 1/k_i, computed on first use and kept."""
        c = self._scalars[i]
        if c is None:
            k = self._ks[i]
            c = self._scalars[i] = k + 1 / k
        return c

    def __getitem__(self, i):
        inv = self._known[i]
        if inv is None:
            inv = self._known[i] = scalar_minus(self.scalar(i), self._mats[i])
        return inv

    def __len__(self):
        return len(self._mats)

    def __eq__(self, other):
        return isinstance(other, (tuple, _Inverses)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def rotated(self, e: int) -> "_Inverses":
        """The inverses of the generators shifted by e, t_{i+e mod n} in
        place of t_i, the k's rotated with them; nothing is formed."""
        order = [(i + e) % len(self) for i in range(len(self))]
        return _Inverses(tuple(self._mats[j] for j in order), tuple(self._ks[j] for j in order))


@dataclass(frozen=True)
class ModuleRep:
    """A finite-dimensional module: four generator matrices, their
    inverses, the parameters used to build it, and a twist counter.
    A module built from params holds its inverses as :class:`_Inverses`,
    each c_i - t_i with c_i = k_i + 1/k_i, formed when first read, so a
    caller that reads only the generators forms none of them.  That is
    the inverse exactly when t_i^2 - c_i t_i + 1 = 0, which
    :func:`verify_relations` checks as t_i t_i^{-1} = 1.  A module read
    from a file keeps the inverses stored in it."""

    dim: int
    t: tuple
    tinv: tuple
    params: ParamQuadruple
    twist: int
    label: str

    def x_matrix(self) -> Matrix:
        return self.t[3] * self.t[0]

    def xinv_matrix(self) -> Matrix:
        return self.tinv[0] * self.tinv[3]

    def y_matrix(self) -> Matrix:
        return self.t[0] * self.t[1]

    def yinv_matrix(self) -> Matrix:
        return self.tinv[1] * self.tinv[0]

    def identity_matrix(self) -> Matrix:
        """The identity over the generators' field, that of t0."""
        return Matrix.identity(self.dim, self.t[0].field)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "params": self.params.to_json(),
            "twist": self.twist,
            "t": [m.to_json() for m in self.t],
            "tinv": [m.to_json() for m in self.tinv],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModuleRep":
        """Load a module file; InputError unless it holds four generators
        and four inverses, all dim x dim with dim = d+1, and a twist in
        0..3."""
        params = ParamQuadruple.from_json(json_field(data, "params", dict))
        dim = json_field(data, "dim", int)
        if dim != params.d + 1:
            raise InputError(f"dim {dim} is not d+1 = {params.d + 1}")
        twist = json_field(data, "twist", int)
        if not 0 <= twist < 4:
            raise InputError(f"twist {twist} is not in 0..3")
        mats = {}
        for key in ("t", "tinv"):
            listed = json_field(data, key, list)
            if len(listed) != 4:
                raise InputError(f"{key!r} needs four matrices, got {len(listed)}")
            mats[key] = tuple(_in_field(Matrix.from_json(m), params.q) for m in listed)
            if any(m.shape != (dim, dim) for m in mats[key]):
                raise InputError(f"{key!r} has a matrix that is not {dim} x {dim}")
        return cls(
            dim=dim,
            t=mats["t"],
            tinv=mats["tinv"],
            params=params,
            twist=twist,
            label=json_field(data, "label", str) if "label" in data else "",
        )


def _in_field(m: Matrix, q) -> Matrix:
    """m over the field of q: a rational matrix is lifted into Q(q) when q
    is formal (older files print constants bare), and a matrix over Q(q)
    is lowered to its rationals when q is rational; InputError when such
    a matrix has an entry that depends on q."""
    if isinstance(q, RatFun):
        return m if m.field is QQ_Q else m.scale(q ** 0)
    if m.field is QQ:
        return m
    rows = m.entries
    if not all(e.is_constant() for row in rows for e in row):
        raise InputError("a matrix entry depends on q, but the params' q is rational")
    return Matrix([[e.as_fraction() for e in row] for row in rows])


def _truncate(p: ParamQuadruple, family: str) -> ModuleRep:
    """The quotient of the ladder module by the span of m_{d+1},
    m_{d+2}, ..., on the basis m_0 .. m_d.

    That span is a submodule under the parity constraint.  A generator
    maps m_j into the span of m_{j-1}, m_j, m_{j+1}, so only its
    (d, d+1) entry could leave the span.  That entry is either absent or
    carries the factor 1 - k0^2 q^{d+1} (even family, t0 and t1) or
    a - 1/k2 with a = k0 k1 k3 q^{d+1} (odd family, t2 and t3), which
    the constraint makes zero.
    """
    dim = p.d + 1
    t = tuple(_ladder_block(gen, dim, dim, p) for gen in range(4))
    tinv = _Inverses(t, p.k)
    ks = ",".join(scalar_to_str(x) for x in p.k)
    label = f"{family}[q={scalar_to_str(p.q)}; k={ks}; d={p.d}]"
    return ModuleRep(dim=dim, t=t, tinv=tinv, params=p, twist=0, label=label)


def make_E(p: ParamQuadruple) -> ModuleRep:
    """The (d+1)-dimensional module of the even-dimensional family."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("make_E needs parity 'even' (d odd, k0^2 = q^{-d-1})")
    return _truncate(p, "E")


def make_O(p: ParamQuadruple) -> ModuleRep:
    """The (d+1)-dimensional module of the odd-dimensional family; d = 0
    gives the four 1x1 matrices (k0), (k1), (k2), (k3)."""
    if p.parity != PARITY_ODD:
        raise ParameterError(
            "make_O needs parity 'odd' (d even, k0*k1*k2*k3 = q^{-d-1})"
        )
    return _truncate(p, "O")


def _construct(p: ParamQuadruple) -> ModuleRep:
    """p's module: :func:`make_E` or :func:`make_O` by its parity."""
    return make_E(p) if p.parity == PARITY_EVEN else make_O(p)


# ---------------------------------------------------------------------------
# relation and ladder verification
# ---------------------------------------------------------------------------

def _diff_detail(diff: Matrix) -> str:
    return "difference " + repr(diff)


def _central_scalars(m: ModuleRep):
    """The scalar c_i with t_i + t_i^{-1} = c_i, None where that sum is
    not a scalar matrix, for i = 0..3 in turn: each inverse is read only
    when its term is reached.  A module built from params gives the kept
    c_i = k_i + 1/k_i of :class:`_Inverses` and forms no sum: its sum is
    c_i identically in the ring, since t_i^{-1} = c_i - t_i."""
    if isinstance(m.tinv, _Inverses):
        return (m.tinv.scalar(i) for i in range(4))
    return ((t + tinv).scalar_value() for t, tinv in zip(m.t, m.tinv))


def verify_relations(m: ModuleRep) -> Report:
    """Check the defining relations on a module.

    (a) each generator times its stored inverse is the identity, both
    ways; (b) each generator plus its inverse is a scalar matrix (the
    scalar is recorded); (c) the ordered product of the four generators
    is q^{-1} times the identity.  Failures become report entries, not
    exceptions.

    Check (a) forms one product per pair when it holds.  The matrices
    are square over a field, so t t' = 1 makes t' the inverse of t, and
    then t' t = 1 as well; t' t is formed only when t t' = 1 fails, to
    report whether it holds and its difference.

    On a module built from params, t' = c - t with c = k + 1/k
    (:class:`_Inverses`), and t t' = 1 is exactly t^2 - c t + 1 = 0.  So
    there (a) carries what (b) carries on a module read from a file: it
    pins c to the scalar of t + t', and (b) records the kept c.  A
    generator formula that breaks the quadratic relation fails
    "t_i*t_i^-1 = 1" in (a).
    """
    ident = m.identity_matrix()
    items = []
    for i in range(4):
        t, tinv, name = m.t[i], m.tinv[i], GEN_NAMES[i]
        prod = t * tinv
        ok = prod == ident
        detail = "" if ok else _diff_detail(prod - ident)
        items.append(CheckItem(f"{name}*{name}^-1 = 1", ok, detail))
        if not ok:
            prod = tinv * t
            ok = prod == ident
            detail = "" if ok else _diff_detail(prod - ident)
        items.append(CheckItem(f"{name}^-1*{name} = 1", ok, detail))
    for i, c in enumerate(_central_scalars(m)):
        ok = c is not None
        items.append(
            CheckItem(
                f"{GEN_NAMES[i]}+{GEN_NAMES[i]}^-1 scalar",
                ok,
                f"scalar {scalar_to_str(c)}" if ok else "not a scalar matrix",
            )
        )
    prod = m.t[0] * m.t[1] * m.t[2] * m.t[3]
    expected = ident.scale(1 / m.params.q)
    ok = prod == expected
    items.append(
        CheckItem("t0*t1*t2*t3 = q^-1", ok, "" if ok else _diff_detail(prod - expected))
    )
    return Report(tuple(items))


def central_character(m: ModuleRep):
    """The four scalars by which the central combinations t_i + t_i^{-1} act."""
    out = []
    for i, c in enumerate(_central_scalars(m)):
        if c is None:
            raise ParameterError(f"{GEN_NAMES[i]}+{GEN_NAMES[i]}^-1 is not scalar")
        out.append(c)
    return tuple(out)


def _ladder_coef(base, q, i: int):
    """base * q^(2 ceil(i/2)), the scalar of the i-th ladder factor."""
    return base * scalar_pow(q, 2 * ((i + 1) // 2))


def _ladder_factor(fwd: Matrix, bwd: Matrix, base, q, i: int) -> Matrix:
    """The i-th ladder factor 1 - base q^(2 ceil(i/2)) Op, where Op is
    fwd for odd i and bwd for even i.

    With (X, X^-1, k0 k3) it maps m_i to rho_i m_(i-1) (m_0 to 0), and
    with (Y, Y^-1, k0 k1) it maps m_i to m_(i+1) (m_d to 0).  Every
    ladder check and the operator routes of the L-matrices build their
    factors here.
    """
    op = fwd if i % 2 else bwd
    return Matrix.identity(op.rows, op.field) - op.scale(_ladder_coef(base, q, i))


def ladder_check(m: ModuleRep, which: str) -> Report:
    """Check the lowering (X = t3*t0) or raising (Y = t0*t1) ladder
    identities on every basis column of an untwisted module."""
    p = m.params
    if which == "X":
        ops, base = (m.x_matrix(), m.xinv_matrix()), p.k0 * p.k3
    elif which == "Y":
        ops, base = (m.y_matrix(), m.yinv_matrix()), p.k0 * p.k1
    else:
        raise DahaError("which must be 'X' or 'Y'")
    items = []
    for i in range(m.dim):
        # column i of the factor is its image of m_i
        factor = _ladder_factor(*ops, base, p.q, i)
        lhs = [factor.entry(r, i) for r in range(m.dim)]
        expect = [0] * m.dim
        if which == "X" and i > 0:
            expect[i - 1] = seq_rho(p.q, *p.k, i)
        elif which == "Y" and i < m.dim - 1:
            expect[i + 1] = 1
        ok = lhs == expect
        items.append(
            CheckItem(
                f"{which}-ladder@{i}",
                ok,
                "" if ok else f"got {[scalar_to_str(x) for x in lhs]}",
            )
        )
    return Report(tuple(items))


def commutation_check(m: ModuleRep) -> Report:
    """Two identities tying X = t3*t0 to the generators and the central
    scalars; they hold in the algebra, hence on every module."""
    c = central_character(m)
    ident = m.identity_matrix()
    x, xi = m.x_matrix(), m.xinv_matrix()
    t0, t2 = m.t[0], m.t[2]
    q = m.params.q
    items = []
    lhs = x * t0 - t0 * xi
    rhs = x.scale(c[0]) - ident.scale(c[3])
    ok = lhs == rhs
    items.append(
        CheckItem("X*t0 - t0*X^-1 = c0*X - c3", ok, "" if ok else _diff_detail(lhs - rhs))
    )
    lhs = (xi * t2).scale(1 / q) - (t2 * x).scale(q)
    rhs = xi.scale(c[2] / q) - ident.scale(c[1])
    ok = lhs == rhs
    items.append(
        CheckItem(
            "q^-1*X^-1*t2 - q*t2*X = q^-1*c2*X^-1 - c1",
            ok,
            "" if ok else _diff_detail(lhs - rhs),
        )
    )
    return Report(tuple(items))


def raising_product_annihilates(m: ModuleRep) -> bool:
    """Apply the full (d+1)-factor raising product to the first basis
    vector; the result must vanish on both module families."""
    p = m.params
    ys = m.y_matrix(), m.yinv_matrix()
    v = [1] + [0] * (m.dim - 1)
    for i in range(m.dim):
        v = _ladder_factor(*ys, p.k0 * p.k1, p.q, i).apply(v)
    return not any(v)


def w_basis_check(m: ModuleRep) -> Report:
    """Build the alternative basis w_i by the k1-inverted raising
    products applied to the first basis vector, then check that it is a
    basis and satisfies the lowering ladder with phi coefficients."""
    p = m.params
    d = m.dim - 1
    xs = m.x_matrix(), m.xinv_matrix()
    ys = m.y_matrix(), m.yinv_matrix()
    # w_(i+1) is the i-th raising factor applied to w_i; the last one,
    # applied to w_d, must vanish
    ws = [(1,) + (0,) * d]
    for i in range(m.dim):
        ws.append(_ladder_factor(*ys, p.k0 / p.k1, p.q, i).apply(ws[-1]))

    items = [CheckItem("w vectors form a basis", rank(Matrix(ws[:-1])) == m.dim)]
    for i in range(d + 1):
        lhs = _ladder_factor(*xs, p.k0 * p.k3, p.q, i).apply(ws[i])
        if i == 0:
            ok = not any(lhs)
        else:
            phi = seq_rho(p.q, p.k0, 1 / p.k1, p.k2, p.k3, i)
            ok = lhs == tuple(phi * c for c in ws[i - 1])
        items.append(CheckItem(f"w-lowering@{i}", ok))
        items.append(CheckItem(f"w-raising@{i}", i < d or not any(ws[-1])))
    return Report(tuple(items))


# ---------------------------------------------------------------------------
# the infinite-dimensional ladder module, applied lazily
# ---------------------------------------------------------------------------

class SparseVec(_OneDenominator):
    """A finitely supported vector over the basis m_0, m_1, ..., held
    like a :class:`~daha.laurent.LaurentPoly` with the basis index in
    place of the z exponent, in the same canonical form.  ``items``
    gives the sorted (index, coefficient) pairs, each coefficient a
    RatFun once any input scalar was one and a Fraction otherwise."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, d: dict) -> "SparseVec":
        return cls(d)

    @classmethod
    def unit(cls, i: int, one=1) -> "SparseVec":
        return cls.from_dict({i: one})

    @property
    def items(self) -> tuple:
        return self._coefficients()

    def __repr__(self):
        if not self._terms:
            return "SparseVec(0)"
        body = " + ".join(f"({scalar_to_str(c)})*m{i}" for i, c in self.items)
        return f"SparseVec({body})"


def _pairs(ring) -> SimpleNamespace:
    """The fractions of a ring of :mod:`daha.linalg` as (numerator,
    denominator) pairs, the denominator nonzero (of either sign over Z)
    and never reduced, with the product, difference, negation,
    reciprocal and power that :func:`_verma_column` reads, built from
    the ring's mul, sub, neg and pow.  The formulas meet zero as a - k2
    in a product and as 1/a - 1/k2 subtracted, at a = k2: a product
    with a zero value is zero over one, and subtracting it returns the
    other operand, so no denominator grows for it."""
    mul, sub, neg, power = ring.mul, ring.sub, ring.neg, ring.pow
    zero = ring.zero, ring.one

    def pair_mul(a, b):
        if not a[0] or not b[0]:
            return zero
        return mul(a[0], b[0]), mul(a[1], b[1])

    def pair_sub(a, b):
        if not b[0]:
            return a
        return sub(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1])

    def pair_neg(a):
        return neg(a[0]), a[1]

    def inv(a):
        return a[1], a[0]

    def qpow(q, n: int):
        return power(q[0], n), power(q[1], n)

    return SimpleNamespace(
        one=(ring.one, ring.one), mul=pair_mul, sub=pair_sub, neg=pair_neg, inv=inv, qpow=qpow
    )


_INT_PAIRS, _POLY_PAIRS = _pairs(ZZ), _pairs(ZZ_Q)


def _verma_column(gen: int, j: int, q, k, ring) -> dict:
    """Coordinates of generator gen applied to the basis vector m_j, the
    one place the generator formulas are written.

    q and the four k's come as (numerator, denominator) pairs of ring,
    a view made by :func:`_pairs`, and so do the coordinates:
    each is built from the k's and powers q^n (n >= 1) by the ring's
    product, difference, negation and reciprocal, with no gcd and no
    reduction.  A pair is exact whatever common factors and signs it
    carries, so the callers canonicalise once per result:
    :func:`_ladder_block` once per rational block, :func:`_column` never
    (its raw pairs are summed and canonicalised by their users).
    """
    mul, sub, inv, neg, one, qpow = ring.mul, ring.sub, ring.inv, ring.neg, ring.one, ring.qpow
    k0, k1, k2, k3 = k
    if gen == 0:
        if j == 0:
            return {0: k0}
        if j % 2 == 0:
            t = qpow(q, j)
            c = inv(mul(t, k0))
            return {
                j - 1: mul(c, mul(sub(one, t), sub(one, mul(mul(k0, k0), t)))),
                j: sub(k0, sub(c, inv(k0))),
            }
        c = inv(mul(qpow(q, j + 1), k0))
        return {j: c, j + 1: neg(c)}
    if gen == 1:
        if j == 0:
            return {0: k1, 1: inv(k1)}
        if j % 2 == 0:
            t = qpow(q, j)
            return {
                j - 1: neg(mul(k1, mul(sub(one, t), sub(one, mul(mul(k0, k0), t))))),
                j: k1,
                j + 1: inv(k1),
            }
        return {j: inv(k1)}
    if gen == 2:
        if j % 2 == 0:
            c = inv(mul(qpow(q, j + 1), mul(mul(k0, k1), k3)))
            return {j: c, j + 1: neg(c)}
        a = mul(mul(mul(k0, k1), k3), qpow(q, j))
        return {
            j - 1: mul(mul(sub(a, k2), sub(a, inv(k2))), inv(a)),
            j: sub(k2, sub(inv(a), inv(k2))),
        }
    if gen == 3:
        if j % 2 == 0:
            return {j: k3}
        a = mul(mul(mul(k0, k1), k3), qpow(q, j))
        return {j - 1: neg(mul(mul(sub(a, k2), sub(a, inv(k2))), inv(k3))), j: inv(k3), j + 1: k3}
    raise DahaError(f"unknown generator {gen!r}")


@functools.lru_cache(maxsize=4)
def _verma_columns(p: ParamQuadruple) -> dict:
    """The column table of p: (gen, j) -> the column of generator gen at
    m_j as a raw pair keyed by basis index over one denominator.
    :func:`_column` fills it on first use, so one check that applies a
    generator to m_j many times builds the column once.  Callers never
    change the table's values."""
    return {}


def _column(gen: int, j: int, p: ParamQuadruple) -> tuple:
    """Column (gen, j) of p's column table, computed on first use: the
    Z[q] pair coordinates of :func:`_verma_column` (constant
    polynomials for rational params) go unreduced into one raw pair,
    which :mod:`daha.laurent`'s raw arithmetic takes as it is; callers
    canonicalise their results."""
    table = _verma_columns(p)
    col = table.get((gen, j))
    if col is None:
        column = _verma_column(gen, j, _parts(p.q), tuple(map(_parts, p.k)), _POLY_PAIRS)
        col = table[(gen, j)] = _raw_from_pairs(
            [(i, (n, tuple(d))) for i, (n, d) in column.items()]
        )
    return col


def _ladder_block(gen: int, rows: int, cols: int, p: ParamQuadruple) -> Matrix:
    """The top-left rows x cols block of generator gen on the basis
    m_0, m_1, ...: column j holds the coordinates of gen applied to m_j.

    Formal params read the columns of the column table over Z[q], which
    the ladder module shares; rational params build each column's
    entries as Z pairs.  Either way the entries, keyed by (row,
    column), go over one denominator by the ring's
    ``over_one``, and one call, :func:`~daha.linalg._ring_matrix`,
    canonicalises the block, whose form is unique whatever common
    factors or signs the unreduced input had.
    """
    pairs = []
    if isinstance(p.q, RatFun):
        ring = ZZ_Q
        for j in range(cols):
            terms, den = _column(gen, j, p)
            pairs += [((i, j), (c, den)) for i, c in terms.items() if i < rows]
    else:
        ring, q = ZZ, (p.q.numerator, p.q.denominator)
        k = [(x.numerator, x.denominator) for x in p.k]
        for j in range(cols):
            column = _verma_column(gen, j, q, k, _INT_PAIRS)
            pairs += [((i, j), pair) for i, pair in column.items() if i < rows]
    flat, den = ring.over_one(pairs)
    out = [[ring.zero] * cols for _ in range(rows)]
    for (i, j), x in flat.items():
        out[i][j] = x
    return _ring_matrix(ring, out, den)


def _verma_forward(gen: int, raw: tuple, p: ParamQuadruple) -> tuple:
    """Generator gen applied to the raw pair of a vector: its columns
    times the coefficients, summed, over the vector's denominator."""
    out = ({}, (1,))
    for j, c in raw[0].items():
        terms, den = _column(gen, j, p)
        out = _raw_add(out, (_times(terms, c), den))
    return out[0], tuple(_pmul(out[1], raw[1]))


_MINUS = ((-1,), (1,))


def _verma_inverse(gen: int, raw: tuple, p: ParamQuadruple) -> tuple:
    """Apply an inverse generator from the relation t + t^-1 = k + 1/k,
    that is w = (k + 1/k) v - t v, then re-check that t w = v.

    The check makes the result exact on its own: t acts bijectively on
    the ladder module, so t^-1 v is the only w with t w = v.  The check
    is the quadratic relation (t - k)(t - 1/k) v = 0, so a wrong scalar,
    or a generator column that breaks that relation, raises here
    instead of returning a wrong vector.  Both sides of the check are
    compared in canonical form.
    """
    k = p.k[gen]
    w = _raw_add(
        _raw_scale(raw, _parts(k + 1 / k)), _raw_scale(_verma_forward(gen, raw, p), _MINUS)
    )
    if _canonical_terms(_verma_forward(gen, w, p)) != _canonical_terms(raw):
        raise TranscriptionError("inverse generator residual is nonzero")
    return w


def verma_apply(gen, v: SparseVec, p: ParamQuadruple) -> SparseVec:
    """Apply a generator (0..3), an inverse generator ("t0inv".."t3inv"),
    or one of "X", "Y", "Xinv", "Yinv" to a finitely supported vector.

    Valid for arbitrary nonzero parameters; no parity constraint is
    assumed.  The generators run on raw pairs with the columns of p's
    column table, and only the result is put into canonical form.
    """
    if isinstance(gen, int):
        if gen not in (0, 1, 2, 3):
            raise DahaError(f"generator index out of range: {gen}")
        word = ((_verma_forward, gen),)
    elif gen in ("t0", "t1", "t2", "t3"):
        word = ((_verma_forward, int(gen[1])),)
    elif gen in ("t0inv", "t1inv", "t2inv", "t3inv"):
        word = ((_verma_inverse, int(gen[1])),)
    else:
        word = _WORDS.get(gen)
        if word is None:
            raise DahaError(f"unknown generator {gen!r}")
    raw = v._raw()
    for step, i in word:
        raw = step(i, raw, p)
    return SparseVec._of(raw, v._formal or isinstance(p.q, RatFun))


# each word as its steps, rightmost factor first
_WORDS = {
    "X": ((_verma_forward, 0), (_verma_forward, 3)),
    "Y": ((_verma_forward, 1), (_verma_forward, 0)),
    "Xinv": ((_verma_inverse, 3), (_verma_inverse, 0)),
    "Yinv": ((_verma_inverse, 0), (_verma_inverse, 1)),
}


def verma_ladder_check(p: ParamQuadruple, max_index: int = 12) -> Report:
    """The lowering/raising ladder identities on the infinite module,
    checked on basis vectors m_0 .. m_max_index."""
    one = p.q ** 0
    k0k3, k0k1 = p.k0 * p.k3, p.k0 * p.k1
    items = []
    for i in range(max_index + 1):
        mi = SparseVec.unit(i, one)
        shifted = verma_apply("X" if i % 2 else "Xinv", mi, p)
        lhs = mi + shifted.scale(-_ladder_coef(k0k3, p.q, i))
        expect = SparseVec.from_dict({i - 1: seq_rho(p.q, *p.k, i)} if i else {})
        items.append(CheckItem(f"verma-X@{i}", lhs == expect))

        shifted = verma_apply("Y" if i % 2 else "Yinv", mi, p)
        lhs = mi + shifted.scale(-_ladder_coef(k0k1, p.q, i))
        items.append(CheckItem(f"verma-Y@{i}", lhs == SparseVec.unit(i + 1, one)))
    return Report(tuple(items))


# ---------------------------------------------------------------------------
# Laurent polynomial realization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _laurent_params(p: ParamQuadruple) -> tuple:
    """What the Laurent realization needs of p, built once per params:
    each generator t_i as (a, b, den, s) with t_i f = (a f + b g) / den,
    where g = f(s/z) for s = q^2 (t0, t1) and g = f(1/z) for s = None
    (t2, t3); then the scalars k0 k1 q and q^2; then the
    list of raw basis images that :func:`_basis_images` extends.

    With c_i = k_i + 1/k_i, t0 is k0 g + a (f - g) / den and t3 is
    k3 g + a (f - g) / den, so their b is k den - a; t1 and t2 are
    (a f + b g) / den as they stand.  The entries are immutable, apart
    from the image list growing, since every call with these params
    shares them; the calls of one check share one params, so a few
    cached entries serve them all.
    """
    q, (k0, k1, k2, k3) = p.q, p.k
    c0, c1 = k0 + 1 / k0, k1 + 1 / k1
    c2, c3 = k2 + 1 / k2, k3 + 1 / k3
    q2 = q * q
    den_q = LaurentPoly({0: 1, -2: -q2})
    den_1 = LaurentPoly({0: 1, 2: -1})
    generators = (
        (LaurentPoly({0: c0, -1: -c1 * q}),
         LaurentPoly({0: -1 / k0, -1: c1 * q, -2: -k0 * q2}), den_q, _parts(q2)),
        (LaurentPoly({0: c1, -1: -c0 * q}),
         LaurentPoly({-1: q / k0, -2: -c1 * q2, -3: k0 * q2 * q}), den_q, _parts(q2)),
        (LaurentPoly({0: c2, 1: -c3}),
         LaurentPoly({0: -c2, 1: k3, -1: 1 / k3}), den_1, None),
        (LaurentPoly({0: c3, 1: -c2}),
         LaurentPoly({0: -1 / k3, 1: c2, 2: -k3}), den_1, None),
    )
    return generators, k0 * k1 * q, q2, [({0: (1,)}, (1,))]


def poly_apply(gen: int, f: LaurentPoly, p: ParamQuadruple) -> LaurentPoly:
    """Apply one generator to a Laurent polynomial.

    Each generator is a substitution-and-divided-difference operator
    (a f + b g) / den from :func:`_laurent_params`; the divided
    difference is carried out as one exact division, so a transcription
    mistake surfaces as a non-cancelling division instead of a silent
    wrong answer.  Only the result is put into canonical form.
    """
    if gen not in (0, 1, 2, 3):
        raise DahaError(f"unknown generator {gen!r}")
    a, b, den, s = _laurent_params(p)[0][gen]
    f_raw = f._raw()
    if s is None:
        g = ({-e: c for e, c in f_raw[0].items()}, f_raw[1])
    else:
        g = _raw_q2_over_z(f_raw, s)
    out = _raw_add(_raw_mul(a._raw(), f_raw), _raw_mul(b._raw(), g))
    return LaurentPoly._of(_raw_div(out, den._raw()), f._formal or isinstance(p.q, RatFun))


def _basis_images(top: int, p: ParamQuadruple) -> list:
    """Raw images of m_0 .. m_top at least, kept per params and extended
    on demand: the image of m_(h+1) is that of m_h times
    1 - k0 k1 q^(2 ceil(h/2) + (-1)^h) z^((-1)^(h+1)), whose q exponent
    is 2 floor(h/2) + 1, so the coefficient is k0 k1 q times
    (q^2)^floor(h/2).  Callers index the list and never change it."""
    _, coef, q2, images = _laurent_params(p)
    for h in range(len(images) - 1, top):
        n, d = _parts(coef * q2 ** (h // 2))
        z_exp = 1 if h % 2 else -1
        images.append(_raw_mul(({0: d, z_exp: [-x for x in n]}, d), images[h]))
    return images


def verma_basis_image(i: int, p: ParamQuadruple) -> LaurentPoly:
    """Image of the ladder basis vector m_i in the Laurent realization:
    a product of i binomial factors alternating between z^{-1} and z."""
    if i < 0:
        raise DahaError("basis index must be nonnegative")
    return LaurentPoly._of(_basis_images(i, p)[i], isinstance(p.q, RatFun))


def sparse_to_poly(v: SparseVec, p: ParamQuadruple) -> LaurentPoly:
    """Push a finitely supported ladder vector through the basis image
    map: the images times the coefficients' numerators, summed over the
    vector's denominator."""
    formal = isinstance(p.q, RatFun) or v._formal
    if not v._terms:
        return LaurentPoly._of(({}, (1,)), formal)
    images = _basis_images(v._terms[-1][0], p)
    out = ({}, (1,))
    for i, c in v._terms:
        out = _raw_add(out, _raw_scale(images[i], (c, (1,))))
    return LaurentPoly._of((out[0], tuple(_pmul(out[1], v._den))), formal)
