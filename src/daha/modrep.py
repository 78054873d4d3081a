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
:func:`_verma_column`.  Inverse generators have no formulas of their
own: a finite module's inverse matrices come from exact inversion, and
the ladder module applies t_i^{-1} from the relation
t_i + t_i^{-1} = k_i + 1/k_i, re-checking t_i w = v on each result.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DahaError, InputError, ParameterError, TranscriptionError
from .linalg import Matrix, _int_matrix, _over_lcm, inverse, rank
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    seq_rho,
)
from .laurent import (
    LaurentPoly,
    _laurent,
    _pair_mul,
    _raw_add,
    _raw_div,
    _raw_mul,
    _raw_q2_over_z,
    _raw_scale,
)
from .scalar import RatFun, _parts, as_scalar, json_field, scalar_pow, scalar_to_str

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
    """The inverses of a tuple of matrices, each computed on first read;
    it compares, hashes and concatenates like the tuple of them."""

    def __init__(self, mats):
        self._mats = mats
        self._known = [None] * len(mats)

    def __getitem__(self, i):
        inv = self._known[i]
        if inv is None:
            inv = self._known[i] = inverse(self._mats[i])
        return inv

    def __len__(self):
        return len(self._mats)

    def __eq__(self, other):
        return isinstance(other, (tuple, _Inverses)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __radd__(self, other):
        return other + tuple(self)


@dataclass(frozen=True)
class ModuleRep:
    """A finite-dimensional module: four generator matrices, their
    inverses, the parameters used to build it, and a twist counter.
    A constructed module holds its inverses as :class:`_Inverses`, so a
    caller that reads only the generators never inverts them."""

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
        return Matrix.identity(self.dim, one=self.t[0].entry(0, 0) ** 0)

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
            mats[key] = tuple(Matrix.from_json(m) for m in listed)
            if isinstance(params.q, RatFun):  # older files print constants bare
                one = params.q ** 0
                mats[key] = tuple(m if m._ints is None else m.scale(one) for m in mats[key])
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
    tinv = _Inverses(t)
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


# ---------------------------------------------------------------------------
# relation and ladder verification
# ---------------------------------------------------------------------------

def _diff_detail(diff: Matrix) -> str:
    return "difference " + repr(diff)


def verify_relations(m: ModuleRep) -> Report:
    """Check the defining relations on a module.

    (a) each generator times its stored inverse is the identity, both
    ways; (b) each generator plus its inverse is a scalar matrix (the
    scalar is recorded); (c) the ordered product of the four generators
    is q^{-1} times the identity.  Failures become report entries, not
    exceptions.
    """
    ident = m.identity_matrix()
    items = []
    for i in range(4):
        for tag, prod in (
            (f"{GEN_NAMES[i]}*{GEN_NAMES[i]}^-1 = 1", m.t[i] * m.tinv[i]),
            (f"{GEN_NAMES[i]}^-1*{GEN_NAMES[i]} = 1", m.tinv[i] * m.t[i]),
        ):
            ok = prod == ident
            items.append(
                CheckItem(tag, ok, "" if ok else _diff_detail(prod - ident))
            )
    for i in range(4):
        c = (m.t[i] + m.tinv[i]).scalar_value()
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
    for i in range(4):
        c = (m.t[i] + m.tinv[i]).scalar_value()
        if c is None:
            raise ParameterError(f"{GEN_NAMES[i]}+{GEN_NAMES[i]}^-1 is not scalar")
        out.append(c)
    return tuple(out)


def _unit_vector(dim: int, i: int, one, zero):
    return tuple(one if j == i else zero for j in range(dim))


def ladder_check(m: ModuleRep, which: str) -> Report:
    """Check the lowering (X = t3*t0) or raising (Y = t0*t1) ladder
    identities on every basis column of an untwisted module."""
    p = m.params
    d = m.dim - 1
    one = p.q ** 0
    zero = p.q * 0
    if which == "X":
        fwd, bwd = m.x_matrix(), m.xinv_matrix()
        coef_base = p.k0 * p.k3
    elif which == "Y":
        fwd, bwd = m.y_matrix(), m.yinv_matrix()
        coef_base = p.k0 * p.k1
    else:
        raise DahaError("which must be 'X' or 'Y'")
    ident = m.identity_matrix()
    items = []
    for i in range(d + 1):
        # X^{(-1)^{i-1}}: the inverse for even i, the element itself for odd i
        op = fwd if i % 2 else bwd
        coef = coef_base * scalar_pow(p.q, 2 * ((i + 1) // 2))
        lhs = (ident - op.scale(coef)).apply(_unit_vector(m.dim, i, one, zero))
        if which == "X":
            if i == 0:
                expect = tuple(zero for _ in range(m.dim))
            else:
                rho = seq_rho(p.q, *p.k, i)
                expect = tuple(
                    rho if j == i - 1 else zero for j in range(m.dim)
                )
        else:
            if i == d:
                expect = tuple(zero for _ in range(m.dim))
            else:
                expect = _unit_vector(m.dim, i + 1, one, zero)
        ok = all(a == b for a, b in zip(lhs, expect))
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
    d = m.dim - 1
    one = p.q ** 0
    zero = p.q * 0
    y, yi = m.y_matrix(), m.yinv_matrix()
    ident = m.identity_matrix()
    v = _unit_vector(m.dim, 0, one, zero)
    for i in range(d + 1):
        op = y if i % 2 else yi
        coef = p.k0 * p.k1 * scalar_pow(p.q, 2 * ((i + 1) // 2))
        v = (ident - op.scale(coef)).apply(v)
    return all(not x for x in v)


def w_basis_check(m: ModuleRep) -> Report:
    """Build the alternative basis w_i by the k1-inverted raising
    products applied to the first basis vector, then check that it is a
    basis and satisfies the lowering ladder with phi coefficients."""
    p = m.params
    d = m.dim - 1
    one = p.q ** 0
    zero = p.q * 0
    y, yi = m.y_matrix(), m.yinv_matrix()
    x, xi = m.x_matrix(), m.xinv_matrix()
    ident = m.identity_matrix()
    coef_y = p.k0 / p.k1

    ws = [_unit_vector(m.dim, 0, one, zero)]
    for h in range(d):
        op = y if h % 2 else yi
        coef = coef_y * scalar_pow(p.q, 2 * ((h + 1) // 2))
        ws.append((ident - op.scale(coef)).apply(ws[-1]))

    items = []
    basis_ok = rank(Matrix(ws)) == m.dim
    items.append(CheckItem("w vectors form a basis", basis_ok))

    for i in range(d + 1):
        op = x if i % 2 else xi
        coef = p.k0 * p.k3 * scalar_pow(p.q, 2 * ((i + 1) // 2))
        lhs = (ident - op.scale(coef)).apply(ws[i])
        if i == 0:
            expect = tuple(zero for _ in range(m.dim))
        else:
            phi = seq_rho(p.q, p.k0, 1 / p.k1, p.k2, p.k3, i)
            expect = tuple(phi * c for c in ws[i - 1])
        items.append(
            CheckItem(
                f"w-lowering@{i}",
                all(a == b for a, b in zip(lhs, expect)),
            )
        )
        opy = y if i % 2 else yi
        coefy = coef_y * scalar_pow(p.q, 2 * ((i + 1) // 2))
        lhs = (ident - opy.scale(coefy)).apply(ws[i])
        expect = (
            tuple(zero for _ in range(m.dim)) if i == d else tuple(ws[i + 1])
        )
        items.append(
            CheckItem(
                f"w-raising@{i}",
                all(a == b for a, b in zip(lhs, expect)),
            )
        )
    return Report(tuple(items))


# ---------------------------------------------------------------------------
# the infinite-dimensional ladder module, applied lazily
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseVec:
    """A finitely supported vector over the basis m_0, m_1, ...;
    stored as sorted (index, coefficient) pairs with nonzero
    coefficients and distinct indices."""

    items: tuple

    @classmethod
    def from_dict(cls, d: dict) -> "SparseVec":
        return cls(tuple(sorted((i, as_scalar(c)) for i, c in d.items() if c)))

    @classmethod
    def unit(cls, i: int, one=1) -> "SparseVec":
        return cls(((i, as_scalar(one)),))

    @classmethod
    def zero(cls) -> "SparseVec":
        return cls(())

    def scale(self, c) -> "SparseVec":
        if not c:
            return SparseVec(())
        return SparseVec(tuple((i, x * c) for i, x in self.items))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        acc = dict(self.items)
        for i, c in other.items:
            acc[i] = acc[i] + c if i in acc else c
        return SparseVec.from_dict(acc)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        if not self.items:
            return "SparseVec(0)"
        body = " + ".join(f"({scalar_to_str(c)})*m{i}" for i, c in self.items)
        return f"SparseVec({body})"


def _verma_column(gen: int, j: int, p: ParamQuadruple) -> dict:
    """Coordinates of generator gen applied to the basis vector m_j."""
    q, (k0, k1, k2, k3) = p.q, p.k
    if gen == 0:
        if j == 0:
            return {0: k0}
        if j % 2 == 0:
            c = scalar_pow(q, -j) / k0
            return {
                j - 1: c * (1 - scalar_pow(q, j)) * (1 - k0 * k0 * scalar_pow(q, j)),
                j: k0 + 1 / k0 - c,
            }
        c = scalar_pow(q, -j - 1) / k0
        return {j: c, j + 1: -c}
    if gen == 1:
        if j == 0:
            return {0: k1, 1: 1 / k1}
        if j % 2 == 0:
            return {
                j - 1: -k1 * (1 - scalar_pow(q, j)) * (1 - k0 * k0 * scalar_pow(q, j)),
                j: k1,
                j + 1: 1 / k1,
            }
        return {j: 1 / k1}
    if gen == 2:
        if j % 2 == 0:
            c = scalar_pow(q, -j - 1) / (k0 * k1 * k3)
            return {j: c, j + 1: -c}
        a = k0 * k1 * k3 * scalar_pow(q, j)
        return {
            j - 1: (a - k2) * (a - 1 / k2) / a,
            j: k2 + 1 / k2 - 1 / a,
        }
    if gen == 3:
        if j % 2 == 0:
            return {j: k3}
        a = k0 * k1 * k3 * scalar_pow(q, j)
        return {j - 1: -(a - k2) * (a - 1 / k2) / k3, j: 1 / k3, j + 1: k3}
    raise DahaError(f"unknown generator {gen!r}")


def _ladder_block(gen: int, rows: int, cols: int, p: ParamQuadruple) -> Matrix:
    """The top-left rows x cols block of generator gen on the basis
    m_0, m_1, ...: column j holds the coordinates of gen applied to m_j.
    Rational params put the nonzero entries straight into int rows over
    the lcm of their denominators."""
    columns = [_verma_column(gen, j, p) for j in range(cols)]
    if isinstance(p.q, RatFun):
        return Matrix([[col.get(i, 0) for col in columns] for i in range(rows)])
    pairs = [
        [(x.numerator, x.denominator) if (x := col.get(i)) else (0, 1) for col in columns]
        for i in range(rows)
    ]
    return _int_matrix(*_over_lcm(pairs))


def _verma_forward(gen: int, v: SparseVec, p: ParamQuadruple) -> SparseVec:
    acc = {}
    for j, c in v.items:
        for i, e in _verma_column(gen, j, p).items():
            ce = c * e
            acc[i] = acc[i] + ce if i in acc else ce
    return SparseVec.from_dict(acc)


def _verma_inverse(gen: int, v: SparseVec, p: ParamQuadruple) -> SparseVec:
    """Apply an inverse generator from the relation t + t^-1 = k + 1/k,
    that is w = (k + 1/k) v - t v, then re-check that t w = v.

    The check makes the result exact on its own: t acts bijectively on
    the ladder module, so t^-1 v is the only w with t w = v.  The check
    is the quadratic relation (t - k)(t - 1/k) v = 0, so a wrong scalar,
    or a generator column that breaks that relation, raises here
    instead of returning a wrong vector.
    """
    k = p.k[gen]
    w = v.scale(k + 1 / k) - _verma_forward(gen, v, p)
    if _verma_forward(gen, w, p) != v:
        raise TranscriptionError("inverse generator residual is nonzero")
    return w


def verma_apply(gen, v: SparseVec, p: ParamQuadruple) -> SparseVec:
    """Apply a generator (0..3), an inverse generator ("t0inv".."t3inv"),
    or one of "X", "Y", "Xinv", "Yinv" to a finitely supported vector.

    Valid for arbitrary nonzero parameters; no parity constraint is
    assumed.
    """
    if isinstance(gen, int):
        if gen not in (0, 1, 2, 3):
            raise DahaError(f"generator index out of range: {gen}")
        return _verma_forward(gen, v, p)
    if gen in ("t0", "t1", "t2", "t3"):
        return _verma_forward(int(gen[1]), v, p)
    if gen in ("t0inv", "t1inv", "t2inv", "t3inv"):
        return _verma_inverse(int(gen[1]), v, p)
    if gen == "X":
        return _verma_forward(3, _verma_forward(0, v, p), p)
    if gen == "Y":
        return _verma_forward(0, _verma_forward(1, v, p), p)
    if gen == "Xinv":
        return _verma_inverse(0, _verma_inverse(3, v, p), p)
    if gen == "Yinv":
        return _verma_inverse(1, _verma_inverse(0, v, p), p)
    raise DahaError(f"unknown generator {gen!r}")


def verma_ladder_check(p: ParamQuadruple, max_index: int = 12) -> Report:
    """The lowering/raising ladder identities on the infinite module,
    checked on basis vectors m_0 .. m_max_index."""
    one = p.q ** 0
    items = []
    for i in range(max_index + 1):
        mi = SparseVec.unit(i, one)
        coef = p.k0 * p.k3 * scalar_pow(p.q, 2 * ((i + 1) // 2))
        shifted = verma_apply("X" if i % 2 else "Xinv", mi, p)
        lhs = mi - shifted.scale(coef)
        if i == 0:
            expect = SparseVec.zero()
        else:
            expect = SparseVec.unit(i - 1, one).scale(seq_rho(p.q, *p.k, i))
        items.append(CheckItem(f"verma-X@{i}", lhs == expect))

        coef = p.k0 * p.k1 * scalar_pow(p.q, 2 * ((i + 1) // 2))
        shifted = verma_apply("Y" if i % 2 else "Yinv", mi, p)
        lhs = mi - shifted.scale(coef)
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
    (t2, t3); then k0 k1 q and q^2 as (num, den) scalar pairs.

    With c_i = k_i + 1/k_i, t0 is k0 g + a (f - g) / den and t3 is
    k3 g + a (f - g) / den, so their b is k den - a; t1 and t2 are
    (a f + b g) / den as they stand.  The entries are immutable, since
    every call with these params shares them; the calls of one check
    share one params, so a few cached entries serve them all.
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
    return generators, _parts(k0 * k1 * q), _parts(q2)


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
    return _laurent(_raw_div(out, den._raw()), f._formal or isinstance(p.q, RatFun))


def _basis_images(top: int, p: ParamQuadruple) -> list:
    """Raw images of m_0 .. m_top: the image of m_(h+1) is that of m_h
    times 1 - k0 k1 q^(2 ceil(h/2) + (-1)^h) z^((-1)^(h+1)), whose q
    exponent is 2 floor(h/2) + 1, so the coefficient starts at k0 k1 q
    and gains a factor q^2 after each odd h."""
    _, coef, q2 = _laurent_params(p)
    image = ({0: (1,)}, (1,))
    images = [image]
    for h in range(top):
        n, d = coef
        z_exp = 1 if h % 2 else -1
        image = _raw_mul(({0: d, z_exp: [-x for x in n]}, d), image)
        images.append(image)
        if h % 2:
            coef = _pair_mul(coef, q2)
    return images


def verma_basis_image(i: int, p: ParamQuadruple) -> LaurentPoly:
    """Image of the ladder basis vector m_i in the Laurent realization:
    a product of i binomial factors alternating between z^{-1} and z."""
    if i < 0:
        raise DahaError("basis index must be nonnegative")
    return _laurent(_basis_images(i, p)[-1], isinstance(p.q, RatFun))


def sparse_to_poly(v: SparseVec, p: ParamQuadruple) -> LaurentPoly:
    """Push a finitely supported ladder vector through the basis image
    map; the images are built once, each from the one before."""
    formal = isinstance(p.q, RatFun) or any(isinstance(c, RatFun) for _, c in v.items)
    if not v.items:
        return _laurent(({}, (1,)), formal)
    images = _basis_images(v.items[-1][0], p)
    out = ({}, (1,))
    for i, c in v.items:
        out = _raw_add(out, _raw_scale(images[i], _parts(c)))
    return _laurent(out, formal)
