"""Irreducibility, triangular coefficient matrices, twisting,
intertwiners, and classification of finite-dimensional modules.

Irreducibility is decided two independent ways: the closed-form
parameter criteria, and the Burnside oracle (the unital matrix algebra
generated by the four generator matrices has full dimension n**2 iff
the module is absolutely irreducible; a reducible verdict is proved by
an invariant subspace where Norton's test finds one).  The
classification recovers the twist from the determinant fingerprint,
the parameters from the central character, and certifies the answer
with an explicit invertible intertwiner, read off a standard basis once
Norton's test has proved irreducibility -- nothing is trusted without a
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import DahaError, ClassificationError, ParameterError, TranscriptionError
from .linalg import (
    Matrix,
    det,
    eigenline,
    inverse,
    is_full_algebra,
    rank,
    solve_sylvester_homogeneous,
    span_closure,
    standard_basis,
)
from .modrep import (
    ModuleRep,
    _Inverses,
    _ladder_factor,
    central_character,
    make_E,
    make_O,
    verify_relations,
)
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    canonical_orbit_rep,
    seq_rho,
    violations,
)
from .scalar import scalar_pow, scalar_sqrt

ROUTE_OPERATOR = "operator"
ROUTE_RECURRENCE = "recurrence"
ROUTE_CLOSED = "closed"


class _Indeterminate:
    """Distinct outcome for an intertwiner search that found a
    solution space but no invertible element among the combinations it
    tried; defensive only, unreachable for irreducible inputs."""

    def __repr__(self):
        return "INDETERMINATE"


INDETERMINATE = _Indeterminate()


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def criterion_E(p: ParamQuadruple) -> bool:
    """Closed-form irreducibility test for the even-dimensional family:
    no atomic condition of :func:`~daha.params.violations` fails."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("criterion_E needs an even-family quadruple")
    return not violations(p)


def criterion_O(p: ParamQuadruple) -> bool:
    """Closed-form irreducibility test for the odd-dimensional family:
    no atomic condition of :func:`~daha.params.violations` fails."""
    if p.parity != PARITY_ODD:
        raise ParameterError("criterion_O needs an odd-family quadruple")
    return not violations(p)


def burnside_irreducible(m: ModuleRep) -> bool:
    """Independent oracle: absolute irreducibility iff the generated
    matrix algebra has dimension dim**2 (Burnside's theorem), decided by
    :func:`~daha.linalg.is_full_algebra` on the generators alone.

    The F_P pass of the span closure goes first and proves dim**2 on an
    irreducible module.  Short of it, theta runs over the diagonal of
    W_e = t_{(3-e)%4} t_{(-e)%4}, e = 0..3, until ker(W_e - theta) is a
    line (:func:`_eigenline_pair`), and Norton's two spins start from
    it: v spanning that line under the generators, w spanning
    ker(W_e^T - theta) under their transposes.  A spin that stops short
    of n is a proper nonzero subspace over the base field that is
    invariant under the generators (or whose annihilator is).  It stays
    invariant under the whole algebra, which therefore lies in the
    stabiliser of that subspace, a proper subalgebra of the n x n
    matrices (they fix no proper nonzero subspace), and has dimension
    below dim**2: False is proved.  When no theta has a kernel
    line (a module in another basis, M + M) or both spins reach n (the
    F_P pass lost rank), the exact closure decides, so a True verdict is
    always a Burnside closure of dimension dim**2.  Nothing here reads
    the parameters, so the oracle stays independent of the criteria."""
    return is_full_algebra(m.t, lambda: _eigenline_pair(m))


def _eigenline_pair(m: ModuleRep):
    """(v, w) spanning ker(W - theta) and ker(W^T - theta) for the first
    theta on the diagonal of W = t_{(3-e)%4} t_{(-e)%4}, e = 0..3, whose
    kernel is a line (:func:`~daha.linalg.eigenline`), or None."""
    for e in range(4):
        w = m.t[(3 - e) % 4] * m.t[-e % 4]
        for theta in dict.fromkeys(w.entry(i, i) for i in range(m.dim)):
            v = eigenline(w, theta)
            if v is not None:
                return v, eigenline(w, theta, True)
    return None


# ---------------------------------------------------------------------------
# triangular coefficient matrices
#
# For either family there are composite operators R (a full lowering
# product) and S_i (partial raising products) such that R*S_i applied
# to the j-th basis vector lands in the line through the 0-th one; the
# factor L[i][j] is lower triangular in (i, j) and its diagonal is
# nonzero exactly when the irreducibility criterion holds.  Three
# independent computation routes must agree: reading the operator
# products off the module, a two-term recurrence from initial values,
# and a closed product formula.
# ---------------------------------------------------------------------------

def _ceil_half(i: int) -> int:
    return (i + 1) // 2


def _floor_half(i: int) -> int:
    return i // 2


def _l_operator(module: ModuleRep, r_factors, s_factors) -> Matrix:
    """Read L off the module: L[i][j] is the 0-coordinate of R*S_i
    applied to basis vector j, where R is the product of r_factors and
    S_i that of the first d - i s_factors; all other coordinates must
    vanish."""
    ident = module.identity_matrix()
    r_mat = prod(r_factors, start=ident)
    rows = []
    for i in range(module.dim):
        head, *rest = (r_mat * prod(s_factors[:module.dim - 1 - i], start=ident)).entries
        if any(any(row) for row in rest):
            raise TranscriptionError("lowering product did not land in the base line")
        rows.append(head)
    return Matrix(rows)


def _l_matrix_from_recurrence(d: int, seed_col0, rec) -> Matrix:
    """Fill the (d+1) x (d+1) matrix from column-0 seeds and the
    two-case recurrence; entries above the diagonal must come out zero."""
    L = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        L[i][0] = seed_col0(i)
    for j in range(1, d + 1):
        for i in range(1, d + 1):
            L[i][j] = rec(L, i, j)
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if L[i][j]:
                raise TranscriptionError("recurrence produced a nonzero upper entry")
    return Matrix(L)


def l_matrix_E(p: ParamQuadruple, route: str = ROUTE_OPERATOR) -> Matrix:
    """The lower-triangular coefficient matrix of the even family."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("l_matrix_E needs an even-family quadruple")
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    one = q ** 0
    phi = lambda h: seq_rho(q, k0, 1 / k1, k2, k3, h)
    rho = lambda h: seq_rho(q, k0, k1, k2, k3, h)

    if route == ROUTE_OPERATOR:
        module = make_E(p)
        xs = module.x_matrix(), module.xinv_matrix()
        ys = module.y_matrix(), module.yinv_matrix()
        # S_i's factors are the w-raising factors of w_basis_check
        r_factors = [_ladder_factor(*xs, k0 * k3, q, h) for h in range(1, d + 1)]
        s_factors = [_ladder_factor(*ys, k0 / k1, q, h) for h in range(d)]
        return _l_operator(module, r_factors, s_factors)

    if route == ROUTE_RECURRENCE:
        def seed(i):
            out = one
            for h in range(1, _floor_half(i) + 1):
                out = out * (1 - scalar_pow(q, d - 2 * h + 1))
            for h in range(1, _ceil_half(i) + 1):
                out = out * (1 - k3 * k3 * scalar_pow(q, 2 - 2 * h))
            for h in range(1, d - i + 1):
                out = out * phi(h)
            return out

        def rec(L, i, j):
            if (i - j) % 2 == 0:
                return (
                    k1 * k1 * scalar_pow(q, i + j - d - 1) * (L[i - 1][j - 1] - L[i][j - 1])
                    + L[i][j - 1]
                )
            return (1 - scalar_pow(q, j - i - 1)) * L[i][j - 1] + L[i - 1][j] - L[i - 1][j - 1]

        return _l_matrix_from_recurrence(d, seed, rec)

    if route == ROUTE_CLOSED:
        rows = []
        for i in range(d + 1):
            row = []
            for j in range(d + 1):
                if i < j:
                    row.append(0)
                    continue
                fi, fj = _floor_half(i), _floor_half(j)
                val = scalar_pow(q, fj * (d - 4 * fi + 2 * fj - 1))
                for h in range(1, _floor_half(i - j) + 1):
                    val = val * (1 - scalar_pow(q, d - 2 * h + 1))
                for h in range(1, d - i + 1):
                    val = val * phi(h)
                for h in range(1, _ceil_half(j) + 1):
                    val = val * rho(2 * h - 1)
                for h in range(1, fj + 1):
                    val = val * rho(2 * (fi - h + 1))
                if i % 2 == 1 or j % 2 == 0:
                    for h in range(1, _ceil_half(i - j) + 1):
                        val = val * (1 - k3 * k3 * scalar_pow(q, 2 - 2 * h))
                else:
                    val = val * scalar_pow(q, d - 2 * i + 2 * j - 1) * rho(i - j + 1)
                    for h in range(1, _floor_half(i - j) + 1):
                        val = val * (1 - k3 * k3 * scalar_pow(q, 2 - 2 * h))
                row.append(val)
            rows.append(row)
        return Matrix(rows)

    raise DahaError(f"unknown route {route!r}")


def l_matrix_O(p: ParamQuadruple, route: str = ROUTE_OPERATOR) -> Matrix:
    """The lower-triangular coefficient matrix of the odd family.

    The column-0 closed seeds and the closed form are derived under the
    irreducibility criterion; when it fails, those routes are refused
    and the recurrence route seeds itself from the operator route
    instead of extrapolating.
    """
    if p.parity != PARITY_ODD:
        raise ParameterError("l_matrix_O needs an odd-family quadruple")
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    one = q ** 0
    rho = lambda h: seq_rho(q, k0, k1, k2, k3, h)
    psi = lambda h: seq_rho(q, k1, k2, k3, k0, h)
    criterion_holds = criterion_O(p)

    if route == ROUTE_OPERATOR:
        return _l_operator_O(p)

    if route == ROUTE_RECURRENCE:
        if criterion_holds:
            def seed(i):
                out = one
                for h in range(0, _floor_half(i - 1) + 1):
                    out = out * (1 - scalar_pow(q, 2 * h - d))
                for h in range(1, _floor_half(i) + 1):
                    out = out * (1 - k1 * k1 * k2 * k2 * scalar_pow(q, d + 2 * h))
                for h in range(1, d - i + 1):
                    out = out * psi(d - h + 1)
                return out
        else:
            operator_col0 = [row[0] for row in _l_operator_O(p).entries]

            def seed(i):
                return operator_col0[i]

        def rec(L, i, j):
            if (i - j) % 2 == 0:
                return (
                    (1 - k0 * k0 * k1 * k1 * scalar_pow(q, i + j)) * L[i][j - 1]
                    + L[i - 1][j]
                    - L[i - 1][j - 1]
                )
            return (
                scalar_pow(q, j - i - 1) * (L[i - 1][j - 1] - L[i][j - 1])
                + L[i][j - 1]
            )

        return _l_matrix_from_recurrence(d, seed, rec)

    if route == ROUTE_CLOSED:
        if not criterion_holds:
            raise ParameterError(
                "the closed form is only derived when the irreducibility "
                "criterion holds; use the operator or recurrence route"
            )
        rows = []
        for i in range(d + 1):
            row = []
            for j in range(d + 1):
                if i < j:
                    row.append(0)
                    continue
                cj, fj = _ceil_half(j), _floor_half(j)
                base = -(k1 * k1 * k2 * k2) * scalar_pow(q, d + i - cj)
                val = scalar_pow(base, cj) if cj else one
                for h in range(1, fj + 1):
                    val = val / (1 - scalar_pow(q, 2 * h))
                for h in range(cj, _floor_half(i - 1) + 1):
                    val = val * (1 - scalar_pow(q, 2 * h - d))
                for h in range(1, _floor_half(i) - cj + 1):
                    val = val * (1 - k1 * k1 * k2 * k2 * scalar_pow(q, d + 2 * h))
                for h in range(1, j + 1):
                    val = val * rho(h)
                for h in range(1, d - i + 1):
                    val = val * psi(d - h + 1)
                if i % 2 == 1 and j % 2 == 1 and i > j:
                    val = val * (
                        scalar_pow(q, j - d - 1) / (k3 * k3)
                        - k0 * k0 * scalar_pow(q, j + 1)
                        - scalar_pow(q, j - i)
                        + 1
                    )
                    for h in range(1, (j - 1) // 2 + 1):
                        val = val * (1 - scalar_pow(q, 2 * h - i - 1))
                elif i % 2 == 1 and j % 2 == 1:
                    val = val * (-(k0 * k0) * scalar_pow(q, i + 1))
                    for h in range(1, (i - 1) // 2 + 1):
                        val = val * (1 - scalar_pow(q, 2 * h - i - 1))
                elif i % 2 == 1 and j % 2 == 0:
                    for h in range(1, j // 2 + 1):
                        val = val * (1 - scalar_pow(q, 2 * h - i - 1))
                else:
                    for h in range(1, cj + 1):
                        val = val * (p.q - scalar_pow(q, 2 * h - i - 1))
                row.append(val)
            rows.append(row)
        return Matrix(rows)

    raise DahaError(f"unknown route {route!r}")


def _l_operator_O(p: ParamQuadruple) -> Matrix:
    """The operator route of the odd family: the ladder factors at 1/q,
    with the roles of X and X^-1 (and of Y and Y^-1) exchanged."""
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    module = make_O(p)
    xs = module.xinv_matrix(), module.x_matrix()
    ys = module.yinv_matrix(), module.y_matrix()
    r_factors = [_ladder_factor(*xs, 1 / (k0 * k3), 1 / q, h) for h in range(1, d + 1)]
    s_factors = [_ladder_factor(*ys, q / (k2 * k3), 1 / q, h) for h in range(1, d + 1)]
    return _l_operator(module, r_factors, s_factors)


def l_matrix_routes(p: ParamQuadruple):
    """Compute every route available for p and require entrywise
    agreement; disagreement is an internal error."""
    maker = l_matrix_E if p.parity == PARITY_EVEN else l_matrix_O
    routes = [ROUTE_OPERATOR, ROUTE_RECURRENCE]
    if p.parity == PARITY_EVEN or criterion_O(p):
        routes.append(ROUTE_CLOSED)
    out = {r: maker(p, r) for r in routes}
    reference = out[ROUTE_OPERATOR]
    for r, lm in out.items():
        if lm != reference:
            raise TranscriptionError(f"route {r} disagrees with the operator route")
    return out


# ---------------------------------------------------------------------------
# twisting and intertwiners
# ---------------------------------------------------------------------------

def twist(m: ModuleRep, e) -> ModuleRep:
    """Precompose the action with the cyclic generator shift by e: the
    new matrix of t_i is the old matrix of t_{i+e mod 4}."""
    out = _shift(m, e)
    if out is not m and not verify_relations(out).ok:
        raise TranscriptionError("twisted module fails the defining relations")
    return out


def _shift(m: ModuleRep, e) -> ModuleRep:
    """:func:`twist` without its relation check, for modules known to
    satisfy the relations.

    The shift keeps them: each generator keeps its inverse and its
    scalar t_i + t_i^{-1}, and the product of the shifted generators is
    a conjugate of the old one, t1 t2 t3 t0 = t0^{-1} (t0 t1 t2 t3) t0
    = t0^{-1} q^{-1} t0 = q^{-1}.  Lazy inverses stay lazy, their k's
    rotated with the generators.
    """
    e = int(e) % 4
    if e == 0:
        return m
    t = tuple(m.t[(i + e) % 4] for i in range(4))
    lazy = isinstance(m.tinv, _Inverses)
    return ModuleRep(
        dim=m.dim,
        t=t,
        tinv=m.tinv.rotated(e) if lazy else tuple(m.tinv[(i + e) % 4] for i in range(4)),
        params=m.params,
        twist=(m.twist + e) % 4,
        label=f"{m.label}^twist{e}",
    )


def det_fingerprint(m: ModuleRep):
    """The tuple (det t0, ..., det t3); an isomorphism invariant that
    separates twists."""
    return tuple(det(ti) for ti in m.t)


def _reshape(vec, rows: int, cols: int) -> Matrix:
    return Matrix([[vec[r * cols + c] for c in range(cols)] for r in range(rows)])


_MAX_COMBINATIONS = 32


def find_intertwiner(a: ModuleRep, b: ModuleRep):
    """An invertible T with T * t_i^(a) = t_i^(b) * T for all i, if one
    exists in the solution space of the four intertwining equations.

    Returns the matrix, or None when no invertible intertwiner exists,
    or INDETERMINATE when the solution space has dimension >= 2 and
    none of the tried combinations was invertible.  A square matrix is
    invertible when its rank is full, which elimination decides without
    the determinant's growth in degree over Q(q).
    """
    if a.dim != b.dim:
        return None  # no invertible map between different dimensions
    pairs = [(a.t[i], b.t[i]) for i in range(4)]
    space = solve_sylvester_homogeneous(pairs)
    if space.dim == 0:
        return None
    mats = [_reshape(v, b.dim, a.dim) for v in space.basis]
    for mat in mats:
        if rank(mat) == a.dim:
            return mat
    if space.dim == 1:
        return None
    for c in range(1, _MAX_COMBINATIONS + 1):
        combo = mats[0]
        power = 1
        for mat in mats[1:]:
            power *= c
            combo = combo + mat.scale(power)
        if rank(combo) == a.dim:
            return combo
    return INDETERMINATE


def is_intertwiner(T: Matrix, a: ModuleRep, b: ModuleRep) -> bool:
    return all(T * a.t[i] == b.t[i] * T for i in range(4))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    twist: int
    params: ParamQuadruple
    parity: str
    certificate: Matrix

    def to_json(self) -> dict:
        return {
            "twist": self.twist,
            "params": self.params.to_json(),
            "parity": self.parity,
            "certificate": self.certificate.to_json(),
        }


def _unit_quadratic_root(c):
    """A root in the base field of x^2 - c*x + 1, or None."""
    disc = c * c - 4
    s = scalar_sqrt(disc)
    if s is None:
        return None
    return (c + s) / 2


def classify(m: ModuleRep) -> ClassificationResult:
    """Identify an irreducible module inside the classification.

    Even dimension: the determinant fingerprint pins the twist (the
    unique cyclic position carrying q^{-d-1}), the central character of
    the untwisted module pins the parameters up to sign flips, the
    orbit is canonicalized, and the result is certified by an explicit
    intertwiner with the rebuilt reference module.  Odd dimension: the
    fingerprint *is* the parameter quadruple and the twist coordinate
    is fixed at zero.
    """
    report = verify_relations(m)
    if not report.ok:
        raise ParameterError("module fails the defining relations")
    result = _classify_verified(m)
    if not isinstance(result, ClassificationResult):
        raise ParameterError("module is reducible; classification needs irreducibility")
    return result


def _classify_verified(m: ModuleRep):
    """:func:`classify` for a module known to satisfy the relations: the
    result, or the closure dimension when m is reducible.  The route of
    :func:`_standard_intertwiner` goes first; when the recovery fails,
    a spin stops short (m is reducible) or no theta has kernel lines in
    both modules, the closure and the intertwining equations decide."""
    try:
        eps, params, reference = _recover(m)
    except ClassificationError as exc:
        failure, certificate = exc, None
    else:
        failure, certificate = None, _standard_intertwiner(m, reference, eps)
    if certificate is None:
        closure = span_closure(m.t)
        if closure != m.dim * m.dim:
            return closure
        if failure is not None:
            raise failure
        certificate = find_intertwiner(m, reference)
        if certificate is None or certificate is INDETERMINATE:
            raise ClassificationError("no invertible intertwiner certifies the result")
    return ClassificationResult(eps, params, params.parity, certificate)


def _recover(m: ModuleRep):
    """The twist, the canonical parameters and the reference module that
    :func:`classify` names for m, read off its determinant fingerprint
    and central character, which needs no irreducibility.  The twists
    of the reference need no relation check (see :func:`_shift`)."""
    q = m.params.q
    d = m.dim - 1
    fp = det_fingerprint(m)

    if m.dim % 2 == 0:
        target = scalar_pow(q, -d - 1)
        positions = [i for i, v in enumerate(fp) if v == target]
        if len(positions) != 1:
            raise ClassificationError("determinant fingerprint does not determine a unique twist")
        eps = (-positions[0]) % 4
        base = _shift(m, (4 - eps) % 4)
        c = central_character(base)
        k0 = c[0] / (1 + scalar_pow(q, d + 1))
        if not k0 or k0 * k0 != scalar_pow(q, -d - 1):
            raise ClassificationError("central character is inconsistent with k0^2 = q^{-d-1}")
        ks = [k0]
        for i in (1, 2, 3):
            root = _unit_quadratic_root(c[i])
            if root is None:
                raise ClassificationError(f"no field root recovers k{i} from the central character")
            ks.append(root)
        canonical = canonical_orbit_rep(_quadruple(q, ks, d, PARITY_EVEN))
        return eps, canonical, _shift(make_E(canonical), eps)
    recovered = _quadruple(q, fp, d, PARITY_ODD)
    return 0, recovered, make_O(recovered)


def _quadruple(q, ks, d: int, parity: str) -> ParamQuadruple:
    try:
        return ParamQuadruple(q, *ks, d=d, parity=parity)
    except ParameterError as exc:
        raise ClassificationError(str(exc)) from exc


def _standard_intertwiner(a: ModuleRep, b: ModuleRep, eps: int = 0):
    """A proof by Norton's test and a standard basis (R. A. Parker, "The
    computer calculation of modular characters (the Meat-Axe)", 1984;
    D. F. Holt and S. Rees, J. Austral. Math. Soc. A 57, 1994) that a is
    absolutely irreducible and isomorphic to b: the T with T t_k^(a) =
    t_k^(b) T, scaled to a leading 1 (row-major), or None when this
    route cannot decide.

    W = t_{(3-eps)%4} t_{(-eps)%4} (on a classify reference, the
    triangular X of an untwisted module).  theta runs over the diagonal
    of b's W, a's W[0][0] first when it is there (on a file in the
    ladder basis its eigenvector is e_0, which keeps the standard basis
    sparse), until ker(W_a - theta) = span(v) and ker(W_b - theta) =
    span(u) are lines (:func:`~daha.linalg.eigenline`); with none left
    the route declines.  Then :func:`~daha.linalg.standard_basis` spins
    v under a's generators and applies the words to u under b's, and
    spins w spanning ker(W_a^T - theta) under the transposes; either
    spin stopping short of n declines.  T = Q P^-1 is kept only when :func:`is_intertwiner`
    holds on all four generators.  Sound whatever the file's metadata
    says:

    * Norton's criterion: for a proper nonzero submodule N of a over the
      algebraic closure, theta is an eigenvalue of W on N or on a/N.  In
      the first case v lies in N, and so does its spin; in the second w
      lies in the annihilator of N, which is closed under the
      transposes, and so does its spin.  Both spins reach n, so a is
      absolutely irreducible;
    * T v = u is nonzero, so the kernel of the checked T is a submodule
      other than a, hence zero, and T is invertible (Schur's lemma);
    * an isomorphism a -> b sends v to a nonzero multiple of u, so it is
      T up to that factor: the route never misses one, and the scaled T
      is the reduced kernel vector :func:`find_intertwiner` returns, in
      the one field of the matrices (see :class:`~daha.linalg.Matrix`).
    """
    n = a.dim
    if b.dim != n:
        return None
    i3, i0 = (3 - eps) % 4, -eps % 4
    w_a, w_b = a.t[i3] * a.t[i0], b.t[i3] * b.t[i0]
    diagonal = [w_b.entry(i, i) for i in range(n)]
    for theta in (w_a.entry(0, 0), *diagonal):
        v = eigenline(w_a, theta) if theta in diagonal else None
        u = None if v is None else eigenline(w_b, theta)
        if u is None:
            continue
        bases = standard_basis(zip(a.t, b.t), v, u, eigenline(w_a, theta, True))
        if bases is None:
            return None  # a spin stopped short: a is reducible
        p_v, p_u = bases
        t = p_u * inverse(p_v)
        if not is_intertwiner(t, a, b):
            return None
        lead = next(x for x in (t.entry(i, j) for i in range(n) for j in range(n)) if x)
        return t.scale(1 / lead)
    return None
