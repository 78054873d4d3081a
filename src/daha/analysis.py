"""Irreducibility, triangular coefficient matrices, twisting,
intertwiners, and classification of finite-dimensional modules.

Irreducibility is decided two independent ways: the closed-form
parameter criteria, and the Burnside oracle (the unital matrix algebra
generated by the four generator matrices has full dimension n**2 iff
the module is absolutely irreducible).  The classification recovers
the twist from the determinant fingerprint, the parameters from the
central character, and certifies the answer with an explicit
invertible intertwiner -- nothing is trusted without a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DahaError, ClassificationError, ParameterError, TranscriptionError
from .linalg import Matrix, det, kernel, solve_sylvester_homogeneous, span_closure
from .modrep import ModuleRep, central_character, make_E, make_O, verify_relations
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    TwistElement,
    canonical_orbit_rep,
    seq_phi,
    seq_psi,
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
    matrix algebra has dimension dim**2."""
    return span_closure(m.t) == m.dim * m.dim


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

@dataclass(frozen=True)
class LMatrix:
    d: int
    entries: Matrix
    route: str

    def to_json(self) -> dict:
        return {"d": self.d, "route": self.route, "matrix": self.entries.to_json()}


def _ceil_half(i: int) -> int:
    return (i + 1) // 2


def _floor_half(i: int) -> int:
    return i // 2


def _prod(factors, one):
    out = one
    for f in factors:
        out = out * f
    return out


def _l_operator(module: ModuleRep, r_factors, s_factors_for) -> Matrix:
    """Read L off the module: L[i][j] is the 0-coordinate of R*S_i
    applied to basis vector j; all other coordinates must vanish."""
    ident = module.identity_matrix()
    r_mat = _prod(r_factors, ident)
    rows = []
    for i in range(module.dim):
        rs = r_mat * _prod(s_factors_for(i), ident)
        if any(any(row) for row in rs.entries[1:]):
            raise TranscriptionError("lowering product did not land in the base line")
        rows.append(rs.entries[0])
    return Matrix(rows)


def _l_matrix_from_recurrence(d: int, seed_col0, rec, zero) -> Matrix:
    """Fill the (d+1) x (d+1) matrix from column-0 seeds and the
    two-case recurrence; entries above the diagonal must come out zero."""
    L = [[zero for _ in range(d + 1)] for _ in range(d + 1)]
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


def l_matrix_E(p: ParamQuadruple, route: str = ROUTE_OPERATOR) -> LMatrix:
    """The lower-triangular coefficient matrix of the even family."""
    if p.parity != PARITY_EVEN:
        raise ParameterError("l_matrix_E needs an even-family quadruple")
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    one = q ** 0
    zero = q * 0
    phi = lambda h: seq_phi(q, k0, k1, k2, k3, h)
    rho = lambda h: seq_rho(q, k0, k1, k2, k3, h)

    if route == ROUTE_OPERATOR:
        module = make_E(p)
        x, xi = module.x_matrix(), module.xinv_matrix()
        y, yi = module.y_matrix(), module.yinv_matrix()
        ident = module.identity_matrix()
        r_factors = [
            ident
            - (x if h % 2 else xi).scale(k0 * k3 * scalar_pow(q, 2 * _ceil_half(h)))
            for h in range(1, d + 1)
        ]

        def s_factors_for(i):
            return [
                ident
                - (yi if h % 2 else y).scale(
                    (k0 / k1) * scalar_pow(q, 2 * _ceil_half(h - 1))
                )
                for h in range(1, d - i + 1)
            ]

        return LMatrix(d, _l_operator(module, r_factors, s_factors_for), route)

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

        return LMatrix(d, _l_matrix_from_recurrence(d, seed, rec, zero), route)

    if route == ROUTE_CLOSED:
        rows = []
        for i in range(d + 1):
            row = []
            for j in range(d + 1):
                if i < j:
                    row.append(zero)
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
        return LMatrix(d, Matrix(rows), route)

    raise DahaError(f"unknown route {route!r}")


def l_diagonal_E(p: ParamQuadruple, i: int):
    """Closed product form of the i-th diagonal entry for the even family."""
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    fi = _floor_half(i)
    val = scalar_pow(q, fi * (d - 2 * fi - 1))
    for h in range(1, d - i + 1):
        val = val * seq_phi(q, k0, k1, k2, k3, h)
    for h in range(1, _ceil_half(i) + 1):
        val = val * seq_rho(q, k0, k1, k2, k3, 2 * h - 1)
    for h in range(1, fi + 1):
        val = val * seq_rho(q, k0, k1, k2, k3, 2 * (fi - h + 1))
    return val


def l_matrix_O(p: ParamQuadruple, route: str = ROUTE_OPERATOR) -> LMatrix:
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
    zero = q * 0
    rho = lambda h: seq_rho(q, k0, k1, k2, k3, h)
    psi = lambda h: seq_psi(q, k0, k1, k2, k3, h)
    criterion_holds = criterion_O(p)

    if route == ROUTE_OPERATOR:
        return LMatrix(d, _l_operator_O(p), route)

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

        return LMatrix(d, _l_matrix_from_recurrence(d, seed, rec, zero), route)

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
                    row.append(zero)
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
        return LMatrix(d, Matrix(rows), route)

    raise DahaError(f"unknown route {route!r}")


def _l_operator_O(p: ParamQuadruple) -> Matrix:
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    module = make_O(p)
    x, xi = module.x_matrix(), module.xinv_matrix()
    y, yi = module.y_matrix(), module.yinv_matrix()
    ident = module.identity_matrix()
    r_factors = [
        ident
        - (xi if h % 2 else x).scale(
            scalar_pow(q, -2 * _ceil_half(h)) / (k0 * k3)
        )
        for h in range(1, d + 1)
    ]

    def s_factors_for(i):
        return [
            ident
            - (yi if h % 2 else y).scale(
                scalar_pow(q, 1 - 2 * _ceil_half(h)) / (k2 * k3)
            )
            for h in range(1, d - i + 1)
        ]

    return _l_operator(module, r_factors, s_factors_for)


def l_diagonal_O(p: ParamQuadruple, i: int):
    """Closed product form of the i-th diagonal entry for the odd family."""
    q, (k0, k1, k2, k3), d = p.q, p.k, p.d
    ci, fi = _ceil_half(i), _floor_half(i)
    base = -(k1 * k1 * k2 * k2) * scalar_pow(q, d + fi)
    val = scalar_pow(base, ci) if ci else q ** 0
    for h in range(1, fi + 1):
        val = val / (1 - scalar_pow(q, 2 * h))
    for h in range(1, i + 1):
        val = val * seq_rho(q, k0, k1, k2, k3, h)
    for h in range(1, d - i + 1):
        val = val * seq_psi(q, k0, k1, k2, k3, d - h + 1)
    if i % 2:
        val = val * (-(k0 * k0) * scalar_pow(q, i + 1))
        for h in range(1, (i - 1) // 2 + 1):
            val = val * (1 - scalar_pow(q, 2 * h - i - 1))
    else:
        for h in range(1, i // 2 + 1):
            val = val * (q - scalar_pow(q, 2 * h - i - 1))
    return val


def l_matrix_routes(p: ParamQuadruple):
    """Compute every route available for p and require entrywise
    agreement; disagreement is an internal error."""
    maker = l_matrix_E if p.parity == PARITY_EVEN else l_matrix_O
    routes = [ROUTE_OPERATOR, ROUTE_RECURRENCE]
    if p.parity == PARITY_EVEN or criterion_O(p):
        routes.append(ROUTE_CLOSED)
    out = {r: maker(p, r) for r in routes}
    reference = out[ROUTE_OPERATOR].entries
    for r, lm in out.items():
        if lm.entries != reference:
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
    = t0^{-1} q^{-1} t0 = q^{-1}.
    """
    e = int(e) % 4
    if e == 0:
        return m
    return ModuleRep(
        dim=m.dim,
        t=tuple(m.t[(i + e) % 4] for i in range(4)),
        tinv=tuple(m.tinv[(i + e) % 4] for i in range(4)),
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
    none of the tried combinations was invertible.
    """
    if a.dim != b.dim:
        return None  # no invertible map between different dimensions
    pairs = [(a.t[i], b.t[i]) for i in range(4)]
    space = solve_sylvester_homogeneous(pairs)
    if space.dim == 0:
        return None
    mats = [_reshape(v, b.dim, a.dim) for v in space.basis]
    for mat in mats:
        if det(mat):
            return mat
    if space.dim == 1:
        return None
    for c in range(1, _MAX_COMBINATIONS + 1):
        combo = mats[0]
        power = 1
        for mat in mats[1:]:
            power *= c
            combo = combo + mat.scale(power)
        if det(combo):
            return combo
    return INDETERMINATE


def is_intertwiner(T: Matrix, a: ModuleRep, b: ModuleRep) -> bool:
    return all(T * a.t[i] == b.t[i] * T for i in range(4))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    twist: TwistElement
    params: ParamQuadruple
    parity: str
    certificate: Matrix

    def to_json(self) -> dict:
        return {
            "twist": self.twist.value,
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
    if not burnside_irreducible(m):
        raise ParameterError("module is reducible; classification needs irreducibility")
    return _classify_irreducible(m)


def _classify_irreducible(m: ModuleRep) -> ClassificationResult:
    """:func:`classify` for a module already known to satisfy the
    relations and to be irreducible.  Its twists, and those of the
    reference module :func:`make_E` builds, need no relation check (see
    :func:`_shift`)."""
    q = m.params.q
    d = m.dim - 1

    if m.dim % 2 == 0:
        target = scalar_pow(q, -d - 1)
        fp = det_fingerprint(m)
        positions = [i for i, v in enumerate(fp) if v == target]
        if len(positions) != 1:
            raise ClassificationError(
                "determinant fingerprint does not determine a unique twist"
            )
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
                raise ClassificationError(
                    f"no field root recovers k{i} from the central character"
                )
            ks.append(root)
        try:
            recovered = ParamQuadruple(q, *ks, d=d, parity=PARITY_EVEN)
        except ParameterError as exc:
            raise ClassificationError(str(exc)) from exc
        canonical = canonical_orbit_rep(recovered)
        reference = _shift(make_E(canonical), eps)
        certificate = find_intertwiner(m, reference)
        if certificate is None or certificate is INDETERMINATE:
            raise ClassificationError("no invertible intertwiner certifies the result")
        return ClassificationResult(TwistElement(eps), canonical, PARITY_EVEN, certificate)

    fp = det_fingerprint(m)
    try:
        recovered = ParamQuadruple(q, *fp, d=d, parity=PARITY_ODD)
    except ParameterError as exc:
        raise ClassificationError(str(exc)) from exc
    reference = make_O(recovered)
    certificate = find_intertwiner(m, reference)
    if certificate is None or certificate is INDETERMINATE:
        raise ClassificationError("no invertible intertwiner certifies the result")
    return ClassificationResult(TwistElement(0), recovered, PARITY_ODD, certificate)


# ---------------------------------------------------------------------------
# simultaneous eigenvectors
# ---------------------------------------------------------------------------

def simultaneous_eigenvector(m: ModuleRep, pair):
    """A common eigenvector of generators i and j, if one exists for
    eigenvalue candidates read from the central character."""
    i, j = pair
    c = central_character(m)
    ident = m.identity_matrix()

    def candidates(ci):
        root = _unit_quadratic_root(ci)
        if root is None:
            return []
        other = ci - root
        return [root] if other == root else [root, other]

    for lam in candidates(c[i]):
        for mu in candidates(c[j]):
            stacked = Matrix(
                list((m.t[i] - ident.scale(lam)).entries)
                + list((m.t[j] - ident.scale(mu)).entries)
            )
            common = kernel(stacked)
            if common.dim:
                return common.basis[0]
    return None
