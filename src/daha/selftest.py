"""The acceptance suite as a library.

Each criterion function runs one numbered acceptance criterion at a
configurable grid size and reports what it checked; the pytest
acceptance module and the command-line selftest both drive these.
Criteria 1-6 check both families in one loop, the even samples first.
Grid size semantics: None means the full mandated sample counts, 0
only the fixed structural samples, a larger value replaces the
per-parity random sample count, and a negative one raises ParameterError.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .analysis import (
    burnside_irreducible,
    classify,
    det_fingerprint,
    find_intertwiner,
    is_intertwiner,
    l_matrix_routes,
    twist,
    INDETERMINATE,
)
from .errors import ParameterError
from .modrep import (
    SparseVec,
    _construct,
    commutation_check,
    central_character,
    ladder_check,
    make_E,
    make_O,
    poly_apply,
    raising_product_annihilates,
    sparse_to_poly,
    verify_relations,
    verma_apply,
    verma_basis_image,
    verma_ladder_check,
    w_basis_check,
)
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    canonical_orbit_rep,
    family_invariants,
    violations,
)
from .sampling import adversarial_even, adversarial_odd, sample_free, sample_params
from .scalar import QQ, QQ_Q, scalar_pow

EVEN_DS = (1, 3, 5, 7)
ODD_DS = (0, 2, 4, 6)

# the top basis index of c7's and c8's ladder checks and polynomial realization
_MAX_LADDER = 12
_MAX_POLY = 10

_F = Fraction

FIXED_EVEN = (
    (1, (_F(1, 2), _F(1), _F(3), _F(1))),
    (3, (_F(1, 4), _F(2, 3), _F(3), _F(5, 7))),
    (5, (_F(1, 8), _F(2), _F(3), _F(5))),
    (7, (_F(1, 16), _F(1), _F(1), _F(1))),
)

FIXED_ODD = (
    (0, (_F(1), _F(1), _F(1), _F(1, 2))),
    (2, (_F(1), _F(1), _F(3), _F(1, 24))),
    (4, (_F(3, 2), _F(1, 3), _F(5), _F(1, 80))),
    (6, (_F(1), _F(2), _F(2), _F(1, 512))),
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    checks: int
    elapsed: float
    failures: list = dc_field(default_factory=list)

    @property
    def detail(self) -> str:
        msg = f"{self.checks} checks, {len(self.failures)} failures, {self.elapsed:.1f}s"
        if self.failures:
            msg += "; first: " + self.failures[0]
        return msg

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index}: {self.name} ({self.detail})"

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:20],
        }


def _rng(seed, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _count(grid, default: int) -> int:
    if grid is not None and grid < 0:
        raise ParameterError(f"grid must be at least 0, got {grid}")
    return default if grid is None else int(grid)


def _fixed_params(parity: str, max_d: int, field=QQ):
    fixed = FIXED_EVEN if parity == PARITY_EVEN else FIXED_ODD
    q = field.default_q()
    out = []
    for d, ks in fixed:
        if d > max_d:
            continue
        if field is QQ_Q:
            if parity == PARITY_EVEN:
                ks = (scalar_pow(q, -(d + 1) // 2), ks[1], ks[2], ks[3])
            else:
                ks = (
                    ks[0],
                    ks[1],
                    ks[2],
                    scalar_pow(q, -d - 1) / (ks[0] * ks[1] * ks[2]),
                )
        out.append(ParamQuadruple(q, *ks, d=d, parity=parity))
    return out


def _grid_params(rng, parity: str, count: int, ds, field=QQ):
    """Fixed structural samples plus `count` random samples spread over ds."""
    out = _fixed_params(parity, max_d=max(ds), field=field)
    for n in range(count):
        out.append(sample_params(rng, parity, ds[n % len(ds)], field=field))
    return out


def _criterion(index: int, name: str):
    def wrap(fn):
        def run(seed=0, grid=None) -> CriterionResult:
            start = time.monotonic()
            checks, failures = fn(seed, grid)
            return CriterionResult(
                index=index,
                name=name,
                passed=not failures,
                checks=checks,
                elapsed=time.monotonic() - start,
                failures=failures,
            )

        run.__name__ = fn.__name__
        return run

    return wrap


# -- criterion 1: relation suite -------------------------------------------

def _relation_sweep(modules):
    checks = 0
    failures = []
    for module in modules:
        report = verify_relations(module)
        checks += len(report.items)
        if not report.ok:
            failures.append(f"{module.label}: {report.failed()[0].name}")
    return checks, failures


@_criterion(1, "defining relations on random valid quadruples")
def criterion_1(seed, grid):
    count = _count(grid, 100)
    even = _grid_params(_rng(seed, "c1e"), PARITY_EVEN, count, EVEN_DS)
    odd = _grid_params(_rng(seed, "c1o"), PARITY_ODD, count, ODD_DS)
    return _relation_sweep(map(_construct, even + odd))


# -- criterion 2: central characters and determinant fingerprints ----------

def _character_sweep(modules):
    checks = 0
    failures = []
    for module in modules:
        expected_c, expected_fp = family_invariants(module.params)
        got_c = central_character(module)
        checks += 1
        if got_c != expected_c:
            failures.append(f"{module.label}: central character {got_c}")
        got_fp = det_fingerprint(module)
        checks += 1
        if got_fp != expected_fp:
            failures.append(f"{module.label}: fingerprint {got_fp}")
    return checks, failures


@_criterion(2, "central characters and determinant fingerprints")
def criterion_2(seed, grid):
    count = _count(grid, 100)
    even = _grid_params(_rng(seed, "c2e"), PARITY_EVEN, count, EVEN_DS)
    odd = _grid_params(_rng(seed, "c2o"), PARITY_ODD, count, ODD_DS)
    return _character_sweep(map(_construct, even + odd))


# -- criterion 3: closed-form criteria against the Burnside oracle ---------

def _adversarial_grid(seed, tag: str, count: int, n_adv: int):
    """Grid samples at d <= 5, then n_adv samples that fail exactly one
    atomic condition (odd ones at d >= 2, where the odd criterion is not
    vacuous); even samples first."""
    rng = _rng(seed, tag + "e")
    even = _grid_params(rng, PARITY_EVEN, count, (1, 3, 5))
    even += [adversarial_even(rng, (1, 3, 5)[n % 3]) for n in range(n_adv)]
    rng = _rng(seed, tag + "o")
    odd = _grid_params(rng, PARITY_ODD, count, (0, 2, 4))
    odd += [adversarial_odd(rng, (2, 4)[n % 2]) for n in range(n_adv)]
    return even + odd


@_criterion(3, "irreducibility criteria match the Burnside oracle")
def criterion_3(seed, grid):
    count = _count(grid, 200)
    n_adv = _count(grid if grid is None else grid // 10, 20)
    params = _adversarial_grid(seed, "c3", count, n_adv)
    failures = []
    for p in params:
        expected = not violations(p)
        got = burnside_irreducible(_construct(p))
        if expected != got:
            failures.append(f"{p.parity} {p.to_json()} criterion={expected} oracle={got}")
    return len(params), failures


# -- criterion 4: triangular coefficient matrix routes ---------------------

@_criterion(4, "coefficient matrix: three routes, triangularity, diagonal")
def criterion_4(seed, grid):
    count = _count(grid, 20)
    checks = 0
    failures = []
    for p in _adversarial_grid(seed, "c4", count, max(count // 4, 1)):
        try:
            routes = l_matrix_routes(p)
        except Exception as exc:  # route disagreement is a failure, not a crash
            failures.append(f"{p.to_json()}: {exc}")
            continue
        checks += len(routes)
        reference = routes["operator"].entries
        n = p.d + 1
        upper_ok = all(not reference[i][j] for i in range(n) for j in range(i + 1, n))
        checks += 1
        if not upper_ok:
            failures.append(f"{p.to_json()}: nonzero entry above the diagonal")
        diag_nonzero = all(reference[i][i] for i in range(n))
        crit = not violations(p)
        checks += 1
        if diag_nonzero != crit:
            failures.append(
                f"{p.to_json()}: diagonal nonvanishing {diag_nonzero} vs criterion {crit}"
            )
    return checks, failures


# -- criterion 5: isomorphism theorems as computations ----------------------

def _irreducible_params(rng, parity, count, ds):
    """Fixed irreducible quadruples plus `count` sampled irreducible ones,
    each the first irreducible one of at most 200 draws."""
    out = [p for p in _fixed_params(parity, max_d=max(ds)) if not violations(p)]
    for n in range(count):
        for _ in range(200):
            p = sample_params(rng, parity, ds[n % len(ds)])
            if not violations(p):
                out.append(p)
                break
        else:
            raise RuntimeError("could not sample an irreducible quadruple")
    return out


def _isomorphic_variants(p):
    """(module, failure text) for each module the isomorphism theorems
    make isomorphic to p's: p with k1, k2 or k3 inverted (even family),
    or p's parameters cycled by e and twisted back by e (odd family)."""
    if p.parity == PARITY_EVEN:
        yield make_E(p.with_k(k1=1 / p.k1)), "missing intertwiner"
        yield make_E(p.with_k(k2=1 / p.k2)), "missing intertwiner"
        yield make_E(p.with_k(k3=1 / p.k3)), "missing intertwiner"
        return
    k0, k1, k2, k3 = p.k
    for e, cycled in ((3, (k1, k2, k3, k0)), (2, (k2, k3, k0, k1)), (1, (k3, k0, k1, k2))):
        other = make_O(ParamQuadruple(p.q, *cycled, d=p.d, parity=PARITY_ODD))
        yield twist(other, e), f"missing twist-{e} intertwiner"


@_criterion(5, "isomorphism theorems realized by invertible intertwiners")
def criterion_5(seed, grid):
    count = _count(grid, 20)
    even = _irreducible_params(_rng(seed, "c5e"), PARITY_EVEN, count, (1, 3, 5))
    odd = _irreducible_params(_rng(seed, "c5o"), PARITY_ODD, count, (0, 2, 4))
    checks = 0
    failures = []
    for p in even + odd:
        module = _construct(p)
        label = f"{p.parity} {p.to_json()}"
        for other, missing in _isomorphic_variants(p):
            cert = find_intertwiner(module, other)
            checks += 1
            if cert is None or cert is INDETERMINATE or not is_intertwiner(cert, module, other):
                failures.append(f"{label}: {missing}")
        if p.d > 0:  # every even d; odd d >= 2
            negative = twist(module, 1)
            checks += 1
            if det_fingerprint(negative) == det_fingerprint(module):
                failures.append(f"{label}: twisted fingerprint collision")
            elif find_intertwiner(module, negative) is not None:
                failures.append(f"{label}: intertwiner to a twisted module")
    return checks, failures


# -- criterion 6: classification round trips --------------------------------

@_criterion(6, "classification round trips")
def criterion_6(seed, grid):
    count = _count(grid, 50)
    even = _irreducible_params(_rng(seed, "c6e"), PARITY_EVEN, count, (1, 1, 3, 3, 5))
    odd = _irreducible_params(_rng(seed, "c6o"), PARITY_ODD, count, (0, 2, 2, 4))
    checks = 0
    failures = []
    for p in even + odd:
        module = _construct(p)
        if p.parity == PARITY_EVEN:
            expected, twists = canonical_orbit_rep(p), range(4)
        else:
            expected, twists = p, (0,)
        for e in twists:
            result = classify(twist(module, e))
            checks += 1
            if result.twist != e or result.params != expected:
                where = f" twist {e}" if p.parity == PARITY_EVEN else ""
                failures.append(f"{p.parity} {p.to_json()}{where}: got {result.to_json()}")
    return checks, failures


# -- criterion 7: the infinite module, operator identities, polynomials -----

def _poly_intertwining(p: ParamQuadruple, max_i: int):
    failures = []
    for i in range(max_i + 1):
        image_i = verma_basis_image(i, p)
        mi = SparseVec.unit(i, p.q ** 0)
        for gen in range(4):
            left = poly_apply(gen, image_i, p)
            right = sparse_to_poly(verma_apply(gen, mi, p), p)
            if left != right:
                failures.append(f"{p.to_json()}: generator {gen} at index {i}")
    return failures


def _infinite_suite(params_list):
    checks = 0
    failures = []
    for p in params_list:
        ladder = verma_ladder_check(p, _MAX_LADDER)
        checks += len(ladder.items)
        if not ladder.ok:
            failures.append(f"{p.to_json()}: {ladder.failed()[0].name}")

        poly_failures = _poly_intertwining(p, _MAX_POLY)
        checks += 4 * (_MAX_POLY + 1)
        failures.extend(poly_failures)

        if p.parity in (PARITY_EVEN, PARITY_ODD):
            module = _construct(p)
            for mod in (module, twist(module, 1), twist(module, 3)):
                rep = commutation_check(mod)
                checks += len(rep.items)
                if not rep.ok:
                    failures.append(f"{mod.label}: {rep.failed()[0].name}")
            checks += 1
            if not raising_product_annihilates(module):
                failures.append(f"{module.label}: raising product misses zero")
            for which in ("X", "Y"):
                rep = ladder_check(module, which)
                checks += len(rep.items)
                if not rep.ok:
                    failures.append(f"{module.label}: {rep.failed()[0].name}")
            if p.parity == PARITY_EVEN:
                rep = w_basis_check(module)
                checks += len(rep.items)
                if not rep.ok:
                    failures.append(f"{module.label}: {rep.failed()[0].name}")
    return checks, failures


@_criterion(7, "infinite-module ladders, operator identities, polynomial realization")
def criterion_7(seed, grid):
    count = _count(grid, 4)
    params = _grid_params(_rng(seed, "c7e"), PARITY_EVEN, count, EVEN_DS)
    params += _grid_params(_rng(seed, "c7o"), PARITY_ODD, count, ODD_DS)
    rng_f = _rng(seed, "c7f")
    params += [sample_free(rng_f) for _ in range(max(count // 2, 1))]
    return _infinite_suite(params)


# -- criterion 8: the symbolic-q subset --------------------------------------

@_criterion(8, "symbolic-q backend: relations, characters, infinite module")
def criterion_8(seed, grid):
    count = _count(grid, 100)
    checks = 0
    failures = []

    even = _grid_params(_rng(seed, "c8e1"), PARITY_EVEN, count, (1, 3), QQ_Q)
    odd = _grid_params(_rng(seed, "c8o1"), PARITY_ODD, count, (0, 2), QQ_Q)
    modules = [_construct(p) for p in even + odd]  # built once, inverses shared
    c, f = _relation_sweep(modules)
    checks += c
    failures += f
    c, f = _character_sweep(modules)
    checks += c
    failures += f

    infinite_sets = _grid_params(_rng(seed, "c8e7"), PARITY_EVEN, 1, (3,), QQ_Q)
    infinite_sets += _grid_params(_rng(seed, "c8o7"), PARITY_ODD, 1, (2,), QQ_Q)
    infinite_sets = [p for p in infinite_sets if p.d <= 3]
    c, f = _infinite_suite(infinite_sets)
    checks += c
    failures += f
    return checks, failures


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all(seed=0, grid=None, backend="both"):
    """Run the acceptance criteria, printing one pass/fail line each."""
    results = []
    for crit in CRITERIA:
        if backend == "rational" and crit is criterion_8:
            continue
        if backend == "ratfun" and crit is not criterion_8:
            continue
        result = crit(seed=seed, grid=grid)
        results.append(result)
        print(result.line())
    return results
