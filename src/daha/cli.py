"""Command-line driver.

Subcommands: construct, verify, irreducible, classify, intertwiner,
twist, lmatrix, orbit, sweep, selftest.  Scalars cross this boundary
as exact strings, never decimals; reports are JSON with sorted keys so
identical seeds and arguments give byte-identical files.

Exit codes: 0 success, 2 usage (reserved by argparse), 3 parameter or
constraint violation, 4 unreadable or malformed input file,
5 verification failure, 6 classification failure, 7 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

from .analysis import (
    INDETERMINATE,
    _classify_verified,
    _shift,
    burnside_irreducible,
    criterion_E,
    criterion_O,
    det_fingerprint,
    find_intertwiner,
    l_matrix_E,
    l_matrix_O,
    l_matrix_routes,
)
from .errors import ClassificationError, DahaError, InputError, ParameterError
from .linalg import span_closure
from .modrep import (
    ModuleRep,
    central_character,
    commutation_check,
    ladder_check,
    make_E,
    make_O,
    verify_relations,
)
from .params import (
    PARITY_EVEN,
    PARITY_ODD,
    ParamQuadruple,
    canonical_orbit_rep,
    family_invariants,
    orbit_members,
)
from .scalar import (
    RatFun,
    field_by_name,
    scalar_from_str,
    scalar_pow,
    scalar_to_str,
)
from .selftest import run_all

EXIT_OK = 0
EXIT_CONSTRAINT = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_CLASSIFY = 6
EXIT_INTERNAL = 7

_MONOMIAL = re.compile(r"(?P<sign>-)?(?:(?P<coef>[0-9/]+)\*?)?q(?:\^(?P<exp>-?[0-9]+))?")


def _parse_scalar_token(tok: str):
    """One scalar: a rational, a RatFun in pipe form, or a +-(c)q^n
    shorthand whose coefficient c is a rational without sign; rationals
    follow the grammar of :func:`daha.scalar.scalar_from_str`."""
    tok = tok.strip()
    m = _MONOMIAL.fullmatch(tok)
    if m:
        coef = scalar_from_str(m.group("coef")) if m.group("coef") else 1
        if m.group("sign"):
            coef = -coef
        exp = int(m.group("exp")) if m.group("exp") else 1
        return coef * scalar_pow(RatFun.variable(), exp)
    return scalar_from_str(tok)


def _parse_k(text: str):
    sep = ";" if ";" in text else ","
    parts = [t for t in text.split(sep) if t.strip()]
    if len(parts) != 4:
        raise ParameterError(f"--k needs four values, got {len(parts)}")
    return [_parse_scalar_token(t) for t in parts]


def _parse_q(args, field):
    if args.q is None:
        return field.default_q()
    return _parse_scalar_token(args.q)


def _params_from_args(args) -> ParamQuadruple:
    field = field_by_name(args.backend)
    q = _parse_q(args, field)
    ks = _parse_k(args.k)
    return ParamQuadruple(q, *ks, d=args.d, parity=args.parity)


def _dump(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_module(path: str) -> ModuleRep:
    with open(path, encoding="utf-8") as fh:
        return ModuleRep.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    p = _params_from_args(args)
    module = make_E(p) if p.parity == PARITY_EVEN else make_O(p)
    if args.label:
        module = dataclasses.replace(module, label=args.label)
    _dump(module.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    module = _load_module(args.infile)
    sections = {"relations": verify_relations(module).to_json()}
    ok = sections["relations"]["ok"]
    character = None
    try:
        character = central_character(module)
        sections["central_character"] = [scalar_to_str(c) for c in character]
    except ParameterError as exc:
        sections["central_character"] = str(exc)
        ok = False
    sections["det_fingerprint"] = [scalar_to_str(x) for x in det_fingerprint(module)]
    if character is not None:
        commutation = commutation_check(module)
        sections["commutation"] = commutation.to_json()
        ok = ok and commutation.ok
    else:
        sections["commutation"] = "skipped: central combinations are not scalar"
    if module.twist == 0:
        for which in ("X", "Y"):
            rep = ladder_check(module, which)
            sections[f"ladder_{which}"] = rep.to_json()
            ok = ok and rep.ok
        matches, matches_fp = _matches_params(module, character)
        sections["character_matches_parameters"] = matches
        sections["fingerprint_matches_family"] = matches_fp
        ok = ok and matches and matches_fp
    sections["ok"] = ok
    _dump(sections, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _matches_params(module, character):
    """Whether an untwisted module's central character is (k_i + 1/k_i)
    and its determinant fingerprint is its family's, for the file's
    params; a character of None matches nothing."""
    expected_c, expected_fp = family_invariants(module.params)
    matches = character is not None and character == expected_c
    return matches, det_fingerprint(module) == expected_fp


def _verified(module, out_path) -> bool:
    """Whether module satisfies the defining relations; if not, write
    the "invalid" verdict with the relations report."""
    report = verify_relations(module)
    if not report.ok:
        _dump({"verdict": "invalid", "relations": report.to_json()}, out_path)
    return report.ok


def cmd_irreducible(args) -> int:
    module = _load_module(args.infile)
    if not _verified(module, args.out):
        return EXIT_VERIFY
    # the criterion speaks for the file's params only if the matrices
    # belong to them
    untwisted = module.twist == 0
    if untwisted and not all(_matches_params(module, central_character(module))):
        raise ParameterError(
            "the module's central character or determinant fingerprint does "
            "not match its params; see `daha verify`"
        )
    closure = span_closure(module.t)
    burnside = closure == module.dim * module.dim
    out = {
        "dim": module.dim,
        "closure_dim": closure,
        "irreducible": burnside,
        "criterion": None,
        "agrees": None,
    }
    if untwisted:
        p = module.params
        crit = criterion_E(p) if p.parity == PARITY_EVEN else criterion_O(p)
        out["criterion"] = crit
        out["agrees"] = crit == burnside
    _dump(out, args.out)
    if out["agrees"] is False:
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_classify(args) -> int:
    module = _load_module(args.infile)
    if not _verified(module, args.out):
        return EXIT_VERIFY
    result = _classify_verified(module)
    if isinstance(result, int):
        _dump({"verdict": "reducible", "closure_dim": result}, args.out)
    else:
        _dump({"verdict": "classified", **result.to_json()}, args.out)
    return EXIT_OK


def cmd_intertwiner(args) -> int:
    a = _load_module(args.a)
    b = _load_module(args.b)
    if not (_verified(a, args.out) and _verified(b, args.out)):
        return EXIT_VERIFY
    found = find_intertwiner(a, b)
    if found is None:
        _dump({"status": "none"}, args.out)
    elif found is INDETERMINATE:
        _dump({"status": "indeterminate"}, args.out)
    else:
        _dump({"status": "found", "matrix": found.to_json()}, args.out)
    return EXIT_OK


def cmd_twist(args) -> int:
    module = _load_module(args.infile)
    if not _verified(module, args.out):
        return EXIT_VERIFY
    _dump(_shift(module, args.e).to_json(), args.out)
    return EXIT_OK


def cmd_lmatrix(args) -> int:
    p = _params_from_args(args)
    maker = l_matrix_E if p.parity == PARITY_EVEN else l_matrix_O
    if args.route == "all":
        routes = l_matrix_routes(p)
    else:
        lm = maker(p, args.route)
        routes = {args.route: lm}
    _dump(
        {"d": p.d, "routes": {name: lm.entries.to_json() for name, lm in routes.items()}},
        args.out,
    )
    return EXIT_OK


def cmd_orbit(args) -> int:
    p = _params_from_args(args)
    _dump(
        {
            "canonical": canonical_orbit_rep(p).to_json(),
            "members": [m.to_json() for m in orbit_members(p)],
        },
        args.out,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    import random

    field = field_by_name(args.backend)
    from .sampling import sample_params

    rng = random.Random(f"{args.seed}:sweep")
    records = []
    all_ok = True
    for n in range(args.grid):
        p = sample_params(rng, args.parity, args.d, field=field)
        module = make_E(p) if args.parity == PARITY_EVEN else make_O(p)
        relations = verify_relations(module).ok
        crit = criterion_E(p) if args.parity == PARITY_EVEN else criterion_O(p)
        burnside = burnside_irreducible(module)
        agree = crit == burnside
        all_ok = all_ok and relations and agree
        records.append(
            {
                "params": p.to_json(),
                "relations_ok": relations,
                "criterion": crit,
                "burnside": burnside,
                "agree": agree,
            }
        )
    _dump({"seed": args.seed, "parity": args.parity, "d": args.d, "samples": records}, args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_selftest(args) -> int:
    results = run_all(seed=args.seed, grid=args.grid, backend=args.backend)
    if args.out:
        _dump({"results": [r.to_json() for r in results]}, args.out)
    counts = f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    print(counts)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_param_args(sub, with_parity=True):
    if with_parity:
        sub.add_argument("--parity", choices=(PARITY_EVEN, PARITY_ODD), required=True)
    sub.add_argument("--q", help="q as an exact string (default: 2, or formal q for --backend "
                     "ratfun); a value starting with '-' needs the form --q=-1/2")
    sub.add_argument(
        "--k",
        required=True,
        help="four comma-separated scalars; each a rational like 1/2, "
        "a power like q^-2 or -q^-2, or a 'num | den' coefficient list; "
        "a value starting with '-' needs the form --k=-1/2,1,-1,1",
    )
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--backend", choices=("rational", "ratfun"), default="rational")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``daha`` argument parser, built once per process: parsing
    leaves it unchanged, so every :func:`main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="daha",
        description="Exact workbench for modules of the universal double "
        "affine Hecke algebra of type (C1v, C1)",
        epilog="exit codes: 0 ok, 2 usage, 3 constraint violation, 4 I/O, "
        "5 verification failure, 6 classification failure, 7 internal error",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="build a module from parameters")
    _add_param_args(sub)
    sub.add_argument("--label")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_construct)

    for name, fn, text in (
        ("verify", cmd_verify, "check relations, ladders, characters"),
        ("irreducible", cmd_irreducible, "Burnside closure verdict"),
        ("classify", cmd_classify, "twist + canonical parameters with certificate"),
    ):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--in", dest="infile", required=True)
        sub.add_argument("--out")
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("intertwiner", help="solve the intertwining equations")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_intertwiner)

    sub = subs.add_parser("twist", help="cyclically permute the generator action")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--e", type=int, required=True)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_twist)

    sub = subs.add_parser("lmatrix", help="triangular coefficient matrix")
    _add_param_args(sub)
    sub.add_argument(
        "--route", choices=("operator", "recurrence", "closed", "all"), default="all"
    )
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_lmatrix)

    sub = subs.add_parser("orbit", help="sign-flip orbit and canonical representative")
    _add_param_args(sub, with_parity=False)
    sub.set_defaults(parity=PARITY_EVEN)
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_orbit)

    sub = subs.add_parser("sweep", help="random grid: relations + oracle agreement")
    sub.add_argument("--parity", choices=(PARITY_EVEN, PARITY_ODD), required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--grid", type=int, default=20)
    sub.add_argument("--seed", default="0")
    sub.add_argument("--backend", choices=("rational", "ratfun"), default="rational")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_sweep)

    sub = subs.add_parser("selftest", help="run the acceptance criteria")
    sub.add_argument("--seed", default="0")
    sub.add_argument("--grid", type=int, default=None)
    sub.add_argument("--backend", choices=("rational", "ratfun", "both"), default="both")
    sub.add_argument("--out")
    sub.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ClassificationError as exc:
        print(f"classification error: {exc}", file=sys.stderr)
        return EXIT_CLASSIFY
    except (OSError, json.JSONDecodeError, KeyError, ValueError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DahaError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
