"""Batch command-line front door.

Machine-readable output (JSON or TSV) goes to stdout or --out and is
byte-identical for identical configuration and seed; human-oriented
progress and per-case timing go to stderr. Exit codes: 0 success, 1 input
error, 2 resource bound exceeded, 3 verification failure. Each command
imports the layers it reads when it runs, so a call loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BijectionFailure,
    CocycleError,
    CounterexampleFound,
    DEFAULT_MAX_FIELD,
    DEFAULT_MAX_GROUP_ORDER,
    DimensionFailure,
    MatchFailure,
    SizeLimit,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_VERIFY = 3


def _parse_tower(spec: str):
    parts = spec.split("x")
    if len(parts) != 3:
        raise ValueError(f"tower spec must look like PxDxN, got {spec!r}")
    return tuple(int(x) for x in parts)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(payload: dict, args) -> None:
    from .serialize import dumps, to_tsv

    text = to_tsv(payload) if args.format == "tsv" else dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_h1(args) -> int:
    from .cohomology import h1
    from .serialize import h1_payload, load_action

    obj = _read_json(args.input)
    parent = load_action(obj, args.max_group_order)
    payload = h1_payload(h1(parent))
    payload["seed"] = args.seed
    _emit(payload, args)
    return EXIT_OK


def etale_payload(gamma, m: int, tower) -> dict:
    """One row per algebra class of dimension ``m``; realized over ``tower`` if given."""
    from .etale import (
        classify_etale,
        discriminant_is_trivial,
        factor_structure,
        is_cyclic_field,
        is_field,
        is_galois,
        realize_over_fq,
    )

    rows = []
    for cls in classify_etale(gamma, m):
        sym = cls.psi.target
        field = is_field(cls)
        row = {
            "psi": {str(g): list(sym.perms[cls.psi(g)]) for g in cls.gamma.generators()},
            "orbits": [list(o) for o in cls.orbits],
            "factor_structure": list(factor_structure(cls)),
            "is_field": field,
            "is_cyclic": is_cyclic_field(cls),
            "discriminant_trivial": discriminant_is_trivial(cls),
            "is_galois": is_galois(cls)[0] if field else False,
        }
        if tower is not None:
            row["realized_factor_degrees"] = list(realize_over_fq(tower, cls).factor_degrees)
        rows.append(row)
    return {"dimension": m, "gamma_order": gamma.order, "rows": rows}


def cmd_etale(args) -> int:
    from .fields import make_tower
    from .serialize import check_family_order, load_group

    obj = _read_json(args.input)
    check_family_order("symmetric", args.dim, args.max_group_order)  # S_m, before any table
    gamma = load_group(obj, args.max_group_order)
    tower = None
    if args.tower:
        p, d, n = _parse_tower(args.tower)
        tower = make_tower(p, d, n, args.max_field)
    payload = etale_payload(gamma, args.dim, tower)
    payload["seed"] = args.seed
    _emit(payload, args)
    return EXIT_OK


def cmd_hilbert90(args) -> int:
    from .fields import make_tower
    from .galois import hilbert90_verify, sl_h1_verify

    p, d, n = _parse_tower(args.tower)
    tower = make_tower(p, d, n, args.max_field)
    report = (sl_h1_verify if args.sl else hilbert90_verify)(tower, args.dim)
    payload = {
        "tower": {"p": p, "d": d, "n": n},
        "dim": args.dim,
        "special": bool(args.sl),
        "group_size": report.group_size,
        "cocycles": report.n_cocycles,
        "all_coboundaries": report.n_coboundaries == report.n_cocycles,
        "seed": args.seed,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_forms(args) -> int:
    from .galois import classify_forms
    from .serialize import load_tensor

    obj = _read_json(args.input)
    tower, tensor = load_tensor(obj, args.max_field)
    report = classify_forms(tower, tensor)
    payload = {
        "classes": report.n_classes,
        "cohomology_classes": report.h1_stabilizer.order,
        "stabilizer_size": report.stabilizer_size,
        "matching": [list(pair) for pair in report.matching],
        "seed": args.seed,
    }
    _emit(payload, args)
    return EXIT_OK


def quad_payload(d: int) -> dict:
    from .quad import make_ring, verify_units_iso

    ring = make_ring(d)
    iso = verify_units_iso(ring)
    return {
        "d": d,
        "discriminant": ring.discriminant,
        "ramified": [
            {"p": p, "ideal": [ideal.a, ideal.b, ideal.c]} for p, ideal in iso.quotient.ramified
        ],
        "quotient_order": iso.quotient.order,
        "h1_order": iso.h1.order,
        "matched": iso.matched,
        "witnesses": [
            {"subset": list(subset), "generator": list(gen), "class": cls}
            for subset, gen, cls in iso.pairs
        ],
    }


def cmd_quad(args) -> int:
    payload = quad_payload(args.d)
    payload["seed"] = args.seed
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .suites import run_suite

    rows = []
    for row, seconds in run_suite(args.suite):
        rows.append(row)
        status = "pass" if row["passed"] else "FAIL"
        print(f"[{row['suite']}] {status} {row['case']} ({seconds:.3f}s)", file=sys.stderr)
        if not row["passed"]:
            print(f"    counterexample: {row['details']}", file=sys.stderr)
    failed = sum(not row["passed"] for row in rows)
    payload = {
        "suites": sorted({row["suite"] for row in rows}),
        "cases": len(rows),
        "failed": failed,
        "rows": rows,
        "seed": args.seed,
    }
    _emit(payload, args)
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle",
        description="Cohomology of finite group actions and its classification applications.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="recorded in every output")
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--out", help="write machine output to a file instead of stdout")
    common.add_argument(
        "--max-group-order",
        type=int,
        default=DEFAULT_MAX_GROUP_ORDER,
        help="bound on constructed group orders",
    )
    common.add_argument(
        "--max-field",
        type=int,
        default=DEFAULT_MAX_FIELD,
        help="bound on finite field sizes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_h1 = sub.add_parser("h1", help="cocycle classes of an action file", parents=[common])
    p_h1.add_argument("--input", required=True, help="action JSON path")
    p_h1.set_defaults(func=cmd_h1)

    p_etale = sub.add_parser("etale", help="classify algebra classes for a group", parents=[common])
    p_etale.add_argument("--input", required=True, help="group reference JSON path")
    p_etale.add_argument("--dim", type=int, required=True)
    p_etale.add_argument("--tower", help="PxDxN, realize classes over this tower")
    p_etale.set_defaults(func=cmd_etale)

    p_h90 = sub.add_parser("hilbert90", help="exhaustive cocycle scan over a tower", parents=[common])
    p_h90.add_argument("--tower", required=True, help="PxDxN, e.g. 3x1x2")
    p_h90.add_argument("--dim", type=int, default=1)
    p_h90.add_argument("--sl", action="store_true", help="scan SL instead of GL")
    p_h90.set_defaults(func=cmd_hilbert90)

    p_forms = sub.add_parser("forms", help="classify the forms of a tensor", parents=[common])
    p_forms.add_argument("--input", required=True, help="tensor JSON path")
    p_forms.set_defaults(func=cmd_forms)

    p_quad = sub.add_parser("quad", help="unit cohomology of an imaginary quadratic ring", parents=[common])
    p_quad.add_argument("--d", type=int, required=True)
    p_quad.set_defaults(func=cmd_quad)

    p_verify = sub.add_parser("verify", help="run a named verification suite", parents=[common])
    p_verify.add_argument(
        "--suite",
        required=True,
        help="forms | h2 | hilbert90 | kernel-bijection | shapiro | twisted | units | all",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_group_order <= 0 or args.max_field <= 0:
        print("error: bounds must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except SizeLimit as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (BijectionFailure, CounterexampleFound, DimensionFailure, MatchFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, ValueError, KeyError, CocycleError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
