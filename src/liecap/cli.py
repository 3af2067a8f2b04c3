"""Command-line front end and the JSON file format for algebras.

Exit status: 0 success, 1 bad input, an out-of-scope request or an --out
path that cannot be written, 2 a verification-style check failed (Jacobi
violation, --expect mismatch, or a failing verify-paper run).

Algebra files are JSON with 1-based indices and string coefficients:

    {
      "schema_version": "1",
      "name": "L4_3",
      "field": {"kind": "Q"},
      "dim": 4,
      "brackets": [
        {"i": 1, "j": 2, "out": [[3, "1"]]},
        {"i": 1, "j": 3, "out": [[4, "1"]]}
      ]
    }

Emission is canonical (sorted pairs, canonical scalar strings, fixed key
order), so emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, classify, schur
from .errors import EngineError
from .field import QQ, FieldSpec
from .liealg import LieAlgebra


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


# ======================================================================
# file format
# ======================================================================

def parse_field_flag(text: str) -> FieldSpec:
    s = text.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("gfp:"):
        try:
            p = int(s[4:])
        except ValueError:
            raise ValueError(f"bad prime in field flag {text!r}")
        return FieldSpec.gf(p)
    if s.startswith("gf") and s[2:].isdigit():
        return FieldSpec.gf(int(s[2:]))
    raise ValueError(
        f"unknown field {text!r}; use q, gf2, gf3, gf5, or gfp:P")


def algebra_from_doc(data) -> LieAlgebra:
    if not isinstance(data, dict):
        raise ValueError("top level: expected an object")
    if data.get("schema_version") != "1":
        raise ValueError('schema_version: expected "1"')
    fdoc = data.get("field")
    if not isinstance(fdoc, dict):
        raise ValueError("field: expected an object")
    field = FieldSpec.from_json(fdoc)
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ValueError("dim: expected a non-negative integer")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("name: expected a string")
    brackets = data.get("brackets")
    if not isinstance(brackets, list):
        raise ValueError("brackets: expected a list")
    table: dict = {}
    for t, entry in enumerate(brackets):
        where = f"brackets[{t}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object")
        i, j = entry.get("i"), entry.get("j")
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (i, j)):
            raise ValueError(f"{where}: i and j must be integers")
        if not (1 <= i < j <= dim):
            raise ValueError(
                f"{where}: need 1 <= i < j <= dim, got i={i}, j={j}")
        if (i - 1, j - 1) in table:
            raise ValueError(f"{where}: duplicate pair ({i}, {j})")
        out = entry.get("out")
        if not isinstance(out, list):
            raise ValueError(f"{where}.out: expected a list")
        parsed = {}
        for u, item in enumerate(out):
            spot = f"{where}.out[{u}]"
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], int)
                    or isinstance(item[0], bool)
                    or not isinstance(item[1], str)):
                raise ValueError(f"{spot}: expected [index, \"coeff\"]")
            k, coeff = item
            if not (1 <= k <= dim):
                raise ValueError(f"{spot}: index {k} outside 1..{dim}")
            if k - 1 in parsed:
                raise ValueError(f"{spot}: duplicate target index {k}")
            try:
                val = field.parse(coeff)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{spot}: bad coefficient {coeff!r}: {exc}")
            if val != field.zero:
                parsed[k - 1] = val
        if parsed:
            table[(i - 1, j - 1)] = parsed
    return LieAlgebra(field, dim, table, name=name)


def algebra_to_doc(L: LieAlgebra) -> dict:
    doc: dict = {"schema_version": "1"}
    if L.name:
        doc["name"] = L.name
    doc["field"] = L.field.to_json()
    doc["dim"] = L.dim
    out = []
    for (i, j) in sorted(L.table):
        entry = L.table[(i, j)]
        out.append({
            "i": i + 1,
            "j": j + 1,
            "out": [[k + 1, L.field.format(c)]
                    for k, c in sorted(entry.items())],
        })
    doc["brackets"] = out
    return doc


def doc_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_algebra(path: str) -> LieAlgebra:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
    return algebra_from_doc(data)


# ======================================================================
# output helpers
# ======================================================================

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def _emit_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            if isinstance(v, (list, tuple)):
                v = " ".join(str(x) for x in v)
            print(f"{k}: {_fmt(v)}")


def _check_expect(report: dict, expects) -> int:
    for raw in expects or []:
        if "=" not in raw:
            raise ValueError(f"--expect needs KEY=VAL, got {raw!r}")
        key, want = raw.split("=", 1)
        key = key.strip()
        if key not in report:
            raise ValueError(
                f"--expect key {key!r} not in report "
                f"(have: {', '.join(report)})")
        got = _fmt(report[key])
        if got.lower() != want.strip().lower():
            print(f"expect failed: {key} = {got}, wanted {want.strip()}",
                  file=sys.stderr)
            return 2
    return 0


# ======================================================================
# subcommands
# ======================================================================

def _jacobi_holds(L: LieAlgebra) -> bool:
    """Check Jacobi, printing the violated triples when it fails."""
    rep = L.validate()
    if not rep.ok:
        print("jacobi: violated at the following (i, j, k) triples:")
        for (i, j, k) in rep.violations:
            print(f"  ({i + 1}, {j + 1}, {k + 1})")
    return rep.ok


def _file_command(report_of):
    """A subcommand on one algebra file: load it, check Jacobi, emit its
    name, field and dim followed by report_of(L, args), and check
    --expect against the whole report."""
    def run(args) -> int:
        L = load_algebra(args.path)
        if not _jacobi_holds(L):
            return 2
        report = {"name": L.name or "(unnamed)", "field": str(L.field),
                  "dim": L.dim}
        report.update(report_of(L, args))
        _emit_report(report, args.json)
        return _check_expect(report, getattr(args, "expect", None))
    return run


@_file_command
def cmd_validate(L: LieAlgebra, args) -> dict:
    if not L.is_nilpotent:
        return {"jacobi": "ok", "nilpotent": False}
    return {
        "jacobi": "ok",
        "nilpotent": True,
        "class": L.nilpotency_class(),
        "lower_series_dims": [s.dim for s in L.lower_central_series()],
        "upper_series_dims": [s.dim for s in L.upper_central_series()],
    }


@_file_command
def cmd_analyze(L: LieAlgebra, args) -> dict:
    fp = classify.fingerprint(L)
    return {
        "class": fp.nilpotency_class,
        "lower_series_dims": list(fp.lower_dims),
        "upper_series_dims": list(fp.upper_dims),
        "dim_center": fp.dim_center,
        "dim_derived": fp.dim_derived,
        "dim_abelianization": fp.dim_abelianization,
        "dim_multiplier": fp.dim_multiplier,
        "dim_exterior_square": fp.dim_exterior_square,
        "dim_exterior_center": fp.dim_exterior_center,
        "capable": fp.capable,
        "stem": fp.is_stem,
        "gen_heisenberg_rank": fp.gen_heisenberg_rank,
        "maximal_class": fp.is_maximal_class,
    }


@_file_command
def cmd_capable(L: LieAlgebra, args) -> dict:
    if args.structural:
        verdict = classify.capability_structural(L)
        return {"capable": verdict.capable, "mode": "structural",
                "rule": verdict.rule, "family_label": verdict.family_label,
                "detail": verdict.detail}
    zc = schur.exterior_center(L)
    return {"capable": zc.is_zero, "mode": "ground-truth",
            "dim_exterior_center": zc.dim}


@_file_command
def cmd_multiplier(L: LieAlgebra, args) -> dict:
    return {"dim_multiplier": schur.schur_multiplier_dim(L),
            "dim_exterior_square": schur.exterior_square_dim(L)}


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name, (params, desc) in catalog.CATALOG.items():
            ptxt = f" (params: {', '.join(params)})" if params else ""
            print(f"{name}{ptxt}: {desc}")
        return 0
    # emit
    if not args.name:
        raise ValueError("catalog emit needs an algebra name")
    field = parse_field_flag(args.field)
    L = catalog.build(args.name, field, n=args.n, m=args.m,
                      eps=args.eps, eta=args.eta)
    text = doc_text(algebra_to_doc(L))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_paper(args) -> int:
    flags = args.field or ["q", "gf2"]
    fields = []
    for flag in flags:
        f = parse_field_flag(flag)
        if f not in fields:
            fields.append(f)
    report = classify.verify_paper(fields=fields, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json(), indent=2) + "\n")
    return 0 if report.all_passed else 2


# ======================================================================
# parser
# ======================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liecap",
        description="Exact capability and Schur multiplier computations "
                    "for nilpotent Lie algebras over Q and GF(p).")
    sub = parser.add_subparsers(dest="command")

    def common(p, expect=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if expect:
            p.add_argument("--expect", action="append", metavar="KEY=VAL",
                           help="fail with status 2 unless report[KEY] "
                            "equals VAL (repeatable)")

    p = sub.add_parser("validate", help="check a JSON algebra file")
    p.add_argument("path")
    common(p, expect=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full invariant fingerprint")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("capable", help="capability decision")
    p.add_argument("path")
    p.add_argument("--structural", action="store_true",
                   help="use the dimension-based rules (dim L^2 <= 2) "
                        "instead of the exterior center")
    common(p)
    p.set_defaults(func=cmd_capable)

    p = sub.add_parser("multiplier", help="Schur multiplier dimension")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_multiplier)

    p = sub.add_parser("catalog", help="list or emit named algebras")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--field", default="q",
                   help="q, gf2, gf3, gf5, or gfp:P")
    p.add_argument("--n", type=int, help="abelian dimension for A(n)")
    p.add_argument("--m", type=int, help="Heisenberg parameter for H(m)")
    p.add_argument("--eps", help="scalar parameter for L6_22")
    p.add_argument("--eta", help="scalar parameter for L6_7_2")
    p.add_argument("--out", help="write the file here instead of stdout")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-paper",
                       help="run the bundled verification suite")
    p.add_argument("--field", action="append",
                   help="field flag, repeatable (default: q and gf2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (EngineError, ValueError, ZeroDivisionError, OverflowError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
