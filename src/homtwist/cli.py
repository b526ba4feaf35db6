"""Command-line front end and the JSON algebra-document format.

Commands: ``check``, ``construct``, ``search``, ``catalog``, ``eval``.
Exit codes are the machine contract: 0 = pass, 1 = an identity or
precondition failed (witnesses printed), 2 = usage, parse or budget error.

Document schema (format 1)::

    {
      "format": 1,
      "dim": 3,
      "params": ["a", "b"],
      "signature": "associative",
      "ops": {"mul": [[["a","0","0"], ...], ...]},   # ops[name][i][j][k]
      "alpha": [["a","0","0"], ...],                 # alpha[i][j], column action
      "rb": {"weight": "0", "R": [["1","0"], ...]},  # optional
      "labels": ["x1", "x2", "x3"]                   # optional
    }

``ops[name][i][j]`` lists the coordinates of e_i o e_j; every entry is a
scalar expression string over ``params``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import axioms, constructions
from .catalog import catalog_get, catalog_list
from .core import BilinearOp, HomAlgebra, LinearMap, RotaBaxter, Signature
from .scalar import Scalar, as_rational, parse_scalar
from .search import SearchConfig, centroid_basis, search_rb, search_rb_oracle

__all__ = ["to_document", "from_document", "save_algebra", "load_algebra", "main", "console_main"]

DOCUMENT_FORMAT = 1

# -- document serialization ----------------------------------------------------


def _strings(m: LinearMap) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def to_document(A: HomAlgebra) -> dict:
    """Serialize an algebra to the JSON document structure."""
    doc = {
        "format": DOCUMENT_FORMAT,
        "dim": A.dim,
        "params": list(A.params),
        "signature": A.signature.cls,
        "ops": {
            name: [
                [[str(x) for x in A.ops[name].pair(i, j)] for j in range(A.dim)]
                for i in range(A.dim)
            ]
            for name in A.signature.op_names
        },
        "alpha": _strings(A.alpha),
        "labels": list(A.basis_labels),
    }
    if A.rb is not None:
        doc["rb"] = {"weight": str(A.rb.theta), "R": _strings(A.rb.R)}
    return doc


def _is_array(obj, dim: int, depth: int) -> bool:
    """Whether obj is lists nested ``depth`` deep, each of length ``dim``."""
    if not isinstance(obj, list) or len(obj) != dim:
        return False
    return depth == 1 or all(_is_array(x, dim, depth - 1) for x in obj)


def _parse_matrix(obj, dim: int, params, what: str) -> LinearMap:
    if not _is_array(obj, dim, 2):
        raise ValueError(f"{what} must be a {dim}x{dim} array of scalar strings")
    return LinearMap([[parse_scalar(str(x), params) for x in row] for row in obj], params)


def from_document(doc: dict) -> HomAlgebra:
    """Parse a document dict back into an algebra (strict schema)."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    # bool is an int and 1.0 == 1: both are refused
    if type(doc.get("format")) is not int or doc["format"] != DOCUMENT_FORMAT:
        raise ValueError(f"unsupported document format: {doc.get('format')!r}")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise ValueError("dim must be a positive integer")
    params = doc.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ValueError("params must be a list of strings")
    params = tuple(params)
    cls = doc.get("signature")
    ops_obj = doc.get("ops")
    if not isinstance(ops_obj, dict) or not ops_obj:
        raise ValueError("ops must be a nonempty object")
    # Signature refuses a bad class or op set and puts fixed ops in their order
    signature = Signature(cls, tuple(sorted(ops_obj)))
    ops = {}
    for name in signature.op_names:
        table = ops_obj[name]
        if not _is_array(table, dim, 3):
            raise ValueError(f"operation {name!r} must be a {dim}x{dim}x{dim} array")
        ops[name] = BilinearOp(
            [[[parse_scalar(str(x), params) for x in vec] for vec in row] for row in table],
            params,
        )
    alpha = _parse_matrix(doc.get("alpha"), dim, params, "alpha")
    rb = None
    if "rb" in doc and doc["rb"] is not None:
        rb_obj = doc["rb"]
        if not isinstance(rb_obj, dict) or "weight" not in rb_obj or "R" not in rb_obj:
            raise ValueError("rb must carry 'weight' and 'R'")
        rb = RotaBaxter(
            parse_scalar(str(rb_obj["weight"]), params),
            _parse_matrix(rb_obj["R"], dim, params, "rb.R"),
        )
    labels = doc.get("labels") or []
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("labels must be a list of strings")
    labels = tuple(labels)
    return HomAlgebra(dim, params, signature, ops, alpha, rb, labels)


def save_algebra(A: HomAlgebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(A), fh, indent=2)
        fh.write("\n")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_algebra(path: str) -> HomAlgebra:
    return from_document(_read_json(path))


# -- shared helpers --------------------------------------------------------------


class UsageError(ValueError):
    pass


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational in {what}: {exc}") from exc


def _parse_assignments(pairs) -> dict[str, Fraction]:
    assignment = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"bad --set {item!r}; expected name=value")
        assignment[name] = _parse_rational(value, f"--set {item!r}")
    return assignment


def _load_input(args) -> HomAlgebra:
    if bool(args.file) == bool(args.fixture):
        raise UsageError("provide exactly one of FILE or --fixture")
    if args.fixture:
        algebra = catalog_get(args.fixture, dim=args.dim)
    else:
        algebra = load_algebra(args.file)
    assignment = _parse_assignments(args.set)
    if assignment:
        algebra = algebra.specialize(assignment)
    return algebra


def _format_residual(A: HomAlgebra, residual) -> str:
    pieces = []
    for coord, label in zip(residual, A.basis_labels):
        if coord.is_zero():
            continue
        text = str(coord)
        if text == "1":
            pieces.append(label)
        elif text == "-1":
            pieces.append(f"-{label}")
        elif ("+" in text[1:]) or ("-" in text[1:]) or (" " in text):
            pieces.append(f"({text})*{label}")
        else:
            pieces.append(f"{text}*{label}")
    return " + ".join(pieces) if pieces else "0"


def _print_report(A: HomAlgebra, report: axioms.AxiomReport, as_json: bool):
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"check: {report.name}")
    if report.passed:
        print("result: PASS")
        return
    print(f"result: FAIL ({len(report.witnesses)} witness(es) shown)")
    for w in report.witnesses:
        indices = ",".join(str(i + 1) for i in w.indices)
        print(f"  [{w.identity_id}] ({indices}): {_format_residual(A, w.residual)}")


# -- subcommands ------------------------------------------------------------------


def _cmd_check(args) -> int:
    algebra = _load_input(args)
    report = axioms.check_class(algebra, args.klass, cap=args.witness_cap)
    _print_report(algebra, report, args.json)
    return 0 if report.passed else 1


def _load_map(algebra: HomAlgebra, args) -> LinearMap:
    if not args.map:
        raise UsageError(f"{args.kind} requires --map FILE")
    obj = _read_json(args.map)
    if isinstance(obj, dict) and "entries" in obj:
        obj = obj["entries"]
    return _parse_matrix(obj, algebra.dim, algebra.params, "map")


# kind -> the construction, called on (algebra, args); diagram-check is apart
_CONSTRUCTIONS = {
    "yau-twist": lambda A, args: constructions.yau_twist(
        A, _load_map(A, args), force=args.force),
    "untwist": lambda A, args: constructions.untwist(A, force=args.force),
    "derived": lambda A, args: constructions.derived_algebra(
        A, args.n, f"type{args.type}", force=args.force),
    "centroid-twist": lambda A, args: constructions.centroid_twist(
        A, _load_map(A, args), args.variant, force=args.force),
    "commutator": lambda A, args: constructions.commutator(A, force=args.force),
    "dendriform-star": lambda A, args: constructions.dendriform_star(A, force=args.force),
    "dendriform-prelie": lambda A, args: constructions.dendriform_prelie(
        A, args.side, force=args.force),
    "tridendriform-star": lambda A, args: constructions.tridendriform_star(A, force=args.force),
    "embed-trid": lambda A, args: constructions.embed_dendriform_as_tridendriform(
        A, force=args.force),
    "rb-prelie": lambda A, args: constructions.rb_prelie(
        A, args.weight_case.replace("-", "_"), force=args.force),
    "rb-dendriform": lambda A, args: constructions.rb_dendriform(A, args.weighted, force=args.force),
    "rb-tridendriform": lambda A, args: constructions.rb_tridendriform(A, force=args.force),
    "rb-complement": lambda A, args: constructions.rb_complement(A, force=args.force),
    "star-derived": lambda A, args: constructions.star_derived(A, force=args.force),
    "lie-prelie": lambda A, args: constructions.rb_lie_prelie(A, force=args.force),
    "matrix-algebra": lambda A, args: constructions.matrix_algebra(A, args.size, force=args.force),
}


def _cmd_construct(args) -> int:
    algebra = _load_input(args)
    if args.kind == "diagram-check":
        commutes = constructions.diagram_commutes(algebra, force=args.force)
        print(f"commutes: {'true' if commutes else 'false'}")
        return 0 if commutes else 1

    result = _CONSTRUCTIONS[args.kind](algebra, args)
    verification = None
    if args.kind == "star-derived":
        result, verification = result

    summary = sys.stdout if args.output else sys.stderr
    if args.output:
        save_algebra(result, args.output)
        print(f"wrote {args.output}", file=summary)
    else:
        print(json.dumps(to_document(result), indent=2))
    if verification is not None:
        state = "PASS" if verification.passed else "FAIL"
        print(f"derived-product identities (SD1, SD2): {state}", file=summary)
    cls = result.signature.cls
    if cls != "plain":
        report = axioms.check_class(result, f"hom-{cls}")
        state = "PASS" if report.passed else "FAIL"
        print(f"output check hom-{cls}: {state}", file=summary)
        if result.rb is not None:
            rb_report = axioms.check_rota_baxter(result)
            state = "PASS" if rb_report.passed else "FAIL"
            print(f"output check rota-baxter: {state}", file=summary)
    if verification is not None and not verification.passed:
        return 1
    return 0


def _cmd_search(args) -> int:
    algebra = _load_input(args)
    if not algebra.is_parameter_free():
        raise UsageError(
            "search needs a parameter-free algebra; evaluate parameters with --set"
        )
    if args.what == "centroid":
        found = centroid_basis(algebra)
        passes = lambda m: axioms.check_centroid(m, algebra).passed
        header, item, verified, failed = ("centroid dimension", "basis element",
                                          "elements pass the centroid check", "a basis element")
    else:
        entries = [_parse_rational(piece, "--entries") for piece in args.entries.split(",") if piece]
        cfg = SearchConfig(entries, weight=_parse_rational(args.weight, "--weight"),
                           op_name=args.op, limit=args.limit)
        found = (search_rb_oracle if args.oracle else search_rb)(algebra, cfg)
        weight = Scalar.constant(cfg.weight, algebra.params)
        passes = lambda m: axioms.check_rota_baxter(algebra, args.op, m, weight).passed
        header, item, verified, failed = ("solutions", "solution",
                                          "solutions pass the Rota-Baxter check", "a reported solution")
    if args.json:
        print(json.dumps([_strings(m) for m in found]))
    else:
        print(f"{header}: {len(found)}")
        for idx, m in enumerate(found, start=1):
            print(f"{item} {idx}:")
            for row in _strings(m):
                print("  [" + ", ".join(row) + "]")
    if args.verify:
        if not all(passes(m) for m in found):
            print(f"verification FAILED for {failed}", file=sys.stderr)
            return 1
        print(f"verified: all {len(found)} {verified}")
    return 0


def _cmd_catalog(args) -> int:
    fixtures = catalog_list()
    if args.json:
        print(json.dumps([
            {
                "name": f.name,
                "params": list(f.params),
                "class": f.signature.cls,
                "notes": f.notes,
            }
            for f in fixtures
        ], indent=2))
        return 0
    for f in fixtures:
        params = ",".join(f.params) or "-"
        print(f"{f.name:<14} class={f.signature.cls:<12} params={params:<10} {f.notes}")
    return 0


def _cmd_eval(args) -> int:
    assignment = _parse_assignments(args.set)
    params = tuple(dict.fromkeys([*(args.params.split(",") if args.params else []),
                                  *assignment]))
    params = tuple(p for p in params if p)
    value = parse_scalar(args.expr, params)
    if assignment:
        value = value.substitute(assignment)
    print(str(value))
    return 0


# -- argument parsing --------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_input_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("file", nargs="?", help="algebra document (JSON)")
    parser.add_argument("--fixture", help="catalog fixture name")
    parser.add_argument("--dim", type=int, default=None,
                        help="dimension for zero_algebra (default 3)")
    parser.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="assign a rational to a parameter (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homtwist",
        description="Exact checks, constructions and searches for twisted algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify an identity class")
    _add_input_arguments(p_check)
    p_check.add_argument("--class", dest="klass", required=True,
                         choices=axioms.CLASS_CHECK_NAMES)
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.add_argument("--witness-cap", type=_positive_int, default=axioms.DEFAULT_WITNESS_CAP)
    p_check.set_defaults(fn=_cmd_check)

    p_con = sub.add_parser("construct", help="apply a construction")
    p_con.add_argument("kind", choices=(*_CONSTRUCTIONS, "diagram-check"))
    _add_input_arguments(p_con)
    p_con.add_argument("--map", help="JSON file with a dim x dim scalar matrix")
    p_con.add_argument("--n", type=int, default=1, help="derived-algebra index")
    p_con.add_argument("--type", type=int, choices=(1, 2), default=1,
                       help="derived-algebra kind")
    p_con.add_argument("--variant", type=int, choices=(1, 2), default=1,
                       help="centroid-twist variant")
    p_con.add_argument("--side", choices=("left", "right"), default="left")
    p_con.add_argument("--weight-case", choices=("zero", "minus-one"), default="zero")
    p_con.add_argument("--weighted", action="store_true",
                       help="weighted dendriform splitting")
    p_con.add_argument("--size", type=int, default=2, help="matrix-algebra size")
    p_con.add_argument("--force", action="store_true",
                       help="skip precondition validation")
    p_con.add_argument("-o", "--output", help="write the result document here")
    p_con.set_defaults(fn=_cmd_construct)

    p_search = sub.add_parser("search", help="enumerate operators or the centroid")
    p_search.add_argument("what", choices=("rb", "centroid"))
    _add_input_arguments(p_search)
    p_search.add_argument("--weight", default="0", help="Rota-Baxter weight (rational)")
    p_search.add_argument("--entries", default="-1,0,1",
                          help="comma-separated rational entry grid")
    p_search.add_argument("--op", default=None, help="operation name (default: the single one)")
    p_search.add_argument("--limit", type=int, default=None)
    p_search.add_argument("--oracle", action="store_true",
                          help="use the naive reference search")
    p_search.add_argument("--verify", action="store_true",
                          help="re-run the checker on every result")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(fn=_cmd_search)

    p_cat = sub.add_parser("catalog", help="list the built-in fixtures")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_eval = sub.add_parser("eval", help="parse and evaluate a scalar expression")
    p_eval.add_argument("expr",
                        help="scalar expression; put -- before it when it starts with '-'")
    p_eval.add_argument("--params", help="comma-separated parameter names")
    p_eval.add_argument("--set", action="append", metavar="NAME=VALUE")
    p_eval.set_defaults(fn=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except constructions.PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper for the entry point
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
