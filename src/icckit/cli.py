"""Command-line front end.

``icckit check FILE`` parses an extension description, runs the
analyzer, optionally cross-checks the verdict against the brute-force
oracle, and prints a text or JSON report.

Exit codes: 0 = analysis completed (whatever the verdict), 1 = the
``--assert`` expectation failed, 2 = usage error, parse or validation
error, or a file that cannot be read as UTF-8 text or written,
3 = unsupported construction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .analyzer import (
    AnalyzerLimits,
    KernelTorsionWitness,
    KernelVectorWitness,
    QuotientLiftWitness,
    Report,
    TrivialGroupWitness,
    analyze,
    render_gen_word,
)
from .catalog import generator_labels
from .dsl import Diagnostic, parse_extension
from .extension import ExtensionSpec, UnsupportedExtensionError
from .oracle import crosscheck
from .words import render_word


def witness_json(witness, spec: ExtensionSpec):
    if witness is None:
        return None
    if isinstance(witness, KernelTorsionWitness):
        return {
            "type": "kernel_torsion",
            "description": witness.description,
            "element_order": witness.order,
            "class_bound": witness.class_bound,
        }
    if isinstance(witness, KernelVectorWitness):
        return {
            "type": "kernel_vector",
            "vector": list(witness.vector),
            "orbit": [list(v) for v in witness.orbit],
            "orbit_size": witness.orbit_size,
        }
    if isinstance(witness, QuotientLiftWitness):
        evidence = {"kind": witness.evidence_kind}
        if witness.action_order is not None:
            evidence["order"] = witness.action_order
        if witness.conjugator is not None:
            # Only free kernels give a conjugator (theorem 3).
            evidence["conjugator"] = render_word(witness.conjugator, spec.kernel.names)
        element = render_gen_word(witness.word, generator_labels(spec.quotient))
        return {"type": "quotient_lift", "element": element, "evidence": evidence}
    if isinstance(witness, TrivialGroupWitness):
        return {"type": "trivial_group"}
    raise TypeError(f"unknown witness {witness!r}")


def report_json(report: Report, spec: ExtensionSpec, oracle_result=None):
    return {
        "verdict": report.verdict,
        "theorem_path": report.theorem_path,
        "witness": witness_json(report.witness, spec),
        "obstruction": report.obstruction,
        "condition_results": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in report.conditions
        ],
        "tool": {"name": "icckit", "version": __version__},
        "oracle_crosscheck": oracle_result,
    }


def report_text(report: Report, spec: ExtensionSpec, oracle_result=None) -> str:
    lines = [f"verdict: {report.verdict}", f"path: {report.theorem_path}"]
    w = witness_json(report.witness, spec)
    if w is not None:
        lines.append("witness: " + json.dumps(w, sort_keys=True))
    if report.obstruction:
        lines.append(f"obstruction: {report.obstruction}")
    lines.append("conditions:")
    for c in report.conditions:
        lines.append(f"  - {c.name}: {c.status} ({c.detail})")
    if oracle_result is not None:
        lines.append(
            "oracle: " + ("consistent" if oracle_result["consistent"] else "INCONSISTENT")
        )
    return "\n".join(lines) + "\n"


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string
    keys, lists and JSON scalars.

    The stdlib writes indented JSON with its pure-Python encoder, whose
    nested closures are reference cycles left to the garbage collector on
    every call.  Strings are escaped by the function ``json.dumps`` uses
    with ``ensure_ascii``; other scalars go through ``json.dumps`` itself,
    except plain ints, for which it would build an encoder each time.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return repr(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_text(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"
    return json.dumps(obj)


def _at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


_count = _at_least(0)
_positive = _at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``icckit`` argument parser, built on first use and then shared:
    parsing leaves the parser unchanged and returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="icckit")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="analyze an extension description file")
    check.add_argument("file")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--oracle-radius", type=_count, default=0, metavar="R",
                       help="conjugacy-ball cross-check radius; 0 disables")
    check.add_argument("--oracle-cap", type=_positive, default=5000, metavar="N",
                       help="conjugacy-ball set-size cap")
    check.add_argument("--relation-bound", type=_count, default=8, metavar="B",
                       help="exponent bound for abelian relation search")
    check.add_argument("--emit-growth", metavar="PATH", default=None,
                       help="write the cross-check growth curve as CSV")
    check.add_argument("--assert", dest="expect", choices=("icc", "not_icc"), default=None,
                       help="exit 1 unless the verdict matches")
    return parser


def _file_error(path: str, error: Exception) -> int:
    """Report an unreadable or unwritable file on one line; exit code 2."""
    print(f"{path}: {getattr(error, 'strerror', None) or error}", file=sys.stderr)
    return 2


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.emit_growth and not args.oracle_radius:
        print("--emit-growth requires --oracle-radius > 0", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        return _file_error(args.file, e)

    try:
        spec = parse_extension(text)
        report = analyze(spec, AnalyzerLimits(args.relation_bound))
        oracle_result, curve = None, None
        if args.oracle_radius > 0:
            oracle_result, curve = crosscheck(spec, report, radius=args.oracle_radius,
                                              cap=args.oracle_cap, growth=bool(args.emit_growth))
    except Diagnostic as d:
        print(f"{args.file}:{d.line}:{d.col}: [{d.code}] {d.message}", file=sys.stderr)
        return 2
    except UnsupportedExtensionError as e:
        print(f"{args.file}: unsupported construction: {e}", file=sys.stderr)
        return 3

    if args.emit_growth:
        try:
            with open(args.emit_growth, "w", encoding="utf-8") as f:
                f.write("\n".join(curve.csv_rows()) + "\n")
        except OSError as e:
            return _file_error(args.emit_growth, e)

    if args.format == "json":
        sys.stdout.write(_json_text(report_json(report, spec, oracle_result)) + "\n")
    else:
        sys.stdout.write(report_text(report, spec, oracle_result))

    if args.expect is not None and report.verdict != args.expect:
        return 1
    return 0


def main(argv=None) -> int:
    code = run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
