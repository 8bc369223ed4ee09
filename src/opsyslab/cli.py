"""Batch command-line front end.

Usage:
    opsyslab <command> [--file PATH ...] [--seed N]
             [--tol-gap X] [--tol-psd X] [--json | --table]

Commands: check-unperforated, extension-interval, uep, purity, decompose,
riesz, boundary, nosp, korovkin, repro.  Each command runs the problem
document(s) of the matching kind; `repro --id CASE` and `korovkin --n N`
also work without a file.  `--id` and `--list` belong to repro, `--n`,
`--grid-size` and `--fn` to korovkin; given to another command they exit 2.

Exit codes: 0 = verdict produced (INFEASIBLE is an answer), 2 = input
error, 3 = numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import problems
from .errors import InputError, NumericalFailureError, OpsyslabError
from .sdp import SdpSettings

# Every command runs the document kind of the same name, except one alias.
COMMAND_KINDS = {
    ("check-unperforated" if kind == "unperforated" else kind): kind for kind in problems.KINDS
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# Options that only one command accepts: flag -> (command, argument
# keywords).  They default to None, so any value given is seen.
COMMAND_ONLY = {
    "--id": ("repro", dict(dest="case_id", help="built-in case id (alternative to --file)")),
    "--list": ("repro", dict(dest="list", action="store_true", default=None, help="list case ids")),
    "--n": ("korovkin", dict(dest="n", type=int, help="operator degree")),
    "--grid-size": ("korovkin", dict(dest="grid_size", type=int, help="number of grid points")),
    "--fn": ("korovkin", dict(dest="functions", action="append", help="extra test function")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsyslab",
        description="desk-scale lab for operator-system state problems",
    )
    parser.add_argument("command", choices=list(COMMAND_KINDS),
                        help="document kind to run (check-unperforated runs unperforated)")
    parser.add_argument("--file", action="append", default=[], metavar="PATH",
                        help="problem document; repeat for batch mode")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override (batch documents get seed+index)")
    parser.add_argument("--tol-gap", type=float, default=None, dest="tol_gap",
                        help="SDP duality-gap tolerance override")
    parser.add_argument("--tol-psd", type=float, default=None, dest="tol_psd",
                        help="PSD slack tolerance override")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--table", action="store_true", help="human-readable table")
    for flag, (command, keywords) in COMMAND_ONLY.items():
        parser.add_argument(flag, **dict(keywords, help=f"{command}: {keywords['help']}"))
    return parser


_parser = functools.cache(build_parser)  # main's, built once: parse_args leaves it unchanged


def _inline_document(args) -> str | None:
    """Documents synthesized from flags for the file-less commands."""
    if args.command == "repro" and args.case_id is not None:
        return problems.render_value({"kind": "repro", "payload": {"id": args.case_id}})
    if args.command == "korovkin" and not args.file:
        payload = {}
        if args.n is not None:
            payload["n"] = args.n
        if args.grid_size is not None:
            payload["grid_size"] = args.grid_size
        if args.functions:
            payload["functions"] = list(args.functions)
        return problems.render_value({"kind": "korovkin", "payload": payload})
    return None


def _apply_overrides(text: str, args, index: int) -> problems.ProblemDocument:
    doc = problems.parse_problem(text)
    if doc.kind != COMMAND_KINDS[args.command]:
        raise InputError(
            f"command {args.command} expects a {COMMAND_KINDS[args.command]!r} "
            f"document, got {doc.kind!r}"
        )
    if args.seed is not None:
        if args.seed < 0:
            raise InputError("--seed: expected a non-negative integer")
        doc.seed = args.seed + index
        doc.canonical["seed"] = doc.seed
    given = {key: v for key, v in (("gap", args.tol_gap), ("psd", args.tol_psd)) if v is not None}
    if given:
        doc.settings = SdpSettings(gap_tol=given.get("gap", doc.settings.gap_tol),
                                   psd_slack=given.get("psd", doc.settings.psd_slack))
        # echoed as a document sets them, so re-running the echo reproduces the run
        doc.canonical["tolerances"] = dict(sorted((doc.canonical.get("tolerances", {}) | given).items()))
    return doc


def _format_table(report: dict) -> str:
    lines = [f"kind: {report['kind']}"]
    if report.get("provenance"):
        lines.append(f"case: {report['provenance']}")

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, dict) else walk_leaf(prefix, k, v)
        else:
            walk_leaf("", prefix.rstrip("."), value)

    def walk_leaf(prefix, key, value):
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"  {prefix}{key}: <matrix {len(value)}x{len(value[0])}>")
        elif isinstance(value, list) and len(value) > 8:
            lines.append(f"  {prefix}{key}: <list of {len(value)}>")
        else:
            lines.append(f"  {prefix}{key}: {value}")

    walk("", report["results"])
    lines.append(f"  wall_time_s: {report['wall_time_s']:.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for flag, (command, keywords) in COMMAND_ONLY.items():
        if args.command != command and getattr(args, keywords["dest"]) is not None:
            parser.error(f"{flag} is only accepted by {command}")

    if args.list:
        from .repro import CASES

        print("\n".join(sorted(CASES)))
        return EXIT_OK

    texts = []
    inline = _inline_document(args)
    if inline is not None:
        texts.append(inline)
    for path in args.file:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if not texts:
        print("error: no problem document (use --file, or --id for repro)", file=sys.stderr)
        return EXIT_INPUT

    try:
        docs = [_apply_overrides(t, args, i) for i, t in enumerate(texts)]
        reports = [problems.run(doc) for doc in docs]
        if args.table:
            text = "\n\n".join(_format_table(r) for r in reports)
        else:
            text = problems.render_value(reports[0] if len(reports) == 1 else reports)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OpsyslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
