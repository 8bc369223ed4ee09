"""Results audit: every benchmark document of seeds 1-3, and every repro case,
through the CLI, recorded by exit code and `results` bytes.

    python tools/results_audit.py OUT.json            # audit this checkout
    python tools/results_audit.py --compare A.json B.json

The documents are those of `perfbench/workloads.py` (seeds 1, 2 and 3 of
each workload) plus one `repro` document per built-in case.  Each runs as
`opsyslab.cli.main([command, "--file", PATH, "--json"])`, the path a user
takes, with BLAS pinned to one thread.  A document's outcome is its exit
code and its `results` value exactly as printed, or on a non-zero exit the
last line of stderr.  The package is imported from this checkout's `src/`,
so a copy of this file in another checkout audits that checkout.

`--compare` lists the documents whose outcomes differ between two audits
(or that only one audit has), each in one class: its exit code changed (or
only one audit has it), a verdict or other non-numeric value changed or a
list changed length, or numbers only.  It prints the largest absolute
numeric move per workload and kind, and exits 1 when any document differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def _import_paths() -> None:
    """This checkout's src/ and perfbench/ (whose run.py pins BLAS to one
    thread before numpy is imported) first on the import path."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def documents(seeds=SEEDS) -> list:
    """(name, command, text) of every audited document, in a fixed order."""
    _import_paths()
    import run  # noqa: F401  pins BLAS first
    import workloads
    from opsyslab.repro import CASES

    docs = [
        (f"{workload}/{seed}/{i:03d}-{doc.kind}", doc.command, doc.text)
        for workload in workloads.WORKLOADS
        for seed in seeds
        for i, doc in enumerate(workloads.make_docs(workload, seed))
    ]
    docs += [(f"repro/{ident}", "repro", json.dumps({"kind": "repro", "payload": {"id": ident}}))
             for ident in sorted(CASES)]
    return docs


def outcome(main, command: str, path: str) -> list:
    """[exit code, results bytes or the last stderr line] of one document,
    read as the benchmark reads them."""
    from run import last_line, results_text

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--file", path, "--json"])
    except (Exception, SystemExit) as exc:  # a traceback the CLI let escape
        return [None, f"{type(exc).__name__}: {exc}"]
    return [code, results_text(out.getvalue()) if code == 0 else last_line(err.getvalue())]


def audit(docs) -> dict:
    """name -> outcome for every (name, command, text) of `docs`."""
    _import_paths()
    from opsyslab.cli import main

    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for name, command, text in docs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            record[name] = outcome(main, command, path)
    return record


def compare(a: dict, b: dict) -> list:
    """The names whose outcomes differ, or that only one record has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


EXIT_CODE, VALUES, NUMBERS = "exit code", "values", "numbers only"


def _moves(x, y) -> list:
    """The absolute moves of the numbers of two JSON values of one shape;
    None in the list for a non-numeric difference (a changed string, bool,
    key set or list length)."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if number(x) and number(y):
        return [abs(x - y)]
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        return [m for k in x for m in _moves(x[k], y[k])]
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [m for u, v in zip(x, y) for m in _moves(u, v)]
    return [] if x == y else [None]


def classify(a, b) -> tuple:
    """(class, largest numeric move) of two outcomes of one document, either
    None when only one audit has it; the move is None unless the class is
    NUMBERS."""
    if a is None or b is None or a[0] != b[0]:
        return EXIT_CODE, None
    if a[0] == 0:
        moves = _moves(json.loads(a[1]), json.loads(b[1]))
    else:
        moves = [None] if a[1] != b[1] else []
    return (VALUES, None) if None in moves else (NUMBERS, max(moves, default=0.0))


def _group(name: str) -> str:
    """'workload kind' of an audited name: 'order/1/003-riesz' gives
    'order riesz', a repro case its own id."""
    workload, *_, last = name.split("/")
    return f"{workload} {last if workload == 'repro' else last.split('-', 1)[1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="where to write this checkout's audit (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the documents that differ")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(a, b)
        counts, largest = {}, {}
        for name in differ:
            kind, move = classify(a.get(name), b.get(name))
            counts[kind] = counts.get(kind, 0) + 1
            if move is None:
                print(f"{name} [{kind}]: {a.get(name)!r} != {b.get(name)!r}")
            else:
                print(f"{name} [{kind}]: largest move {move:.3g}")
                largest[_group(name)] = max(move, largest.get(_group(name), 0.0))
        for group, move in sorted(largest.items()):
            print(f"largest numeric move, {group}: {move:.3g}")
        print(", ".join(f"{counts.get(kind, 0)} {kind}" for kind in (EXIT_CODE, VALUES, NUMBERS)))
        print(f"{len(differ)} of {len(a.keys() | b.keys())} documents differ")
        return 1 if differ else 0
    if not args.out:
        parser.error("give an output path, or --compare A B")
    record = audit(documents())
    Path(args.out).write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    codes = {}
    for code, _ in record.values():
        codes[code] = codes.get(code, 0) + 1
    print(f"{len(record)} documents; exit codes {dict(sorted(codes.items(), key=str))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
