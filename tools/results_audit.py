"""Results audit: every benchmark document of seeds 1-3, every repro case and
the scale probes, through the CLI, recorded by exit code and `results` bytes.

    python tools/results_audit.py OUT.json            # audit this checkout
    python tools/results_audit.py --compare A.json B.json

The documents are those of `perfbench/workloads.py` (seeds 1, 2 and 3 of
each workload), one `repro` document per built-in case, and the scale
probes (`probes/scale/<s>/...`): a few documents whose subspaces, algebras
or samples are spanned by s times fixed matrices, and two unperforated
instances (a, b) times s, at each scale s of SCALES.  A span does not change
when its spanning matrices are rescaled, and the unperforated question is
homogeneous in (a, b), so every probe must give the exit code and verdict
it gives at s = 1.  Each runs as
`opsyslab.cli.main([command, "--file", PATH, "--json"])`, the path a user
takes, with BLAS pinned to one thread.  A document's outcome is its exit
code and its `results` value exactly as printed, or on a non-zero exit the
last line of stderr.  The package is imported from this checkout's `src/`,
so a copy of this file in another checkout audits that checkout.

`--compare` lists the documents whose outcomes differ between two audits
(or that only one audit has), each in one class: its exit code changed (or
only one audit has it), a verdict or other non-numeric value changed or a
list changed length, or numbers only.  It prints the largest absolute
numeric move per workload and kind, then per result field (the top-level
keys of `results`, e.g. `min`, `max`, `witness_min`), so that endpoint
moves can be read apart from witness moves, and exits 1 when any document
differs.
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
SCALES = {"1": 1.0, "2^-20": 2.0**-20, "1e-6": 1e-6, "1e-10": 1e-10, "2^-400": 2.0**-400,
          "1e-160": 1e-160, "2^40": 2.0**40, "1e200": 1e200}


def scale_probes(s: float) -> list:
    """(command, document) of each scale probe at scale s."""
    import numpy as np

    I2, Z, E11, X = np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.eye(2, k=1) + np.eye(2, k=-1)
    h = np.diag([1.0, 0.2, -0.7]) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1))
    units = [np.diag(e) for e in np.eye(3)]
    phi, t = [[0.7, 0.1], [0.1, 0.3]], [[1.0, 0.5], [0.5, -1.0]]
    docs = [
        ("uep", {"S": [s * I2, s * Z], "state": E11}),
        ("extension-interval", {"S": [s * I2, s * Z], "phi": phi, "t": t}),
        ("boundary", {"S": [s * np.eye(3), s * h]}),
        ("boundary", {"S": [s * I2, s * Z]}),
        ("purity", {"A": [s * u for u in units], "state": np.diag([0.5, 0.3, 0.2])}),
        ("decompose", {"A": [s * u for u in units], "state": np.diag([0.5, 0.3, 0.2])}),
        ("check-unperforated", {"S": [s * X], "T": [E11, I2 - E11], "trials": 20}),
        # instances (a, b) times s: repro E:perf, which is perforated, and an a that is not below b
        ("check-unperforated", {"S": [X], "T": [E11, I2 - E11], "a": 2 * s * X, "b": s * np.diag([1.0, 5.0])}),
        ("check-unperforated", {"S": [Z], "T": [I2], "a": s * Z, "b": 0 * I2}),
    ]
    return [(command, json.dumps({"kind": command.removeprefix("check-"), "seed": 3, "payload": payload},
                                 default=np.ndarray.tolist))
            for command, payload in docs]


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
    docs += [(f"probes/scale/{label}/{i:03d}-{command}", command, text)
             for label, s in SCALES.items() for i, (command, text) in enumerate(scale_probes(s))]
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


def _moves(x, y, field="") -> list:
    """(field, absolute move) for the numbers of two JSON values of one
    shape, the field the top-level key the number sits under ("" for a
    value that is not an object); the move is None for a non-numeric
    difference (a changed string, bool, key set or list length)."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if number(x) and number(y):
        return [(field, abs(x - y))]
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        return [m for k in x for m in _moves(x[k], y[k], field or k)]
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return [m for u, v in zip(x, y) for m in _moves(u, v, field)]
    return [] if x == y else [(field, None)]


def field_moves(a, b) -> dict:
    """field -> largest absolute move, over the numbers of two outcomes of
    one document that differ in numbers only."""
    largest = {}
    for field, move in _moves(json.loads(a[1]), json.loads(b[1])):
        largest[field] = max(move, largest.get(field, 0.0))
    return largest


def classify(a, b) -> tuple:
    """(class, largest numeric move) of two outcomes of one document, either
    None when only one audit has it; the move is None unless the class is
    NUMBERS."""
    if a is None or b is None or a[0] != b[0]:
        return EXIT_CODE, None
    if a[0] == 0:
        moves = [move for _, move in _moves(json.loads(a[1]), json.loads(b[1]))]
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
        counts, fields = {}, {}
        for name in differ:
            kind, move = classify(a.get(name), b.get(name))
            counts[kind] = counts.get(kind, 0) + 1
            if move is None:
                print(f"{name} [{kind}]: {a.get(name)!r} != {b.get(name)!r}")
            else:
                print(f"{name} [{kind}]: largest move {move:.3g}")
                per_field = fields.setdefault(_group(name), {})
                for field, m in field_moves(a[name], b[name]).items():
                    per_field[field] = max(m, per_field.get(field, 0.0))
        for group, per_field in sorted(fields.items()):
            print(f"largest numeric move, {group}: {max(per_field.values(), default=0.0):.3g}")
            print(f"largest move per field, {group}: "
                  + ", ".join(f"{field or '(value)'} {m:.3g}" for field, m in per_field.items()))
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
