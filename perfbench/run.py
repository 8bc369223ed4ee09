"""opsyslab benchmark: seeded problem documents through the CLI, in process.

    python3 perfbench/run.py --workload order --seed 1 --seconds 30 --trace 0

Each workload is a list of problem documents generated from the seed
(`workloads.py`).  Every document is written to a file and run through
`opsyslab.cli.main([<command>, "--file", PATH, "--json"])` with stdout
captured, the path a user takes.  The load is a closed loop: one process,
one client, BLAS pinned to one thread.  Rounds over the whole list repeat
until `--seconds` is used (at least three).  Every report is checked with
plain numpy (`verify.py`), and its `results` must be byte-identical in
every round.

Timing is normalised to the machine's momentary speed: a fixed reference
kernel runs just before and just after every document, and a document's
latency is its total time over all rounds divided by its total reference
time, times REF_NOMINAL_S.  Set-up time is normalised the same way inside
each set-up interpreter.  NOTES.md gives the reason and the measurements.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and prints the per-layer metrics (`spans.py`).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in turn and ends with one such object
per workload.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up interpreters.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402
from metrics import end_to_end_metrics, per_layer_metrics, percentile  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_INTERPRETERS = 7
FAILURE_CLASSES = ("exit_2", "exit_3", "exit_other", "exception", "wrong_answer", "nondeterministic")

# Reference kernel: small products, a 6x6 eigenvalue solve and interpreter
# arithmetic, the same kind of work as the program's.  Its median on the
# 2-core development box is about 1.0 ms.
REF_NOMINAL_S = 1.0e-3
_REF_H = np.random.default_rng(0).standard_normal((6, 6))
_REF_H = _REF_H + _REF_H.T


def reference_time() -> float:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(60):
        acc += float(np.linalg.eigvalsh(_REF_H @ _REF_H)[0]) + sum(range(50))
    return time.perf_counter() - start


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


# Set-up is timed inside a fresh interpreter, so it is normalised by a
# pure-Python kernel run in that interpreter just before and just after the
# import (numpy is part of what is imported).  Its median on the 2-core
# development box is about 2 ms.
SETUP_REF_NOMINAL_S = 2.0e-3
SETUP_CODE = """import time
def ref():
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    return time.perf_counter() - start
before = ref()
start = time.perf_counter()
import opsyslab.cli
took = time.perf_counter() - start
print(took, (before + ref()) / 2)
"""


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of the time to import opsyslab.cli:
    (normalised, raw)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    norm, raw = [], []
    for _ in range(SETUP_INTERPRETERS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        took, ref = map(float, proc.stdout.split()[-2:])
        norm.append(took * SETUP_REF_NOMINAL_S / ref)
        raw.append(took)
    return statistics.median(norm), statistics.median(raw)


def results_text(stdout: str) -> str | None:
    """The report's `results` value exactly as the program rendered it."""
    key = '"results":'
    start = stdout.find(key)
    if start < 0:
        return None
    try:
        _, end = json.JSONDecoder().raw_decode(stdout, start + len(key))
    except json.JSONDecodeError:
        return None
    return stdout[start + len(key):end]


def last_line(text: str) -> str:
    """The error message; warnings printed before it appear only once per
    process, so they are not part of a document's outcome."""
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Runner:
    """Runs the document list in rounds and keeps, per document, its time
    and reference time summed over rounds, the first round's output and
    whether any later round's outcome differed."""

    def __init__(self, cli, docs, paths):
        self.cli = cli
        self.docs = docs
        self.paths = paths
        self.doc_s = [0.0] * len(docs)
        self.ref_s = [0.0] * len(docs)
        self.first: list = [None] * len(docs)
        self.changed = [False] * len(docs)

    def latency(self) -> list:
        """Normalised seconds per document."""
        return [REF_NOMINAL_S * d / r for d, r in zip(self.doc_s, self.ref_s)]

    def run_doc(self, i):
        out, err = io.StringIO(), io.StringIO()
        argv = [self.docs[i].command, "--file", self.paths[i], "--json"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback the CLI let escape
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def round(self) -> tuple[float, float]:
        """One pass over the list; returns (document time, reference time)."""
        doc_total = ref_total = 0.0
        for i in range(len(self.docs)):
            before = reference_time()
            seconds, code, out, err = self.run_doc(i)
            ref = (before + reference_time()) / 2.0
            doc_total += seconds
            ref_total += ref
            self.doc_s[i] += seconds
            self.ref_s[i] += ref
            outcome = (code, results_text(out) if code == 0 else last_line(err))
            if self.first[i] is None:
                self.first[i] = (code, out, err, outcome)
            elif outcome != self.first[i][3]:
                self.changed[i] = True
        return doc_total, ref_total

    def classify(self, i) -> tuple[str | None, str]:
        code, out, err, _ = self.first[i]
        if self.changed[i]:
            return "nondeterministic", "outcome differs between rounds"
        if code is None:
            return "exception", last_line(err)
        if code != 0:
            return {2: "exit_2", 3: "exit_3"}.get(code, "exit_other"), last_line(err) or f"exit {code}"
        try:
            reason = verify.check_report(self.docs[i], json.loads(out))
        except json.JSONDecodeError as exc:
            reason = f"stdout is not JSON: {exc}"
        return ("wrong_answer", reason) if reason else (None, "")


def budget_left(start, seconds, next_round) -> bool:
    return time.perf_counter() - start + next_round <= seconds


def run_rounds(runner, seconds, trace):
    """Rounds until the time budget is spent.  Returns the number of
    (traced) rounds, the per-round layer totals and the tracing overhead."""
    start = time.perf_counter()
    if not trace:
        rounds = 0
        while True:
            wall = time.perf_counter()
            runner.round()
            rounds += 1
            if rounds >= MIN_ROUNDS and not budget_left(start, seconds, time.perf_counter() - wall):
                return rounds, [], None
    tracer, totals = Tracer(), []
    plain = [0.0, 0.0]
    traced = [0.0, 0.0]
    while True:
        wall = time.perf_counter()
        for acc, on in ((plain, False), (traced, True)):
            if on:
                tracer.install()
            try:
                doc_s, ref_s = runner.round()
            finally:
                tracer.uninstall()
            acc[0] += doc_s
            acc[1] += ref_s
        totals.append(layer_totals(tracer.take()))
        if len(totals) >= MIN_TRACED_ROUNDS and not budget_left(start, seconds, time.perf_counter() - wall):
            break
    overhead = (traced[0] / traced[1]) / (plain[0] / plain[1]) - 1.0
    if tracer.absent:
        print("# absent (no longer in the program): " + " ".join(tracer.absent))
    return len(totals), totals, overhead


def run_workload(cli, workload, seed, seconds, trace) -> dict:
    docs = workloads.make_docs(workload, seed)
    setup_s, setup_raw_s = (None, None) if trace else measure_setup()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, doc in enumerate(docs):
            path = work / f"doc{i:03d}.json"
            path.write_text(doc.text, encoding="utf-8")
            paths.append(str(path))
        runner = Runner(cli, docs, paths)
        rounds, totals, overhead = run_rounds(runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    verdicts = [runner.classify(i) for i in range(len(docs))]
    counts = {c: sum(1 for label, _ in verdicts if label == c) for c in FAILURE_CLASSES}
    failed = sum(counts.values())
    ok = len(docs) - failed

    kinds: dict = {}
    for doc in docs:
        kinds[doc.command] = kinds.get(doc.command, 0) + 1
    print(f"# workload={workload} seed={seed} docs={len(docs)} rounds={rounds} "
          f"trace={int(trace)} blas_threads={blas_threads()}")
    print("# mix: " + " ".join(f"{k}={v}" for k, v in kinds.items()))
    print("# failures: " + " ".join(f"{c}={n}" for c, n in counts.items())
          + f" failed_frac={failed / len(docs):.4f}")
    for i, (label, reason) in enumerate(verdicts):
        if label:
            print(f"#   doc {i:3d} {docs[i].command:18s} {label}: {reason[:160]}")

    if trace:
        metrics = per_layer_metrics(totals, overhead)
        for name, m in metrics.items():
            print(f"#   {name:48s} {m['value']:14.4f} {m['unit']:10s} (median of {rounds} traced rounds)")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latency = runner.latency()
        metrics = end_to_end_metrics(latency, ok, setup_s, rss_mb)
        lat_ms = [1000.0 * x for x in latency]
        beyond = sum(1 for x in lat_ms if x > percentile(lat_ms, 90))
        wall_ms = [1000.0 * d / rounds for d in runner.doc_s]
        ref_ms = 1000.0 * sum(runner.ref_s) / (rounds * len(docs))
        print(f"# wall time, not normalised: p50={percentile(wall_ms, 50):.2f} ms "
              f"p90={percentile(wall_ms, 90):.2f} ms (mean over rounds); "
              f"reference kernel {ref_ms:.3f} ms against nominal {1000 * REF_NOMINAL_S:.3f} ms")
        samples = {
            "ok_docs_per_s": f"{ok} ok docs over {len(docs)} latencies",
            "doc_p50_ms": f"{len(docs)} docs, {rounds} rounds each",
            "doc_p90_ms": f"{len(docs)} docs, {beyond} beyond p90",
            "ok_frac": f"{len(docs)} docs",
            "setup_s": f"median of {SETUP_INTERPRETERS} interpreters; raw {setup_raw_s:.4f} s",
            "peak_rss_mb": "1 process",
        }
        for name, m in metrics.items():
            print(f"#   {name:16s} {m['value']:12.4f} {m['unit']:5s} ({samples[name]})")

    return {
        "correct": counts["wrong_answer"] == 0 and counts["nondeterministic"] == 0,
        "attempted": len(docs),
        "failed": failed,
        "metrics": metrics,
    }


def load_cli():
    """Import opsyslab.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from opsyslab import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import opsyslab from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: opsyslab was imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out = {w: run_workload(cli, w, args.seed, args.seconds, args.trace) for w in names}
    print(json.dumps(out if args.workload == "all" else out[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
