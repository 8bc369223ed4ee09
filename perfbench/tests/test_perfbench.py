"""Tests of the benchmark itself: seeded generators, metric names, the
independent checker and the tracer."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import metrics  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.make_docs(workload, 11)
    again = workloads.make_docs(workload, 11)
    other = workloads.make_docs(workload, 12)
    assert [d.text for d in first] == [d.text for d in again]
    assert [d.text for d in first] != [d.text for d in other]
    # the schedule of kinds is fixed; only the drawn content changes
    assert [d.command for d in first] == [d.command for d in other]
    assert len(first) >= 100


def test_documents_are_valid_json_with_known_kinds():
    for workload in workloads.WORKLOADS:
        for doc in workloads.make_docs(workload, 5):
            body = json.loads(doc.text)
            assert body["kind"] == doc.kind
            assert set(body) <= {"kind", "payload", "seed"}


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_cover_every_declared_name():
    e2e = metrics.end_to_end_metrics([0.01, 0.02, 0.03], ok=2, setup_s=0.2, peak_rss_mb=50.0)
    assert set(e2e) == set(metrics.END_TO_END)
    assert e2e["ok_frac"]["value"] == pytest.approx(2 / 3)
    assert e2e["ok_docs_per_s"]["value"] == pytest.approx(2 / 0.06)
    totals = spans.layer_totals([])
    layer = metrics.per_layer_metrics([totals], overhead=0.1)
    assert set(layer) == set(metrics.PER_LAYER)
    assert all(m["unit"] == metrics.PER_LAYER[k][0] for k, m in layer.items())


# ------------------------------------------------------------- checker


def run_cli(tmp_path, doc, capsys):
    from opsyslab import cli

    path = tmp_path / "doc.json"
    path.write_text(doc.text)
    assert cli.main([doc.command, "--file", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def first_of(workload, command, seed=3):
    return next(d for d in workloads.make_docs(workload, seed) if d.command == command)


def test_checker_accepts_and_rejects_unperforated(tmp_path, capsys):
    doc = first_of("order", "check-unperforated")
    report = run_cli(tmp_path, doc, capsys)
    assert verify.check_report(doc, report) is None
    res = report["results"]
    if res["verdict"] == "FEASIBLE":
        res["b_prime"] = verify.matrix(res["b_prime"]).real.tolist()
        res["b_prime"][0][0] += 10.0
    else:
        res["certificate"][0] = np.zeros_like(np.array(res["certificate"][0])).tolist()
        res["certificate"][1] = np.zeros_like(np.array(res["certificate"][1])).tolist()
    assert verify.check_report(doc, report) is not None


def test_checker_rejects_a_wrong_purity_verdict(tmp_path, capsys):
    doc = first_of("algebra", "purity")
    report = run_cli(tmp_path, doc, capsys)
    assert verify.check_report(doc, report) is None
    report["results"]["pure"] = not report["results"]["pure"]
    assert verify.check_report(doc, report) is not None


def test_checker_rejects_a_wrong_korovkin_deviation(tmp_path, capsys):
    doc = workloads.Doc("korovkin", "korovkin", json.dumps(
        {"kind": "korovkin", "payload": {"n": 40, "grid_size": 101, "functions": []}}))
    report = run_cli(tmp_path, doc, capsys)
    assert verify.check_report(doc, report) is None
    report["results"]["deviations"]["x^2"] *= 1.01
    assert verify.check_report(doc, report) is not None


def test_checker_rejects_a_witness_off_the_state(tmp_path, capsys):
    doc = first_of("extension", "extension-interval")
    report = run_cli(tmp_path, doc, capsys)
    assert verify.check_report(doc, report) is None
    n = len(report["results"]["witness_min"])
    report["results"]["witness_min"] = (np.eye(n) / n).tolist()
    report["results"]["min"] -= 1.0
    assert verify.check_report(doc, report) is not None


# -------------------------------------------------------------- tracer


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines work(); fakepkg.user imports it by name."""
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    def outer(x):
        return user.work(x) * 2

    core.work = work
    user.work = work
    user.outer = outer
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_tracer_patches_every_binding_and_restores_them(fake_package):
    core, user = fake_package
    original = core.work
    tracer = spans.Tracer({"core.work": ("fakepkg.core", "work"),
                           "user.outer": ("fakepkg.user", "outer")})
    tracer.install()
    try:
        assert core.work is not original and user.work is core.work
        assert user.outer(1) == 4
        recorded = tracer.take()
    finally:
        tracer.uninstall()
    assert core.work is original and user.work is original
    assert [(s.name, s.parent.name if s.parent else None) for s in recorded] == [
        ("core.work", "user.outer"), ("user.outer", None)]
    assert tracer.absent == []


def test_tracer_reports_a_removed_name_as_absent(fake_package):
    tracer = spans.Tracer({"core.gone": ("fakepkg.core", "gone"),
                           "missing.f": ("fakepkg.missing", "f")})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["core.gone", "missing.f"]


def test_tracer_round_trip_on_the_program():
    """Installing over the real program raises nothing, whichever wrapped
    names it still has, and uninstalling restores every binding."""
    import opsyslab.cli  # noqa: F401  loads every layer

    def bindings():
        return {(m, k): id(v) for m, mod in sys.modules.items() if m.split(".")[0] == "opsyslab"
                for k, v in vars(mod).items()}

    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert bindings() == before


def test_self_time_excludes_children():
    parent = spans.Span("a", None, start=0.0, end=1.0)
    child = spans.Span("b", parent, start=0.2, end=0.5)
    parent.child_time = child.end - child.start
    totals = spans.layer_totals([child, parent])
    assert totals["self_ms"]["a"] == pytest.approx(700.0)
    assert totals["self_ms"]["b"] == pytest.approx(300.0)
