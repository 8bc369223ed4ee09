"""Smoke test of tools/results_audit.py on a few documents, and of the classes
its --compare puts each differing document in."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "results_audit.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("results_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_audit_lists_every_document_and_records_outcomes(tmp_path, capsys):
    audit = load_tool()
    docs = audit.documents()
    names = [name for name, _, _ in docs]
    assert len(names) == len(set(names)) == 906  # 3 x 300 workload documents and the 6 repro cases
    assert sum(name.startswith("repro/") for name in names) == 6
    picked = [doc for doc in docs if "/1/000-" in doc[0]]  # the first document of each workload, seed 1
    picked += [doc for doc in docs if doc[0] in ("repro/E:perf", "repro/korovkin")]
    picked.append(("bad/unknown-kind", "uep", json.dumps({"kind": "nothing", "payload": {}})))
    record = audit.audit(picked)
    assert len(picked) == 6 and set(record) == {name for name, _, _ in picked}
    for name, (code, text) in record.items():
        if name.startswith("bad/"):
            assert code == 2 and text.startswith("error:")
        else:
            assert code == 0 and json.loads(text), name
    assert audit.compare(record, dict(record)) == []
    changed = dict(record, **{"repro/E:perf": [3, "numerical failure: x"]})
    del changed["repro/korovkin"]
    assert audit.compare(record, changed) == ["repro/E:perf", "repro/korovkin"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record))
    b.write_text(json.dumps(changed))
    assert audit.main(["--compare", str(a), str(a)]) == 0
    assert audit.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"2 of {len(record)} documents differ"


def test_compare_classifies_each_difference(tmp_path, capsys):
    audit = load_tool()
    results = '{"verdict":"FEASIBLE","max_slack":0.25,"b_prime":[[1,0],[0,2]]}'
    before = {
        "order/1/000-riesz": [0, results],
        "order/1/001-unperforated": [0, results],
        "order/1/002-unperforated": [0, results],
        "order/1/003-unperforated": [0, results],
        "extension/1/000-extension-interval": [3, "numerical failure: budget"],
        "repro/E:perf": [0, results],
        "repro/korovkin": [0, "{}"],
    }
    after = dict(before, **{
        "order/1/000-riesz": [0, results.replace("0.25", "0.5")],  # numbers only
        "order/1/001-unperforated": [0, results.replace("FEASIBLE", "INFEASIBLE")],  # a verdict
        "order/1/002-unperforated": [0, results.replace("[[1,0],[0,2]]", "[[1,0]]")],  # a list's length
        "order/1/003-unperforated": [3, "numerical failure: x"],  # the exit code
        "extension/1/000-extension-interval": [3, "numerical failure: stalled"],  # the message
        "repro/E:perf": [0, results.replace("2]]", "2.125]]")],  # numbers only
    })
    del after["repro/korovkin"]  # only one audit has it
    assert audit.classify(before["order/1/000-riesz"], after["order/1/000-riesz"]) == (audit.NUMBERS, 0.25)
    assert audit.classify(before["order/1/001-unperforated"], after["order/1/001-unperforated"]) == (
        audit.VALUES, None)
    assert audit.classify(before["order/1/002-unperforated"], after["order/1/002-unperforated"]) == (
        audit.VALUES, None)
    assert audit.classify(before["order/1/003-unperforated"], after["order/1/003-unperforated"]) == (
        audit.EXIT_CODE, None)
    assert audit.classify(before["extension/1/000-extension-interval"],
                          after["extension/1/000-extension-interval"]) == (audit.VALUES, None)
    assert audit.classify(before["repro/korovkin"], None) == (audit.EXIT_CODE, None)
    assert audit.classify(before["repro/E:perf"], before["repro/E:perf"]) == (audit.NUMBERS, 0.0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    assert audit.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "largest numeric move, order riesz: 0.25" in lines
    assert "largest numeric move, repro E:perf: 0.125" in lines
    assert not any(line.startswith("largest numeric move, order unperforated") for line in lines)
    assert lines[-2:] == ["2 exit code, 3 values, 2 numbers only", "7 of 7 documents differ"]
