"""Smoke test of tools/results_audit.py on a few documents."""

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
