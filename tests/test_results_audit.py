"""Smoke test of tools/results_audit.py on a few documents, and of the classes
its --compare puts each differing document in."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from opsyslab import sdp

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
    # 3 x 300 workload documents, the 6 repro cases and 9 scale probes at each of 8 scales
    assert len(names) == len(set(names)) == 978
    assert sum(name.startswith("repro/") for name in names) == 6
    probes = [name for name in names if name.startswith("probes/scale/")]
    assert len(probes) == 72 and {name.split("/")[2] for name in probes} == set(audit.SCALES)
    assert len({name.rsplit("/", 1)[1] for name in probes}) == 9
    # the first document of each workload at seed 1, and the first scale probe at s = 1
    picked = [doc for doc in docs if "/1/000-" in doc[0]]
    picked += [doc for doc in docs if doc[0] in ("repro/E:perf", "repro/korovkin")]
    picked.append(("bad/unknown-kind", "uep", json.dumps({"kind": "nothing", "payload": {}})))
    record = audit.audit(picked)
    assert len(picked) == 7 and set(record) == {name for name, _, _ in picked}
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


@pytest.mark.parametrize("label", [label for label in load_tool().SCALES if label != "1"])
def test_scaled_spans_keep_the_unit_verdict(label):
    # A span does not change when its spanning matrices are rescaled, so each
    # scale probe answers with the exit code and verdict it gives at s = 1 and
    # numbers within 1e-9 of them; witnesses and certificates are not unique
    # and keep their own checks.  purity, decompose, the counterexample search
    # and every refusal keep the bytes.  An instance (a, b) times s has its
    # max_slack and norm_a times s, each to the solve's gap tolerance.
    audit = load_tool()
    s = audit.SCALES[label]
    unit, scaled = (audit.audit([(f"{i}-{command}", command, text)
                                 for i, (command, text) in enumerate(audit.scale_probes(t))])
                    for t in (1.0, s))
    assert len(unit) == 9
    assert [code for code, _ in unit.values()] == [0] * 8 + [2]  # the a that is not below b is refused
    for name, (code, text) in unit.items():
        assert code == scaled[name][0], (name, scaled[name])
        if code or name.endswith(("purity", "decompose")) or name == "6-check-unperforated":  # 6: the search
            assert scaled[name][1] == text, name
            continue
        a, b = ({k: v for k, v in json.loads(t).items() if not k.startswith(("witness", "certificate"))}
                for t in (text, scaled[name][1]))
        assert b.keys() == a.keys(), name
        for key, value in a.items():
            if key in ("max_slack", "norm_a"):
                assert b[key] == pytest.approx(s * value, rel=sdp.DEFAULT_SETTINGS.gap_tol), (name, key)
            else:
                assert b[key] == (pytest.approx(value, abs=1e-9) if isinstance(value, float) else value), (name, key)


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


def test_compare_prints_the_largest_move_per_result_field(tmp_path, capsys):
    # Endpoints and witnesses are separate fields, so an endpoint move can be
    # read against gap_tol apart from a witness move.
    audit = load_tool()
    before = {
        "extension/1/000-extension-interval": [0, '{"min":-0.5,"max":0.75,"witness_min":[[0.5,0],[0,0.5]]}'],
        "extension/1/001-extension-interval": [0, '{"min":-0.25,"max":0.5,"witness_min":[[1,0],[0,0]]}'],
        "extension/1/002-uep": [0, '{"interval":[0.25,0.25],"witness":null}'],
        "repro/korovkin": [0, "[1, 2]"],
    }
    after = {
        "extension/1/000-extension-interval": [0, '{"min":-0.5,"max":0.875,"witness_min":[[0.25,0],[0,0.75]]}'],
        "extension/1/001-extension-interval": [0, '{"min":-0.375,"max":0.5,"witness_min":[[1,0],[0,0]]}'],
        "extension/1/002-uep": [0, '{"interval":[0.25,0.3125],"witness":null}'],
        "repro/korovkin": [0, "[1, 2.5]"],
    }
    assert audit.field_moves(before["extension/1/000-extension-interval"],
                             after["extension/1/000-extension-interval"]) == {
        "min": 0.0, "max": 0.125, "witness_min": 0.25}
    assert audit.field_moves(before["repro/korovkin"], after["repro/korovkin"]) == {"": 0.5}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    assert audit.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "largest move per field, extension extension-interval: min 0.125, max 0.125, witness_min 0.25" in lines
    assert "largest move per field, extension uep: interval 0.0625" in lines
    assert "largest move per field, repro korovkin: (value) 0.5" in lines
    assert lines[-2:] == ["0 exit code, 0 values, 4 numbers only", "4 of 4 documents differ"]
