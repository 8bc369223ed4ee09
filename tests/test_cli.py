"""Problem-file parsing, report round-trips, CLI exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opsyslab import algebra, problems, sdp, spectrahedron
from opsyslab.algebra import MAX_AMBIENT, MatrixStarAlgebra, OperatorSubspace
from opsyslab.cli import COMMAND_KINDS, COMMAND_ONLY, main
from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import MAX_DIM, CoefficientStack
from opsyslab.korovkin import MAX_DEGREE, MAX_GRID_SIZE
from opsyslab.rigidity import MAX_CHOI_AMBIENT, ChoiMap
from opsyslab.sdp import SdpSettings
from opsyslab.states import StateFunctional

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def doc_unperforated_instance() -> str:
    return json.dumps(
        {
            "kind": "unperforated",
            "payload": {
                "S": [[[0, 2], [2, 0]]],
                "T": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                "a": [[0, 2], [2, 0]],
                "b": [[1, 0], [0, 5]],
            },
        }
    )


def test_parse_perf_document_matrices():
    doc = problems.parse_problem(doc_unperforated_instance())
    assert doc.kind == "unperforated"
    assert np.allclose(doc.payload["a"], np.array([[0, 2], [2, 0]]))
    assert np.allclose(doc.payload["b"], np.diag([1, 5]))


def test_parse_rejects_empty_matrix_list():
    bad = json.dumps({"kind": "unperforated", "payload": {"S": [], "T": [[[1]]]}})
    with pytest.raises(InputError) as err:
        problems.parse_problem(bad)
    assert "payload.S" in str(err.value)


def test_parse_rejects_bad_entry_with_path():
    bad = json.dumps(
        {
            "kind": "unperforated",
            "payload": {"S": [[[1, "x"], [0, 1]]], "T": [[[1]]]},
        }
    )
    with pytest.raises(InputError) as err:
        problems.parse_problem(bad)
    assert "payload.S[0]" in str(err.value)


def test_parse_rejects_non_hermitian():
    bad = json.dumps(
        {"kind": "purity", "payload": {"state": [[0, 1], [0, 0]]}}
    )
    with pytest.raises(InputError):
        problems.parse_problem(bad)


def test_parse_rejects_unknown_kind():
    with pytest.raises(InputError):
        problems.parse_problem(json.dumps({"kind": "nope", "payload": {}}))


def test_run_perf_document_infeasible():
    doc = problems.parse_problem(doc_unperforated_instance())
    report = problems.run(doc)
    assert report["schema"] == "opsyslab/1"
    assert report["results"]["verdict"] == "INFEASIBLE"
    assert report["results"]["certificate"]


def test_report_roundtrip_and_determinism():
    doc = problems.parse_problem(doc_unperforated_instance())
    report = problems.run(doc)
    rendered = problems.render_value(report)
    echoed = json.loads(rendered)["problem"]
    doc2 = problems.parse_problem(problems.render_value(echoed))
    assert doc2.canonical == doc.canonical
    report2 = problems.run(doc2)
    r1 = dict(report, wall_time_s=None)
    r2 = dict(report2, wall_time_s=None)
    assert problems.render_value(r1) == problems.render_value(r2)


def test_float_rendering_roundtrips():
    values = [0.5, 1 / 3, 2.5e-8, np.pi, 1e300, -0.0024999999999999467]
    for v in values:
        assert float(json.loads(problems.render_value(v))) == v


def test_cli_repro_exit_zero(capsys):
    assert main(["repro", "--id", "E:perf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["verdict"] == "INFEASIBLE"
    assert out["provenance"] == "E:perf"


def test_cli_repro_unknown_id(capsys):
    assert main(["repro", "--id", "nope"]) == 2


def test_cli_korovkin_inline(capsys):
    assert main(["korovkin", "--n", "100", "--grid-size", "1001"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["deviations"]["x^2"] == pytest.approx(0.0025, abs=1e-12)


def test_cli_file_mode(tmp_path, capsys):
    path = tmp_path / "perf.json"
    path.write_text(doc_unperforated_instance())
    assert main(["check-unperforated", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["verdict"] == "INFEASIBLE"


def test_cli_kind_mismatch(tmp_path, capsys):
    path = tmp_path / "perf.json"
    path.write_text(doc_unperforated_instance())
    assert main(["purity", "--file", str(path)]) == 2


def test_cli_missing_file(capsys):
    assert main(["uep", "--file", "/nonexistent/x.json"]) == 2


def test_cli_batch_jobs(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(doc_unperforated_instance())
    p2.write_text(doc_unperforated_instance())
    assert main(["check-unperforated", "--file", str(p1), "--file", str(p2)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out, list) and len(out) == 2
    assert all(r["results"]["verdict"] == "INFEASIBLE" for r in out)


def test_cli_search_mode_with_seed(tmp_path, capsys):
    doc = json.dumps(
        {
            "kind": "unperforated",
            "payload": {
                "S": [[[0, 1], [1, 0]]],
                "T": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                "trials": 10,
            },
            "seed": 5,
        }
    )
    path = tmp_path / "search.json"
    path.write_text(doc)
    assert main(["check-unperforated", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["verdict"] == "INFEASIBLE"


def test_cli_uep_document(tmp_path, capsys):
    doc = json.dumps(
        {
            "kind": "uep",
            "payload": {
                "S": [
                    [[1, 0], [0, 1]],
                    [[0, 1], [1, 0]],
                    [[[0, 0], [0, 1]], [[0, -1], [0, 0]]],
                ],
                "state": [[1, 0], [0, 0]],
            },
        }
    )
    path = tmp_path / "uep.json"
    path.write_text(doc)
    assert main(["uep", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["holds"] is False
    witness = np.array([[complex(*c) for c in row] for row in out["results"]["witness"]])
    assert np.allclose(witness, np.diag([1.0, 0.0]))


def test_algebra_is_parsed_once(monkeypatch):
    doc = problems.parse_problem(
        json.dumps(
            {
                "kind": "purity",
                "payload": {
                    "state": [[0.5, 0], [0, 0.5]],
                    "A": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                },
            }
        )
    )
    assert isinstance(doc.payload["_A"], MatrixStarAlgebra)
    assert "_A" not in doc.canonical["payload"]

    riesz = problems.parse_problem(json.dumps({"kind": "riesz", "payload": {
        "B": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "a": [[0.5, 0], [0, 0]], "epsilon": 1, "N": 1}}))
    assert isinstance(riesz.payload["_B"], MatrixStarAlgebra)
    assert "_B" not in riesz.canonical["payload"]

    def rebuilt(*args, **kwargs):
        raise AssertionError("the document's algebra was built again after parsing")

    monkeypatch.setattr(MatrixStarAlgebra, "from_basis", staticmethod(rebuilt))
    assert problems.run(doc)["results"] == {"pure": False}
    assert len(problems.run(riesz)["results"]["betas"]) == 1


def test_command_kinds_cover_every_kind_once():
    assert sorted(COMMAND_KINDS.values()) == sorted(problems.KINDS)
    assert COMMAND_KINDS["check-unperforated"] == "unperforated"
    assert all(cmd == kind for cmd, kind in COMMAND_KINDS.items() if kind != "unperforated")


# Benchmark documents (extension workload, seeds 12 and 3) whose feasible
# face has rank one.  The phase-one dual locates it only to about 1e-7; the
# extension document used to be rejected as admitting no state extension.
def test_rank_one_extension_face_is_never_an_input_error(capsys):
    code = main(["extension-interval", "--file", str(DATA / "extension_flat_face_rank1.json")])
    assert code != 2 and code in (0, 3)


def test_choi_face_of_a_commuting_system_is_never_an_input_error(capsys):
    # S = span{I, h} in M3.  The identity map always fixes S, yet a noisy
    # support refinement used to give a wrong face whose emptiness was
    # reported as certified (exit 2).
    assert main(["boundary", "--file", str(DATA / "boundary_wrong_face.json")]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["boundary"] is False
    S = json.loads((DATA / "boundary_wrong_face.json").read_text())["payload"]["S"]
    pairs = np.array(results["witness_choi"])
    witness = ChoiMap(dim_in=3, dim_out=3, choi=pairs[..., 0] + 1j * pairs[..., 1], unital=True)
    for pairs in np.array(S):
        s = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.linalg.norm(witness.apply(s) - s) <= 1e-6


def test_rank_one_choi_face_is_located_exactly(capsys):
    assert main(["boundary", "--file", str(DATA / "boundary_flat_face_rank1.json")]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["boundary"] is True
    assert results["max_deviation"] <= 1e-9


def test_cli_riesz_document(tmp_path, capsys):
    doc = json.dumps(
        {
            "kind": "riesz",
            "payload": {
                "B": [[[1, 0], [0, 1]]],
                "a": [[0, 0], [0, 1]],
                "lowers": [[[0, 0], [0, 0]]],
                "uppers": [[[1, 0], [0, 1]]],
                "epsilon": 1.0,
                "N": 3,
            },
        }
    )
    path = tmp_path / "riesz.json"
    path.write_text(doc)
    assert main(["riesz", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["results"]["betas"]) == 3
    assert all(nm <= (1 + 1.0 / (i + 1)) + 1e-6 for i, nm in enumerate(out["results"]["norms"]))


def test_cli_table_mode(capsys):
    assert main(["repro", "--id", "korovkin", "--table"]) == 0
    out = capsys.readouterr().out
    assert "deviations.x^2" in out


def test_cli_repro_list(capsys):
    assert main(["repro", "--list"]) == 0
    out = capsys.readouterr().out
    assert "E:unpmatrices" in out and "ideal-uep" in out


@pytest.mark.parametrize("bad", ["abc", -1, 0, 1e400, 10**400, True, None])
def test_parse_rejects_bad_tolerance(bad):
    doc = json.loads(doc_unperforated_instance())
    doc["tolerances"] = {"gap": bad}
    with pytest.raises(InputError, match="tolerances.gap"):
        problems.parse_problem(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), 10**400, "1"])
def test_parse_rejects_non_finite_epsilon(bad):
    doc = {
        "kind": "riesz",
        "payload": {"B": [[[1, 0], [0, 1]]], "a": [[0, 0], [0, 1]], "epsilon": bad},
    }
    with pytest.raises(InputError, match="epsilon"):
        problems.parse_problem(json.dumps(doc))


def test_parse_rejects_unknown_tolerance_key():
    doc = json.loads(doc_unperforated_instance())
    doc["tolerances"] = {"gap_tol": 1e-6}
    with pytest.raises(InputError, match="unknown keys"):
        problems.parse_problem(json.dumps(doc))


def test_parse_echoes_valid_tolerances():
    doc = json.loads(doc_unperforated_instance())
    doc["tolerances"] = {"psd": 1e-9, "gap": 1e-6}
    parsed = problems.parse_problem(json.dumps(doc))
    assert parsed.settings.gap_tol == 1e-6 and parsed.settings.psd_slack == 1e-9
    assert parsed.canonical["tolerances"] == {"gap": 1e-6, "psd": 1e-9}


@pytest.mark.parametrize("field", ["gap_tol", "psd_slack"])
@pytest.mark.parametrize("bad", [-1e-7, 0.0, float("nan"), float("inf"), "1e-7"])
def test_settings_reject_bad_tolerance(field, bad):
    with pytest.raises(InputError, match=field):
        SdpSettings(**{field: bad})


@pytest.mark.parametrize("s", [1e-9, 1e-10, 1e-30])
def test_a_tiny_a_above_b_exits_2_naming_b(tmp_path, capsys, s):
    # a = s diag(1, -1) is not below b = 0 at any scale: the order check runs
    # on the instance's own scale, so no absolute floor lets it through.
    doc = {"kind": "unperforated", "payload": {"S": [[[1, 0], [0, -1]]], "T": [[[1, 0], [0, 1]]],
                                               "a": [[s, 0], [0, -s]], "b": [[0, 0], [0, 0]]}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["check-unperforated", "--file", str(path)]) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: payload.b: instance requires a <= b"


def test_cli_bad_tolerance_exits_2(tmp_path, capsys):
    doc = json.loads(doc_unperforated_instance())
    doc["tolerances"] = {"gap": "abc"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-unperforated", "--file", str(path)]) == 2
    assert main(["repro", "--id", "E:perf", "--tol-gap", "-1"]) == 2


def test_cli_tolerance_overrides_reach_the_echo(tmp_path, capsys):
    # the echo carried --seed but not the tolerance overrides, so re-running it did not reproduce the run
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "uep", "tolerances": {"psd": 1e-9},
                                "payload": {"S": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]], "state": [[1, 0], [0, 0]]}}))
    assert main(["uep", "--file", str(path), "--tol-gap", "1e-5", "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["problem"]["tolerances"] == {"gap": 1e-5, "psd": 1e-9}
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["problem"]))
    assert problems.parse_problem(echo.read_text()).settings == SdpSettings(gap_tol=1e-5, psd_slack=1e-9)
    assert main(["uep", "--file", str(echo)]) == 0
    again = json.loads(capsys.readouterr().out)
    assert (again["results"], again["problem"]) == (report["results"], report["problem"])


@pytest.mark.parametrize("flag, value", [
    ("--id", "E:perf"), ("--list", None), ("--n", "0"), ("--grid-size", "11"), ("--fn", "exp"),
])
def test_command_only_option_exits_2_elsewhere(capsys, flag, value):
    own, _ = COMMAND_ONLY[flag]
    other = "korovkin" if own == "repro" else "repro"
    with pytest.raises(SystemExit) as exc:
        main([other, flag] + ([value] if value is not None else []))
    assert exc.value.code == 2
    assert f"{flag} is only accepted by {own}" in capsys.readouterr().err


def test_cli_korovkin_high_degree(capsys):
    assert main(["korovkin", "--n", "1500", "--grid-size", "101", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["deviations"]["x^2"] == pytest.approx(1.0 / 6000, rel=1e-9)


def test_cli_non_finite_result_exits_3(monkeypatch, capsys):
    kind = (problems._parse_korovkin, lambda doc: {"value": float("nan")})
    monkeypatch.setitem(problems._KINDS, "korovkin", kind)
    assert main(["korovkin", "--n", "10", "--json"]) == 3
    assert "non-finite" in capsys.readouterr().err


REPRO_CASES = ["E:perf", "E:ueprepstates", "ideal-uep", "E:notpurerestriction", "korovkin"]


@pytest.mark.parametrize(
    "argv",
    [["repro", "--id", case] for case in REPRO_CASES]
    + [["korovkin", "--n", "2000", "--grid-size", "1001", "--fn", "sin_pi", "--fn", "abs_mid"]],
    ids=REPRO_CASES + ["korovkin-n2000"],
)
def test_repro_results_identical_across_blas_threads(argv):
    # korovkin's weighted sums run through a BLAS matmul
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "opsyslab.cli", *argv, "--json"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(problems.render_value(json.loads(proc.stdout)["results"]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("grid_size", [MAX_GRID_SIZE + 1, 10**13])
def test_cli_korovkin_grid_limit_exits_2(capsys, grid_size):
    # 10**13 points used to escape cli.main as a numpy allocation error.
    assert main(["korovkin", "--n", "10", "--grid-size", str(grid_size)]) == 2
    err = capsys.readouterr().err
    assert f"payload.grid_size: expected at most {MAX_GRID_SIZE}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--n", str(MAX_DEGREE + 1)], f"payload.n: expected at most {MAX_DEGREE}"),
    (["--fn", "x^3", "--fn", "nope"], "payload.functions[1]: unknown test function 'nope'"),
])
def test_cli_korovkin_fields_checked_at_parse_time(monkeypatch, capsys, argv, message):
    # the document is refused before korovkin_demo runs
    monkeypatch.setattr(problems, "korovkin_demo", None)
    assert main(["korovkin"] + argv) == 2
    assert message in capsys.readouterr().err


def m4_plus_c_basis() -> list:
    """A hermitian basis of M4 + C inside M5 (17 elements)."""
    return hermitian_units([4, 1])


def hermitian_units(sizes) -> list:
    """A hermitian basis of the block-diagonal algebra (+) M_d over the sizes."""
    n = sum(sizes)
    mats, offset = [], 0
    for d in sizes:
        for i in range(offset, offset + d):
            for j in range(i, offset + d):
                for z in ((1.0,) if i == j else (1.0, 1.0j)):
                    M = np.zeros((n, n), dtype=complex)
                    M[i, j], M[j, i] = z, np.conj(z)
                    mats.append(M)
        offset += d
    return mats


PEAK_GROWTH_SCRIPT = """
import contextlib, io, resource, sys
from opsyslab.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["riesz", "--file", sys.argv[1], "--json"])
print(code, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
"""


def test_riesz_batch_memory_stays_bounded(tmp_path):
    # Full M8 with N = 40: when the chunk budget counted only the scaled
    # coefficients, a chunk of about 36 programs held six arrays of that
    # size and the run's peak grew by about 89 MB (to about 126 MB, against
    # 56 MB for N = 1); budgeting the whole working set keeps the growth
    # near that of one program, about 20 MB.
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 8))
    a = (g + g.T) / np.linalg.norm(g + g.T, 2)
    pairs = lambda M: np.stack([M.real, M.imag], axis=-1).tolist()
    path = tmp_path / "riesz.json"
    path.write_text(json.dumps({"kind": "riesz", "payload": {
        "B": [pairs(M) for M in hermitian_units([8])], "a": a.tolist(), "epsilon": 0.5, "N": 40,
        "lowers": [(a - 0.3 * np.eye(8)).tolist()], "uppers": [(a + 0.2 * np.eye(8)).tolist()]}}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_GROWTH_SCRIPT, str(path)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    code, growth_mb = proc.stdout.split()
    assert code == "0"
    assert float(growth_mb) < 40.0


@pytest.mark.parametrize(
    "state, A",
    [
        (np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) / 15.0, m4_plus_c_basis()),
        (np.eye(5) / 5.0, 5),
        (np.eye(16) / 16.0, 16),
        (np.eye(16) / 16.0, hermitian_units([8, 8])),
    ],
    ids=["M4+C-full-rank", "M5-maximally-mixed", "M16-maximally-mixed", "M8+M8-maximally-mixed"],
)
def test_cli_purity_and_decompose_at_size(tmp_path, capsys, state, A):
    # The GNS space of these states has dimension up to 256; purity and
    # decomposition read the blocks of A itself, inside M_n with n <= 16.
    A = A if isinstance(A, int) else problems.matrices_to_json(A)
    path = tmp_path / "doc.json"
    for command in ("purity", "decompose"):
        path.write_text(json.dumps(
            {"kind": command, "payload": {"state": problems.matrix_to_json(state), "A": A}}
        ))
        assert main([command, "--file", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        if command == "purity":
            assert results == {"pure": False}
        else:
            weights = [atom["weight"] for atom in results["atoms"]]
            assert sorted(weights) == pytest.approx(np.linalg.eigvalsh(state), abs=1e-12)
            pairs = np.array([atom["density"] for atom in results["atoms"]])
            total = np.tensordot(weights, pairs[..., 0] + 1j * pairs[..., 1], axes=1)
            assert np.allclose(total, state, atol=1e-12)


@pytest.mark.parametrize("command", ["purity", "decompose"])
def test_cli_state_and_algebra_dimension_mismatch_exits_2(tmp_path, capsys, command):
    # purity used to let a numpy ValueError escape here
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": command, "payload": {"state": [[1, 0], [0, 0]], "A": 3}}))
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: payload.state: expected dimension 3 (that of A), got 2\n"


@pytest.mark.parametrize("kind, payload, message", [
    ("uep", {"S": [[[1, 0], [0, 1]]], "state": [[1, 0], [0, 0]], "A": 3},
     "payload.A: expected dimension 2 (that of S), got 3"),
    ("extension-interval", {"S": [[[1, 0], [0, 1]]], "phi": [[1, 0], [0, 0]], "t": [[1, 0], [0, 0]],
                            "ambient": 3},
     "payload.ambient: expected dimension 2 (that of S), got 3"),
    ("extension-interval", {"S": [[[1, 0], [0, 1]]], "phi": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                            "t": [[1, 0], [0, 0]]},
     "payload.phi: expected dimension 2 (that of S), got 3"),
    ("boundary", {"S": [[[1, 0], [0, 1]]], "algebra": 3},
     "payload.algebra: expected dimension 2 (that of S), got 3"),
])
def test_cli_algebra_and_state_dimensions_must_match_s(tmp_path, capsys, kind, payload, message):
    # boundary used to let a numpy ValueError escape here
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main([kind, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


I2, I3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
Z2, Z3 = [[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("command, kind, payload, message", [
    ("riesz", "riesz", {"B": [I2], "a": I3, "epsilon": 0.5},
     "payload.a: expected dimension 2 (that of B), got 3"),
    ("riesz", "riesz", {"B": [I2], "a": I2, "uppers": [I3], "epsilon": 0.5},
     "payload.uppers: expected dimension 2 (that of B), got 3"),
    ("check-unperforated", "unperforated", {"S": [I2], "T": [I3], "a": Z2, "b": I2},
     "payload.T: expected dimension 2 (that of S), got 3"),
    ("check-unperforated", "unperforated", {"S": [I2], "T": [I2], "a": Z3, "b": I2},
     "payload.a: expected dimension 2 (that of S), got 3"),
    ("check-unperforated", "unperforated", {"S": [I2], "T": [I2], "a": Z2, "b": I3},
     "payload.b: expected dimension 2 (that of S), got 3"),
    ("nosp", "nosp", {"pi_images": [I2], "A": 3, "Pi_choi": {
        "dim_in": 2, "dim_out": 2, "choi": [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}},
     "payload.A: expected dimension 2 (that of Pi_choi.dim_in), got 3"),
    ("nosp", "nosp", {"pi_images": [I2], "A": 2, "Pi_choi": {
        "dim_in": 2, "dim_out": 2, "choi": [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}},
     "payload.pi_images: need one representation image per hermitian basis element"),
    ("nosp", "nosp", {"pi_images": [I3, I3, I3, I3], "A": 2, "Pi_choi": {
        "dim_in": 2, "dim_out": 2, "choi": [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}},
     "payload.Pi_choi.dim_out: CP map output dimension does not match the images"),
])
def test_cli_dimension_mismatch_names_the_field(tmp_path, capsys, command, kind, payload, message):
    # these used to exit 2 with no field path, some with a misleading message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


NOT_CLOSED = "not a *-closed span: span is not closed under multiplication"
NOT_UNITAL = "expected a unital algebra (the identity is not in the span)"


@pytest.mark.parametrize("kind, payload, message", [
    ("purity", {"state": [[0.5, 0], [0, 0.5]], "A": [[[1, 0], [0, -1]]]}, f"payload.A: {NOT_CLOSED}"),
    ("riesz", {"B": [[[1, 0], [0, -1]]], "a": [[0.5, 0], [0, 0]], "epsilon": 1}, f"payload.B: {NOT_CLOSED}"),
    ("purity", {"state": [[1, 0], [0, 0]], "A": [[[1, 0], [0, 0]]]}, f"payload.A: {NOT_UNITAL}"),
    ("decompose", {"state": [[1, 0], [0, 0]], "A": [[[1, 0], [0, 0]]]}, f"payload.A: {NOT_UNITAL}"),
    ("riesz", {"B": [[[1, 0], [0, 0]]], "a": [[1, 0], [0, 0]], "epsilon": 1}, f"payload.B: {NOT_UNITAL}"),
    ("riesz", {"a": [[1, 0], [0, 0]], "epsilon": 1}, "payload.B: expected a matrix list or an integer dimension"),
])
def test_cli_algebra_field_rejections_name_the_field(tmp_path, capsys, kind, payload, message):
    # these used to exit 2 with a message that named no field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main([kind, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


DEPENDENT = "subspace basis is not linearly independent"
E11, E22, X = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]
HALF_TRACE = [[0.3, 0], [0, 0.3]]


@pytest.mark.parametrize("kind, payload, message", [
    ("uep", {"S": [I2, I2], "state": E11}, f"payload.S: {DEPENDENT}"),
    ("boundary", {"S": [I2, I2]}, f"payload.S: {DEPENDENT}"),
    ("unperforated", {"S": [I2, I2], "T": [I2], "a": Z2, "b": I2}, f"payload.S: {DEPENDENT}"),
    ("unperforated", {"S": [I2], "T": [E11], "T_unital": True, "a": Z2, "b": I2},
     "payload.T: unital flag set but identity is not in the span"),
    ("purity", {"state": HALF_TRACE}, "payload.state: density trace 0.6 is not 1"),
    ("decompose", {"state": HALF_TRACE, "A": 2}, "payload.state: density trace 0.6 is not 1"),
    ("uep", {"S": [I2], "state": HALF_TRACE}, "payload.state: density trace 0.6 is not 1"),
    ("uep", {"S": [I2, X], "state": E11, "A": [E11, E22]},
     "payload.S: subspace is not contained in the state's algebra"),
    ("extension-interval", {"S": [I2], "phi": HALF_TRACE, "t": E11}, "payload.phi: density trace 0.6 is not 1"),
    ("extension-interval", {"S": [I2], "phi": [[2, 0], [0, -1]], "t": E11},
     "payload.phi: density has a negative eigenvalue -1.000e+00"),
    ("extension-interval", {"S": [I2], "phi": E11, "t": X, "ambient": [E11, E22]},
     "payload.t: element does not belong to the ambient algebra"),
])
def test_cli_subspace_and_state_rejections_name_the_field(tmp_path, capsys, kind, payload, message):
    # these used to exit 2 with a message that named no field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    command = "check-unperforated" if kind == "unperforated" else kind
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


DIAG_B = [I2, E11]


def nosp_payload(choi) -> dict:
    return {"pi_images": [I2] * 4, "A": 2, "Pi_choi": {"dim_in": 2, "dim_out": 2, "choi": choi}}


@pytest.mark.parametrize("kind, payload, message", [
    ("riesz", {"B": DIAG_B, "a": E11, "epsilon": 0}, "payload.epsilon: epsilon must be positive"),
    ("riesz", {"B": DIAG_B, "a": E11, "lowers": [I2], "epsilon": 0.5},
     "payload.lowers: a lower bound does not sit below the element"),
    ("riesz", {"B": DIAG_B, "a": E11, "uppers": [Z2], "epsilon": 0.5},
     "payload.uppers: an upper bound does not sit above the element"),
    ("riesz", {"B": DIAG_B, "a": E11, "lowers": [[[0, -1], [-1, 0]]], "epsilon": 0.5},
     "payload.lowers: a lower bound is not in the algebra"),
    ("riesz", {"B": DIAG_B, "a": E11, "uppers": [[[2, 1], [1, 2]]], "epsilon": 0.5},
     "payload.uppers: an upper bound is not in the algebra"),
    ("riesz", {"B": DIAG_B, "a": E11, "epsilon": 0.5, "auto_bounds": 1},
     "payload.auto_bounds: auto-generated bounds need a seed"),
    ("unperforated", {"S": [I2], "T": [I2], "a": E11, "b": I2},
     "payload.a: matrix is not in the subspace (residual 7.071e-01)"),
    ("unperforated", {"S": [I2], "T": [I2], "a": Z2, "b": E11},
     "payload.b: matrix is not in the subspace (residual 7.071e-01)"),
    ("unperforated", {"S": [I2], "T": [I2], "a": I2, "b": Z2}, "payload.b: instance requires a <= b"),
    ("nosp", nosp_payload([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]),
     "payload.Pi_choi.choi: Choi matrix is not PSD: map is not completely positive"),
    ("nosp", nosp_payload([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
     "payload.Pi_choi.choi: map is not unital"),
    ("nosp", nosp_payload(I2), "payload.Pi_choi.choi: Choi matrix dimension mismatch"),
    ("extension-interval", {"S": [I2], "phi": E11, "t": E11, "ambient": [E11]},
     "payload.S: the state's domain is not contained in the ambient algebra"),
    ("repro", {"id": "nope"}, "payload.id: unknown repro case 'nope'; known: E:notpurerestriction, E:perf,"
     " E:ueprepstates, E:unpmatrices, ideal-uep, korovkin"),
    ("unperforated", {"S": [I2], "T": [I2], "a": [[1e-9, 0], [0, -1e-9]], "b": I2},  # tiny, yet outside S
     "payload.a: matrix is not in the subspace (residual 1.414e-09)"),
])
def test_cli_run_time_rejections_name_the_field(tmp_path, capsys, kind, payload, message):
    # The library makes these checks when the document runs.  They used to
    # exit 2 naming no field, except S of extension-interval, which a copy
    # of the check in the parser named.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    command = "check-unperforated" if kind == "unperforated" else kind
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, doc, message", [
    ("riesz", {"kind": "riesz", "seed": 1, "payload": {
        "B": 12, "a": np.eye(12).tolist(), "epsilon": 0.5, "auto_bounds": 1}},
     "payload.B: 144 variables exceeds 128"),
    ("nosp", {"kind": "nosp", "payload": {
        "pi_images": [[[1]]] * 144, "Pi_choi": {"dim_in": 12, "dim_out": 1, "choi": (np.eye(12) / 12).tolist()}}},
     "payload.A: 145 variables exceeds 128"),
    ("check-unperforated", {"kind": "unperforated", "payload": {
        "S": [np.eye(12).tolist()], "T": [problems.matrix_to_json(M) for M in hermitian_units([12])], "trials": 1}},
     "payload.T: 144 variables exceeds 128"),
])
def test_cli_program_size_limit_names_the_field(tmp_path, capsys, command, doc, message):
    # One program variable per basis element of B, A or T (nosp adds one):
    # bound generation, the nosp program and the search's generation program.
    # The nosp document omits A, which is then M12 from dim_in.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_variable_limit_binds_optimization_programs_only(tmp_path, capsys):
    # MAX_VARIABLES bounds optimization programs, whose count per document
    # grows with trials or bound pairs: riesz's bound generation and the
    # search's generation program.  Feasibility programs over the same 144
    # variables (riesz's steps, one unperforated instance) are bounded by
    # MAX_COEFFICIENT_DIM, and answer.
    a, I12 = np.diag([0.5] + [0.0] * 10 + [-0.5]).tolist(), np.eye(12)
    riesz = {"B": 12, "a": a, "epsilon": 0.5, "N": 1}
    pair = {"S": [I12.tolist()], "T": [problems.matrix_to_json(M) for M in hermitian_units([12])]}
    for command, payload, outcome in [
        ("riesz", riesz, "answers"),  # riesz reports no verdict
        ("riesz", riesz | {"auto_bounds": 1}, "payload.B: 144 variables exceeds 128"),
        ("check-unperforated", pair | {"a": (I12 / 2).tolist(), "b": I12.tolist()}, "FEASIBLE"),
        ("check-unperforated", pair | {"trials": 1}, "payload.T: 144 variables exceeds 128"),
    ]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"kind": command.removeprefix("check-"), "seed": 1, "payload": payload}))
        code = main([command, "--file", str(path), "--json"])
        out, err = capsys.readouterr()
        if outcome.startswith("payload."):
            assert (code, err) == (2, f"error: {outcome}\n"), command
        else:
            assert code == 0 and json.loads(out)["results"].get("verdict", "answers") == outcome, command


def test_cli_batch_reports_a_later_parse_error_before_a_run_time_rejection(tmp_path, capsys):
    # Every document is parsed before any runs, and the library checks that
    # t lies in the ambient algebra when the first document runs.
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"kind": "extension-interval", "payload": {
        "S": [I2], "phi": E11, "t": X, "ambient": [E11, E22]}}))
    second.write_text(json.dumps({"kind": "extension-interval", "payload": {"S": [I2], "t": E11}}))
    assert main(["extension-interval", "--file", str(first), "--file", str(second)]) == 2
    assert capsys.readouterr().err == "error: payload.phi: expected a nonempty matrix (array of rows)\n"


def test_state_and_subspace_are_built_when_parsing(monkeypatch, tmp_path, capsys):
    doc = problems.parse_problem(json.dumps({"kind": "uep", "payload": {"S": [I2, X], "state": E11}}))
    assert isinstance(doc.payload["_S"], OperatorSubspace) and isinstance(doc.payload["_state"], StateFunctional)
    assert doc.payload["_state"].domain is doc.payload["_A"]
    # a numerical failure while parsing exits 3, as one while running does

    def fail(A):
        raise NumericalFailureError("injected")

    monkeypatch.setattr(algebra, "eigenvalues_checked", fail)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "uep", "payload": {"S": [I2], "state": E11}}))
    assert main(["uep", "--file", str(path)]) == 3
    assert capsys.readouterr().err == "numerical failure: injected\n"


def test_cli_riesz_accepts_an_integer_b(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "riesz", "payload": {"B": 2, "a": [[0.5, 0], [0, 0]], "epsilon": 1}}))
    assert main(["riesz", "--file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["problem"]["payload"]["B"] == 2
    norms = report["results"]["norms"]
    assert len(norms) == 5
    assert all(norm <= (1 + 1 / n) * 0.5 + 1e-6 for n, norm in enumerate(norms, start=1))


def test_cli_extension_interval_rejects_s_outside_the_ambient_algebra(tmp_path, capsys):
    # I is not in span{E11}; this used to answer with the interval [0, 1]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "extension-interval", "payload": {
        "S": [[[1, 0], [0, 1]]], "phi": [[1, 0], [0, 0]], "t": [[1, 0], [0, 0]],
        "ambient": [[[1, 0], [0, 0]]]}}))
    assert main(["extension-interval", "--file", str(path)]) == 2
    assert "not contained in the ambient algebra" in capsys.readouterr().err


def test_cli_uep_state_dimension_must_match_s(tmp_path, capsys):
    path = tmp_path / "uep.json"
    path.write_text(json.dumps({"kind": "uep", "payload": {
        "S": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]], "state": [[1]]}}))
    assert main(["uep", "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: payload.state: subspace dimension does not match the state\n"


@pytest.mark.parametrize("dim_in", [MAX_AMBIENT + 1, 10**30])
def test_cli_nosp_choi_input_dimension_is_bounded(tmp_path, capsys, dim_in):
    path = tmp_path / "nosp.json"
    path.write_text(json.dumps({"kind": "nosp", "payload": {
        "pi_images": [[[1]]], "Pi_choi": {"dim_in": dim_in, "dim_out": 1, "choi": [[1]]}}}))
    assert main(["nosp", "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: payload.Pi_choi.dim_in: expected at most {MAX_AMBIENT}\n"


@pytest.mark.parametrize("kind, fields", [
    ("uep", {"state": np.eye(12) / 12}),
    ("extension-interval", {"phi": np.eye(12) / 12, "t": np.diag(np.arange(12.0))}),
])
def test_cli_face_beyond_the_variable_limit_names_s(tmp_path, capsys, kind, fields):
    # a full-rank state on M12 pinned by 4 matrices leaves 144 - 4 face
    # coordinates, more than one SDP takes; this used to exit 2 with
    # "140 variables exceeds 128" and no field
    S = [np.eye(12)] + [np.diag(np.arange(12.0) == k).astype(float) for k in range(3)]
    payload = {"S": [s.tolist() for s in S], **{key: M.tolist() for key, M in fields.items()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main([kind, "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: payload.S: the located face has 140 coordinates; one SDP takes at most 128,"
        " and S pins too few of them at this matrix size\n")


def test_uep_on_a_face_too_large_stops_after_one_chunk(monkeypatch, tmp_path, capsys):
    # On M20, S = span{I} pins one of the 400 face coordinates.  The basis is
    # ranged in chunks of BLOCK_ENTRIES // (399 * 20 * 20) = 6 elements, and the
    # first chunk holds an open one, so 6 objectives are ranged before the
    # face-size error, not all 400.
    ranged = []
    linear_range = spectrahedron.ReducedSpectrahedron.linear_range

    def counting(self, Cs):
        ranged.append(len(Cs))
        return linear_range(self, Cs)

    monkeypatch.setattr(spectrahedron.ReducedSpectrahedron, "linear_range", counting)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "uep", "payload": {"S": [np.eye(20).tolist()],
                                                          "state": (np.eye(20) / 20).tolist()}}))
    assert main(["uep", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: payload.S: the located face has 399 coordinates; one SDP takes at most 128,"
        " and S pins too few of them at this matrix size\n")
    assert ranged == [6]


def test_uep_on_a_large_face_with_nothing_open_still_answers(tmp_path, capsys):
    # On M12 with A = span{I} the one basis element is constant on the face of
    # 143 coordinates, so no program runs and no face-size limit applies.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "uep", "payload": {
        "S": [np.eye(12).tolist()], "A": [np.eye(12).tolist()], "state": (np.eye(12) / 12).tolist()}}))
    assert main(["uep", "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"holds": True}


@pytest.mark.parametrize("kind", ["uep", "extension-interval"])
def test_cli_face_search_beyond_its_limit_names_s_and_poses_nothing(monkeypatch, tmp_path, capsys, kind):
    # With the algebra omitted, S = span{I, E11} and the state E11 leave the
    # search 16 - 2 = 14 coordinates on M4; the limit patched to 13 refuses
    # it before its program is posed, and at 14 the document answers.
    E11 = np.diag([1.0, 0.0, 0.0, 0.0])
    payload = {"S": [np.eye(4).tolist(), E11.tolist()]}
    payload |= {"state": E11.tolist()} if kind == "uep" else {"phi": E11.tolist(), "t": np.eye(4)[::-1].tolist()}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "payload": payload}))
    posed = []
    check_feasibility = sdp.check_feasibility
    monkeypatch.setattr(sdp, "check_feasibility", lambda blocks, **kw: posed.append(blocks[0].num_vars)
                        or check_feasibility(blocks, **kw))
    monkeypatch.setattr(spectrahedron, "MAX_FACE_SEARCH", 13)
    assert main([kind, "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: payload.S: the located face has 14 coordinates; the face search takes at most 13,"
        " and S pins too few of them at this matrix size\n")
    assert posed == []
    monkeypatch.setattr(spectrahedron, "MAX_FACE_SEARCH", 14)
    assert main([kind, "--file", str(path), "--json"]) == 0
    assert posed[0] == 14
    at_the_limit = json.loads(capsys.readouterr().out)["results"]
    monkeypatch.undo()
    assert main([kind, "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == at_the_limit


def test_an_over_limit_face_search_is_refused_before_its_directions_exist(monkeypatch, tmp_path, capsys):
    # The coordinate count comes from the rank: the refused search turns only
    # its least-norm point into a matrix, never its 14 null directions.
    E11 = np.diag([1.0, 0.0, 0.0, 0.0])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "uep", "payload": {"S": [np.eye(4).tolist(), E11.tolist()],
                                                          "state": E11.tolist()}}))
    rows = []
    from_real_coords = spectrahedron._from_real_coords
    monkeypatch.setattr(spectrahedron, "_from_real_coords", lambda x, d: rows.append(len(x)) or from_real_coords(x, d))
    monkeypatch.setattr(spectrahedron, "MAX_FACE_SEARCH", 13)
    assert main(["uep", "--file", str(path)]) == 2
    assert "the located face has 14 coordinates" in capsys.readouterr().err
    assert rows == [1]
    monkeypatch.setattr(spectrahedron, "MAX_FACE_SEARCH", 14)
    rows.clear()
    assert main(["uep", "--file", str(path), "--json"]) == 0
    assert rows[:2] == [1, 14]


def riesz_document(**fields) -> dict:
    payload = {"B": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]], "a": [[0, 0], [0, 1]], "epsilon": 0.5}
    payload.update(fields)
    return {"kind": "riesz", "payload": payload}


@pytest.mark.parametrize("key", ["lowers", "uppers"])
@pytest.mark.parametrize("falsy", [0, {}, "", False, None])
def test_cli_falsy_bound_list_exits_2(tmp_path, capsys, key, falsy):
    # Only an absent key or [] means "no bounds"; other values are matrix
    # lists or errors.
    path = tmp_path / "riesz.json"
    path.write_text(json.dumps(riesz_document(**{key: falsy})))
    assert main(["riesz", "--file", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("riesz", riesz_document(N=None)),
        ("riesz", riesz_document(auto_bounds=None)),
        ("check-unperforated", {"kind": "unperforated", "payload": {
            "S": [[[0, 2], [2, 0]]], "T": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "trials": None}}),
        ("korovkin", {"kind": "korovkin", "payload": {"n": None}}),
    ],
)
def test_cli_null_count_exits_2(tmp_path, capsys, command, doc):
    # A present null is not an absent key: it used to escape as a TypeError.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--file", str(path)]) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_parse_empty_bound_list_means_none():
    doc = problems.parse_problem(json.dumps(riesz_document(lowers=[], uppers=[])))
    assert doc.payload["lowers"] == [] and doc.payload["uppers"] == []


def unperforated_search_document(trials: int) -> dict:
    doc = json.loads(doc_unperforated_instance())
    del doc["payload"]["a"], doc["payload"]["b"]
    doc["payload"]["trials"] = trials
    return doc


@pytest.mark.parametrize(
    "make, key, limit",
    [
        (lambda v: riesz_document(N=v), "N", problems.MAX_RIESZ_N),
        (lambda v: riesz_document(auto_bounds=v), "auto_bounds", problems.MAX_AUTO_BOUNDS),
        (unperforated_search_document, "trials", problems.MAX_TRIALS),
    ],
)
def test_parse_enforces_work_limits(make, key, limit):
    # Parsing only: the documents at the limit are accepted, not run.
    doc = problems.parse_problem(json.dumps(make(limit)))
    assert doc.payload[key] == limit
    with pytest.raises(InputError, match=f"{key}: expected at most {limit}"):
        problems.parse_problem(json.dumps(make(limit + 1)))


def full_algebra_purity_document(n: int) -> dict:
    return {"kind": "purity", "payload": {"state": (np.eye(n) / n).tolist(), "A": n}}


def identity_pair_document(n: int) -> dict:
    return {"kind": "unperforated", "payload": {"S": [np.eye(n).tolist()], "T": [np.eye(n).tolist()]}}


@pytest.mark.parametrize(
    "command, make, limit, message",
    [
        ("purity", full_algebra_purity_document, MAX_AMBIENT,
         f"full algebra dimension must be between 1 and {MAX_AMBIENT}"),
        ("check-unperforated", identity_pair_document, MAX_DIM,
         f"exceeds the supported maximum {MAX_DIM}"),
    ],
    ids=["algebra", "matrix"],
)
def test_size_limits_at_their_boundaries(tmp_path, capsys, command, make, limit, message):
    # Parsing only at the limit; one above, the document exits 2.
    problems.parse_problem(json.dumps(make(limit)))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make(limit + 1)))
    assert main([command, "--file", str(path)]) == 2
    assert message in capsys.readouterr().err


def list_algebra_purity_document(mats) -> dict:
    mats = np.array(mats)
    n = mats.shape[-1]
    return {"kind": "purity", "payload": {"state": (np.eye(n) / n).tolist(),
                                          "A": np.stack([mats.real, mats.imag], axis=-1).tolist()}}


def test_list_form_algebra_is_held_to_the_ambient_limit(tmp_path, capsys):
    # The 289 hermitian units of M17 used to answer in seconds, while "A": 17
    # exits 2; the limit now binds before the closure check.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(list_algebra_purity_document(hermitian_units([MAX_AMBIENT + 1]))))
    assert main(["purity", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: payload.A: algebra ambient dimension {MAX_AMBIENT + 1} exceeds {MAX_AMBIENT}\n")
    # A list-form algebra at the limit (the diagonal one) still answers.
    path.write_text(json.dumps(list_algebra_purity_document(hermitian_units([1] * MAX_AMBIENT))))
    assert main(["purity", "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"pure": False}


def test_boundary_beyond_choi_limit_exits_2(tmp_path, capsys):
    n = MAX_CHOI_AMBIENT + 1
    S = [np.eye(n).tolist(), np.diag(np.arange(n) * 1.0).tolist()]
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"kind": "boundary", "payload": {"S": S}}))
    assert main(["boundary", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: payload.S: fixed-set extent is limited to ambient dimension {MAX_CHOI_AMBIENT}\n")


def matrix_list_document(S) -> dict:
    return {"kind": "unperforated", "payload": {
        "S": S, "T": [[[1, 0], [0, 1]]], "a": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]]}}


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, True], [True, 3]], "S[1][0][1]: expected a number or [re, im], got a boolean"),
        ([[1, "x"], ["x", 3]], "S[1][0][1]: expected a number or [re, im]"),
        ([[1, float("nan")], [0, 3]], "S[1][0][1]: entries must be finite"),
        ([[1, 0], [0, float("inf")]], "S[1][1][1]: entries must be finite"),
        ([[1, 10**400], [0, 3]], "S[1][0][1]: entries must be finite"),
        ([[1, [0, -10**400]], [0, 3]], "S[1][0][1]: entries must be finite"),
        ([[1, [2]], [[2], 3]], "S[1][0][1]: expected a number or [re, im]"),
        ([[1, 0], [0]], "S[1][1]: expected a row of length 2"),
        ([[1, 5], [0, 3]], "S[1]: matrix is not hermitian: max |A - A*| = 5.000e+00"),
        ([[1e308, 0], [0, 1]], "S[1]: matrix entries must have modulus at most 8.98847e+307"),
        ([[1]], "S: matrices disagree on dimension: [1, 2]"),
        ([], "S[1]: expected a nonempty matrix (array of rows)"),
        (7, "S[1]: expected a nonempty matrix (array of rows)"),
        (json.loads("[" * 50 + "]" * 50), "S[1][0][0]: expected a number or [re, im]"),
    ],
    ids=["bool", "string", "nan", "inf", "huge-int", "huge-int-im", "re-only", "ragged",
         "non-hermitian", "overflowing", "dimension", "empty", "number", "deep"],
)
def test_matrix_rejection_names_path_and_reason(tmp_path, capsys, matrix, message):
    # Integers beyond the float range used to escape as an OverflowError,
    # and entries above MAX_ENTRY overflowed to inf when symmetrized.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(matrix_list_document([[[1, 0], [0, 1]], matrix])))
    assert main(["check-unperforated", "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: payload.{message}\n"


def test_mixed_entry_forms_parse_like_pairs():
    # A matrix mixing bare numbers and [re, im] pairs is read cell by cell;
    # the same numbers written uniformly are read in one pass.
    mixed = [[1, [0.5, 2]], [[0.5, -2], -0.0]]
    pairs = [[[1, 0], [0.5, 2]], [[0.5, -2], [-0.0, 0]]]
    for value in (mixed, pairs):
        M = problems.parse_matrix(value, problems._Path("m"))
        assert M.tobytes() == problems.parse_matrix(pairs, problems._Path("m")).tobytes()
        assert not M.flags.writeable
    mats = problems.parse_matrix_list([pairs, mixed], problems._Path("S"))
    assert mats[0].tobytes() == mats[1].tobytes()


SEEDED_DOCUMENTS = [
    ("check-unperforated", unperforated_search_document(2)),
    ("riesz", riesz_document(auto_bounds=1)),
]


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
@pytest.mark.parametrize("command, doc", SEEDED_DOCUMENTS, ids=["search", "auto-bounds"])
def test_cli_bad_document_seed_exits_2(tmp_path, capsys, command, doc, seed):
    # A negative seed escaped from numpy's default_rng as a ValueError, and
    # true ran as seed 1.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, seed=seed)))
    assert main([command, "--file", str(path)]) == 2
    assert capsys.readouterr().err == "error: seed: expected a non-negative integer\n"
    assert problems.parse_problem(json.dumps(dict(doc, seed=0))).seed == 0


@pytest.mark.parametrize("command, doc", SEEDED_DOCUMENTS, ids=["search", "auto-bounds"])
def test_cli_negative_seed_option_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--file", str(path), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: --seed: expected a non-negative integer\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "document is nested too deeply"),
        ('{"kind": "korovkin", "payload": {}, "seed": ' + "1" * 5000 + "}",
         "document is not valid JSON: Exceeds the limit"),
    ],
    ids=["nested", "long-integer"],
)
def test_cli_unreadable_document_exits_2(tmp_path, capsys, text, message):
    # json.loads raised RecursionError and a plain ValueError here, and both
    # escaped cli.main.
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["korovkin", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_file_not_utf8_exits_2(tmp_path, capsys):
    # Reading it raised UnicodeDecodeError out of cli.main.
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"kind": "korovkin", "payload": {}, "note": "\xff"}')
    assert main(["korovkin", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec")


GOLDEN_VALUE = {
    "zero": -0.0,
    "tiny": 5e-324,
    "big": 1e16,
    "tenth": 0.1,
    "ints": [0, -7, 2**70, np.int64(3)],
    "flags": (True, False, None),
    "name": "Schur–Stinespring é",
    "matrix": problems.matrix_to_json(np.array([[1e16, 0.1 + 5e-324j], [0.1 - 5e-324j, complex(-0.0, -0.0)]])),
}
GOLDEN_TEXT = (
    '{"zero":-0.0,"tiny":4.9406564584124654e-324,"big":10000000000000000,'
    '"tenth":0.10000000000000001,"ints":[0,-7,1180591620717411303424,3],'
    '"flags":[true,false,null],"name":"Schur\\u2013Stinespring \\u00e9",'
    '"matrix":[[[10000000000000000,0],[0.10000000000000001,4.9406564584124654e-324]],'
    '[[0.10000000000000001,-4.9406564584124654e-324],[-0.0,-0.0]]]}'
)


def test_render_golden(capsys):
    assert problems.render_value(GOLDEN_VALUE) == GOLDEN_TEXT
    # The matrix is also a plain JSON value holding the same numbers.
    assert json.loads(json.dumps(GOLDEN_VALUE["matrix"])) == json.loads(GOLDEN_TEXT)["matrix"]
    with pytest.raises(NumericalFailureError):
        problems.render_value({"m": problems.matrix_to_json(np.array([[1.0, np.nan]]))})
    assert main(["repro", "--id", "E:unpmatrices", "--table"]) == 0
    assert "  b_prime: <matrix 3x3>\n" in capsys.readouterr().out


def scaled_identity_instance(scale: float, second) -> dict:
    """An unperforated instance whose T is {scale I, second}."""
    doc = json.loads(doc_unperforated_instance())
    doc["payload"]["T"] = [[[scale, 0], [0, scale]], second]
    doc["payload"]["b"] = [[2, 1], [1, 2]]
    return doc


X_FLIP = [[0, 1], [1, 0]]


@pytest.mark.parametrize("scale", [1e6, 1e-5])
def test_independence_test_is_scale_invariant(tmp_path, capsys, scale):
    # An independent T = {scale I, X} used to be rejected as dependent: the
    # rank cut was relative to the largest Gram eigenvalue, or to 1.
    verdicts = []
    for s in (1.0, scale):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(scaled_identity_instance(s, X_FLIP)))
        assert main(["check-unperforated", "--file", str(path), "--json"]) == 0
        verdicts.append(json.loads(capsys.readouterr().out)["results"]["verdict"])
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("scale, second, code", [
    (1e150, X_FLIP, 3),  # accepted; the feasibility phase is not scale invariant
    (1.0, [[2, 0], [0, 2]], 2),
    (1.0, [[1, 1e-12], [1e-12, 1]], 2),
])
def test_independence_test_at_the_extremes(tmp_path, capsys, scale, second, code):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(scaled_identity_instance(scale, second)))
    assert main(["check-unperforated", "--file", str(path)]) == code
    err = capsys.readouterr().err
    assert ("not linearly independent" in err) == (code == 2) and "Traceback" not in err


SDP_DOCUMENTS_SCRIPT = """
import contextlib, io, json, sys
from opsyslab.cli import main
from opsyslab.problems import render_value
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--file", path, "--json"]) == 0
    print(render_value(json.loads(out.getvalue())["results"]))
"""


def test_sdp_document_results_identical_across_blas_threads(tmp_path):
    # One instance, one riesz and one extension-interval document, each
    # solved through the interior-point loop, in one interpreter per count.
    documents = {
        "check-unperforated": json.loads(doc_unperforated_instance()),
        "riesz": {"kind": "riesz", "payload": {"B": [[[1, 0], [0, 1]]], "a": [[0, 0], [0, 1]],
                                               "lowers": [[[0, 0], [0, 0]]], "uppers": [[[1, 0], [0, 1]]],
                                               "epsilon": 1.0, "N": 3}},
        "extension-interval": {"kind": "extension-interval", "payload": {
            "S": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 1], [0, 1, 0]]],
            "phi": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]], "t": [[1, 0.5, 0], [0.5, 0, 0.2], [0, 0.2, -1]]}},
    }
    argv = []
    for command, doc in documents.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        argv += [command, str(path)]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SDP_DOCUMENTS_SCRIPT] + argv,
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3 and outputs[0] == outputs[1]


def built_by_the_constructor(blk, constants, stacks) -> bool:
    """Whether a block holds what `LmiBlock(constant, coefficients)` makes: a
    constant `hermitian` checked on a shared checked stack, or read-only views
    of one checked [F0, *F] stack.  `constants` and `stacks` hold every array
    `hermitian` returned to `sdp` and every `CoefficientStack`'s `mats` (a
    negation's only if the stack it negates is there)."""
    C, F = blk.constant, blk.coefficients
    shared = any(C is c for c in constants) and any(F is f for f in stacks)
    own = (C.base is not None and C.base is F.base and any(C.base is f for f in stacks)
           and C.base.shape == (blk.num_vars + 1, blk.dim, blk.dim))
    return isinstance(blk, sdp.LmiBlock) and (shared or own) and not (C.flags.writeable or F.flags.writeable)


@pytest.mark.parametrize("command, doc", [
    ("check-unperforated", json.loads(doc_unperforated_instance())),
    ("check-unperforated", unperforated_search_document(2)),
    ("riesz", dict(riesz_document(auto_bounds=1), seed=0)),
    ("extension-interval", {"kind": "extension-interval", "payload": {
        "S": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 1], [0, 1, 0]]],
        "phi": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]], "t": [[1, 0.5, 0], [0.5, 0, 0.2], [0, 0.2, -1]]}}),
], ids=["instance", "search", "auto-bounds", "extension-interval"])
def test_every_block_the_loop_sees_is_checked(tmp_path, monkeypatch, command, doc):
    # An unchecked way to build a block cannot come back silently: every
    # block that reaches the interior-point loop came from the constructor,
    # and its arrays are ones the checks returned.
    inner, seen = sdp._interior_point, []
    constants, stacks = [], []
    check, init, negate = sdp.hermitian, CoefficientStack.__init__, CoefficientStack.__neg__

    def guarded(problems, *args, **kwargs):
        seen.extend(blk for blocks in problems for blk in blocks)
        return inner(problems, *args, **kwargs)

    def checked_constant(entries):
        constants.append(check(entries))
        return constants[-1]

    def checked_stack(self, mats):
        init(self, mats)
        stacks.append(self.mats)

    def negated_stack(self):
        neg = negate(self)
        if any(self.mats is f for f in stacks):
            stacks.append(neg.mats)
        return neg

    monkeypatch.setattr(sdp, "_interior_point", guarded)
    monkeypatch.setattr(sdp, "hermitian", checked_constant)
    monkeypatch.setattr(CoefficientStack, "__init__", checked_stack)
    monkeypatch.setattr(CoefficientStack, "__neg__", negated_stack)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--file", str(path)]) == 0
    assert seen and all(built_by_the_constructor(blk, constants, stacks) for blk in seen)


def test_the_block_guard_needs_arrays_the_checks_returned():
    basis = CoefficientStack([np.eye(2)])
    good, own = sdp.LmiBlock(np.eye(2), basis), sdp.LmiBlock(np.eye(2), [np.eye(2)])
    assert built_by_the_constructor(good, [good.constant], [basis.mats])
    assert built_by_the_constructor(own, [], [own.constant.base])
    rogue = sdp.LmiBlock.__new__(sdp.LmiBlock)  # an unchecked read-only constant on a checked stack
    rogue.constant, rogue.coefficients, rogue.dim, rogue.num_vars = np.eye(2), basis.mats, 2, 1
    rogue.constant.setflags(write=False)
    assert not built_by_the_constructor(rogue, [good.constant], [basis.mats])
    assert not built_by_the_constructor(good, [], [basis.mats])
    assert not built_by_the_constructor(own, [], [])


def results_bytes(out: str) -> str:
    """The report's `results` value exactly as printed."""
    start = out.index('"results":') + len('"results":')
    _, end = json.JSONDecoder().raw_decode(out, start)
    return out[start:end]


@pytest.mark.parametrize("command, payload", [
    ("uep", {"state": [[0.7, 0.1], [0.1, 0.3]]}),
    ("extension-interval", {"phi": [[0.7, 0.1], [0.1, 0.3]], "t": [[1.0, 0.5], [0.5, -1.0]]}),
])
def test_huge_subspace_answers_as_its_unit_multiple(tmp_path, capsys, command, payload):
    # S = span{1e200 I} is span{I}: the subspace layer forms its Gram matrix,
    # norms and residuals on data scaled by a power of two, so nothing
    # overflows and the report keeps span{I}'s bytes
    outs = []
    for scale in (1.0, 1e200):
        path = tmp_path / f"{scale:g}.json"
        path.write_text(json.dumps({"kind": command, "payload": {"S": [(scale * np.eye(2)).tolist()], **payload}}))
        assert main([command, "--file", str(path), "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outs.append(results_bytes(out))
    assert outs[1] == outs[0]


@pytest.mark.parametrize("command, payload", [
    ("uep", {"state": [[0.7, 0.1], [0.1, 0.3]]}),
    ("extension-interval", {"phi": [[0.7, 0.1], [0.1, 0.3]], "t": [[1.0, 0.5], [0.5, -1.0]]}),
])
@pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-100, 1e-150, 1e-160, 2.0**-600])
def test_tiny_subspace_answers_as_its_unit_multiple_or_is_refused(tmp_path, capsys, command, payload, scale):
    # S = span{s I, s diag(1, -1)} is span{I, diag(1, -1)}: a report on it
    # is the unit report at every scale, neither another interval nor a refusal
    reports = []
    for s in (1.0, scale):
        path = tmp_path / "doc.json"
        S = [(s * np.eye(2)).tolist(), (s * np.diag([1.0, -1.0])).tolist()]
        path.write_text(json.dumps({"kind": command, "payload": {"S": S, **payload}}))
        reports.append((main([command, "--file", str(path), "--json"]), capsys.readouterr()))
    (code, (out, _)), (tiny_code, (tiny_out, tiny_err)) = reports
    assert code == tiny_code == 0 and tiny_err == ""
    unit, tiny = (json.loads(o)["results"] for o in (out, tiny_out))
    interval = (lambda r: r["interval"]) if command == "uep" else (lambda r: r)
    assert [interval(tiny)[k] for k in ("min", "max")] == pytest.approx(
        [interval(unit)[k] for k in ("min", "max")], abs=1e-7)


def test_huge_subspace_boundary_keeps_its_verdict(tmp_path, capsys):
    # the Choi constraints carry 1e200 too; the verdict is span{I}'s, the
    # deviation (rounding on both) is not byte for byte
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"kind": "boundary", "payload": {"S": [(1e200 * np.eye(2)).tolist()]}}))
    assert main(["boundary", "--file", str(path), "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["results"]["boundary"] is True
