"""Checks for the hermitian kernel: eigensolver, PSD test, spectral clamp.

The package calls the LAPACK (zheevd) gufuncs that np.linalg.eigh and
np.linalg.eigvalsh call, numpy.linalg._umath_linalg's eigh_lo behind
reconstruction and unitarity checks and eigvalsh_lo behind trace and
square-sum checks, and must return exactly np.linalg's bits.  Since the
oracle comes from the same LAPACK, the tests also pin the invariants
themselves: reconstruction, ordering, determinism, and that kernel output
failing its checks (NaN from a kernel that did not converge included)
raises instead of being returned.  The last tests pin the results of one
document of each kind and three more on the extension path, and count the
spectral calls that whole documents make.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from opsyslab import problems, sdp
from opsyslab.cli import main
from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import (
    MAX_DIM,
    MAX_ENTRY,
    clip_spectrum,
    commutator_norm,
    eigenvalues,
    eigh,
    hermitian,
    hermitian_checked,
    hs_inner,
    is_positive_definite,
    is_psd,
    op_norm,
)

DATA = Path(__file__).resolve().parent / "data"


def random_hermitian(rng, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw + raw.conj().T) / 2.0


def test_eigh_diagonal_already_sorted():
    dec = eigh(np.diag([1.0, -2.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [-2.0, 1.0, 1.0], atol=1e-12)


def test_eigh_symmetric_swap():
    dec = eigh(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-2.0, 2.0], atol=1e-12)


def test_eigh_reconstructs_seeded_5x5():
    rng = np.random.default_rng(5)
    A = random_hermitian(rng, 5)
    dec = eigh(A)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.linalg.norm(recon - A) <= 1e-10 * (1 + np.max(np.abs(dec.eigenvalues)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 16])
def test_eigh_matches_lapack_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        A = random_hermitian(rng, n)
        ours = eigh(A).eigenvalues
        oracle = np.linalg.eigvalsh(A)
        assert np.allclose(ours, oracle, atol=1e-10 * (1 + np.max(np.abs(oracle))))


def test_eigh_degenerate_spectrum():
    # Projector with a doubly degenerate eigenvalue and a complex eigenbasis.
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q = np.linalg.qr(raw)[0]
    A = (Q * np.array([2.0, 2.0, 2.0, -1.0])) @ Q.conj().T
    dec = eigh(A)
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 2.0, 2.0], atol=1e-10)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.linalg.norm(recon - A) <= 1e-10 * 3


def test_eigh_deterministic():
    rng = np.random.default_rng(11)
    A = random_hermitian(rng, 6)
    d1 = eigh(A)
    d2 = eigh(A)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigh_rejects_bad_input():
    with pytest.raises(InputError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(InputError):
        hermitian(np.zeros((0, 0)))
    with pytest.raises(InputError):
        hermitian(np.array([[np.nan]]))


def _numpy_cholesky_succeeds(A) -> bool:
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 7))
def test_is_positive_definite_agrees_with_numpy_cholesky(n):
    rng = np.random.default_rng(700 + n)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    definite = G @ G.conj().T + 1e-3 * np.eye(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cases = [definite, np.outer(v, v.conj()), np.diag(np.arange(n, dtype=float)), random_hermitian(rng, n),
             -definite, degenerate_hermitian(rng, n)]
    verdicts = [_numpy_cholesky_succeeds(A) for A in cases]
    assert [is_positive_definite(A) for A in cases] == verdicts
    assert is_positive_definite(np.stack(cases)).tolist() == verdicts
    assert verdicts[0] and not verdicts[2] and not verdicts[4]  # a zero eigenvalue is not definite
    # a stack with one bad member fails that member only
    assert is_positive_definite(np.stack([definite, definite, -definite])).tolist() == [True, True, False]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_is_positive_definite_rejects_non_finite_input(value):
    for i, j in [(0, 0), (2, 2), (2, 0)]:
        A = np.eye(3, dtype=complex)
        A[i, j] = A[j, i] = value
        assert is_positive_definite(A) is False
        assert is_positive_definite(np.stack([np.eye(3), A])).tolist() == [True, False]


def test_is_psd_examples():
    assert is_psd(np.array([[1.0, -2.0], [-2.0, 5.0]]))
    assert not is_psd(np.diag([-1.0, 3.0]))
    assert is_psd(np.zeros((3, 3)))


def test_zero_sandwich_property():
    # A >= 0 and -A >= 0 at zero tolerance forces A = 0.
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = random_hermitian(rng, 4)
        if is_psd(A, 0.0) and is_psd(-A, 0.0):
            assert np.linalg.norm(A) <= 1e-10


def test_op_norm_examples():
    assert op_norm(np.diag([1.0, -2.0, 1.0])) == pytest.approx(2.0, abs=1e-12)
    assert op_norm(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)


def test_hs_inner_identity():
    for n in (1, 2, 5):
        assert hs_inner(np.eye(n), np.eye(n)) == pytest.approx(n)
    with pytest.raises(InputError):
        hs_inner(np.eye(2), np.eye(3))


def test_clip_spectrum_diagonal():
    out = clip_spectrum(np.diag([1.0, 5.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)
    out = clip_spectrum(np.diag([-3.0, 0.0, 4.0]), 2.0)
    assert np.allclose(out, np.diag([-2.0, 0.0, 2.0]), atol=1e-12)


def test_clip_spectrum_identity_case():
    rng = np.random.default_rng(17)
    B = random_hermitian(rng, 4)
    r = op_norm(B) + 0.5
    assert np.allclose(clip_spectrum(B, r), B, atol=1e-11)


def test_clip_spectrum_commutes_with_input():
    rng = np.random.default_rng(19)
    for _ in range(10):
        B = random_hermitian(rng, 5)
        out = clip_spectrum(B, 1.0)
        norm = op_norm(B)
        assert commutator_norm(out, B) <= 1e-9 * (1 + norm) ** 2


def test_clip_spectrum_sandwich_on_commuting_pairs():
    # For commuting a <= b with r = ||a||: a <= clip(b, r) <= b.
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(raw)[0]
        ae = rng.standard_normal(n)
        be = ae + rng.random(n) * 2.0
        a = hermitian((Q * ae) @ Q.conj().T)
        b = hermitian((Q * be) @ Q.conj().T)
        r = op_norm(a)
        bp = clip_spectrum(b, r)
        assert op_norm(bp) <= r + 1e-10
        assert is_psd(bp - a, 1e-10)
        assert is_psd(b - bp, 1e-10)


def test_eigenvalues_ascending():
    rng = np.random.default_rng(29)
    for _ in range(10):
        A = random_hermitian(rng, 6)
        ev = eigh(A).eigenvalues
        assert np.all(np.diff(ev) >= -1e-14)


def test_eigh_invariants_do_not_overflow():
    # Entries below MAX_ENTRY whose residuals would overflow when squared.
    A = 1e300 * np.diag([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigh(A).eigenvalues == pytest.approx([1e300, 2e300], rel=1e-15)
        assert eigenvalues(A) == pytest.approx([1e300, 2e300], rel=1e-15)
        assert np.array_equal(eigenvalues(4e-323 * np.eye(2)), [4e-323, 4e-323])


def degenerate_hermitian(rng, n: int) -> np.ndarray:
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    spectrum = rng.choice([-1.5, 0.0, 2.0], size=n)  # repeated eigenvalues for n > 3
    return (Q * spectrum) @ Q.conj().T


@pytest.mark.parametrize("n", range(1, 9))
def test_eigenvalues_match_eigh_on_stacks(n):
    rng = np.random.default_rng(200 + n)
    stack = np.stack([random_hermitian(rng, n) for _ in range(4)]
                     + [degenerate_hermitian(rng, n) for _ in range(3)] + [np.zeros((n, n))])
    ours = eigenvalues(stack)
    assert ours.shape == (len(stack), n)
    for A, ev in zip(stack, ours):
        ref = eigh(A).eigenvalues
        assert np.abs(ev - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
        assert np.array_equal(eigenvalues(A), ev)


@pytest.mark.parametrize("bad", [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf]]),
    2.0 * MAX_ENTRY * np.eye(2),
    np.eye(MAX_DIM + 1),
    np.zeros((2, 3)),
])
def test_eigenvalues_reject_what_hermitian_rejects(bad):
    with pytest.raises(InputError) as expected:
        hermitian(bad)
    with pytest.raises(InputError) as got:
        eigenvalues(bad)
    assert str(got.value) == str(expected.value)
    if bad.shape[0] == bad.shape[1]:  # the same message from inside a stack
        with pytest.raises(InputError) as got:
            eigenvalues(np.stack([np.eye(len(bad)), bad]))
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2), (2, 0, 0), (2, 2, 2, 2), (2,)])
def test_eigenvalues_reject_empty_and_misshapen_stacks(shape):
    with pytest.raises(InputError):
        eigenvalues(np.zeros(shape))


def _failed_kernel_output(x):
    """NaN everywhere, with the invalid flag raised, as a LAPACK gufunc
    leaves a matrix it does not converge on (None stays None)."""
    return None if x is None else np.zeros_like(x) / 0.0


# How a kernel's output (eigenvalues, eigenvectors or None) is corrupted.
# Each must raise NumericalFailureError and nothing else: no ValueError
# from a wrong shape, no RuntimeWarning (an error under the suite's filter)
# from a failed kernel.
CORRUPTIONS = {
    "vectors not unitary": lambda lam, Q: (lam, 2.0 * Q),  # eigh only
    "eigenvalue lost": lambda lam, Q: (lam[..., 1:], Q),
    "eigenvalue moved": lambda lam, Q: (lam * np.array([1.0, 1.0, 0.9]), Q),
    "eigenvalues NaN": lambda lam, Q: (np.full_like(lam, np.nan), Q),
    "no convergence": lambda lam, Q: (_failed_kernel_output(lam), _failed_kernel_output(Q)),
}


def _corrupt_kernels(monkeypatch, corrupt):
    """Route the module's eigh_lo/eigvalsh_lo through `corrupt`."""
    module = importlib.import_module("opsyslab.hermitian")
    real = module._umath_linalg
    monkeypatch.setattr(module, "_umath_linalg", types.SimpleNamespace(
        eigh_lo=lambda H: corrupt(*real.eigh_lo(H)),
        eigvalsh_lo=lambda H: corrupt(real.eigvalsh_lo(H), None)[0],
    ))


def test_eigh_raises_when_invariants_fail(monkeypatch):
    A = np.diag([1.0, 2.0, 3.0])
    for corrupt in CORRUPTIONS.values():
        _corrupt_kernels(monkeypatch, corrupt)
        with pytest.raises(NumericalFailureError):
            eigh(A)
        monkeypatch.undo()


def test_eigenvalues_raise_when_invariants_fail(monkeypatch):
    A = np.diag([1.0, 2.0, 3.0])
    for mode, corrupt in CORRUPTIONS.items():
        if mode == "vectors not unitary":
            continue
        _corrupt_kernels(monkeypatch, corrupt)
        for f in (eigenvalues, op_norm, is_psd):
            for arg in (A, np.stack([A, A, 2.0 * A])):
                with pytest.raises(NumericalFailureError):
                    f(arg)
        monkeypatch.undo()


def test_checked_calls_keep_the_bits_of_np_linalg(tmp_path, capsys):
    for n in range(1, 9):
        rng = np.random.default_rng(300 + n)
        H = hermitian(random_hermitian(rng, n))
        stack = hermitian_checked(np.stack([random_hermitian(rng, n) for _ in range(5)]), (3,))
        dec, (lam, Q) = eigh(H), np.linalg.eigh(H)
        assert dec.eigenvalues.tobytes() == lam.tobytes() and dec.eigenvectors.tobytes() == Q.tobytes()
        assert eigenvalues(H).tobytes() == np.linalg.eigvalsh(H).tobytes()
        assert eigenvalues(stack).tobytes() == np.linalg.eigvalsh(stack).tobytes()
    # One small document per kind, and three more on the extension path
    # (uep on M2 + C with a block-supported state, whose flat face needs a
    # refined support; an M4 extension-interval that runs a face search; the
    # M3 boundary document), and every repro case (E:perf re-verifies a
    # certificate), keep their `results` bytes through the CLI.
    cases = json.loads((DATA / "results_by_kind.json").read_text())
    assert {case["document"]["kind"] for case in cases} == set(problems.KINDS)
    for case in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(case["document"]))
        assert main([case["command"], "--file", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        start = out.index('"results":') + len('"results":')
        _, end = json.JSONDecoder().raw_decode(out, start)
        assert out[start:end] == case["results"], case["command"]


def test_op_norm_and_is_psd_on_stacks_match_single_calls():
    rng = np.random.default_rng(31)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(5)]
                     + [np.eye(4), -np.eye(4), np.linalg.matrix_power(degenerate_hermitian(rng, 4), 2)])
    norms = op_norm(stack)
    verdicts = is_psd(stack, 1e-8)
    assert norms.shape == verdicts.shape == (len(stack),)
    assert norms.tolist() == [op_norm(A) for A in stack]
    assert verdicts.tolist() == [is_psd(A, 1e-8) for A in stack]
    assert verdicts[5] and not verdicts[6]


# ------------------------------------------------ spectral calls per document


def _record_calls(monkeypatch, name):
    """Replace every opsyslab module binding of hermitian.<name> (as the
    benchmark tracer does) with a wrapper that records the argument shapes."""
    original = getattr(importlib.import_module("opsyslab.hermitian"), name)
    shapes = []

    def wrapper(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return original(A, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("opsyslab") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return shapes


def _run_document(monkeypatch, kind, payload):
    doc = problems.parse_problem(json.dumps({"kind": kind, "payload": payload}))
    checked, only = _record_calls(monkeypatch, "eigh"), _record_calls(monkeypatch, "eigenvalues")
    report = problems.run(doc)
    monkeypatch.undo()
    return report["results"], checked, only


def _pairs(M):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(M, dtype=complex)]


def test_unperforated_instance_makes_no_checked_eigh_call(monkeypatch):
    # The benchmark's instance recipe: a in S, b = t + shift I above a, t in T.
    # No eigendecomposition runs, from parsing on: independence of S and T
    # takes the eigenvalue path.
    verdicts = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        S = [random_hermitian(rng, n) for _ in range(1 + seed % 2)]
        T = [np.eye(n)] + [random_hermitian(rng, n) for _ in range(1 + seed % n)]
        a = sum(rng.standard_normal() * s for s in S)
        t = sum(rng.standard_normal() * x for x in T[1:])
        b = t + (np.linalg.eigvalsh(a - t)[-1] + rng.uniform(0.0, 0.5)) * np.eye(n)
        payload = {"S": [_pairs(x) for x in S], "T": [_pairs(x) for x in T], "a": _pairs(a), "b": _pairs(b)}
        decompositions = _record_calls(monkeypatch, "_eigh_checked")
        checked, only = _record_calls(monkeypatch, "eigh"), _record_calls(monkeypatch, "eigenvalues")
        doc = problems.parse_problem(json.dumps({"kind": "unperforated", "payload": payload}))
        results = problems.run(doc)["results"]
        monkeypatch.undo()
        verdicts.add(results["verdict"])
        assert checked == [] and decompositions == []
        assert len(only) <= 3
    assert verdicts == {"FEASIBLE", "INFEASIBLE"}


@pytest.mark.parametrize("N", [3, 9])
def test_riesz_norms_come_from_one_call(monkeypatch, N):
    rng = np.random.default_rng(5)
    n = 4
    B = [np.diag(e) for e in np.eye(n)]  # the diagonal algebra
    a = random_hermitian(rng, n)
    low, top = np.linalg.eigvalsh(a)[[0, -1]]
    payload = {"B": [_pairs(x) for x in B], "a": _pairs(a), "lowers": [_pairs((low - 0.5) * np.eye(n))],
               "uppers": [_pairs((top + 0.5) * np.eye(n))], "epsilon": 0.5, "N": N}
    results, checked, only = _run_document(monkeypatch, "riesz", payload)
    assert len(results["norms"]) == N
    assert checked == []
    # the bound check, ||a||, the four block slacks of every beta_n, and the
    # N norms with ||a||
    assert only == [(2, n, n), (n, n), (4 * N, n, n), (N + 1, n, n)]


@pytest.mark.parametrize("N", [2, 8])
def test_riesz_checks_each_coefficient_stack_once(monkeypatch, N):
    # A riesz document checks +hb once whatever N (-hb is its exact
    # negation), and verifies the slacks of all its 4N blocks in one checked
    # eigenvalue call, so a per-block re-check cannot come back unnoticed.
    rng = np.random.default_rng(6)
    n = 3
    a = random_hermitian(rng, n)
    low, top = np.linalg.eigvalsh(a)[[0, -1]]
    payload = {"B": n, "a": _pairs(a), "lowers": [_pairs((low - 0.5) * np.eye(n))],
               "uppers": [_pairs((top + 0.5) * np.eye(n))], "epsilon": 0.5, "N": N}
    stacks, init = [], sdp.CoefficientStack.__init__

    def counted(self, mats, *args):
        stacks.append(np.shape(mats))
        init(self, mats, *args)

    monkeypatch.setattr(sdp.CoefficientStack, "__init__", counted)
    results, _, only = _run_document(monkeypatch, "riesz", payload)
    assert len(results["betas"]) == N
    assert stacks == [(n * n, n, n)]
    assert only == [(2, n, n), (n, n), (4 * N, n, n), (N + 1, n, n)]
