"""Checks for the hermitian kernel: eigensolver, PSD test, spectral clamp.

The package route is np.linalg.eigh (LAPACK zheevd) behind reconstruction
and unitarity checks.  np.linalg.eigvalsh is the eigenvalue oracle; since it
comes from the same LAPACK, the tests also pin the invariants themselves:
reconstruction, ordering, determinism, and that a decomposition failing its
checks raises instead of being returned.
"""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import (
    clip_spectrum,
    commutator_norm,
    eigh,
    eigh_coefficient_space,
    hermitian,
    hs_inner,
    is_psd,
    op_norm,
)


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


def test_eigh_raises_when_invariants_fail(monkeypatch):
    A = np.diag([1.0, 2.0, 3.0])

    def not_unitary(H):
        return np.array([1.0, 2.0, 3.0]), 2.0 * np.eye(3)

    def lost_eigenvalue(H):
        return np.array([1.0, 2.0, 2.5]), np.eye(3)

    def nan_output(H):
        return np.full(3, np.nan), np.eye(3)

    for fake in (not_unitary, lost_eigenvalue, nan_output):
        monkeypatch.setattr(np.linalg, "eigh", fake)
        with pytest.raises(NumericalFailureError):
            eigh(A)


def test_eigh_coefficient_space_rejects_non_finite():
    with pytest.raises(NumericalFailureError):
        eigh_coefficient_space(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
