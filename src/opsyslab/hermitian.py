"""Dense complex hermitian linear algebra.

The eigensolver is LAPACK's `zheevd`, called as the gufuncs `np.linalg`
calls (`numpy.linalg._umath_linalg`), so outputs are bitwise those of
`np.linalg.eigh` (`eigh`) and `np.linalg.eigvalsh` (`eigenvalues`,
`op_norm`, `is_psd`, which also take a (k, n, n) stack in one call).  A
failed kernel returns NaN, which fails every check: neither output is
trusted blindly.  A decomposition must meet reconstruction,
||Q diag(lam) Q* - A|| <= 1e-10 (1 + ||A||), and unitarity, ||Q*Q - I|| <=
1e-10; eigenvalues alone must meet |sum lam - tr A| <= 1e-10 ||A||_F and
|sum lam^2 - ||A||_F^2| <= 1e-10 ||A||_F^2.  The residuals are formed on A
over its largest real or imaginary part, so they cannot overflow, and a failure
raises NumericalFailureError instead of returning degraded output.  The
bounds are absolute in ||A||: a graded matrix gets no more relative accuracy
than LAPACK gives.  Eigenvalues come sorted ascending, and results are
deterministic for equal input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InputError, NumericalFailureError

MAX_DIM = 64

# Complex entries in one block of a batched array computation (16 MB).
BLOCK_ENTRIES = 1 << 20

# Hermitian deviation accepted at construction; larger deviations are user
# errors, smaller ones are absorbed by symmetrization.
HERMITIAN_REJECT = 1e-8

# Largest entry modulus accepted at construction; (A + A*)/2 overflows beyond.
MAX_ENTRY = np.finfo(float).max / 2

# Relative tolerance of the default PSD decision.
PSD_TOL = 1e-9

_RECONSTRUCT_TOL = 1e-10
_TINY = np.finfo(float).tiny


def hermitian(entries) -> np.ndarray:
    """Build a hermitian matrix from array-like data.

    Applies the symmetrization (A + A*)/2 and rejects inputs whose
    anti-hermitian part exceeds HERMITIAN_REJECT relative to the entry scale,
    so file-format rounding is absorbed without masking genuine errors.
    """
    return hermitian_checked(entries, (2,))


def hermitian_checked(entries, ndims) -> np.ndarray:
    """`hermitian` on an array of one of the dimensions `ndims`: 2 for a
    matrix, 3 for a nonempty (k, n, n) stack."""
    A = np.asarray(entries, dtype=complex)
    if A.ndim not in ndims or A.shape[-1] != A.shape[-2] or 0 in A.shape:
        raise InputError(f"expected a nonempty square matrix, got shape {A.shape}")
    if A.shape[-1] > MAX_DIM:
        raise InputError(f"dimension {A.shape[-1]} exceeds the supported maximum {MAX_DIM}")
    return hermitian_stack(A)


def hermitian_stack(A: np.ndarray) -> np.ndarray:
    """`hermitian`'s checks and symmetrization on a stack (..., n, n)."""
    peak = np.maximum.reduce(np.abs(A), axis=(-2, -1))
    # NaN and infinite entries fail this comparison too.
    if not np.logical_and.reduce(peak <= MAX_ENTRY, axis=None):
        if not np.isfinite(A).all():
            raise InputError("matrix entries must be finite (no NaN/Inf)")
        raise InputError(f"matrix entries must have modulus at most {MAX_ENTRY:.6g}")
    A_star = A.conj().swapaxes(-1, -2)
    dev = np.maximum.reduce(np.abs(A - A_star), axis=(-2, -1))
    if np.logical_or.reduce(dev > HERMITIAN_REJECT * (1.0 + peak), axis=None):
        raise InputError(f"matrix is not hermitian: max |A - A*| = {dev.max():.3e}")
    # Halved in the real view: complex division by 2 does not keep a zero's
    # sign, and this way a second pass gives the same bits.
    H = A + A_star
    half = H.view(float)
    half *= 0.5
    H.setflags(write=False)
    return H


def hermitian_part(A) -> np.ndarray:
    """(A + A*)/2 without any rejection check; a stack (..., n, n) is taken
    matrix by matrix."""
    A = np.asarray(A, dtype=complex)
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(A) -> EigenDecomposition:
    """Eigendecomposition of a hermitian matrix; deterministic for equal input.

    Raises NumericalFailureError if the reconstruction Q L Q* or the
    unitarity Q*Q = I fails its 1e-10 bound, rather than returning silently
    degraded output.
    """
    return _eigh_checked(hermitian(A))


def eigh_coefficient_space(A) -> EigenDecomposition:
    """Same solver without the ambient dimension cap.

    The Gram matrices of subspace bases live in coefficient space, whose
    dimension legitimately exceeds the 64-dimensional cap that applies to
    ambient operators; it is still bounded by 256 = 16^2.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[0] > 256:
        raise InputError(f"coefficient-space dimension {A.shape[0]} exceeds 256")
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    dev = float(np.max(np.abs(A - A.conj().T)))
    if dev > HERMITIAN_REJECT * scale:
        raise InputError(f"matrix is not hermitian: max |A - A*| = {dev:.3e}")
    return _eigh_checked((A + A.conj().T) / 2.0)


def _check_shape(got, H):
    if got.shape != H.shape[:-1]:
        raise NumericalFailureError(f"eigensolver returned shape {got.shape} for {H.shape}")


def _eigh_checked(H: np.ndarray) -> EigenDecomposition:
    n = H.shape[0]
    with np.errstate(all="ignore"):  # a kernel that fails returns NaN, which fails the checks
        lam, Q = _umath_linalg.eigh_lo(H)
    _check_shape(lam, H)
    # The residual of H / s, which cannot overflow, scaled back.
    Hf = H.view(float)
    s = float(np.maximum.reduce(np.abs(Hf), axis=None, initial=_TINY))
    Qh = Q.conj().T
    R = (Q * (lam / s)) @ Qh
    R -= (Hf / s).view(complex)
    U = Qh @ Q
    U.flat[:: n + 1] -= 1.0
    recon = s * math.sqrt(np.vdot(R, R).real)
    unit = math.sqrt(np.vdot(U, U).real)
    bound = _RECONSTRUCT_TOL * (1.0 + max(-lam[0], lam[-1]))  # lam ascending: max |lam|
    # Negated comparisons so that NaN output fails the check too.
    if not (recon <= bound and unit <= _RECONSTRUCT_TOL):
        raise NumericalFailureError(
            f"eigendecomposition failed its invariants (recon {recon:.2e}, unitarity {unit:.2e})"
        )
    lam.setflags(write=False)
    Q.setflags(write=False)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=Q)


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues, ascending, of a hermitian matrix, or of every matrix of
    a nonempty (k, n, n) stack as a (k, n) array, from one LAPACK call; the
    input gets `hermitian`'s checks, the output the trace and square-sum
    checks of the module docstring."""
    return eigenvalues_checked(hermitian_checked(A, (2, 3)))


def eigenvalues_checked(H: np.ndarray) -> np.ndarray:
    """`eigenvalues` of H as `hermitian` or `hermitian_checked` returned it:
    the output checks without repeating the input checks."""
    with np.errstate(all="ignore"):  # a kernel that fails returns NaN, which fails the checks
        lam = _umath_linalg.eigvalsh_lo(H)
    _check_shape(lam, H)
    Hf = H.reshape(H.shape[:-2] + (-1,)).view(float)  # rows of re, im pairs
    s = np.maximum.reduce(np.abs(Hf), axis=-1, keepdims=True, initial=_TINY)
    Hs, ls = Hf / s, lam / s
    frob2 = np.add.reduce(Hs * Hs, axis=-1)
    trace = np.abs(np.add.reduce(ls, axis=-1) - np.add.reduce(Hs[..., :: 2 * H.shape[-1] + 2], axis=-1))
    squares = np.abs(np.add.reduce(ls * ls, axis=-1) - frob2)
    # Negated comparison so that NaN or infinite output fails the check too.
    ok = (trace <= _RECONSTRUCT_TOL * np.sqrt(frob2)) & (squares <= _RECONSTRUCT_TOL * frob2)
    if not np.logical_and.reduce(ok, axis=None):
        raise NumericalFailureError(
            f"eigenvalues failed their invariants (trace {trace.max():.2e}, squares {squares.max():.2e})"
        )
    lam.setflags(write=False)
    return lam


def op_norm(A):
    """Operator norm max |eigenvalue| of a hermitian matrix; an array of
    them for a (k, n, n) stack."""
    norm = np.abs(eigenvalues(A)).max(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


def hs_inner(A, B) -> complex:
    """Trace pairing trace(A* B)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise InputError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return complex(np.vdot(A, B))


def is_psd(A, tol: float = PSD_TOL):
    """Positive semidefinite test: lambda_min >= -tol * (1 + ||A||); an array
    of verdicts for a (k, n, n) stack.

    The tolerance is relative so the decision behaves uniformly across matrix
    scales.
    """
    if tol < 0:
        raise InputError("tol must be nonnegative")
    return spectrum_psd(eigenvalues(A), tol)


def spectrum_psd(ev, tol: float):
    """`is_psd` from ascending eigenvalues (..., n)."""
    ok = ev[..., 0] >= -tol * (1.0 + np.abs(ev).max(axis=-1))
    return bool(ok) if ok.ndim == 0 else ok


def clip_spectrum(b, r: float) -> np.ndarray:
    """Apply the spectral clamp x -> min(max(x, -r), r) to a hermitian matrix.

    This is the functional calculus of the continuous piecewise-linear clamp
    at threshold r; it commutes with b, has norm at most r, and lies below b
    whenever the spectrum of b stays above -r.
    """
    if r < 0:
        raise InputError("clip threshold must be nonnegative")
    dec = eigh(b)
    clipped = np.clip(dec.eigenvalues, -r, r)
    out = (dec.eigenvectors * clipped) @ dec.eigenvectors.conj().T
    return hermitian_part(out)


def commutator_norm(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = a @ b - b @ a
    # [a,b] is anti-hermitian for hermitian a, b; i[a,b] is hermitian.
    return op_norm(hermitian_part(1j * c))
