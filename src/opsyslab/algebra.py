"""Structure computations for matrix *-algebras.

Every basis is one read-only (k, n, n) array: the orthonormal
(Hilbert-Schmidt) basis of an algebra inside M_n, the hermitian basis of an
operator subspace.  One orthonormalizer (`orthonormalize`, two-pass
classical Gram-Schmidt in input order, over the reals on the float view of
hermitian matrices) and one coefficient map (`span_coefficients`, a whole
stack of matrices in one matmul) serve generation and the closure check.
Both multiply basis elements pairwise over blocks of basis rows, which
bounds memory up to dimension 256.  Every algebra built from spanning
matrices is certified *-closed (`MatrixStarAlgebra.from_basis`).
`wedderburn` splits a unital algebra into its blocks,
U*AU = (+) M_{n_i} (x) I_{m_i}, from one generic element that commutes with
it; purity and pure decomposition are read off those blocks.  Rank decisions
share one relative threshold (RANK_TOL), membership and closure one
residual threshold (CLOSURE_TOL).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalFailureError
from .hermitian import (
    BLOCK_ENTRIES,
    eigh,
    eigh_coefficient_space,
    hermitian,
    hermitian_checked,
    hermitian_part,
)
from .limits import MAX_AMBIENT

RANK_TOL = 1e-9
CLOSURE_TOL = 1e-8


def _as_matrix(M, n=None):
    try:
        A = np.asarray(M, dtype=complex)
    except ValueError:  # ragged rows
        raise InputError("expected a square matrix") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("expected a square matrix")
    if n is not None and A.shape[0] != n:
        raise InputError(f"expected dimension {n}, got {A.shape[0]}")
    return A


def _as_stack(mats, n: int) -> np.ndarray:
    """A sequence of n x n matrices as one complex (k, n, n) array; when it
    is not one, the error is `_as_matrix`'s on the first matrix at fault."""
    try:
        A = np.asarray(mats, dtype=complex)
    except ValueError:  # ragged
        A = None
    if A is None or A.ndim != 3 or A.shape[1:] != (n, n):
        for M in mats:
            _as_matrix(M, n)
        raise InputError("expected a square matrix")
    return A


def _flat(stack: np.ndarray) -> np.ndarray:
    """Row-major vectorization of the last two axes: (..., n, m) -> (..., n*m)."""
    return stack.reshape(stack.shape[:-2] + (stack.shape[-2] * stack.shape[-1],))


def _readonly(stack: np.ndarray) -> np.ndarray:
    stack.setflags(write=False)
    return stack


def _matrix_units(n: int) -> np.ndarray:
    """The matrix units of M_n, E_pq at index p * n + q."""
    return _readonly(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def _real_gram(stack: np.ndarray) -> np.ndarray:
    """Re <s_i, s_j> for a stack of matrices."""
    F = _flat(stack)
    return (F.conj() @ F.T).real


def _independent(residual, norm, unit=1.0):
    """The shared rank cut: a residual above sqrt(RANK_TOL) of the norm (or
    of `unit`, the value 1 takes in rescaled data)."""
    return residual > np.sqrt(RANK_TOL) * np.maximum(norm, unit)


def _row_blocks(k: int, width: int) -> list:
    """Slices of range(k) such that a block of rows, each a slab of
    k * width entries, holds at most BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(1, k * width))
    return [slice(i, i + step) for i in range(0, k, step)]


def orthonormalize(mats) -> np.ndarray:
    """Two-pass classical Gram-Schmidt over the HS inner product, in input
    order; drops the candidates that fail the shared rank cut.

    An orthonormal prefix comes back unchanged up to rounding, which keeps
    caller-chosen basis orderings stable.  A real stack is orthonormalized
    over the reals.  Returns a read-only stack of the input's trailing shape.
    """
    mats = np.asarray(mats)
    # Norms square the entries, which overflows from about 2^511: a stack
    # above 2^500 is rescaled by an exact power of two, the cut's floor with it.
    unit = np.ldexp(1.0, min(0, 500 - np.frexp(np.max(np.abs(mats), initial=0.0))[1]))
    cands = _flat(mats) * unit
    out = np.empty_like(cands)
    r = 0
    for v in cands:
        if r == cands.shape[1]:
            break  # the space is exhausted: every later candidate is dependent
        Q = out[:r]
        w = v - (Q.conj() @ v) @ Q
        w -= (Q.conj() @ w) @ Q
        norm = np.linalg.norm(w)
        if _independent(norm, np.linalg.norm(v), unit):
            out[r] = w / norm
            r += 1
    return _readonly(out[:r].reshape((r,) + mats.shape[1:]))


def span_coefficients(basis: np.ndarray, X):
    """Coefficients over an orthonormal (k, n, n) basis, shape (..., k), and
    the HS norms of the residuals, shape (...), of a stack X of shape
    (..., n, n)."""
    F = _flat(basis)
    x = _flat(np.asarray(X, dtype=complex))
    coeffs = x @ F.conj().T
    return coeffs, np.linalg.norm(x - coeffs @ F, axis=-1)


@dataclass
class OperatorSubspace:
    """Self-adjoint subspace given by a hermitian basis inside M_n, stored
    as a read-only (k, n, n) array.

    The basis must be linearly independent over the reals; when `unital` the
    identity must be reconstructible from it.
    """

    ambient_dim: int
    basis: np.ndarray
    unital: bool = True

    def __post_init__(self):
        n = self.ambient_dim
        if len(self.basis) == 0:
            raise InputError("subspace needs at least one basis element")
        self.basis = hermitian_checked(_as_stack(self.basis, n), (3,))
        self._gram = _real_gram(self.basis)
        norms = np.sqrt(self._gram.diagonal())  # the cut is on the unit-normalized basis: scale invariant
        ev = eigh_coefficient_space(self._gram / np.outer(norms, norms)).eigenvalues if norms.all() else [0.0]
        if ev[0] <= RANK_TOL * ev[-1]:
            raise InputError("subspace basis is not linearly independent")
        self._identity_coefficients = self.identity_in_span() if self.unital else None
        if self.unital and self._identity_coefficients is None:
            raise InputError("unital flag set but identity is not in the span")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficients_of(self, X, tol: float | None = 1e-7):
        """Real coefficients of a hermitian X over the basis; residual checked."""
        X = hermitian(_as_matrix(X, self.ambient_dim))
        F = _flat(self.basis)
        x = X.reshape(-1)
        coeffs = np.linalg.solve(self._gram, (F.conj() @ x).real)
        resid = float(np.linalg.norm(x - coeffs @ F))
        if tol is not None and resid > tol * (1.0 + np.linalg.norm(X)):
            raise InputError(f"matrix is not in the subspace (residual {resid:.3e})")
        return coeffs, resid

    def element(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise InputError("coefficient vector has the wrong length")
        return hermitian_part(np.tensordot(coeffs, self.basis, axes=1))

    def identity_in_span(self) -> np.ndarray | None:
        """Coefficients of I over the basis, or None when the residual says
        I is not in the span, whatever the `unital` flag."""
        coeffs, resid = self.coefficients_of(np.eye(self.ambient_dim), tol=None)
        return coeffs if resid <= 1e-9 * (1.0 + np.sqrt(self.ambient_dim)) else None

    def identity_coefficients(self) -> np.ndarray:
        if self._identity_coefficients is None:
            raise InputError("subspace is not unital")
        return self._identity_coefficients


@dataclass
class MatrixStarAlgebra:
    """A *-closed span with an orthonormal basis, stored as a read-only
    (k, n, n) array; products stay inside."""

    ambient_dim: int
    basis: np.ndarray
    contains_identity: bool
    _full: bool = field(default=False, repr=False)
    _herm_basis: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def from_basis(mats, ambient_dim=None) -> "MatrixStarAlgebra":
        mats = [_as_matrix(M, ambient_dim) for M in mats]
        if not mats:
            raise InputError("algebra needs at least one spanning matrix")
        n = mats[0].shape[0]
        if any(M.shape[0] != n for M in mats):
            raise InputError("spanning matrices disagree on dimension")
        if n > MAX_AMBIENT:
            raise InputError(f"algebra ambient dimension {n} exceeds {MAX_AMBIENT}")
        basis = orthonormalize(np.stack(mats))
        alg = MatrixStarAlgebra(n, basis, contains_identity=_identity_in_span(basis, n))
        alg.verify_closure()
        return alg

    @staticmethod
    def full(n: int) -> "MatrixStarAlgebra":
        return MatrixStarAlgebra(n, _matrix_units(n), contains_identity=True, _full=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, X) -> np.ndarray:
        """HS-orthogonal projection onto the span.

        For a *-closed unital span this is the trace-preserving conditional
        expectation, so densities project to densities.
        """
        X = _as_matrix(X, self.ambient_dim)
        coeffs, _ = span_coefficients(self.basis, X)
        proj = np.tensordot(coeffs, self.basis, axes=1)
        if np.linalg.norm(X - X.conj().T) <= 1e-12 * (1 + np.linalg.norm(X)):
            proj = hermitian_part(proj)
        return proj

    def contains(self, X) -> bool:
        """Whether X, or every matrix of a stack X (k, n, n), lies in the span."""
        X = np.asarray(X, dtype=complex)
        if X.ndim not in (2, 3) or X.shape[-2:] != (self.ambient_dim,) * 2:
            raise InputError(f"expected dimension {self.ambient_dim}, got shape {X.shape}")
        _, resid = span_coefficients(self.basis, X)
        return bool(np.all(resid <= CLOSURE_TOL * (1.0 + np.linalg.norm(_flat(X), axis=-1))))

    def verify_closure(self) -> None:
        B = self.basis
        _, resid = span_coefficients(B, B.conj().swapaxes(1, 2))
        if np.any(resid > CLOSURE_TOL):
            i = int(np.argmax(resid > CLOSURE_TOL))
            raise InputError(f"span is not adjoint-closed at basis element {i}")
        for rows in _row_blocks(len(B), self.ambient_dim ** 2):
            if np.any(span_coefficients(B, B[rows, None] @ B[None])[1] > CLOSURE_TOL):
                raise InputError("span is not closed under multiplication")

    def hermitian_basis(self) -> np.ndarray:
        """Hermitian basis of the self-adjoint part (real dimension = dim).

        Full algebras use the standard elements E_ii, E_ij + E_ji,
        i(E_ij - E_ji) in a fixed readable order; general algebras get a
        Gram-Schmidt basis derived from the stored one.
        """
        if self._herm_basis is not None:
            return self._herm_basis
        n = self.ambient_dim
        if self._full:
            units = _matrix_units(n)
            i, j = np.triu_indices(n, 1)
            upper, lower = units[i * n + j], units[j * n + i]
            pairs = np.stack([upper + lower, 1.0j * (upper - lower)], axis=1)
            out = np.concatenate([units[:: n + 1], pairs.reshape(-1, n, n)])
        else:
            parts = [hermitian_part(self.basis), hermitian_part(-1.0j * self.basis)]
            cands = np.stack(parts, axis=1).reshape(-1, n, n)
            # real Gram-Schmidt through the float view
            out = hermitian_part(orthonormalize(cands.view(float)).view(complex))
            if len(out) != self.dim:
                raise NumericalFailureError(
                    f"hermitian basis has size {len(out)}, expected {self.dim}"
                )
        self._herm_basis = _readonly(out)
        return self._herm_basis

    def subspace(self) -> OperatorSubspace:
        """The algebra viewed as an operator subspace via its hermitian basis."""
        return OperatorSubspace(
            ambient_dim=self.ambient_dim,
            basis=self.hermitian_basis(),
            unital=self.contains_identity,
        )


def _identity_in_span(basis, n) -> bool:
    _, resid = span_coefficients(basis, np.eye(n, dtype=complex))
    return bool(resid <= 1e-9 * (1.0 + np.sqrt(n)))


def generate_algebra(gen: OperatorSubspace) -> MatrixStarAlgebra:
    """Smallest *-algebra span containing the generators (and I when unital).

    Iterates pairwise products until the span stabilizes; the span of
    hermitian generators is adjoint-closed at every stage, so products alone
    suffice.  Only products outside the current span reach Gram-Schmidt.
    """
    n = gen.ambient_dim
    if n > MAX_AMBIENT:
        raise InputError(f"ambient dimension {n} exceeds {MAX_AMBIENT} for algebra generation")
    seed = gen.basis
    if gen.unital:
        seed = np.concatenate([seed, np.eye(n, dtype=complex)[None]])
    basis = orthonormalize(seed)
    max_dim = n * n
    for _ in range(max_dim + 2):
        if len(basis) >= max_dim:
            break
        cands = [basis]
        for rows in _row_blocks(len(basis), n * n):
            P = (basis[rows, None] @ basis[None]).reshape(-1, n, n)
            _, resid = span_coefficients(basis, P)
            cands.append(P[_independent(resid, np.linalg.norm(P, axis=(1, 2)))])
        extended = orthonormalize(np.concatenate(cands))
        if len(extended) == len(basis):
            break
        basis = extended
    return MatrixStarAlgebra(
        n, basis, contains_identity=_identity_in_span(basis, n), _full=(len(basis) == max_dim)
    )


@functools.cache  # one per ambient dimension, at most MAX_AMBIENT
def _generic_hermitian(n: int) -> np.ndarray:
    """A fixed, seeded, generic hermitian n x n matrix (read-only)."""
    return _readonly(hermitian_part(np.random.default_rng(2010).standard_normal((n, 2 * n)).view(complex)))


def wedderburn(algebra: MatrixStarAlgebra) -> list:
    """The blocks of a unital algebra A in M_n, U*AU = (+) M_{d_i} (x) I_{m_i},
    as pairs (V_i, m_i): V_i is an n x d_i isometry onto one copy of block i
    (V_i* A V_i = M_{d_i}) and m_i is the number of copies.

    h = sum_b b X b* over the orthonormal basis of A, X fixed and generic, is
    a generic element of the commutant, so each eigenvector of h lies in one
    copy.  Eigenvectors e, f share a copy iff ||E_A(e f*)||^2 =
    sum_b |<e, b f>|^2 is nonzero; that relation must be an equivalence and
    each copy must carry all of M_d (both checked).  Copies on which A has
    the same character tr(V* b V) form one block.  Full A is V = I, m = 1.
    """
    n, B = algebra.ambient_dim, algebra.basis
    if not algebra.contains_identity:
        raise InputError("block decomposition needs a unital algebra")
    if algebra.dim == n * n:
        return [(np.eye(n, dtype=complex), 1)]
    h = np.sum(B @ _generic_hermitian(n) @ B.conj().swapaxes(1, 2), axis=0)  # commutes with A
    Q = eigh(h).eigenvectors
    C = Q.conj().T @ B @ Q  # the compressions of A to the eigenbasis of h
    linked = _independent(np.sqrt(np.sum(np.abs(C) ** 2, axis=0)), 1.0)
    first = np.argmax(linked, axis=1)  # the first eigenvector of each one's copy
    if np.any(linked != (first[:, None] == first[None])):
        raise NumericalFailureError("eigenvectors of h mix invariant subspaces")
    heads, copy = np.unique(first, return_inverse=True)  # the copy of each eigenvector
    for g in np.flatnonzero(np.bincount(copy) > 1):  # one eigenvector alone carries M_1
        c = np.flatnonzero(copy == g)
        sv = np.linalg.svd(_flat(C[:, c[:, None], c]), compute_uv=False)
        if np.sum(_independent(sv, sv[0])) != len(c) ** 2:
            raise NumericalFailureError("an invariant subspace does not carry a full matrix block")
    characters = np.diagonal(C, axis1=1, axis2=2) @ (copy[:, None] == np.arange(len(heads)))
    same = ~_independent(np.linalg.norm(characters[:, :, None] - characters[:, None], axis=0), 1.0)
    lead = np.argmax(same, axis=1)  # the first copy of each copy's block
    return [(Q[:, copy == g], int(np.sum(lead == g))) for g in np.unique(lead)]
