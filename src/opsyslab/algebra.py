"""Structure computations for matrix *-algebras.

Every basis is one read-only (k, n, n) array: the orthonormal
(Hilbert-Schmidt) basis of an algebra inside M_n, the hermitian basis of an
operator subspace.  One orthonormalizer (`orthonormalize`, two-pass
classical Gram-Schmidt in input order, over the reals on the float view of
hermitian matrices) and one coefficient map (`span_coefficients`, a whole
stack of matrices in one matmul) serve generation and the closure check.
Both multiply basis elements pairwise over blocks of basis rows
(`limits.chunks`), which bounds memory up to dimension 256.  An algebra has
one constructor, `MatrixStarAlgebra(basis)`, which reads the ambient
dimension, fullness and unitality off its orthonormal basis; one built from
spanning matrices (`from_basis`) is certified *-closed, unless they span
M_n, which is closed by definition and gets M_n's standard hermitian basis.
`wedderburn` splits a unital algebra into its blocks,
U*AU = (+) M_{n_i} (x) I_{m_i}, from one generic element that commutes with
it; purity and pure decomposition are read off those blocks.  Each input
matrix is scaled on its own (`pow2_scale`); then rank cuts share RANK_TOL
(relative), membership and closure CLOSURE_TOL (residual), each floor 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailureError
from .hermitian import CoefficientStack, eigenvalues_checked, eigh, hermitian, hermitian_part
from .limits import MAX_AMBIENT, MAX_COEFFICIENT_DIM, chunks

RANK_TOL = 1e-9
CLOSURE_TOL = 1e-8
MEMBER_TOL = 1e-7  # relative residual of a matrix in an operator subspace
NOT_UNITAL = "expected a unital algebra (the identity is not in the span)"


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


def pow2_scale(a, axis=None):
    """The exact power of two that brings the largest |entry| of `a` (of each
    slice over `axis`, kept with length 1) into [1/2, 2^500]; data in the band
    keeps its bits.  Zero and subnormal data (whose coefficients overflow) get 1."""
    e = np.frexp(np.abs(a).max(axis=axis, keepdims=axis is not None, initial=0.0))[1]
    return np.ldexp(1.0, np.where(e < -1021, 0, np.maximum(-e, np.minimum(0, 500 - e))))


def _spans_identity(resid, n: int) -> bool:
    return resid <= 1e-9 * (1.0 + np.sqrt(n))  # I's residual; ||I|| = sqrt(n)


def _real_gram(stack: np.ndarray) -> np.ndarray:
    """Re <s_i, s_j> for a stack of matrices."""
    F = _flat(stack)
    return (F.conj() @ F.T).real


def _independent(residual, norm):
    """The shared rank cut: a residual above sqrt(RANK_TOL) of the norm, or
    of 1 for a norm below 1 (on data scaled by `pow2_scale`)."""
    return residual > np.sqrt(RANK_TOL) * np.maximum(norm, 1.0)


def orthonormalize(mats) -> np.ndarray:
    """Two-pass classical Gram-Schmidt over the HS inner product, in input
    order; drops the candidates that fail the shared rank cut.

    An orthonormal prefix comes back unchanged up to rounding, which keeps
    caller-chosen basis orderings stable.  A real stack is orthonormalized
    over the reals.  Returns a read-only stack of the input's trailing shape.
    Inputs come scaled (`pow2_scale`) or derived from an orthonormal basis.
    """
    mats = np.asarray(mats)
    cands = _flat(mats)
    out = np.empty_like(cands)
    r = 0
    for v in cands:
        if r == cands.shape[1]:
            break  # the space is exhausted: every later candidate is dependent
        Q = out[:r]
        w = v - (Q.conj() @ v) @ Q
        w -= (Q.conj() @ w) @ Q
        norm = np.linalg.norm(w)
        if _independent(norm, np.linalg.norm(v)):
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
    as a read-only (k, n, n) array, the `mats` of its checked `stack`.

    The basis must be linearly independent over the reals; when `unital` the
    identity must be reconstructible from it.  Gram matrices, norms and
    residuals are formed on data scaled by `pow2_scale`.
    """

    ambient_dim: int
    basis: np.ndarray
    unital: bool = True

    def __post_init__(self):
        n = self.ambient_dim
        if len(self.basis) == 0:
            raise InputError("subspace needs at least one basis element")
        self.stack = CoefficientStack(_as_stack(self.basis, n))  # what LMIs over the subspace share
        self.basis = self.stack.mats
        if len(self.basis) > MAX_COEFFICIENT_DIM:
            raise InputError(f"coefficient-space dimension {len(self.basis)} exceeds {MAX_COEFFICIENT_DIM}")
        self._unit = pow2_scale(self.basis)
        self._scaled = self.basis * self._unit
        self._gram = _real_gram(self._scaled)
        norms = np.sqrt(self._gram.diagonal())  # the cut is on the unit-normalized basis: scale invariant
        ev = eigenvalues_checked(hermitian_part(self._gram / np.outer(norms, norms))) if norms.all() else [0.0]
        if ev[0] <= RANK_TOL * ev[-1]:
            raise InputError("subspace basis is not linearly independent")
        if self.unital and self.identity_in_span() is None:
            raise InputError("unital flag set but identity is not in the span")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _coefficients(self, X: np.ndarray) -> tuple:
        """Real coefficients of a hermitian X over the basis, the HS norms of
        the residual and of X scaled by `pow2_scale`, and that scale."""
        unit = pow2_scale(X)
        F, x = _flat(self._scaled), X.reshape(-1) * unit
        coeffs = np.linalg.solve(self._gram, (F.conj() @ x).real)  # of scaled X over the scaled basis
        return coeffs * (self._unit / unit), float(np.linalg.norm(x - coeffs @ F)), float(np.linalg.norm(x)), unit

    def coefficients_of(self, X):
        """Real coefficients of a hermitian X over the basis and the residual;
        InputError when the residual exceeds MEMBER_TOL (1 + ||X||) on X scaled."""
        coeffs, resid, norm, unit = self._coefficients(hermitian(_as_matrix(X, self.ambient_dim)))
        if resid > MEMBER_TOL * (1.0 + norm):
            raise InputError(f"matrix is not in the subspace (residual {resid / unit:.3e})")
        return coeffs, resid / unit

    def element(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise InputError("coefficient vector has the wrong length")
        return hermitian_part(np.tensordot(coeffs, self.basis, axes=1))

    def identity_in_span(self) -> np.ndarray | None:
        """Coefficients of I over the basis, or None when the residual says
        I is not in the span, whatever the `unital` flag."""
        coeffs, resid, _, _ = self._coefficients(np.eye(self.ambient_dim, dtype=complex))
        return coeffs if _spans_identity(resid, self.ambient_dim) else None


@dataclass
class MatrixStarAlgebra:
    """A *-closed span with an orthonormal basis, stored as a read-only
    (k, n, n) array; products stay inside.  The ambient dimension n, fullness
    (k = n^2) and whether the span holds I are read off the basis."""

    basis: np.ndarray

    def __post_init__(self):
        n = self.ambient_dim = self.basis.shape[-1]
        self._full = len(self.basis) == n * n
        self.contains_identity = self._full or bool(
            _spans_identity(span_coefficients(self.basis, np.eye(n, dtype=complex))[1], n))
        self._herm_basis = None

    @staticmethod
    def from_basis(mats) -> "MatrixStarAlgebra":
        """The algebra spanned by `mats`, certified *-closed unless the span
        is all of M_n, which is closed by definition."""
        mats = [_as_matrix(M) for M in mats]
        if not mats:
            raise InputError("algebra needs at least one spanning matrix")
        n = mats[0].shape[0]
        if any(M.shape[0] != n for M in mats):
            raise InputError("spanning matrices disagree on dimension")
        if n > MAX_AMBIENT:
            raise InputError(f"algebra ambient dimension {n} exceeds {MAX_AMBIENT}")
        alg = MatrixStarAlgebra(orthonormalize(np.stack(mats) * pow2_scale(mats, axis=(-2, -1))))
        if not alg._full:
            alg.verify_closure()
        return alg

    @staticmethod
    def full(n: int) -> "MatrixStarAlgebra":
        """M_n, one shared object per n up to MAX_AMBIENT (its arrays are read-only)."""
        return _full_algebra(n) if n <= MAX_AMBIENT else _full_algebra.__wrapped__(n)

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
        X = X * pow2_scale(X, axis=(-2, -1))  # the test is homogeneous: decided on each scaled X
        _, resid = span_coefficients(self.basis, X)
        return bool(np.all(resid <= CLOSURE_TOL * (1.0 + np.linalg.norm(_flat(X), axis=-1))))

    def verify_closure(self) -> None:
        B = self.basis
        _, resid = span_coefficients(B, B.conj().swapaxes(1, 2))
        if np.any(resid > CLOSURE_TOL):
            i = int(np.argmax(resid > CLOSURE_TOL))
            raise InputError(f"not a *-closed span: span is not adjoint-closed at basis element {i}")
        for rows in chunks(len(B), len(B) * self.ambient_dim ** 2):
            if np.any(span_coefficients(B, B[rows, None] @ B[None])[1] > CLOSURE_TOL):
                raise InputError("not a *-closed span: span is not closed under multiplication")

    def hermitian_basis(self) -> np.ndarray:
        """Hermitian basis of the self-adjoint part (real dimension = dim).

        Full algebras, however their basis was given, use the standard
        elements E_ii, E_ij + E_ji, i(E_ij - E_ji) in a fixed readable order;
        general algebras get a Gram-Schmidt basis derived from the stored one.
        """
        if self._herm_basis is not None:
            return self._herm_basis
        n = self.ambient_dim
        if self._full:  # written by index: E_ii, then E_ij + E_ji and i(E_ij - E_ji) for i < j
            i, j = np.triu_indices(n, 1)
            d, k = np.arange(n), n + 2 * np.arange(len(i))
            out = np.zeros((n * n, n, n), dtype=complex)
            out[d, d, d] = out[k, i, j] = out[k, j, i] = 1.0
            out[k + 1, i, j], out[k + 1, j, i] = 1j, -1j  # -1j is (-0.0, -1.0), as 1j * (0 - 1) is
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


@functools.cache  # one per n, at most MAX_AMBIENT
def _full_algebra(n: int) -> MatrixStarAlgebra:
    units = _readonly(np.eye(n * n, dtype=complex).reshape(n * n, n, n))  # E_pq at index p * n + q
    return MatrixStarAlgebra(units)


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
    basis = orthonormalize(seed * pow2_scale(seed, axis=(-2, -1)))
    max_dim = n * n
    for _ in range(max_dim + 2):
        if len(basis) >= max_dim:
            break
        cands = [basis]
        for rows in chunks(len(basis), len(basis) * n * n):
            P = (basis[rows, None] @ basis[None]).reshape(-1, n, n)
            _, resid = span_coefficients(basis, P)
            cands.append(P[_independent(resid, np.linalg.norm(P, axis=(1, 2)))])
        extended = orthonormalize(np.concatenate(cands))
        if len(extended) == len(basis):
            break
        basis = extended
    return MatrixStarAlgebra(basis)


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
        raise InputError(NOT_UNITAL, field="algebra")
    if algebra._full:
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
