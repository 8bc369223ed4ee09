"""Affine slices of the PSD cone with facial reduction.

The sets handled here are { X hermitian PSD : tr(A_j X) = b_j }.  They are
the extension spectrahedra of states and the Choi spectrahedra of unital CP
maps, and they routinely have empty interior: forcing a diagonal entry of a
PSD matrix to zero kills the whole row.  The SDP engine needs an interior,
so the feasible face is located first: whenever the maximum achievable
slack is zero, the phase-one dual matrix is (numerically) orthogonal to the
entire set, and its kernel carries the face.  Each round works in the face's
own coordinates X = V Y V*, with V the orthonormal support found so far:
the constraints compress to tr(V* A_j V Y) = b_j on r x r matrices Y, and
the round is repeated until an interior point appears or the set collapses
to a single point (Drusvyatskiy & Wolkowicz, "The many faces of degeneracy
in conic optimization", 2017).  A round first tests the least-norm solution
x0 of the compressed system: when I is in the span of the constraints, x0
is the projection of a multiple of I onto the affine set, and it is often
interior already.  A Cholesky factorization of x0 - FACE_TOL scale I then
settles the round with no phase-one program, at the threshold the
program's value would be held to.  The program itself stops at its first
iterate with slack above that threshold, since any such point settles the
round; only a flat or empty face runs it to the gap tolerance, for its
dual.  The dual's kernel is only as accurate as the phase-one solve, so
each new support takes one Gauss-Newton step toward a support on which the
constraints hold before the next round.

Constraints come in as stacks, the (m, d, d) matrices and the m values,
each row scaled by its caller (`algebra.pow2_scale`), so no rank floor.  A
family of constraints or objectives is one stacked product whose
per-matrix products and summation order are those of the per-element form,
so reports keep their bits; the real coordinate maps take their triangle
indices from a per-dimension cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sdp
from .algebra import RANK_TOL, pow2_scale
from .errors import InputError, NumericalFailureError
from .hermitian import eigenvalues, eigh, hermitian_part, is_positive_definite
from .limits import MAX_FACE_SEARCH

FACE_TOL = 1e-7
# |tr N| below this counts as traceless for a unit direction N
TRACELESS_TOL = 1e-12
# Conservative kernel cut: an overestimated kernel only costs one more
# reduction round, an underestimated one breaks the affine consistency.
KERNEL_TOL = 1e-4


@functools.cache  # one per face dimension, at most MAX_DIM
def _upper(d: int) -> tuple:
    """The read-only indices of the strict upper triangle of a d x d matrix."""
    iu = np.triu_indices(d, k=1)
    for index in iu:
        index.setflags(write=False)
    return iu


def _real_coords(A: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a stack (m, d, d) of hermitian
    matrices, one row each: diagonal, then sqrt(2)-scaled real and
    imaginary upper-triangular parts."""
    iu = _upper(A.shape[-1])
    upper = A[:, iu[0], iu[1]]
    return np.concatenate(
        [np.diagonal(A, axis1=1, axis2=2).real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag],
        axis=1,
    )


def _from_real_coords(x: np.ndarray, d: int) -> np.ndarray:
    """The stack (m, d, d) of hermitian matrices whose coordinates are the
    rows of x, exactly hermitian, row by row."""
    iu = _upper(d)
    k = iu[0].size
    A = np.zeros((len(x), d, d), dtype=complex)
    A[:, np.arange(d), np.arange(d)] = x[:, :d]
    upper = (x[:, d : d + k] + 1j * x[:, d + k :]) / np.sqrt(2.0)
    A[:, iu[0], iu[1]] = upper
    A[:, iu[1], iu[0]] = upper.conj()
    return A


def _solve_affine(mats: np.ndarray, rhs: np.ndarray):
    """Particular hermitian solution of tr(A_j X) = b_j for a stack A of
    shape (m, d, d), and the real coordinates of its null directions, one row
    each (`_from_real_coords` makes them matrices); (None, None) when the
    system is inconsistent."""
    rows = _real_coords(hermitian_part(mats))
    u, s, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s.max(initial=0.0)))
    # consistency of the linear system, a homogeneous test: decided on scaled data
    pinv_rhs = vt[:rank].T @ ((u.T @ rhs)[:rank] / s[:rank])
    gap = rows @ pinv_rhs - rhs
    unit = pow2_scale(np.append(gap, rhs))
    if float(np.linalg.norm(gap * unit)) > 1e-7 * (1.0 + float(np.linalg.norm(rhs * unit))):
        return None, None
    return _from_real_coords(pinv_rhs[None], mats.shape[-1])[0], vt[rank:]


@dataclass
class ReducedSpectrahedron:
    """Interior description of the feasible face in its own coordinates.

    Points are X(z) = V Y(z) V* with V = `support` (orthonormal columns) and
    Y(z) = x0 + sum z_i dirs_i, r x r with r the face's rank; feasibility is
    equivalent to Y(z) >= 0, and `z_interior` is strictly feasible.  `dirs`
    is stored as one (k, r, r) array.
    """

    x0: np.ndarray
    dirs: np.ndarray
    support: np.ndarray
    z_interior: np.ndarray

    def __post_init__(self):
        r = self.x0.shape[0]
        self.dirs = np.asarray(self.dirs, dtype=complex).reshape(-1, r, r)

    @functools.cached_property
    def block(self) -> sdp.LmiBlock:
        """The face's one LMI, Y(z) >= 0, built and checked once."""
        return sdp.LmiBlock(self.x0, self.dirs)

    def compress(self, C) -> np.ndarray:
        """V* C V in face coordinates (hermitian part); a stack is taken
        matrix by matrix."""
        V = self.support
        return hermitian_part(V.conj().T @ np.asarray(C, dtype=complex) @ V)

    def linear_range(self, Cs) -> tuple[np.ndarray, np.ndarray]:
        """For a stack of objectives C_k: tr(C_k X) at the base point V x0 V*,
        and a certified bound on the range of tr(C_k X) over the face.

        With every direction traceless, all points of the face are PSD of
        trace tau = tr x0, so any two lie within sqrt(2) tau of each other in
        Frobenius norm; the directions are orthonormal, so tr(C_k X) varies
        by at most sqrt(2) tau ||r_k|| with r_kj = Re<V* C_k V, N_j>.  If a
        direction carries a trace, every bound is +inf.
        """
        Cs = self.compress(Cs)
        values = self.base_values(Cs)
        if len(self.dirs) == 0:
            return values, np.zeros(len(Cs))
        N = self.dirs
        if np.max(np.abs(np.trace(N, axis1=1, axis2=2))) > TRACELESS_TOL:
            return values, np.full(len(Cs), np.inf)
        r = np.einsum("kab,jab->kj", Cs.conj(), N).real
        tau = float(np.trace(self.x0).real)
        return values, np.sqrt(2.0) * tau * np.linalg.norm(r, axis=1)

    def base_values(self, compressed: np.ndarray) -> np.ndarray:
        """tr(C_k x0) for a stack of objectives already in face coordinates."""
        return np.einsum("kab,ab->k", compressed.conj(), self.x0).real

    def point(self, z: np.ndarray) -> np.ndarray:
        Y = self.x0 + np.tensordot(z, self.dirs, axes=1)
        V = self.support
        return hermitian_part(V @ Y @ V.conj().T)


class SpectrahedronInfeasible(InputError):
    """The affine constraints admit no PSD solution."""


def reduce_spectrahedron(
    dim: int, mats, rhs, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS
) -> ReducedSpectrahedron:
    """Locate the feasible face of { X >= 0 : tr(A_j X) = b_j }, the
    constraints given as the stack `mats` of the A_j (m, dim, dim) and the
    vector `rhs` of the b_j.

    Each round tries the least-norm point x0 of the compressed system first:
    if x0 - FACE_TOL scale I has a Cholesky factor (scale = 1 + max |x0|),
    the face is found with z_interior = 0 and no phase-one program runs;
    otherwise the phase-one program decides between an interior point (its
    first iterate with slack above FACE_TOL scale), a flat face and an empty
    set.

    Raises SpectrahedronInfeasible when the set is empty: the unreduced
    linear system is inconsistent, the unreduced candidate point of a
    zero-dimensional system is not PSD, or the PSD part carries a verified
    Farkas certificate.  The same findings on a reduced face rest on the
    numerical kernel of a phase-one dual and raise NumericalFailureError.
    A phase-one program over more than MAX_FACE_SEARCH coordinates is not
    posed, nor are its directions built: FaceTooLarge.
    """
    mats = hermitian_part(np.asarray(mats, dtype=complex))
    rhs = np.asarray(rhs, dtype=float)
    support = np.eye(dim, dtype=complex)
    for _ in range(dim + 1):
        r = support.shape[1]
        reduced = r < dim
        x0, null = _solve_affine(support.conj().T @ mats @ support, rhs)
        if x0 is None:
            if reduced:
                raise NumericalFailureError(
                    "affine constraints are inconsistent with the located face"
                )
            raise SpectrahedronInfeasible("affine constraints are inconsistent")
        scale = 1.0 + float(np.max(np.abs(x0)))
        threshold = FACE_TOL * scale  # the slack that makes a point interior
        if len(null) == 0 and eigenvalues(x0)[0] < -1e-8 * scale:
            # a single candidate point; PSD decides feasibility outright
            if reduced:
                raise NumericalFailureError("the located face's only point is not PSD")
            raise SpectrahedronInfeasible("unique candidate point is not PSD")
        # x0 is interior at the search's own threshold: the search would agree
        searched = len(null) > 0 and not is_positive_definite(x0 - threshold * np.eye(r))
        if searched and len(null) > MAX_FACE_SEARCH:  # refused before its directions exist
            raise FaceTooLarge(len(null), "the face search", MAX_FACE_SEARCH)
        dirs = _from_real_coords(null, r)
        spec = ReducedSpectrahedron(
            x0=x0, dirs=dirs, support=support, z_interior=np.zeros(len(dirs))
        )
        if not searched:
            return spec
        # any point above the threshold settles the round: the search stops there
        sol = sdp.check_feasibility([spec.block], settings=settings, interior=threshold)
        if sol.status == sdp.NUMERICAL_FAILURE:
            raise NumericalFailureError(f"face search failed: {sol.message}")
        if sol.value > threshold:
            spec.z_interior = sol.x
            return spec
        if sol.value < -threshold:
            if reduced:
                raise NumericalFailureError("the located face came out empty")
            if sol.dual_certificate is not None:
                raise SpectrahedronInfeasible("PSD face is empty (certified)")
            raise NumericalFailureError("face search: infeasible but uncertified")
        # flat face: the phase-one dual annihilates the set; its kernel is
        # the next support
        if not sol.dual_blocks:
            raise NumericalFailureError("face search returned no dual matrix")
        Z = hermitian_part(sol.dual_blocks[0])
        dec = eigh(Z)
        lam_max = max(float(dec.eigenvalues[-1]), 1e-300)
        kernel = np.ascontiguousarray(dec.eigenvectors[:, dec.eigenvalues <= KERNEL_TOL * lam_max])
        if kernel.shape[1] in (0, Z.shape[0]):
            raise NumericalFailureError("face certificate has no usable kernel")
        Y = hermitian_part(kernel.conj().T @ spec.block.slack(sol.x) @ kernel)
        support = _refine_support(support @ kernel, Y, mats, rhs)
    raise NumericalFailureError("facial reduction did not terminate")


def _refine_support(V: np.ndarray, Y: np.ndarray, mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step on the support V of the face point V Y V*.

    A phase-one dual's kernel is only as accurate as the solve, and in face
    coordinates that error would all land on the constraints.  Tangent
    vectors of the rank-r matrices at V Y V* are V M* + M V*; the least
    change M that meets the constraints to first order splits as
    M = V H / 2 + E Y with E orthogonal to V, and V + E is the new support.
    """
    AV = mats @ V
    rows = 2.0 * AV.view(float).reshape(len(rhs), -1)
    resid = rhs - np.einsum("kab,ab->k", V.conj().T @ AV, Y.conj()).real
    # Redundant constraints make the rows rank-deficient; a relative cut keeps
    # rounding noise in resid from turning into an O(1) step along them.
    M = np.linalg.lstsq(rows, resid, rcond=1e-9)[0].view(complex).reshape(V.shape)
    Q = M - V @ (V.conj().T @ M)
    E = np.linalg.solve(Y, Q.conj().T).conj().T
    return np.linalg.qr(V + E)[0]


class FaceTooLarge(InputError):
    """A face has more coordinates than the program posed over it takes."""

    def __init__(self, count: int, program: str, limit: int):
        super().__init__(f"the located face has {count} coordinates; {program} takes at most {limit}")


def optimize_linear(spec: ReducedSpectrahedron, Cs, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS) -> list:
    """Maximize tr(C_k X) over the reduced set for every objective C_k of
    the stack (pass -C to minimize), as one batch of programs; returns a
    (value, optimizer) pair per objective."""
    Cs = spec.compress(Cs)
    base = spec.base_values(Cs)
    if len(spec.dirs) == 0:
        return [(float(value), spec.point(np.zeros(0))) for value in base]
    if len(spec.dirs) > sdp.MAX_VARIABLES:
        raise FaceTooLarge(len(spec.dirs), "one SDP", sdp.MAX_VARIABLES)
    N = spec.dirs
    # minimize -tr(C_k X) over the face's coordinates z
    objectives = -(Cs.reshape(len(Cs), -1).conj() @ N.reshape(len(N), -1).T).real
    problems = [sdp.SdpProblem(objective=c, blocks=[spec.block]) for c in objectives]
    solutions = sdp.solve_batch(problems, [spec.z_interior] * len(problems), settings=settings)
    for sol in solutions:
        if sol.status != sdp.OPTIMAL:
            raise NumericalFailureError(
                f"spectrahedron optimization failed: {sol.status} {sol.message}"
            )
    return [(float(value - sol.value), spec.point(sol.x)) for value, sol in zip(base, solutions)]
