"""Affine slices of the PSD cone with facial reduction.

The sets handled here are { X hermitian PSD : tr(A_j X) = b_j }.  They are
the extension spectrahedra of states and the Choi spectrahedra of unital CP
maps, and they routinely have empty interior: forcing a diagonal entry of a
PSD matrix to zero kills the whole row.  Barrier methods need an interior,
so the feasible face is located first: whenever the maximum achievable
slack is zero, the phase-one dual matrix is (numerically) orthogonal to the
entire set, and its kernel carries the face.  Compressing onto that kernel
and re-solving the linear constraints is repeated until an interior point
appears or the set collapses to a single point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .errors import InputError, NumericalFailureError
from .hermitian import eigh, hermitian_part

FACE_TOL = 1e-7
# Conservative kernel cut: an overestimated kernel only costs one more
# reduction round, an underestimated one breaks the affine consistency.
KERNEL_TOL = 1e-4


def _real_coords(A: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a hermitian matrix: diagonal, then
    sqrt(2)-scaled real and imaginary upper-triangular parts."""
    d = A.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate(
        [np.diag(A).real, np.sqrt(2.0) * A[iu].real, np.sqrt(2.0) * A[iu].imag]
    )


def _from_real_coords(x: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d, k=1)
    k = iu[0].size
    A = np.zeros((d, d), dtype=complex)
    A[np.diag_indices(d)] = x[:d]
    upper = (x[d : d + k] + 1j * x[d + k :]) / np.sqrt(2.0)
    A[iu] = upper
    A[(iu[1], iu[0])] = upper.conj()
    return A


def _solve_affine(dim: int, constraints, rank_tol: float = 1e-9):
    """Particular hermitian solution and null directions of tr(A_j X) = b_j."""
    rows = np.stack([_real_coords(hermitian_part(A)) for A, _ in constraints])
    rhs = np.array([float(b) for _, b in constraints])
    u, s, vt = np.linalg.svd(rows, full_matrices=True)
    scale = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > rank_tol * max(scale, 1.0)))
    # consistency of the linear system
    pinv_rhs = vt[:rank].T @ ((u.T @ rhs)[:rank] / s[:rank])
    resid = float(np.linalg.norm(rows @ pinv_rhs - rhs))
    if resid > 1e-7 * (1.0 + float(np.linalg.norm(rhs))):
        return None, None
    x0 = _from_real_coords(pinv_rhs, dim)
    null = [_from_real_coords(v, dim) for v in vt[rank:]]
    return hermitian_part(x0), [hermitian_part(N) for N in null]


@dataclass
class ReducedSpectrahedron:
    """Interior description of the feasible face.

    Points are X(z) = x0 + sum z_i dirs_i, all supported on the columns of
    `support`; feasibility is equivalent to support* X(z) support >= 0.
    """

    dim: int
    x0: np.ndarray
    dirs: list
    support: np.ndarray
    z_interior: np.ndarray
    interior_margin: float

    def compressed_blocks(self) -> list:
        V = self.support
        block = sdp.LmiBlock.__new__(sdp.LmiBlock)
        block.constant = hermitian_part(V.conj().T @ self.x0 @ V)
        if self.dirs:
            stack = np.stack([V.conj().T @ N @ V for N in self.dirs])
            block.coefficients = (stack + stack.conj().transpose(0, 2, 1)) / 2.0
        else:
            r = V.shape[1]
            block.coefficients = np.zeros((0, r, r), dtype=complex)
        block.dim = V.shape[1]
        block.num_vars = len(self.dirs)
        return [block]

    def point(self, z: np.ndarray) -> np.ndarray:
        X = self.x0
        for zi, N in zip(z, self.dirs):
            X = X + zi * N
        return hermitian_part(X)


class SpectrahedronInfeasible(InputError):
    """The affine constraints admit no PSD solution."""


def reduce_spectrahedron(
    dim: int, constraints, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS
) -> ReducedSpectrahedron:
    """Locate the feasible face of the constrained PSD set.

    Raises SpectrahedronInfeasible when the set is empty (either the linear
    system is inconsistent or the PSD part carries a Farkas certificate).
    """
    x0, dirs = _solve_affine(dim, constraints)
    if x0 is None:
        raise SpectrahedronInfeasible("affine constraints are inconsistent")
    support = np.eye(dim, dtype=complex)
    for _ in range(dim + 1):
        r = support.shape[1]
        spec = ReducedSpectrahedron(
            dim=dim,
            x0=x0,
            dirs=dirs,
            support=support,
            z_interior=np.zeros(len(dirs)),
            interior_margin=0.0,
        )
        blocks = spec.compressed_blocks()
        scale = 1.0 + float(np.max(np.abs(blocks[0].constant)))
        if len(dirs) == 0:
            # a single candidate point; PSD decides feasibility outright
            ev = eigh(blocks[0].constant).eigenvalues
            if ev[0] < -1e-8 * scale:
                raise SpectrahedronInfeasible("unique candidate point is not PSD")
            spec.interior_margin = float(ev[0])
            return spec
        sol = sdp.check_feasibility(blocks, margin=0.0, settings=settings)
        if sol.status == sdp.NUMERICAL_FAILURE:
            raise NumericalFailureError(f"face search failed: {sol.message}")
        if sol.value > FACE_TOL * scale:
            spec.z_interior = sol.x
            spec.interior_margin = float(sol.value)
            return spec
        if sol.value < -FACE_TOL * scale:
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
        kernel_cols = [
            dec.eigenvectors[:, i]
            for i in range(Z.shape[0])
            if dec.eigenvalues[i] <= KERNEL_TOL * lam_max
        ]
        if not kernel_cols or len(kernel_cols) == Z.shape[0]:
            raise NumericalFailureError("face certificate has no usable kernel")
        V_new = np.stack(kernel_cols, axis=1)
        if V_new.shape[1] >= support.shape[1]:
            raise NumericalFailureError("facial reduction stopped making progress")
        support = support @ V_new
        # impose the support condition as fresh linear constraints and re-solve
        x0, dirs = _solve_affine(dim, list(constraints) + _support_constraints(dim, support))
        if x0 is None:
            raise SpectrahedronInfeasible(
                "affine constraints are inconsistent with the located face"
            )
    raise NumericalFailureError("facial reduction did not terminate")


def _support_constraints(dim: int, support: np.ndarray):
    """Hermitian equality constraints expressing P_perp X = 0."""
    r = support.shape[1]
    # complete support to a unitary frame
    q, _ = np.linalg.qr(
        np.concatenate([support, np.eye(dim, dtype=complex)], axis=1)
    )
    frame = q[:, :dim]
    perp = frame[:, r:]
    out = []
    for a in range(perp.shape[1]):
        u = perp[:, a]
        out.append((np.outer(u, u.conj()), 0.0))
        for b in range(a + 1, perp.shape[1]):
            v = perp[:, b]
            out.append((np.outer(u, v.conj()) + np.outer(v, u.conj()), 0.0))
            out.append((1j * np.outer(u, v.conj()) - 1j * np.outer(v, u.conj()), 0.0))
        for c in range(r):
            w = support[:, c]
            out.append((np.outer(u, w.conj()) + np.outer(w, u.conj()), 0.0))
            out.append((1j * np.outer(u, w.conj()) - 1j * np.outer(w, u.conj()), 0.0))
    return out


def optimize_linear(
    spec: ReducedSpectrahedron,
    C,
    maximize: bool = True,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
):
    """Extremize tr(C X) over the reduced set; returns (value, optimizer)."""
    C = hermitian_part(np.asarray(C, dtype=complex))
    base_val = float(np.vdot(C, spec.x0).real)
    if len(spec.dirs) == 0:
        return base_val, spec.point(np.zeros(0))
    sign = -1.0 if maximize else 1.0
    objective = sign * np.array([float(np.vdot(C, N).real) for N in spec.dirs])
    blocks = spec.compressed_blocks()
    prob = sdp.SdpProblem(objective=objective, blocks=blocks)
    sol = sdp.solve(prob, x0=spec.z_interior, settings=settings)
    if sol.status != sdp.OPTIMAL:
        raise NumericalFailureError(
            f"spectrahedron optimization failed: {sol.status} {sol.message}"
        )
    value = base_val + sign * sol.value
    return value, spec.point(sol.x)
