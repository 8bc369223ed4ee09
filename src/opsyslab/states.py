"""States, extension intervals, unique-extension and purity machinery.

A state is carried by a density matrix under the trace pairing even when its
domain is a proper subspace: the density is just one representative, and
evaluation only ever reads the domain.  Canonical representatives inside an
algebra are obtained through the trace-preserving conditional expectation
(the HS projection onto the span), which is what decomposition results are
reconstructed against.

Extension endpoints are semidefinite programs over the extension set
{ Y >= 0 : tr(s_j Y) = phi(s_j) }, reduced to its face:

    max over extensions of psi(t)  =  max { tr(t Y) : Y in the set },

whose dual is inf { phi(s) : s in S, s >= t }.  The witness of each endpoint
is the optimal primal point `spec.point(x)`, an extension density, checked
against phi and the endpoint before it is returned; the min and max of an
interval are solved as one batch.

A family of evaluations is one stacked product: a state's values on a
basis (`values_on`) and the witness's agreement with them are one
(k, n, n) matmul and trace, whose per-matrix products and summation order
are those of the per-element form, so reports keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sdp, spectrahedron
from .algebra import RANK_TOL, MatrixStarAlgebra, OperatorSubspace, wedderburn
from .errors import InputError, NumericalFailureError
from .hermitian import eigenvalues_checked, eigh, hermitian, hermitian_part

UEP_TOL = 1e-6
WITNESS_AGREE_TOL = 1e-7
WITNESS_ATTAIN_TOL = 1e-6
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10


def _domain_hermitian_basis(domain):
    """A state's domain is checked on construction to be one of the two."""
    return domain.hermitian_basis() if isinstance(domain, MatrixStarAlgebra) else domain.basis


@dataclass
class StateFunctional:
    """Positive unital functional a -> trace(a X) with X PSD and trace one."""

    density: np.ndarray
    domain: object

    def __post_init__(self):
        self.density = hermitian(self.density)
        ev = eigenvalues_checked(self.density)
        if ev[0] < -DENSITY_EIG_TOL:
            raise InputError(f"density has a negative eigenvalue {ev[0]:.3e}")
        tr = float(np.trace(self.density).real)
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise InputError(f"density trace {tr!r} is not 1")
        if not isinstance(self.domain, (MatrixStarAlgebra, OperatorSubspace)):
            raise InputError("domain must be an OperatorSubspace or a MatrixStarAlgebra")

    @property
    def ambient_dim(self) -> int:
        return self.density.shape[0]

    def evaluate(self, a) -> complex:
        return complex(np.trace(np.asarray(a, dtype=complex) @ self.density))

    def expect(self, a) -> float:
        """Value on a hermitian element (real part of the trace pairing)."""
        return float(self.evaluate(a).real)

    def __call__(self, a) -> complex:
        return self.evaluate(a)

    def restrict(self, domain) -> "StateFunctional":
        return StateFunctional(density=self.density, domain=domain)

    def values_on(self, basis) -> np.ndarray:
        """`expect` on every matrix of a stack (k, n, n), as one product."""
        return np.trace(np.asarray(basis, dtype=complex) @ self.density, axis1=1, axis2=2).real


def vector_state(xi, domain) -> StateFunctional:
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(xi)
    if nrm == 0:
        raise InputError("vector state needs a nonzero vector")
    xi = xi / nrm
    return StateFunctional(density=np.outer(xi, xi.conj()), domain=domain)


@dataclass
class ExtensionInterval:
    """Exact range of psi(t) over all state extensions of a fixed functional."""

    element: np.ndarray
    min: float
    max: float
    witnesses: tuple

    @property
    def length(self) -> float:
        return self.max - self.min


@dataclass
class PureDecomposition:
    atoms: list  # (weight, StateFunctional) pairs

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    def mixture_density(self) -> np.ndarray:
        return hermitian_part(sum(w * s.density for w, s in self.atoms))


class UepResult(NamedTuple):
    holds: bool
    witness: np.ndarray | None
    interval: ExtensionInterval | None


def verify_state_on_subspace(
    values, S: OperatorSubspace, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS
) -> bool:
    """Statehood of prescribed values on a unital subspace.

    True iff the functional is 1 on the identity and nonnegative (within
    1e-8) on the normalized positive elements of the span; truth guarantees a
    state extension to the full matrix algebra exists.
    """
    if not S.unital:
        raise InputError("statehood check requires a unital subspace")
    values = np.asarray(values, dtype=float)
    if values.shape != (S.dim,):
        raise InputError("value vector does not match the subspace basis")
    id_coeffs = S.identity_coefficients()
    if abs(float(id_coeffs @ values) - 1.0) > 1e-8:
        return False
    traces = np.trace(S.basis, axis1=1, axis2=2).real
    # affine slice {x : traces.x = 1} through x_p, directions spanning its null space
    x_p = id_coeffs / float(traces @ id_coeffs)
    _, _, vt = np.linalg.svd(traces.reshape(1, -1))
    null_dirs = vt[1:]
    block = sdp.LmiBlock(
        np.tensordot(x_p, S.basis, axes=1), np.tensordot(null_dirs, S.basis, axes=1)
    )
    objective = null_dirs @ values
    prob = sdp.SdpProblem(objective=objective, blocks=[block])
    sol = sdp.solve(prob, x0=np.zeros(len(null_dirs)), settings=settings)
    if sol.status != sdp.OPTIMAL:
        raise NumericalFailureError(f"statehood SDP failed: {sol.status} {sol.message}")
    minimum = float(values @ x_p) + sol.value
    return minimum >= -1e-8


def _extension_set(
    phi: StateFunctional, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS
) -> spectrahedron.ReducedSpectrahedron:
    """The compact set of extending densities { Y >= 0 : tr(s_j Y) = phi(s_j) }.

    Solved with facial reduction: forcing part of a density to vanish (block
    supported states) leaves a set with empty interior, and the interior-point
    method needs the actual face.
    """
    basis = _domain_hermitian_basis(phi.domain)
    values = phi.values_on(basis)
    n = phi.ambient_dim
    constraints = [(b, v) for b, v in zip(basis, values)]
    constraints.append((np.eye(n, dtype=complex), 1.0))
    try:
        return spectrahedron.reduce_spectrahedron(n, constraints, settings=settings)
    except spectrahedron.SpectrahedronInfeasible as exc:
        raise InputError(f"functional admits no state extension: {exc}") from exc


def _interval_from_set(
    spec,
    phi: StateFunctional,
    t: np.ndarray,
    ambient: MatrixStarAlgebra,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> ExtensionInterval:
    basis = _domain_hermitian_basis(phi.domain)
    values = phi.values_on(basis)
    (hi, Y_hi), (neg_lo, Y_lo) = spectrahedron.optimize_linear(spec, np.stack([t, -t]), settings=settings)
    lo = -neg_lo
    if lo > hi + 1e-8 * (1 + abs(hi)):
        raise NumericalFailureError(f"extension interval came out inverted: [{lo}, {hi}]")
    witnesses = []
    for endpoint, density in ((lo, Y_lo), (hi, Y_hi)):
        w = StateFunctional(density=_snap_density(density), domain=ambient)
        if not _witness_agrees(w, basis, values):
            raise NumericalFailureError("witness does not agree with the base state")
        if abs(w.expect(t) - endpoint) > WITNESS_ATTAIN_TOL * (1.0 + abs(endpoint)):
            raise NumericalFailureError("witness does not attain its endpoint")
        witnesses.append(w)
    return ExtensionInterval(element=t, min=min(lo, hi), max=hi, witnesses=tuple(witnesses))


def _witness_agrees(w: StateFunctional, basis: np.ndarray, values: np.ndarray) -> bool:
    """Whether w's value on each matrix b of the stack is within
    WITNESS_AGREE_TOL (1 + |v|) of the base state's value v on it."""
    return not np.any(np.abs(w.values_on(basis) - values) > WITNESS_AGREE_TOL * (1.0 + np.abs(values)))


def extension_interval(
    phi: StateFunctional,
    t,
    ambient: MatrixStarAlgebra,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> ExtensionInterval:
    """Extreme values of psi(t) over state extensions psi of phi.

    Both endpoints are attained on the compact extension set, and the
    attaining densities are returned as witness states after re-checking
    agreement with phi and endpoint attainment.
    """
    t = hermitian(t)
    if t.shape[0] != phi.ambient_dim:
        raise InputError("element dimension does not match the state")
    if not ambient.contains(t):
        raise InputError("element does not belong to the ambient algebra")
    if not ambient.contains(phi.domain.basis):
        raise InputError("the state's domain is not contained in the ambient algebra")
    spec = _extension_set(phi, settings=settings)
    return _interval_from_set(spec, phi, t, ambient, settings=settings)


def has_uep(
    psi: StateFunctional,
    S: OperatorSubspace,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> UepResult:
    """Whether psi is the only state extension of its restriction to S.

    Decided by degeneracy of every extension interval over a hermitian basis
    of psi's domain algebra; the first fat interval is returned as a witness.
    The extension set is reduced once and reused across basis elements.  A
    basis element whose certified range bound on that face
    (`ReducedSpectrahedron.linear_range`) is at most UEP_TOL cannot carry a
    fat interval and costs no program; each other one costs a batch of two
    (its min and max), in basis order until the first fat interval.
    """
    A = psi.domain
    if not isinstance(A, MatrixStarAlgebra):
        raise InputError("has_uep expects a state whose domain is an algebra")
    if not A.contains(S.basis):
        raise InputError("subspace is not contained in the state's algebra")
    restricted = psi.restrict(S)
    spec = _extension_set(restricted, settings=settings)
    basis = A.hermitian_basis()
    _, bounds = spec.linear_range(basis)
    for t in basis[bounds > UEP_TOL]:
        interval = _interval_from_set(spec, restricted, t, A, settings=settings)
        if interval.length > UEP_TOL:
            return UepResult(holds=False, witness=t, interval=interval)
    return UepResult(holds=True, witness=None, interval=None)


def _block_spectra(phi: StateFunctional, A: MatrixStarAlgebra):
    """The canonical density D of phi, the rank cut (RANK_TOL times the
    largest eigenvalue over all blocks) and, for each block M_d (x) I_m of A,
    (V, m, eigh(V* D V)) on one copy V of the block.  Each eigenpair
    (lam, w) above the cut is a pure atom E_A(v v*), v = V w, of weight m lam.
    """
    blocks = wedderburn(A)
    canonical = _snap_density(hermitian_part(A.project(phi.density)))
    decs = [(V, m, eigh(V.conj().T @ canonical @ V)) for V, m in blocks]
    return canonical, RANK_TOL * max(float(dec.eigenvalues[-1]) for _, _, dec in decs), decs


def is_pure(phi: StateFunctional, A: MatrixStarAlgebra) -> bool:
    """Purity read off the block decomposition of A: phi is pure iff exactly
    one eigenvalue of the compressed densities V* D V is above the rank cut,
    across all blocks.

    The cut is the shared 1e-9 relative threshold, so inputs that are
    themselves only 1e-7-close to a pure state can tip either way; feed
    exact densities where exactness matters.
    """
    _, cut, decs = _block_spectra(phi, A)
    return sum(int(np.sum(dec.eigenvalues > cut)) for _, _, dec in decs) == 1


def pure_decomposition(phi: StateFunctional, A: MatrixStarAlgebra) -> PureDecomposition:
    """Finite atomic decomposition into pure states of the algebra.

    Works on the canonical in-algebra representative D of phi (conditional
    expectation of the density).  On one copy V of each block M_d (x) I_m of
    A, each eigenpair (lam, w) of V* D V above the rank cut gives the pure
    atom E_A(v v*), v = V w, with weight m lam; the atoms' canonical
    densities sum back to D up to rounding, which is checked.
    """
    canonical, cut, decs = _block_spectra(phi, A)
    atoms = []
    for V, m, dec in decs:
        for lam, v in zip(dec.eigenvalues, (V @ dec.eigenvectors).T):
            if lam > cut:
                v = v / np.linalg.norm(v)
                atom = StateFunctional(density=A.project(np.outer(v, v.conj())), domain=A)
                atoms.append((m * float(lam), atom))
    return _finish_decomposition(atoms, canonical)


def _finish_decomposition(atoms: list, canonical: np.ndarray) -> PureDecomposition:
    atoms.sort(key=lambda pair: -pair[0])
    result = PureDecomposition(atoms=atoms)
    total = float(np.sum(result.weights()))
    if abs(total - 1.0) > 1e-9:
        raise NumericalFailureError(f"atom weights sum to {total!r}")
    recon = result.mixture_density()
    if np.linalg.norm(recon - canonical) > 1e-8 * (1.0 + np.linalg.norm(canonical)):
        raise NumericalFailureError("atoms do not reconstruct the canonical density")
    return result


def _snap_density(d: np.ndarray) -> np.ndarray:
    """Clip eigenvalue dust below zero and renormalize the trace.

    Conditional expectations and Riesz representatives of positive
    functionals are positive in exact arithmetic; this absorbs the solver's
    1e-10 scale noise so downstream constructors see a genuine density.
    """
    dec = eigh(d)
    lam = np.clip(dec.eigenvalues, 0.0, None)
    total = float(np.sum(lam))
    if total <= 0:
        raise NumericalFailureError("density collapsed to zero while snapping")
    lam = lam / total
    return hermitian_part((dec.eigenvectors * lam) @ dec.eigenvectors.conj().T)


class PureMajorizationFailure(NumericalFailureError):
    """No atom extension reached the target value; carries the best attempt."""

    def __init__(self, target: float, best: float):
        super().__init__(
            f"no pure-restriction extension reached |theta(a)| = {target:.6g} "
            f"(best |psi(a)| = {best:.6g}); counterexample candidate"
        )
        self.target = target
        self.best = best


def find_pure_majorizing_state(
    theta: StateFunctional,
    a,
    B: MatrixStarAlgebra,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> StateFunctional:
    """A state psi with pure restriction to B and |psi(a)| >= |theta(a)|.

    Requires theta to have the unique extension property with respect to B
    (verified).  The search decomposes theta's restriction into pure atoms
    and pushes each atom's extension interval at a to both ends; convexity
    of the extension set makes some atom reach the target.
    """
    A = theta.domain
    if not isinstance(A, MatrixStarAlgebra):
        raise InputError("theta must live on an algebra")
    a = hermitian(a)
    if not has_uep(theta, B.subspace(), settings=settings).holds:
        raise InputError("theta does not have the unique extension property for B")
    target = abs(theta.expect(a))
    decomposition = pure_decomposition(theta.restrict(B), B)
    best_val = -np.inf
    best_witness = None
    for _, atom in decomposition.atoms:
        interval = extension_interval(atom.restrict(B.subspace()), a, A, settings=settings)
        for endpoint, witness in ((interval.min, interval.witnesses[0]), (interval.max, interval.witnesses[1])):
            if abs(endpoint) > best_val:
                best_val = abs(endpoint)
                best_witness = witness
    if best_val < target - 1e-6 or best_witness is None:
        raise PureMajorizationFailure(target=target, best=best_val)
    return best_witness
