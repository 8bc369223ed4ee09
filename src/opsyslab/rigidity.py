"""Order-structure machinery: unperforated pairs, Riesz interpolation,
completely positive maps fixing a subspace, and the no-strictly-positive
difference check.

An instance (a, b) of the unperforated question for a pair of subspaces
(S, T) asks for b' in T with a <= b' <= b and ||b'|| <= ||a||.  That is a
feasibility question over four linear matrix inequalities and is certified
in both directions: a feasible b' is re-verified against the three order
conditions, an infeasibility comes with a Farkas certificate.  The
universal quantifier over instances is handled by seeded randomized search
plus an exact scalar reduction when both subspaces are lines that commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp, spectrahedron
from .algebra import MatrixStarAlgebra, OperatorSubspace, generate_algebra
from .errors import InputError, NumericalFailureError
from .hermitian import (
    clip_spectrum,
    commutator_norm,
    eigenvalues,
    eigh,
    hermitian,
    hermitian_part,
    is_psd,
    op_norm,
    spectrum_psd,
)
from .limits import MAX_CHOI_AMBIENT

INSTANCE_TOL = 1e-7


# ----------------------------------------------------------- instances


@dataclass
class UnperforatedInstance:
    """One decided instance: either an interpolant b' or a refutation."""

    S: OperatorSubspace
    T: OperatorSubspace
    a: np.ndarray
    b: np.ndarray
    feasible: bool
    b_prime: np.ndarray | None
    certificate: list | None
    max_slack: float
    norm_a: float
    norm_b_prime: float | None = None

    @property
    def verdict(self) -> str:
        return "FEASIBLE" if self.feasible else "INFEASIBLE"


def _instance_blocks(T: OperatorSubspace, a, b, norm_a):
    """The four blocks a <= b' <= b, -||a|| <= b' <= ||a|| over b' in T."""
    cap = norm_a * np.eye(T.ambient_dim, dtype=complex)
    return [sdp.LmiBlock(-a, T.basis), sdp.LmiBlock(b, -T.basis),
            sdp.LmiBlock(cap, -T.basis), sdp.LmiBlock(cap, T.basis)]


def solve_unperforated_instance(
    S: OperatorSubspace,
    T: OperatorSubspace,
    a,
    b,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> UnperforatedInstance:
    """Decide one instance a <= b of the unperforated question for (S, T).

    FEASIBLE answers return the max-slack interpolant b', re-verified before
    return; INFEASIBLE answers carry a verified Farkas certificate.  The
    instance may be feasible only on the boundary (forced interpolants), in
    which case the re-verification tolerance 1e-7 decides.
    """
    a = hermitian(a)
    b = hermitian(b)
    S.coefficients_of(a)
    T.coefficients_of(b)
    ev = eigenvalues(np.stack([b - a, a]))
    if not spectrum_psd(ev[0], 1e-8):
        raise InputError("instance requires a <= b")
    norm_a = float(np.abs(ev[1]).max())
    blocks = _instance_blocks(T, a, b, norm_a)
    sol = sdp.check_feasibility(blocks, margin=0.0, settings=settings)
    if sol.status == sdp.NUMERICAL_FAILURE:
        raise NumericalFailureError(f"instance SDP failed: {sol.message}")
    candidate = T.element(sol.x)
    ev = eigenvalues(np.stack([candidate - a, b - candidate, candidate]))
    norm_b_prime = float(np.abs(ev[2]).max())
    if spectrum_psd(ev[:2], INSTANCE_TOL).all() and norm_b_prime <= norm_a + INSTANCE_TOL * (1.0 + norm_a):
        return UnperforatedInstance(
            S=S, T=T, a=a, b=b, feasible=True, b_prime=candidate, certificate=None,
            max_slack=float(sol.value), norm_a=norm_a, norm_b_prime=norm_b_prime,
        )
    if sol.dual_certificate is not None:
        return UnperforatedInstance(
            S=S, T=T, a=a, b=b, feasible=False, b_prime=None, certificate=sol.dual_certificate,
            max_slack=float(sol.value), norm_a=norm_a,
        )
    raise NumericalFailureError(
        f"instance neither verifiable nor certified (max slack {sol.value:.3e})"
    )


def verify_instance_certificate(instance: UnperforatedInstance, tol: float = 1e-7) -> bool:
    """Farkas re-verification of an INFEASIBLE instance against blocks rebuilt
    from scratch; `tol` bounds the relative residual."""
    if instance.certificate is None:
        return False
    a, b = hermitian(instance.a), hermitian(instance.b)
    blocks = _instance_blocks(instance.T, a, b, op_norm(a))
    return sdp.verify_certificate(blocks, instance.certificate, residual_tol=tol)


def search_counterexample(
    S: OperatorSubspace,
    T: OperatorSubspace,
    trials: int,
    seed: int,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
):
    """Randomized refutation search for the pair (S, T).

    Each trial samples a normalized a in S, then drives b toward an extreme
    point of { b in T : b >= a } by minimizing a random linear functional
    (extreme points are where failures live), and decides the instance.
    The generation program starts at b = 2I when I is in span T and from
    its feasibility phase otherwise.  Returns the first INFEASIBLE
    instance, or None; absence of a counterexample is not a proof.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    n = T.ambient_dim
    eye = np.eye(n, dtype=complex)
    # b = 2I is strictly inside every generation program (a <= I, box >= 16)
    identity = T.identity_in_span()
    x0 = None if identity is None else 2.0 * identity
    box = 16.0 * eye  # 8 (1 + ||a||) for the normalized a
    walls = [sdp.LmiBlock(box, -T.basis), sdp.LmiBlock(box, T.basis)]
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        a = S.element(rng.standard_normal(S.dim))
        na = op_norm(a)
        if na < 1e-12:
            continue
        a = a / na
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = hermitian_part(raw)
        G = G / max(np.linalg.norm(G), 1e-12)
        blocks = [sdp.LmiBlock(-a, T.basis)] + walls
        objective = np.array([float(np.vdot(G, t).real) for t in T.basis])
        gen = sdp.solve(sdp.SdpProblem(objective=objective, blocks=blocks), x0=x0, settings=settings)
        if gen.status != sdp.OPTIMAL:
            continue  # no b >= a in T for this sample (or solver gave up)
        b = T.element(gen.x)
        instance = solve_unperforated_instance(S, T, a, b, settings=settings)
        if not instance.feasible:
            return instance
    return None


# --------------------------------------------------- commuting truncation


def truncate_commuting(a, b) -> np.ndarray:
    """The clamped element b' = f(b) with threshold ||a|| for commuting a <= b.

    Requires [a, b] = 0 within tolerance; the clamp is the continuous
    function fixing [-||a||, ||a||] and saturating outside, applied through
    functional calculus, and its output satisfies a <= b' <= b with
    ||b'|| <= ||a||.
    """
    a = hermitian(a)
    b = hermitian(b)
    na, nb = op_norm(a), op_norm(b)
    if commutator_norm(a, b) > 1e-8 * (1.0 + na) * (1.0 + nb):
        raise InputError("inputs do not commute")
    if not is_psd(b - a, 1e-8):
        raise InputError("truncation requires a <= b")
    bp = clip_spectrum(b, na)
    if not (is_psd(bp - a, 1e-7) and is_psd(b - bp, 1e-7)):
        raise NumericalFailureError("clamped element lost the order sandwich")
    return bp


def joint_eigenbasis(a, b, tol: float = 1e-8):
    """Common orthonormal eigenbasis of a commuting hermitian pair.

    Diagonalizes b, then re-diagonalizes a inside each eigenvalue cluster
    of b; returns (Q, diag_a, diag_b).
    """
    a = hermitian(a)
    b = hermitian(b)
    na, nb = op_norm(a), op_norm(b)
    if commutator_norm(a, b) > tol * (1.0 + na) * (1.0 + nb):
        raise InputError("matrices do not commute")
    dec_b = eigh(b)
    Q = np.array(dec_b.eigenvectors, copy=True)
    lam_b = dec_b.eigenvalues
    n = b.shape[0]
    start = 0
    gap = 1e-8 * (1.0 + nb)
    while start < n:
        end = start + 1
        while end < n and lam_b[end] - lam_b[end - 1] <= gap:
            end += 1
        if end - start > 1:
            block = Q[:, start:end]
            compressed = hermitian_part(block.conj().T @ a @ block)
            sub = eigh(compressed)
            Q[:, start:end] = block @ sub.eigenvectors
        start = end
    diag_a = np.real(np.diag(Q.conj().T @ a @ Q))
    diag_b = np.real(np.diag(Q.conj().T @ b @ Q))
    off = np.linalg.norm(Q.conj().T @ a @ Q - np.diag(diag_a))
    if off > 1e-6 * (1.0 + na):
        raise NumericalFailureError("joint diagonalization failed")
    return Q, diag_a, diag_b


# --------------------------------------------- exact line-pair decision


@dataclass
class LinePairDecision:
    """Exact verdict for a pair of commuting lines (span s, span t).

    Homogeneity reduces the universal instance check to the sign cases
    alpha = +-1 with the endpoint of each feasible beta interval; `cases`
    records (alpha, interval, norm bound, ok).
    """

    unperforated: bool
    cases: list = field(default_factory=list)


def _scalar_interval(s_diag, t_diag, tol=1e-12):
    """{ x : x * t_i >= s_i for every i } as (lo, hi), possibly infinite/None."""
    lo, hi = -np.inf, np.inf
    for si, ti in zip(s_diag, t_diag):
        if ti > tol:
            lo = max(lo, si / ti)
        elif ti < -tol:
            hi = min(hi, si / ti)
        elif si > tol:
            return None
    if lo > hi + tol:
        return None
    return lo, hi


def decide_unperforated_lines(s, t, tol: float = 1e-9) -> LinePairDecision:
    """Exact decision for (span s, span t) with commuting s, t.

    With a = alpha s and b = beta t, scaling reduces to alpha = +-1; for
    each sign the feasible betas form the interval { x : x t >= alpha s },
    and the norm-capped interpolant exists for all of them iff its finite
    endpoints pass the ||.|| <= ||s|| / ||t|| bound dictated by the sign
    structure of t.
    """
    s = hermitian(s)
    t = hermitian(t)
    ns, nt = op_norm(s), op_norm(t)
    if nt < tol:
        return LinePairDecision(unperforated=True, cases=[("t=0", None, None, True)])
    if ns < tol:
        # a = 0 forces b >= 0 and b' = 0 always works
        return LinePairDecision(unperforated=True, cases=[("s=0", None, None, True)])
    Q, s_diag, t_diag = joint_eigenbasis(s, t)
    r = ns / nt
    pos = bool(np.any(t_diag > tol))
    neg = bool(np.any(t_diag < -tol))
    cases = []
    verdict = True
    for alpha in (1.0, -1.0):
        interval = _scalar_interval(alpha * s_diag, t_diag)
        if interval is None:
            cases.append((alpha, None, r, True))
            continue
        lo, hi = interval
        if pos and neg:
            ok = max(abs(lo), abs(hi)) <= r + tol
        elif pos:
            ok = abs(lo) <= r + tol
        elif neg:
            ok = abs(hi) <= r + tol
        else:
            ok = True
        cases.append((alpha, (lo, hi), r, ok))
        verdict = verdict and ok
    return LinePairDecision(unperforated=verdict, cases=cases)


def scalar_instance_reduction(s, t, a, b):
    """Scalar form of one commuting line-pair instance.

    Returns the defining ratio inequalities as (sense, coefficient) pairs
    meaning beta >= coeff * alpha or beta <= coeff * alpha, and the exact
    window of admissible scalings lambda for b' = lambda t.
    """
    Q, s_diag, t_diag = joint_eigenbasis(s, t)
    a_diag = np.real(np.diag(Q.conj().T @ hermitian(a) @ Q))
    b_diag = np.real(np.diag(Q.conj().T @ hermitian(b) @ Q))
    inequalities = []
    for si, ti in zip(s_diag, t_diag):
        if ti > 1e-12:
            inequalities.append(("ge", si / ti))
        elif ti < -1e-12:
            inequalities.append(("le", si / ti))
    lo, hi = -np.inf, np.inf
    for ai, bi, ti in zip(a_diag, b_diag, t_diag):
        if ti > 1e-12:
            lo = max(lo, ai / ti)
            hi = min(hi, bi / ti)
        elif ti < -1e-12:
            hi = min(hi, ai / ti)
            lo = max(lo, bi / ti)
        elif ai > 1e-12 or bi < -1e-12:
            return inequalities, None
    if lo > hi:
        return inequalities, None
    return inequalities, (lo, hi)


# ------------------------------------------------------ Riesz sequences


@dataclass
class InterpolationRequest:
    """Data for the strict interpolation family: bounds in an algebra B
    around an ambient element a, with 1/n slack margins."""

    B: MatrixStarAlgebra
    a: np.ndarray
    lowers: list
    uppers: list
    epsilon: float
    N: int
    auto_bounds: int = 0
    seed: int | None = None

    def __post_init__(self):
        if not self.B.contains_identity:
            raise InputError("interpolation needs a unital algebra")
        self.a = hermitian(self.a)
        if self.a.shape[0] != self.B.ambient_dim:
            raise InputError("element dimension does not match the algebra")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.N < 1:
            raise InputError("sequence length must be at least 1")
        self.lowers = [hermitian(l) for l in self.lowers]
        self.uppers = [hermitian(u) for u in self.uppers]
        if not all(self.B.contains(l) for l in self.lowers):
            raise InputError("a lower bound is not in the algebra")
        if not all(self.B.contains(u) for u in self.uppers):
            raise InputError("an upper bound is not in the algebra")
        gaps = [self.a - l for l in self.lowers] + [u - self.a for u in self.uppers]
        ordered = is_psd(np.stack(gaps), 1e-8) if gaps else []
        if not all(ordered[:len(self.lowers)]):
            raise InputError("a lower bound does not sit below the element")
        if not all(ordered):
            raise InputError("an upper bound does not sit above the element")
        if self.auto_bounds and self.seed is None:
            raise InputError("auto-generated bounds need a seed")


class InfeasibleInterpolation(InputError):
    """Inconsistent bound lists; carries the Farkas certificate."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


def extreme_bound(B: MatrixStarAlgebra, a, rng, upper: bool,
                  settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS):
    """An extremal-ish element of { u in B : u >= a } (or <= a) found by
    minimizing a random linear functional inside a generous norm box,
    started at u = +-(1 + ||a||) I."""
    hb = B.hermitian_basis()
    n = B.ambient_dim
    eye = np.eye(n, dtype=complex)
    reach = 1.0 + op_norm(a)
    box = 4.0 * reach
    sign = 1.0 if upper else -1.0
    # coefficients of I over hb (I is in B); the start has margin >= 1 in
    # every block
    F = hb.reshape(len(hb), -1)
    x0 = sign * reach * np.linalg.solve((F.conj() @ F.T).real, np.trace(hb, axis1=1, axis2=2).real)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = hermitian_part(raw)
    blocks = [
        sdp.LmiBlock(-sign * a, [sign * h for h in hb]),
        sdp.LmiBlock(box * eye, [-h for h in hb]),
        sdp.LmiBlock(box * eye, hb),
    ]
    objective = np.array([float(np.vdot(G, h).real) for h in hb])
    sol = sdp.solve(sdp.SdpProblem(objective=objective, blocks=blocks), x0=x0, settings=settings)
    if sol.status != sdp.OPTIMAL:
        raise NumericalFailureError(f"extreme bound generation failed: {sol.status}")
    return hermitian_part(sum(x * h for x, h in zip(sol.x, hb)))


def riesz_sequence(req: InterpolationRequest,
                   settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS) -> list:
    """The interpolation sequence beta_1..beta_N inside B.

    Each beta_n sits between every lower bound minus I/n and every upper
    bound plus I/n with norm at most (1 + eps/n) ||a||; finite-dimensional
    algebras always admit such interpolants, so infeasibility signals
    inconsistent input and is reported with a certificate for the first
    failing n.  The N programs differ only in their constants and are solved
    as one batch.  beta_n maximizes the minimum slack, a maximizer that need
    not be unique (the optimal set can be a face): the gap tolerance fixes
    its slack, and only the solver's arithmetic fixes beta_n itself.
    """
    lowers = list(req.lowers)
    uppers = list(req.uppers)
    if req.auto_bounds:
        rng = np.random.default_rng(np.random.SeedSequence(req.seed))
        for _ in range(req.auto_bounds):
            uppers.append(extreme_bound(req.B, req.a, rng, upper=True, settings=settings))
            lowers.append(extreme_bound(req.B, req.a, rng, upper=False, settings=settings))
    hb = req.B.hermitian_basis()
    n_amb = req.B.ambient_dim
    eye = np.eye(n_amb, dtype=complex)
    na = op_norm(req.a)
    bounds = [(-l, hb) for l in lowers] + [(u, -hb) for u in uppers]
    problems = []
    for n in range(1, req.N + 1):
        cap = (1.0 + req.epsilon / n) * na
        problems.append(
            [sdp.LmiBlock(cap * eye, -hb), sdp.LmiBlock(cap * eye, hb)]
            + [sdp.LmiBlock(F0 + eye / n, F) for F0, F in bounds]
        )
    out = []
    solutions = sdp.check_feasibility_batch(problems, margin=0.0, settings=settings)
    for n, (blocks, sol) in enumerate(zip(problems, solutions), start=1):
        if sol.status == sdp.INFEASIBLE:
            raise InfeasibleInterpolation(
                f"no interpolant exists at n={n}: bound lists are inconsistent",
                sol.dual_certificate,
            )
        if sol.status == sdp.NUMERICAL_FAILURE:
            raise NumericalFailureError(f"interpolation SDP failed: {sol.message}")
        slacks = np.stack([blk.slack(sol.x) for blk in blocks])
        if not eigenvalues(slacks)[:, 0].min() >= -INSTANCE_TOL * (1.0 + na):
            raise NumericalFailureError(f"interpolant at n={n} violates its blocks")
        out.append(hermitian_part(sum(x * h for x, h in zip(sol.x, hb))))
    return out


# ------------------------------------------------------------ Choi maps


@dataclass
class ChoiMap:
    """A completely positive map encoded by its Choi matrix
    J = sum_ij E_ij (x) Phi(E_ij), PSD for CP maps."""

    dim_in: int
    dim_out: int
    choi: np.ndarray
    unital: bool = False

    def __post_init__(self):
        d = self.dim_in * self.dim_out
        self.choi = hermitian(self.choi)
        if self.choi.shape[0] != d:
            raise InputError("Choi matrix dimension mismatch")
        if not is_psd(self.choi, 1e-8):
            raise InputError("Choi matrix is not PSD: map is not completely positive")
        if self.unital:
            out = self.apply(np.eye(self.dim_in))
            if np.linalg.norm(out - np.eye(self.dim_out)) > 1e-8 * self.dim_out:
                raise InputError("map is not unital")

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        J4 = self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)
        return np.einsum("ij,iajb->ab", X, J4)

    @staticmethod
    def from_map(func, dim_in: int, dim_out: int, unital: bool = False) -> "ChoiMap":
        # units[i, j] = E_ij
        units = np.eye(dim_in * dim_in, dtype=complex).reshape((dim_in,) * 4)
        J = np.block([[np.asarray(func(E), dtype=complex) for E in row] for row in units])
        return ChoiMap(dim_in=dim_in, dim_out=dim_out, choi=J, unital=unital)

    @staticmethod
    def identity(n: int) -> "ChoiMap":
        return ChoiMap.from_map(lambda X: X, n, n, unital=True)

    @staticmethod
    def pinching(projectors, n: int) -> "ChoiMap":
        projs = [np.asarray(p, dtype=complex) for p in projectors]
        return ChoiMap.from_map(lambda X: sum(p @ X @ p for p in projs), n, n, unital=True)


def _choi_constraints(S: OperatorSubspace, n: int):
    """Equalities pinning a unital CP map to the identity on S: tr(J (I (x) U))
    = tr U and tr(J h(s^T (x) U)) = tr(s U), h the hermitian part, for s in
    S and U in the hermitian basis of M_n.  The Kronecker products are
    np.kron's own, x_ij U_kl at (i n + k, j n + l), broadcast over the pairs
    (an einsum would add each product to a zero and lose the sign of -0)."""
    full_herm = MatrixStarAlgebra.full(n).hermitian_basis()
    lefts = np.concatenate([np.eye(n, dtype=complex)[None], S.basis.swapaxes(1, 2)])
    krons = (lefts[:, None, :, None, :, None] * full_herm[None, :, None, :, None, :]).reshape(
        len(lefts), len(full_herm), n * n, n * n)
    mats = np.concatenate([krons[0], hermitian_part(krons[1:]).reshape(-1, n * n, n * n)])
    values = np.concatenate([np.trace(full_herm, axis1=1, axis2=2).real,
                             np.trace(S.basis[:, None] @ full_herm, axis1=2, axis2=3).real.reshape(-1)])
    return list(zip(mats, values.tolist()))


def ucp_fixed_extent(
    S: OperatorSubspace,
    algebra: MatrixStarAlgebra | None = None,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
):
    """Maximum deviation from the identity among unital CP maps fixing S.

    The deviation is measured entrywise on a hermitian basis of the
    generated algebra, one objective per pair (basis element, coordinate
    function of M_n) over the Choi spectrahedron.  An objective whose
    certified range bound on the reduced face is at most FACE_TOL
    (`ReducedSpectrahedron.linear_range`) costs no program: its deviation is
    its distance from the identity's value at the base point plus that
    bound, and its witness is the face's interior point.  Every other
    objective is pushed to both extremes (two programs), all in one batch.
    A zero extent (<= 1e-6) says the identity representation is the unique
    UCP map fixing S, i.e. it has the unique extension property.
    """
    n = S.ambient_dim
    if n > MAX_CHOI_AMBIENT:
        raise InputError(f"fixed-set extent is limited to ambient dimension {MAX_CHOI_AMBIENT}")
    A = algebra if algebra is not None else generate_algebra(S)
    spec = spectrahedron.reduce_spectrahedron(n * n, _choi_constraints(S, n), settings=settings)
    herm = A.hermitian_basis()
    coord_funcs = MatrixStarAlgebra.full(n).hermitian_basis()
    # C[a, u] = kron(herm[a].T, coord_funcs[u])
    Cs = np.einsum("arp,uqs->aupqrs", herm, coord_funcs).reshape(-1, n * n, n * n)
    Cs = hermitian_part(Cs)
    values, bounds = spec.linear_range(Cs)
    pairs = ((ai, U) for ai in herm for U in coord_funcs)
    settled = bounds <= spectrahedron.FACE_TOL
    # every other objective at both extremes, in one batch: max C, then max -C
    open_Cs = Cs[~settled]
    extremes = (spectrahedron.optimize_linear(spec, np.concatenate([open_Cs, -open_Cs]), settings=settings)
                if len(open_Cs) else [])
    open_pairs = iter(zip(extremes[:len(open_Cs)], extremes[len(open_Cs):]))
    best = 0.0
    best_J = None
    for (ai, U), at_base, bound, done in zip(pairs, values, bounds, settled):
        base = float(np.trace(ai @ U).real)
        if done:
            candidates = [(abs(at_base - base) + bound, None)]
        else:
            (hi, J_hi), (neg_lo, J_lo) = next(open_pairs)
            candidates = [(abs(hi - base), J_hi), (abs(-neg_lo - base), J_lo)]
        for deviation, J in candidates:
            if deviation > best:
                best = deviation
                best_J = J
    witness = None
    if best > 1e-6:
        choi = best_J if best_J is not None else spec.point(spec.z_interior)
        witness = ChoiMap(dim_in=n, dim_out=n, choi=choi, unital=True)
    return best, witness


def nosp_check(
    pi_images,
    Pi_choi: ChoiMap,
    A: MatrixStarAlgebra,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> float:
    """lambda* = max over ||a|| <= 1 in A of lambda_min(pi(a) - Pi(a)).

    pi is given by its images on A's hermitian basis; Pi by a unital CP Choi
    matrix on the ambient.  A result <= 0 (within tolerance) means the
    difference range contains no strictly positive element; the maximum is
    always >= 0 since a = 0 is admissible.
    """
    hb = A.hermitian_basis()
    if len(pi_images) != len(hb):
        raise InputError("need one representation image per hermitian basis element")
    images = [hermitian(p) for p in pi_images]
    if Pi_choi.dim_in != A.ambient_dim:
        raise InputError("CP map input dimension does not match the algebra")
    d = images[0].shape[0]
    if Pi_choi.dim_out != d:
        raise InputError("CP map output dimension does not match the images")
    if not Pi_choi.unital:
        ChoiMap(dim_in=Pi_choi.dim_in, dim_out=Pi_choi.dim_out, choi=Pi_choi.choi, unital=True)
    diffs = [hermitian_part(img - Pi_choi.apply(h)) for img, h in zip(images, hb)]
    k = len(hb)
    eye_d = np.eye(d, dtype=complex)
    eye_n = np.eye(A.ambient_dim, dtype=complex)
    zeros_nd = np.zeros((d, d), dtype=complex)
    zeros_nn = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
    blocks = [
        sdp.LmiBlock(zeros_nd, diffs + [-eye_d]),
        sdp.LmiBlock(eye_n, [-h for h in hb] + [zeros_nn]),
        sdp.LmiBlock(eye_n, list(hb) + [zeros_nn]),
    ]
    c = np.zeros(k + 1)
    c[-1] = -1.0
    x0 = np.zeros(k + 1)
    x0[-1] = -1.0
    sol = sdp.solve(sdp.SdpProblem(objective=c, blocks=blocks), x0=x0, settings=settings)
    if sol.status != sdp.OPTIMAL:
        raise NumericalFailureError(f"difference-positivity SDP failed: {sol.status} {sol.message}")
    return -float(sol.value)
