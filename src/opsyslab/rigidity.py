"""Order-structure machinery: unperforated pairs, Riesz interpolation,
completely positive maps fixing a subspace, and the no-strictly-positive
difference check.

An instance (a, b) of the unperforated question for a pair of subspaces
(S, T) asks for b' in T with a <= b' <= b and ||b'|| <= ||a||.  That is a
feasibility question over four linear matrix inequalities, of which three
are posed (a <= b' gives -||a|| <= b'), certified in both directions: a
feasible b' is re-verified against the three order conditions, an
infeasibility comes with a Farkas certificate (zero on the fourth block).
The universal quantifier over instances is handled by seeded randomized
search plus an exact scalar reduction when both subspaces are commuting lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp, spectrahedron
from .algebra import NOT_UNITAL, MatrixStarAlgebra, OperatorSubspace, generate_algebra
from .errors import InputError, NumericalFailureError, check_dimension
from .hermitian import (
    BLOCK_ENTRIES,
    CoefficientStack,
    clip_spectrum,
    commutator_norm,
    eigenvalues,
    eigenvalues_checked,
    eigh,
    hermitian,
    hermitian_checked,
    hermitian_part,
    is_psd,
    op_norm,
    spectrum_psd,
)
from .limits import MAX_CHOI_AMBIENT

INSTANCE_TOL = 1e-7
ORDER_TOL = 1e-8  # x <= y when lambda_min(y - x) >= -ORDER_TOL (1 + max |lambda|); Choi PSD alike
EXTENT_TOL = 1e-6  # a fixed-set extent at most this is zero: the `boundary` verdict
NOSP_TOL = 1e-6  # lambda* at most this: no strictly positive difference, the `nosp` verdict
COMMUTE_TOL = 1e-8  # [a, b] below this, relative to (1 + ||a||)(1 + ||b||), commutes
LINE_TOL = 1e-9  # norms and eigenvalues of t below this count as zero, line pairs
SCALAR_TOL = 1e-12  # eigenvalues of t below this count as zero, scalar windows


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
    """The four blocks a <= b' <= b, b' <= ||a||, -||a|| <= b' over b' in T;
    the solve poses three, as a + ||a|| I >= 0 makes the last follow from the first."""
    cap, plus, minus = norm_a * np.eye(T.ambient_dim, dtype=complex), T.stack, -T.stack
    return [sdp.LmiBlock(-a, plus), sdp.LmiBlock(b, minus), sdp.LmiBlock(cap, minus), sdp.LmiBlock(cap, plus)]


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
    a, b = hermitian(a), hermitian(b)
    for name, got in (("T", T.ambient_dim), ("a", a.shape[0]), ("b", b.shape[0])):
        check_dimension(got, S.ambient_dim, "S", field=name)
    for name, X, V in (("a", a, S), ("b", b, T)):
        try:
            V.coefficients_of(X)
        except InputError as exc:
            raise InputError(str(exc), field=name) from None
    ev = eigenvalues_checked(np.stack([b - a, a]))  # a and b are checked, and so is b - a
    if not spectrum_psd(ev[0], ORDER_TOL):
        raise InputError("instance requires a <= b", field="b")
    norm_a = float(np.abs(ev[1]).max())
    sol = sdp.check_feasibility(_instance_blocks(T, a, b, norm_a)[:3], settings=settings)
    if sol.status == sdp.NUMERICAL_FAILURE:
        raise NumericalFailureError(f"instance SDP failed: {sol.message}")
    candidate = T.element(sol.x)
    ev = eigenvalues_checked(np.stack([candidate - a, b - candidate, candidate]))  # built hermitian
    norm_b_prime = float(np.abs(ev[2]).max())
    if spectrum_psd(ev[:2], INSTANCE_TOL).all() and norm_b_prime <= norm_a + INSTANCE_TOL * (1.0 + norm_a):
        return UnperforatedInstance(
            S=S, T=T, a=a, b=b, feasible=True, b_prime=candidate, certificate=None,
            max_slack=float(sol.value), norm_a=norm_a, norm_b_prime=norm_b_prime,
        )
    if sol.dual_certificate is not None:
        return UnperforatedInstance(
            S=S, T=T, a=a, b=b, feasible=False, b_prime=None, max_slack=float(sol.value), norm_a=norm_a,
            certificate=sol.dual_certificate + [np.zeros_like(a)],
        )
    raise NumericalFailureError(
        f"instance neither verifiable nor certified (max slack {sol.value:.3e})"
    )


def verify_instance_certificate(instance: UnperforatedInstance) -> bool:
    """Farkas re-verification of an INFEASIBLE instance against blocks rebuilt
    from scratch (`sdp.verify_certificate`)."""
    if instance.certificate is None:
        return False
    a, b = hermitian(instance.a), hermitian(instance.b)
    blocks = _instance_blocks(instance.T, a, b, op_norm(a))
    return sdp.verify_certificate(blocks, instance.certificate)


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
    check_dimension(T.ambient_dim, S.ambient_dim, "S", field="T")
    if trials < 1:
        raise InputError("need at least one trial")
    n = T.ambient_dim
    # b = 2I is strictly inside every generation program (a <= I, b <= 16);
    # 16 + b >= 0 follows from b >= a, so it is not posed
    identity = T.identity_in_span()
    x0 = None if identity is None else 2.0 * identity
    wall = sdp.LmiBlock(16.0 * np.eye(n, dtype=complex), -T.stack)  # 8 (1 + ||a||) for the normalized a
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
        blocks = [sdp.LmiBlock(-a, T.stack), wall]
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


def _commuting(a, b, message: str):
    """(a, b, ||a||, ||b||) for hermitian a, b; InputError(message) unless
    [a, b] = 0 within COMMUTE_TOL."""
    a, b = hermitian(a), hermitian(b)
    na, nb = op_norm(a), op_norm(b)
    if commutator_norm(a, b) > COMMUTE_TOL * (1.0 + na) * (1.0 + nb):
        raise InputError(message)
    return a, b, na, nb


def truncate_commuting(a, b) -> np.ndarray:
    """The clamped element b' = f(b) with threshold ||a|| for commuting a <= b.

    Requires [a, b] = 0 within COMMUTE_TOL; the clamp is the continuous
    function fixing [-||a||, ||a||] and saturating outside, applied through
    functional calculus, and its output satisfies a <= b' <= b with
    ||b'|| <= ||a||.
    """
    a, b, na, nb = _commuting(a, b, "inputs do not commute")
    if not is_psd(b - a, ORDER_TOL):
        raise InputError("truncation requires a <= b")
    bp = clip_spectrum(b, na)
    if not (is_psd(bp - a, 1e-7) and is_psd(b - bp, 1e-7)):
        raise NumericalFailureError("clamped element lost the order sandwich")
    return bp


def joint_eigenbasis(a, b):
    """Common orthonormal eigenbasis of a commuting hermitian pair.

    Diagonalizes b, then re-diagonalizes a inside each eigenvalue cluster
    of b; returns (Q, diag_a, diag_b).
    """
    a, b, na, nb = _commuting(a, b, "matrices do not commute")
    dec_b = eigh(b)
    Q = np.array(dec_b.eigenvectors, copy=True)
    lam_b = dec_b.eigenvalues
    edges = [0, *(np.flatnonzero(np.diff(lam_b) > 1e-8 * (1.0 + nb)) + 1), len(lam_b)]  # clusters of b
    for start, end in zip(edges[:-1], edges[1:]):
        if end - start > 1:
            block = Q[:, start:end]
            Q[:, start:end] = block @ eigh(hermitian_part(block.conj().T @ a @ block)).eigenvectors
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


def _scalar_interval(s_diag, t_diag):
    """{ x : x * t_i >= s_i for every i } as (lo, hi), possibly infinite, or
    None when it is empty.  A bound is the first extreme ratio s_i / t_i in
    index order, as a running max or min keeps it."""
    s, t = np.asarray(s_diag, dtype=float), np.asarray(t_diag, dtype=float)
    pos, neg = t > SCALAR_TOL, t < -SCALAR_TOL
    if np.any((s > SCALAR_TOL) & ~pos & ~neg):
        return None
    above, below = s[pos] / t[pos], s[neg] / t[neg]
    lo = above[np.argmax(above)] if above.size else -np.inf
    hi = below[np.argmin(below)] if below.size else np.inf
    return None if lo > hi + SCALAR_TOL else (lo, hi)


def decide_unperforated_lines(s, t) -> LinePairDecision:
    """Exact decision for (span s, span t) with commuting s, t.

    With a = alpha s and b = beta t, scaling reduces to alpha = +-1; for
    each sign the feasible betas form the interval { x : x t >= alpha s },
    and the norm-capped interpolant exists for all of them iff its finite
    endpoints pass the ||.|| <= ||s|| / ||t|| bound dictated by the sign
    structure of t.
    """
    s, t = hermitian(s), hermitian(t)
    ns, nt = op_norm(s), op_norm(t)
    if nt < LINE_TOL:
        return LinePairDecision(unperforated=True, cases=[("t=0", None, None, True)])
    if ns < LINE_TOL:
        # a = 0 forces b >= 0 and b' = 0 always works
        return LinePairDecision(unperforated=True, cases=[("s=0", None, None, True)])
    Q, s_diag, t_diag = joint_eigenbasis(s, t)
    r = ns / nt
    pos = bool(np.any(t_diag > LINE_TOL))
    neg = bool(np.any(t_diag < -LINE_TOL))
    cases = []
    verdict = True
    for alpha in (1.0, -1.0):
        interval = _scalar_interval(alpha * s_diag, t_diag)
        if interval is None:
            cases.append((alpha, None, r, True))
            continue
        lo, hi = interval
        # the finite endpoints t's signs bring into play, against ||s|| / ||t||
        ok = max([abs(lo)] * pos + [abs(hi)] * neg, default=0.0) <= r + LINE_TOL
        cases.append((alpha, (lo, hi), r, ok))
        verdict = verdict and ok
    return LinePairDecision(unperforated=verdict, cases=cases)


def scalar_instance_reduction(s, t, a, b):
    """Scalar form of one commuting line-pair instance.

    Returns the defining ratio inequalities as (sense, coefficient) pairs
    meaning beta >= coeff * alpha or beta <= coeff * alpha, and the exact
    window of admissible scalings lambda for b' = lambda t (or None): the
    scalar interval of a <= lambda t and -b <= -lambda t, interleaved.
    """
    Q, s_diag, t_diag = joint_eigenbasis(s, t)
    a_diag = np.real(np.diag(Q.conj().T @ hermitian(a) @ Q))
    b_diag = np.real(np.diag(Q.conj().T @ hermitian(b) @ Q))
    inequalities = [("ge" if ti > 0 else "le", si / ti)
                    for si, ti in zip(s_diag, t_diag) if abs(ti) > SCALAR_TOL]
    window = _scalar_interval(np.stack([a_diag, -b_diag], axis=1).ravel(),
                              np.stack([t_diag, -t_diag], axis=1).ravel())
    return inequalities, (None if window is None or window[0] > window[1] else window)


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
            raise InputError(NOT_UNITAL, field="B")
        n = self.B.ambient_dim
        self.a = hermitian(self.a)
        check_dimension(self.a.shape[0], n, "B", field="a")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive", field="epsilon")
        if self.N < 1:
            raise InputError("sequence length must be at least 1", field="N")
        try:  # each bound list as one checked stack, tested in B with one call
            self.lowers, self.uppers = (hermitian_checked(m, (3,)) if len(m) else np.empty((0, n, n))
                                        for m in (self.lowers, self.uppers))
        except ValueError:  # a ragged list
            raise InputError("bounds disagree on dimension") from None
        for name, side, mats in (("lowers", "a lower", self.lowers), ("uppers", "an upper", self.uppers)):
            check_dimension(mats.shape[1], n, "B", field=name)
            if not self.B.contains(mats):
                raise InputError(f"{side} bound is not in the algebra", field=name)
        gaps = np.concatenate([self.a - self.lowers, self.uppers - self.a])
        ordered = is_psd(gaps, ORDER_TOL) if len(gaps) else []
        if not all(ordered[:len(self.lowers)]):
            raise InputError("a lower bound does not sit below the element", field="lowers")
        if not all(ordered):
            raise InputError("an upper bound does not sit above the element", field="uppers")
        if self.auto_bounds and self.seed is None:
            raise InputError("auto-generated bounds need a seed", field="auto_bounds")


class InfeasibleInterpolation(InputError):
    """Inconsistent bound lists; carries the Farkas certificate."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


def extreme_bound(B: MatrixStarAlgebra, a, rng, upper: bool,
                  settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS):
    """An extremal-ish element of { u in B : u >= a } (or <= a) found by
    minimizing a random linear functional below a generous norm wall (or
    above it; the wall on a's side follows from the order), started at
    u = +-(1 + ||a||) I."""
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
    plus = CoefficientStack(hb)
    side, wall = (plus, -plus) if upper else (-plus, plus)
    blocks = [sdp.LmiBlock(-sign * a, side), sdp.LmiBlock(box * eye, wall)]
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
    plus = CoefficientStack(hb)  # checked once for all N programs
    minus = -plus
    bounds = [(-l, plus) for l in lowers] + [(u, minus) for u in uppers]
    caps = [(1.0 + req.epsilon / n) * na for n in range(1, req.N + 1)]
    problems = [[sdp.LmiBlock(cap * eye, minus), sdp.LmiBlock(cap * eye, plus)]
                + [sdp.LmiBlock(F0 + eye / n, F) for F0, F in bounds] for n, cap in enumerate(caps, start=1)]
    solutions = sdp.check_feasibility_batch(problems, settings=settings)
    first = next((k for k, sol in enumerate(solutions) if sol.status != sdp.OPTIMAL), req.N)
    # Y_n = sum_i x_i h_i, added in index order from 0 as Python's sum adds, and all slacks F0 -+ Y_n
    # in one call, for every n before the first failed program, in chunks of BLOCK_ENTRIES entries
    signs = np.array([1.0 if blk.coefficients is plus.mats else -1.0 for blk in problems[0]])[:, None, None]
    step = max(1, BLOCK_ENTRIES // (max(len(hb), len(signs)) * n_amb * n_amb))
    out = []
    for start in range(0, first, step):
        x = np.stack([sol.x for sol in solutions[start:min(first, start + step)]])
        Y = np.add.reduce(x[:, :, None, None] * hb, axis=1, initial=0)
        F0 = np.array([[blk.constant for blk in blocks] for blocks in problems[start:start + len(x)]])
        slacks = (F0 + signs * Y[:, None]).reshape(-1, n_amb, n_amb)
        ok = eigenvalues(slacks)[:, 0].reshape(len(x), -1).min(axis=1) >= -INSTANCE_TOL * (1.0 + na)
        if not ok.all():
            raise NumericalFailureError(f"interpolant at n={start + ok.argmin() + 1} violates its blocks")
        out.extend(hermitian_part(Y))
    if first < req.N and solutions[first].status == sdp.INFEASIBLE:
        raise InfeasibleInterpolation(f"no interpolant exists at n={first + 1}: bound lists are inconsistent",
                                      solutions[first].dual_certificate)
    if first < req.N:
        raise NumericalFailureError(f"interpolation SDP failed: {solutions[first].message}")
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
            raise InputError("Choi matrix dimension mismatch", field="choi")
        if not is_psd(self.choi, ORDER_TOL):
            raise InputError("Choi matrix is not PSD: map is not completely positive", field="choi")
        if self.unital:
            out = self.apply(np.eye(self.dim_in))
            if np.linalg.norm(out - np.eye(self.dim_out)) > 1e-8 * self.dim_out:
                raise InputError("map is not unital", field="choi")

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


def _choi_constraints(S: OperatorSubspace, n: int) -> tuple:
    """Equalities pinning a unital CP map to the identity on S, as the stacks
    (mats, values) of tr(J A_j) = b_j: tr(J (I (x) U)) = tr U and
    tr(J h(s^T (x) U)) = tr(s U), h the hermitian part, for s in S and U in
    the hermitian basis of M_n.  The Kronecker products are
    np.kron's own, x_ij U_kl at (i n + k, j n + l), broadcast over the pairs
    (an einsum would add each product to a zero and lose the sign of -0)."""
    full_herm = MatrixStarAlgebra.full(n).hermitian_basis()
    lefts = np.concatenate([np.eye(n, dtype=complex)[None], S.basis.swapaxes(1, 2)])
    krons = (lefts[:, None, :, None, :, None] * full_herm[None, :, None, :, None, :]).reshape(
        len(lefts), len(full_herm), n * n, n * n)
    mats = np.concatenate([krons[0], hermitian_part(krons[1:]).reshape(-1, n * n, n * n)])
    values = np.concatenate([np.trace(full_herm, axis1=1, axis2=2).real,
                             np.trace(S.basis[:, None] @ full_herm, axis1=2, axis2=3).real.reshape(-1)])
    return mats, values


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
    A zero extent (<= EXTENT_TOL) says the identity representation is the
    unique UCP map fixing S, i.e. it has the unique extension property.
    """
    n = S.ambient_dim
    if algebra is not None:
        check_dimension(algebra.ambient_dim, n, "S", field="algebra")
    if n > MAX_CHOI_AMBIENT:
        raise InputError(f"fixed-set extent is limited to ambient dimension {MAX_CHOI_AMBIENT}", field="S")
    A = algebra if algebra is not None else generate_algebra(S)
    spec = spectrahedron.reduce_spectrahedron(n * n, *_choi_constraints(S, n), settings=settings)
    herm = A.hermitian_basis()
    coord_funcs = MatrixStarAlgebra.full(n).hermitian_basis()
    # C[a, u] = kron(herm[a].T, coord_funcs[u])
    Cs = np.einsum("arp,uqs->aupqrs", herm, coord_funcs).reshape(-1, n * n, n * n)
    Cs = hermitian_part(Cs)
    values, bounds = spec.linear_range(Cs)
    settled = bounds <= spectrahedron.FACE_TOL
    # every other objective at both extremes, in one batch: max C, then max -C
    open_rows = np.flatnonzero(~settled)
    extremes = (spectrahedron.optimize_linear(spec, np.concatenate([Cs[open_rows], -Cs[open_rows]]),
                                              settings=settings) if len(open_rows) else [])
    # the identity's values tr(a U), and per objective its deviations at the extremes
    base = np.trace(herm[:, None] @ coord_funcs, axis1=2, axis2=3).real.reshape(-1)
    deviation = np.full((len(Cs), 2), -np.inf)
    deviation[settled, 0] = np.abs(values - base)[settled] + bounds[settled]
    hi, neg_lo = np.array([value for value, _ in extremes]).reshape(2, -1)
    deviation[open_rows] = np.abs(np.stack([hi, -neg_lo], axis=1) - base[open_rows, None])
    row, col = divmod(int(np.argmax(deviation)), 2)  # the first maximum, in pair order
    best = float(deviation[row, col])
    if best <= EXTENT_TOL:
        return best, None
    choi = (spec.point(spec.z_interior) if settled[row]
            else extremes[col * len(open_rows) + int(open_rows.searchsorted(row))][1])
    return best, ChoiMap(dim_in=n, dim_out=n, choi=choi, unital=True)


def nosp_check(
    pi_images,
    Pi_choi: ChoiMap,
    A: MatrixStarAlgebra,
    settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS,
) -> float:
    """lambda* = max over ||a|| <= 1 in A of lambda_min(pi(a) - Pi(a)).

    pi is given by its images on A's hermitian basis; Pi by a unital CP Choi
    matrix on the ambient.  A result <= NOSP_TOL means the difference range
    contains no strictly positive element; the maximum is always >= 0 since
    a = 0 is admissible.
    """
    check_dimension(A.ambient_dim, Pi_choi.dim_in, "Pi_choi.dim_in", field="A")
    hb = A.hermitian_basis()
    if len(pi_images) != len(hb):
        raise InputError("need one representation image per hermitian basis element", field="pi_images")
    images = [hermitian(p) for p in pi_images]
    d = images[0].shape[0]
    if Pi_choi.dim_out != d:
        raise InputError("CP map output dimension does not match the images", field="dim_out")
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
