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
One instance core decides a document's instance and every search trial, on
the instance's own power-of-two scale (`pow2_scale` of a and b), and one
extreme-element routine poses the search's trials and the Riesz auto-bounds.
Riesz sequences stay unscaled: their I/n margins are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp, spectrahedron
from .algebra import NOT_UNITAL, MatrixStarAlgebra, OperatorSubspace, generate_algebra, pow2_scale, pow2_times
from .errors import InputError, NumericalFailureError, check_dimension
from .hermitian import (
    CoefficientStack,
    clip_spectrum,
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
from .limits import MAX_CHOI_AMBIENT, chunks

INSTANCE_TOL = 1e-7
ORDER_TOL = 1e-8  # x <= y when lambda_min(y - x) >= -ORDER_TOL (1 + max |lambda|); Choi PSD alike
EXTENT_TOL = 1e-6  # a fixed-set extent at most this is zero: the `boundary` verdict
NOSP_TOL = 1e-6  # lambda* at most this: no strictly positive difference, the `nosp` verdict
COMMUTE_TOL = 1e-8  # [a, b] below this, relative to (1 + ||a||)(1 + ||b||), commutes
LINE_TOL = 1e-9  # eigenvalues of t below this count as zero, line pairs
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


def _scaled(a, b) -> tuple:
    """The scale step of an instance: (unit, unit a, unit b, ||unit a||), unit
    = `pow2_scale` of hermitian (a, b), from one spectrum of [b - a, a];
    InputError unless a <= b within ORDER_TOL on that scale."""
    unit = float(pow2_scale(np.stack([a, b])))
    a, b = pow2_times(a, unit), pow2_times(b, unit)
    ev = eigenvalues_checked(np.stack([b - a, a]))
    if not spectrum_psd(ev[0], ORDER_TOL):
        raise InputError("instance requires a <= b", field="b")
    return unit, a, b, float(np.abs(ev[1]).max())


def _blocks(T: OperatorSubspace, a, b, norm_a: float) -> list:
    """The blocks a <= b' <= b, b' <= ||a||, -||a|| <= b' over b' in T; the
    solve poses three, as a + ||a|| I >= 0 makes the last follow from the first."""
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
    return _decide(S, T, a, b, settings)


def _decide(S: OperatorSubspace, T: OperatorSubspace, a, b, settings: sdp.SdpSettings) -> UnperforatedInstance:
    """The instance core: `solve_unperforated_instance` on hermitian a in S and
    b in T, decided on its own scale (`_scaled`), its numbers divided back."""
    unit, a_unit, b_unit, norm_a = _scaled(a, b)
    sol = sdp.check_feasibility(_blocks(T, a_unit, b_unit, norm_a)[:3], settings=settings)
    if sol.status == sdp.NUMERICAL_FAILURE:
        raise NumericalFailureError(f"instance SDP failed: {sol.message}")
    candidate = T.element(sol.x)
    ev = eigenvalues_checked(np.stack([candidate - a_unit, b_unit - candidate, candidate]))  # built hermitian
    norm_b_prime = float(np.abs(ev[2]).max())
    feasible = (bool(spectrum_psd(ev[:2], INSTANCE_TOL).all())
                and norm_b_prime <= norm_a + INSTANCE_TOL * (1.0 + norm_a))
    max_slack = float(sol.value) / unit
    if not feasible and sol.dual_certificate is None:
        raise NumericalFailureError(f"instance neither verifiable nor certified (max slack {max_slack:.3e})")
    return UnperforatedInstance(
        S=S, T=T, a=a, b=b, feasible=feasible, max_slack=max_slack, norm_a=norm_a / unit,
        b_prime=pow2_times(candidate, np.reciprocal(unit)) if feasible else None,
        norm_b_prime=norm_b_prime / unit if feasible else None,
        certificate=None if feasible else sol.dual_certificate + [np.zeros_like(a)],
    )


def verify_instance_certificate(instance: UnperforatedInstance) -> bool:
    """Farkas re-verification of an INFEASIBLE instance against blocks rebuilt
    from scratch (`sdp.verify_certificate`)."""
    if instance.certificate is None:
        return False
    _, a, b, norm_a = _scaled(hermitian(instance.a), hermitian(instance.b))  # on the instance's scale
    return sdp.verify_certificate(_blocks(instance.T, a, b, norm_a), instance.certificate)


def _extreme_elements(V: OperatorSubspace, programs, wall: float, settings: sdp.SdpSettings) -> list:
    """One `sdp.solve_batch`: per (upper, a, G, start), minimize <G, u> over u
    in V with u >= a (upper) or u <= a, inside the norm wall on the other side
    (a's side follows from the order), from `start` (None: a cold start)."""
    plus, minus = V.stack, -V.stack
    box = wall * np.eye(V.ambient_dim, dtype=complex)
    problems = [sdp.SdpProblem(objective=np.array([float(np.vdot(G, v).real) for v in V.basis]),
                               blocks=[sdp.LmiBlock(-a, plus), sdp.LmiBlock(box, minus)] if upper
                               else [sdp.LmiBlock(a, minus), sdp.LmiBlock(box, plus)])
                for upper, a, G, _ in programs]
    return sdp.solve_batch(problems, [start for *_, start in programs], settings=settings)


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
    # b = 2I is strictly inside every generation program (a <= I, b <= 16)
    identity = T.identity_in_span()
    x0 = None if identity is None else 2.0 * identity
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        a = S.element(rng.standard_normal(S.dim))
        na = op_norm(a)
        if na == 0.0:
            continue
        a = a / na
        G = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        G = G / max(np.linalg.norm(G), 1e-12)
        gen, = _extreme_elements(T, [(True, a, G, x0)], 16.0, settings)  # 8 (1 + ||a||) for the normalized a
        if gen.status != sdp.OPTIMAL:
            continue  # no b >= a in T for this sample (or solver gave up)
        instance = _decide(S, T, a, T.element(gen.x), settings)  # a in S and b in T by construction
        if not instance.feasible:
            return instance
    return None


# --------------------------------------------------- commuting truncation


def _commuting(a, b, message: str) -> tuple:
    """(unit, unit X, ||unit X||) for each of hermitian a and b on its own
    `pow2_scale`, the norms and ||[unit a, unit b]|| from one stacked call;
    InputError(message) unless that commutator is zero within COMMUTE_TOL."""
    ua, ub = float(pow2_scale(a)), float(pow2_scale(b))
    a, b = pow2_times(a, ua), pow2_times(b, ub)
    na, nb, nc = op_norm(np.stack([a, b, hermitian_part(1j * (a @ b - b @ a))]))  # i[a, b] is hermitian
    if nc > COMMUTE_TOL * (1.0 + na) * (1.0 + nb):
        raise InputError(message)
    return (ua, a, float(na)), (ub, b, float(nb))


def truncate_commuting(a, b) -> np.ndarray:
    """The clamped element b' = f(b) with threshold ||a|| for commuting a <= b.

    Requires [a, b] = 0 within COMMUTE_TOL; the clamp is the continuous
    function fixing [-||a||, ||a||] and saturating outside, applied through
    functional calculus, and its output satisfies a <= b' <= b with
    ||b'|| <= ||a||, all on the instance's scale (`_scaled`).
    """
    a, b = hermitian(a), hermitian(b)
    _commuting(a, b, "inputs do not commute")
    unit, a, b, norm_a = _scaled(a, b)
    bp = clip_spectrum(b, norm_a)
    if not spectrum_psd(eigenvalues_checked(np.stack([bp - a, b - bp])), INSTANCE_TOL).all():
        raise NumericalFailureError("clamped element lost the order sandwich")
    return pow2_times(bp, np.reciprocal(unit))


def _joint(a, b) -> tuple:
    """`joint_eigenbasis` on a and b each on its own scale: Q and, per
    matrix, (unit, the diagonal of Q* (unit X) Q, ||unit X||)."""
    (ua, a, na), (ub, b, nb) = _commuting(hermitian(a), hermitian(b), "matrices do not commute")
    dec_b = eigh(b)
    Q = np.array(dec_b.eigenvectors, copy=True)
    lam_b = dec_b.eigenvalues
    edges = [0, *(np.flatnonzero(np.diff(lam_b) > 1e-8 * (1.0 + nb)) + 1), len(lam_b)]  # clusters of b
    for start, end in zip(edges[:-1], edges[1:]):
        if end - start > 1:
            block = Q[:, start:end]
            Q[:, start:end] = block @ eigh(hermitian_part(block.conj().T @ a @ block)).eigenvectors
    diag_a, diag_b = (np.real(np.diag(Q.conj().T @ X @ Q)) for X in (a, b))
    off = np.linalg.norm(Q.conj().T @ a @ Q - np.diag(diag_a))
    if off > 1e-6 * (1.0 + na):
        raise NumericalFailureError("joint diagonalization failed")
    return Q, (ua, diag_a, na), (ub, diag_b, nb)


def joint_eigenbasis(a, b):
    """Common orthonormal eigenbasis of a commuting hermitian pair.

    Diagonalizes b, then re-diagonalizes a inside each eigenvalue cluster
    of b, each matrix on its own scale; returns (Q, diag_a, diag_b).
    """
    Q, (ua, diag_a, _), (ub, diag_b, _) = _joint(a, b)
    return Q, diag_a / ua, diag_b / ub


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
    structure of t.  s and t are each on their own scale (`_joint`) and the
    betas on theirs, ur = `pow2_scale(||us s|| / ||ut t||)`: x ut t >= alpha
    ur us s, so the endpoints and the bound are x ut / (us ur).
    """
    _, (us, s_diag, ns), (ut, t_diag, nt) = _joint(s, t)
    if nt == 0.0:
        return LinePairDecision(unperforated=True, cases=[("t=0", None, None, True)])
    if ns == 0.0:
        # a = 0 forces b >= 0 and b' = 0 always works
        return LinePairDecision(unperforated=True, cases=[("s=0", None, None, True)])
    ur = float(pow2_scale(ns / nt))
    r, back = ur * ns / nt, ut / us / ur
    pos, neg = bool(np.any(t_diag > LINE_TOL)), bool(np.any(t_diag < -LINE_TOL))
    cases, verdict = [], True
    for alpha in (1.0, -1.0):
        interval = _scalar_interval(alpha * ur * s_diag, t_diag)
        if interval is None:
            cases.append((alpha, None, r * back, True))
            continue
        lo, hi = interval
        # the finite endpoints t's signs bring into play, against ||s|| / ||t||
        ok = max([abs(lo)] * pos + [abs(hi)] * neg, default=0.0) <= r + LINE_TOL
        cases.append((alpha, (lo * back, hi * back), r * back, ok))
        verdict = verdict and ok
    return LinePairDecision(unperforated=verdict, cases=cases)


def scalar_instance_reduction(s, t, a, b):
    """Scalar form of one commuting line-pair instance.

    Returns the defining ratio inequalities as (sense, coefficient) pairs
    meaning beta >= coeff * alpha or beta <= coeff * alpha, and the exact
    window of admissible scalings lambda for b' = lambda t (or None): the
    scalar interval of a <= lambda t and -b <= -lambda t, interleaved; s, t
    and (a, b) each on its own scale, the numbers mapped back.
    """
    Q, (us, s_diag, _), (ut, t_diag, _) = _joint(s, t)
    a, b = hermitian(a), hermitian(b)
    unit = float(pow2_scale(np.stack([a, b])))
    a_diag, b_diag = (np.real(np.diag(Q.conj().T @ pow2_times(X, unit) @ Q)) for X in (a, b))
    inequalities = [("ge" if ti > 0 else "le", si / ti * (ut / us))
                    for si, ti in zip(s_diag, t_diag) if abs(ti) > SCALAR_TOL]
    window = _scalar_interval(np.stack([a_diag, -b_diag], axis=1).ravel(),
                              np.stack([t_diag, -t_diag], axis=1).ravel())
    return inequalities, (None if window is None or window[0] > window[1] else
                          (window[0] * (ut / unit), window[1] * (ut / unit)))


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


def extreme_bounds(B: MatrixStarAlgebra, a, rng, count: int,
                   settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS) -> tuple:
    """`count` upper and `count` lower extremal-ish elements of { u in B : u
    >= a } (or <= a), each found by minimizing a random linear functional
    below a generous norm wall (or above it; the wall on a's side follows
    from the order), started at u = +-(1 + ||a||) I.  The functionals are
    drawn upper, lower, upper, ... and the 2 count programs solved as one
    batch; the first failing bound in that order raises."""
    V, n = B.subspace(), B.ambient_dim
    reach = 1.0 + op_norm(a)
    identity = V.identity_in_span()  # the start has margin >= 1 in every block
    programs = []
    for _ in range(count):
        for upper in (True, False):
            G = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            programs.append((upper, a, G, (1.0 if upper else -1.0) * reach * identity))
    solutions = _extreme_elements(V, programs, 4.0 * reach, settings)
    for sol in solutions:
        if sol.status != sdp.OPTIMAL:
            raise NumericalFailureError(f"extreme bound generation failed: {sol.status}")
    bounds = [V.element(sol.x) for sol in solutions]
    return bounds[0::2], bounds[1::2]


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
        more_uppers, more_lowers = extreme_bounds(req.B, req.a, rng, req.auto_bounds, settings=settings)
        uppers += more_uppers
        lowers += more_lowers
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
    # in one call, for every n before the first failed program, in `limits.chunks` blocks
    signs = np.array([1.0 if blk.coefficients is plus.mats else -1.0 for blk in problems[0]])[:, None, None]
    out = []
    for part in chunks(first, max(len(hb), len(signs)) * n_amb * n_amb):
        x = np.stack([sol.x for sol in solutions[part]])
        Y = np.add.reduce(x[:, :, None, None] * hb, axis=1, initial=0)
        F0 = np.array([[blk.constant for blk in blocks] for blocks in problems[part]])
        slacks = (F0 + signs * Y[:, None]).reshape(-1, n_amb, n_amb)
        ok = eigenvalues(slacks)[:, 0].reshape(len(x), -1).min(axis=1) >= -INSTANCE_TOL * (1.0 + na)
        if not ok.all():
            raise NumericalFailureError(f"interpolant at n={part.start + ok.argmin() + 1} violates its blocks")
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
    def from_map(func, dim_in: int, unital: bool = False) -> "ChoiMap":
        """The map X -> func(X) on M_dim_in; its output dimension is the images'."""
        # units[i, j] = E_ij
        units = np.eye(dim_in * dim_in, dtype=complex).reshape((dim_in,) * 4)
        J = np.block([[np.asarray(func(E), dtype=complex) for E in row] for row in units])
        return ChoiMap(dim_in=dim_in, dim_out=len(J) // dim_in, choi=J, unital=unital)

    @staticmethod
    def identity(n: int) -> "ChoiMap":
        return ChoiMap.from_map(lambda X: X, n, unital=True)

    @staticmethod
    def pinching(projectors, n: int) -> "ChoiMap":
        projs = [np.asarray(p, dtype=complex) for p in projectors]
        return ChoiMap.from_map(lambda X: sum(p @ X @ p for p in projs), n, unital=True)


def _choi_constraints(S: OperatorSubspace, n: int) -> tuple:
    """Equalities pinning a unital CP map to the identity on S, as the stacks
    (mats, values) of tr(J A_j) = b_j: tr(J (I (x) U)) = tr U and
    tr(J h(s^T (x) U)) = tr(s U), h the hermitian part, for s in S (scaled by
    `pow2_scale`) and U in the hermitian basis of M_n.  The Kronecker products
    are np.kron's own, x_ij U_kl at (i n + k, j n + l), broadcast over the
    pairs (an einsum would add each product to a zero and lose the sign of -0)."""
    full_herm = MatrixStarAlgebra.full(n).hermitian_basis()
    basis = S.basis * pow2_scale(S.basis, axis=(-2, -1))
    lefts = np.concatenate([np.eye(n, dtype=complex)[None], basis.swapaxes(1, 2)])
    krons = (lefts[:, None, :, None, :, None] * full_herm[None, :, None, :, None, :]).reshape(
        len(lefts), len(full_herm), n * n, n * n)
    mats = np.concatenate([krons[0], hermitian_part(krons[1:]).reshape(-1, n * n, n * n)])
    values = np.concatenate([np.trace(full_herm, axis1=1, axis2=2).real,
                             np.trace(basis[:, None] @ full_herm, axis1=2, axis2=3).real.reshape(-1)])
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
    spec = spectrahedron.reduce_spectrahedron(*_choi_constraints(S, n), settings=settings)
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
    box = CoefficientStack(np.concatenate([hb, np.zeros_like(hb[:1])]))  # ||a|| <= 1; s has no part in it
    eye = np.eye(A.ambient_dim, dtype=complex)
    blocks = [sdp.LmiBlock(np.zeros((d, d), dtype=complex), diffs + [-np.eye(d, dtype=complex)]),
              sdp.LmiBlock(eye, -box), sdp.LmiBlock(eye, box)]
    c = np.zeros(len(hb) + 1)
    c[-1] = -1.0
    x0 = np.zeros(len(hb) + 1)
    x0[-1] = -1.0
    sol = sdp.solve(sdp.SdpProblem(objective=c, blocks=blocks), x0=x0, settings=settings)
    if sol.status != sdp.OPTIMAL:
        raise NumericalFailureError(f"difference-positivity SDP failed: {sol.status} {sol.message}")
    return -float(sol.value)
