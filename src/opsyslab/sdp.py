"""Small dense semidefinite programs over block linear matrix inequalities.

Problem form: minimize c.x subject to, for every block k,

    F0_k + x_1 F_{k,1} + ... + x_m F_{k,m}  >=  0        (hermitian PSD)

Feasibility comes first: the feasibility phase maximizes the minimum slack
s over all blocks (capped, so the problem is bounded) with a primal-dual
interior-point method, Nesterov-Todd scaling and Mehrotra's predictor-
corrector.  Its primal iterate X is the dual of the slack problem, and when
s < 0 it is a Farkas-type certificate

    Z_k >= 0,   sum_k <Z_k, F_{k,i}> = 0  for all i,   sum_k <Z_k, F0_k> < 0.

The optimization phase starts from a strictly feasible point (the
feasibility phase's or the caller's) and follows the central path of the
primal log-det barrier with damped Newton steps; each iterate factors its
slacks once, and the Cholesky factors L give the barrier value, the
gradient and the Hessian through the whitened coefficients
W_i = L^-1 F_i L^-H (g_i = t c_i - tr W_i, H_ij = Re <W_i, W_j>), and the
duals.  Certificates and weak duality are re-verified before any solution
is returned; failures raise, never pass silently.  Everything is
deterministic: same problem, same output.  `SdpSettings` holds the two
tolerances a document may set; the rest are module constants.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .hermitian import eigh, hermitian_part

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

MAX_VARIABLES = 128
MAX_BLOCK_DIM = 64

# Counters exposed for hygiene reporting; incremented once per verified event.
SOLVE_STATS = {"solves": 0, "duality_checks": 0, "certificate_checks": 0}


MAX_NEWTON = 200  # Newton steps or interior-point iterations, per phase
T_GROWTH = 20.0
NEWTON_TOL = 1e-7
INNER_CAP = 60
CERT_RESIDUAL_TOL = 1e-7
CERT_NEGATIVITY = -1e-9
UNBOUNDED_VALUE = 1e9
STEP_FRACTION = 0.98  # of the way to the PSD boundary, per interior-point step


@dataclass(frozen=True)
class SdpSettings:
    """The tolerances a problem document or the command line may set."""

    gap_tol: float = 1e-7
    psd_slack: float = 1e-8

    def __post_init__(self):
        for name in ("gap_tol", "psd_slack"):
            positive_tolerance(name, getattr(self, name))


def positive_tolerance(name: str, value) -> float:
    """`value` as a float; InputError unless it is a finite positive number."""
    # The chained comparison also rejects NaN, infinities and integers beyond
    # the float range without converting them.
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value <= sys.float_info.max
    ):
        raise InputError(f"{name}: expected a finite positive number, got {value!r}")
    return float(value)


DEFAULT_SETTINGS = SdpSettings()


class LmiBlock:
    """One linear matrix inequality F0 + sum_i x_i F_i >= 0."""

    def __init__(self, constant, coefficients):
        F0 = np.asarray(constant, dtype=complex)
        if F0.ndim != 2 or F0.shape[0] != F0.shape[1]:
            raise InputError("block constant must be a square matrix")
        d = F0.shape[0]
        if d > MAX_BLOCK_DIM:
            raise InputError(f"block dimension {d} exceeds {MAX_BLOCK_DIM}")
        coeffs = [np.asarray(C, dtype=complex) for C in coefficients]
        for C in coeffs:
            if C.shape != (d, d):
                raise InputError("all block coefficients must match the constant's shape")
        stack = np.stack(coeffs, axis=0) if coeffs else np.zeros((0, d, d), dtype=complex)
        scale = 1.0 + max(float(np.max(np.abs(F0))), float(np.max(np.abs(stack))) if coeffs else 0.0)
        dev = float(np.max(np.abs(F0 - F0.conj().T)))
        if coeffs:
            dev = max(dev, float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)))))
        if dev > 1e-8 * scale:
            raise InputError(f"block matrices are not hermitian (deviation {dev:.3e})")
        self._assign(hermitian_part(F0), (stack + stack.conj().transpose(0, 2, 1)) / 2.0)

    @classmethod
    def _trusted(cls, constant: np.ndarray, coefficients: np.ndarray) -> "LmiBlock":
        """A block from a hermitian (d, d) constant and (m, d, d) coefficient
        stack, unchecked: only for blocks derived from validated ones."""
        block = cls.__new__(cls)
        block._assign(constant, coefficients)
        return block

    def _assign(self, constant: np.ndarray, coefficients: np.ndarray) -> None:
        self.constant = constant
        self.coefficients = coefficients
        self.dim = constant.shape[0]
        self.num_vars = coefficients.shape[0]

    def slack(self, x: np.ndarray) -> np.ndarray:
        if self.num_vars == 0:
            return self.constant.copy()
        return self.constant + np.tensordot(x, self.coefficients, axes=(0, 0))


@dataclass
class SdpProblem:
    objective: np.ndarray
    blocks: list
    strict_margin: float = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1:
            raise InputError("objective must be a vector")
        m = self.objective.shape[0]
        if m > MAX_VARIABLES:
            raise InputError(f"{m} variables exceeds {MAX_VARIABLES}")
        if not self.blocks:
            raise InputError("at least one LMI block is required")
        for blk in self.blocks:
            if blk.num_vars != m:
                raise InputError("all blocks must share the objective's variable count")
        if self.strict_margin < 0:
            raise InputError("strict_margin must be nonnegative")


@dataclass
class SdpSolution:
    status: str
    value: float = np.nan
    x: np.ndarray | None = None
    dual_certificate: list | None = None
    dual_blocks: list | None = None
    dual_bound: float | None = None
    newton_steps: int = 0
    feasible: bool | None = None
    ray: np.ndarray | None = None
    message: str = ""


def _cholesky(slacks) -> list | None:
    """Cholesky factors of every slack (matrices or stacks); None when one is
    not positive definite."""
    try:
        return [np.linalg.cholesky(S) for S in slacks]
    except np.linalg.LinAlgError:
        return None


def _logdet(factors) -> float:
    return sum(2.0 * float(np.sum(np.log(np.einsum("...aa->...a", L).real))) for L in factors)


class _Stall(Exception):
    def __init__(self, message: str, steps: int = 0):
        super().__init__(message)
        self.steps = steps


class _BarrierState:
    """Path-following minimize c.x over strictly feasible LMI slices.

    Blocks of equal dimension are stacked so every barrier evaluation is a
    handful of batched LAPACK calls instead of a Python loop over blocks.
    The Cholesky factors of the current iterate's slacks are kept and serve
    the barrier value, the Newton system and the duals.
    """

    def __init__(self, blocks, c, x, settings: SdpSettings):
        self.blocks = blocks
        self.c = np.asarray(c, dtype=float)
        self.x = np.asarray(x, dtype=float).copy()
        self.settings = settings
        self.steps = 0
        self.n_total = sum(b.dim for b in blocks)
        self.groups = []
        for d in sorted({b.dim for b in blocks}):
            idxs = [i for i, b in enumerate(blocks) if b.dim == d]
            F0 = np.stack([blocks[i].constant for i in idxs])
            # (m, k, d, d): variable-major, so the whitened stack reshapes
            # to one row per variable without a copy.
            F = np.stack([blocks[i].coefficients for i in idxs], axis=1)
            self.groups.append((idxs, F0, F))
        # Clamp the relative-gap target so a runaway objective cannot loosen
        # it; unbounded problems then keep descending until detected.
        scale = max(float(np.max(np.abs(b.constant))) for b in blocks)
        self.value_clamp = 1e4 * (1.0 + scale + abs(float(self.c @ self.x)))
        x_scale = float(np.max(np.abs(self.x))) if self.x.size else 0.0
        self.x_blowup = 1e7 * (1.0 + scale + x_scale)
        self._chol = _cholesky(self._slack_stacks(self.x))
        self._newton = None  # (t, step, decrement, whitened) at the current point
        if self._chol is None:
            raise _Stall("initial point is not strictly feasible")

    def _slack_stacks(self, x):
        return [F0 + (x @ F.reshape(x.shape[0], -1)).reshape(F0.shape) for _, F0, F in self.groups]

    def _whitened(self):
        """L^-1 and the whitened coefficients L^-1 F_i L^-H of every group."""
        out = []
        for (_, _, F), L in zip(self.groups, self._chol):
            Linv = np.linalg.inv(L)
            out.append((Linv, Linv @ F @ Linv.conj().swapaxes(-1, -2)))
        return out

    def _grad_hess(self, t: float, whitened=None):
        """Gradient and Hessian of t c.x - log det S(x) at the current point."""
        m = self.c.shape[0]
        g = t * self.c
        H = np.zeros((m, m))
        for _, W in whitened or self._whitened():
            g = g - np.einsum("ikaa->i", W).real
            # Re tr(W_i W_j) = Re <W_i, W_j>: one real Gram matrix over the
            # interleaved real and imaginary parts.
            Wr = W.reshape(m, -1).view(float)
            H += Wr @ Wr.T
        return g, (H + H.T) / 2.0

    def _newton_step(self, t: float):
        """Newton step of the barrier at t, its decrement and the whitened
        stacks; kept until the point moves, so the centering's last
        evaluation also serves the next centering at the same t and the
        duals."""
        if self._newton is None or self._newton[0] != t:
            whitened = self._whitened()
            g, H = self._grad_hess(t, whitened)
            m = self.c.shape[0]
            ridge = 1e-12 * (1.0 + float(np.trace(H)) / max(m, 1))
            try:
                step = np.linalg.solve(H + ridge * np.eye(m), -g)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(H + 1e-6 * np.eye(m), -g)
            self._newton = (t, step, float(np.sqrt(max(-g @ step, 0.0))), whitened)
        return self._newton[1:]

    def center(self, t: float, tol: float) -> None:
        """Damped Newton with Armijo backtracking on the barrier value.

        Degenerate problems (flat optimal faces) plateau above any tight
        decrement target, so stalled progress ends the centering instead of
        burning the step budget.  Inside the Dikin region a full step halves
        the decrement in exact arithmetic, so a step that fails to means the
        decrement has reached the slack's rounding floor.
        """
        m = self.c.shape[0]
        if m == 0:
            return
        f_cur = t * float(self.c @ self.x) - _logdet(self._chol)
        stall = 0
        prev_dec = np.inf
        for _ in range(INNER_CAP):
            step, dec, _ = self._newton_step(t)
            if dec <= tol or (prev_dec < 0.25 and dec > 0.5 * prev_dec):
                return
            if dec > 0.9 * prev_dec:
                stall += 1
                if stall >= 4:
                    return
            else:
                stall = 0
            prev_dec = dec
            alpha = 1.0 if dec <= 4.0 else 1.0 / (1.0 + dec)
            # Inside the Dikin region (dec < 1/4) the full Newton step of a
            # self-concordant barrier is feasible and contracts the decrement
            # quadratically (Nesterov-Nemirovski); the barrier value's own
            # rounding can hide that decrease, so there the full step only
            # has to keep the slack positive definite.
            dikin = dec < 0.25
            accepted = False
            while alpha > 1e-14:
                x_new = self.x + alpha * step
                chol_new = _cholesky(self._slack_stacks(x_new))
                if chol_new is not None:
                    f_new = t * float(self.c @ x_new) - _logdet(chol_new)
                    if (
                        (dikin and alpha == 1.0)
                        or f_new <= f_cur - 0.25 * alpha * dec * dec
                        or f_new < f_cur
                    ):
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                raise _Stall("line search could not make progress")
            self.x = x_new
            self._chol = chol_new
            self._newton = None
            f_cur = f_new
            self.steps += 1
            if self.steps > MAX_NEWTON:
                raise _Stall(f"Newton budget of {MAX_NEWTON} steps exhausted")

    def follow_path(self) -> float:
        """Drive t until the duality gap bound meets gap_tol; returns final t.

        Intermediate stages are centered loosely; only the final stage is
        driven to a tight Newton decrement so the harvested duals are clean.
        """
        t = 1.0
        while True:
            self.center(t, 0.05)
            if self._runaway():
                # Suspected recession direction; the ray certification
                # downstream confirms or refutes it.
                raise _Unbounded(float(self.c @ self.x))
            value = float(self.c @ self.x)
            gap_target = self.settings.gap_tol * (1.0 + min(abs(value), self.value_clamp))
            if self.n_total / t <= gap_target:
                self.center(t, NEWTON_TOL)
                if self._runaway():
                    raise _Unbounded(float(self.c @ self.x))
                return t
            t *= T_GROWTH

    def _runaway(self) -> bool:
        value = float(self.c @ self.x)
        if value < -UNBOUNDED_VALUE or value < -self.value_clamp:
            return True
        return bool(self.x.size and float(np.max(np.abs(self.x))) > self.x_blowup)

    def duals(self, t: float):
        """(S^-1 - S^-1 dS S^-1) / t for every block, with dS the slack change
        of the Newton step at t.  S^-1 / t alone misses dual feasibility by
        the gradient, which the final centering leaves at the slack's
        rounding floor; the corrected blocks meet it to rounding and are PSD
        inside the Dikin region, outside which the correction is dropped."""
        step, dec, whitened = self._newton_step(t)
        if dec >= 1.0:
            step = np.zeros_like(step)
        out = [None] * len(self.blocks)
        for (idxs, F0, _), (Linv, W) in zip(self.groups, whitened):
            inner = np.eye(F0.shape[-1]) - np.tensordot(step, W, axes=(0, 0))
            Z = Linv.conj().swapaxes(-1, -2) @ inner @ Linv
            for pos, i in enumerate(idxs):
                out[i] = hermitian_part(Z[pos]) / t
        return out


class _Unbounded(Exception):
    def __init__(self, value):
        self.value = value


def verify_certificate(
    blocks, certificate, settings: SdpSettings = DEFAULT_SETTINGS,
    residual_tol: float = CERT_RESIDUAL_TOL,
) -> bool:
    """Farkas re-verification: every Z_k PSD, sum_k <Z_k, F_{k,i}> = 0 for
    every i within residual_tol, and sum_k <Z_k, F0_k> < 0.  Certificates are
    normalized to unit total trace."""
    SOLVE_STATS["certificate_checks"] += 1
    m = blocks[0].num_vars
    scale = 1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)
    for Z in certificate:
        ev = eigh(Z).eigenvalues
        if ev[0] < -settings.psd_slack * (1.0 + float(np.max(np.abs(ev)))):
            return False
    for i in range(m):
        resid = sum(float(np.vdot(Z, b.coefficients[i]).real) for Z, b in zip(certificate, blocks))
        if abs(resid) > residual_tol * scale:
            return False
    neg = sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(certificate, blocks))
    return neg < CERT_NEGATIVITY


def _step_length(lam: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha <= 1 with diag(lam) + alpha * direction >= 0 on every
    block of a stack, shortened to STEP_FRACTION of the way to the boundary."""
    root = 1.0 / np.sqrt(lam)
    worst = float(np.min(np.linalg.eigvalsh(direction * (root[..., :, None] * root[..., None, :]))))
    return 1.0 if worst >= -STEP_FRACTION else STEP_FRACTION / -worst


def _phase1(blocks, settings: SdpSettings):
    """Maximize the minimum slack s with F(x) - s I >= 0 and s <= s_cap.

    Primal-dual interior-point method with Nesterov-Todd scaling and
    Mehrotra's predictor-corrector (Todd, Toh & Tutuncu 1998).  With y =
    (x, s) the problem is: maximize s subject to S_k(y) = F0_k + sum_i x_i
    F_ki - s I >= 0 on every block, and the cap s_cap I - s I >= 0 folded
    into the stack of the smallest dimension.  Its dual asks for X_k >= 0
    with sum_k <X_k, F_ki> = 0 and total trace 1, minimizing
    sum_k <X_k, F0_k> + s_cap tr X_cap; the cap keeps both sides feasible
    and bounded.  X starts at I/n and is infeasible until a full step; y
    starts at x = 0, s = -1 - max_k ||F0_k||_F (below every eigenvalue) and
    stays feasible, so F(x) - lam* I > 0 holds at the returned x, which
    callers use as an interior point.  X over the non-cap blocks,
    renormalized, is the Farkas certificate when lam* < 0.

    Returns (lam_star, x, certificate_or_None, duals, iterations); raises
    _Stall when an iterate loses definiteness or the budget runs out.
    """
    m = blocks[0].num_vars
    d_scale = max(float(np.max(np.abs(b.constant))) for b in blocks)
    s_cap = 10.0 * (1.0 + d_scale)
    dims = sorted({b.dim for b in blocks})
    groups = []  # (block indices, F0 stack (k, d, d), coefficients (m + 1, k, d, d))
    for d in dims:
        idxs = [i for i, b in enumerate(blocks) if b.dim == d]
        F0 = [blocks[i].constant for i in idxs]
        F = [np.concatenate([blocks[i].coefficients, -np.eye(d)[None]]) for i in idxs]
        if d == dims[0]:
            cap = np.zeros((m + 1, d, d), dtype=complex)
            cap[-1] = -np.eye(d)
            F0.append(s_cap * np.eye(d, dtype=complex))
            F.append(cap)
        groups.append((idxs, np.stack(F0), np.stack(F, axis=1)))
    n = sum(F0.shape[0] * F0.shape[1] for _, F0, _ in groups)
    tol = settings.gap_tol / 10.0

    y = np.zeros(m + 1)
    y[-1] = -1.0 - max(float(np.linalg.norm(b.constant)) for b in blocks)
    X = [np.broadcast_to(np.eye(F0.shape[1]) / n, F0.shape).astype(complex) for _, F0, _ in groups]
    for iteration in range(MAX_NEWTON + 1):
        # NT scaling G per block: G^-1 X G^-H = G^H S G = diag(lam), from the
        # Cholesky factor L of X and the eigenvectors Q of L^H S L.
        r_p = np.zeros(m + 1)
        r_p[-1] = 1.0
        M = np.zeros((m + 1, m + 1))
        p_obj = 0.0
        scaled = []
        for (_, F0, F), Xg in zip(groups, X):
            S = F0 + (y @ F.reshape(m + 1, -1)).reshape(F0.shape)
            try:
                L = np.linalg.cholesky(Xg)
            except np.linalg.LinAlgError:
                raise _Stall("primal iterate lost definiteness", iteration) from None
            LH = L.conj().swapaxes(-1, -2)
            w, Q = np.linalg.eigh(LH @ S @ L)
            if not np.all(w > 0.0):
                raise _Stall("dual slack lost definiteness", iteration)
            lam = np.sqrt(w)
            G = (L @ Q) / np.sqrt(lam)[..., None, :]
            W = G.conj().swapaxes(-1, -2) @ F @ G
            Wr = W.reshape(m + 1, -1).view(float)
            M += Wr @ Wr.T
            r_p += (F.reshape(m + 1, -1).conj() @ Xg.reshape(-1)).real
            p_obj += float(np.vdot(F0, Xg).real)
            scaled.append((G, lam, W))
        # <X, S> = sum lam^2.  The dual residual is zero by construction;
        # the primal one is relative to 1 + ||b|| = 2.
        gap = sum(float(np.sum(lam * lam)) for _, lam, _ in scaled)
        if (
            gap <= tol * (1.0 + abs(p_obj) + abs(y[-1]))
            and float(np.linalg.norm(r_p)) / 2.0 <= tol
        ):
            break
        if iteration == MAX_NEWTON:
            raise _Stall(f"interior-point budget of {MAX_NEWTON} iterations exhausted", iteration)
        mu = gap / n

        def direction(R_c):
            """Newton direction for the scaled complementarity target
            dX + dS = R_c, with dS = sum_i dy_i W_i and the primal
            residual driven to zero."""
            rhs = r_p + sum(
                (Wg.reshape(m + 1, -1).conj() @ R.reshape(-1)).real
                for (_, _, Wg), R in zip(scaled, R_c)
            )
            # An always-on ridge would bias y; it only rescues a singular M
            # (a variable with no coefficient anywhere).
            try:
                dy = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * (1.0 + float(np.trace(M)) / (m + 1))
                dy = np.linalg.solve(M + ridge * np.eye(m + 1), rhs)
            dS = [np.tensordot(dy, Wg, axes=(0, 0)) for _, _, Wg in scaled]
            dX = [R - D for R, D in zip(R_c, dS)]
            a_p = min(_step_length(lam, D) for (_, lam, _), D in zip(scaled, dX))
            a_d = min(_step_length(lam, D) for (_, lam, _), D in zip(scaled, dS))
            return dy, dX, dS, a_p, a_d

        # Predictor: the affine-scaling direction, dX + dS = -diag(lam).
        lam_mats = [lam[..., None] * np.eye(lam.shape[-1]) for _, lam, _ in scaled]
        _, dX, dS, a_p, a_d = direction([-Lm for Lm in lam_mats])
        gap_aff = sum(
            float(np.vdot(Lm + a_p * Dx, Lm + a_d * Ds).real)
            for Lm, Dx, Ds in zip(lam_mats, dX, dS)
        )
        sigma = min(1.0, (gap_aff / gap) ** 3)
        # Corrector: centre at sigma * mu and cancel the predictor's
        # second-order term, in the Jordan product with diag(lam).
        R_c = []
        for Lm, Dx, Ds, (_, lam, _) in zip(lam_mats, dX, dS, scaled):
            P = Dx @ Ds
            H = sigma * mu * np.eye(lam.shape[-1]) - Lm * Lm - (P + P.conj().swapaxes(-1, -2)) / 2.0
            R_c.append(2.0 * H / (lam[..., :, None] + lam[..., None, :]))
        dy, dX, _, a_p, a_d = direction(R_c)
        for g, ((G, _, _), D) in enumerate(zip(scaled, dX)):
            Xg = X[g] + a_p * (G @ D @ G.conj().swapaxes(-1, -2))
            X[g] = (Xg + Xg.conj().swapaxes(-1, -2)) / 2.0
        y = y + a_d * dy

    lam_star = float(y[-1])
    duals = [None] * len(blocks)
    for (idxs, _, _), Xg in zip(groups, X):
        for pos, i in enumerate(idxs):
            duals[i] = Xg[pos]
    total = sum(float(np.trace(Z).real) for Z in duals)
    duals = [Z / total for Z in duals] if total > 0 else None
    certificate = None
    if duals is not None and lam_star < 0 and verify_certificate(blocks, duals, settings):
        certificate = duals
    return lam_star, y[:-1].copy(), certificate, duals, iteration


def check_feasibility(blocks, margin: float = 0.0, settings: SdpSettings = DEFAULT_SETTINGS) -> SdpSolution:
    """Maximize the minimum slack over all blocks; feasible iff lam* > margin."""
    blocks = list(blocks)
    if not blocks:
        raise InputError("at least one LMI block is required")
    m = blocks[0].num_vars
    for b in blocks:
        if b.num_vars != m:
            raise InputError("blocks disagree on the variable count")
    try:
        lam_star, x, certificate, duals, steps = _phase1(blocks, settings)
    except _Stall as exc:
        return SdpSolution(status=NUMERICAL_FAILURE, message=str(exc), newton_steps=exc.steps)
    feasible = lam_star > margin
    status = OPTIMAL
    if certificate is not None and not feasible:
        status = INFEASIBLE
    return SdpSolution(
        status=status,
        value=lam_star,
        x=x,
        dual_certificate=certificate,
        dual_blocks=duals,
        newton_steps=steps,
        feasible=feasible,
    )


def solve(problem: SdpProblem, x0=None, settings: SdpSettings = DEFAULT_SETTINGS) -> SdpSolution:
    """Minimize the objective over the problem's LMI slice.

    `x0`, when given, must be strictly feasible and skips the feasibility
    phase.  A strict_margin delta > 0 asks for a point with margin delta on
    every block; the margin is absorbed by shifting each constant term.
    """
    SOLVE_STATS["solves"] += 1
    c = problem.objective
    m = c.shape[0]
    delta = problem.strict_margin
    work_blocks = problem.blocks
    if delta > 0:
        work_blocks = [
            LmiBlock._trusted(b.constant - delta * np.eye(b.dim), b.coefficients)
            for b in problem.blocks
        ]

    scale_f = 1.0 + max(float(np.max(np.abs(b.constant))) for b in work_blocks)
    steps_total = 0

    if x0 is not None:
        x_start = np.asarray(x0, dtype=float)
        if x_start.shape != (m,):
            raise InputError("x0 has the wrong length")
        if _cholesky([b.slack(x_start) for b in work_blocks]) is None:
            raise InputError("supplied x0 is not strictly feasible")
    else:
        try:
            lam_star, x_start, certificate, _, steps = _phase1(work_blocks, settings)
        except _Stall as exc:
            return SdpSolution(
                status=NUMERICAL_FAILURE,
                message=f"feasibility phase stalled: {exc}",
                newton_steps=exc.steps,
            )
        steps_total += steps
        feas_tol = 1e-9 * scale_f
        if lam_star <= feas_tol:
            if certificate is not None:
                return SdpSolution(
                    status=INFEASIBLE,
                    value=lam_star,
                    dual_certificate=certificate,
                    newton_steps=steps_total,
                    feasible=False,
                )
            return SdpSolution(
                status=NUMERICAL_FAILURE,
                value=lam_star,
                newton_steps=steps_total,
                message="marginally feasible problem: no interior point and no certificate",
            )

    try:
        state = _BarrierState(work_blocks, c, x_start, settings)
    except _Stall as exc:
        return SdpSolution(status=NUMERICAL_FAILURE, message=str(exc), newton_steps=steps_total)
    try:
        t = state.follow_path()
    except _Unbounded as exc:
        ray, ray_steps = _certify_ray(work_blocks, c, settings)
        steps_total += state.steps + ray_steps
        if ray is not None:
            return SdpSolution(status=UNBOUNDED, value=-np.inf, ray=ray, newton_steps=steps_total)
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            message=f"objective fell below -{UNBOUNDED_VALUE:g} but no ray certified",
            value=float(exc.value),
            newton_steps=steps_total,
        )
    except _Stall as exc:
        return SdpSolution(
            status=NUMERICAL_FAILURE, message=str(exc), newton_steps=steps_total + state.steps
        )

    steps_total += state.steps
    x = state.x
    value = float(c @ x)
    duals = state.duals(t)
    raw_bound = -sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(duals, work_blocks))

    # The duals are feasible to rounding, so the raw bound may overshoot the
    # value by a gap-tolerance amount; more than that is a genuine failure.
    # The reported bound is clamped so the weak-duality direction always
    # holds for consumers.
    SOLVE_STATS["duality_checks"] += 1
    allowance = settings.gap_tol * (1.0 + abs(value))
    if raw_bound > value + allowance:
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            value=value,
            x=x,
            newton_steps=steps_total,
            message=f"weak duality violated: bound {raw_bound!r} above value {value!r}",
        )
    gap = value - raw_bound
    if gap > 10.0 * settings.gap_tol * (1.0 + abs(value)):
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            value=value,
            x=x,
            newton_steps=steps_total,
            message=f"duality gap {gap:.3e} exceeds tolerance",
        )
    return SdpSolution(
        status=OPTIMAL,
        value=value,
        x=x,
        dual_blocks=duals,
        dual_bound=min(raw_bound, value),
        newton_steps=steps_total,
        feasible=True,
    )


def _certify_ray(blocks, c, settings: SdpSettings):
    """Look for d with sum_i d_i F_i >= 0 on every block and c.d <= -1.

    Returns (d or None, iterations spent)."""
    ray_blocks = [LmiBlock._trusted(np.zeros_like(b.constant), b.coefficients) for b in blocks]
    ray_blocks.append(
        LmiBlock._trusted(np.array([[-1.0]], dtype=complex), -c.astype(complex).reshape(-1, 1, 1))
    )
    sol = check_feasibility(ray_blocks, margin=0.0, settings=settings)
    if sol.feasible:
        d = sol.x / max(float(np.linalg.norm(sol.x)), 1e-300)
        ok = all(
            float(eigh(b.slack(d) - b.constant).eigenvalues[0]) >= -settings.psd_slack * 10
            for b in blocks
        )
        if ok and float(c @ d) < 0:
            return d, sol.newton_steps
    return None, sol.newton_steps
