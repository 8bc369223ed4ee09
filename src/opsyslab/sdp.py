"""Small dense semidefinite programs over block linear matrix inequalities.

Problem form: minimize c.x subject to, for every block k,

    F0_k + x_1 F_{k,1} + ... + x_m F_{k,m}  >=  0        (hermitian PSD)

solved with a primal log-det barrier and damped Newton steps.  Feasibility
is established first by maximizing the minimum slack s over all blocks
(big-M capped); the same phase yields a Farkas-type certificate

    Z_k >= 0,   sum_k <Z_k, F_{k,i}> = 0  for all i,   sum_k <Z_k, F0_k> < 0

whenever the constraints are infeasible.  Certificates and weak duality are
re-verified before any solution is returned; failures raise, never pass
silently.  Everything is deterministic: same problem, same output.

Each Newton iterate factors its slacks once: the Cholesky factors L of the
accepted point give the barrier value, the gradient and the Hessian through
the whitened coefficients W_i = L^-1 F_i L^-H (g_i = t c_i - tr W_i,
H_ij = Re <W_i, W_j>), and the harvested duals S^-1 / t.  `SdpSettings`
holds the two tolerances a document may set; the rest are module constants.
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


MAX_NEWTON = 200  # per phase
T_GROWTH = 20.0
NEWTON_TOL = 1e-7
INNER_CAP = 60
CERT_RESIDUAL_TOL = 1e-7
CERT_NEGATIVITY = -1e-9
UNBOUNDED_VALUE = 1e9


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
    pass


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
        if self._chol is None:
            raise _Stall("initial point is not strictly feasible")

    def _slack_stacks(self, x):
        return [F0 + (x @ F.reshape(x.shape[0], -1)).reshape(F0.shape) for _, F0, F in self.groups]

    def _grad_hess(self, t: float):
        """Gradient and Hessian of t c.x - log det S(x) at the current point."""
        m = self.c.shape[0]
        g = t * self.c
        H = np.zeros((m, m))
        for (_, _, F), L in zip(self.groups, self._chol):
            Linv = np.linalg.inv(L)
            W = Linv @ F @ Linv.conj().swapaxes(-1, -2)
            g = g - np.einsum("ikaa->i", W).real
            # Re tr(W_i W_j) = Re <W_i, W_j>: one real Gram matrix over the
            # interleaved real and imaginary parts.
            Wr = W.reshape(m, -1).view(float)
            H += Wr @ Wr.T
        return g, (H + H.T) / 2.0

    def center(self, t: float, tol: float, early_exit=None) -> None:
        """Damped Newton with Armijo backtracking on the barrier value.

        Degenerate problems (flat optimal faces) plateau above any tight
        decrement target, so stalled progress ends the centering instead of
        burning the step budget.
        """
        m = self.c.shape[0]
        if m == 0:
            return
        f_cur = t * float(self.c @ self.x) - _logdet(self._chol)
        stall = 0
        prev_dec = np.inf
        for _ in range(INNER_CAP):
            g, H = self._grad_hess(t)
            ridge = 1e-12 * (1.0 + float(np.trace(H)) / max(m, 1))
            try:
                step = np.linalg.solve(H + ridge * np.eye(m), -g)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(H + 1e-6 * np.eye(m), -g)
            dec = float(np.sqrt(max(-g @ step, 0.0)))
            if dec <= tol:
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
            f_cur = f_new
            self.steps += 1
            if self.steps > MAX_NEWTON:
                raise _Stall(f"Newton budget of {MAX_NEWTON} steps exhausted")
            if early_exit is not None and early_exit(self.x):
                return

    def follow_path(self, early_exit=None) -> float:
        """Drive t until the duality gap bound meets gap_tol; returns final t.

        Intermediate stages are centered loosely; only the final stage is
        driven to a tight Newton decrement so the harvested duals are clean.
        """
        t = 1.0
        while True:
            self.center(t, 0.05, early_exit=early_exit)
            if early_exit is not None and early_exit(self.x):
                return t
            if self._runaway():
                # Suspected recession direction; the ray certification
                # downstream confirms or refutes it.
                raise _Unbounded(float(self.c @ self.x))
            value = float(self.c @ self.x)
            gap_target = self.settings.gap_tol * (1.0 + min(abs(value), self.value_clamp))
            if self.n_total / t <= gap_target:
                self.center(t, NEWTON_TOL, early_exit=early_exit)
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
        """S^-1 / t for every block, from the current factors."""
        out = [None] * len(self.blocks)
        for (idxs, _, _), L in zip(self.groups, self._chol):
            Linv = np.linalg.inv(L)
            Sinv = Linv.conj().swapaxes(-1, -2) @ Linv
            for pos, i in enumerate(idxs):
                out[i] = hermitian_part(Sinv[pos]) / t
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


def _phase1(blocks, settings: SdpSettings, early_margin: float | None = None):
    """Maximize the minimum slack s with F(x) - s I >= 0 and s capped.

    Returns (lam_star, x, certificate_or_None, duals, steps).  The certificate is
    only attached when lam_star is negative and the Farkas identity verifies.
    """
    m = blocks[0].num_vars
    d_scale = max(float(np.max(np.abs(b.constant))) for b in blocks)
    s_cap = 10.0 * (1.0 + d_scale)
    aug_blocks = [
        LmiBlock._trusted(
            b.constant, np.concatenate([b.coefficients, -np.eye(b.dim, dtype=complex)[None]])
        )
        for b in blocks
    ]
    cap_coefficients = np.zeros((m + 1, 1, 1), dtype=complex)
    cap_coefficients[-1] = -1.0
    aug_blocks.append(LmiBlock._trusted(np.array([[s_cap]], dtype=complex), cap_coefficients))

    s0 = min(float(eigh(b.constant).eigenvalues[0]) for b in blocks) - 1.0
    x0 = np.zeros(m + 1)
    x0[-1] = s0
    c = np.zeros(m + 1)
    c[-1] = -1.0

    early = None
    if early_margin is not None:
        early = lambda x: x[-1] > early_margin  # noqa: E731

    state = _BarrierState(aug_blocks, c, x0, settings)
    try:
        t = state.follow_path(early_exit=early)
    except _Unbounded as exc:
        raise _Stall(f"iterate diverged during the feasibility phase (value {exc.value:g})") from exc
    lam_star = float(state.x[-1])
    x_part = state.x[:-1].copy()

    certificate = None
    duals = None
    if early is None or not early(state.x):
        Z_all = state.duals(t)[:-1]  # drop the cap block
        total = sum(float(np.trace(Z).real) for Z in Z_all)
        if total > 0:
            duals = [Z / total for Z in Z_all]
            if lam_star < 0 and verify_certificate(blocks, duals, settings):
                certificate = duals
    return lam_star, x_part, certificate, duals, state.steps


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
        return SdpSolution(status=NUMERICAL_FAILURE, message=str(exc))
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
        # A point with slack 1e-6 * scale is interior enough to start phase 2;
        # thinner problems fall through to the full slack maximization.
        try:
            lam_star, x_start, certificate, _, steps = _phase1(
                work_blocks, settings, early_margin=1e-6 * scale_f
            )
        except _Stall as exc:
            return SdpSolution(status=NUMERICAL_FAILURE, message=f"feasibility phase stalled: {exc}")
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
        t = state.follow_path()
    except _Unbounded as exc:
        ray = _certify_ray(work_blocks, c, settings)
        if ray is not None:
            return SdpSolution(status=UNBOUNDED, value=-np.inf, ray=ray, newton_steps=steps_total)
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            message=f"objective fell below -{UNBOUNDED_VALUE:g} but no ray certified",
            value=float(exc.value),
        )
    except _Stall as exc:
        return SdpSolution(status=NUMERICAL_FAILURE, message=str(exc), newton_steps=steps_total)

    steps_total += state.steps
    x = state.x
    value = float(c @ x)
    duals = state.duals(t)
    raw_bound = -sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(duals, work_blocks))

    # The harvested dual is feasible only up to the final Newton residual, so
    # the raw bound may overshoot the value by a gap-tolerance amount; more
    # than that is a genuine failure.  The reported bound is clamped so the
    # weak-duality direction always holds for consumers.
    SOLVE_STATS["duality_checks"] += 1
    allowance = settings.gap_tol * (1.0 + abs(value))
    if raw_bound > value + allowance:
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            value=value,
            x=x,
            message=f"weak duality violated: bound {raw_bound!r} above value {value!r}",
        )
    gap = value - raw_bound
    if gap > 10.0 * settings.gap_tol * (1.0 + abs(value)):
        return SdpSolution(
            status=NUMERICAL_FAILURE,
            value=value,
            x=x,
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
    """Look for d with sum_i d_i F_i >= 0 on every block and c.d <= -1."""
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
            return d
    return None
