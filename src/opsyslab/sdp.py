"""Small dense semidefinite programs over block linear matrix inequalities.

Problem form: minimize c.x subject to, for every block k,

    F0_k + x_1 F_{k,1} + ... + x_m F_{k,m}  >=  0        (hermitian PSD)

Feasibility comes first: the feasibility phase maximizes the minimum slack
s over all blocks (capped, so the problem is bounded) with a primal-dual
interior-point method, Nesterov-Todd scaling and Mehrotra's predictor-
corrector, for a batch of programs at once, each bitwise as if alone.  Its
primal iterate X is the dual of the slack problem, and when s < 0 it is a
Farkas-type certificate

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
from .hermitian import BLOCK_ENTRIES, eigh, hermitian_part

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
    """The barrier's optimization phase cannot go on."""


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
    scale = 1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)
    for Z in certificate:
        ev = eigh(Z).eigenvalues
        if ev[0] < -settings.psd_slack * (1.0 + float(np.max(np.abs(ev)))):
            return False
    resid = sum((b.coefficients.reshape(b.num_vars, b.dim**2).conj() @ Z.ravel()).real
                for Z, b in zip(certificate, blocks))
    if np.any(np.abs(resid) > residual_tol * scale):
        return False
    neg = sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(certificate, blocks))
    return neg < CERT_NEGATIVITY


def _rows_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <A_r, B_r> for every row r of two stacks of equal shape."""
    rows = A.shape[0]
    return (A.view(float).reshape(rows, 1, -1) @ B.view(float).reshape(rows, -1, 1))[:, 0, 0]


def _by_rows(fn, fallback, *stacks):
    """fn over stacks of rows, or row by row after a LinAlgError with
    fallback(*row) where it raises; the results and the rows that fell back."""
    try:
        return fn(*stacks), []
    except np.linalg.LinAlgError:
        out, fell_back = [], []
        for r, row in enumerate(zip(*stacks)):
            try:
                out.append(fn(*row))
            except np.linalg.LinAlgError:
                out.append(fallback(*row))
                fell_back.append(r)
        return np.stack(out), fell_back


def _solve_vectors(M: np.ndarray, b: np.ndarray, ridge: bool = False) -> np.ndarray:
    """M^-1 b for stacks.  An always-on ridge would bias y; `ridge` only
    rescues a singular M (a variable with no coefficient anywhere)."""
    if ridge:
        M = M + 1e-12 * (1.0 + float(np.trace(M)) / len(M)) * np.eye(len(M))
    return np.linalg.solve(M, b[..., None])[..., 0]


def _phase1(problems, margin: float, settings: SdpSettings) -> list:
    """Maximize the minimum slack s with F(x) - s I >= 0 and s <= s_cap, for
    programs with the same block dimensions and variable count at once.

    Primal-dual interior-point method with Nesterov-Todd scaling and
    Mehrotra's predictor-corrector (Todd, Toh & Tutuncu 1998).  With y =
    (x, s) the problem is: maximize s subject to S_k(y) = F0_k + sum_i x_i
    F_ki - s I >= 0 on every block and on the cap block s_cap I - s I.  Its
    dual asks for X_k >= 0 with sum_k <X_k, F_ki> = 0 and total trace 1,
    minimizing sum_k <X_k, F0_k> + s_cap tr X_cap; the cap keeps both sides
    feasible and bounded.  X starts at I/n and is infeasible until a full
    step; y starts at x = 0, s = -1 - max_k ||F0_k||_F and stays feasible,
    so callers use the returned x as an interior point.  X over the non-cap
    blocks, renormalized, is the Farkas certificate when lam* < 0.

    A program is one row of every array, and each operation acts on each row
    alone (its own LAPACK and BLAS calls, step lengths and stopping test), so
    its result is bitwise the same in any batch.  It leaves the arrays on
    the pass it converges or stalls.  Returns an SdpSolution per program,
    feasible iff lam* > margin.
    """
    P, m = len(problems), problems[0][0].num_vars
    s_start = [-1.0 - max(float(np.linalg.norm(b.constant)) for b in blocks) for blocks in problems]
    s_cap = [10.0 * (1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)) for blocks in problems]
    d = min(b.dim for b in problems[0])
    programs = [blocks + [LmiBlock._trusted(s * np.eye(d, dtype=complex), np.zeros((m, d, d), complex))]
                for blocks, s in zip(problems, s_cap)]
    n = sum(b.dim for b in programs[0])
    # Per group of equal dimension d: block indices, [F0, F_1..F_m, -I] as a
    # real (P, m + 2, 2 k d d) view (slacks, residuals), and F_1..F_m, -I as
    # (P, k, d (m + 1), d), rows (a, i) holding F_i[a, :] (scaling).
    groups, eyes, X = [], [], []
    for d in sorted({b.dim for b in programs[0]}):
        idxs = [i for i, b in enumerate(programs[0]) if b.dim == d]
        F = np.zeros((P, len(idxs), m + 2, d, d), dtype=complex)
        F[:, :, 0] = [[blocks[i].constant for i in idxs] for blocks in programs]
        F[:, :, 1:-1] = [[blocks[i].coefficients for i in idxs] for blocks in programs]
        F[:, :, -1] = -np.eye(d)
        Ft = np.ascontiguousarray(F.transpose(0, 2, 1, 3, 4)).reshape(P, m + 2, -1).view(float)
        Fc = np.ascontiguousarray(F[:, :, 1:].transpose(0, 1, 3, 2, 4)).reshape(P, len(idxs), -1, d)
        groups.append([idxs, Ft, Fc])
        del F  # a chunk's F can take 16 MB
        eyes.append(np.eye(d, dtype=complex))
        X.append(np.broadcast_to(eyes[-1] / n, (P, len(idxs), d, d)).copy())
    y = np.zeros((P, m + 2))  # (1, x, s): the constant's weight, then y
    y[:, 0], y[:, -1] = 1.0, s_start
    tol = settings.gap_tol / 10.0
    active = np.arange(P)  # the program of each row
    solutions = [None] * P
    for iteration in range(MAX_NEWTON + 1):
        rows = len(active)
        # NT scaling G per block: G^-1 X G^-H = G^H S G = diag(lam), from the
        # Cholesky factor L of X and the eigenvectors Q of L^H S L.
        failed = {}
        r_p = np.zeros((rows, m + 2))  # <F0, X>, then the primal residual
        r_p[:, -1] = 1.0
        M = np.zeros((rows, m + 1, m + 1))
        gap = np.zeros(rows)
        scaled = []
        for (_, Ft, Fc), eye, Xg in zip(groups, eyes, X):
            S = (y[:, None, :] @ Ft).view(complex).reshape(Xg.shape)
            L, lost = _by_rows(np.linalg.cholesky, lambda row: np.broadcast_to(eye, row.shape), Xg)
            for r in lost:
                failed.setdefault(r, "primal iterate lost definiteness")
            w, Q = np.linalg.eigh(L.conj().swapaxes(-1, -2) @ S @ L)
            if not (w > 0.0).all():
                for r in np.flatnonzero(~(w > 0.0).all(axis=(1, 2))):
                    failed.setdefault(r, "dual slack lost definiteness")
                w = np.where(w > 0.0, w, 1.0)
            lam = np.sqrt(w)
            G = (L @ Q) / np.sqrt(lam)[..., None, :]
            # W_i = G^H F_i G for all i in two products per block, laid out
            # (a, i, c), then variable-major for the Gram matrix M.
            Wr = np.ascontiguousarray((G.conj().swapaxes(-1, -2) @ (Fc @ G).reshape(G.shape[:3] + (-1,)))
                                      .reshape(G.shape[:3] + (m + 1, -1)).transpose(0, 3, 1, 2, 4))
            Wr = Wr.reshape(rows, m + 1, -1).view(float)
            M += Wr @ Wr.swapaxes(-1, -2)
            r_p += (Ft @ Xg.view(float).reshape(rows, -1, 1))[..., 0]
            gap += _rows_dot(lam, lam)
            root = 1.0 / np.sqrt(lam)
            scaled.append([G, lam, Wr, root[..., :, None] * root[..., None, :]])
        # <X, S> = sum lam^2.  The dual residual is zero by construction;
        # the primal one is relative to 1 + ||b|| = 2.
        p_obj, r_p = r_p[:, 0], r_p[:, 1:]
        converged = (gap <= tol * (1.0 + np.abs(p_obj) + np.abs(y[:, -1]))) & (
            np.sqrt(_rows_dot(r_p, r_p)) / 2.0 <= tol
        )
        done = converged | (iteration == MAX_NEWTON)
        done[list(failed)] = True
        if done.any():
            for r in np.flatnonzero(done):
                solutions[active[r]] = (
                    _phase1_solution(problems[active[r]], groups, y[r], [Xg[r] for Xg in X],
                                     iteration, margin, settings)
                    if converged[r] and r not in failed
                    else SdpSolution(status=NUMERICAL_FAILURE, newton_steps=iteration, message=failed.get(
                        r, f"interior-point budget of {MAX_NEWTON} iterations exhausted"))
                )
            keep = np.flatnonzero(~done)
            if not keep.size:
                return solutions
            active, y, M, r_p, gap = (a[keep] for a in (active, y, M, r_p, gap))
            X = [Xg[keep] for Xg in X]
            scaled = [[a[keep] for a in arrays] for arrays in scaled]
            groups = [[idxs] + [a[keep] for a in arrays] for idxs, *arrays in groups]
            rows = len(active)
        mu = gap / n

        def direction(R_c):
            """Newton direction for dX + dS = R_c (scaled), dS = sum_i dy_i
            W_i and a zero primal residual; its step lengths to STEP_FRACTION
            of the way to the PSD boundary, from one eigvalsh per group."""
            rhs = r_p.copy()
            for (_, _, Wr, _), R in zip(scaled, R_c):
                rhs += (Wr @ R.view(float).reshape(rows, -1, 1))[..., 0]
            dy, _ = _by_rows(_solve_vectors, lambda Mr, br: _solve_vectors(Mr, br, ridge=True), M, rhs)
            pairs, worst = [], []
            for (_, _, Wr, outer), R in zip(scaled, R_c):
                D = np.empty((rows, 2) + R.shape[1:], dtype=complex)
                D[:, 1] = (dy[:, None, :] @ Wr).view(complex).reshape(R.shape)
                np.subtract(R, D[:, 1], out=D[:, 0])
                worst.append(np.linalg.eigvalsh(D * outer[:, None]).min(axis=(2, 3)))
                pairs.append(D)
            step = np.minimum(1.0, STEP_FRACTION / np.maximum(-np.minimum.reduce(worst), STEP_FRACTION))
            return dy, [D[:, 0] for D in pairs], [D[:, 1] for D in pairs], step[:, :1], step[:, 1:]

        # Predictor: the affine-scaling direction, dX + dS = -diag(lam).
        lam_mats = [lam[..., None] * eye for eye, (_, lam, _, _) in zip(eyes, scaled)]
        _, dX, dS, a_p, a_d = direction([-Lm for Lm in lam_mats])
        gap_aff = sum(
            _rows_dot(Lm + a_p[..., None, None] * Dx, Lm + a_d[..., None, None] * Ds)
            for Lm, Dx, Ds in zip(lam_mats, dX, dS)
        )
        ratio = gap_aff / gap
        target = (np.minimum(1.0, ratio * ratio * ratio) * mu)[:, None, None, None]
        # Corrector: centre at sigma * mu and cancel the predictor's
        # second-order term, in the Jordan product with diag(lam).
        R_c = []
        for eye, Lm, Dx, Ds, (_, lam, _, _) in zip(eyes, lam_mats, dX, dS, scaled):
            DD = Dx @ Ds
            H = target * eye - Lm * Lm - (DD + DD.conj().swapaxes(-1, -2)) / 2.0
            R_c.append(2.0 * H / (lam[..., :, None] + lam[..., None, :]))
        dy, dX, _, a_p, a_d = direction(R_c)
        for g, ((G, _, _, _), D) in enumerate(zip(scaled, dX)):
            Xg = X[g] + a_p[..., None, None] * (G @ D @ G.conj().swapaxes(-1, -2))
            X[g] = np.add(Xg, Xg.conj().swapaxes(-1, -2), out=np.empty_like(Xg)) / 2.0  # C order, for views
        y[:, 1:] += a_d * dy


def _phase1_solution(blocks, groups, y, X, iteration, margin, settings: SdpSettings) -> SdpSolution:
    """The solution of a converged program from its row of the iterate."""
    by_block = dict(zip((i for idxs, _, _ in groups for i in idxs), (Z for Xg in X for Z in Xg)))
    duals = [by_block[i] for i in range(len(blocks))]  # the cap's dropped
    total = sum(float(np.trace(Z).real) for Z in duals)
    duals = [Z / total for Z in duals] if total > 0 else None
    lam_star = float(y[-1])
    certified = duals is not None and lam_star < 0 and verify_certificate(blocks, duals, settings)
    certificate = duals if certified else None
    feasible = lam_star > margin
    status = INFEASIBLE if certificate is not None and not feasible else OPTIMAL
    return SdpSolution(status=status, value=lam_star, x=y[1:-1].copy(), dual_certificate=certificate,
                       dual_blocks=duals, newton_steps=iteration, feasible=feasible)


def check_feasibility(blocks, margin: float = 0.0, settings: SdpSettings = DEFAULT_SETTINGS) -> SdpSolution:
    """Maximize the minimum slack over all blocks; feasible iff lam* > margin."""
    return check_feasibility_batch([blocks], margin, settings)[0]


def check_feasibility_batch(problems, margin: float = 0.0,
                            settings: SdpSettings = DEFAULT_SETTINGS) -> list:
    """check_feasibility of every program in `problems` (block lists with
    the same block dimensions and variable count), solved together in chunks
    whose scaled coefficients hold at most BLOCK_ENTRIES complex entries;
    each solution is bitwise the one its program gives alone."""
    problems = [list(blocks) for blocks in problems]
    if not problems:
        return []
    if not all(problems):
        raise InputError("at least one LMI block is required")
    shapes = [[(b.dim, b.num_vars) for b in blocks] for blocks in problems]
    if len({v for _, v in shapes[0]}) > 1 or any(shape != shapes[0] for shape in shapes):
        raise InputError("blocks disagree on the variable count, or programs on block dimensions")
    dims = [d for d, _ in shapes[0]]
    step = max(1, BLOCK_ENTRIES // ((shapes[0][0][1] + 1) * (sum(d * d for d in dims) + min(dims) ** 2)))
    chunks = (problems[start:start + step] for start in range(0, len(problems), step))
    return [sol for chunk in chunks for sol in _phase1(chunk, margin, settings)]


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
        (phase1,) = _phase1([work_blocks], 0.0, settings)
        if phase1.status == NUMERICAL_FAILURE:
            return SdpSolution(
                status=NUMERICAL_FAILURE,
                message=f"feasibility phase stalled: {phase1.message}",
                newton_steps=phase1.newton_steps,
            )
        x_start, steps_total = phase1.x, phase1.newton_steps
        if phase1.value <= 1e-9 * scale_f:
            if phase1.dual_certificate is not None:
                return SdpSolution(
                    status=INFEASIBLE,
                    value=phase1.value,
                    dual_certificate=phase1.dual_certificate,
                    newton_steps=steps_total,
                    feasible=False,
                )
            return SdpSolution(
                status=NUMERICAL_FAILURE,
                value=phase1.value,
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
