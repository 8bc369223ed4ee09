"""Small dense semidefinite programs over block linear matrix inequalities.

Problem form: minimize c.x subject to, for every block k,

    F0_k + x_1 F_{k,1} + ... + x_m F_{k,m}  >=  0        (hermitian PSD)

One primal-dual interior-point loop solves every program: Nesterov-Todd
scaling and Mehrotra's predictor-corrector (Todd, Toh & Tutuncu 1998) for
"maximize b.y subject to F0 + sum_i y_i F_i >= 0" from a strictly feasible
y, with the primal iterate X as the dual.  It runs a batch of programs at
once, each bitwise as if alone, as one stack: every block is padded to the
largest block dimension, as diag(F(x), I) >= 0 iff F(x) >= 0.

The feasibility phase gives y one more entry s and maximizes the minimum
slack s over all blocks (capped, so the problem is bounded), to the gap
tolerance or to the first iterate whose s clears the program's exit
threshold: inf, unless its caller needs only an interior point (the face
search).  When s < 0 its X is a Farkas-type certificate

    Z_k >= 0,   sum_k <Z_k, F_{k,i}> = 0  for all i,   sum_k <Z_k, F0_k> < 0.

The optimization phase maximizes -c.x from a strictly feasible point (the
feasibility phase's, or the caller's if `is_positive_definite` holds on its
slacks); its X, moved onto sum_k <Z_k, F_ki> = c_i, gives the bound c.x >=
-sum_k <Z_k, F0_k>.  Certificates and weak duality are re-verified before
any solution is returned: `dual_bound` is set only once the duality check
passes.  The module keeps no state: same problem, same output.
`SdpSettings` holds the two tolerances a document may set; the rest are
module constants.

`LmiBlock(constant, coefficients)` is the one way to build a block: on a
shared checked `CoefficientStack` it checks only its constant, and a list of
coefficients it checks with the constant as one stack.  Every program the
package poses is bounded (a norm box, trace-one densities or unital Choi
matrices), so there is no unbounded verdict: an objective that runs past
-UNBOUNDED_VALUE (1 + ||c||), a bound in the objective's own units, stops
its program as NUMERICAL_FAILURE, as any other runaway does.

The loop calls numpy.linalg's own LAPACK kernels (the private module
numpy.linalg._umath_linalg, numpy >= 1.24) without their wrappers: the same
iterates, bitwise, for less dispatch.  A kernel fills a matrix it fails on
with NaN instead of raising, so failures are per-row NaN masks: only that
program ends NUMERICAL_FAILURE, or solves its singular system with a ridge.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InputError
from .hermitian import CoefficientStack, hermitian, hermitian_part, is_positive_definite, is_psd
from .limits import MAX_VARIABLES, chunks

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

MAX_NEWTON = 200  # interior-point iterations, per phase
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
    """One linear matrix inequality F0 + sum_i x_i F_i >= 0, built only here: on a
    shared `CoefficientStack` only the constant is checked, a list is checked
    with it as one stack [F0, *F], of which the block holds read-only views."""

    def __init__(self, constant, coefficients):
        if isinstance(coefficients, CoefficientStack):
            if np.shape(constant) != coefficients.mats.shape[1:]:
                raise InputError(CoefficientStack.MISMATCH)
            self.constant, self.coefficients = hermitian(constant), coefficients.mats
        else:
            stack = CoefficientStack([constant, *coefficients]).mats
            self.constant, self.coefficients = stack[0], stack[1:]
        self.dim, self.num_vars = len(self.constant), len(self.coefficients)

    def slack(self, x: np.ndarray) -> np.ndarray:
        return self.constant + np.tensordot(x, self.coefficients, axes=(0, 0))


@dataclass
class SdpProblem:
    objective: np.ndarray
    blocks: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1:
            raise InputError("objective must be a vector")
        if not np.isfinite(self.objective).all():
            raise InputError("objective entries must be finite (no NaN/Inf)")
        m = self.objective.shape[0]
        if m > MAX_VARIABLES:
            raise InputError(f"{m} variables exceeds {MAX_VARIABLES}", field="objective")
        if not self.blocks:
            raise InputError("at least one LMI block is required")
        for blk in self.blocks:
            if blk.num_vars != m:
                raise InputError("all blocks must share the objective's variable count")


@dataclass
class SdpSolution:
    status: str
    value: float = np.nan
    x: np.ndarray | None = None
    dual_certificate: list | None = None
    dual_blocks: list | None = None
    dual_bound: float | None = None
    newton_steps: int = 0
    message: str = ""


def verify_certificate(blocks, certificate, settings: SdpSettings = DEFAULT_SETTINGS) -> bool:
    """Farkas re-verification: every Z_k PSD, sum_k <Z_k, F_{k,i}> = 0 for
    every i within CERT_RESIDUAL_TOL (relative to the constants' size), and
    sum_k <Z_k, F0_k> < CERT_NEGATIVITY.  Certificates are normalized to unit
    total trace."""
    scale = 1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)
    for d in {Z.shape[0] for Z in certificate}:
        if not is_psd(np.stack([Z for Z in certificate if Z.shape[0] == d]), settings.psd_slack).all():
            return False
    resid = sum((b.coefficients.reshape(b.num_vars, b.dim**2).conj() @ Z.ravel()).real
                for Z, b in zip(certificate, blocks))
    if np.any(np.abs(resid) > CERT_RESIDUAL_TOL * scale):
        return False
    neg = sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(certificate, blocks))
    return neg < CERT_NEGATIVITY


def _rows_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <A_r, B_r> for every row r of two stacks of equal shape."""
    rows = A.shape[0]
    return (A.view(float).reshape(rows, 1, -1) @ B.view(float).reshape(rows, -1, 1))[:, 0, 0]


def _lapack(kernel: str, *stacks):
    """numpy.linalg's LAPACK gufunc `kernel` on stacks; a matrix it fails on
    comes back as NaN.  Callers hold np.errstate(invalid="ignore")."""
    return getattr(_umath_linalg, kernel)(*stacks)


# Why a program left the loop without converging: its objective ran past
# -UNBOUNDED_VALUE (1 + ||c||), it used up the budget, or its last step was NaN.
_RUNAWAY = f"objective fell below -{UNBOUNDED_VALUE:g} (1 + ||c||)"
_BUDGET = f"interior-point budget of {MAX_NEWTON} iterations exhausted"
_NAN_STEP = "interior-point step is not finite"
# Arrays of the scaled coefficients' size that one pass holds per program:
# the two coefficient layouts, F_i G, W, its variable-major copy and the
# previous pass's copy.
_WORKING_SET = 6


def _stack_shape(blocks, cap: bool) -> tuple:
    """(K, D): the loop's blocks (with `cap`, the cap too), padded to the largest dimension D."""
    return len(blocks) + cap, max(blk.dim for blk in blocks)


@np.errstate(all="ignore")  # failed kernels and their rows leave NaN, read as failures
def _interior_point(problems, b, y, trace, exits, settings: SdpSettings, caps=None) -> list:
    """Maximize b.y subject to S_k(y) = F0_k + sum_i y_i F_ki >= 0 on every
    block, for programs with the same block dimensions and variable count;
    y and b are rows (1, y) and (0, b), the first entry the weight of F0.

    Primal-dual interior-point method with Nesterov-Todd scaling and
    Mehrotra's predictor-corrector (Todd, Toh & Tutuncu 1998).  The primal
    asks for X_k >= 0 with sum_k <X_k, F_ki> = -b_i, minimizing
    sum_k <X_k, F0_k>; X starts at a multiple of I of trace `trace` and is
    infeasible until a full step, and y starts strictly feasible and stays
    so.  With `caps`, y gains a last entry s, every block gets the column -I
    on its own corner and one more block s_cap I - s I of dimension D comes
    last: the feasibility phase.  Without, b.y above UNBOUNDED_VALUE (1 +
    ||b||) stops a program (a runaway).  Every program also converges on the first pass
    where b.y exceeds its exit threshold, its entry of `exits` (inf: never).

    Every block is padded to the largest dimension D, F0_k by I and each F_ki
    by 0, as diag(S_k(y), I) >= 0 iff S_k(y) >= 0: one (P, q + 1, K, D, D)
    stack, and per pass one Cholesky, one eigh and one eigvalsh per direction
    whatever the block sizes.  The padding carries no coefficient, so each
    X_k's own corner is a dual block of the unpadded program.

    A program is one row of every array, and each operation acts on each row
    alone (its own LAPACK and BLAS calls, step lengths and stopping test), so
    its result is bitwise the same in any batch.  A pass decides before it
    builds: a program leaves the arrays on the pass it converges, fails or
    stops, before any Newton system is formed for it.  Returns per program
    (y, X in block order, each its block's own shape, iterations, None or
    why it stopped).
    """
    P, m = len(problems), problems[0][0].num_vars
    q = b.shape[1] - 1  # m, or m + 1 with the slack s
    K, D = _stack_shape(problems[0], caps is not None)
    dims = [blk.dim for blk in problems[0]]
    # [F0, F_1..F_q] per block: a real (P, q + 1, 2 K D D) view (slacks,
    # residuals), and F_1..F_q as (P, K, D q, D), rows (a, i) holding
    # F_i[a, :] (scaling).
    F = np.zeros((P, q + 1, K, D, D), dtype=complex)
    diag = np.arange(D)
    for j, d in enumerate(dims):
        for rows, part in ((0, [blocks[j].constant for blocks in problems]),
                           (slice(1, m + 1), [blocks[j].coefficients for blocks in problems])):
            F[:, rows, j, :d, :d] = part[0] if all(a is part[0] for a in part) else part  # shared: written once
        F[:, 0, j, diag[d:], diag[d:]] = 1.0  # the padding's I
        if caps is not None:  # s's column: -I on the block's own corner
            F[:, -1, j, diag[:d], diag[:d]] = -1.0
    if caps is not None:  # the cap s_cap I - s I
        F[:, 0, -1, diag, diag] = np.asarray(caps)[:, None]
        F[:, -1, -1, diag, diag] = -1.0
    Ft = F.reshape(P, q + 1, -1).view(float)
    Fc = np.ascontiguousarray(F[:, 1:].transpose(0, 2, 3, 1, 4)).reshape(P, K, -1, D)
    eye = np.eye(D, dtype=complex)
    X = (eye * (trace / (K * D))[:, None, None, None]).repeat(K, axis=1)
    y = y.copy()
    b_norm = 1.0 + np.sqrt(_rows_dot(b, b))
    limit = (np.inf if caps is not None else UNBOUNDED_VALUE) * b_norm  # in the objective's units
    tol = settings.gap_tol / 10.0
    active = np.arange(P)  # the program of each row
    outcomes = [None] * P
    for iteration in range(MAX_NEWTON + 1):
        # NT scaling G per block: G^-1 X G^-H = G^H S G = diag(lam), from
        # the Cholesky factor L of X and the eigenvectors Q of L^H S L.
        # <X, S> = sum lam^2.  The dual residual is zero by construction;
        # the primal one (b + <F0, X> at first) is relative to 1 + ||b||.
        S = (y[:, None, :] @ Ft).view(complex).reshape(X.shape)
        L = _lapack("cholesky_lo", X)
        w, Q = _lapack("eigh_lo", L.conj().swapaxes(-1, -2) @ S @ L)
        lam = np.sqrt(w)
        r_p = b + (Ft @ X.view(float).reshape(len(active), -1, 1))[..., 0]
        gap = _rows_dot(lam, lam)
        p_obj, r_p = r_p[:, 0], r_p[:, 1:]
        d_obj = _rows_dot(y, b)  # with caps b picks s: exactly y[:, -1]
        feasible = np.sqrt(_rows_dot(r_p, r_p)) / b_norm <= tol
        # y is strictly feasible: b.y above the threshold answers the caller
        converged = ((gap <= tol * (1.0 + np.abs(p_obj) + np.abs(d_obj))) & feasible) | (d_obj > exits)
        runaway = d_obj > limit
        done = converged | runaway | (iteration == MAX_NEWTON)
        failed = {}
        if not (w > 0.0).all():  # a row failed: its earliest cause wins
            for reason, lost in ((_NAN_STEP, np.isnan(X).any(axis=(1, 2, 3)) | np.isnan(y).any(axis=1)),
                                 ("primal iterate lost definiteness", np.isnan(L).any(axis=(1, 2, 3))),
                                 ("dual slack lost definiteness", ~(w > 0.0).all(axis=(1, 2)))):
                for r in np.flatnonzero(lost):
                    failed.setdefault(r, reason)
            done[list(failed)] = True
        if done.any():  # settled before any Newton work: only the rows that go on get a system
            for r in np.flatnonzero(done):
                reason = failed.get(r, None if converged[r] else _RUNAWAY if runaway[r] else _BUDGET)
                duals = [Z[:d, :d] for Z, d in zip(X[r], dims + [D])]  # the cap, if any, is D x D
                outcomes[active[r]] = (y[r].copy(), duals, iteration, reason)
            keep = np.flatnonzero(~done)
            if not keep.size:
                return outcomes
            active, y, b, b_norm, limit, exits, r_p, gap, X, Ft, Fc, L, Q, lam = (
                a[keep] for a in (active, y, b, b_norm, limit, exits, r_p, gap, X, Ft, Fc, L, Q, lam))
        root = np.sqrt(lam)
        G = (L @ Q) / root[..., None, :]
        Gc = G.conj()  # kept C-ordered, so that every G^H is the same transposed view
        # W_i = G^H F_i G for all i in two products per block, laid out
        # (a, i, c), then variable-major for the Gram matrix M.
        Wr = np.ascontiguousarray((Gc.swapaxes(-1, -2) @ (Fc @ G).reshape(G.shape[:3] + (-1,)))
                                  .reshape(G.shape[:3] + (q, -1)).transpose(0, 3, 1, 2, 4))
        Wr = Wr.reshape(len(active), q, -1).view(float)
        M = Wr @ Wr.swapaxes(-1, -2)
        root = 1.0 / root
        outer = root[..., :, None] * root[..., None, :]
        rows, mu = len(active), gap / (K * D)

        def direction(R_c):
            """Newton direction for dX + dS = R_c (scaled), dS = sum_i dy_i W_i and a
            zero primal residual, and its step lengths to STEP_FRACTION of the way to
            the PSD boundary.  A singular M (a variable with no coefficient) is solved
            again with a ridge, in its row: an always-on ridge would bias y."""
            rhs = r_p + (Wr @ R_c.view(float).reshape(rows, -1, 1))[..., 0]
            dy = _lapack("solve1", M, rhs)
            if np.isnan(np.add.reduce(dy, axis=None)):
                for r in np.flatnonzero(np.isnan(dy).any(axis=1)):
                    ridge = 1e-12 * (1.0 + float(np.trace(M[r])) / q) * np.eye(q)
                    dy[r] = _lapack("solve1", M[r] + ridge, rhs[r])
            pair = np.empty((rows, 2) + R_c.shape[1:], dtype=complex)  # dX, dS
            pair[:, 1] = (dy[:, None, :] @ Wr).view(complex).reshape(R_c.shape)
            np.subtract(R_c, pair[:, 1], out=pair[:, 0])
            worst = _lapack("eigvalsh_lo", pair * outer[:, None]).min(axis=(2, 3))
            step = np.minimum(1.0, STEP_FRACTION / np.maximum(-worst, STEP_FRACTION))
            return dy, pair[:, 0], pair[:, 1], step[:, :1, None, None], step[:, 1:, None, None]

        # Predictor: the affine-scaling direction, dX + dS = -diag(lam).
        Lm = lam[..., None] * eye
        _, dX, dS, a_p, a_d = direction(-Lm)
        ratio = _rows_dot(Lm + a_p * dX, Lm + a_d * dS) / gap
        target = (np.minimum(1.0, ratio * ratio * ratio) * mu)[:, None, None, None]
        # Corrector: centre at sigma * mu and cancel the predictor's
        # second-order term, in the Jordan product with diag(lam).
        DD = dX @ dS
        H = target * eye - Lm * Lm - (DD + DD.conj().swapaxes(-1, -2)) / 2.0
        dy, dX, _, a_p, a_d = direction(2.0 * H / (lam[..., :, None] + lam[..., None, :]))
        X = X + a_p * (G @ dX @ Gc.swapaxes(-1, -2))
        X = np.add(X, X.conj().swapaxes(-1, -2), out=np.empty_like(X)) / 2.0  # C order, for views
        y[:, 1:] += a_d[:, :, 0, 0] * dy


def _in_chunks(run, problems, cap: bool, *rows):
    """run(chunk, *rows of the chunk) over chunks of `problems` whose working
    set (_WORKING_SET arrays of the scaled coefficients, with `cap` the
    feasibility phase's) fits one block of `limits.chunks`."""
    K, D = _stack_shape(problems[0], cap)
    return [out for part in chunks(len(problems), _WORKING_SET * (problems[0][0].num_vars + cap + 1) * K * D * D)
            for out in run(problems[part], *(a[part] for a in rows))]


def _same_shapes(problems) -> None:
    if not all(problems):
        raise InputError("at least one LMI block is required")
    shapes = [[(b.dim, b.num_vars) for b in blocks] for blocks in problems]
    if len({v for _, v in shapes[0]}) > 1 or any(shape != shapes[0] for shape in shapes):
        raise InputError("blocks disagree on the variable count, or programs on block dimensions")


def _phase1(problems, exits, settings: SdpSettings) -> list:
    """Maximize the minimum slack s with F(x) - s I >= 0 and s <= s_cap, for
    programs with the same block dimensions and variable count at once; each
    stops once s exceeds its exit threshold in `exits` (inf: never).

    The dual asks for X_k >= 0 with sum_k <X_k, F_ki> = 0 and total trace 1,
    minimizing sum_k <X_k, F0_k> + s_cap tr X_cap; the cap keeps both sides
    feasible and bounded.  X starts at trace 1; y starts at x = 0, s = -1 -
    max_k ||F0_k||_F, so callers use the returned x as an interior point.  X
    over the non-cap blocks, renormalized, is the Farkas certificate when
    lam* < 0.  Returns an SdpSolution per program (see check_feasibility).
    """
    P, m = len(problems), problems[0][0].num_vars
    y = np.zeros((P, m + 2))  # (1, x, s)
    y[:, 0] = 1.0
    y[:, -1] = [-1.0 - max(float(np.linalg.norm(b.constant)) for b in blocks) for blocks in problems]
    caps = [10.0 * (1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)) for blocks in problems]
    b = np.zeros((P, m + 2))
    b[:, -1] = 1.0
    outcomes = _interior_point(problems, b, y, np.ones(P), exits, settings, caps)
    return [
        _phase1_solution(blocks, y, X, iteration, settings) if reason is None
        else SdpSolution(status=NUMERICAL_FAILURE, newton_steps=iteration, message=reason)
        for blocks, (y, X, iteration, reason) in zip(problems, outcomes)
    ]


def _phase1_solution(blocks, y, X, iteration, settings: SdpSettings) -> SdpSolution:
    """The solution of a converged program from its row of the iterate."""
    duals = X[:-1]  # the cap's dropped
    total = sum(float(np.trace(Z).real) for Z in duals)
    duals = [Z / total for Z in duals] if total > 0 else None
    lam_star = float(y[-1])
    certified = duals is not None and lam_star < 0 and verify_certificate(blocks, duals, settings)
    return SdpSolution(status=INFEASIBLE if certified else OPTIMAL, value=lam_star, x=y[1:-1].copy(),
                       dual_certificate=duals if certified else None, dual_blocks=duals, newton_steps=iteration)


def check_feasibility(blocks, settings: SdpSettings = DEFAULT_SETTINGS, interior=None) -> SdpSolution:
    """Maximize the minimum slack lam* over all blocks.  INFEASIBLE when
    lam* < 0 and the dual verifies as a Farkas certificate; otherwise
    OPTIMAL with the maximizer x, where lam* > 0 says x is strictly
    feasible.  NUMERICAL_FAILURE when the loop stops without converging.

    A caller that needs only an interior point passes its decision threshold
    as `interior`: the loop stops on the first iterate whose slack exceeds
    it and returns that iterate, OPTIMAL with value its slack (dual_blocks
    its unconverged X).  A program whose maximum slack is at most the
    threshold never gets there, so its solution is the converged one, bit
    for bit."""
    return check_feasibility_batch([blocks], settings, None if interior is None else [interior])[0]


def check_feasibility_batch(problems, settings: SdpSettings = DEFAULT_SETTINGS, interior=None) -> list:
    """check_feasibility of every program in `problems` (block lists with
    the same block dimensions and variable count), solved together in
    chunks, each with its exit threshold in `interior` (inf: none; None:
    inf for all); each solution is bitwise the one its program gives alone."""
    problems = [list(blocks) for blocks in problems]
    if not problems:
        return []
    _same_shapes(problems)
    exits = np.full(len(problems), np.inf) if interior is None else np.array(interior, dtype=float)
    if exits.shape != (len(problems),):
        raise InputError("need one interior threshold per program")
    return _in_chunks(lambda *rows: _phase1(*rows, settings), problems, True, exits)


def solve(problem: SdpProblem, x0=None, settings: SdpSettings = DEFAULT_SETTINGS) -> SdpSolution:
    """Minimize the objective over the problem's LMI slice.

    `x0`, when given, must be strictly feasible and skips the feasibility
    phase.
    """
    return solve_batch([problem], [x0], settings)[0]


def solve_batch(problems, x0s=None, settings: SdpSettings = DEFAULT_SETTINGS) -> list:
    """solve of every problem (the same block dimensions and variable count)
    from its start in `x0s` (None for a cold start), solved together; each
    solution is bitwise the one its problem gives alone.

    The optimization phase maximizes -c.x over F(x) >= 0 with the loop of
    the feasibility phase, without its slack column and cap, from a strictly
    feasible x; the primal iterate X, started at a multiple of I, is the
    dual.  A program whose objective runs past -UNBOUNDED_VALUE (1 + ||c||),
    or that uses up its budget, ends NUMERICAL_FAILURE with that reason.
    """
    problems = list(problems)
    x0s = [None] * len(problems) if x0s is None else list(x0s)
    if len(x0s) != len(problems):
        raise InputError("need one start (or None) per problem")
    if not problems:
        return []
    programs = [p.blocks for p in problems]
    _same_shapes(programs)
    m = problems[0].objective.shape[0]
    starts, steps, solutions = [None] * len(problems), [0] * len(problems), [None] * len(problems)
    for k, (blocks, x0) in enumerate(zip(programs, x0s)):
        if x0 is not None:
            x = starts[k] = np.asarray(x0, dtype=float)
            if x.shape != (m,):
                raise InputError("x0 has the wrong length")
            # finite first: an infinite start would overflow the slacks
            if not (np.isfinite(x).all() and all(is_positive_definite(b.slack(x)) for b in blocks)):
                raise InputError("supplied x0 is not strictly feasible")
    cold = [k for k, x0 in enumerate(starts) if x0 is None]
    for k, sol in zip(cold, check_feasibility_batch([programs[k] for k in cold], settings)):
        starts[k], steps[k], solutions[k] = sol.x, sol.newton_steps, _cold_start_failure(programs[k], sol)
    warm = [k for k in range(len(problems)) if solutions[k] is None]
    if not warm:
        return solutions
    cs = np.stack([problems[k].objective for k in warm])
    y = np.concatenate([np.ones((len(warm), 1)), np.stack([starts[k] for k in warm])], axis=1)
    # X starts at trace 1 + ||c||, the size of a dual with <X, F_i> = c_i
    trace = np.array([1.0 + float(np.linalg.norm(c)) for c in cs])
    b = np.concatenate([np.zeros((len(warm), 1)), -cs], axis=1)
    outcomes = _in_chunks(lambda chunk, *rows: _interior_point(chunk, *rows, settings),
                          [programs[k] for k in warm], False, b, y, trace, np.full(len(warm), np.inf))
    for k, c, outcome in zip(warm, cs, outcomes):
        solutions[k] = _optimization_solution(programs[k], c, outcome, steps[k], settings)
    return solutions


def _cold_start_failure(blocks, phase1: SdpSolution) -> SdpSolution | None:
    """The solution of a cold start whose feasibility phase found no
    interior point; None when it found one."""
    if phase1.status == NUMERICAL_FAILURE:
        return SdpSolution(status=NUMERICAL_FAILURE, message=f"feasibility phase stalled: {phase1.message}",
                           newton_steps=phase1.newton_steps)
    if phase1.value > 1e-9 * (1.0 + max(float(np.max(np.abs(b.constant))) for b in blocks)):
        return None
    if phase1.dual_certificate is not None:
        return SdpSolution(status=INFEASIBLE, value=phase1.value, dual_certificate=phase1.dual_certificate,
                           newton_steps=phase1.newton_steps)
    return SdpSolution(status=NUMERICAL_FAILURE, value=phase1.value, newton_steps=phase1.newton_steps,
                       message="marginally feasible problem: no interior point and no certificate")


def _optimization_solution(blocks, c, outcome, steps: int, settings: SdpSettings) -> SdpSolution:
    """The solution of one program from its outcome of the optimization
    phase, after `steps` iterations of its feasibility phase."""
    y, duals, iterations, reason = outcome
    steps += iterations
    if reason is not None:
        return SdpSolution(status=NUMERICAL_FAILURE, newton_steps=steps, message=reason)
    x = y[1:]
    value = float(c @ x)
    duals = _onto_constraints(blocks, c, duals)
    raw_bound = -sum(float(np.vdot(Z, b.constant).real) for Z, b in zip(duals, blocks))
    # The duals are feasible to rounding, so the raw bound may overshoot the
    # value by a gap-tolerance amount; more than that is a genuine failure.
    # The reported bound is clamped so the weak-duality direction always
    # holds for consumers.
    failure = None
    if raw_bound > value + settings.gap_tol * (1.0 + abs(value)):
        failure = f"weak duality violated: bound {raw_bound!r} above value {value!r}"
    elif value - raw_bound > 10.0 * settings.gap_tol * (1.0 + abs(value)):
        failure = f"duality gap {value - raw_bound:.3e} exceeds tolerance"
    if failure is not None:
        return SdpSolution(status=NUMERICAL_FAILURE, value=value, x=x, newton_steps=steps, message=failure)
    return SdpSolution(status=OPTIMAL, value=value, x=x, dual_blocks=duals, dual_bound=min(raw_bound, value),
                       newton_steps=steps)


def _onto_constraints(blocks, c, duals) -> list:
    """The duals moved onto sum_k <Z_k, F_ki> = c_i, which the loop meets
    only to its tolerance, by the least change in the metric of X:
    Z_k + sum_i v_i Z_k F_ki Z_k = Z^1/2 (I + E) Z^1/2 with ||E||_F^2 = v.M v.
    The move is taken only well inside the Dikin ellipsoid (v.M v <= 1/4),
    where it keeps every Z_k positive definite."""
    m = len(c)
    if not m:
        return duals
    ZFZ = [Z @ b.coefficients @ Z for Z, b in zip(duals, blocks)]
    r = sum((b.coefficients.reshape(m, -1).conj() @ Z.ravel()).real for Z, b in zip(duals, blocks)) - c
    M = sum((b.coefficients.reshape(m, -1).conj() @ W.reshape(m, -1).T).real for W, b in zip(ZFZ, blocks))
    try:
        v = np.linalg.solve(M, -r)
    except np.linalg.LinAlgError:
        return duals
    if not v @ M @ v <= 0.25:
        return duals
    return [hermitian_part(Z + np.tensordot(v, W, axes=(0, 0))) for Z, W in zip(duals, ZFZ)]

