"""SDP engine checks against independent oracles.

Oracles used here: a closed-form determinant analysis for the 2x2 example,
bisection on the minimum eigenvalue for one-variable problems, and a scalar
interval intersection for the interpolation block family.  The one
interior-point loop is held to its iteration count (the log-det barrier it
replaced took about five times as many steps in the feasibility phase and
9 to 35 steps per solve on extension faces), to an interior returned
point, and to the capped slack when the slack is unbounded.  Two blocks
with exactly negated coefficients bound the slack below the cap: on
F0_1 + x I and F0_2 - x I it is the closed form (lam_min(F0_1) +
lam_min(F0_2)) / 2, feasible or certified infeasible.  Blocks have
one checked constructor, and an unbounded program (the package poses none)
ends NUMERICAL_FAILURE, reporting the steps of both of its phases.  The
optimization phase's duals must meet the KKT conditions, and the
constraints to rounding.  Facial reduction is pinned on seeded systems
that used to fail: a set known to be nonempty must never be rejected, and
the face's interior point must satisfy the original constraints.  A round whose least-norm
point is interior runs no face search; one whose least-norm point is
singular still does.  A program solved in a batch, of either phase, must
equal its solo run bit for bit, whatever the batch and its chunks.
Programs that mix block dimensions (padded to one stack) match their direct
sum as one block, and their duals and certificates keep the blocks' own
shapes and pass the checks against the unpadded blocks.  The
loop's LAPACK kernels must equal numpy.linalg bit for bit and flag (with
NaN) exactly the matrices numpy.linalg rejects; a kernel failure in one row
fails only that program, and the loop makes a fixed number of kernel calls
per pass and calls no numpy.linalg wrapper.
"""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab import (
    MatrixStarAlgebra,
    OperatorSubspace,
    StateFunctional,
    extension_interval,
    limits,
    sdp,
    spectrahedron,
    states,
)
from opsyslab.errors import InputError
from opsyslab.hermitian import eigh, is_psd

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E12_SYM = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
E12_ANTI = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def det_oracle_min_c0() -> float:
    # minimize c0 with [[c0 - 1, w], [conj(w), c0]] >= 0, w = u + iv:
    # needs c0 >= 1 and (c0 - 1) c0 >= |w|^2; minimum at c0 = 1, w = 0.
    best = np.inf
    for c0 in np.linspace(0.0, 3.0, 3001):
        if c0 - 1.0 >= 0 and (c0 - 1.0) * c0 >= 0.0:
            best = min(best, c0)
    return float(best)


def test_solve_unit_extension_example():
    blocks = [sdp.LmiBlock(-E11, [I2, E12_SYM, E12_ANTI])]
    prob = sdp.SdpProblem(objective=np.array([1.0, 0.0, 0.0]), blocks=blocks)
    sol = sdp.solve(prob)
    assert sol.status == sdp.OPTIMAL
    assert sol.value == pytest.approx(det_oracle_min_c0(), abs=1e-6)
    assert sol.dual_bound <= sol.value + 1e-9 * (1 + abs(sol.value))


def test_solve_lambda_max():
    blocks = [sdp.LmiBlock(-np.diag([1.0, 5.0]).astype(complex), [I2])]
    prob = sdp.SdpProblem(objective=np.array([1.0]), blocks=blocks)
    sol = sdp.solve(prob)
    assert sol.status == sdp.OPTIMAL
    assert sol.value == pytest.approx(5.0, abs=1e-6)


def diagonal_cage_blocks():
    # b' diagonal with b' >= [[0,2],[2,0]], b' <= diag(1,5), ||b'|| <= 2.
    a = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    b = np.diag([1.0, 5.0]).astype(complex)
    d1 = np.diag([1.0, 0.0]).astype(complex)
    d2 = np.diag([0.0, 1.0]).astype(complex)
    return [
        sdp.LmiBlock(-a, [d1, d2]),
        sdp.LmiBlock(b, [-d1, -d2]),
        sdp.LmiBlock(2 * I2, [-d1, -d2]),
        sdp.LmiBlock(2 * I2, [d1, d2]),
    ]


def test_infeasible_diagonal_cage():
    blocks = diagonal_cage_blocks()
    sol = sdp.check_feasibility(blocks)
    assert sol.status == sdp.INFEASIBLE
    assert sol.value <= 0
    Z = sol.dual_certificate
    assert Z is not None
    for Zk in Z:
        assert is_psd(Zk, 1e-7)
    for i in range(2):
        resid = sum(np.vdot(Zk, blk.coefficients[i]).real for Zk, blk in zip(Z, blocks))
        assert abs(resid) <= 1e-7 * 6
    neg = sum(np.vdot(Zk, blk.constant).real for Zk, blk in zip(Z, blocks))
    assert neg < -1e-9


def test_check_feasibility_trivial():
    blk = sdp.LmiBlock(I2, [np.zeros((2, 2), dtype=complex)])
    sol = sdp.check_feasibility([blk])
    assert sol.value > 0
    assert sol.value == pytest.approx(1.0, abs=1e-6)


def test_check_feasibility_constant_infeasible():
    blk = sdp.LmiBlock(-I2, [])
    sol = sdp.check_feasibility([blk])
    assert sol.status == sdp.INFEASIBLE
    assert sol.value == pytest.approx(-1.0, abs=1e-6)
    (Z,) = sol.dual_certificate
    assert np.vdot(Z, -I2).real < -1e-9


def riesz_style_blocks(seed: int):
    # The blocks of one Riesz interpolation step over full M3: norm cap on
    # both sides, two lower and two upper bounds around a random a.
    rng = np.random.default_rng(seed)
    hb = hermitian_units(3)
    eye = np.eye(3, dtype=complex)
    a = unit_norm_hermitian(rng, 3)
    blocks = [sdp.LmiBlock(1.5 * eye, [-h for h in hb]), sdp.LmiBlock(1.5 * eye, hb)]
    for _ in range(2):
        lower = a - rng.uniform(0.05, 0.5) * eye + 0.1 * unit_norm_hermitian(rng, 3)
        upper = a + rng.uniform(0.05, 0.5) * eye + 0.1 * unit_norm_hermitian(rng, 3)
        blocks.append(sdp.LmiBlock(-lower, hb))
        blocks.append(sdp.LmiBlock(upper, [-h for h in hb]))
    return blocks


@pytest.mark.parametrize(
    "make", [diagonal_cage_blocks, lambda: riesz_style_blocks(11)], ids=["cage", "riesz"]
)
def test_feasibility_phase_iteration_count(make):
    # The log-det barrier took 49 Newton steps on the cage; the primal-dual
    # phase needs about ten iterations.
    blocks = make()
    sol = sdp.check_feasibility(blocks)
    assert sol.status in (sdp.OPTIMAL, sdp.INFEASIBLE)
    assert 0 < sol.newton_steps <= 25
    if sol.value > 0:
        slack = min(eigh(b.slack(sol.x)).eigenvalues[0] for b in blocks)
        assert slack >= sol.value


def test_capped_slack_is_feasible_without_certificate():
    # diag(1, -2) + x I has unbounded slack, so the cap s_cap = 10 (1 + 2)
    # binds; the dual is then forced to zero on the block.
    blk = sdp.LmiBlock(np.diag([1.0, -2.0]), [I2])
    sol = sdp.check_feasibility([blk])
    assert sol.status == sdp.OPTIMAL and sol.value > 0
    assert sol.value == pytest.approx(30.0, abs=1e-6 * 30.0)
    assert sol.dual_certificate is None


def opposite_pair(rng, shift, d=3):
    """F0_1 + x I and F0_2 - x I with F0_k near shift I: the minimum slack
    min(lam_min(F0_1) + x, lam_min(F0_2) - x) is largest at the closed form
    (lam_min(F0_1) + lam_min(F0_2)) / 2, and the pair bounds it."""
    eye = np.eye(d, dtype=complex)
    return [sdp.LmiBlock(shift * eye + unit_norm_hermitian(rng, d), [sign * eye]) for sign in (1.0, -1.0)]


def pair_oracle(blocks) -> float:
    return sum(np.linalg.eigvalsh(b.constant)[0] for b in blocks) / 2.0


@pytest.mark.parametrize("shift, status", [(1.5, sdp.OPTIMAL), (-1.5, sdp.INFEASIBLE)])
def test_opposite_pair_bounds_the_slack_below_the_cap(shift, status):
    blocks = opposite_pair(np.random.default_rng(41), shift)
    sol = sdp.check_feasibility(blocks)
    assert sol.status == status
    assert sol.value == pytest.approx(pair_oracle(blocks), abs=sdp.DEFAULT_SETTINGS.gap_tol)
    if status == sdp.INFEASIBLE:
        assert len(sol.dual_certificate) == 2
        assert sdp.verify_certificate(blocks, sol.dual_certificate)
    else:
        assert min(np.linalg.eigvalsh(b.slack(sol.x))[0] for b in blocks) >= sol.value


def test_batch_of_paired_and_capped_programs_equals_solo_runs():
    # The same constants with +I in both blocks have unbounded slack: the cap binds.
    rng = np.random.default_rng(42)
    paired = [opposite_pair(rng, shift) for shift in (1.5, -1.5, 0.5)]
    capped = [[sdp.LmiBlock(b.constant, [np.eye(3)]) for b in p] for p in paired]
    programs = [paired[0], capped[0], capped[1], paired[1], capped[2], paired[2]]
    solo = [sdp.check_feasibility(p) for p in programs]
    for p, sol in zip(programs, solo):
        if p in capped:
            cap = 10.0 * (1.0 + max(np.abs(b.constant).max() for b in p))
            assert sol.status == sdp.OPTIMAL and sol.value == pytest.approx(cap, rel=1e-6)
        else:
            assert sol.value == pytest.approx(pair_oracle(p), abs=sdp.DEFAULT_SETTINGS.gap_tol)
    assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs), solo))
    assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs[::-1])[::-1], solo))


def scalar_interpolation_blocks(n: int):
    # B = span{I} in M2, a = diag(0,1), l = 0, u = I, eps = 1: find c with
    # cI + I/n >= 0, I + I/n - cI >= 0, (1 + 1/n) I +- cI >= 0.
    one = np.eye(2, dtype=complex)
    return [
        sdp.LmiBlock(one / n, [one]),
        sdp.LmiBlock(one * (1 + 1 / n), [-one]),
        sdp.LmiBlock(one * (1 + 1 / n), [-one]),
        sdp.LmiBlock(one * (1 + 1 / n), [one]),
    ]


def scalar_interval_oracle(n: int) -> float:
    # maximize min(c + 1/n, 1 + 1/n - c, 1 + 1/n - c, 1 + 1/n + c) over c.
    grid = np.linspace(-2.0, 2.0, 400001)
    vals = np.minimum.reduce(
        [grid + 1 / n, 1 + 1 / n - grid, 1 + 1 / n - grid, 1 + 1 / n + grid]
    )
    return float(np.max(vals))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_interpolation_blocks_feasible_with_margin(n):
    sol = sdp.check_feasibility(scalar_interpolation_blocks(n))
    assert sol.value > 1.0 / n
    assert sol.value == pytest.approx(scalar_interval_oracle(n), abs=1e-5)


def bisection_boundary(F0, F1, lo, hi, tol=1e-10):
    # smallest x in [lo, hi] with F0 + x F1 >= 0, assuming hi side feasible.
    for _ in range(200):
        mid = (lo + hi) / 2
        if eigh(F0 + mid * F1).eigenvalues[0] >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


@pytest.mark.parametrize("seed", range(6))
def test_one_variable_matches_bisection(seed):
    rng = np.random.default_rng(1000 + seed)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    F1 = np.eye(3, dtype=complex)
    F0 = (raw + raw.conj().T) / 2
    # minimize x with F0 + x I >= 0: optimum is -lambda_min(F0).
    prob = sdp.SdpProblem(objective=np.array([1.0]), blocks=[sdp.LmiBlock(F0, [F1])])
    sol = sdp.solve(prob)
    assert sol.status == sdp.OPTIMAL
    oracle = bisection_boundary(F0, F1, -100.0, 100.0)
    assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_unbounded_detected(monkeypatch):
    # minimize -x with [[x]] >= 0 has value -inf along the ray d = 1.  No
    # program the package poses is unbounded, so the runaway is a failure.
    steps = []
    interior_point = sdp._interior_point

    def counted_interior_point(*args, **kwargs):
        result = interior_point(*args, **kwargs)
        steps.extend(iterations for _, _, iterations, _ in result)
        return result

    monkeypatch.setattr(sdp, "_interior_point", counted_interior_point)
    blk = sdp.LmiBlock(np.zeros((1, 1), dtype=complex), [np.eye(1, dtype=complex)])
    prob = sdp.SdpProblem(objective=np.array([-1.0]), blocks=[blk])
    sol = sdp.solve(prob)
    assert sol.status == sdp.NUMERICAL_FAILURE
    assert sol.message == f"objective fell below -{sdp.UNBOUNDED_VALUE:g} (1 + ||c||)"
    # cold start and optimization phase: every step is reported
    assert len(steps) == 2
    assert sol.newton_steps == sum(steps) > 0


def test_a_bounded_program_with_a_large_objective_is_optimal():
    # minimize 1e12 x over -1 <= x <= 1: the value -1e12 is past the old
    # absolute bound 1e9, but the runaway guard reads in the objective's units.
    blocks = [sdp.LmiBlock(I2[:1, :1], [I2[:1, :1]]), sdp.LmiBlock(I2[:1, :1], [-I2[:1, :1]])]
    sol = sdp.solve(sdp.SdpProblem(objective=np.array([1e12]), blocks=blocks), x0=np.zeros(1))
    assert sol.status == sdp.OPTIMAL
    assert sol.value == pytest.approx(-1e12, rel=sdp.DEFAULT_SETTINGS.gap_tol)


def test_solve_with_warm_start_skips_phase1():
    blocks = [sdp.LmiBlock(-E11, [I2, E12_SYM, E12_ANTI])]
    prob = sdp.SdpProblem(objective=np.array([1.0, 0.0, 0.0]), blocks=blocks)
    sol = sdp.solve(prob, x0=np.array([5.0, 0.0, 0.0]))
    assert sol.status == sdp.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("x0", [[0.5], [np.nan], [np.inf]])
def test_warm_start_must_be_strictly_feasible(x0):
    # minimize x with diag(x - 1, x) >= 0; a NaN start used to pass the
    # Cholesky test (it does not raise on NaN) and fail inside the loop.
    blk = sdp.LmiBlock(-E11, [I2])
    with pytest.raises(InputError, match="not strictly feasible"):
        sdp.solve(sdp.SdpProblem(objective=np.array([1.0]), blocks=[blk]), x0=np.array(x0))


def test_determinism():
    blocks = [sdp.LmiBlock(-E11, [I2, E12_SYM, E12_ANTI])]
    prob = sdp.SdpProblem(objective=np.array([1.0, 0.0, 0.0]), blocks=blocks)
    s1 = sdp.solve(prob)
    s2 = sdp.solve(prob)
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)


def test_block_validation():
    nan, inf = np.diag([np.nan, 1.0]), np.diag([1.0, np.inf])
    for constant, coefficients, message in [
        (np.array([[np.nan]]), [], "finite"),
        (nan, [I2], "finite"),
        (-inf, [I2], "finite"),
        (I2, [nan], "finite"),
        (I2, [E11, inf], "finite"),
        (np.zeros((2, 3)), [], "square"),
        (np.eye(65), [], "dimension 65 exceeds the supported maximum 64"),
        (I2, [np.eye(3)], "match the constant's shape"),
        (I2, [E11, np.ones(2)], "match the constant's shape"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [], "not hermitian"),
        (I2, [E11, np.array([[0.0, 1.0], [0.0, 0.0]])], "not hermitian"),
    ]:
        with pytest.raises(InputError, match=message):
            sdp.LmiBlock(constant, coefficients)
    with pytest.raises(InputError, match="at least one LMI block"):
        sdp.SdpProblem(objective=np.array([1.0]), blocks=[])
    # A block without variables is a constant inequality.
    blk = sdp.LmiBlock(-I2, [])
    assert (blk.dim, blk.num_vars, blk.coefficients.shape) == (2, 0, (0, 2, 2))
    # A block keeps its own read-only copy of its input.
    constant, coefficient = np.diag([1.0, 2.0]), E12_SYM.copy()
    blk = sdp.LmiBlock(constant, [coefficient])
    constant[0, 0] = coefficient[0, 1] = 7.0
    assert np.array_equal(blk.constant, np.diag([1.0, 2.0])) and np.array_equal(blk.coefficients[0], E12_SYM)
    assert not (blk.constant.flags.writeable or blk.coefficients.flags.writeable)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_objective_must_be_finite(entry):
    # It used to end NUMERICAL_FAILURE, "interior-point step is not finite".
    with pytest.raises(InputError, match="objective entries must be finite"):
        sdp.SdpProblem(objective=np.array([entry]), blocks=[sdp.LmiBlock(-E11, [I2])])


def unit_matrix(n, i, j):
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def hermitian_units(n):
    """E_ii, E_ij + E_ji, i(E_ij - E_ji): a hermitian basis of M_n."""
    out = [unit_matrix(n, i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append(unit_matrix(n, i, j) + unit_matrix(n, j, i))
            out.append(1j * unit_matrix(n, i, j) - 1j * unit_matrix(n, j, i))
    return out


def unit_norm_hermitian(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (G + G.conj().T) / 2.0
    return H / np.linalg.norm(H, 2)


def density_of_rank(rng, n, rank):
    V = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    D = V @ V.conj().T
    return D / np.trace(D).real


def random_blocks(rng, dims, m):
    return [
        sdp.LmiBlock(2.0 * np.eye(d) + 0.3 * unit_norm_hermitian(rng, d),
                     [unit_norm_hermitian(rng, d) for _ in range(m)])
        for d in dims
    ]


@pytest.mark.parametrize("seed", range(4))
def test_optimization_phase_meets_kkt(seed):
    # Blocks of size 2, 3 and 2, padded to one stack: the duals are PSD,
    # meet sum_k <Z_k, F_ki> = c_i, and close the gap to the value.
    rng = np.random.default_rng(100 + seed)
    m = 3
    blocks = random_blocks(rng, (2, 3, 2), m)
    c = rng.standard_normal(m)
    sol = sdp.solve(sdp.SdpProblem(objective=c, blocks=blocks), x0=np.zeros(m))
    assert sol.status == sdp.OPTIMAL
    settings = sdp.DEFAULT_SETTINGS
    for Z in sol.dual_blocks:
        ev = np.linalg.eigvalsh(Z)
        assert ev[0] >= -settings.psd_slack * (1.0 + np.abs(ev).max())
    pairing = [sum(np.vdot(Z, b.coefficients[i]).real for Z, b in zip(sol.dual_blocks, blocks)) for i in range(m)]
    assert np.allclose(pairing, c, rtol=0.0, atol=settings.gap_tol)
    bound = -sum(np.vdot(Z, b.constant).real for Z, b in zip(sol.dual_blocks, blocks))
    assert sol.dual_bound <= sol.value
    assert sol.value - bound <= 10.0 * settings.gap_tol * (1.0 + abs(sol.value))
    slacks = [b.slack(sol.x) for b in blocks]
    assert sum(np.vdot(Z, S).real for Z, S in zip(sol.dual_blocks, slacks)) <= 10.0 * settings.gap_tol


@pytest.mark.parametrize("seed", range(4))
def test_solve_duals_are_feasible_to_rounding(seed):
    # sum_k <Z_k, F_ki> = c_i; the loop's X meets it only to its stopping
    # tolerance (2.6e-10 to 2.6e-9 on these problems), the move onto the
    # constraints to rounding.
    rng = np.random.default_rng(seed)
    m, d = 4, 3
    blocks = [
        sdp.LmiBlock(2.0 * np.eye(d) + 0.3 * unit_norm_hermitian(rng, d),
                     [unit_norm_hermitian(rng, d) for _ in range(m)])
        for _ in range(3)
    ]
    c = rng.standard_normal(m)
    sol = sdp.solve(sdp.SdpProblem(objective=c, blocks=blocks), x0=np.zeros(m))
    assert sol.status == sdp.OPTIMAL
    for i in range(m):
        pairing = sum(np.vdot(Z, b.coefficients[i]).real for Z, b in zip(sol.dual_blocks, blocks))
        assert abs(pairing - c[i]) <= 1e-12 * (1.0 + abs(c[i]))
    for Z in sol.dual_blocks:
        assert is_psd(Z, 1e-12)


def assert_interior_point_is_feasible(spec, constraints):
    X = spec.point(spec.z_interior)
    for A, b in constraints:
        assert abs(np.vdot(A, X).real - b) <= 1e-7
    assert is_psd(X, 1e-12)


# Seeds whose last centering used to stop off-centre, so that the harvested
# duals failed the gap check ("duality gap exceeds tolerance").
@pytest.mark.parametrize("seed", [5, 15, 16, 18, 19, 32, 57, 70, 84, 89])
def test_extension_interval_on_random_unital_systems(seed):
    rng = np.random.default_rng(seed)
    n = 3 + seed % 2
    rank = 1 + (seed // 2) % n
    extra = 1 + (seed // 2) % (n * n - 2)
    basis = [np.eye(n)] + [unit_norm_hermitian(rng, n) for _ in range(extra)]
    S = OperatorSubspace(basis, unital=True)
    phi = StateFunctional(density=density_of_rank(rng, n, rank), domain=S)
    t = unit_norm_hermitian(rng, n)
    interval = extension_interval(phi, t, MatrixStarAlgebra.full(n))
    assert interval.min <= interval.max + 1e-9
    # phi's own density is an extension, so the interval brackets its value.
    value = float(np.trace(phi.density @ t).real)
    assert interval.min - 1e-6 <= value <= interval.max + 1e-6


def identity_choi_constraints(S, n):
    """tr(A_j J) = b_j pinning a unital map's Choi matrix J to the identity on S."""
    out = [(np.kron(np.eye(n), U), float(np.trace(U).real)) for U in hermitian_units(n)]
    for s in S:
        for U in hermitian_units(n):
            A = np.kron(s.T, U)
            out.append(((A + A.conj().T) / 2.0, float(np.trace(s @ U).real)))
    return out


# Choi spectrahedra of random unital systems in M3: the identity map lies in
# each, on a flat face whose phase-one value is a hair below zero.  These
# seeds used to be rejected as "PSD face is empty (certified)".
@pytest.mark.parametrize("seed", [23, 29, 53, 161, 221, 239])
def test_flat_face_is_reduced_not_rejected(seed):
    rng = np.random.default_rng(seed)
    n = 3
    S = [np.eye(n, dtype=complex)] + [unit_norm_hermitian(rng, n) for _ in range(2)]
    constraints = identity_choi_constraints(S, n)
    omega = np.eye(n, dtype=complex).reshape(n * n)
    J = np.outer(omega, omega.conj())
    for A, b in constraints:
        assert abs(np.vdot(A, J).real - b) <= 1e-12
    spec = spectrahedron.reduce_spectrahedron(*zip(*constraints))
    V = spec.support
    assert V.shape[1] < n * n
    assert np.linalg.norm(V @ (V.conj().T @ J @ V) @ V.conj().T - J) <= 1e-6
    assert_interior_point_is_feasible(spec, constraints)


def count_face_searches(monkeypatch) -> list:
    """Record every feasibility program that facial reduction runs."""
    calls = []
    real = sdp.check_feasibility

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdp, "check_feasibility", spy)
    return calls


def test_extension_set_face_point_is_feasible(monkeypatch):
    # A state supported on span(e1, e2) that is 1 on the projection onto it:
    # every extension lives on that 2 x 2 corner, a proper face with interior.
    # The least-norm point of the unreduced set is not interior, so the face
    # search runs.
    rng = np.random.default_rng(7)
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = density_of_rank(rng, 2, 2)
    S = [np.eye(3), np.diag([1.0, 1.0, 0.0]), unit_norm_hermitian(rng, 3)]
    constraints = [(s, float(np.trace(s @ rho).real)) for s in S]
    calls = count_face_searches(monkeypatch)
    spec = spectrahedron.reduce_spectrahedron(*zip(*constraints))
    assert len(calls) >= 1
    assert spec.support.shape[1] == 2 and len(spec.dirs) > 0
    assert_interior_point_is_feasible(spec, constraints)


def test_full_rank_extension_set_skips_the_face_search(monkeypatch):
    # A full-rank state: the least-norm point of its extension set is well
    # inside the PSD cone, so no feasibility program runs.
    rng = np.random.default_rng(11)
    n = 3
    rho = density_of_rank(rng, n, n)
    S = [np.eye(n)] + [unit_norm_hermitian(rng, n) for _ in range(3)]
    constraints = [(s, float(np.trace(s @ rho).real)) for s in S]
    calls = count_face_searches(monkeypatch)
    spec = spectrahedron.reduce_spectrahedron(*zip(*constraints))
    assert calls == []
    assert spec.support.shape[1] == n and np.array_equal(spec.z_interior, np.zeros(len(spec.dirs)))
    scale = 1.0 + float(np.max(np.abs(spec.x0)))
    assert eigh(spec.point(spec.z_interior)).eigenvalues[0] > spectrahedron.FACE_TOL * scale
    assert_interior_point_is_feasible(spec, constraints)


def test_singular_least_norm_point_of_a_full_dimensional_set(monkeypatch):
    # tr Y = 1 and tr(diag(1, -1, 0) Y) = 2/3: the least-norm point
    # diag(2/3, 0, 1/3) is singular, yet diag(0.8, 2/15, 1/15) is interior,
    # so one face search must supply the interior point.
    constraints = [(np.eye(3), 1.0), (np.diag([1.0, -1.0, 0.0]), 2.0 / 3.0)]
    calls = count_face_searches(monkeypatch)
    spec = spectrahedron.reduce_spectrahedron(*zip(*constraints))
    assert len(calls) == 1
    assert np.allclose(spec.x0, np.diag([2.0 / 3.0, 0.0, 1.0 / 3.0]), atol=1e-12)
    assert spec.support.shape[1] == 3
    assert np.linalg.norm(spec.z_interior) > 0
    assert eigh(spec.point(spec.z_interior)).eigenvalues[0] > spectrahedron.FACE_TOL
    assert_interior_point_is_feasible(spec, constraints)


def record_face_searches(monkeypatch) -> list:
    """(blocks, interior threshold, solution) of every face search."""
    calls = []
    real = sdp.check_feasibility

    def spy(blocks, settings=sdp.DEFAULT_SETTINGS, interior=None):
        sol = real(blocks, settings, interior)
        calls.append((blocks, interior, sol))
        return sol

    monkeypatch.setattr(sdp, "check_feasibility", spy)
    return calls


def min_slack(blocks, x) -> float:
    return min(float(np.linalg.eigvalsh(b.slack(x))[0]) for b in blocks)


def test_an_interior_point_search_stops_at_its_threshold(monkeypatch):
    # The face search of a full-dimensional set with a singular least-norm
    # point asks only for slack above FACE_TOL scale: it returns a point
    # that clears it, in fewer steps than the max-slack solve of its block.
    calls = record_face_searches(monkeypatch)
    spec = spectrahedron.reduce_spectrahedron(np.array([np.eye(3), np.diag([1.0, -1.0, 0.0])]),
                                              np.array([1.0, 2.0 / 3.0]))
    (blocks, interior, sol), = calls
    assert interior == spectrahedron.FACE_TOL * (1.0 + float(np.max(np.abs(spec.x0))))
    monkeypatch.undo()
    full = sdp.check_feasibility(blocks)
    assert sol.status == full.status == sdp.OPTIMAL
    assert interior < sol.value < full.value
    assert min_slack(blocks, sol.x) > interior and np.array_equal(spec.z_interior, sol.x)
    assert sol.newton_steps < full.newton_steps
    # the same stop for a feasibility program of the order workload's shape
    program = riesz_batch()[0]
    threshold = 1e-9 * (1.0 + max(float(np.max(np.abs(b.constant))) for b in program))
    early, full = sdp.check_feasibility(program, interior=threshold), sdp.check_feasibility(program)
    assert early.value > threshold and min_slack(program, early.x) > threshold
    assert early.newton_steps < full.newton_steps


@pytest.mark.parametrize("scale", [1.0, 1e-12, 2.0**-600])
def test_a_scaled_system_has_the_face_of_its_unit_multiple(scale):
    # The rank cut and the consistency test are relative to the system, with
    # no absolute floor: tr(s A_j Y) = s b_j is the set of tr(A_j Y) = b_j.
    mats = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    spec = spectrahedron.reduce_spectrahedron(scale * mats, scale * np.array([1.0, 0.4]))
    assert spec.x0 == pytest.approx(np.diag([0.7, 0.3]), abs=1e-15) and len(spec.dirs) == 2
    with pytest.raises(spectrahedron.SpectrahedronInfeasible, match="inconsistent"):
        spectrahedron.reduce_spectrahedron(scale * mats[[0, 0]], scale * np.array([1.0, 2.0]))


@pytest.mark.parametrize("seed", [23, 53])
def test_flat_and_empty_searches_keep_the_bits_of_the_converged_run(monkeypatch, seed):
    # A flat face never shows slack above its threshold, so its search runs
    # to the gap tolerance: the dual whose kernel is the next support is
    # the converged one, bit for bit.  So is a certified-empty program's.
    rng = np.random.default_rng(seed)
    S = [np.eye(3, dtype=complex)] + [unit_norm_hermitian(rng, 3) for _ in range(2)]
    mats, rhs = (np.array(v) for v in zip(*identity_choi_constraints(S, 3)))
    calls = record_face_searches(monkeypatch)
    spectrahedron.reduce_spectrahedron(mats, rhs)
    monkeypatch.undo()
    flat = [(blocks, sol) for blocks, interior, sol in calls if sol.value <= interior]
    assert flat
    assert all(same_bits(sol, sdp.check_feasibility(blocks)) for blocks, sol in flat)
    empty = riesz_batch()[2]
    assert sdp.check_feasibility(empty).status == sdp.INFEASIBLE
    assert same_bits(sdp.check_feasibility(empty, interior=1e-7), sdp.check_feasibility(empty))


def test_a_mixed_batch_of_thresholds_equals_its_solo_runs(monkeypatch):
    # Max-slack members (inf) beside interior-point members: each row stops
    # by its own test, so each member has the bits it gets alone.  The
    # scaled member, whose max-slack solve stalls, stops at its threshold
    # first; the infeasible one never reaches it.
    programs = riesz_batch()
    thresholds = [1e-9, np.inf, 1e-7, 1e-9, 1e-3, np.inf]
    solo = [sdp.check_feasibility(p, interior=t) for p, t in zip(programs, thresholds)]
    assert [s.status for s in solo] == [sdp.OPTIMAL] * 2 + [sdp.INFEASIBLE] + [sdp.OPTIMAL] * 3
    assert solo[0].newton_steps < sdp.check_feasibility(programs[0]).newton_steps
    assert same_bits(solo[1], sdp.check_feasibility(programs[1]))
    assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs, interior=thresholds), solo))
    reordered = sdp.check_feasibility_batch(programs[::-1], interior=thresholds[::-1])[::-1]
    assert all(same_bits(b, s) for b, s in zip(reordered, solo))
    monkeypatch.setattr(limits, "BLOCK_ENTRIES", 1)  # one program per chunk
    assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs, interior=thresholds), solo))
    with pytest.raises(InputError, match="one interior threshold per program"):
        sdp.check_feasibility_batch(programs, interior=thresholds[:2])


def test_a_max_slack_batch_is_the_batch_with_every_threshold_inf():
    # No threshold is no separate path: every row of the loop carries one,
    # inf for a program that wants its optimum.
    programs = riesz_batch()
    batch = sdp.check_feasibility_batch(programs, interior=None)
    inf = sdp.check_feasibility_batch(programs, interior=[np.inf] * len(programs))
    solo = [sdp.check_feasibility(p) for p in programs]
    assert all(same_bits(b, i) and same_bits(b, s) for b, i, s in zip(batch, inf, solo))


def test_linear_range_bounds_the_extremes_on_the_face():
    rng = np.random.default_rng(71)
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = density_of_rank(rng, 2, 2)
    S = [np.eye(3), np.diag([1.0, 1.0, 0.0])]
    spec = spectrahedron.reduce_spectrahedron(S, [float(np.trace(s @ rho).real) for s in S])
    Cs = np.stack([unit_norm_hermitian(rng, 3) for _ in range(4)] + [np.diag([0.0, 0.0, 1.0])])
    values, bounds = spec.linear_range(Cs)
    for C, value, bound in zip(Cs, values, bounds):
        (hi, _), (neg_lo, _) = spectrahedron.optimize_linear(spec, np.stack([C, -C]))
        lo = -neg_lo
        assert lo - 1e-7 <= value <= hi + 1e-7
        assert hi - lo <= bound + 1e-7
    assert bounds[-1] <= 1e-12 < bounds[:-1].min()


def test_linear_range_needs_traceless_directions():
    spec = spectrahedron.ReducedSpectrahedron(
        x0=np.eye(2, dtype=complex) / 2, dirs=[np.diag([1.0, 0.0]).astype(complex)],
        support=np.eye(2, dtype=complex), z_interior=np.zeros(1))
    _, bounds = spec.linear_range(np.stack([np.eye(2, dtype=complex)]))
    assert np.isinf(bounds).all()


def test_inconsistent_unreduced_system_is_infeasible():
    # tr X = 1 and tr X = 2: a certified "no", an input error (CLI exit 2).
    constraints = [(np.eye(2), 1.0), (np.eye(2), 2.0)]
    with pytest.raises(spectrahedron.SpectrahedronInfeasible) as info:
        spectrahedron.reduce_spectrahedron(*zip(*constraints))
    assert isinstance(info.value, InputError)


def riesz_program(hb, a, lower, upper, n, scale=1.0):
    """The feasibility program of beta_n (epsilon = 1/2), all matrices times
    `scale`: one member of the batch `riesz_sequence` solves."""
    eye = np.eye(a.shape[0], dtype=complex)
    cap = (1.0 + 0.5 / n) * np.linalg.norm(a, 2)
    blocks = [
        sdp.LmiBlock(cap * eye, [-h for h in hb]),
        sdp.LmiBlock(cap * eye, hb),
        sdp.LmiBlock(eye / n - lower, hb),
        sdp.LmiBlock(upper + eye / n, [-h for h in hb]),
    ]
    return [sdp.LmiBlock(scale * b.constant, scale * b.coefficients) for b in blocks]


def riesz_batch():
    """Four consistent members, one with inconsistent bounds (infeasible,
    certified) and one scaled by 1e12, on which the interior-point method
    loses definiteness."""
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    B = MatrixStarAlgebra.from_basis([U @ m @ U.conj().T for m in (
        np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]),
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]]),
    )])
    hb = list(B.hermitian_basis())
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (raw + raw.conj().T) / 2
    # bounds in B on either side of a, as the order workload draws them
    h_lo, h_up = (sum(c * h for c, h in zip(rng.standard_normal(len(hb)), hb)) for _ in range(2))
    lower = h_lo - (np.linalg.eigvalsh(h_lo - a)[-1] + 0.1) * np.eye(3)
    upper = h_up + (np.linalg.eigvalsh(a - h_up)[-1] + 0.2) * np.eye(3)
    programs = [riesz_program(hb, a, lower, upper, n) for n in range(1, 5)]
    programs.insert(2, riesz_program(hb, a, a + 3 * np.eye(3), a - 3 * np.eye(3), 1))
    programs.insert(4, riesz_program(hb, a, lower, upper, 2, scale=1e12))
    return programs


def same_bits(a: sdp.SdpSolution, b: sdp.SdpSolution) -> bool:
    def arrays(sol):
        mats = [np.float64(sol.value), sol.x] + list(sol.dual_blocks or []) + list(sol.dual_certificate or [])
        return [None if v is None else np.asarray(v).tobytes() for v in mats]

    return (
        (a.status, a.newton_steps, a.message, a.dual_certificate is None)
        == (b.status, b.newton_steps, b.message, b.dual_certificate is None)
        and arrays(a) == arrays(b)
    )


def test_batch_members_equal_their_solo_runs():
    programs = riesz_batch()
    solo = [sdp.check_feasibility(p) for p in programs]
    statuses = [s.status for s in solo]
    assert statuses == [sdp.OPTIMAL] * 2 + [sdp.INFEASIBLE, sdp.OPTIMAL, sdp.NUMERICAL_FAILURE, sdp.OPTIMAL]
    assert solo[2].dual_certificate is not None
    assert solo[4].message.endswith("lost definiteness")
    batch = sdp.check_feasibility_batch(programs)
    assert all(same_bits(b, s) for b, s in zip(batch, solo))
    # a member's result does not depend on its batch or its place in it
    reordered = sdp.check_feasibility_batch(programs[::-1])[::-1]
    assert all(same_bits(b, s) for b, s in zip(reordered, solo))
    assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs[3:5]), solo[3:5]))


def test_batch_chunks_do_not_change_results(monkeypatch):
    programs = riesz_batch()
    whole = sdp.check_feasibility_batch(programs)
    monkeypatch.setattr(limits, "BLOCK_ENTRIES", 1)  # one program per chunk
    assert all(same_bits(a, b) for a, b in zip(sdp.check_feasibility_batch(programs), whole))


def test_batch_rejects_programs_of_different_shape():
    programs = riesz_batch()
    with pytest.raises(InputError, match="programs on block dimensions"):
        sdp.check_feasibility_batch([programs[0], programs[1][:3]])
    assert sdp.check_feasibility_batch([]) == []


def test_batch_ridge_rescues_only_the_singular_member():
    # x2 has no coefficient in the first program: its Schur matrix is
    # singular, and only that row is solved again with a ridge
    E = np.diag([1.0, 0.0]).astype(complex)
    singular = [sdp.LmiBlock(-E, [I2, np.zeros((2, 2), dtype=complex)])]
    regular = [sdp.LmiBlock(-E, [I2, E])]
    batch = sdp.check_feasibility_batch([singular, regular])
    assert [s.status for s in batch] == [sdp.OPTIMAL, sdp.OPTIMAL]
    assert batch[0].x[1] == 0.0
    assert all(same_bits(b, sdp.check_feasibility(p)) for b, p in zip(batch, [singular, regular]))


def test_solve_batch_members_equal_their_solo_runs(monkeypatch):
    # Cold starts (one infeasible with a certificate, one stalling in the
    # feasibility phase) and warm starts, with objectives of either sign.
    programs = riesz_batch()
    rng = np.random.default_rng(8)
    problems = [sdp.SdpProblem(objective=rng.standard_normal(p[0].num_vars), blocks=p) for p in programs]
    problems += [sdp.SdpProblem(objective=-p.objective, blocks=p.blocks) for p in problems[:2]]
    x0s = [None] * len(programs) + [sdp.check_feasibility(p).x for p in programs[:2]]
    solo = [sdp.solve(p, x0) for p, x0 in zip(problems, x0s)]
    assert [s.status for s in solo] == [sdp.OPTIMAL] * 2 + [
        sdp.INFEASIBLE, sdp.OPTIMAL, sdp.NUMERICAL_FAILURE, sdp.OPTIMAL, sdp.OPTIMAL, sdp.OPTIMAL]
    assert all(same_bits(b, s) for b, s in zip(sdp.solve_batch(problems, x0s), solo))
    reordered = sdp.solve_batch(problems[::-1], x0s[::-1])[::-1]
    assert all(same_bits(b, s) for b, s in zip(reordered, solo))
    monkeypatch.setattr(limits, "BLOCK_ENTRIES", 1)  # one program per chunk
    assert all(same_bits(b, s) for b, s in zip(sdp.solve_batch(problems, x0s), solo))


def mixed_blocks(rng, shift, m=3):
    """Blocks of dimension 1, 2 and 3 in m <= 3 variables, with constants
    near shift I.  The 2x2 block's coefficients are Pauli matrices, traceless
    and independent, so every direction leaves that block: the slack is
    bounded, and shift < 0 makes the program infeasible."""
    paulis = [E12_SYM, E12_ANTI, np.diag([1.0, -1.0]).astype(complex)]
    return [
        sdp.LmiBlock(shift + 0.3 * unit_norm_hermitian(rng, 1),
                     [unit_norm_hermitian(rng, 1) for _ in range(m)]),
        sdp.LmiBlock(shift * I2, paulis[:m]),
        sdp.LmiBlock(shift * np.eye(3) + 0.3 * unit_norm_hermitian(rng, 3),
                     [unit_norm_hermitian(rng, 3) for _ in range(m)]),
    ]


def direct_sum(blocks):
    """The blocks as the one block diag(F_1, .., F_k): the same feasible set
    and the same minimum slack, posed without mixing dimensions."""
    def diag(mats):
        out = np.zeros((sum(M.shape[0] for M in mats),) * 2, dtype=complex)
        start = 0
        for M in mats:
            out[start:start + M.shape[0], start:start + M.shape[0]] = M
            start += M.shape[0]
        return out

    return [sdp.LmiBlock(diag([b.constant for b in blocks]),
                         [diag([b.coefficients[i] for b in blocks]) for i in range(blocks[0].num_vars)])]


MIXED_SHAPES = [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("seed", range(3))
def test_mixed_dimension_feasibility_keeps_block_shapes(seed):
    # Blocks padded to one stack: the maximal minimum slack is that of the
    # direct sum, and the duals come back in the blocks' own shapes, PSD,
    # of total trace 1 and orthogonal to every coefficient.
    blocks = mixed_blocks(np.random.default_rng(200 + seed), 2.0)
    sol = sdp.check_feasibility(blocks)
    oracle = sdp.check_feasibility(direct_sum(blocks))
    assert sol.status == oracle.status == sdp.OPTIMAL and sol.value > 0
    tol = 10.0 * sdp.DEFAULT_SETTINGS.gap_tol * (1.0 + abs(oracle.value))
    assert abs(sol.value - oracle.value) <= tol
    assert min(np.linalg.eigvalsh(b.slack(sol.x))[0] for b in blocks) >= sol.value - tol
    assert [Z.shape for Z in sol.dual_blocks] == MIXED_SHAPES
    assert all(is_psd(Z, sdp.DEFAULT_SETTINGS.psd_slack) for Z in sol.dual_blocks)
    assert abs(sum(np.trace(Z).real for Z in sol.dual_blocks) - 1.0) <= 1e-12
    pairing = [sum(np.vdot(Z, b.coefficients[i]).real for Z, b in zip(sol.dual_blocks, blocks))
               for i in range(3)]
    assert np.allclose(pairing, 0.0, rtol=0.0, atol=tol)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_dimension_certificate_keeps_block_shapes(seed):
    # The padding is no part of a certificate: it comes back in the blocks'
    # own shapes and passes the Farkas check against the unpadded blocks.
    blocks = mixed_blocks(np.random.default_rng(300 + seed), -1.0)
    for sol in (sdp.check_feasibility(blocks), sdp.solve(sdp.SdpProblem(objective=np.ones(3), blocks=blocks))):
        assert sol.status == sdp.INFEASIBLE
        assert [Z.shape for Z in sol.dual_certificate] == MIXED_SHAPES
        assert sdp.verify_certificate(blocks, sol.dual_certificate)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_dimension_optimization_meets_weak_duality(seed):
    # The dual bound -sum_k <Z_k, F0_k> of padded blocks' duals lies below
    # c.x at every feasible x, within the gap tolerance of the value, and the
    # value is that of the direct sum.
    rng = np.random.default_rng(400 + seed)
    blocks = mixed_blocks(rng, 1.0)
    c = rng.standard_normal(3)
    sol = sdp.solve(sdp.SdpProblem(objective=c, blocks=blocks), x0=np.zeros(3))
    oracle = sdp.solve(sdp.SdpProblem(objective=c, blocks=direct_sum(blocks)), x0=np.zeros(3))
    assert sol.status == oracle.status == sdp.OPTIMAL
    tol = 10.0 * sdp.DEFAULT_SETTINGS.gap_tol * (1.0 + abs(sol.value))
    assert abs(sol.value - oracle.value) <= tol
    assert [Z.shape for Z in sol.dual_blocks] == MIXED_SHAPES
    bound = -sum(np.vdot(Z, b.constant).real for Z, b in zip(sol.dual_blocks, blocks))
    assert sol.dual_bound <= sol.value and sol.value - bound <= tol
    # feasible points on segments from the interior point 0 towards random directions
    for direction in rng.standard_normal((20, 3)):
        t = 1.0
        while min(np.linalg.eigvalsh(b.slack(t * direction))[0] for b in blocks) < 0.0:
            t /= 2.0
        assert c @ (t * direction) >= bound - 1e-12


def test_mixed_dimension_batch_members_equal_their_solo_runs(monkeypatch):
    # Feasible and infeasible programs with blocks of dimension 1, 2 and 3,
    # in either phase: each equals its solo run bit for bit, in any order
    # and any chunking.
    rng = np.random.default_rng(500)
    programs = [mixed_blocks(rng, shift) for shift in (1.0, -1.0, 0.5, 2.0, -0.2)]
    problems = [sdp.SdpProblem(objective=rng.standard_normal(3), blocks=p) for p in programs]
    x0s = [None] * len(programs) + [np.zeros(3), np.zeros(3)]
    problems += [sdp.SdpProblem(objective=rng.standard_normal(3), blocks=programs[k]) for k in (0, 3)]
    solo_feasibility = [sdp.check_feasibility(p) for p in programs]
    solo = [sdp.solve(p, x0) for p, x0 in zip(problems, x0s)]
    assert [s.status for s in solo_feasibility] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.OPTIMAL, sdp.OPTIMAL,
                                                    sdp.INFEASIBLE]
    assert [s.status for s in solo] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.OPTIMAL, sdp.OPTIMAL, sdp.INFEASIBLE,
                                        sdp.OPTIMAL, sdp.OPTIMAL]
    for _ in range(2):
        assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs), solo_feasibility))
        assert all(same_bits(b, s) for b, s in zip(sdp.check_feasibility_batch(programs[::-1])[::-1],
                                                   solo_feasibility))
        assert all(same_bits(b, s) for b, s in zip(sdp.solve_batch(problems, x0s), solo))
        assert all(same_bits(b, s) for b, s in zip(sdp.solve_batch(problems[::-1], x0s[::-1])[::-1], solo))
        monkeypatch.setattr(limits, "BLOCK_ENTRIES", 1)  # one program per chunk


@pytest.mark.parametrize("seed", [5, 15, 57, 84])
def test_optimization_iterations_on_extension_faces(seed):
    # The faces of extension sets, as `extension-interval` and `uep` solve
    # them: each program of a min/max batch stops within 25 iterations (the
    # barrier took 9 to 35 Newton steps per solve on such faces).
    rng = np.random.default_rng(seed)
    n = 3 + seed % 2
    basis = [np.eye(n)] + [unit_norm_hermitian(rng, n) for _ in range(1 + (seed // 2) % (n * n - 2))]
    S = OperatorSubspace(basis, unital=True)
    phi = StateFunctional(density=density_of_rank(rng, n, 1 + (seed // 2) % n), domain=S)
    spec, _, _ = states._extension_set(phi)
    block = spec.block
    objectives = [spec.compress(unit_norm_hermitian(rng, n)) for _ in range(3)]
    problems = [
        sdp.SdpProblem(objective=sign * np.array([np.vdot(C, N).real for N in spec.dirs]), blocks=[block])
        for C in objectives for sign in (1.0, -1.0)
    ]
    solutions = sdp.solve_batch(problems, [spec.z_interior] * len(problems))
    assert [s.status for s in solutions] == [sdp.OPTIMAL] * len(problems)
    assert max(s.newton_steps for s in solutions) <= 25


def hermitian_stack(rng, k, d):
    raw = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return raw + raw.conj().swapaxes(-1, -2)


def lapack(kernel, *stacks):
    with np.errstate(invalid="ignore"):
        return sdp._lapack(kernel, *stacks)


@pytest.mark.parametrize("d", range(1, 9))
def test_kernels_equal_numpy_linalg_bitwise(d):
    rng = np.random.default_rng(100 + d)
    H = hermitian_stack(rng, 6, d)
    pd = H @ H + np.eye(d)
    M = rng.standard_normal((6, d, d))
    v = rng.standard_normal((6, d))
    w, Q = lapack("eigh_lo", H)
    w_np, Q_np = np.linalg.eigh(H)
    assert w.tobytes() == w_np.tobytes() and Q.tobytes() == Q_np.tobytes()
    assert lapack("eigvalsh_lo", H).tobytes() == np.linalg.eigvalsh(H).tobytes()
    assert lapack("cholesky_lo", pd).tobytes() == np.linalg.cholesky(pd).tobytes()
    # the loop's old call: b as a stack of one-column matrices
    assert lapack("solve1", M, v).tobytes() == np.linalg.solve(M, v[..., None])[..., 0].tobytes()


def linalg_fails(fn, *row) -> bool:
    """Whether numpy.linalg raises on one matrix, or returns NaN itself."""
    try:
        return bool(np.isnan(fn(*row)[0]).any()) if fn is np.linalg.eigh else bool(np.isnan(fn(*row)).any())
    except np.linalg.LinAlgError:
        return True


def test_kernels_flag_exactly_the_rows_numpy_linalg_rejects():
    rng = np.random.default_rng(3)
    H = hermitian_stack(rng, 5, 3)
    pd = H @ H + np.eye(3)
    pd[1, 2, 2] = -1.0  # not positive definite
    pd[3, 0, 0] = np.nan
    H[3, 1, 1] = np.nan
    M = rng.standard_normal((5, 3, 3))
    M[1, :, 2] = M[1, :, 0]  # singular
    M[3, 0, 0] = np.nan
    v = rng.standard_normal((5, 3))
    cases = [
        ("cholesky_lo", np.linalg.cholesky, (pd,)),
        ("eigh_lo", np.linalg.eigh, (H,)),
        ("eigvalsh_lo", np.linalg.eigvalsh, (H,)),
        ("solve1", np.linalg.solve, (M, v)),
    ]
    for kernel, fn, stacks in cases:
        out = lapack(kernel, *stacks)
        first = out[0] if kernel == "eigh_lo" else out
        flagged = np.isnan(first.reshape(5, -1)).any(axis=1)
        expected = [linalg_fails(fn, *row) for row in zip(*stacks)]
        assert flagged.tolist() == expected, kernel
        assert flagged.any()
        for r in np.flatnonzero(~flagged):  # the other rows as if alone
            alone = fn(*(s[r] for s in stacks))
            assert np.asarray(first[r]).tobytes() == np.asarray(alone[0] if kernel == "eigh_lo" else alone).tobytes()


def nan_row_once(monkeypatch, kernel, row):
    """Make the first call of one kernel return NaN in one row, as a kernel
    does for a matrix it cannot handle."""
    inner, calls = sdp._lapack, []

    def patched(name, *stacks):
        out = inner(name, *stacks)
        if name == kernel and not calls:
            calls.append(name)
            for a in out if isinstance(out, tuple) else (out,):
                a[row] = np.nan
        return out

    monkeypatch.setattr(sdp, "_lapack", patched)


@pytest.mark.parametrize("kernel, message", [
    ("cholesky_lo", "primal iterate lost definiteness"),
    ("eigh_lo", "dual slack lost definiteness"),
    ("eigvalsh_lo", "interior-point step is not finite"),
])
def test_a_failed_kernel_row_fails_only_its_program(monkeypatch, kernel, message):
    programs = riesz_batch()
    solo = [sdp.check_feasibility(p) for p in programs]
    nan_row_once(monkeypatch, kernel, 1)
    batch = sdp.check_feasibility_batch(programs)
    assert (batch[1].status, batch[1].message) == (sdp.NUMERICAL_FAILURE, message)
    assert all(same_bits(b, s) for k, (b, s) in enumerate(zip(batch, solo)) if k != 1)


def test_a_failed_solve_row_is_solved_again_with_the_ridge(monkeypatch):
    programs = riesz_batch()
    solo = [sdp.check_feasibility(p) for p in programs]
    nan_row_once(monkeypatch, "solve1", 1)
    batch = sdp.check_feasibility_batch(programs)
    assert batch[1].status == sdp.OPTIMAL and batch[1].value > 0
    assert all(same_bits(b, s) for k, (b, s) in enumerate(zip(batch, solo)) if k != 1)


def test_one_kernel_call_per_step_whatever_the_block_sizes(monkeypatch):
    # Blocks of dimension 1, 2 and 3 padded to one stack: per pass, one
    # Cholesky and one eigh (scaling) and one eigvalsh per direction, and
    # two solves.  The last pass only scales.  Noise-free: these counts do
    # not depend on the machine.
    rng = np.random.default_rng(600)
    programs = [mixed_blocks(rng, shift) for shift in (1.0, -1.0, 0.5)]
    warm = [sdp.SdpProblem(objective=rng.standard_normal(3), blocks=p) for p in (programs[0], programs[2])]
    inner = sdp._lapack

    def counted(name, *stacks):
        counts[name] = counts.get(name, 0) + 1
        return inner(name, *stacks)

    monkeypatch.setattr(sdp, "_lapack", counted)
    for run in (lambda: sdp.check_feasibility_batch(programs),
                lambda: sdp.solve_batch(warm, [np.zeros(3)] * 2)):
        counts = {}
        passes = max(sol.newton_steps for sol in run()) + 1
        assert counts == {"cholesky_lo": passes, "eigh_lo": passes,
                          "eigvalsh_lo": 2 * (passes - 1), "solve1": 2 * (passes - 1)}


def test_the_loop_calls_no_numpy_linalg_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg wrapper called inside the interior-point loop")

    inner = sdp._interior_point

    def guarded(*args, **kwargs):
        with monkeypatch.context() as m:
            for name in ("cholesky", "eigh", "eigvalsh", "solve"):
                m.setattr(np.linalg, name, refuse)
            return inner(*args, **kwargs)

    monkeypatch.setattr(sdp, "_interior_point", guarded)
    statuses = [s.status for s in sdp.check_feasibility_batch(riesz_batch())]
    assert statuses == [sdp.OPTIMAL] * 2 + [sdp.INFEASIBLE, sdp.OPTIMAL, sdp.NUMERICAL_FAILURE, sdp.OPTIMAL]
