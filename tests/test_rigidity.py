"""Unperforated instances, truncation, interpolation, CP-map checks."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from opsyslab import problems, rigidity, sdp
from opsyslab.algebra import MatrixStarAlgebra, OperatorSubspace, generate_algebra, wedderburn
from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import hermitian, hermitian_part, is_psd, op_norm
from opsyslab.rigidity import (
    ChoiMap,
    InterpolationRequest,
    decide_unperforated_lines,
    joint_eigenbasis,
    nosp_check,
    riesz_sequence,
    scalar_instance_reduction,
    search_counterexample,
    solve_unperforated_instance,
    truncate_commuting,
    ucp_fixed_extent,
    verify_instance_certificate,
)
from opsyslab.states import StateFunctional, has_uep, is_pure, pure_decomposition, vector_state


def E(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


S_LINE = np.diag([-2.0, -1.0, -1.0])
T_LINE = np.diag([1.0, -2.0, 1.0])


def line_pair():
    S = OperatorSubspace(ambient_dim=3, basis=[S_LINE], unital=False)
    T = OperatorSubspace(ambient_dim=3, basis=[T_LINE], unital=False)
    return S, T


def swap_vs_diagonal():
    S = OperatorSubspace(ambient_dim=2, basis=[E(2, 0, 1) + E(2, 1, 0)], unital=False)
    T = OperatorSubspace(
        ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=False
    )
    return S, T


# ------------------------------------------------ unperforated instances


def test_line_instance_feasible_with_forced_interpolant():
    S, T = line_pair()
    inst = solve_unperforated_instance(S, T, S_LINE, 0.5 * T_LINE)
    assert inst.verdict == "FEASIBLE"
    assert op_norm(inst.b_prime) <= 1.0 + 1e-6
    assert np.allclose(inst.b_prime, 0.5 * T_LINE, atol=1e-5)


def test_line_instance_scalar_reduction():
    inequalities, window = scalar_instance_reduction(S_LINE, T_LINE, S_LINE, 0.5 * T_LINE)
    # the three ratio constraints: beta >= -2 alpha, beta <= alpha/2, beta >= -alpha
    assert sorted(inequalities) == sorted([("ge", -2.0), ("le", 0.5), ("ge", -1.0)])
    assert window == pytest.approx((0.5, 0.5), abs=1e-9)


def test_line_pair_decided_unperforated():
    dec = decide_unperforated_lines(S_LINE, T_LINE)
    assert dec.unperforated


def test_line_pair_perforated_case():
    # (span diag(1,0), span diag(1,5)): a = diag(1,0) <= b = diag(1,5) but the
    # only admissible multiples of b fail the norm cap on the second entry.
    dec = decide_unperforated_lines(np.diag([1.0, 0.0]), np.diag([1.0, 5.0]))
    assert not dec.unperforated


def test_swap_instance_infeasible_with_certificate():
    S, T = swap_vs_diagonal()
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    b = np.diag([1.0, 5.0])
    inst = solve_unperforated_instance(S, T, a, b)
    assert inst.verdict == "INFEASIBLE"
    # -||a|| <= b' follows from a <= b' and is not posed: its block is exactly zero
    assert len(inst.certificate) == 4 and np.array_equal(inst.certificate[3], np.zeros((2, 2)))
    assert verify_instance_certificate(inst)


@pytest.mark.parametrize("s", [2.0**-40, 1e-12, 1e-10, 1e-8, 1e-6, 1.0, 1e4, 1e12])
def test_a_scaled_swap_instance_stays_infeasible(s):
    # The question is homogeneous in (a, b), and each instance is decided on
    # its own power-of-two scale: every s refutes with a verified certificate
    # and max_slack s times the unit one.  The scaled and the unit programs
    # are different solves, each of them to the gap tolerance.
    S, T = swap_vs_diagonal()
    a, b = np.array([[0.0, 2.0], [2.0, 0.0]]), np.diag([1.0, 5.0])
    unit = solve_unperforated_instance(S, T, a, b)
    inst = solve_unperforated_instance(S, T, s * a, s * b)
    assert inst.verdict == "INFEASIBLE" and verify_instance_certificate(inst)
    assert inst.norm_a == 2.0 * s
    assert inst.max_slack / s == pytest.approx(unit.max_slack, rel=sdp.DEFAULT_SETTINGS.gap_tol)


def tampered(certificate, how):
    Z = [np.array(Zk) for Zk in certificate]
    if how == "sign-flipped":
        return [-Zk for Zk in Z]
    if how == "residual":
        # PSD and blind to the constant -a, but sum_k <Z_k, F_k,i> moves by 1e-3.
        Z[0] = Z[0] + 1e-3 * np.eye(2)
        return Z
    # Orthogonal to every matrix of the first block: only positivity breaks.
    Z[0] = Z[0] + 10.0 * np.array([[0.0, 1j], [-1j, 0.0]])
    return Z


@pytest.mark.parametrize("how", ["sign-flipped", "residual", "non-psd"])
def test_tampered_certificate_is_rejected_by_both_verifiers(how):
    S, T = swap_vs_diagonal()
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    b = np.diag([1.0, 5.0])
    inst = solve_unperforated_instance(S, T, a, b)
    eye = np.eye(2)
    blocks = [
        sdp.LmiBlock(-a, T.basis),
        sdp.LmiBlock(b, [-t for t in T.basis]),
        sdp.LmiBlock(2.0 * eye, [-t for t in T.basis]),
        sdp.LmiBlock(2.0 * eye, T.basis),
    ]
    assert sdp.verify_certificate(blocks, inst.certificate)
    bad = tampered(inst.certificate, how)
    assert not sdp.verify_certificate(blocks, bad)
    assert not verify_instance_certificate(dataclasses.replace(inst, certificate=bad))


def test_swap_instance_hand_derivation():
    # forced b' = diag(2,2); then b - b' = diag(-1,3) is not PSD
    b_forced = np.diag([2.0, 2.0])
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert is_psd(b_forced - a, 1e-10)
    assert not is_psd(np.diag([1.0, 5.0]) - b_forced, 1e-10)


def test_instance_trivial_when_a_in_T():
    S, T = swap_vs_diagonal()
    a = np.diag([0.3, -0.2])
    joint = OperatorSubspace(ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=False)
    inst = solve_unperforated_instance(joint, T, a, a + np.diag([0.5, 1.0]))
    assert inst.verdict == "FEASIBLE"


@pytest.mark.parametrize("seed", range(5))
def test_instance_with_forced_interpolant_is_feasible(seed):
    # a = b in T forces b' = a: the maximal slack is zero, no certificate
    # exists, and the re-verification tolerance must accept b'.
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (G + G.conj().T) / 2.0
    S = OperatorSubspace(ambient_dim=3, basis=[a], unital=False)
    T = OperatorSubspace(ambient_dim=3, basis=[np.eye(3), a, np.diag([1.0, -1.0, 0.0])], unital=True)
    inst = solve_unperforated_instance(S, T, a, a)
    assert inst.verdict == "FEASIBLE"
    assert abs(inst.max_slack) <= 1e-7
    assert np.linalg.norm(inst.b_prime - a) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_instance_tight_on_the_side_that_is_not_posed(seed):
    # lam_min(a) = -||a||, and b forces b' = a on that eigenvector, so
    # ||a|| + b' >= 0, the block not posed, is tight at every interpolant.
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    diagonal = [U @ np.diag(e) @ U.conj().T for e in np.eye(3)]
    a, b = (U @ np.diag(d) @ U.conj().T for d in ([-1.0, 0.3, 0.5], [-1.0, 0.9, 1.0]))
    S = OperatorSubspace(ambient_dim=3, basis=[a], unital=False)
    T = OperatorSubspace(ambient_dim=3, basis=diagonal, unital=False)
    inst = solve_unperforated_instance(S, T, a, b)
    assert inst.verdict == "FEASIBLE"
    assert inst.norm_b_prime <= inst.norm_a + rigidity.INSTANCE_TOL * (1.0 + inst.norm_a)
    assert abs(inst.max_slack) <= 1e-7
    assert np.linalg.eigvalsh(inst.b_prime)[0] == pytest.approx(-1.0, abs=1e-6)


def test_instance_rejects_unordered_pair():
    S, T = swap_vs_diagonal()
    with pytest.raises(InputError):
        solve_unperforated_instance(S, T, np.array([[0.0, 2.0], [2.0, 0.0]]), np.diag([1.0, 1.0]))


# ------------------------------------------------------------- search


def test_search_finds_swap_counterexample():
    S, T = swap_vs_diagonal()
    inst = search_counterexample(S, T, trials=20, seed=7)
    assert inst is not None
    assert inst.verdict == "INFEASIBLE"
    assert verify_instance_certificate(inst)


def test_search_none_when_contained():
    T = OperatorSubspace(
        ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=False
    )
    S = OperatorSubspace(ambient_dim=2, basis=[np.diag([1.0, -1.0])], unital=False)
    assert search_counterexample(S, T, trials=10, seed=11) is None


def test_search_none_on_commuting_pair():
    # S commuting with T, T an algebra
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    diags = [np.diag(v) for v in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, 2.0])]
    mats = [q @ d @ q.conj().T for d in diags]
    S = OperatorSubspace(ambient_dim=3, basis=[mats[2]], unital=False)
    T = OperatorSubspace(ambient_dim=3, basis=mats[:2], unital=True)
    assert search_counterexample(S, T, trials=10, seed=17) is None


# -------------------------------------------------------- truncation


def test_truncate_commuting_diagonal():
    a = np.diag([-2.0, -1.0])
    b = np.diag([5.0, 0.0])
    bp = truncate_commuting(a, b)
    assert np.allclose(bp, np.diag([2.0, 0.0]), atol=1e-10)


def test_truncate_commuting_small_b_unchanged():
    a = np.diag([3.0, -3.0])
    b = np.diag([1.0, 2.0]) + a  # still commuting (diagonal)
    if is_psd(b - a, 1e-10) and op_norm(b) <= op_norm(a):
        assert np.allclose(truncate_commuting(a, b), b, atol=1e-10)


def test_truncate_commuting_random_pairs():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ae = rng.standard_normal(n)
        be = ae + 2.0 * rng.random(n)
        a = q @ np.diag(ae) @ q.conj().T
        b = q @ np.diag(be) @ q.conj().T
        bp = truncate_commuting(a, b)
        # oracle in the common eigenbasis
        r = np.max(np.abs(ae))
        expected = q @ np.diag(np.clip(be, -r, r)) @ q.conj().T
        assert np.allclose(bp, expected, atol=1e-8)
        assert is_psd(bp - a, 1e-8) and is_psd(b - bp, 1e-8)
        assert op_norm(bp) <= op_norm(a) + 1e-8


def test_commuting_coherence_instance_vs_truncation():
    # on commuting instances the SDP is FEASIBLE and the clamped element is
    # itself an admissible interpolant
    rng = np.random.default_rng(43)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        ae = rng.standard_normal(3)
        be = ae + 2.0 * rng.random(3)
        a = q @ np.diag(ae) @ q.conj().T
        b = q @ np.diag(be) @ q.conj().T
        S = OperatorSubspace(ambient_dim=3, basis=[a], unital=False)
        T = OperatorSubspace(ambient_dim=3, basis=[b, np.eye(3)], unital=True)
        inst = solve_unperforated_instance(S, T, a, b)
        assert inst.verdict == "FEASIBLE"
        bp = truncate_commuting(a, b)
        na = op_norm(a)
        assert is_psd(bp - a, 1e-8) and is_psd(b - bp, 1e-8) and op_norm(bp) <= na + 1e-8
        # the clamp lands in span{b, I} only in special cases, but it always
        # satisfies the same three instance conditions the solver verified
        assert op_norm(inst.b_prime) <= na + 1e-6


def test_truncate_rejects_noncommuting():
    with pytest.raises(InputError):
        truncate_commuting(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("s", [1e-5, 1e-12, 1e-200])
def test_commutation_is_decided_on_each_matrix_scale(s):
    # [X, Z] is as far from zero at every scale, relative to X and Z: no
    # absolute floor lets a small pair commute, and no small line is zero.
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    with pytest.raises(InputError, match="inputs do not commute"):
        truncate_commuting(s * X, s * (2.0 * np.eye(2) + Z))
    with pytest.raises(InputError, match="matrices do not commute"):
        decide_unperforated_lines(s * X, s * Z)
    with pytest.raises(InputError, match="inputs do not commute"):
        truncate_commuting(s * X, np.eye(2) + Z)  # the scales need not agree
    assert np.allclose(truncate_commuting(s * Z, 2.0 * np.eye(2) + Z) / s, np.eye(2))  # commuting: clamped to s


def test_joint_eigenbasis_degenerate_clusters():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = q @ np.diag([1.0, 1.0, 2.0, 2.0]) @ q.conj().T
    b = q @ np.diag([3.0, -1.0, 0.5, 2.0]) @ q.conj().T
    Q, da, db = joint_eigenbasis(a, b)
    assert np.allclose(Q @ np.diag(da) @ Q.conj().T, a, atol=1e-8)
    assert np.allclose(Q @ np.diag(db) @ Q.conj().T, b, atol=1e-8)


# The running max/min forms that `_scalar_interval` and the window of
# `scalar_instance_reduction` replaced, kept as the references.


def scalar_interval_by_loop(s_diag, t_diag, tol=1e-12):
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


def scalar_reduction_by_loop(s_diag, t_diag, a_diag, b_diag):
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


def bits(window):
    """A window's bounds as bytes, so that the sign of a zero counts too."""
    return None if window is None else [np.float64(x).tobytes() for x in window]


def scalar_t_diagonals(rng):
    """Diagonals of t with zero, +-1e-12 (at the cut) and +-2e-12 entries, and
    dyadic ones whose ratios are exact, so that windows can be one point."""
    tiny = [0.0, -0.0, 1e-12, -1e-12, 2e-12, -2e-12]
    for n in range(1, 6):
        for _ in range(12):
            t = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
            t[rng.random(n) < 0.3] = rng.choice(tiny)
            yield t
            yield rng.standard_normal(n) * (rng.random(n) < 0.8)


def test_scalar_interval_is_the_running_max_min():
    rng = np.random.default_rng(2023)
    for t in scalar_t_diagonals(rng):
        for s in (rng.standard_normal(len(t)), rng.choice([-1.0, -0.0, 0.0, 1e-12, 2e-12, 1.0], size=len(t)),
                  rng.integers(-2, 3, size=len(t)) * t):
            assert bits(rigidity._scalar_interval(s, t)) == bits(scalar_interval_by_loop(s, t))


def test_scalar_window_is_the_intersection_of_two_intervals():
    rng = np.random.default_rng(2024)
    seen = {"empty": 0, "point": 0, "interval": 0}
    for t_diag in scalar_t_diagonals(rng):
        n = len(t_diag)
        s_diag = rng.standard_normal(n)
        lam = rng.choice([-1.0, 0.5, 2.0])
        below, above = (rng.random(n) * (rng.random(n) < 0.5) for _ in range(2))  # zeros make one-point windows
        for a_diag, b_diag in (
            (lam * t_diag - below, lam * t_diag + above),
            (rng.standard_normal(n), rng.standard_normal(n)),
            (np.zeros(n), rng.choice([-1e-12, 0.0, 1e-12, 1.0], size=n)),
        ):
            s, t, a, b = (np.diag(d) for d in (s_diag, t_diag, a_diag, b_diag))
            Q, s_q, t_q = joint_eigenbasis(s, t)
            a_q, b_q = (np.real(np.diag(Q.conj().T @ m @ Q)) for m in (a, b))
            inequalities, window = scalar_instance_reduction(s, t, a, b)
            ref_inequalities, ref_window = scalar_reduction_by_loop(s_q, t_q, a_q, b_q)
            assert [(sense, np.float64(c).tobytes()) for sense, c in inequalities] == [
                (sense, np.float64(c).tobytes()) for sense, c in ref_inequalities]
            assert bits(window) == bits(ref_window)
            seen["empty" if window is None else "point" if window[0] == window[1] else "interval"] += 1
    assert min(seen.values()) > 0, seen


# ------------------------------------------------------ Riesz sequences


def scalar_interval_oracle(n, eps, na):
    # B = span{I} in M2, a = diag(0,1), l = 0, u = I: c in
    # (-1/n, 1 + 1/n) intersect [-(1+eps/n) na, (1+eps/n) na]
    lo = max(-1.0 / n, -(1 + eps / n) * na)
    hi = min(1.0 + 1.0 / n, (1 + eps / n) * na)
    return lo, hi


def test_riesz_scalar_case():
    B = MatrixStarAlgebra.from_basis([np.eye(2)])
    a = np.diag([0.0, 1.0])
    req = InterpolationRequest(
        B=B, a=a, lowers=[np.zeros((2, 2))], uppers=[np.eye(2)], epsilon=1.0, N=5
    )
    betas = riesz_sequence(req)
    assert len(betas) == 5
    for n, beta in enumerate(betas, start=1):
        c = float(beta[0, 0].real)
        assert np.allclose(beta, c * np.eye(2), atol=1e-9)
        lo, hi = scalar_interval_oracle(n, 1.0, 1.0)
        assert lo - 1e-7 <= c <= hi + 1e-7
    # analytic-center style solution sits midway for this symmetric data
    assert float(betas[0][0, 0].real) == pytest.approx(0.5, abs=1e-5)


def test_riesz_prefix_does_not_depend_on_n():
    # the N programs are one batch; beta_1..beta_5 of N = 8 are those of N = 5
    rng = np.random.default_rng(41)
    B = MatrixStarAlgebra.from_basis(
        [E(4, i, j) + E(4, j, i) for i in range(2) for j in range(i, 2)]
        + [1j * (E(4, 0, 1) - E(4, 1, 0)), E(4, 2, 2), E(4, 3, 3)]
    )
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (raw + raw.conj().T) / 2
    lam = np.linalg.eigvalsh(a)
    lowers, uppers = [(lam[0] - 0.3) * np.eye(4)], [(lam[-1] + 0.2) * np.eye(4)]

    def betas(N):
        return riesz_sequence(InterpolationRequest(
            B=B, a=a, lowers=lowers, uppers=uppers, epsilon=0.4, N=N))

    long, short = betas(8), betas(5)
    assert len(long) == 8
    assert [b.tobytes() for b in long[:5]] == [b.tobytes() for b in short]


def test_riesz_self_interpolation():
    # a inside B: beta_n = a is feasible for all n, so the solver's choice
    # satisfies every block comfortably
    B = MatrixStarAlgebra.full(2)
    a = np.array([[0.5, 0.2], [0.2, -0.3]], dtype=complex)
    req = InterpolationRequest(B=B, a=a, lowers=[a], uppers=[a], epsilon=0.5, N=4)
    betas = riesz_sequence(req)
    na = op_norm(a)
    for n, beta in enumerate(betas, start=1):
        assert op_norm(beta) <= (1 + 0.5 / n) * na + 1e-6
        assert is_psd(beta - a + np.eye(2) / n, 1e-8)
        assert is_psd(a - beta + np.eye(2) / n, 1e-8)


def test_riesz_norm_bound_and_state_surrogate():
    rng = np.random.default_rng(29)
    blocks = [np.kron(np.diag([1.0, 0.0]), E(2, i, j)) for i in range(2) for j in range(2)]
    blocks += [np.kron(np.diag([0.0, 1.0]), E(2, i, j)) for i in range(2) for j in range(2)]
    B = MatrixStarAlgebra.from_basis(blocks)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (raw + raw.conj().T) / 2
    na = op_norm(a)
    lmin, lmax = np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(a)[-1]
    lowers = [lmin * np.eye(4)]
    uppers = [lmax * np.eye(4)]
    eps = 1.0
    req = InterpolationRequest(B=B, a=a, lowers=lowers, uppers=uppers, epsilon=eps, N=6)
    betas = riesz_sequence(req)
    for n, beta in enumerate(betas, start=1):
        assert op_norm(beta) <= (1 + eps / n) * na + 1e-6
        # property-(2) surrogate for random states on B
        for _ in range(5):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            dens = raw @ raw.conj().T
            dens = dens / np.trace(dens).real
            psi = StateFunctional(density=dens, domain=B)
            val = psi.expect(beta)
            assert val <= min(psi.expect(u) for u in uppers) + 2.0 / n
            assert val >= max(psi.expect(l) for l in lowers) - 2.0 / n


def test_riesz_infeasible_bounds_rejected():
    B = MatrixStarAlgebra.from_basis([np.eye(2)])
    with pytest.raises(InputError):
        InterpolationRequest(
            B=B, a=np.diag([0.0, 1.0]), lowers=[np.eye(2) * 2], uppers=[], epsilon=1.0, N=2
        )


def test_riesz_auto_bounds():
    B = MatrixStarAlgebra.full(2)
    a = np.diag([0.0, 1.0]).astype(complex)
    req = InterpolationRequest(B=B, a=a, lowers=[], uppers=[], epsilon=1.0, N=3,
                               auto_bounds=2, seed=31)
    betas = riesz_sequence(req)
    assert len(betas) == 3


def test_riesz_auto_bounds_start_inside_their_programs(monkeypatch):
    # Each generated bound's program starts at +-(1 + ||a||) I, strictly
    # inside its three blocks, so no feasibility phase runs for it.
    inside, bounds = [], []
    real_phase1, real_bounds = sdp._phase1, rigidity.extreme_bounds

    def phase1(*args, **kwargs):
        assert not inside, "a generated bound ran a feasibility phase"
        return real_phase1(*args, **kwargs)

    def generate(B, a, rng, count, settings=sdp.DEFAULT_SETTINGS):
        inside.append(count)
        try:
            uppers, lowers = real_bounds(B, a, rng, count, settings=settings)
        finally:
            inside.pop()
        bounds.extend([(True, u) for u in uppers] + [(False, u) for u in lowers])
        return uppers, lowers

    monkeypatch.setattr(sdp, "_phase1", phase1)
    monkeypatch.setattr(rigidity, "extreme_bounds", generate)
    doc = problems.parse_problem(json.dumps({"kind": "riesz", "seed": 5, "payload": {
        "B": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]], "a": [[0, 0.5], [0.5, 1]],
        "epsilon": 0.5, "N": 3, "auto_bounds": 2}}))
    betas = problems.run(doc)["results"]["betas"]
    assert len(betas) == 3 and sorted(upper for upper, _ in bounds) == [False, False, True, True]
    B = MatrixStarAlgebra.from_basis([np.eye(2), np.diag([1.0, -1.0])])
    a = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
    for upper, u in bounds:
        assert B.contains(u)
        assert is_psd(u - a if upper else a - u, 1e-8)
    for n, beta in enumerate(betas, start=1):
        beta = problems.parse_matrix(beta, "beta")
        for upper, u in bounds:
            gap = u - beta if upper else beta - u
            assert is_psd(gap + np.eye(2) / n, 1e-8)


def test_generated_bounds_are_one_batch_with_the_bits_of_solo_solves(monkeypatch):
    # The 2 count programs go to one solve_batch, drawn upper, lower, upper,
    # ...; each bound has the bits of its program solved alone, and a longer
    # generation starts with the bounds of a shorter one from the same seed.
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a, B = (raw + raw.conj().T) / 2, MatrixStarAlgebra.full(3)
    batches, real = [], sdp.solve_batch

    def spy(problems, x0s=None, settings=sdp.DEFAULT_SETTINGS):
        batches.append((problems, x0s))
        return real(problems, x0s, settings)

    monkeypatch.setattr(sdp, "solve_batch", spy)
    uppers, lowers = rigidity.extreme_bounds(B, a, np.random.default_rng(9), 3)
    (problems, x0s), = batches
    assert len(problems) == 6 and len(uppers) == len(lowers) == 3
    hb = B.hermitian_basis()
    for k, (problem, x0) in enumerate(zip(problems, x0s)):
        u = hermitian_part(sum(x * h for x, h in zip(real([problem], [x0])[0].x, hb)))
        assert u.tobytes() == (uppers if k % 2 == 0 else lowers)[k // 2].tobytes()
    short = rigidity.extreme_bounds(B, a, np.random.default_rng(9), 2)
    assert all(s.tobytes() == l.tobytes() for side, full in zip(short, (uppers, lowers))
               for s, l in zip(side, full))


def test_the_first_failing_generated_bound_raises(monkeypatch):
    real = sdp.solve_batch

    def fail_second(problems, x0s=None, settings=sdp.DEFAULT_SETTINGS):
        solutions = real(problems, x0s, settings)
        solutions[1] = sdp.SdpSolution(status=sdp.NUMERICAL_FAILURE)
        solutions[3] = sdp.SdpSolution(status="LATER")
        return solutions

    monkeypatch.setattr(sdp, "solve_batch", fail_second)
    with pytest.raises(NumericalFailureError, match="extreme bound generation failed: NUMERICAL_FAILURE$"):
        rigidity.extreme_bounds(MatrixStarAlgebra.full(2), np.diag([0.0, 1.0]), np.random.default_rng(1), 2)


# ----------------------------------------------------------- CP maps


def test_choi_identity_and_pinching():
    ident = ChoiMap.identity(2)
    X = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(ident.apply(X), X)
    pinch = ChoiMap.pinching([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
    assert np.allclose(pinch.apply(X), np.diag([1.0, 4.0]))


def offdiag_system():
    return OperatorSubspace(
        ambient_dim=2,
        basis=[np.eye(2), E(2, 0, 1) + E(2, 1, 0), 1j * E(2, 0, 1) - 1j * E(2, 1, 0)],
        unital=True,
    )


def test_ucp_extent_zero_for_offdiag_system():
    extent, witness = ucp_fixed_extent(offdiag_system())
    assert extent <= 1e-6
    assert witness is None


@pytest.mark.parametrize("S", [
    offdiag_system(),
    OperatorSubspace(ambient_dim=2, basis=[np.eye(2), np.diag([1.0, -0.5])], unital=True),
])
def test_ucp_extent_of_a_boundary_system_solves_no_program(monkeypatch, S):
    # every objective is constant on the Choi face (a point for the
    # off-diagonal system, the Schur multipliers for the diagonal one, on
    # whose generated algebra every such map is the identity)
    from opsyslab import spectrahedron

    def no_program(*args, **kwargs):
        raise AssertionError("optimize_linear was called")

    monkeypatch.setattr(spectrahedron, "optimize_linear", no_program)
    extent, witness = ucp_fixed_extent(S)
    assert extent <= 1e-12
    assert witness is None


def test_ucp_extent_zero_for_full_subspace():
    S = MatrixStarAlgebra.full(2).subspace()
    extent, _ = ucp_fixed_extent(S)
    assert extent <= 1e-6


def test_ucp_extent_diagonal_subspace():
    S = OperatorSubspace(
        ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=True
    )
    extent, witness = ucp_fixed_extent(S, algebra=MatrixStarAlgebra.full(2))
    assert extent >= 1.0 - 1e-6
    assert witness is not None
    # the witness fixes the diagonal but moves some off-diagonal element
    assert np.allclose(witness.apply(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-6)
    moved = witness.apply(E(2, 0, 1) + E(2, 1, 0)) - (E(2, 0, 1) + E(2, 1, 0))
    assert np.linalg.norm(moved) >= 1.0 - 1e-5


def _extent_by_pair_loop(S):
    """ucp_fixed_extent as a loop over the (basis element, coordinate
    function) pairs that keeps the first strict maximum, each base value
    from its own trace; and the number of open objectives."""
    from opsyslab import spectrahedron
    from opsyslab.rigidity import _choi_constraints

    n = S.ambient_dim
    spec = spectrahedron.reduce_spectrahedron(n * n, *_choi_constraints(S, n))
    herm = generate_algebra(S).hermitian_basis()
    coord_funcs = MatrixStarAlgebra.full(n).hermitian_basis()
    Cs = hermitian_part(np.einsum("arp,uqs->aupqrs", herm, coord_funcs).reshape(-1, n * n, n * n))
    values, bounds = spec.linear_range(Cs)
    settled = bounds <= spectrahedron.FACE_TOL
    open_Cs = Cs[~settled]
    extremes = spectrahedron.optimize_linear(spec, np.concatenate([open_Cs, -open_Cs])) if len(open_Cs) else []
    open_pairs = iter(zip(extremes[:len(open_Cs)], extremes[len(open_Cs):]))
    best, best_J = 0.0, None
    pairs = ((ai, U) for ai in herm for U in coord_funcs)
    for (ai, U), at_base, bound, done in zip(pairs, values, bounds, settled):
        base = float(np.trace(ai @ U).real)
        if done:
            candidates = [(abs(at_base - base) + bound, None)]
        else:
            (hi, J_hi), (neg_lo, J_lo) = next(open_pairs)
            candidates = [(abs(hi - base), J_hi), (abs(-neg_lo - base), J_lo)]
        for deviation, J in candidates:
            if deviation > best:
                best, best_J = deviation, J
    if best > 1e-6 and best_J is None:
        best_J = spec.point(spec.z_interior)
    return best, best_J, len(open_Cs)


@pytest.mark.parametrize("seed", range(6))
def test_ucp_extent_keeps_the_bits_of_the_pair_loop(seed):
    # S = span{I, h} on M3 leaves open objectives (pushed to both extremes);
    # S = span{I, h1, h2} settles every one from the range bound.
    rng = np.random.default_rng(900 + seed)
    hs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(1 + seed % 2)]
    S = OperatorSubspace(ambient_dim=3, basis=[np.eye(3)] + [h + h.conj().T for h in hs], unital=True)
    ref, ref_J, n_open = _extent_by_pair_loop(S)
    extent, witness = ucp_fixed_extent(S)
    assert (n_open > 0) == (seed % 2 == 0)
    assert np.float64(extent).tobytes() == np.float64(ref).tobytes()
    if ref_J is None:
        assert witness is None
    else:
        assert witness.choi.tobytes() == hermitian(ref_J).tobytes()
    assert (witness is not None) == (seed % 2 == 0)


def test_nosp_pinching_difference():
    full = MatrixStarAlgebra.full(2)
    hb = full.hermitian_basis()
    pinch = ChoiMap.pinching([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
    lam = nosp_check(hb, pinch, full)
    assert abs(lam) <= 1e-6


def test_nosp_identity_difference_is_zero():
    full = MatrixStarAlgebra.full(2)
    hb = full.hermitian_basis()
    lam = nosp_check(hb, ChoiMap.identity(2), full)
    assert abs(lam) <= 1e-6


def test_nosp_random_ucp_fixing_offdiag_is_forced():
    # any unital CP map fixing span{I, E12, E21} in M2 is the identity, so
    # pi = id against such a Pi gives lambda* = 0
    from opsyslab import spectrahedron
    from opsyslab.rigidity import _choi_constraints

    S = offdiag_system()
    spec = spectrahedron.reduce_spectrahedron(4, *_choi_constraints(S, 2))
    assert len(spec.dirs) == 0  # the Choi set is a single point: the identity
    Pi = ChoiMap(dim_in=2, dim_out=2, choi=spec.point(np.zeros(0)), unital=True)
    full = MatrixStarAlgebra.full(2)
    lam = nosp_check(full.hermitian_basis(), Pi, full)
    assert abs(lam) <= 1e-6


def test_zero_extent_forces_degenerate_choi_set():
    # fixed-set extent 0 and a zero-dimensional reduced Choi spectrahedron
    # say the same thing: vector-state extension intervals over the Choi set
    # are all degenerate
    from opsyslab import spectrahedron
    from opsyslab.rigidity import _choi_constraints

    S = offdiag_system()
    extent, _ = ucp_fixed_extent(S)
    assert extent <= 1e-6
    spec = spectrahedron.reduce_spectrahedron(4, *_choi_constraints(S, 2))
    rng = np.random.default_rng(41)
    for _ in range(5):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xi = xi / np.linalg.norm(xi)
        a_dir = np.outer(xi, xi.conj())  # vector-state functional of Phi(a)
        for t in MatrixStarAlgebra.full(2).hermitian_basis():
            C = np.kron(t.T, a_dir)
            (hi, _), (neg_lo, _) = spectrahedron.optimize_linear(spec, np.stack([C, -C]))
            lo = -neg_lo
            assert hi - lo <= 1e-6


def test_separation_witness_on_commuting_example():
    # when T is the full matrix algebra, a norm-attaining vector state for s
    # restricts to a pure state on T and attains |psi(s)| = ||s||
    rng = np.random.default_rng(37)
    full = MatrixStarAlgebra.full(3)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = (raw + raw.conj().T) / 2
    lam, vecs = np.linalg.eigh(s)
    k = int(np.argmax(np.abs(lam)))
    theta = vector_state(vecs[:, k], full)
    dec = pure_decomposition(theta, full)
    best = max(abs(atom.expect(s)) for _, atom in dec.atoms)
    assert best >= op_norm(s) - 1e-6
    assert all(is_pure(atom, full) for _, atom in dec.atoms)


def _line():
    return OperatorSubspace(ambient_dim=2, basis=[np.eye(2)])


def _diagonal_request(**fields):
    args = dict(B=MatrixStarAlgebra.from_basis([np.eye(2), np.diag([1.0, 0.0])]), a=np.diag([1.0, 0.0]),
                lowers=[], uppers=[], epsilon=0.5, N=1)
    return InterpolationRequest(**(args | fields))


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, field, message", [
    (lambda: solve_unperforated_instance(_line(), _line(), np.diag([1.0, 0.0]), np.eye(2)),
     "a", "matrix is not in the subspace (residual 7.071e-01)"),
    (lambda: solve_unperforated_instance(_line(), _line(), np.zeros((2, 2)), np.diag([1.0, 0.0])),
     "b", "matrix is not in the subspace (residual 7.071e-01)"),
    (lambda: solve_unperforated_instance(_line(), _line(), np.eye(2), np.zeros((2, 2))),
     "b", "instance requires a <= b"),
    (lambda: _diagonal_request(epsilon=0.0), "epsilon", "epsilon must be positive"),
    (lambda: _diagonal_request(a=np.eye(3)), "a", "expected dimension 2 (that of B), got 3"),
    (lambda: _diagonal_request(uppers=[np.eye(3)]), "uppers", "expected dimension 2 (that of B), got 3"),
    (lambda: _diagonal_request(lowers=[np.eye(2)]), "lowers", "a lower bound does not sit below the element"),
    (lambda: _diagonal_request(uppers=[np.zeros((2, 2))]), "uppers", "an upper bound does not sit above the element"),
    (lambda: _diagonal_request(uppers=[SWAP]), "uppers", "an upper bound is not in the algebra"),
    (lambda: _diagonal_request(auto_bounds=1), "auto_bounds", "auto-generated bounds need a seed"),
    (lambda: ChoiMap(dim_in=1, dim_out=1, choi=np.array([[-1.0]])),
     "choi", "Choi matrix is not PSD: map is not completely positive"),
    (lambda: ChoiMap(dim_in=2, dim_out=2, choi=np.eye(4), unital=True), "choi", "map is not unital"),
    (lambda: ChoiMap(dim_in=2, dim_out=2, choi=np.eye(2)), "choi", "Choi matrix dimension mismatch"),
    (lambda: ucp_fixed_extent(OperatorSubspace(ambient_dim=5, basis=[np.eye(5)])),
     "S", "fixed-set extent is limited to ambient dimension 4"),
    (lambda: nosp_check([np.eye(2)], ChoiMap.identity(2), MatrixStarAlgebra.full(2)),
     "pi_images", "need one representation image per hermitian basis element"),
    (lambda: nosp_check([np.eye(3)] * 4, ChoiMap.identity(2), MatrixStarAlgebra.full(2)),
     "dim_out", "CP map output dimension does not match the images"),
])
def test_rejections_name_the_argument_at_fault(call, field, message):
    # `field` is the argument's name; the message is the one library callers always saw
    with pytest.raises(InputError) as info:
        call()
    assert (info.value.field, str(info.value)) == (field, message)


CORNER = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0])])  # a *-algebra without the identity
NOT_UNITAL = "expected a unital algebra (the identity is not in the span)"


def _identity_span(n):
    return OperatorSubspace(ambient_dim=n, basis=[np.eye(n)])


def _mixed(n, domain):
    return StateFunctional(density=np.eye(n) / n, domain=domain)


def _mismatch(n, of, got):
    return f"expected dimension {n} (that of {of}), got {got}"


@pytest.mark.parametrize("call, field, message", [
    (lambda: solve_unperforated_instance(_line(), _identity_span(3), np.zeros((2, 2)), np.eye(3)),
     "T", _mismatch(2, "S", 3)),
    (lambda: solve_unperforated_instance(_line(), _line(), np.zeros((3, 3)), np.eye(2)), "a", _mismatch(2, "S", 3)),
    (lambda: solve_unperforated_instance(_line(), _line(), np.zeros((2, 2)), np.eye(3)), "b", _mismatch(2, "S", 3)),
    (lambda: search_counterexample(_line(), _identity_span(3), trials=1, seed=0), "T", _mismatch(2, "S", 3)),
    (lambda: _diagonal_request(B=CORNER), "B", NOT_UNITAL),
    (lambda: wedderburn(CORNER), "algebra", NOT_UNITAL),
    (lambda: is_pure(_mixed(2, MatrixStarAlgebra.full(2)), CORNER), "algebra", NOT_UNITAL),
    (lambda: is_pure(_mixed(2, MatrixStarAlgebra.full(3)), MatrixStarAlgebra.full(3)), "phi", _mismatch(3, "A", 2)),
    (lambda: pure_decomposition(_mixed(2, MatrixStarAlgebra.full(3)), MatrixStarAlgebra.full(3)),
     "phi", _mismatch(3, "A", 2)),
    (lambda: has_uep(_mixed(2, MatrixStarAlgebra.full(3)), _identity_span(3)),
     "psi", "subspace dimension does not match the state"),
    (lambda: ucp_fixed_extent(_line(), algebra=MatrixStarAlgebra.full(3)), "algebra", _mismatch(2, "S", 3)),
    (lambda: nosp_check([np.eye(2)] * 9, ChoiMap.identity(2), MatrixStarAlgebra.full(3)),
     "A", _mismatch(2, "Pi_choi.dim_in", 3)),
])
def test_each_input_relation_is_checked_in_the_words_the_cli_prints(call, field, message):
    # the entry point that receives both inputs checks their relation, as test_cli.py pins it under
    # the payload path; three of these calls used to raise numpy's ValueError
    with pytest.raises(InputError) as info:
        call()
    assert (info.value.field, str(info.value)) == (field, message)
