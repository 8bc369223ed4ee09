"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is expected to finish in well under a minute.
"""

from __future__ import annotations

import numpy as np

from opsyslab import sdp
from opsyslab.algebra import MatrixStarAlgebra, OperatorSubspace
from opsyslab.hermitian import eigh, is_psd, op_norm
from opsyslab.korovkin import korovkin_demo
from opsyslab.rigidity import (
    ChoiMap,
    InterpolationRequest,
    nosp_check,
    riesz_sequence,
    scalar_instance_reduction,
    search_counterexample,
    solve_unperforated_instance,
    truncate_commuting,
    ucp_fixed_extent,
    verify_instance_certificate,
)
from opsyslab.states import (
    StateFunctional,
    has_uep,
    is_pure,
    pure_decomposition,
    vector_state,
)


def E(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


def random_unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, n, rank=None):
    k = rank or n
    raw = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    d = raw @ raw.conj().T
    return d / np.trace(d).real


def test_criterion_01_line_pair_reproduction():
    s = np.diag([-2.0, -1.0, -1.0])
    t = np.diag([1.0, -2.0, 1.0])
    S = OperatorSubspace(ambient_dim=3, basis=[s], unital=False)
    T = OperatorSubspace(ambient_dim=3, basis=[t], unital=False)
    a, b = s, 0.5 * t
    inst = solve_unperforated_instance(S, T, a, b)
    assert inst.verdict == "FEASIBLE"
    assert op_norm(inst.b_prime) <= 1.0 + 1e-6
    inequalities, window = scalar_instance_reduction(s, t, a, b)
    assert sorted(inequalities) == sorted([("ge", -2.0), ("le", 0.5), ("ge", -1.0)])
    assert abs(window[0] - 0.5) <= 1e-9 and abs(window[1] - 0.5) <= 1e-9
    forced = 0.5 * t
    assert abs(op_norm(forced) - 1.0) <= 1e-9
    assert abs(op_norm(a) - 2.0) <= 1e-9
    assert op_norm(forced) < op_norm(a)
    print("criterion 1: PASS - line pair FEASIBLE with forced lambda = 1/2, |b'| = 1 < 2")


def test_criterion_02_perforated_pair_reproduction():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    b = np.diag([1.0, 5.0])
    S = OperatorSubspace(ambient_dim=2, basis=[E(2, 0, 1) + E(2, 1, 0)], unital=False)
    T = OperatorSubspace(
        ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=False
    )
    inst = solve_unperforated_instance(S, T, a, b)
    assert inst.verdict == "INFEASIBLE"
    assert verify_instance_certificate(inst)
    forced = np.diag([2.0, 2.0])
    assert is_psd(forced - a, 1e-10)
    assert not is_psd(b - forced, 1e-10)
    print("criterion 2: PASS - diagonal cage INFEASIBLE with verified Farkas certificate")


def offdiag_system():
    return OperatorSubspace(
        ambient_dim=2,
        basis=[np.eye(2), E(2, 0, 1) + E(2, 1, 0), 1j * E(2, 0, 1) - 1j * E(2, 1, 0)],
        unital=True,
    )


def test_criterion_03_vector_state_uep_and_boundary():
    S = offdiag_system()
    full = MatrixStarAlgebra.full(2)
    chi1 = vector_state([1.0, 0.0], full)
    result = has_uep(chi1, S)
    assert not result.holds
    assert np.allclose(result.witness, E(2, 0, 0))
    assert abs(result.interval.min - 0.0) <= 1e-6
    assert abs(result.interval.max - 1.0) <= 1e-6
    extent, _ = ucp_fixed_extent(S)
    assert extent <= 1e-6
    print(
        "criterion 3: PASS - chi_1 lacks UEP with interval (0, 1) on E_11; "
        f"fixed-set extent {extent:.2e} <= 1e-6"
    )


def test_criterion_04_pure_restriction_example():
    full = MatrixStarAlgebra.full(2)
    diag = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    gamma = 1.0 / np.sqrt(2.0)
    omega = vector_state([gamma, gamma], full)
    assert is_pure(omega, full)
    restricted = omega.restrict(diag)
    assert not is_pure(restricted, diag)
    dec = pure_decomposition(restricted, diag)
    weights = sorted(float(w) for w, _ in dec.atoms)
    assert len(weights) == 2
    assert abs(weights[0] - 0.5) <= 1e-9 and abs(weights[1] - 0.5) <= 1e-9
    print("criterion 4: PASS - pure on M_2, mixed on the diagonal with weights (1/2, 1/2)")


def test_criterion_05_commuting_pairs_property_suite():
    rng = np.random.default_rng(500)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        q = random_unitary(rng, n)
        ae = rng.standard_normal(n)
        be = ae + 2.0 * rng.random(n)
        a = q @ np.diag(ae) @ q.conj().T
        b = q @ np.diag(be) @ q.conj().T
        bp = truncate_commuting(a, b)
        assert is_psd(bp - a, 1e-8), f"trial {trial}: a <= b' failed"
        assert is_psd(b - bp, 1e-8), f"trial {trial}: b' <= b failed"
        assert op_norm(bp) <= op_norm(a) + 1e-8 * (1 + op_norm(a))
    # randomized refutation search on commuting (S, T) with T an algebra
    q = random_unitary(np.random.default_rng(501), 3)
    diags = [np.diag(v) for v in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0])]
    T = OperatorSubspace(
        ambient_dim=3, basis=[q @ d @ q.conj().T for d in diags], unital=True
    )
    S = OperatorSubspace(
        ambient_dim=3, basis=[q @ np.diag([1.0, -1.0, 2.0]) @ q.conj().T], unital=False
    )
    assert search_counterexample(S, T, trials=100, seed=502) is None
    print("criterion 5: PASS - 200 commuting truncations sandwiched; no counterexample found")


def proper_subalgebra_of_m4(rng):
    partitions = ([2, 2], [2, 1, 1], [3, 1], [1, 1, 1, 1])
    part = partitions[int(rng.integers(len(partitions)))]
    u = random_unitary(rng, 4)
    mats = []
    offset = 0
    for size in part:
        for i in range(size):
            for j in range(size):
                mats.append(u @ E(4, offset + i, offset + j) @ u.conj().T)
        offset += size
    return MatrixStarAlgebra.from_basis(mats)


def test_criterion_06_interpolation_surrogate():
    rng = np.random.default_rng(600)
    for req_idx in range(50):
        B = proper_subalgebra_of_m4(rng)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (raw + raw.conj().T) / 2
        na = op_norm(a)
        lam = np.linalg.eigvalsh(a)
        hb = B.hermitian_basis()

        def psd_element():
            h = sum(float(c) * m for c, m in zip(rng.standard_normal(len(hb)), hb))
            h = h / max(op_norm(h), 1e-12)
            return h @ h

        lowers = [lam[0] * np.eye(4) - psd_element(), lam[0] * np.eye(4) - psd_element()]
        uppers = [lam[-1] * np.eye(4) + psd_element(), lam[-1] * np.eye(4) + psd_element()]
        eps = 0.5 + 1.5 * float(rng.random())
        req = InterpolationRequest(B=B, a=a, lowers=lowers, uppers=uppers, epsilon=eps, N=8)
        betas = riesz_sequence(req)
        states = [
            StateFunctional(density=random_density(rng, 4), domain=B) for _ in range(20)
        ]
        for n, beta in enumerate(betas, start=1):
            assert op_norm(beta) <= (1 + eps / n) * na + 1e-6, f"request {req_idx}, n={n}"
            for psi in states:
                val = psi.expect(beta)
                assert val <= min(psi.expect(u) for u in uppers) + 2.0 / n
                assert val >= max(psi.expect(l) for l in lowers) - 2.0 / n
    print("criterion 6: PASS - 50 interpolation requests satisfy norm and state surrogates")


def test_criterion_07_no_strictly_positive_difference():
    full = MatrixStarAlgebra.full(2)
    hb = full.hermitian_basis()
    pinch = ChoiMap.pinching([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
    lam = nosp_check(hb, pinch, full)
    assert lam <= 1e-6
    print(f"criterion 7: PASS - pinching difference lambda* = {lam:.2e} <= 1e-6")


def m2_plus_c():
    mats = [E(3, i, j) for i in range(2) for j in range(2)] + [E(3, 2, 2)]
    return MatrixStarAlgebra.from_basis(mats)


def test_criterion_08_ideal_uep():
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    rng = np.random.default_rng(800)
    for trial in range(10):
        density = np.zeros((3, 3), dtype=complex)
        density[:2, :2] = random_density(rng, 2)
        psi = StateFunctional(density=density, domain=full3)
        assert has_uep(psi, B.subspace()).holds, f"block density {trial} must have UEP"
    mass = StateFunctional(density=np.diag([0.3, 0.3, 0.4]).astype(complex), domain=full3)
    result = has_uep(mass, B.subspace())
    assert not result.holds
    print("criterion 8: PASS - 10 block densities have UEP, mass on the summand does not")


def test_criterion_09_atom_inheritance():
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    S = B.subspace()
    rng = np.random.default_rng(900)
    for trial in range(50):
        k = int(rng.integers(2, 4))
        atoms = []
        for _ in range(k):
            density = np.zeros((3, 3), dtype=complex)
            density[:2, :2] = random_density(rng, 2)
            atoms.append(StateFunctional(density=density, domain=full3))
        weights = rng.random(k) + 0.1
        weights = weights / weights.sum()
        combo_density = sum(w * atom.density for w, atom in zip(weights, atoms))
        combo = StateFunctional(density=combo_density, domain=full3)
        assert has_uep(combo, S).holds, f"trial {trial}: combination lost UEP"
        for i, atom in enumerate(atoms):
            assert has_uep(atom, S).holds, f"trial {trial}: atom {i} lost UEP"
    print("criterion 9: PASS - 50 convex combinations with UEP pass it to every atom")


def test_criterion_10_korovkin():
    prev = np.inf
    for n in (10, 100, 1000):
        table = korovkin_demo(n, 1001, ["x^3"])
        assert abs(table["x^2"] - 0.25 / n) <= 1e-12, f"n={n}"
        assert table["x^3"] < prev
        prev = table["x^3"]
    print("criterion 10: PASS - B_n(x^2) deviates by exactly 1/(4n); x^3 deviations decrease")


def test_criterion_11_engine_hygiene():
    # eigensolver reconstruction on 1000 seeded matrices
    rng = np.random.default_rng(1100)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (raw + raw.conj().T) / 2
        dec = eigh(A)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
        worst = max(worst, float(np.linalg.norm(recon - A)) / scale)
    assert worst <= 1e-10

    # weak duality and certificate checks run inside every solve: an OPTIMAL
    # solve carries its dual bound only once its duality check has passed, and
    # an INFEASIBLE one a certificate that passes the verifier
    eye = np.eye(3, dtype=complex)
    mismatches = 0.0
    for k in range(20):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        F0 = (raw + raw.conj().T) / 2
        prob = sdp.SdpProblem(objective=np.array([1.0]), blocks=[sdp.LmiBlock(F0, [eye])])
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert sol.dual_bound is not None
        assert sol.dual_bound <= sol.value + 1e-9 * (1 + abs(sol.value))
        # bisection oracle for the one-variable boundary
        lo, hi = -100.0, 100.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if eigh(F0 + mid * eye).eigenvalues[0] >= 0:
                hi = mid
            else:
                lo = mid
        mismatches = max(mismatches, abs(sol.value - hi))
    assert mismatches <= 1e-6
    blocks = [sdp.LmiBlock(-eye, [np.zeros((3, 3), dtype=complex)])]
    infeasible = sdp.check_feasibility(blocks)
    assert infeasible.status == sdp.INFEASIBLE
    assert sdp.verify_certificate(blocks, infeasible.dual_certificate)
    print(
        "criterion 11: PASS - worst eigensolver reconstruction "
        f"{worst:.2e} <= 1e-10; duality/certificate checks live; "
        f"bisection mismatch {mismatches:.2e} <= 1e-6"
    )
