"""State extension intervals, UEP, purity, decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab import sdp, spectrahedron
from opsyslab.algebra import MatrixStarAlgebra, OperatorSubspace
from opsyslab.errors import InputError
from opsyslab.states import (
    StateFunctional,
    extension_interval,
    find_pure_majorizing_state,
    has_uep,
    is_pure,
    pure_decomposition,
    vector_state,
    verify_state_on_subspace,
)


def E(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


def offdiag_system(n=2) -> OperatorSubspace:
    X = E(n, 0, 1) + E(n, 1, 0)
    Y = 1j * E(n, 0, 1) - 1j * E(n, 1, 0)
    return OperatorSubspace(ambient_dim=n, basis=[np.eye(n), X, Y], unital=True)


def random_density(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = raw @ raw.conj().T
    return d / np.trace(d).real


def m2_plus_c() -> MatrixStarAlgebra:
    """(M2 + 0) + C I inside M3; equals M2 (+) C as a subalgebra."""
    mats = [E(3, i, j) for i in range(2) for j in range(2)] + [E(3, 2, 2)]
    return MatrixStarAlgebra.from_basis(mats)


# ---------------------------------------------------------------- statehood


def test_verify_state_offdiag_functional():
    S = offdiag_system()
    assert verify_state_on_subspace([1.0, 0.0, 0.0], S)


def test_verify_state_rejects_non_unital_value():
    S = offdiag_system()
    assert not verify_state_on_subspace([2.0, 0.0, 0.0], S)


def test_verify_state_restriction_of_state():
    rng = np.random.default_rng(41)
    S = offdiag_system()
    for _ in range(5):
        phi = StateFunctional(density=random_density(rng, 2), domain=S)
        assert verify_state_on_subspace(phi.values_on(S.basis), S)


def test_verify_state_negative_functional():
    # values forcing negativity on a positive element of the span
    S = OperatorSubspace(ambient_dim=2, basis=[np.eye(2), np.diag([1.0, -1.0])], unital=True)
    assert not verify_state_on_subspace([1.0, 2.0], S)  # value 3 at diag(1,0)? -1 at diag(0,1)


def refuse_programs_of_its_own(monkeypatch):
    """Statehood is the extension set's nonemptiness: facial reduction's
    feasibility programs may run, an optimization program of its own not."""
    def refuse(*args, **kwargs):
        raise AssertionError("statehood posed a program of its own")

    monkeypatch.setattr(sdp, "solve", refuse)
    monkeypatch.setattr(sdp, "solve_batch", refuse)


def test_a_boundary_functional_with_one_extension_is_a_state(monkeypatch):
    # values [1, 1] on span{I, diag(1, -1)} force Y11 = 1, Y22 = 0: the
    # extension set is the single density E11, with empty interior
    refuse_programs_of_its_own(monkeypatch)
    S = OperatorSubspace(ambient_dim=2, basis=[np.eye(2), np.diag([1.0, -1.0])], unital=True)
    assert verify_state_on_subspace([1.0, 1.0], S)
    assert verify_state_on_subspace([1.0, -1.0], S)
    spec = spectrahedron.reduce_spectrahedron(2, np.stack([*S.basis, np.eye(2)]), [1.0, 1.0, 1.0])
    assert spec.support.shape == (2, 1) and len(spec.dirs) == 0
    np.testing.assert_allclose(spec.point(np.zeros(0)), np.diag([1.0, 0.0]), atol=1e-9)


def test_a_functional_whose_extension_set_is_certified_empty_is_not_a_state(monkeypatch):
    # Y11 = Y22, tr Y = 1 and 2 Re Y12 = 1.5 ask for |Y12| > sqrt(Y11 Y22):
    # the linear system is consistent, its PSD part is empty (certified)
    refuse_programs_of_its_own(monkeypatch)
    S = OperatorSubspace(ambient_dim=3, basis=[np.eye(3), E(3, 0, 0) - E(3, 1, 1), E(3, 0, 1) + E(3, 1, 0)],
                         unital=True)
    values = [1.0, 0.0, 1.5]
    with pytest.raises(spectrahedron.SpectrahedronInfeasible, match="certified"):
        spectrahedron.reduce_spectrahedron(3, np.stack([*S.basis, np.eye(3)]), values + [1.0])
    assert not verify_state_on_subspace(values, S)
    assert verify_state_on_subspace([1.0, 0.0, 0.5], S)  # |Y12| = 1/4 <= Y11 = Y22 = 1/2 is reachable


# ------------------------------------------------------- extension intervals


def brute_force_offdiag_endpoint() -> tuple:
    # oracle for inf{c0 : c0 I + u X + v Y >= E11} via the 2x2 PSD closed
    # form det >= 0 & trace >= 0 on a grid, refined in c0.
    # The matrix is [[c0 - 1, u + iv], [u - iv, c0]], checked on the whole
    # (c0, u, v) grid at once.
    c0 = np.linspace(0.0, 3.0, 601)
    m00, m11 = (c0 - 1.0)[:, None, None], c0[:, None, None]
    u = np.linspace(-1, 1, 41)[:, None]
    v = np.linspace(-1, 1, 41)[None, :]
    det = m00 * m11 - (u * u + v * v)
    feasible = (m00 >= -1e-12) & (m00 + m11 >= -1e-12) & (det >= -1e-12)
    hits = np.flatnonzero(feasible.any(axis=(1, 2)))
    return c0[hits[0]] if hits.size else None


def chi_state(k: int) -> StateFunctional:
    return vector_state(np.eye(2)[k], MatrixStarAlgebra.full(2))


def test_extension_interval_offdiag_e11():
    S = offdiag_system()
    full = MatrixStarAlgebra.full(2)
    phi = chi_state(0).restrict(S)
    interval = extension_interval(phi, E(2, 0, 0), full)
    assert interval.min == pytest.approx(0.0, abs=1e-6)
    assert interval.max == pytest.approx(1.0, abs=1e-6)
    # cross-check the upper endpoint against the grid oracle
    assert brute_force_offdiag_endpoint() == pytest.approx(1.0, abs=6e-3)
    # witnesses attain and extend
    w_lo, w_hi = interval.witnesses
    assert w_lo.expect(E(2, 0, 0)) == pytest.approx(0.0, abs=1e-6)
    assert w_hi.expect(E(2, 0, 0)) == pytest.approx(1.0, abs=1e-6)


def test_extension_interval_degenerate_inside_span():
    S = offdiag_system()
    full = MatrixStarAlgebra.full(2)
    rng = np.random.default_rng(43)
    phi = StateFunctional(density=random_density(rng, 2), domain=S)
    t = S.element([0.3, -0.2, 0.5])
    interval = extension_interval(phi, t, full)
    assert interval.length == pytest.approx(0.0, abs=2e-6)
    assert interval.min == pytest.approx(phi.expect(t), abs=2e-6)


def test_extension_interval_scalar_domain():
    S = OperatorSubspace(ambient_dim=2, basis=[np.eye(2)], unital=True)
    phi = StateFunctional(density=np.eye(2) / 2, domain=S)
    interval = extension_interval(phi, np.diag([1.0, 5.0]), MatrixStarAlgebra.full(2))
    assert interval.min == pytest.approx(1.0, abs=1e-6)
    assert interval.max == pytest.approx(5.0, abs=1e-6)


def test_extension_interval_rejects_a_domain_outside_the_ambient_algebra():
    S = OperatorSubspace(ambient_dim=2, basis=[np.eye(2)], unital=True)
    phi = StateFunctional(density=np.diag([1.0, 0.0]), domain=S)
    with pytest.raises(InputError, match="not contained in the ambient algebra"):
        extension_interval(phi, E(2, 0, 0), MatrixStarAlgebra.from_basis([E(2, 0, 0)]))


def test_sandwich_property():
    # any convex combination of the two witnesses is an extension whose value
    # lies inside the interval
    S = offdiag_system()
    full = MatrixStarAlgebra.full(2)
    phi = chi_state(0).restrict(S)
    t = E(2, 0, 0)
    interval = extension_interval(phi, t, full)
    rng = np.random.default_rng(47)
    for _ in range(10):
        lam = float(rng.random())
        mix = lam * interval.witnesses[0].density + (1 - lam) * interval.witnesses[1].density
        psi = StateFunctional(density=mix, domain=full)
        assert interval.min - 1e-6 <= psi.expect(t) <= interval.max + 1e-6


# ------------------------------------------------------------------- UEP


def test_has_uep_chi1_fails_with_e11_witness():
    S = offdiag_system()
    result = has_uep(chi_state(0), S)
    assert not result.holds
    assert np.allclose(result.witness, E(2, 0, 0))
    assert result.interval.min == pytest.approx(0.0, abs=1e-6)
    assert result.interval.max == pytest.approx(1.0, abs=1e-6)


def test_has_uep_trivial_when_subspace_is_everything():
    full = MatrixStarAlgebra.full(2)
    rng = np.random.default_rng(53)
    psi = StateFunctional(density=random_density(rng, 2), domain=full)
    assert has_uep(psi, full.subspace()).holds


def block_supported_state(rng, domain) -> StateFunctional:
    d2 = random_density(rng, 2)
    density = np.zeros((3, 3), dtype=complex)
    density[:2, :2] = d2
    return StateFunctional(density=density, domain=domain)


def test_has_uep_ideal_block_states():
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    rng = np.random.default_rng(59)
    for _ in range(3):
        psi = block_supported_state(rng, full3)
        assert has_uep(psi, B.subspace()).holds


def test_has_uep_fails_with_mass_on_summand():
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    density = np.diag([0.3, 0.3, 0.4]).astype(complex)
    result = has_uep(StateFunctional(density=density, domain=full3), B.subspace())
    assert not result.holds
    assert result.interval.length > 1e-3


def test_has_uep_on_the_whole_algebra_solves_no_program(monkeypatch):
    # S = A = M2 (+) C: the extension set is one point on A, so every range
    # bound vanishes; checking each of the 5 basis intervals took 10 solves
    from opsyslab import sdp

    A = m2_plus_c()
    density = np.zeros((3, 3), dtype=complex)
    density[:2, :2] = 0.7 * random_density(np.random.default_rng(61), 2)
    density[2, 2] = 0.3
    calls = []
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    assert has_uep(StateFunctional(density=density, domain=A), A.subspace()).holds
    assert calls == []


def has_uep_by_intervals(psi, S):
    """UEP from the extension interval of every hermitian basis element."""
    from opsyslab.states import UEP_TOL, UepResult, _extension_set, _interval_from_set

    extension = _extension_set(psi.restrict(S))
    for t in psi.domain.hermitian_basis():
        interval = _interval_from_set(extension, t, psi.domain)
        if interval.length > UEP_TOL:
            return UepResult(holds=False, witness=t, interval=interval)
    return UepResult(holds=True, witness=None, interval=None)


def uep_cases():
    rng = np.random.default_rng(67)
    full3 = MatrixStarAlgebra.full(3)
    for _ in range(3):
        yield block_supported_state(rng, full3), m2_plus_c().subspace()
    for n, extra, rank in ((2, 1, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2), (3, 4, 3), (3, 7, 1)):
        mats = [np.eye(n, dtype=complex)]
        for _ in range(extra):
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((raw + raw.conj().T) / 2)
        vecs = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        density = vecs @ vecs.conj().T
        psi = StateFunctional(density=density / np.trace(density).real,
                              domain=MatrixStarAlgebra.full(n))
        yield psi, OperatorSubspace(ambient_dim=n, basis=mats, unital=True)


def test_has_uep_agrees_with_every_basis_interval():
    verdicts = set()
    for psi, S in uep_cases():
        got, want = has_uep(psi, S), has_uep_by_intervals(psi, S)
        verdicts.add(want.holds)
        assert got.holds == want.holds
        if not want.holds:
            assert np.array_equal(got.witness, want.witness)
            assert (got.interval.min, got.interval.max) == (want.interval.min, want.interval.max)
            for w_got, w_want in zip(got.interval.witnesses, want.interval.witnesses):
                assert np.array_equal(w_got.density, w_want.density)
    assert verdicts == {True, False}


# ------------------------------------------------------------------ purity


def test_vector_state_pure_on_full():
    full = MatrixStarAlgebra.full(2)
    omega = vector_state([1 / np.sqrt(2), 1 / np.sqrt(2)], full)
    assert is_pure(omega, full)


def test_restriction_to_diagonal_not_pure():
    diag = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    omega = vector_state([1 / np.sqrt(2), 1 / np.sqrt(2)], diag)
    assert not is_pure(omega, diag)


def test_trace_not_pure():
    full = MatrixStarAlgebra.full(2)
    tau = StateFunctional(density=np.eye(2) / 2, domain=full)
    assert not is_pure(tau, full)


def test_purity_matches_rank_on_full_algebra():
    rng = np.random.default_rng(61)
    full = MatrixStarAlgebra.full(3)
    for _ in range(4):
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pure = vector_state(xi, full)
        assert is_pure(pure, full)
        mixed = StateFunctional(density=random_density(rng, 3), domain=full)
        rank = int(np.sum(np.linalg.eigvalsh(mixed.density) > 1e-9))
        assert is_pure(mixed, full) == (rank == 1)


# ------------------------------------------------------------ decomposition


def test_pure_decomposition_single_atom():
    full = MatrixStarAlgebra.full(2)
    omega = vector_state([0.6, 0.8], full)
    dec = pure_decomposition(omega, full)
    assert len(dec.atoms) == 1
    assert dec.atoms[0][0] == pytest.approx(1.0, abs=1e-9)


def test_pure_decomposition_trace_on_m2():
    full = MatrixStarAlgebra.full(2)
    tau = StateFunctional(density=np.eye(2) / 2, domain=full)
    dec = pure_decomposition(tau, full)
    assert sorted(w for w, _ in dec.atoms) == pytest.approx([0.5, 0.5], abs=1e-9)
    for _, atom in dec.atoms:
        assert is_pure(atom, full)
    assert np.allclose(dec.mixture_density(), np.eye(2) / 2, atol=1e-8)


def test_pure_decomposition_restricted_vector_state():
    gamma = np.array([0.6, 0.8])
    diag = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    omega = vector_state(gamma, diag)
    dec = pure_decomposition(omega, diag)
    weights = sorted(w for w, _ in dec.atoms)
    assert weights == pytest.approx(sorted([0.36, 0.64]), abs=1e-9)
    # atoms are the two characters
    densities = sorted(float(atom.density[0, 0].real) for _, atom in dec.atoms)
    assert densities == pytest.approx([0.0, 1.0], abs=1e-8)


def test_pure_decomposition_block_algebra():
    rng = np.random.default_rng(67)
    B = m2_plus_c()
    psi = StateFunctional(density=np.diag([0.2, 0.3, 0.5]).astype(complex), domain=B)
    assert not is_pure(psi, B)
    dec = pure_decomposition(psi, B)
    assert len(dec.atoms) == 3
    assert abs(sum(w for w, _ in dec.atoms) - 1.0) < 1e-9
    for _, atom in dec.atoms:
        assert is_pure(atom, B)


def m2_tensor_i2() -> MatrixStarAlgebra:
    """M2 (x) I2 inside M4: one block M2 with multiplicity 2."""
    units = [np.kron(E(2, i, j), np.eye(2)) for i in range(2) for j in range(2)]
    return MatrixStarAlgebra.from_basis(units)


def partial_trace_second(rho):
    return np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))


def test_multiplicity_product_vector_state_is_one_atom():
    rng = np.random.default_rng(71)
    A = m2_tensor_i2()
    x, y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = vector_state(np.kron(x, y), A)
    assert is_pure(psi, A)
    dec = pure_decomposition(psi, A)
    assert len(dec.atoms) == 1
    assert dec.atoms[0][0] == pytest.approx(1.0, abs=1e-9)
    # the atom is the canonical density (x x* / |x|^2) (x) I/2
    expected = np.kron(np.outer(x, x.conj()) / np.vdot(x, x).real, np.eye(2) / 2)
    assert np.allclose(dec.atoms[0][1].density, expected, atol=1e-10)


def test_multiplicity_entangled_vector_state_is_mixed():
    A = m2_tensor_i2()
    psi = vector_state([1.0, 0.0, 0.0, 1.0], A)
    assert not is_pure(psi, A)
    assert sorted(w for w, _ in pure_decomposition(psi, A).atoms) == pytest.approx([0.5, 0.5], abs=1e-9)


def test_multiplicity_weights_are_twice_the_block_spectrum():
    rng = np.random.default_rng(73)
    A = m2_tensor_i2()
    rho = random_density(rng, 4)
    dec = pure_decomposition(StateFunctional(density=rho, domain=A), A)
    # E_A(rho) = D1 (x) I2 with compressed block density D1 = tr_2(rho) / 2
    block_spectrum = np.linalg.eigvalsh(partial_trace_second(rho) / 2)
    assert len(dec.atoms) == 2
    assert sorted(w for w, _ in dec.atoms) == pytest.approx(sorted(2 * block_spectrum), abs=1e-10)
    (_, a1), (_, a2) = dec.atoms
    for atom in (a1, a2):
        assert is_pure(atom, A)
    # distinct atoms, not one atom listed once per copy
    assert abs(np.trace(a1.density @ a2.density)) < 1e-10
    assert np.allclose(dec.mixture_density(), np.kron(partial_trace_second(rho), np.eye(2) / 2), atol=1e-10)


@pytest.mark.parametrize("decide", [is_pure, pure_decomposition])
def test_purity_rejects_a_non_unital_algebra(decide):
    A = MatrixStarAlgebra.from_basis([E(2, 0, 0)])
    with pytest.raises(InputError, match="unital"):
        decide(StateFunctional(density=np.diag([0.0, 1.0]).astype(complex), domain=A), A)


# ------------------------------------------------- pure majorizing states


def test_majorizing_state_trace_on_m2():
    full = MatrixStarAlgebra.full(2)
    tau = StateFunctional(density=np.eye(2) / 2, domain=full)
    a = np.diag([1.0, -1.0])
    psi = find_pure_majorizing_state(tau, a, full)
    assert abs(psi.expect(a)) >= abs(tau.expect(a)) - 1e-6
    assert abs(psi.expect(a)) == pytest.approx(1.0, abs=1e-6)


def test_majorizing_state_three_term_mixture_on_m4():
    rng = np.random.default_rng(71)
    full = MatrixStarAlgebra.full(4)
    raw = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    q, _ = np.linalg.qr(raw)
    t = np.array([0.5, 0.3, 0.2])
    density = sum(t[k] * np.outer(q[:, k], q[:, k].conj()) for k in range(3))
    theta = StateFunctional(density=density, domain=full)
    raw_a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (raw_a + raw_a.conj().T) / 2
    psi = find_pure_majorizing_state(theta, a, full)
    assert abs(psi.expect(a)) >= abs(theta.expect(a)) - 1e-6
    # oracle: best atom value from the density's own spectral decomposition
    lam, vecs = np.linalg.eigh(density)
    best = max(
        abs(np.vdot(vecs[:, k], a @ vecs[:, k]).real) for k in range(4) if lam[k] > 1e-9
    )
    assert abs(psi.expect(a)) == pytest.approx(best, abs=1e-5)


def test_atom_inheritance_block_states():
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    rng = np.random.default_rng(73)
    for _ in range(3):
        chi1 = block_supported_state(rng, full3)
        chi2 = block_supported_state(rng, full3)
        w = 0.25 + 0.5 * float(rng.random())
        combo = StateFunctional(density=w * chi1.density + (1 - w) * chi2.density, domain=full3)
        assert has_uep(combo, B.subspace()).holds
        assert has_uep(chi1, B.subspace()).holds
        assert has_uep(chi2, B.subspace()).holds


def test_pure_restriction_transfer():
    # pure state with UEP w.r.t. a subalgebra restricts to a pure state
    full3 = MatrixStarAlgebra.full(3)
    B = m2_plus_c()
    rng = np.random.default_rng(79)
    for _ in range(3):
        eta = np.zeros(3, dtype=complex)
        eta[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chi = vector_state(eta, full3)
        assert is_pure(chi, full3)
        assert has_uep(chi, B.subspace()).holds
        assert is_pure(chi.restrict(B), B)


def test_state_validation():
    full = MatrixStarAlgebra.full(2)
    with pytest.raises(InputError):
        StateFunctional(density=np.diag([1.5, -0.5]), domain=full)
    with pytest.raises(InputError):
        StateFunctional(density=np.diag([0.7, 0.7]), domain=full)


def _line_state():
    return StateFunctional(density=E(2, 0, 0), domain=OperatorSubspace(ambient_dim=2, basis=[np.eye(2)]))


DIAGONAL = [E(2, 0, 0), E(2, 1, 1)]
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, field, message", [
    (lambda: extension_interval(_line_state(), SWAP, MatrixStarAlgebra.from_basis(DIAGONAL)),
     "t", "element does not belong to the ambient algebra"),
    (lambda: extension_interval(_line_state(), E(2, 0, 0), MatrixStarAlgebra.from_basis([E(2, 0, 0)])),
     "phi", "the state's domain is not contained in the ambient algebra"),
    (lambda: has_uep(StateFunctional(density=E(2, 0, 0), domain=MatrixStarAlgebra.from_basis(DIAGONAL)),
                     OperatorSubspace(ambient_dim=2, basis=[np.eye(2), SWAP])),
     "S", "subspace is not contained in the state's algebra"),
    (lambda: StateFunctional(density=np.eye(2) * 0.3, domain=MatrixStarAlgebra.full(2)),
     "density", "density trace 0.6 is not 1"),
    (lambda: StateFunctional(density=np.diag([2.0, -1.0]), domain=MatrixStarAlgebra.full(2)),
     "density", "density has a negative eigenvalue -1.000e+00"),
])
def test_rejections_name_the_argument_at_fault(call, field, message):
    # `field` is the argument's name; the message is the one library callers always saw
    with pytest.raises(InputError) as info:
        call()
    assert (info.value.field, str(info.value)) == (field, message)
