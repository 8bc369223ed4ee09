"""Algebra generation, commutants, and GNS against small known cases."""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab.algebra import (
    MatrixStarAlgebra,
    OperatorSubspace,
    commutant,
    generate_algebra,
    gns,
    same_span,
    wedderburn,
)
from opsyslab.errors import InputError


def E(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


def offdiag_system(n=2):
    # span{I, E12, E21} as a hermitian-basis subspace
    X = E(n, 0, 1) + E(n, 1, 0)
    Y = 1j * E(n, 0, 1) - 1j * E(n, 1, 0)
    return OperatorSubspace(ambient_dim=n, basis=[np.eye(n), X, Y], unital=True)


def test_generate_full_m2():
    alg = generate_algebra(offdiag_system())
    assert alg.dim == 4
    assert alg.contains_identity


def test_generate_scalars():
    sub = OperatorSubspace(ambient_dim=2, basis=[np.eye(2)], unital=True)
    alg = generate_algebra(sub)
    assert alg.dim == 1


def test_generate_diagonal():
    sub = OperatorSubspace(
        ambient_dim=2, basis=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=True
    )
    alg = generate_algebra(sub)
    assert alg.dim == 2


def test_generate_rejects_dependent_basis():
    with pytest.raises(InputError):
        OperatorSubspace(ambient_dim=2, basis=[np.eye(2), 2 * np.eye(2)], unital=True)


def test_generate_idempotent():
    alg = generate_algebra(offdiag_system())
    sub = OperatorSubspace(ambient_dim=2, basis=alg.hermitian_basis(), unital=True)
    again = generate_algebra(sub)
    assert same_span(alg, again)


def test_commutant_of_full_is_scalars():
    alg = MatrixStarAlgebra.full(2)
    com = commutant(alg)
    assert com.dim == 1
    assert com.contains(np.eye(2))


def test_commutant_of_diagonal_is_itself():
    alg = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    com = commutant(alg)
    assert com.dim == 2
    assert same_span(com, alg)


def test_commutant_of_random_generated_pair():
    # C*(two random hermitians) in M3 is all of M3, so the commutant kernel
    # of the commutation system has dimension 1.
    rng = np.random.default_rng(31)
    mats = [np.eye(3, dtype=complex)]
    for _ in range(2):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        mats.append((raw + raw.conj().T) / 2)
    alg = generate_algebra(OperatorSubspace(ambient_dim=3, basis=mats, unital=True))
    assert alg.dim == 9
    assert commutant(alg).dim == 1


def test_bicommutant_recovers_span():
    # multiplicity-two copy of the diagonal algebra inside M4
    d1 = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    d2 = np.kron(np.diag([0.0, 1.0]), np.eye(2))
    alg = MatrixStarAlgebra.from_basis([d1, d2])
    dbl = commutant(commutant(alg))
    assert same_span(dbl, alg)


def rotated(mats, seed):
    n = len(mats[0])
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return [U @ M @ U.conj().T for M in mats]


def block_units(sizes, multiplicity=1):
    """Matrix units of (+) M_d (x) I_m over the block sizes d, one m for all."""
    n = sum(sizes) * multiplicity
    mats, offset = [], 0
    for d in sizes:
        for i in range(d):
            for j in range(d):
                M = np.zeros((n, n), dtype=complex)
                M[offset:offset + d * multiplicity, offset:offset + d * multiplicity] = np.kron(
                    E(d, i, j), np.eye(multiplicity))
                mats.append(M)
        offset += d * multiplicity
    return mats


def commutant_kernel_by_loop(A):
    """The commutant's kernel matrix built one Kronecker product per basis element."""
    n = A.ambient_dim
    eye = np.eye(n, dtype=complex)
    K = np.zeros((n * n, n * n), dtype=complex)
    for B in A.basis:
        C = np.kron(eye, B.T) - np.kron(B, eye)
        C /= max(float(np.linalg.norm(B)), 1.0)
        K += C.conj().T @ C
    return K


@pytest.mark.parametrize("sizes, multiplicity", [((2, 1), 1), ((1, 1, 1), 1), ((1, 1), 2), ((2,), 2)])
def test_commutant_kernel_matches_the_kronecker_loop(monkeypatch, sizes, multiplicity):
    from opsyslab import algebra

    A = MatrixStarAlgebra.from_basis(rotated(block_units(sizes, multiplicity), 5))
    seen = []
    eigh_k = algebra.eigh_coefficient_space
    monkeypatch.setattr(algebra, "eigh_coefficient_space", lambda K: seen.append(K) or eigh_k(K))
    com = commutant(A)
    assert np.abs(seen[0] - commutant_kernel_by_loop(A)).max() <= 1e-12
    assert com.dim == len(sizes) * multiplicity**2


@pytest.mark.parametrize(
    "sizes, multiplicity",
    [((2,), 2), ((1, 1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((1, 1), 2), ((2, 1), 2), ((8, 8), 1)],
)
def test_wedderburn_recovers_blocks_and_multiplicities(sizes, multiplicity):
    A = MatrixStarAlgebra.from_basis(rotated(block_units(sizes, multiplicity), 3))
    blocks = wedderburn(A)
    assert sorted((V.shape[1], m) for V, m in blocks) == sorted((d, multiplicity) for d in sizes)
    for V, _ in blocks:
        assert np.allclose(V.conj().T @ V, np.eye(V.shape[1]), atol=1e-10)
        # V* A V is all of M_d, and V's range is invariant under A
        compressed = MatrixStarAlgebra.from_basis(V.conj().T @ A.basis @ V, check_closure=False)
        assert compressed.dim == V.shape[1] ** 2
        assert np.allclose(A.basis @ V, V @ (V.conj().T @ A.basis @ V), atol=1e-10)


def test_wedderburn_of_full_algebra_is_the_identity_block():
    [(V, m)] = wedderburn(MatrixStarAlgebra.full(3))
    assert m == 1 and np.array_equal(V, np.eye(3))


def test_wedderburn_rejects_non_unital():
    with pytest.raises(InputError, match="unital"):
        wedderburn(MatrixStarAlgebra.from_basis([E(2, 0, 0)]))


def vector_state(xi):
    xi = np.asarray(xi, dtype=complex)
    return lambda M: complex(xi.conj() @ (M @ xi))


def test_gns_vector_state_on_m2():
    data = gns(vector_state([1.0, 0.0]), MatrixStarAlgebra.full(2))
    assert data.rep_dim == 2
    assert commutant(data.image_algebra()).dim == 1


def test_gns_character_on_diagonal():
    alg = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    data = gns(np.diag([1.0, 0.0]).astype(complex), alg)
    assert data.rep_dim == 1


def test_gns_trace_on_m2():
    data = gns((np.eye(2) / 2).astype(complex), MatrixStarAlgebra.full(2))
    assert data.rep_dim == 4
    assert commutant(data.image_algebra()).dim == 4


def test_gns_rejects_non_positive():
    with pytest.raises(InputError):
        gns(np.diag([2.0, -1.0]).astype(complex), MatrixStarAlgebra.full(2))


def test_gns_restriction_embedding():
    # Gram matrix of a restriction equals the compression of the larger Gram
    # matrix when the small basis is a prefix of the big one.
    rng = np.random.default_rng(37)
    for seed in range(5):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dens = raw @ raw.conj().T
        dens = dens / np.trace(dens).real
        small = MatrixStarAlgebra.from_basis(
            [np.kron(E(2, i, j), np.eye(2)) for i in range(2) for j in range(2)],
            check_closure=False,
        )
        big_mats = list(small.basis) + [
            np.kron(E(2, i, j), E(2, k, l))
            for i in range(2)
            for j in range(2)
            for k in range(2)
            for l in range(2)
        ]
        big = MatrixStarAlgebra.from_basis(big_mats, check_closure=False)
        assert big.dim == 16
        assert all(np.allclose(a, b) for a, b in zip(small.basis, big.basis[: small.dim]))
        g_small = gns(dens, small).gram
        g_big = gns(dens, big).gram
        assert np.allclose(g_small, g_big[: small.dim, : small.dim], atol=1e-9)


def test_hermitian_basis_full_order():
    alg = MatrixStarAlgebra.full(2)
    hb = alg.hermitian_basis()
    assert np.allclose(hb[0], np.diag([1.0, 0.0]))
    assert np.allclose(hb[1], np.diag([0.0, 1.0]))
    assert len(hb) == 4


def test_riesz_density_roundtrip():
    alg = MatrixStarAlgebra.from_basis(
        [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])], check_closure=False
    )
    hb = alg.hermitian_basis()
    target = np.diag([0.25, 0.375, 0.375])
    values = [float(np.vdot(h, target).real) for h in hb]
    D = alg.riesz_density(values)
    assert np.allclose(D, target, atol=1e-10)
