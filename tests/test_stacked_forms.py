"""The stacked evaluations of the extension path against the per-element
forms they replaced, bit for bit.

Each per-element form is kept here as the reference: a state's values on a
basis (`expect` on each matrix), the witness agreement loop, an operator
subspace's basis (`hermitian` on each matrix), the Choi constraints (the
`np.kron` double loop) and the triangle indices of facial reduction's
coordinate maps (fresh `np.triu_indices`).  Bases carry signed zeros, so a
stacked form that changed the sign of a zero would fail too.
"""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab import spectrahedron
from opsyslab.algebra import MatrixStarAlgebra, OperatorSubspace
from opsyslab.hermitian import hermitian, hermitian_part
from opsyslab.rigidity import _choi_constraints
from opsyslab.states import WITNESS_AGREE_TOL, StateFunctional, _witness_agrees


def random_hermitian(rng, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw + raw.conj().T) / 2.0


def random_density(rng, n: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    d = g @ g.conj().T
    return d / np.trace(d).real


def bases(rng):
    """(n, stack): random hermitian stacks, with and without the identity,
    off-hermitian noise and signed zeros, and the full algebras' bases."""
    for n in range(1, 7):
        for k in (1, 2, n * n):
            stack = np.stack([random_hermitian(rng, n) for _ in range(k)])
            stack[0] = np.eye(n)
            yield n, stack
            noisy = stack + 1e-12 * rng.standard_normal(stack.shape)
            noisy.real[np.abs(noisy.real) < 0.3] = -0.0
            yield n, noisy
    for n in range(1, 5):
        yield n, MatrixStarAlgebra.full(n).hermitian_basis()


def expect_each(phi: StateFunctional, basis) -> np.ndarray:
    return np.array([phi.expect(b) for b in basis])


def test_values_on_is_expect_on_each_matrix():
    rng = np.random.default_rng(22)
    for n, basis in bases(rng):
        for rank in range(1, n + 1):
            phi = StateFunctional(density=random_density(rng, n, rank), domain=MatrixStarAlgebra.full(n))
            stacked, reference = phi.values_on(basis), expect_each(phi, basis)
            assert stacked.dtype == reference.dtype == np.float64
            assert stacked.tobytes() == reference.tobytes()


def agrees_by_loop(w: StateFunctional, basis, values) -> bool:
    for b, v in zip(basis, values):
        if abs(w.expect(b) - v) > WITNESS_AGREE_TOL * (1.0 + abs(v)):
            return False
    return True


def test_witness_check_decides_as_its_loop():
    rng = np.random.default_rng(23)
    # offsets in units of the tolerance, on both sides of the cut and at it
    steps = [0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e3]
    verdicts = set()
    for n, basis in bases(rng):
        w = StateFunctional(density=random_density(rng, n, n), domain=MatrixStarAlgebra.full(n))
        exact = expect_each(w, basis)
        for step in steps:
            for sign in (1.0, -1.0):
                for i in (0, len(basis) - 1):
                    values = exact.copy()
                    values[i] += sign * step * WITNESS_AGREE_TOL * (1.0 + abs(values[i]))
                    verdict = _witness_agrees(w, basis, values)
                    assert verdict == agrees_by_loop(w, basis, values)
                    verdicts.add(verdict)
        values = exact.copy()
        values[-1] = np.nan  # a NaN comparison is false in both forms
        assert _witness_agrees(w, basis, values) == agrees_by_loop(w, basis, values)
    assert verdicts == {True, False}


def test_subspace_basis_is_hermitian_of_each_matrix():
    rng = np.random.default_rng(24)
    for n, basis in bases(rng):
        if len(basis) > 1 and np.linalg.matrix_rank(basis.reshape(len(basis), -1)) < len(basis):
            continue
        S = OperatorSubspace(ambient_dim=n, basis=list(basis), unital=False)
        reference = np.stack([hermitian(b) for b in basis])
        assert S.basis.tobytes() == reference.tobytes()
        assert S.basis.shape == reference.shape and not S.basis.flags.writeable


def choi_constraints_by_loop(S: OperatorSubspace, n: int) -> list:
    out = []
    full_herm = MatrixStarAlgebra.full(n).hermitian_basis()
    eye = np.eye(n, dtype=complex)
    for U in full_herm:
        out.append((np.kron(eye, U), float(np.trace(U).real)))
    for s in S.basis:
        for U in full_herm:
            A = np.kron(s.T, U)
            out.append((hermitian_part(A), float(np.trace(s @ U).real)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_constraints_are_the_kron_double_loop(n):
    rng = np.random.default_rng(25 + n)
    subspaces = [MatrixStarAlgebra.full(n).subspace()] if n < 4 else []
    for extra in range(min(3, n * n - 1) + 1):
        mats = [np.eye(n)] + [random_hermitian(rng, n) for _ in range(extra)]
        subspaces.append(OperatorSubspace(ambient_dim=n, basis=mats, unital=True))
    for S in subspaces:
        stacked, reference = _choi_constraints(S, n), choi_constraints_by_loop(S, n)
        assert isinstance(stacked, list) and len(stacked) == len(reference) == n * n * (1 + S.dim)
        for (A, b), (A_ref, b_ref) in zip(stacked, reference):
            assert A.shape == A_ref.shape and A.tobytes() == A_ref.tobytes()
            assert type(b) is float and np.float64(b).tobytes() == np.float64(b_ref).tobytes()


def real_coords_fresh(A: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(A.shape[-1], k=1)
    upper = A[:, iu[0], iu[1]]
    return np.concatenate(
        [np.diagonal(A, axis1=1, axis2=2).real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag],
        axis=1,
    )


def from_real_coords_fresh(x: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d, k=1)
    k = iu[0].size
    A = np.zeros((len(x), d, d), dtype=complex)
    A[:, np.arange(d), np.arange(d)] = x[:, :d]
    upper = (x[:, d : d + k] + 1j * x[:, d + k :]) / np.sqrt(2.0)
    A[:, iu[0], iu[1]] = upper
    A[:, iu[1], iu[0]] = upper.conj()
    return A


def test_cached_triangle_indices_are_fresh_ones():
    rng = np.random.default_rng(26)
    for d in range(1, 65):
        cached, fresh = spectrahedron._upper(d), np.triu_indices(d, k=1)
        assert cached is spectrahedron._upper(d)
        for got, want in zip(cached, fresh, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    for d in range(1, 7):
        A = hermitian_part(np.stack([random_hermitian(rng, d) for _ in range(3)]))
        coords = spectrahedron._real_coords(A)
        assert coords.tobytes() == real_coords_fresh(A).tobytes()
        back = spectrahedron._from_real_coords(coords, d)
        assert back.tobytes() == from_real_coords_fresh(coords, d).tobytes()
        assert np.allclose(back, A, rtol=0, atol=1e-15)


def test_a_dropped_imaginary_part_fails_the_suite():
    with pytest.raises(RuntimeWarning) as exc:
        np.array([1j]).astype(float)
    assert type(exc.value).__name__ == "ComplexWarning"
