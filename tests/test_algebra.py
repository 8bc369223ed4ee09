"""Algebra generation, the closure check and block decomposition against small known cases."""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab import algebra
from opsyslab.algebra import (
    MAX_AMBIENT,
    MatrixStarAlgebra,
    OperatorSubspace,
    generate_algebra,
    span_coefficients,
    wedderburn,
)
from opsyslab.errors import InputError, NumericalFailureError


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
    assert again.dim == alg.dim
    assert np.all(span_coefficients(alg.basis, again.basis)[1] <= 1e-8)
    assert np.all(span_coefficients(again.basis, alg.basis)[1] <= 1e-8)


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
        compressed = MatrixStarAlgebra.from_basis(V.conj().T @ A.basis @ V)
        assert compressed.dim == V.shape[1] ** 2
        assert np.allclose(A.basis @ V, V @ (V.conj().T @ A.basis @ V), atol=1e-10)


def test_wedderburn_of_full_algebra_is_the_identity_block():
    [(V, m)] = wedderburn(MatrixStarAlgebra.full(3))
    assert m == 1 and np.array_equal(V, np.eye(3))


def test_wedderburn_rejects_non_unital():
    with pytest.raises(InputError, match="unital"):
        wedderburn(MatrixStarAlgebra.from_basis([E(2, 0, 0)]))


def test_hermitian_basis_full_order():
    alg = MatrixStarAlgebra.full(2)
    hb = alg.hermitian_basis()
    assert np.allclose(hb[0], np.diag([1.0, 0.0]))
    assert np.allclose(hb[1], np.diag([0.0, 1.0]))
    assert len(hb) == 4


@pytest.mark.parametrize(
    "mats, message",
    [([E(2, 0, 1)], "not adjoint-closed"), ([np.diag([1.0, -1.0])], "not closed under multiplication")],
)
def test_from_basis_rejects_a_span_that_is_not_star_closed(mats, message):
    with pytest.raises(InputError, match=message):
        MatrixStarAlgebra.from_basis(mats)


@pytest.mark.parametrize("mats, dim", [
    ([2.0**512 * np.eye(1)], 1),  # its squared norm overflowed: the span came out without I
    ([np.eye(2), 2.0**600 * E(2, 0, 0)], 2),  # I must survive the rescale: the cut's floor moves with it
])
def test_huge_spanning_matrices_keep_their_span(recwarn, mats, dim):
    alg = MatrixStarAlgebra.from_basis(mats)
    assert alg.dim == dim and alg.contains_identity
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_spanning_list_of_mn_is_mn_without_the_closure_products(monkeypatch, n):
    # a span of M_n is closed by definition: no closure check, and the
    # hermitian basis is M_n's standard one, bit for bit
    calls = []
    verify = MatrixStarAlgebra.verify_closure
    monkeypatch.setattr(MatrixStarAlgebra, "verify_closure", lambda self: calls.append(self.dim) or verify(self))
    rng = np.random.default_rng(n)
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    rotated = [U @ E(n, i, j) @ U.conj().T for i in range(n) for j in range(n)]
    alg = MatrixStarAlgebra.from_basis(rotated + [np.eye(n)])  # a redundant member changes nothing
    assert calls == []
    assert alg.dim == n * n and alg.contains_identity
    assert alg.hermitian_basis().tobytes() == MatrixStarAlgebra.full(n).hermitian_basis().tobytes()
    (V, copies), = wedderburn(alg)
    assert copies == 1 and np.array_equal(V, np.eye(n))
    # a proper algebra still pays the check
    MatrixStarAlgebra.from_basis(rotated[:1] + [np.eye(n) - rotated[0]])
    assert calls == [2]


def test_the_one_constructor_reads_its_flags_off_the_basis():
    for basis, unital, full in [
        (np.eye(4, dtype=complex).reshape(4, 2, 2), True, True),
        (algebra.orthonormalize(np.stack([np.eye(3), E(3, 0, 0)])), True, False),
        (algebra.orthonormalize(np.stack([E(3, 0, 0), E(3, 1, 1)])), False, False),
    ]:
        alg = MatrixStarAlgebra(basis)
        assert (alg.ambient_dim, alg.contains_identity, alg.dim == alg.ambient_dim ** 2) == (
            basis.shape[-1], unital, full)


def test_package_exports_resolve_once_and_drop_the_removed_algebra_names():
    import opsyslab

    assert all(hasattr(opsyslab, name) for name in opsyslab.__all__)
    assert len(set(opsyslab.__all__)) == len(opsyslab.__all__)
    assert not {"gns", "commutant", "GnsData"} & set(opsyslab.__all__)


def test_from_basis_rejects_an_ambient_above_the_limit_before_any_closure_work(monkeypatch):
    # the 289 hermitian units of M17 are one past MAX_AMBIENT; neither
    # Gram-Schmidt nor the k^3 n^2 closure check may start
    n = MAX_AMBIENT + 1

    def refuse(*args, **kwargs):
        raise AssertionError("closure work started")

    monkeypatch.setattr(algebra, "orthonormalize", refuse)
    monkeypatch.setattr(MatrixStarAlgebra, "verify_closure", refuse)
    units = [E(n, i, i) for i in range(n)] + [
        M for i in range(n) for j in range(i + 1, n)
        for M in (E(n, i, j) + E(n, j, i), 1j * (E(n, i, j) - E(n, j, i)))]
    assert len(units) == n * n
    with pytest.raises(InputError, match=f"algebra ambient dimension {n} exceeds {MAX_AMBIENT}"):
        MatrixStarAlgebra.from_basis(units)


@pytest.mark.parametrize("basis, message", [
    ([np.eye(3)], "expected dimension 2, got 3"),
    ([np.eye(2), np.eye(3)], "expected dimension 2, got 3"),  # a ragged stack: the first matrix at fault
    ([np.ones((2, 3))], "expected a square matrix"),
    (np.eye(2), "expected a square matrix"),  # one matrix, not a list of them
    ([np.eye(2), [[1.0, 0.0], [0.0]]], "expected a square matrix"),  # ragged rows
    ([E(2, 0, 1)], "matrix is not hermitian: max |A - A*| = 1.000e+00"),
    ([np.diag([np.nan, 1.0])], "matrix entries must be finite (no NaN/Inf)"),
    ([np.diag([np.inf, 1.0])], "matrix entries must be finite (no NaN/Inf)"),
])
def test_subspace_rejects_a_bad_basis_with_its_message(basis, message):
    # a library caller's errors, with no parser in front to name a field;
    # a ragged basis is an InputError, never numpy's ValueError
    with pytest.raises(InputError) as exc:
        OperatorSubspace(ambient_dim=2, basis=basis, unital=False)
    assert str(exc.value) == message


def test_full_algebra_is_one_read_only_object_per_dimension():
    for n in (1, 2, 3, MAX_AMBIENT):
        full = MatrixStarAlgebra.full(n)
        assert full is MatrixStarAlgebra.full(n)
        assert full.hermitian_basis() is MatrixStarAlgebra.full(n).hermitian_basis()
        assert not full.basis.flags.writeable and not full.hermitian_basis().flags.writeable
    # above the algebra limit nothing is kept: each call builds its own
    big = MatrixStarAlgebra.full(MAX_AMBIENT + 1)
    assert big is not MatrixStarAlgebra.full(MAX_AMBIENT + 1) and big.dim == (MAX_AMBIENT + 1) ** 2


@pytest.mark.parametrize("scale", [1e150, 1e200, 2.0**900])
def test_subspace_layer_answers_on_scaled_data_without_overflow(scale):
    # Gram matrix, norms and residuals are formed on data scaled by a power
    # of two; a RuntimeWarning (overflow, invalid value) would fail here
    S = OperatorSubspace(ambient_dim=2, basis=[scale * np.eye(2), scale * np.diag([1.0, -1.0])], unital=True)
    assert S.identity_in_span() == pytest.approx([1.0 / scale, 0.0], rel=1e-12, abs=1e-12 / scale)
    coeffs, resid = S.coefficients_of(scale * np.diag([3.0, 1.0]))
    assert coeffs == pytest.approx([2.0, 1.0], rel=1e-12) and resid <= 1e-12 * scale
    with pytest.raises(InputError, match="not in the subspace"):
        S.coefficients_of(scale * E(2, 0, 1) + scale * E(2, 1, 0))
    full = MatrixStarAlgebra.full(2)
    assert full.contains(scale * np.eye(2)) and full.contains(S.basis)
    assert not MatrixStarAlgebra.from_basis([np.eye(2)]).contains(scale * np.diag([1.0, -1.0]))


@pytest.mark.parametrize("scale", [1e-9, 1e-160])
def test_tiny_matrices_are_members_only_of_spans_that_hold_them(scale):
    # membership is decided on each matrix scaled by a power of two, so a
    # tiny matrix is not a member of every span
    Z = np.diag([1.0, -1.0])
    assert not MatrixStarAlgebra.from_basis([np.eye(2)]).contains(scale * Z)
    assert not MatrixStarAlgebra.from_basis([np.eye(2)]).contains(np.stack([np.eye(2), scale * Z]))
    assert MatrixStarAlgebra.from_basis([np.eye(2), Z]).contains(scale * Z)
    unit = OperatorSubspace(ambient_dim=2, basis=[np.eye(2)], unital=True)
    with pytest.raises(InputError, match="not in the subspace"):
        unit.coefficients_of(scale * Z)
    coeffs, resid = unit.coefficients_of(scale * np.eye(2))
    assert coeffs == pytest.approx([scale], rel=1e-15) and resid <= 1e-15 * scale


def test_scaling_keeps_the_bits_of_unscaled_data():
    # below 2^500 the scale is exactly 1, so the Gram matrix keeps its bits
    top = np.nextafter(2.0**500, 0.0)
    assert algebra.pow2_scale(np.full((1, 2, 2), top)) == 1.0
    assert algebra.pow2_scale(np.full((1, 2, 2), 2.0**500)) == 0.5
    assert algebra.pow2_scale(np.zeros((1, 2, 2))) == 1.0
    # the band's lower edge: a peak of 1/2 keeps its bits, a smaller one is scaled up
    assert algebra.pow2_scale(np.full((1, 2, 2), 0.5)) == 1.0
    assert algebra.pow2_scale(np.full((1, 2, 2), np.nextafter(0.5, 0.0))) == 2.0
    assert 0.5 <= algebra.pow2_scale(np.full((1, 2, 2), 1e-160)) * 1e-160 < 1.0
    assert algebra.pow2_scale(np.stack([np.eye(2), 2.0**-40 * np.eye(2)]), axis=(-2, -1)).ravel().tolist() == [
        1.0, 2.0**39]  # each matrix on its own: 2^-40 is brought to 1/2
    # a subnormal peak is left alone, and the independence check refuses it
    assert algebra.pow2_scale(np.full((1, 2, 2), 1e-310)) == 1.0
    with pytest.raises(InputError, match="not linearly independent"):
        OperatorSubspace(ambient_dim=2, basis=[1e-310 * np.eye(2)], unital=True)
    rng = np.random.default_rng(8)
    for k in range(1, 4):
        raw = rng.standard_normal((k, 3, 3)) + 1j * rng.standard_normal((k, 3, 3))
        S = OperatorSubspace(ambient_dim=3, basis=raw + raw.conj().swapaxes(1, 2), unital=False)
        assert S._gram.tobytes() == algebra._real_gram(S.basis).tobytes()


@pytest.mark.parametrize("entry", [None, (0, 1)])
def test_non_finite_gram_matrix_is_a_numerical_failure(monkeypatch, entry):
    # Independence is read from the eigenvalues of the normalized Gram
    # matrix; a NaN there fails their checks instead of passing as a verdict.
    gram = algebra._real_gram

    def corrupted(stack):
        G = gram(stack)
        G[entry if entry is not None else ...] = np.nan
        return G

    monkeypatch.setattr(algebra, "_real_gram", corrupted)
    with pytest.raises(NumericalFailureError):
        OperatorSubspace(ambient_dim=2, basis=[np.eye(2), np.diag([1.0, -1.0])], unital=False)


def test_subspace_beyond_the_coefficient_limit_is_rejected():
    # The hermitian units of M17 span 289 real dimensions; 256 of them form
    # a subspace, 257 exceed the coefficient-space limit.
    n = 17
    units = []
    for p in range(n):
        for q in range(p, n):
            units.append(E(n, p, q) + E(n, q, p) if p != q else E(n, p, p))
            if p != q:
                units.append(1j * E(n, p, q) - 1j * E(n, q, p))
    assert OperatorSubspace(ambient_dim=n, basis=units[:256], unital=False).dim == 256
    with pytest.raises(InputError) as err:
        OperatorSubspace(ambient_dim=n, basis=units[:257], unital=False)
    assert str(err.value) == "coefficient-space dimension 257 exceeds 256"
