"""The stacked evaluations of the extension and order paths against the
per-element forms they replaced, bit for bit.

Each per-element form is kept here as the reference: a state's values on a
basis (`expect` on each matrix), the witness agreement loop, an operator
subspace's basis (`hermitian` on each matrix), the Choi constraints (the
`np.kron` double loop), the triangle indices of facial reduction's
coordinate maps (fresh `np.triu_indices`), the full algebra's hermitian
basis (built from eye(n^2) by fancy indexing), a block's own
[constant, *coefficients] stack, and the per-n verification of the Riesz
sequence.  Bases carry signed zeros, so a stacked form that changed the sign
of a zero would fail too.
"""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab import limits, rigidity, sdp, spectrahedron
from opsyslab.algebra import MatrixStarAlgebra, OperatorSubspace
from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import CoefficientStack, eigenvalues, hermitian, hermitian_checked, hermitian_part
from opsyslab.rigidity import InterpolationRequest, _choi_constraints, riesz_sequence
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
        S = OperatorSubspace(list(basis), unital=False)
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
        subspaces.append(OperatorSubspace(mats, unital=True))
    for S in subspaces:
        (mats, values), reference = _choi_constraints(S, n), choi_constraints_by_loop(S, n)
        assert mats.dtype == complex and values.dtype == float
        assert len(mats) == len(values) == len(reference) == n * n * (1 + S.dim)
        for A, b, (A_ref, b_ref) in zip(mats, values, reference):
            assert A.shape == A_ref.shape and A.tobytes() == A_ref.tobytes()
            assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()


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


def full_hermitian_basis_by_units(n: int) -> np.ndarray:
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    i, j = np.triu_indices(n, 1)
    upper, lower = units[i * n + j], units[j * n + i]
    pairs = np.stack([upper + lower, 1.0j * (upper - lower)], axis=1)
    return np.concatenate([units[:: n + 1], pairs.reshape(-1, n, n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_full_hermitian_basis_is_the_units_construction(n):
    got, want = MatrixStarAlgebra.full(n).hermitian_basis(), full_hermitian_basis_by_units(n)
    assert got.shape == want.shape == (n * n, n, n) and got.dtype == want.dtype
    assert got.view(float).tobytes() == want.view(float).tobytes()
    assert (np.signbit(got.view(float)) == np.signbit(want.view(float))).all()
    assert np.signbit(got.real).sum() == n * (n - 1) // 2  # the -0.0 of each -i entry
    assert not got.flags.writeable


def block_by_own_stack(constant, coefficients):
    """(constant, coefficients) as a block checked its own [F0, *F] stack."""
    stack = hermitian_checked(np.array([constant, *coefficients], dtype=complex), (3,))
    return stack[0], stack[1:]


def test_blocks_on_a_shared_stack_are_blocks_on_raw_lists():
    rng = np.random.default_rng(27)
    for n, basis in bases(rng):
        shared = CoefficientStack(basis)
        for constant in (random_hermitian(rng, n), np.eye(n), -hermitian(basis[0])):
            on_shared, on_list = sdp.LmiBlock(constant, shared), sdp.LmiBlock(constant, list(basis))
            want_constant, want_coefficients = block_by_own_stack(constant, basis)
            assert on_shared.coefficients is shared.mats and on_list.constant.base is on_list.coefficients.base
            for blk in (on_shared, on_list):
                assert blk.constant.tobytes() == want_constant.tobytes()
                assert blk.coefficients.tobytes() == want_coefficients.tobytes()
                assert (blk.dim, blk.num_vars) == (n, len(basis))
                assert not (blk.constant.flags.writeable or blk.coefficients.flags.writeable)


def test_a_negated_stack_is_the_checked_negation():
    # -stack is -F*, unchecked; it has the bits a block on -F had, signed
    # zeros included, for a checked F such as a subspace's basis
    rng = np.random.default_rng(31)
    for n, basis in bases(rng):
        stack = CoefficientStack(basis)
        neg = -stack
        want = block_by_own_stack(np.eye(n), -stack.mats)[1]
        assert neg.mats.view(float).tobytes() == want.view(float).tobytes()
        assert (np.signbit(neg.mats.view(float)) == np.signbit(want.view(float))).all()
        assert neg.mats.flags.c_contiguous and not neg.mats.flags.writeable
    # the full algebra's own basis is not a checked stack: its -i entries
    # carry -0.0 real parts, so a block on -hb needs -hb checked itself
    hb = MatrixStarAlgebra.full(3).hermitian_basis()
    assert (-CoefficientStack(hb)).mats.view(float).tobytes() != CoefficientStack(-hb).mats.view(float).tobytes()


def error_message(build) -> str:
    with pytest.raises(InputError) as exc:
        build()
    return str(exc.value)


def test_a_shared_stack_rejects_what_a_raw_list_rejects():
    rng = np.random.default_rng(28)
    basis = np.stack([random_hermitian(rng, 3) for _ in range(2)])
    shared = CoefficientStack(basis)
    nan = np.eye(3)
    nan[1, 2] = np.nan
    skew = np.eye(3) + np.triu(np.ones((3, 3)), 1)
    for constant in (nan, skew, np.eye(2), np.eye(3)[:2], np.ones(3)):
        message = error_message(lambda: sdp.LmiBlock(constant, shared))
        assert message == error_message(lambda: sdp.LmiBlock(constant, list(basis)))
    ragged = [basis[0], np.eye(2)]
    message = error_message(lambda: CoefficientStack(ragged))
    assert message == error_message(lambda: sdp.LmiBlock(np.eye(3), ragged))
    assert message == "all block coefficients must match the constant's shape"


def betas_by_loop(req, problems, solutions) -> list:
    """riesz_sequence's per-n verification and sum, as it was written."""
    hb, na = req.B.hermitian_basis(), float(np.abs(eigenvalues(req.a)).max())
    out = []
    for n, (blocks, sol) in enumerate(zip(problems, solutions), start=1):
        if sol.status == sdp.INFEASIBLE:
            raise rigidity.InfeasibleInterpolation(
                f"no interpolant exists at n={n}: bound lists are inconsistent", sol.dual_certificate)
        if sol.status == sdp.NUMERICAL_FAILURE:
            raise NumericalFailureError(f"interpolation SDP failed: {sol.message}")
        slacks = np.stack([blk.slack(sol.x) for blk in blocks])
        if not eigenvalues(slacks)[:, 0].min() >= -rigidity.INSTANCE_TOL * (1.0 + na):
            raise NumericalFailureError(f"interpolant at n={n} violates its blocks")
        out.append(hermitian_part(sum(x * h for x, h in zip(sol.x, hb))))
    return out


def riesz_requests(rng):
    """Full and diagonal algebras; with a < 0 in the diagonal one every x_i is
    negative, so every term x_i h_i carries -0.0 entries."""
    for n in (2, 3, 4):
        diagonal = MatrixStarAlgebra.from_basis([np.diag(e) for e in np.eye(n)])
        for B, shift in ((MatrixStarAlgebra.full(n), 0.0), (diagonal, 0.0), (diagonal, -3.0)):
            a = hermitian_part(B.project(random_hermitian(rng, n))) + shift * np.eye(n)
            lam = np.linalg.eigvalsh(a)
            yield InterpolationRequest(B=B, a=a, lowers=[(lam[0] - 0.3) * np.eye(n)],
                                       uppers=[(lam[-1] + 0.2) * np.eye(n), (lam[-1] + 1.0) * np.eye(n)],
                                       epsilon=0.5, N=7)


SOLVE_BATCH = sdp.check_feasibility_batch


def run_both(monkeypatch, req, edit=None):
    """(outcome of riesz_sequence, outcome of the loop) on the same solutions,
    each the betas or the raised exception; `edit` may replace solutions."""
    seen = {}

    def recorded(problems, settings=sdp.DEFAULT_SETTINGS):
        solutions = SOLVE_BATCH(problems, settings)
        seen.update(problems=problems, solutions=edit(problems, solutions) if edit else solutions)
        return seen["solutions"]

    monkeypatch.setattr(sdp, "check_feasibility_batch", recorded)
    outcomes = []
    for run in (lambda: riesz_sequence(req), lambda: betas_by_loop(req, seen["problems"], seen["solutions"])):
        try:
            outcomes.append(run())
        except (NumericalFailureError, rigidity.InfeasibleInterpolation) as exc:
            outcomes.append(exc)
    return outcomes, seen["solutions"]


@pytest.mark.parametrize("entries", [None, 1 << 20, 48])
def test_riesz_betas_keep_the_bits_of_the_loop(monkeypatch, entries):
    # `entries` shrinks the chunks, down to one program per chunk
    if entries:
        monkeypatch.setattr(limits, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(29)
    negative = 0
    for req in riesz_requests(rng):
        (got, want), solutions = run_both(monkeypatch, req)
        assert len(got) == len(want) == req.N
        for g, w in zip(got, want):
            assert g.view(float).tobytes() == w.view(float).tobytes()
            assert (np.signbit(g.view(float)) == np.signbit(w.view(float))).all()
        negative += all((sol.x < 0).all() for sol in solutions)
    assert negative >= 3


def with_x(x_of):
    """An edit that sets each OPTIMAL program's x to x_of(n, x)."""
    def edit(problems, solutions):
        return [sdp.SdpSolution(status=sol.status, value=sol.value, x=x_of(n, sol.x))
                if sol.status == sdp.OPTIMAL else sol for n, sol in enumerate(solutions, start=1)]
    return edit


def with_status(changes):
    """An edit that ends program n (from 1) with the given status."""
    def edit(problems, solutions):
        out = list(solutions)
        for n, status in changes.items():
            certificate = [np.eye(blk.dim) * (n + k) for k, blk in enumerate(problems[n - 1])]
            out[n - 1] = sdp.SdpSolution(status=status, value=-1.0, dual_certificate=certificate, message=f"stop {n}")
        return out
    return edit


@pytest.mark.parametrize("entries", [None, 48])
def test_riesz_failures_are_the_loops_failures(monkeypatch, entries):
    if entries:
        monkeypatch.setattr(limits, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(30)
    B, a = MatrixStarAlgebra.full(3), random_hermitian(rng, 3)
    lam, na = np.linalg.eigvalsh(a), float(np.abs(np.linalg.eigvalsh(a)).max())
    # uppers far above, so that beta_n = (cap_n + 1/2) I breaks the cap block alone
    req = InterpolationRequest(B=B, a=a, lowers=[(lam[0] - 0.3) * np.eye(3)], uppers=[(lam[-1] + 50.0) * np.eye(3)],
                               epsilon=0.5, N=7)
    identity = np.linalg.lstsq(B.hermitian_basis().reshape(9, 9).T.real, np.eye(3).ravel(), rcond=None)[0]
    far = lambda bad: with_x(lambda n, x: 100.0 * x + 10.0 if n in bad else x)
    over_cap = with_x(lambda n, x: ((1.0 + 0.5 / n) * na + 0.5) * identity if n == 4 else x)
    cases = [
        far({3, 6}),  # the first violating n
        over_cap,
        with_status({2: sdp.INFEASIBLE, 5: sdp.INFEASIBLE}),  # the first certificate
        with_status({4: sdp.NUMERICAL_FAILURE}),
        lambda p, s: far({3})(p, with_status({5: sdp.INFEASIBLE})(p, s)),  # a violation before a failure
        lambda p, s: far({6})(p, with_status({2: sdp.NUMERICAL_FAILURE})(p, s)),  # a failure before a violation
        far({7}),
    ]
    kinds = set()
    for edit in cases:
        (got, want), solutions = run_both(monkeypatch, req, edit)
        assert type(got) is type(want) and str(got) == str(want)
        kinds.add((type(got).__name__, str(got)))
        if isinstance(got, rigidity.InfeasibleInterpolation):
            n = int(str(got).split("n=")[1].split(":")[0])
            assert got.certificate is want.certificate is solutions[n - 1].dual_certificate
    assert kinds == {
        ("NumericalFailureError", "interpolant at n=3 violates its blocks"),
        ("NumericalFailureError", "interpolant at n=4 violates its blocks"),
        ("InfeasibleInterpolation", "no interpolant exists at n=2: bound lists are inconsistent"),
        ("NumericalFailureError", "interpolation SDP failed: stop 4"),
        ("NumericalFailureError", "interpolation SDP failed: stop 2"),
        ("NumericalFailureError", "interpolant at n=7 violates its blocks"),
    }
