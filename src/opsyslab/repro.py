"""Built-in worked cases, runnable without external files.

Each case id maps to a fixed small input set and a runner that produces the
same result fields as the corresponding batch command, plus the hand-check
quantities that make the outcome auditable.
"""

from __future__ import annotations

import numpy as np

from . import sdp
from .algebra import MatrixStarAlgebra, OperatorSubspace
from .errors import InputError
from .hermitian import is_psd
from .korovkin import korovkin_demo
from .problems import matrices_to_json, matrix_to_json
from .rigidity import (
    EXTENT_TOL,
    scalar_instance_reduction,
    solve_unperforated_instance,
    ucp_fixed_extent,
    verify_instance_certificate,
)
from .states import StateFunctional, has_uep, is_pure, pure_decomposition, vector_state


def _E(n, i, j):
    M = np.zeros((n, n), dtype=complex)
    M[i, j] = 1.0
    return M


def _offdiag_system():
    return OperatorSubspace([np.eye(2), _E(2, 0, 1) + _E(2, 1, 0), 1j * _E(2, 0, 1) - 1j * _E(2, 1, 0)])


def _case_unp_matrices(settings):
    s = np.diag([-2.0, -1.0, -1.0])
    t = np.diag([1.0, -2.0, 1.0])
    S = OperatorSubspace([s], unital=False)
    T = OperatorSubspace([t], unital=False)
    a, b = s, 0.5 * t
    inst = solve_unperforated_instance(S, T, a, b, settings=settings)
    inequalities, window = scalar_instance_reduction(s, t, a, b)
    return {
        "verdict": inst.verdict,
        "b_prime": matrix_to_json(inst.b_prime),
        "norm_b_prime": inst.norm_b_prime,
        "norm_a": inst.norm_a,
        "scalar_inequalities": [[sense, coeff] for sense, coeff in inequalities],
        "forced_lambda": [window[0], window[1]],
    }


def _case_perf(settings):
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    b = np.diag([1.0, 5.0])
    S = OperatorSubspace([_E(2, 0, 1) + _E(2, 1, 0)], unital=False)
    T = OperatorSubspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], unital=False)
    inst = solve_unperforated_instance(S, T, a, b, settings=settings)
    forced = np.diag([2.0, 2.0])
    return {
        "verdict": inst.verdict,
        "certificate": matrices_to_json(inst.certificate or []),
        "certificate_verified": verify_instance_certificate(inst),
        "hand_check": {
            "forced_b_prime": matrix_to_json(forced),
            "b_prime_minus_a_psd": is_psd(forced - a, 1e-10),
            "b_minus_b_prime_psd": is_psd(b - forced, 1e-10),
        },
    }


def _case_uep_rep_states(settings):
    S = _offdiag_system()
    full = MatrixStarAlgebra.full(2)
    chi1 = vector_state([1.0, 0.0], full)
    result = has_uep(chi1, S, settings=settings)
    extent, _ = ucp_fixed_extent(S, settings=settings)
    return {
        "chi1_has_uep": result.holds,
        "witness": matrix_to_json(result.witness),
        "witness_interval": {"min": result.interval.min, "max": result.interval.max},
        "ucp_fixed_extent": extent,
        "identity_is_boundary_representation": bool(extent <= EXTENT_TOL),
    }


def _case_not_pure_restriction(settings):
    full = MatrixStarAlgebra.full(2)
    diag = MatrixStarAlgebra.from_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    gamma = 1.0 / np.sqrt(2.0)
    omega = vector_state([gamma, gamma], full)
    restricted = omega.restrict(diag)
    dec = pure_decomposition(restricted, diag)
    return {
        "omega_pure_on_full": is_pure(omega, full),
        "restriction_pure_on_diagonal": is_pure(restricted, diag),
        "restriction_weights": sorted(float(w) for w, _ in dec.atoms),
    }


def _case_korovkin(settings):
    table = korovkin_demo(100, 1001, ["x^3"])
    return {"deviations": table, "n": 100, "grid_size": 1001}


def _case_ideal_uep(settings):
    full3 = MatrixStarAlgebra.full(3)
    B_mats = [_E(3, i, j) for i in range(2) for j in range(2)] + [_E(3, 2, 2)]
    B = MatrixStarAlgebra.from_basis(B_mats)
    block_density = np.zeros((3, 3), dtype=complex)
    block_density[:2, :2] = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    block_state = StateFunctional(density=block_density, domain=full3)
    block_result = has_uep(block_state, B.subspace(), settings=settings)
    mass_density = np.diag([0.3, 0.3, 0.4]).astype(complex)
    mass_state = StateFunctional(density=mass_density, domain=full3)
    mass_result = has_uep(mass_state, B.subspace(), settings=settings)
    out = {
        "block_supported_has_uep": block_result.holds,
        "mass_on_summand_has_uep": mass_result.holds,
    }
    if mass_result.witness is not None:
        out["mass_witness"] = matrix_to_json(mass_result.witness)
        out["mass_interval"] = {
            "min": mass_result.interval.min,
            "max": mass_result.interval.max,
        }
    return out


CASES = {
    "E:unpmatrices": _case_unp_matrices,
    "E:perf": _case_perf,
    "E:ueprepstates": _case_uep_rep_states,
    "E:notpurerestriction": _case_not_pure_restriction,
    "korovkin": _case_korovkin,
    "ideal-uep": _case_ideal_uep,
}


def run_case(ident: str, settings: sdp.SdpSettings = sdp.DEFAULT_SETTINGS) -> dict:
    if ident not in CASES:
        raise InputError(f"unknown repro case {ident!r}; known: {', '.join(sorted(CASES))}", field="ident")
    return CASES[ident](settings)
