"""opsyslab: a desk-scale numerical laboratory for finite-dimensional
operator systems.

State extension intervals, unique-extension and purity decisions, atomic
decompositions, unperforated-pair instances, Riesz interpolation sequences,
and fixed-set checks for unital completely positive maps, all reduced to
small dense semidefinite programs and hermitian eigenvalue problems.
"""

from .algebra import MatrixStarAlgebra, OperatorSubspace, generate_algebra
from .errors import InputError, NumericalFailureError, OpsyslabError
from .hermitian import (
    EigenDecomposition,
    clip_spectrum,
    eigenvalues,
    eigh,
    hermitian,
    hs_inner,
    is_psd,
    op_norm,
)
from .korovkin import korovkin_demo
from .rigidity import (
    ChoiMap,
    InterpolationRequest,
    UnperforatedInstance,
    decide_unperforated_lines,
    nosp_check,
    riesz_sequence,
    search_counterexample,
    solve_unperforated_instance,
    truncate_commuting,
    ucp_fixed_extent,
)
from .sdp import LmiBlock, SdpProblem, SdpSettings, SdpSolution, check_feasibility, solve
from .states import (
    ExtensionInterval,
    PureDecomposition,
    StateFunctional,
    extension_interval,
    find_pure_majorizing_state,
    has_uep,
    is_pure,
    pure_decomposition,
    vector_state,
    verify_state_on_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiMap",
    "EigenDecomposition",
    "ExtensionInterval",
    "InputError",
    "InterpolationRequest",
    "LmiBlock",
    "MatrixStarAlgebra",
    "NumericalFailureError",
    "OperatorSubspace",
    "OpsyslabError",
    "PureDecomposition",
    "SdpProblem",
    "SdpSettings",
    "SdpSolution",
    "StateFunctional",
    "UnperforatedInstance",
    "check_feasibility",
    "clip_spectrum",
    "decide_unperforated_lines",
    "eigenvalues",
    "eigh",
    "extension_interval",
    "find_pure_majorizing_state",
    "generate_algebra",
    "has_uep",
    "hermitian",
    "hs_inner",
    "is_psd",
    "is_pure",
    "korovkin_demo",
    "nosp_check",
    "op_norm",
    "pure_decomposition",
    "riesz_sequence",
    "search_counterexample",
    "solve",
    "solve_unperforated_instance",
    "truncate_commuting",
    "ucp_fixed_extent",
    "vector_state",
    "verify_state_on_subspace",
]
