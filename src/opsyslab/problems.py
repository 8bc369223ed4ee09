"""Problem documents and reports: the JSON surface of the lab.

Documents are JSON objects {"kind", "payload", "seed"?, "tolerances"?};
matrices are row-major nested arrays whose entries are numbers or two-
element [re, im] arrays, subspaces are arrays of matrices, states are
density matrices, and algebras are either arrays of spanning matrices or an
integer n meaning the full n x n matrix algebra.  Reports are versioned
("schema": "opsyslab/1") and echo their problem in canonical form, so
serializing a report and re-reading the echo reproduces the document
exactly.  All floats render with 17 significant digits, which round-trips
IEEE doubles bit for bit.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .algebra import MatrixStarAlgebra, OperatorSubspace
from .errors import InputError, NumericalFailureError, check_dimension
from .hermitian import hermitian, hermitian_stack, op_norm
from .korovkin import TEST_FUNCTIONS, korovkin_demo
from .limits import MAX_AMBIENT, MAX_AUTO_BOUNDS, MAX_DEGREE, MAX_DIM, MAX_GRID_SIZE, MAX_RIESZ_N, MAX_TRIALS
from .rigidity import (
    EXTENT_TOL,
    NOSP_TOL,
    ChoiMap,
    InterpolationRequest,
    nosp_check,
    riesz_sequence,
    search_counterexample,
    solve_unperforated_instance,
    ucp_fixed_extent,
)
from .spectrahedron import FaceTooLarge
from .states import (
    StateFunctional,
    extension_interval,
    has_uep,
    is_pure,
    pure_decomposition,
)

SCHEMA = "opsyslab/1"

# ----------------------------------------------------------- rendering


def render_value(obj) -> str:
    """Canonical JSON with deterministic float rendering (17 significant
    digits, and -0.0 for a negative zero, which `-0` would read back as +0);
    dict key order is preserved as constructed."""
    if isinstance(obj, _MatrixJson) and np.isfinite(obj.array).all():
        row = "[" + ",".join(["[%.17g,%.17g]"] * obj.array.shape[1]) + "]"
        text = ("[" + ",".join([row] * len(obj)) + "]") % tuple(obj.array.ravel().tolist())
        # %.17g writes a zero as "0" or "-0", and every number ends at , or ]
        return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            # Documents are parsed finite, so this is a computed value.
            raise NumericalFailureError("cannot serialize a non-finite number")
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{render_value(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_value(v) for v in obj) + "]"
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


class _MatrixJson(list):
    """A matrix as nested [re, im] lists (a plain JSON value) that keeps its
    (rows, cols, 2) float array for render_value; never mutated."""

    def __init__(self, pairs):
        super().__init__(pairs.tolist())
        self.array = pairs


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return _MatrixJson(np.stack([M.real, M.imag], axis=-1))


def matrices_to_json(mats) -> list:
    return [matrix_to_json(M) for M in mats]


# ------------------------------------------------------------- parsing


class _Path(str):
    """A field path such as payload.S[0][1]; `path / key` extends it."""

    def __truediv__(self, part):
        return _Path(f"{self}[{part}]" if isinstance(part, int) else f"{self}.{part}")


def _fail(path, message):
    raise InputError(f"{path}: {message}")


def _parse_entry(value, path) -> complex:
    if isinstance(value, bool):
        _fail(path, "expected a number or [re, im], got a boolean")
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(path, "expected a number or [re, im]")
    if not all(abs(v) <= sys.float_info.max for v in parts):  # as in _req_number
        _fail(path, "entries must be finite")
    return complex(float(parts[0]), float(parts[1]))


def _read_stack(value, ndim):
    """`value` read in one pass as a read-only (..., n, n) hermitian stack
    (`ndim` 2 for one matrix, 3 for a list), or None where the walk in
    parse_matrix would reject or read it otherwise: only the walk words errors."""
    cells = np.array(value, dtype=object)  # ragged input gives a shallower array
    shape, pair = cells.shape[:ndim], cells.shape[ndim:]
    if len(shape) < ndim or pair not in ((), (2,)) or not 1 <= shape[-1] == shape[-2] <= MAX_DIM:
        return None
    if not set(map(type, cells.flat)) <= {int, float}:
        return None
    try:
        parts = cells.astype(float)
        return hermitian_stack(parts.view(complex)[..., 0] if pair else parts.astype(complex))
    except (OverflowError, InputError):  # an integer beyond the float range, a rejected matrix
        return None


def parse_matrix(value, path) -> np.ndarray:
    if (stack := _read_stack(value, 2)) is not None:
        return stack
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty matrix (array of rows)")
    n = len(value)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            _fail(path / i, f"expected a row of length {n}")
        for j, cell in enumerate(row):
            out[i, j] = _parse_entry(cell, path / i / j)
    try:
        return hermitian(out)
    except InputError as exc:
        _fail(path, str(exc))


def parse_matrix_list(value, path) -> list:
    if (stack := _read_stack(value, 3)) is not None:
        return list(stack)
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty array of matrices")
    mats = [parse_matrix(m, path / i) for i, m in enumerate(value)]
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        _fail(path, f"matrices disagree on dimension: {sorted(dims)}")
    return mats


@dataclass
class ProblemDocument:
    kind: str
    payload: dict
    seed: int | None
    settings: sdp.SdpSettings
    canonical: dict = field(repr=False, default_factory=dict)


def _canonical_payload(payload: dict) -> dict:
    """Payload with every matrix rendered in canonical [re, im] form."""

    def convert(v):
        if isinstance(v, np.ndarray):
            return matrix_to_json(v)
        if isinstance(v, list):
            return [convert(x) for x in v]
        if isinstance(v, dict):
            return {k: convert(x) for k, x in v.items() if not str(k).startswith("_")}
        return v

    return convert(payload)


def parse_problem(text: str) -> ProblemDocument:
    """Validate a JSON document and build its subspaces, algebras and
    states; rejections name the offending field.  Building runs checked
    eigensolver calls, so it can also raise NumericalFailureError.  Checks the
    library makes when the document runs are left to it (see `run`)."""
    try:
        raw = json.loads(text)
    except RecursionError:
        raise InputError("document is nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("document must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise InputError(f"kind: expected one of {', '.join(KINDS)}; got {kind!r}")
    payload = raw.get("payload")
    if not isinstance(payload, dict):
        raise InputError("payload: expected an object")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise InputError("seed: expected a non-negative integer")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise InputError("tolerances: expected an object")
    unknown = sorted(set(tol) - {"gap", "psd"})
    if unknown:
        raise InputError(f"tolerances: unknown keys {unknown}; known: gap, psd")
    tol = {k: sdp.positive_tolerance(f"tolerances.{k}", v) for k, v in tol.items()}
    settings = sdp.SdpSettings(
        gap_tol=tol.get("gap", sdp.DEFAULT_SETTINGS.gap_tol),
        psd_slack=tol.get("psd", sdp.DEFAULT_SETTINGS.psd_slack),
    )
    parsed = _KINDS[kind][0](payload, _Path("payload"))
    canonical = {"kind": kind, "payload": _canonical_payload(parsed)}
    if seed is not None:
        canonical["seed"] = seed
    if tol:
        canonical["tolerances"] = dict(sorted(tol.items()))
    return ProblemDocument(
        kind=kind, payload=parsed, seed=seed, settings=settings, canonical=canonical
    )


def _opt_bool(payload, key, path, default=False):
    v = payload.get(key, default)
    if not isinstance(v, bool):
        _fail(path / key, "expected a boolean")
    return v


def _opt_int(payload, key, path, default=None, minimum=None, maximum=None):
    """An optional integer: `default` when the key is absent; a present
    value, null included, must be an integer within the bounds."""
    if key not in payload:
        return default
    v = payload[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path / key, "expected an integer")
    if minimum is not None and v < minimum:
        _fail(path / key, f"expected at least {minimum}")
    if maximum is not None and v > maximum:
        _fail(path / key, f"expected at most {maximum}")
    return v


def _opt_matrix_list(payload, key, path) -> list:
    """An optional matrix list: an absent key and [] mean none; any other
    value must be a nonempty matrix list."""
    value = payload.get(key, [])
    if value == []:
        return []
    return parse_matrix_list(value, path / key)


def _req_number(payload, key, path):
    v = payload.get(key)
    # abs(v) <= max also rejects NaN, infinities and integers beyond the
    # float range without converting them.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        _fail(path / key, "expected a finite number")
    return float(v)


def _parse_unperforated(payload, path):
    out = {
        "S": parse_matrix_list(payload.get("S"), path / "S"),
        "T": parse_matrix_list(payload.get("T"), path / "T"),
        "S_unital": _opt_bool(payload, "S_unital", path),
        "T_unital": _opt_bool(payload, "T_unital", path),
    }
    if ("a" in payload) != ("b" in payload):
        _fail(path, "instance mode needs both a and b; search mode needs neither")
    if "a" in payload:
        for key in ("a", "b"):
            out[key] = parse_matrix(payload[key], path / key)
    else:
        out["trials"] = _opt_int(
            payload, "trials", path, default=50, minimum=1, maximum=MAX_TRIALS
        )
    return out


def _algebra_field(payload, key, path, default_dim=None) -> dict:
    """Parse an optional algebra field once: an integer n (full M_n) or a
    matrix list spanning a *-closed algebra.  Returns the canonical echo
    under `key` (absent when omitted) and the algebra under `_key`, which
    the echo drops; an omitted field is the full algebra on `default_dim`,
    or no algebra when that is None."""
    value = payload.get(key)
    if value is None:
        return {} if default_dim is None else {f"_{key}": MatrixStarAlgebra.full(default_dim)}
    if isinstance(value, bool):
        _fail(path / key, "expected a matrix list or an integer dimension")
    if isinstance(value, int):
        if not 1 <= value <= MAX_AMBIENT:
            _fail(path / key, f"full algebra dimension must be between 1 and {MAX_AMBIENT}")
        return {key: value, f"_{key}": MatrixStarAlgebra.full(value)}
    mats = parse_matrix_list(value, path / key)
    return {key: mats, f"_{key}": _named({None: key}, MatrixStarAlgebra.from_basis, mats)}


def _named(fields: dict, make, /, *args, **kwargs):
    """make(*args, **kwargs); an InputError whose `field` (None when it names
    none) maps to a path in `fields` is raised as `payload.<path>: <message>`."""
    try:
        return make(*args, **kwargs)
    except InputError as exc:
        if (path := fields.get(exc.field)) is None:
            raise
        _fail(_Path("payload") / path, str(exc))


def _subspace(p, key):
    """The operator subspace spanned by the matrix list p[key], unital as
    p[key + "_unital"] says; any rejection names p[key]."""
    return _named({None: key}, OperatorSubspace, p[key], unital=p[f"{key}_unital"])


def _parse_extension(payload, path):
    S = parse_matrix_list(payload.get("S"), path / "S")
    n = S[0].shape[0]
    out = {
        "S": S,
        "S_unital": _opt_bool(payload, "S_unital", path, default=True),
        "phi": parse_matrix(payload.get("phi"), path / "phi"),
        "t": parse_matrix(payload.get("t"), path / "t"),
    }
    for key in ("phi", "t"):  # the words name S, which reaches the library only as phi's domain
        _named({None: key}, check_dimension, out[key].shape[0], n, "S")
    out.update(_algebra_field(payload, "ambient", path, n))
    _named({None: "ambient"}, check_dimension, out["_ambient"].ambient_dim, n, "S")
    out["_S"] = _subspace(out, "S")
    out["_phi"] = _named({"density": "phi"}, StateFunctional, density=out["phi"], domain=out["_S"])
    return out


def _parse_uep(payload, path):
    S = parse_matrix_list(payload.get("S"), path / "S")
    out = {
        "S": S,
        "S_unital": _opt_bool(payload, "S_unital", path, default=True),
        "state": parse_matrix(payload.get("state"), path / "state"),
    }
    out.update(_algebra_field(payload, "A", path, S[0].shape[0]))
    # the words name A, which reaches has_uep only as the state's domain
    _named({None: "A"}, check_dimension, out["_A"].ambient_dim, S[0].shape[0], "S")
    out["_S"] = _subspace(out, "S")
    out["_state"] = _named({"density": "state"}, StateFunctional, density=out["state"], domain=out["_A"])
    return out


def _parse_state_algebra(payload, path):
    state = parse_matrix(payload.get("state"), path / "state")
    out = {"state": state}
    out.update(_algebra_field(payload, "A", path, state.shape[0]))
    out["_state"] = _named({"density": "state"}, StateFunctional, density=state, domain=out["_A"])
    return out


def _parse_riesz(payload, path):
    out = _algebra_field(payload, "B", path)
    if not out:
        _fail(path / "B", "expected a matrix list or an integer dimension")
    return out | {
        "a": parse_matrix(payload.get("a"), path / "a"),
        "lowers": _opt_matrix_list(payload, "lowers", path),
        "uppers": _opt_matrix_list(payload, "uppers", path),
        "epsilon": _req_number(payload, "epsilon", path),
        "N": _opt_int(payload, "N", path, default=5, minimum=1, maximum=MAX_RIESZ_N),
        "auto_bounds": _opt_int(
            payload, "auto_bounds", path, default=0, minimum=0, maximum=MAX_AUTO_BOUNDS
        ),
    }


def _parse_boundary(payload, path):
    S = parse_matrix_list(payload.get("S"), path / "S")
    out = {
        "S": S,
        "S_unital": _opt_bool(payload, "S_unital", path, default=True),
    }
    out.update(_algebra_field(payload, "algebra", path))
    out["_S"] = _subspace(out, "S")
    return out


def _parse_nosp(payload, path):
    pi_images = parse_matrix_list(payload.get("pi_images"), path / "pi_images")
    choi = payload.get("Pi_choi")
    if not isinstance(choi, dict):
        _fail(path / "Pi_choi", "expected an object with dim_in, dim_out, choi")
    dim_in = _opt_int(choi, "dim_in", path / "Pi_choi", minimum=1, maximum=MAX_AMBIENT)
    dim_out = _opt_int(choi, "dim_out", path / "Pi_choi", minimum=1)
    if dim_in is None or dim_out is None:
        _fail(path / "Pi_choi", "dim_in and dim_out are required")
    out = {
        "pi_images": pi_images,
        "Pi_choi": {
            "dim_in": dim_in,
            "dim_out": dim_out,
            "choi": parse_matrix(choi.get("choi"), path / "Pi_choi" / "choi"),
        },
    }
    out.update(_algebra_field(payload, "A", path, dim_in))
    return out


def _parse_korovkin(payload, path):
    fns = payload.get("functions", [])
    if not isinstance(fns, list) or not all(isinstance(f, str) for f in fns):
        _fail(path / "functions", "expected an array of function names")
    for i, name in enumerate(fns):
        if name not in TEST_FUNCTIONS:
            _fail(path / "functions" / i, f"unknown test function {name!r}; known: {sorted(TEST_FUNCTIONS)}")
    return {
        "n": _opt_int(payload, "n", path, default=100, minimum=1, maximum=MAX_DEGREE),
        "grid_size": _opt_int(payload, "grid_size", path, default=1001, minimum=2, maximum=MAX_GRID_SIZE),
        "functions": fns,
    }


def _parse_repro(payload, path):
    ident = payload.get("id")
    if not isinstance(ident, str):
        _fail(path / "id", "expected a case id string")
    return {"id": ident}


# ------------------------------------------------------------- running


def _instance_results(inst):
    out = {
        "verdict": inst.verdict,
        "max_slack": inst.max_slack,
        "norm_a": inst.norm_a,
    }
    if inst.b_prime is not None:
        out["b_prime"] = matrix_to_json(inst.b_prime)
        out["norm_b_prime"] = inst.norm_b_prime
    if inst.certificate is not None:
        out["certificate"] = matrices_to_json(inst.certificate)
    return out


def _run_unperforated(doc: ProblemDocument):
    p = doc.payload
    # Built here, not when parsing; the library checks T, a and b against S.
    S, T = (_subspace(p, key) for key in ("S", "T"))
    if "a" in p:
        inst = solve_unperforated_instance(S, T, p["a"], p["b"], settings=doc.settings)
        return _instance_results(inst)
    seed = doc.seed if doc.seed is not None else 0
    inst = search_counterexample(S, T, trials=p["trials"], seed=seed, settings=doc.settings)
    if inst is None:
        return {
            "verdict": "NO_COUNTEREXAMPLE",
            "trials": p["trials"],
            "note": "absence of a counterexample is not a proof",
        }
    out = _instance_results(inst)
    out["a"] = matrix_to_json(inst.a)
    out["b"] = matrix_to_json(inst.b)
    return out


def _run_extension(doc: ProblemDocument):
    p = doc.payload
    interval = extension_interval(p["_phi"], p["t"], p["_ambient"], settings=doc.settings)
    return {
        "min": interval.min,
        "max": interval.max,
        "length": interval.length,
        "witness_min": matrix_to_json(interval.witnesses[0].density),
        "witness_max": matrix_to_json(interval.witnesses[1].density),
    }


def _run_uep(doc: ProblemDocument):
    p = doc.payload
    result = has_uep(p["_state"], p["_S"], settings=doc.settings)
    out = {"holds": result.holds}
    if result.witness is not None:
        out["witness"] = matrix_to_json(result.witness)
        out["interval"] = {"min": result.interval.min, "max": result.interval.max}
    return out


def _run_purity(doc: ProblemDocument):
    p = doc.payload
    return {"pure": is_pure(p["_state"], p["_A"])}


def _run_decompose(doc: ProblemDocument):
    p = doc.payload
    dec = pure_decomposition(p["_state"], p["_A"])
    return {
        "atoms": [
            {"weight": w, "density": matrix_to_json(atom.density)} for w, atom in dec.atoms
        ]
    }


def _run_riesz(doc: ProblemDocument):
    p = doc.payload
    args = {key: p[key] for key in ("a", "lowers", "uppers", "epsilon", "N", "auto_bounds")}
    req = InterpolationRequest(B=p["_B"], **args, seed=doc.seed if p["auto_bounds"] else None)
    betas = riesz_sequence(req, settings=doc.settings)
    *norms, norm_a = op_norm(np.stack([*betas, req.a])).tolist()
    return {"betas": matrices_to_json(betas), "norms": norms, "norm_a": norm_a}


def _run_boundary(doc: ProblemDocument):
    p = doc.payload
    extent, witness = ucp_fixed_extent(p["_S"], algebra=p.get("_algebra"), settings=doc.settings)
    out = {"max_deviation": extent, "boundary": bool(extent <= EXTENT_TOL)}
    if witness is not None:
        out["witness_choi"] = matrix_to_json(witness.choi)
    return out


def _run_nosp(doc: ProblemDocument):
    p = doc.payload
    choi = ChoiMap(**p["Pi_choi"], unital=True)  # dim_in, dim_out, choi
    lam = nosp_check(p["pi_images"], choi, p["_A"], settings=doc.settings)
    return {"lambda_star": lam, "no_strictly_positive": bool(lam <= NOSP_TOL)}


def _run_korovkin(doc: ProblemDocument):
    p = doc.payload
    table = korovkin_demo(p["n"], p["grid_size"], p["functions"])
    return {"deviations": table, "n": p["n"], "grid_size": p["grid_size"]}


def _run_repro(doc: ProblemDocument):
    from . import repro

    return repro.run_case(doc.payload["id"], settings=doc.settings)


# kind -> (parser, runner)
_KINDS = {
    "unperforated": (_parse_unperforated, _run_unperforated),
    "extension-interval": (_parse_extension, _run_extension),
    "uep": (_parse_uep, _run_uep),
    "purity": (_parse_state_algebra, _run_purity),
    "decompose": (_parse_state_algebra, _run_decompose),
    "riesz": (_parse_riesz, _run_riesz),
    "boundary": (_parse_boundary, _run_boundary),
    "nosp": (_parse_nosp, _run_nosp),
    "korovkin": (_parse_korovkin, _run_korovkin),
    "repro": (_parse_repro, _run_repro),
}
KINDS = tuple(_KINDS)
# kind -> {library argument: payload path}, where the names differ.  extension-interval's phi is
# named for its domain S, and a program's `objective` for the field whose basis sets its length.
_RENAMED = {"extension-interval": {"phi": "S"}, "uep": {"psi": "state"}, "unperforated": {"objective": "T"},
            "purity": {"phi": "state", "algebra": "A"}, "decompose": {"phi": "state", "algebra": "A"},
            "riesz": {"objective": "B"}, "repro": {"ident": "id"},
            "nosp": {"choi": "Pi_choi.choi", "dim_out": "Pi_choi.dim_out", "objective": "A"}}


def run(doc: ProblemDocument) -> dict:
    """Dispatch a parsed document and wrap the outcome in a report.  An
    InputError about a library argument names its payload field; an omitted
    algebra, held as `_A` alone, is named `A`."""
    start = time.perf_counter()
    fields = {key.lstrip("_"): key.lstrip("_") for key in doc.payload} | _RENAMED.get(doc.kind, {})
    try:
        results = _named(fields, _KINDS[doc.kind][1], doc)
    except FaceTooLarge as exc:
        # uep, extension-interval and boundary: the face of an r x r set
        # pinned by S has up to r^2 - dim S coordinates
        _fail(_Path("payload") / "S", f"{exc}, and S pins too few of them at this matrix size")
    elapsed = time.perf_counter() - start
    provenance = doc.payload.get("id") if doc.kind == "repro" else None
    return {
        "schema": SCHEMA,
        "kind": doc.kind,
        "results": results,
        "provenance": provenance,
        "wall_time_s": elapsed,
        "problem": doc.canonical,
    }
