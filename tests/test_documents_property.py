"""Property tests of the document layer: parsing, rendering and the CLI's
exit codes on generated documents.

Hypothesis runs derandomized with a bounded number of examples, so these
tests are deterministic and take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opsyslab import problems
from opsyslab.algebra import MatrixStarAlgebra
from opsyslab.cli import main
from opsyslab.errors import InputError, NumericalFailureError
from opsyslab.hermitian import MAX_ENTRY


def bounded(max_examples):
    return settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)


# Real and imaginary parts up to MAX_ENTRY / 2 keep every modulus within
# MAX_ENTRY, the largest a document may hold.
numbers = st.one_of(
    st.integers(-(2**62), 2**62),
    st.floats(-MAX_ENTRY / 2, MAX_ENTRY / 2, allow_nan=False, allow_infinity=False),
)


@st.composite
def hermitian_cells(draw, n):
    """An n x n hermitian matrix as document cells: bare numbers, [re, im]
    pairs, or a mix of the two (the mix is read cell by cell)."""
    real = draw(st.booleans())
    form = draw(st.sampled_from(("bare", "pairs", "mixed")))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re = draw(numbers)
            im = 0 if real or i == j else draw(numbers)
            bare = im == 0 and (form == "bare" or (form == "mixed" and draw(st.booleans())))
            rows[i][j] = re if bare else [re, im]
            rows[j][i] = re if bare else [re, -im]
    return rows


# Nonzero multiples of modulus at least 1: below that, rank cuts floored at
# norm 1 drop a spanning matrix (ROADMAP item 4), which this suite does not test.
scales = st.one_of(st.integers(1, 2**62), st.floats(1, MAX_ENTRY / 2)).flatmap(
    lambda v: st.sampled_from((v, -v))
)


@st.composite
def unital_algebra_cells(draw, n):
    """A unital *-algebra inside M_n: the integer n, or nonzero multiples of
    I and of diagonal matrix units as matrices of bare, [re, im] or mixed cells."""
    if draw(st.booleans()):
        return n
    form = draw(st.sampled_from(("bare", "pairs", "mixed")))
    supports = [range(n)] + [[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    mats = []
    for support in supports:
        c = draw(scales)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = c if i == j and i in support else 0
                bare = form == "bare" or (form == "mixed" and draw(st.booleans()))
                rows[i][j] = v if bare else [v, 0]
        mats.append(rows)
    return mats


@st.composite
def documents(draw):
    """A valid unperforated-instance or riesz document as a dict."""
    n = draw(st.integers(1, 4))
    matrix = hermitian_cells(n)
    matrix_list = st.lists(matrix, min_size=1, max_size=3)
    if draw(st.booleans()):
        doc = {"kind": "unperforated", "payload": {
            "S": draw(matrix_list), "T": draw(matrix_list), "a": draw(matrix), "b": draw(matrix),
            "S_unital": draw(st.booleans()),
        }}
    else:
        doc = {"kind": "riesz", "payload": {
            "B": draw(unital_algebra_cells(n)), "a": draw(matrix), "lowers": draw(matrix_list),
            "epsilon": draw(numbers), "N": draw(st.integers(1, problems.MAX_RIESZ_N)),
        }}
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**70))
    if draw(st.booleans()):
        doc["tolerances"] = {"gap": draw(st.floats(1e-12, 1e-3))}
    return doc


def matrix_paths(doc):
    """(path text, cell list) of every matrix in a document's payload."""
    for key, value in doc["payload"].items():
        if key in ("S", "T", "B", "lowers") and isinstance(value, list):
            for i, m in enumerate(value):
                yield f"payload.{key}[{i}]", m
        elif key in ("a", "b"):
            yield f"payload.{key}", value


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_payload(p1, p2):
    """Equal keys, and matrices equal bit for bit (a zero's sign included)."""
    assert p1.keys() == p2.keys()
    for key, v1 in p1.items():
        v2 = p2[key]
        if isinstance(v1, list) and v1 and isinstance(v1[0], np.ndarray):
            assert len(v1) == len(v2) and all(map(same_bits, v1, v2)), key
        elif isinstance(v1, np.ndarray):
            assert same_bits(v1, v2), key
        elif isinstance(v1, MatrixStarAlgebra):
            assert same_bits(v1.basis, v2.basis), key
        else:
            assert v1 == v2, key


@bounded(100)
@given(documents())
def test_parse_render_parse_is_identity(doc):
    parsed = problems.parse_problem(json.dumps(doc))
    echo = problems.render_value(parsed.canonical)
    again = problems.parse_problem(echo)
    assert_same_payload(parsed.payload, again.payload)
    assert problems.render_value(again.canonical) == echo
    assert (again.seed, again.settings) == (parsed.seed, parsed.settings)


MUTATIONS = {
    "bool": lambda cell: True,
    "nan": lambda cell: float("nan"),
    "string": lambda cell: "1",
    "huge-int": lambda cell: -(10**400),
    "re-only": lambda cell: [cell[0] if isinstance(cell, list) else cell],
}


@bounded(120)
@given(documents(), st.sampled_from(sorted(MUTATIONS) + ["ragged"]), st.data())
def test_mutated_matrix_exits_2_naming_the_matrix(tmp_path_factory, doc, mutation, data):
    path_text, cells = data.draw(st.sampled_from(list(matrix_paths(doc))))
    row = data.draw(st.integers(0, len(cells) - 1))
    if mutation == "ragged":
        cells[row].pop()
    else:
        col = data.draw(st.integers(0, len(cells) - 1))
        cells[row][col] = MUTATIONS[mutation](cells[row][col])
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    command = "check-unperforated" if doc["kind"] == "unperforated" else doc["kind"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--file", str(path)])
    assert code == 2
    assert err.getvalue().startswith(f"error: {path_text}")


def reference_render(obj) -> str:
    """render_value before matrices were formatted in one pass: the
    recursive walk over every value."""
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
            raise NumericalFailureError("cannot serialize a non-finite number")
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{reference_render(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_render(v) for v in obj) + "]"
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


matrices = hnp.arrays(
    complex,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
    elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
).map(problems.matrix_to_json)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats(width=64).map(np.float64),
    st.text(max_size=8),
    matrices,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


def outcome(render, value):
    try:
        return render(value)
    except (InputError, NumericalFailureError) as exc:
        return type(exc)


@bounded(250)
@given(values)
def test_render_matches_the_recursive_renderer(value):
    assert outcome(problems.render_value, value) == outcome(reference_render, value)
