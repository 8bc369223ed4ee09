"""The advertised limits live in one table, `opsyslab.limits`: every other
module imports them, so no module can hold a second, diverging copy.  The
batch budget `BLOCK_ENTRIES` is read by `limits.chunks` alone."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import opsyslab
from opsyslab import limits

NAMES = {name for name in vars(limits) if name.startswith("MAX_")}


def test_no_other_module_assigns_a_limit():
    assigned = []
    for path in sorted(Path(opsyslab.__file__).parent.glob("*.py")):
        if path.name == "limits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            assigned += [(path.name, t.id) for t in targets for t in ast.walk(t)
                         if isinstance(t, ast.Name) and t.id in NAMES]
    assert assigned == []


def test_the_table_holds_every_advertised_limit():
    assert NAMES == {"MAX_DIM", "MAX_AMBIENT", "MAX_COEFFICIENT_DIM", "MAX_CHOI_AMBIENT", "MAX_VARIABLES",
                     "MAX_FACE_SEARCH", "MAX_DEGREE", "MAX_GRID_SIZE", "MAX_RIESZ_N", "MAX_AUTO_BOUNDS",
                     "MAX_TRIALS"}
    assert (limits.MAX_DIM, limits.MAX_AMBIENT, limits.MAX_COEFFICIENT_DIM) == (64, 16, 256)
    assert limits.MAX_CHOI_AMBIENT == 4
    assert limits.MAX_FACE_SEARCH == 1600  # every face inside M40
    # the names other modules and their callers import still resolve, to the table's values
    for module, name in [
        ("hermitian", "MAX_DIM"), ("algebra", "MAX_AMBIENT"), ("rigidity", "MAX_CHOI_AMBIENT"),
        ("sdp", "MAX_VARIABLES"), ("korovkin", "MAX_DEGREE"), ("korovkin", "MAX_GRID_SIZE"),
        ("problems", "MAX_RIESZ_N"), ("problems", "MAX_AUTO_BOUNDS"), ("problems", "MAX_TRIALS"),
        ("spectrahedron", "MAX_FACE_SEARCH"),
    ]:
        assert getattr(importlib.import_module(f"opsyslab.{module}"), name) == getattr(limits, name)


def _reads_of_the_budget(source: str) -> list:
    """Lines of a module's source that name BLOCK_ENTRIES, as a name or as
    an attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id == "BLOCK_ENTRIES")
                   or (isinstance(node, ast.Attribute) and node.attr == "BLOCK_ENTRIES")
                   or (isinstance(node, ast.alias) and node.name == "BLOCK_ENTRIES")})


def test_only_the_table_reads_the_batch_budget():
    reads = [(path.name, line) for path in sorted(Path(opsyslab.__file__).parent.glob("*.py"))
             if path.name != "limits.py" for line in _reads_of_the_budget(path.read_text())]
    assert reads == []


def test_the_budget_guard_sees_each_form():
    assert _reads_of_the_budget("from .limits import BLOCK_ENTRIES\nstep = 1\nlimits.BLOCK_ENTRIES // 2\n"
                                "x = BLOCK_ENTRIES\n") == [1, 3, 4]


@pytest.mark.parametrize("budget", [1, 7, 48, 1 << 20])
def test_chunks_select_what_each_former_formula_selected(monkeypatch, budget):
    # the four hand-written batch sizes that chunks replaces, as they read,
    # each with the BLOCK_ENTRIES of the moment
    monkeypatch.setattr(limits, "BLOCK_ENTRIES", budget)

    def sdp_in_chunks(items, entries):  # entries >= 1: a working set
        step = max(1, budget // entries)
        return [items[start:start + step] for start in range(0, len(items), step)]

    def riesz_slack_check(items, entries):  # entries >= 1: basis size times n^2
        step = max(1, budget // entries)
        return [items[start:min(len(items), start + step)] for start in range(0, len(items), step)]

    def uep_ranging(items, entries):  # entries = face size, 0 for a point
        step = max(1, budget // max(1, entries))
        return [items[i:i + step] for i in range(0, len(items), step)]

    def algebra_row_blocks(items, width):  # a row of k products, each of `width` entries
        k = len(items)
        step = max(1, budget // max(1, k * width))
        return [items[rows] for rows in [slice(i, i + step) for i in range(0, k, step)]]

    for count in (0, 1, 2, 5, 6, 7, 48, 100, 1000):
        items = list(range(count))
        for entries in (0, 1, 2, 3, 6, 7, 47, 48, 49, 399 * 400, 1 << 20, (1 << 20) + 1):
            got = [items[part] for part in limits.chunks(count, entries)]
            if entries:
                assert got == sdp_in_chunks(items, entries) == riesz_slack_check(items, entries)
            assert got == uep_ranging(items, entries)
            if count:
                assert [items[part] for part in limits.chunks(count, count * entries)] == algebra_row_blocks(
                    items, entries)
