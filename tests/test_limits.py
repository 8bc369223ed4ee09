"""The advertised limits live in one table, `opsyslab.limits`: every other
module imports them, so no module can hold a second, diverging copy."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
                     "MAX_DEGREE", "MAX_GRID_SIZE", "MAX_RIESZ_N", "MAX_AUTO_BOUNDS", "MAX_TRIALS"}
    assert (limits.MAX_DIM, limits.MAX_AMBIENT, limits.MAX_COEFFICIENT_DIM) == (64, 16, 256)
    assert limits.MAX_CHOI_AMBIENT == 4
    # the names other modules and their callers import still resolve, to the table's values
    for module, name in [
        ("hermitian", "MAX_DIM"), ("algebra", "MAX_AMBIENT"), ("rigidity", "MAX_CHOI_AMBIENT"),
        ("sdp", "MAX_VARIABLES"), ("korovkin", "MAX_DEGREE"), ("korovkin", "MAX_GRID_SIZE"),
        ("problems", "MAX_RIESZ_N"), ("problems", "MAX_AUTO_BOUNDS"), ("problems", "MAX_TRIALS"),
    ]:
        assert getattr(importlib.import_module(f"opsyslab.{module}"), name) == getattr(limits, name)
