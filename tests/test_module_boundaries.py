"""Each opsyslab module keeps its underscore names to itself: no other
module of the package imports or reads them, so a private helper can change
without a caller elsewhere depending on it."""

from __future__ import annotations

import ast
from pathlib import Path

import opsyslab

PACKAGE = Path(opsyslab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _crossings(path: Path) -> list:
    """(module, line, name) of every other-module underscore name that the
    module at `path` imports or reads."""
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to opsyslab modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("opsyslab")):
            for alias in node.names:
                if _private(alias.name):
                    found.append((path.name, node.lineno, alias.name))
                if node.module in (None, "opsyslab"):  # from . import sdp
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("opsyslab"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):  # opsyslab.sdp._name
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((path.name, node.lineno, node.attr))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _crossings(path)] == []


def test_the_guard_sees_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import sdp\nfrom .algebra import RANK_TOL, _helper\nsdp._cholesky([])\nsdp.solve\n")
    assert _crossings(path) == [("probe.py", 2, "_helper"), ("probe.py", 3, "_cholesky")]
