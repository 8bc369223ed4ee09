"""The document layer does not copy the library's input checks: no string
literal in `problems.py` repeats the text of an InputError message raised in
the library modules below it.  A document names the field of a library
rejection from the error's own `field`, so a copy would only run the check
twice."""

from __future__ import annotations

import ast
from pathlib import Path

import opsyslab

PACKAGE = Path(opsyslab.__file__).parent
LIBRARY = ("states", "rigidity", "algebra", "spectrahedron", "hermitian")


def _text(node) -> str | None:
    """The literal text of a string constant, or of an f-string as written."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ast.unparse(node) if isinstance(node, ast.JoinedStr) else None


def _messages(path: Path) -> set:
    """The literal messages of the `raise InputError(...)` statements at `path`."""
    return {text for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "InputError" and node.exc.args
            and (text := _text(node.exc.args[0])) is not None}


def _copies(path: Path, messages: set) -> list:
    """(line, message) of every string literal at `path` that contains one of `messages`."""
    return sorted((node.lineno, message) for node in ast.walk(ast.parse(path.read_text()))
                  if (text := _text(node)) is not None
                  for message in messages if message in text)


def test_the_document_layer_copies_no_library_message():
    messages = set().union(*(_messages(PACKAGE / f"{name}.py") for name in LIBRARY))
    assert "element does not belong to the ambient algebra" in messages  # it reads the library's raises
    assert _copies(PACKAGE / "problems.py", messages) == []


def _formatted(phrase: str) -> list:
    """The module of every line of the package with a string literal that contains `phrase`."""
    return [name for name, _ in sorted({(path.name, line) for path in PACKAGE.glob("*.py")
                                        for line, _ in _copies(path, {phrase})})]


def test_each_relation_wording_is_formatted_once():
    # a dimension relation is worded by errors.check_dimension, which the parser's remaining checks call too,
    # and a unitality requirement by algebra.NOT_UNITAL, which problems.py no longer copies
    assert _formatted("(that of ") == ["errors.py"]
    assert _formatted("expected a unital algebra") == ["algebra.py"]


def test_the_guard_sees_plain_and_formatted_copies(tmp_path):
    library, copy = tmp_path / "library.py", tmp_path / "copy.py"
    library.write_text('raise InputError("not in span", field="t")\nraise InputError(f"over {LIMIT}")\n')
    copy.write_text('_fail(path, "x is not in span")\n_fail(path, f"over {LIMIT}")\n_fail(path, f"over {n}")\n')
    messages = _messages(library)
    assert messages == {"not in span", "f'over {LIMIT}'"}
    assert _copies(copy, messages) == [(1, "not in span"), (2, "f'over {LIMIT}'")]
