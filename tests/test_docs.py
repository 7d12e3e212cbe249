"""The documentation names only code that exists."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = sorted(ROOT.joinpath("src", "sigpair").glob("*.py")) + [ROOT / "README.md"]
# a backticked private name: `_x` or `module._x`
PRIVATE = re.compile(r"`(?:\w+\.)?(_\w+)`")


@functools.cache
def _defined_names() -> set:
    """Every function, class and assigned name in src/ and tests/."""
    names = set()
    for path in [*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_backticked_private_names_are_defined(path):
    mentioned = set(PRIVATE.findall(path.read_text()))
    assert mentioned - _defined_names() == set()
