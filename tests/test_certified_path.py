"""Every module of the package guards its results with exceptions:
`python -O` strips `assert` statements, so none may stand anywhere in it."""

import ast
from pathlib import Path

import pytest

import sigpair

PACKAGE = Path(sigpair.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_on_the_certified_path(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements on lines {lines}"
