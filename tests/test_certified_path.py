"""The modules a certified result passes through guard it with exceptions:
`python -O` strips `assert` statements, so none may stand there."""

import ast
from pathlib import Path

import pytest

import sigpair

CERTIFIED_PATH = ("cyclotomic", "intervals", "group", "invariant", "signature", "chern")


@pytest.mark.parametrize("module", CERTIFIED_PATH)
def test_no_assert_on_the_certified_path(module):
    path = Path(sigpair.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements on lines {lines}"
