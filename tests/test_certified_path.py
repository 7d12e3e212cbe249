"""Every module of the package guards its results with exceptions:
`python -O` strips `assert` statements, so none may stand anywhere in it.
Nor may any module read the environment: what a run computes depends on
its arguments and inputs alone.  Nor may any import mpmath: the package
evaluates cosines only through its proven integer enclosures, and mpmath
stays a test-only oracle.  And `import sigpair` stays light: every `sig`
call pays for it, so it loads neither `dataclasses` (with `inspect`) nor
`json`, which only generator files and the CLI need."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sigpair

PACKAGE = Path(sigpair.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_on_the_certified_path(module):
    lines = [node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements on lines {lines}"


def _reads_environment(node) -> bool:
    """os.environ, os.getenv, os.environb, or those names imported from os."""
    names = {"environ", "environb", "getenv", "getenvb"}
    if isinstance(node, ast.Attribute):
        return node.attr in names and isinstance(node.value, ast.Name) and node.value.id == "os"
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in names for alias in node.names)
    return False


@pytest.mark.parametrize("module", MODULES)
def test_no_environment_read(module):
    lines = [node.lineno for node in ast.walk(_tree(module)) if _reads_environment(node)]
    assert not lines, f"{module}.py reads the environment on lines {lines}"


def _imports_mpmath(node) -> bool:
    """import mpmath[.x] or from mpmath[.x] import ..."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "mpmath"
    return False


@pytest.mark.parametrize("module", MODULES)
def test_no_mpmath_import(module):
    lines = [node.lineno for node in ast.walk(_tree(module)) if _imports_mpmath(node)]
    assert not lines, f"{module}.py imports mpmath on lines {lines}"


def test_import_loads_no_dataclasses_inspect_or_json():
    # -S keeps site-packages' start-up imports out of sys.modules
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import sigpair; "
              "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
