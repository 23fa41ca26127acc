"""The package holds what the commands run.

Every top-level function in ``src/ocpulse`` must be referenced, by name or
as an attribute, from the package itself (``__init__.py`` aside, since an
export is not a use), from ``scripts/`` or from ``perfbench/``.  Reference
implementations that only the tests need live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ocpulse"

# Kept without a caller in the program, each for the check named here.
NO_CALLER_NEEDED = {
    "choi_kraus": "release gate test_06 checks the Kraus form against the transfer diagonal",
    "fidelity_and_gradients": "the single-point gradient that the finite-difference tests call",
}


def _referenced_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_package_function_has_a_caller():
    defined = {
        node.name: path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    referenced = {name for path in sources for name in _referenced_names(path)}
    uncalled = defined.keys() - referenced
    assert sorted(f"{defined[n]}: {n}" for n in uncalled - NO_CALLER_NEEDED.keys()) == []
    # an allowlisted function that gains a caller leaves the list
    assert sorted(NO_CALLER_NEEDED.keys() - uncalled) == []
