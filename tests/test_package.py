"""The package holds what the commands run, behind public names.

Every top-level function in ``src/ocpulse`` must be referenced, by name or
as an attribute, from the package itself (``__init__.py`` aside, since an
export is not a use), from ``scripts/`` or from ``perfbench/``.  Reference
implementations that only the tests need live in ``tests/oracles.py``.  No
module of the package reaches for an underscore name of another: what two
modules share is public in one of them.
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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(path):
    """'module.name' of each underscore name that ``path`` takes from another
    module of the package, by ``from`` import or as an attribute of an
    imported package module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    tree = ast.parse(path.read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ocpulse")):
            source = (node.module or "").removeprefix("ocpulse").strip(".")
            for alias in node.names:
                if not source and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    yield f"{source}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_takes_a_private_name_of_another():
    found = sorted(f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
                   for name in _private_imports(path))
    assert found == []
