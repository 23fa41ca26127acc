"""The package holds what the commands run, behind public names.

Every top-level function in ``src/ocpulse`` must be referenced, by name or
as an attribute, from the program: the package itself (``__init__.py``
aside, since an export is not a use), ``scripts/`` and ``perfbench/``.
Each of its defaulted parameters must be passed, by keyword or by
position, by some call in the program: an option that no caller sets is
dead.  A parameter that defaults to None must be left out by some program
call: one that every caller passes is required.  Reference
implementations that only the tests need live in ``tests/oracles.py``.
No module of the package reaches for an underscore name of another: what
two modules share is public in one of them.  Each module uses every name
it imports, and every field of a package dataclass is read by the program:
a result field that nothing reads is dead.
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


def _program_sources():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    return sources + [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _package_functions():
    """(module file name, top-level function definition) of the package."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.name, node


def test_every_package_function_has_a_caller():
    defined = {node.name: module for module, node in _package_functions()}
    referenced = {name for path in _program_sources() for name in _referenced_names(path)}
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


def _defaulted_parameters(f):
    """(name, position, default) of each parameter of ``f`` that has a
    default; the position is None for a keyword-only parameter."""
    positional = f.args.posonlyargs + f.args.args
    first = len(positional) - len(f.args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first:], f.args.defaults), start=first):
        yield arg.arg, i, default
    for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _set_parameters(call):
    """Predicate on (name, position): does ``call`` pass that parameter?  A
    ``*args`` passes every position and a ``**kwargs`` every name."""
    n_positional = len(call.args)
    if any(isinstance(a, ast.Starred) for a in call.args):
        n_positional = float("inf")
    names = {k.arg for k in call.keywords}
    return lambda name, position: (None in names or name in names
                                   or (position is not None and position < n_positional))


def _program_calls():
    """Called name -> a :func:`_set_parameters` predicate per program call."""
    calls = {}
    for path in _program_sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(_set_parameters(node))
    return calls


def test_every_defaulted_parameter_is_set_by_a_program_caller():
    calls = _program_calls()
    unset = [
        f"{module}: {f.name}: {name}"
        for module, f in _package_functions()
        for name, position, _ in _defaulted_parameters(f)
        if not any(sets(name, position) for sets in calls.get(f.name, []))
    ]
    assert sorted(unset) == []


def test_no_none_default_is_passed_by_every_program_call():
    # the dual: a None default that every caller overrides guards a branch
    # that only the tests take, so the parameter is required
    calls = _program_calls()
    always_set = [
        f"{module}: {f.name}: {name}"
        for module, f in _package_functions()
        for name, position, default in _defaulted_parameters(f)
        if isinstance(default, ast.Constant) and default.value is None and f.name in calls
        and all(sets(name, position) for sets in calls[f.name])
    ]
    assert sorted(always_set) == []


def _unused_imports(path):
    """Names that ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_imported_name_is_used():
    # an export from __init__.py is not a use; no other module keeps an
    # import that only something outside it looks up
    found = sorted(f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
                   if path.name != "__init__.py" for name in _unused_imports(path))
    assert found == []


def _dataclass_fields():
    """(module file name, class name, field name) of each annotated field of
    a package ``@dataclass``."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                    for d in node.decorator_list if isinstance(d, (ast.Name, ast.Call))):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path.name, node.name, item.target.id


def test_every_dataclass_field_is_read_by_the_program():
    read = {node.attr for path in _program_sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{module}: {cls}: {name}" for module, cls, name in _dataclass_fields()
                    if name not in read)
    assert unread == []
