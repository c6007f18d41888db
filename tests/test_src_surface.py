"""Every name ``src/fedmpq`` defines is one that a run, the CLI, ``bench/``
or ``scripts/`` uses.

A top-level function or class counts as used when some Name or Attribute
node in ``src/``, ``bench/`` or ``scripts/`` carries its name; a non-dunder
method or property only when some Attribute node does, so a local variable
of the same name does not hide a dead member. Import aliases are not Name
nodes, so a re-export alone does not count, and neither do references from
``tests/``: a helper only tests call belongs in ``tests/helpers.py``.

Since names match bare, a method that two classes define counts as used
when either is; so no two classes define a member of one name, except the
interface both layer specs implement.

A private name (one leading underscore, not a dunder) stays inside its
module: no module imports one from a sibling, and no module reads one off
an object other than ``self`` or ``cls``. Every import sits at a module's
top level, so the import graph has no cycle hidden inside a function.

Every parameter of a ``src/fedmpq`` function or method is one that some
call in ``src/``, ``bench/`` or ``scripts/`` passes. A parameter without a
default is passed by every call, so only those with one are checked. A call
passes one when it names it, spreads ``**`` keywords, or spreads ``*``
arguments or has more positional arguments than the parameter's position
(counted after a method's ``self`` or ``cls``; the package has no static
methods). Calls match by bare name, as above. A setting that no run
changes is a module constant, not a parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/fedmpq"
CALLERS = ("src", "bench", "scripts")
# The LayerSpec interface: DenseSpec and Conv2dSpec both implement it.
SHARED_MEMBERS = {"weight_shape"}
# The entry point: the console script calls main(), tests pass an argv.
UNPASSED_PARAMETERS = {"cli.main(argv)"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(module, qualified name, bare name) of each definition in the package."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def _references():
    """(names of Name nodes, names of Attribute nodes) outside tests."""
    names, attributes = set(), set()
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_definition_is_used_outside_tests():
    names, attributes = _references()
    unused = [
        f"{module}.{qual}"
        for module, qual, name in _definitions()
        if name not in attributes and ("." in qual or name not in names)
    ]
    assert not unused, f"defined in src/fedmpq but used only by tests, or by nothing: {unused}"


def test_no_member_name_is_defined_by_two_classes():
    owners = {}
    for module, qual, name in _definitions():
        if "." in qual:
            owners.setdefault(name, []).append(f"{module}.{qual}")
    shared = {n: q for n, q in owners.items() if len(q) > 1 and n not in SHARED_MEMBERS}
    assert not shared, f"member names defined by more than one class in src/fedmpq: {shared}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_another_modules_privates():
    crossings = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                crossings += [
                    f"{path.stem}:{node.lineno} imports {a.name}" for a in node.names if _private(a.name)
                ]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                owner = node.value
                if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                    crossings.append(f"{path.stem}:{node.lineno} reads .{node.attr}")
    assert not crossings, f"private names used outside their module: {crossings}"


def test_no_import_inside_a_function():
    nested = set()
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{path.stem}:{n.lineno}" for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
                }
    assert not nested, f"imports inside a function body in src/fedmpq: {sorted(nested)}"


def _optional_parameters():
    """(label, bare function name, parameter, position or None) of each
    parameter with a default; keyword-only parameters have no position."""
    for path, tree in _trees(PACKAGE):
        functions = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{node.name}.{item.name}", item, True) for item in node.body if isinstance(item, ast.FunctionDef)
                ]
        for qual, fn, method in functions:
            args = fn.args
            positional = (args.posonlyargs + args.args)[int(method) :]
            first_default = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first_default:], first_default):
                yield f"{path.stem}.{qual}({arg.arg})", fn.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{qual}({arg.arg})", fn.name, arg.arg, None


def _passes(call: ast.Call, parameter: str, position) -> bool:
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_parameter_is_passed_outside_tests():
    calls = {}  # bare name -> Call nodes outside tests
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [
        label
        for label, name, parameter, position in _optional_parameters()
        if label not in UNPASSED_PARAMETERS
        and not any(_passes(c, parameter, position) for c in calls.get(name, []))
    ]
    assert not unpassed, f"parameters of src/fedmpq that only tests pass, or nothing: {unpassed}"
