"""Every top-level name of the package is reached from a subcommand, an
acceptance criterion or a benchmark tracer hook; every defaulted parameter
is passed and every method read by some caller.

A definition reaches a top-level name when it uses that name: an ast.Name id
or an ast.Attribute attr anywhere inside it.  The roots are cli.main, every
name that tests/test_acceptance.py uses and every (module, attr) that
perfbench/tracer.py hooks.  Names match by spelling alone, whatever module
they are defined in, so the walk over-approximates what is reached: a name it
reports is used by nothing but its own unit tests.  __init__.py is skipped,
because an export is not a use.
"""

import ast
import functools
from pathlib import Path

from test_bench_hooks import HOOKS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ybcawo4"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _used(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(node) -> list:
    """The names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _definitions() -> dict:
    """(module, name) -> the names its definition uses."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            for name in _defined(node):
                out.setdefault((path.stem, name), set()).update(_used(node))
    return out


def _unreached(definitions: dict) -> list:
    by_name: dict = {}
    for key in definitions:
        by_name.setdefault(key[1], []).append(key)
    roots = {("cli", "main")}
    roots |= {(hook.module.rpartition(".")[2], hook.attr) for hook in HOOKS}
    roots |= {key for name in _used(ast.parse(ACCEPTANCE.read_text()))
              for key in by_name.get(name, ())}
    seen = roots & definitions.keys()
    todo = list(seen)
    while todo:
        for name in definitions[todo.pop()]:
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - seen)


def test_the_walk_sees_the_package():
    definitions = _definitions()
    assert ("cli", "main") in definitions
    assert len(definitions) > 100


def test_every_top_level_name_is_reached():
    unreached = _unreached(_definitions())
    assert not unreached, (
        f"{len(unreached)} top-level names are reached from no subcommand, "
        f"acceptance criterion or tracer hook: {', '.join(unreached)}")


# --- parameters and members ------------------------------------------------
#
# The callers are the package, the acceptance suite and the benchmark
# scripts.  A call reaches every def of its callee's spelling (a class name
# reaches the class's __init__), as the name walk above matches names.

CALLERS = [*sorted(PACKAGE.glob("*.py")), ACCEPTANCE,
           *sorted((ROOT / "perfbench").glob("*.py"))]


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _units(path: Path):
    """(label, node, owner) of each top-level statement of a file, and of
    each statement of a top-level class body (owner: the class); the label
    of a package function or method is module.name or module.Class.name,
    every other label None."""
    for node in _tree(path).body:
        inner = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in inner:
            label = None
            if path.parent == PACKAGE and isinstance(item, ast.FunctionDef):
                owner = [node.name] if item is not node else []
                label = ".".join([path.stem, *owner, item.name])
            yield label, item, node


def _functions() -> list:
    """(label, def, callee spelling, whether a call's first argument binds
    the second parameter) of every package function and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, item, owner in _units(path):
            if label is None:
                continue
            method = item is not owner and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in item.decorator_list)
            callee = owner.name if item.name == "__init__" else item.name
            out.append((label, item, callee, method))
    return out


def _settable(node) -> list:
    """The parameters a caller may leave out: each defaulted one, and a
    **kwargs catch-all (as "**name")."""
    args = node.args
    positional = args.posonlyargs + args.args
    out = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    out += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if args.kwarg is not None:
        out.append(f"**{args.kwarg.arg}")
    return out


def _calls() -> list:
    """(call, label of the package function or method it sits in)."""
    return [(call, label) for path in CALLERS for label, item, _ in _units(path)
            for call in ast.walk(item) if isinstance(call, ast.Call)]


def _callee(call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passed(node, method: bool, call, counts) -> set:
    """The parameters of a def that one call of its name passes.  A *args
    star passes every positional parameter from its place on, a **kwargs
    forward passes nothing, and a keyword that names no parameter passes
    the **kwargs catch-all.  An argument counts only if counts(its value)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    out = set()
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if counts(arg.value):
                out.update(positional[k:])
            break
        if counts(arg):
            out.update(positional[k:k + 1])
    for keyword in call.keywords:
        if keyword.arg is None or not counts(keyword.value):
            continue
        if keyword.arg in named:
            out.add(keyword.arg)
        elif args.kwarg is not None:
            out.add(f"**{args.kwarg.arg}")
    return out


def _unpassed(functions, calls) -> list:
    """Each (label, parameter) of _settable that no call passes.  A caller's
    own parameter handed on unchanged passes a value only when that
    parameter is passed itself, so the walk iterates to a fixed point."""
    by_callee: dict = {}
    for label, node, callee, method in functions:
        by_callee.setdefault(callee, []).append((label, node, method))
    settable = {(label, name) for label, node, _, _ in functions
                for name in _settable(node)}
    calls = [(call, scope, by_callee[_callee(call)]) for call, scope in calls
             if _callee(call) in by_callee]
    passed: set = set()
    while True:
        found = set()
        for call, scope, targets in calls:
            def counts(value):
                key = (scope, getattr(value, "id", None))
                return key not in settable or key in passed

            for label, node, method in targets:
                found |= {(label, name) for name in _passed(node, method, call, counts)}
        if found <= passed:
            return sorted(f"{label}({name})" for label, name in settable - passed)
        passed |= found


def _unread(functions) -> list:
    """Each module.Class.name member, dunders aside, read as .name nowhere."""
    read = {n.attr for path in CALLERS for n in ast.walk(_tree(path))
            if isinstance(n, ast.Attribute)}
    return sorted(label for label, node, _, _ in functions
                  if label.count(".") == 2 and not node.name.startswith("__")
                  and node.name not in read)


def test_the_parameter_walk_sees_the_package():
    functions = _functions()
    labels = {label for label, _, _, _ in functions}
    assert {"spinham.eigensystem", "fitting.FitResult.describe",
            "cli._Parser.__init__"} <= labels
    assert sum(len(_settable(node)) for _, node, _, _ in functions) > 25


def test_every_defaulted_parameter_is_passed():
    unpassed = _unpassed(_functions(), _calls())
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameters are passed by no call in the "
        f"package, the acceptance suite or the benchmark; make each a "
        f"constant: {', '.join(unpassed)}")


def test_every_method_is_read():
    unread = _unread(_functions())
    assert not unread, (
        f"{len(unread)} methods and properties are read by nothing in the "
        f"package, the acceptance suite or the benchmark: {', '.join(unread)}")
