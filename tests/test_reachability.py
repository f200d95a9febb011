"""Every top-level name of the package is reached from a subcommand, an
acceptance criterion or a benchmark tracer hook.

A definition reaches a top-level name when it uses that name: an ast.Name id
or an ast.Attribute attr anywhere inside it.  The roots are cli.main, every
name that tests/test_acceptance.py uses and every (module, attr) that
perfbench/tracer.py hooks.  Names match by spelling alone, whatever module
they are defined in, so the walk over-approximates what is reached: a name it
reports is used by nothing but its own unit tests.  __init__.py is skipped,
because an export is not a use.
"""

import ast
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
