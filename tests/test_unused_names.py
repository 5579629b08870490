"""Every module- or class-level name defined in src/spreadlab is used.

A name counts as used when some module of src/, tests/ or bench/ loads
it, reads it as an attribute, passes it as a keyword, or spells it in a
string (the benchmark's tracer looks functions up by name).  Imports and
the definition itself do not count.  Dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spreadlab"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _bound_names(target):
    return [node.id for node in ast.walk(target) if isinstance(node, ast.Name)]


def _definitions(tree):
    """(name, line) for each name bound at module level or in a class body."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in _bound_names(target):
                        yield name, node.lineno
            elif isinstance(node, ast.AnnAssign):
                for name in _bound_names(node.target):
                    yield name, node.lineno


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.replace(".", " ").split()


def test_every_defined_name_is_used():
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "bench"):
        used.update(_uses(tree))
    defined = []
    for path, tree in _trees(PACKAGE):
        for name, line in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                defined.append((name, f"{path.relative_to(ROOT)}:{line}"))
    assert len(defined) > 100
    unused = [where + " " + name for name, where in defined if name not in used]
    assert not unused, "defined but never used:\n" + "\n".join(unused)
