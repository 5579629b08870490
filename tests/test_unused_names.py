"""Every module- or class-level name defined in src/spreadlab is used.

A name counts as used when some module of src/, tests/ or bench/ loads
it, reads it as an attribute, passes it as a keyword, or spells it in a
string (the benchmark's tracer looks functions up by name).  Imports and
the definition itself do not count.  Dunder names are exempt.  A second,
stricter check counts only src/ and bench/ as users, so library code
that only tests reach is flagged unless an allowlist gives its reason.
A third holds parameters to the same standard: an optional parameter
that no call in src/ or bench/ passes, or a default of a private
function that every such call overrides, is flagged unless an allowlist
gives its reason.  Calls are matched to functions by name.
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


# Public names with no caller in src/ or bench/ that stay, and why.
TEST_ONLY_KEPT = {
    "ideal_sum": "public ideal calculus; the README lists sums",
    "is_max_ideal_associated": "the paper's m in Ass(R/p^n) test, acceptance criteria 5 and 6",
    "cache_info": "the byte table's observability, which the fat-point tests read",
    "lc": "public Polynomial API beside lm; the division oracles use it",
}


def _unused(*user_dirs):
    used = set()
    for _, tree in _trees(*user_dirs):
        used.update(_uses(tree))
    defined = []
    for path, tree in _trees(PACKAGE):
        for name, line in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                defined.append((name, f"{path.relative_to(ROOT)}:{line}"))
    assert len(defined) > 100
    return [(name, where) for name, where in defined if name not in used]


def test_every_defined_name_is_used():
    unused = _unused(ROOT / "src", ROOT / "tests", ROOT / "bench")
    assert not unused, "defined but never used:\n" + "\n".join(
        f"{where} {name}" for name, where in unused
    )


def test_every_defined_name_has_a_library_user():
    unused = _unused(ROOT / "src", ROOT / "bench")
    flagged = [f"{where} {name}" for name, where in unused if name not in TEST_ONLY_KEPT]
    assert not flagged, "used only by tests (move it to tests/oracles.py or allow it):\n" + (
        "\n".join(flagged)
    )
    # an allowance outlives its reason once the library uses the name
    stale = sorted(set(TEST_ONLY_KEPT) - {name for name, _ in unused})
    assert not stale, f"allowed but used in src/ or bench/: {stale}"


# Optional parameters that no library call passes, or private defaults that
# every library call overrides, which stay, and why.
PARAMETERS_KEPT = {}


def _functions(tree):
    """(function node, callee names, bound) for each module-level function
    and method: the names its calls go by (a class's name counts for its
    ``__init__``), and 1 for bound when calls bind arguments after self or
    cls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, (node.name,), 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    names = (item.name, node.name) if item.name == "__init__" else (item.name,)
                    yield item, names, 0 if static else 1


def _optional_parameters(fn, bound):
    """(name, position) of each parameter with a default; position is None
    for a keyword-only one."""
    args = (fn.args.posonlyargs + fn.args.args)[bound:]
    first = len(args) - len(fn.args.defaults)
    for i, arg in enumerate(args[first:], first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether the call passes the parameter, by keyword, by position, or
    through *args or **kwargs."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _parameter_flags():
    calls = {}
    for _, tree in _trees(ROOT / "src", ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    flags = []
    for path, tree in _trees(PACKAGE):
        for fn, names, bound in _functions(tree):
            name = fn.name
            private = name.startswith("_") and not name.endswith("__")
            for param, position in _optional_parameters(fn, bound):
                passed = [
                    _passes(call, param, position) for n in names for call in calls.get(n, ())
                ]
                where = f"{path.relative_to(ROOT)}:{fn.lineno} {name}.{param}"
                if not any(passed):
                    flags.append((f"{name}.{param}", f"{where}: no call passes it"))
                elif private and all(passed):
                    flags.append((f"{name}.{param}", f"{where}: every call overrides it"))
    return flags


def test_every_optional_parameter_has_a_library_use():
    flags = _parameter_flags()
    flagged = [why for key, why in flags if key not in PARAMETERS_KEPT]
    assert not flagged, "parameter options the library does not use:\n" + "\n".join(flagged)
    stale = sorted(set(PARAMETERS_KEPT) - {key for key, _ in flags})
    assert not stale, f"allowed but no longer flagged: {stale}"
