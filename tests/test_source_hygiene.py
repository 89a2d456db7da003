"""Static checks on the package source: no import goes unused, and no
module-level private name is left without a reader.

Deleting a duplicate helper tends to leave its import or a private sibling
behind; these tests name what was left. ``__init__.py`` re-exports by
design, so it is exempt."""

import ast
from pathlib import Path

import alpha_extremal

PACKAGE = Path(alpha_extremal.__file__).parent


def _names_read(node: ast.AST) -> set[str]:
    """Names, attributes and from-imported names that ``node`` reads, quoted
    annotations included."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    reads = set().union(
        *(_names_read(s) for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom)))
    )
    return [name for name in imported if name not in reads]


def unread_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` for each module-level ``_private`` name that nothing
    reads outside its own definition, in any of ``trees``."""
    reads_of = {
        name: [_names_read(stmt) for stmt in tree.body] for name, tree in trees.items()
    }
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, rs in reads_of.items() if m != module for r in rs))
        for i, stmt in enumerate(tree.body):
            reads = elsewhere.union(*(r for j, r in enumerate(reads_of[module]) if j != i))
            out += [
                f"{module}:{name}"
                for name in _defined_names(stmt)
                if name.startswith("_") and not name.startswith("__") and name not in reads
            ]
    return out


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_no_unused_import():
    unused = {name: unused_imports(tree) for name, tree in _package_trees().items()}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_name_is_read():
    assert unread_privates(_package_trees()) == []


def test_checks_catch_planted_leftovers():
    a = ast.parse(
        "import math\nfrom .b import Graph, _used\n\n"
        "def _gone(g: 'Graph'):\n    return _gone(g)\n\n_LIMIT = 3\n"
    )
    b = ast.parse("def _used():\n    pass\n\ndef _idle():\n    pass\n")
    assert unused_imports(a) == ["math", "_used"]
    assert unread_privates({"a.py": a, "b.py": b}) == ["a.py:_gone", "a.py:_LIMIT", "b.py:_idle"]
