"""Static checks on the package source: no import goes unused, no
module-level private name is left without a reader, no public module-level
name (function, class, constant or type alias) is left without a reader or
an export, no module-level import leaves a pinned allowlist, and no
``module.name`` in the README or a docstring names what its module does not
define.

Deleting a duplicate helper tends to leave its import, a private sibling,
the public slow path it replaced or a sentence about it behind; these tests
name what was left. ``__init__.py`` re-exports by design, so it is exempt,
and what it exports counts as read."""

import ast
import re
from pathlib import Path

import alpha_extremal

PACKAGE = Path(alpha_extremal.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _unread(trees: dict[str, ast.Module], candidates) -> list[str]:
    """``module:name`` for each name ``candidates(stmt)`` gives for a
    module-level statement that nothing reads outside that statement, in any
    of ``trees``."""
    reads_of = {
        name: [_names_read(stmt) for stmt in tree.body] for name, tree in trees.items()
    }
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, rs in reads_of.items() if m != module for r in rs))
        for i, stmt in enumerate(tree.body):
            reads = elsewhere.union(*(r for j, r in enumerate(reads_of[module]) if j != i))
            out += [f"{module}:{name}" for name in candidates(stmt) if name not in reads]
    return out


def unread_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` for each module-level ``_private`` name that nothing
    reads outside its own definition, in any of ``trees``."""
    return _unread(trees, lambda stmt: [
        name for name in _defined_names(stmt) if name.startswith("_") and not name.startswith("__")
    ])


def unread_publics(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """``module:name`` for each public module-level name (a function, a
    class, or an assigned constant or type alias) that nothing reads outside
    its own definition, in any of ``trees``, and that ``exported`` does not
    hold."""
    return _unread(trees, lambda stmt: [
        name for name in _defined_names(stmt) if not name.startswith("_") and name not in exported
    ])


def docstrings(tree: ast.Module) -> list[str]:
    """The module, class and function docstrings of ``tree``."""
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [doc for n in nodes if (doc := ast.get_docstring(n)) is not None]


def unresolved_references(texts: list[str], trees: dict[str, ast.Module]) -> list[str]:
    """Each ``module.name`` in ``texts``, ``module`` one of ``trees``, whose
    module defines no ``name`` at module level. ``module.py`` names a file."""
    defined = {
        path.removesuffix(".py"): {name for stmt in tree.body for name in _defined_names(stmt)}
        for path, tree in trees.items()
    }
    reference = re.compile(rf"\b({'|'.join(map(re.escape, defined))})\.(?!py\b)([A-Za-z_]\w*)")
    return [
        match.group(0)
        for text in texts
        for match in reference.finditer(text)
        if match.group(2) not in defined[match.group(1)]
    ]


# What the package may import at module level: today's standard-library
# modules and numpy. A new import adds to every command's start-up time, so
# widening this set is a decision, not a side effect.
ALLOWED_IMPORTS = {
    "__future__", "argparse", "collections", "contextlib", "csv", "dataclasses", "decimal",
    "functools", "io", "itertools", "json", "math", "multiprocessing", "numpy", "os",
    "pathlib", "sys", "typing",
}


def foreign_imports(trees: dict[str, ast.Module], allowed: set[str]) -> list[str]:
    """``module:name`` for each top-level package that a module-level import
    of ``trees`` names and ``allowed`` does not hold; the package's own
    (relative) imports are always allowed."""
    out = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                names = [stmt.module]
            else:
                continue
            out += [f"{module}:{top}" for name in names
                    if (top := name.split(".")[0]) not in allowed]
    return out


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _exported() -> set[str]:
    """The names ``__init__.py`` reads, its re-exports among them."""
    return _names_read(ast.parse((PACKAGE / "__init__.py").read_text()))


def test_no_unused_import():
    unused = {name: unused_imports(tree) for name, tree in _package_trees().items()}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_private_name_is_read():
    assert unread_privates(_package_trees()) == []


def test_every_public_definition_is_read_or_exported():
    assert unread_publics(_package_trees(), _exported()) == []


def test_imports_within_the_allowlist():
    trees = _package_trees()
    trees["__init__.py"] = ast.parse((PACKAGE / "__init__.py").read_text())
    assert foreign_imports(trees, ALLOWED_IMPORTS) == []


def test_every_doc_reference_resolves():
    texts = [README.read_text()] + [
        doc for path in sorted(PACKAGE.glob("*.py")) for doc in docstrings(ast.parse(path.read_text()))
    ]
    assert unresolved_references(texts, _package_trees()) == []


def test_checks_catch_planted_leftovers():
    a = ast.parse(
        "import math\nfrom .b import Graph, _used\n\n"
        "def _gone(g: 'Graph'):\n    return _gone(g)\n\n_LIMIT = 3\n"
    )
    b = ast.parse("def _used():\n    pass\n\ndef _idle():\n    pass\n")
    assert unused_imports(a) == ["math", "_used"]
    assert unread_privates({"a.py": a, "b.py": b}) == ["a.py:_gone", "a.py:_LIMIT", "b.py:_idle"]
    c = ast.parse(
        "from . import d\n\ndef lonely():\n    return lonely()\n\n"
        "def entry() -> 'Leaf':\n    return d.helper()\n\nclass Unused:\n    pass\n\nLIMIT = 3\n"
        "Leaf = tuple[int, int]\nFamily = tuple[int, list[int]]\nCAP: int = 10\n"
    )
    d = ast.parse("def helper():\n    pass\n\ndef _private():\n    pass\n")
    assert unread_publics({"c.py": c, "d.py": d}, {"entry"}) == [
        "c.py:lonely", "c.py:Unused", "c.py:LIMIT", "c.py:Family", "c.py:CAP"]
    assert unread_publics({"c.py": c, "d.py": d}, set()) == [
        "c.py:lonely", "c.py:entry", "c.py:Unused", "c.py:LIMIT", "c.py:Family", "c.py:CAP"]
    e = ast.parse(
        '"""Reads d.helper, not d.gone; see d.py."""\n\n'
        'def f():\n    """Calls c.entry after c.absent."""\n    d.unchecked = 1\n'
    )
    assert unresolved_references(docstrings(e) + ["d._private and c.LIMIT"],
                                 {"c.py": c, "d.py": d}) == ["d.gone", "c.absent"]
    f = ast.parse(
        "import math, scipy.sparse\nfrom . import d\nfrom .d import helper\n"
        "from networkx.algorithms import planarity\nfrom collections import abc\n\n"
        "def g():\n    import pandas\n"
    )
    assert foreign_imports({"f.py": f}, ALLOWED_IMPORTS) == ["f.py:scipy", "f.py:networkx"]
