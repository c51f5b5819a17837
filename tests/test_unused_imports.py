"""Every name a ``src/repro`` module imports is read somewhere in it.

An AST scan, no linter needed: each non-``__init__`` module is parsed,
every name an ``import`` binds is collected, and a name passes when the
module reads it anywhere — as a plain name, the head of an attribute
chain, inside a string annotation, or in ``__all__``.  The scan is
module-wide, not per scope.  ``from __future__`` imports and any
import statement with ``# noqa`` on one of its lines are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(tree, lines):
    """``(name, lineno)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _read_names(tree):
    """Every name the module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation ("Span") names a type too.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return read


def unused_imports(path):
    """``(lineno, name)`` of each imported name ``path`` never reads."""
    text = path.read_text()
    tree = ast.parse(text)
    read = _read_names(tree)
    return sorted((lineno, name) for name, lineno
                  in _bound_names(tree, text.splitlines())
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(SRC.parent)}:{lineno}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for lineno, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa\n"
                      "from typing import List, Optional\n"
                      "from .tracer import Span\n\n"
                      "def f(x: 'Span') -> List[int]:\n"
                      "    return [1]\n")
    assert unused_imports(module) == [(1, "os"), (3, "Optional")]
