"""Every private function, class and module-level name of the package is
used in it.

A ``_``-prefixed function, method, class or module-level name is
internal, so once nothing in the package refers to it, it is dead code
that tests alone keep alive.  The rule counts a reference as a ``Name``
node that is read, or an attribute (``x._name``), anywhere in
``src/icckit`` other than the definition itself; a module-level name is
one bound by an assignment among the module's top-level statements.
Dunder methods are left out: the interpreter calls them.
"""

import ast
from pathlib import Path

import icckit

SOURCES = sorted(Path(icckit.__file__).parent.glob("*.py"))


def _module_level_names(tree: ast.Module):
    """``(line, name)`` for each name the module's top-level assignments bind."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield node.lineno, node.id


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line name`` for every private function, method, class or
    module-level name in ``sources`` (module name -> source) that no
    module refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, line, name) for line, name in _module_level_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{line} {name}" for module, line, name in sorted(defined) if name not in used]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []


def test_rule_sees_calls_attributes_and_other_modules():
    sources = {
        "a.py": ("def _called(): pass\ndef _passed(): pass\ndef _dead(): pass\n"
                 "class C:\n    def __init__(self): self._method()\n    def _method(self): pass\n"
                 "    def _unused(self): pass\nx = map(_passed, [])\n_called()\n"),
        "b.py": "def _imported(): pass\n",
        "c.py": "from .b import _imported\n_imported()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:3 _dead", "a.py:7 _unused"]


def test_rule_sees_private_classes_and_module_names():
    sources = {
        "a.py": ("class _Used: pass\nclass _Dead: pass\nclass C:\n    class _Inner: pass\n"
                 "_READ = 1\n_DEAD = _READ\n_typed: int = 2\n_pair, _other = 3, 4\n"
                 "__all__ = []\nx = _Used()\n"
                 "def f():\n    _local = 5\n    return _local\n"),
        "b.py": "from .a import _pair, _typed\nprint(_pair, _typed)\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py:2 _Dead", "a.py:4 _Inner", "a.py:6 _DEAD", "a.py:8 _other",
    ]
