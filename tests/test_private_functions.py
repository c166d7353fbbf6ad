"""Every function, method and class of the package is used in it, and so
is every private module-level name.

A ``_``-prefixed function, method, class or module-level name is
internal, so once nothing in the package refers to it, it is dead code
that tests alone keep alive.  The same holds for a public function,
method or class, unless it is documented API on ``ALLOWED_PUBLIC``.
The rule counts a reference as a ``Name`` node that is read, or an
attribute (``x._name``), anywhere in ``src/icckit`` other than the
definition itself; an import, the ``__init__`` exports included, is no
reference.  A module-level name is one bound by an assignment among the
module's top-level statements.  Dunder methods are left out: the
interpreter calls them.
"""

import ast
from pathlib import Path

import icckit

SOURCES = sorted(Path(icckit.__file__).parent.glob("*.py"))
# Public names that nothing in the package calls: the text form of a
# spec, kept for round-trip tests of the extension language (ROADMAP
# item 7).
ALLOWED_PUBLIC = {"pretty_print"}


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


def _scan(sources: dict[str, str]):
    """The functions, methods and classes that ``sources`` (module name ->
    source) define, and the names their top-level assignments bind, each
    as ``(module, line, name)``; and every name the modules read or look
    up as an attribute."""
    defined, assigned, used = [], [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        assigned += [(module, line, name) for line, name in _module_level_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, assigned, used


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line name`` for every private function, method, class or
    module-level name in ``sources`` (module name -> source) that no
    module refers to."""
    defined, assigned, used = _scan(sources)
    private = [d for d in defined if d[2].startswith("_") and not (d[2].startswith("__") and d[2].endswith("__"))]
    private += [a for a in assigned if a[2].startswith("_") and not a[2].startswith("__")]
    return [f"{module}:{line} {name}" for module, line, name in sorted(private) if name not in used]


def unreferenced_public_names(sources: dict[str, str], allowed=frozenset()) -> list[str]:
    """``module:line name`` for every public function, method or class in
    ``sources`` that no module refers to and ``allowed`` does not name."""
    defined, _, used = _scan(sources)
    return [f"{module}:{line} {name}" for module, line, name in sorted(defined)
            if not name.startswith("_") and name not in used and name not in allowed]


def read_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in SOURCES}


def test_every_private_function_is_referenced():
    assert unreferenced_private_names(read_sources()) == []


def test_every_public_function_is_referenced_or_allowed():
    """The allow-list holds exactly the unreferenced public names: an
    entry that the package starts to call leaves the list."""
    found = unreferenced_public_names(read_sources())
    assert {entry.split()[-1] for entry in found} == ALLOWED_PUBLIC, found


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


def test_public_rule_catches_unreferenced_functions_and_methods():
    sources = {
        "a.py": ("def used(): pass\ndef dead(): pass\ndef documented(): pass\n"
                 "class C:\n    def __init__(self): self.method()\n    def method(self): pass\n"
                 "    def unused(self): pass\nclass Dead: pass\n"),
        "b.py": "from .a import C, used\nused()\nC()\n",
        "c.py": "from .a import dead\n",
    }
    assert unreferenced_public_names(sources, {"documented"}) == [
        "a.py:2 dead", "a.py:7 unused", "a.py:8 Dead",
    ]
