"""Every private function of the package is used in it.

A ``_``-prefixed function or method is internal, so once nothing in the
package refers to it, it is dead code that tests alone keep alive.  The
rule counts a reference as a ``Name`` node or an attribute (``x._name``)
anywhere in ``src/icckit`` other than the definition itself.  Dunder
methods are left out: the interpreter calls them.
"""

import ast
from pathlib import Path

import icckit

SOURCES = sorted(Path(icckit.__file__).parent.glob("*.py"))


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """``module:line name`` for every private function or method in
    ``sources`` (module name -> source) that no module refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{line} {name}" for module, line, name in defined if name not in used]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_functions(sources) == []


def test_rule_sees_calls_attributes_and_other_modules():
    sources = {
        "a.py": ("def _called(): pass\ndef _passed(): pass\ndef _dead(): pass\n"
                 "class C:\n    def __init__(self): self._method()\n    def _method(self): pass\n"
                 "    def _unused(self): pass\nx = map(_passed, [])\n_called()\n"),
        "b.py": "def _imported(): pass\n",
        "c.py": "from .b import _imported\n_imported()\n",
    }
    assert unreferenced_private_functions(sources) == ["a.py:3 _dead", "a.py:7 _unused"]
