"""Every name a module of the package imports is used in it.

No linter ships with the package, so this stands in for the unused-import
rule: a name bound by ``import`` or ``from ... import`` must appear as a
``Name`` node, which covers both a bare use and the base of an attribute
chain.  ``__init__.py`` is left out, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import icckit

MODULES = sorted(path for path in Path(icckit.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_rule_sees_bare_and_attribute_uses():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from math import gcd, lcm\n\nx = os.path.join(gcd(1, 2))\n")
    assert unused_imports(source) == ["line 3: regex", "line 4: lcm"]
