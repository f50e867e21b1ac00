"""No ``src/repro`` module imports a name it never references.

No linter runs over the package, so this test does the one check that
matters most for dead code: it parses every module except the package
``__init__.py`` files (whose imports are the public re-export surface) and
fails on an imported name that no expression of the module uses.  A name
counts as used when it appears as a name in the module's code, in
``__all__``, or in a string annotation (``"Session"`` for an import under
``TYPE_CHECKING``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Each name a module binds by import, with the line that binds it."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _string_names(text: str) -> Set[str]:
    """Names in a string that parses as an expression (a string annotation)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Covers the entries of __all__ and string annotations.
            names.add(node.value)
            names |= _string_names(node.value)
    return names


def unused_imports(source: str) -> Dict[str, int]:
    tree = ast.parse(source)
    referenced = _referenced(tree)
    return {name: line for name, line in _imported(tree).items() if name not in referenced}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_references_every_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{name} (line {line})" for name, line in unused.items())


def test_the_scan_finds_an_unused_import():
    source = (
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'OrderedDict') -> List[int]:\n"
        "    return [x]\n"
    )
    assert unused_imports(source) == {"np": 2}
