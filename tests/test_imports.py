"""Every name a package module imports is used in that module, and every
definition in the package is read in it.

No linter is installed, so this parses each module with ``ast``.
``__init__.py`` is skipped by the import check: its imports are the
package's exports, which the definition check counts as reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ramals"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math\nfrom json import dumps, loads as parse\n"
              "def f(x: Path) -> None:\n    return os.path.join(parse(x))\n")
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each top-level function or class that no module of
    ``sources`` reads as a name, as an attribute or in an import, and
    ``module:Class.method`` of each method that is not a dunder and that no
    module reads as an attribute: a local of the same name does not read a
    method.  An ``__init__.py`` import is an export.  Names match across
    modules and classes, by name alone."""
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}:{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined.extend((f"{module}:{node.name}.{item.name}", item.name, True)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and not (item.name.startswith("__") and item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return sorted(where for where, name, method in defined
                  if name not in attributes and (method or name not in names))


def test_definition_checker_flags_only_unread_names():
    source = ("class Box:\n"
              "    def __init__(self): pass\n"
              "    def opened(self): pass\n"
              "    def never(self): pass\n"
              "    def shadowed(self): pass\n"
              "    @property\n"
              "    def size(self): return 1\n"
              "def used(): return Box().opened, Box().size\n"
              "def exported(): pass\n"
              "def unread(): pass\n"
              "def local():\n"
              "    shadowed = 1\n"
              "    return shadowed\n"
              "print(used(), local())\n")
    assert unread_definitions({"__init__.py": "from .box import exported\n",
                               "box.py": source}) == ["box.py:Box.never", "box.py:Box.shadowed",
                                                      "box.py:unread"]


def test_package_reads_every_definition():
    assert unread_definitions({path.name: path.read_text() for path in SOURCES}) == []
