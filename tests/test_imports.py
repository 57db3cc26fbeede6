"""Every name a package module imports is used in that module.

No linter is installed, so this parses each module with ``ast``.
``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ramals"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
