"""Every module reads each name it imports.

An unused import tells a reader that a module depends on something it
does not, so the modules of ``src/mlex`` and of the test suite import
only what they read.  ``mlex/__init__.py`` is left out: its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(imported - read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit\nexit(argv)\n"
    assert unused_imports(source) == ["os", "osp"]


def test_modules_read_every_import():
    modules = [p for p in (ROOT / "src" / "mlex").glob("*.py") if p.name != "__init__.py"]
    modules += list((ROOT / "tests").glob("*.py"))
    unused = {
        str(p.relative_to(ROOT)): names
        for p in sorted(modules)
        if (names := unused_imports(p.read_text()))
    }
    assert unused == {}
