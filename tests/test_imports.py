"""Every module reads each name it imports, and ``src/mlex`` imports at
module level only.

An unused import tells a reader that a module depends on something it
does not, so the modules of ``src/mlex`` and of the test suite import
only what they read.  ``mlex/__init__.py`` is left out: its imports are
the package's re-exports.  An import inside a function hides a
dependency from the top of the module; only an import cycle would force
one, and ``FORCED_BY_CYCLE`` names each such import with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "module.function: imported module" -> the import cycle that forces it
FORCED_BY_CYCLE = {}


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


def _imported(node):
    if isinstance(node, ast.Import):
        return ", ".join(a.name for a in node.names)
    return "." * node.level + (node.module or "")


def function_imports(source, stem):
    """One line "module.function: imported module" for every import
    statement in a function body, nested functions and methods included,
    in source order."""
    out = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            else:
                if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
                    out.append(f"{stem}.{'.'.join(scope)}: {_imported(child)}")
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return out


def test_scan_finds_a_function_level_import():
    source = (
        "import os\n"
        "class C:\n"
        "    import sys\n"
        "    def m(self):\n"
        "        if self:\n"
        "            from .x import y\n"
        "def f():\n"
        "    def g():\n"
        "        import json, re\n"
    )
    assert function_imports(source, "mod") == ["mod.C.m: .x", "mod.f.g: json, re"]


def test_src_imports_at_module_level_only():
    found = {
        line
        for p in sorted((ROOT / "src" / "mlex").glob("*.py"))
        for line in function_imports(p.read_text(), p.stem)
    }
    assert found == set(FORCED_BY_CYCLE)
