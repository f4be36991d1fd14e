"""The library holds what the CLI reaches.

Every golden command runs on a fresh ``mlex`` import under
``sys.setprofile``.  The public top-level functions and the public
methods of top-level classes in ``src/mlex/*.py`` that no command enters
must be exactly the names of ``ALLOWED``, each kept for the reason it
gives.  Names starting with ``_`` and nested functions are not checked.
A name that nothing in ``src/`` or ``tests/`` calls is deleted, not
allowed.  To list the names no command enters:

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import mlex
from test_cli import GOLDEN_COMMANDS, fill, write_fixtures

SRC = Path(mlex.__file__).parent

TRACER = "perfbench/tracing.py wraps it as a traced entry point"
GROUP_API = "cocycle-group API that tests use"

ALLOWED = {
    "cocycle.coboundary": TRACER,
    "algebra.find_isomorphism": TRACER,
    "derlie.wells_map": TRACER,
    "cocycle.Cocycle.add": GROUP_API,
    "cocycle.Cocycle.sub": GROUP_API,
    "cocycle.Cocycle.factor_sets_zero": GROUP_API,
    "cohomology.AffineH2.add_classes": GROUP_API,
    "cocycle.Action.trivial": GROUP_API,
    "algebra.zero_ideal": GROUP_API,
    "cocycle.SemidirectProduct.op_arity": "the carrier protocol that Algebra also implements",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_names():
    """module.qualname of every public top-level function and public
    method of a public top-level class."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, DEFS + (ast.ClassDef,)) or node.name.startswith("_"):
                continue
            if isinstance(node, DEFS):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("_"):
                        names.add(f"{path.stem}.{node.name}.{item.name}")
    return names


def entered_names(directory):
    """module.qualname of every mlex function entered while the golden
    commands run on the mlex that sys.modules holds, imported here."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    paths = write_fixtures(directory)
    sys.setprofile(profile)
    try:
        main = importlib.import_module("mlex.cli").main
        for argv in GOLDEN_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                main(fill(argv, paths))
    finally:
        sys.setprofile(None)
    src = str(SRC)
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if code.co_filename.startswith(src)
    }


def loaded_mlex():
    return [n for n in sys.modules if n == "mlex" or n.startswith("mlex.")]


def unreached(directory):
    return public_names() - entered_names(directory)


def test_library_is_what_the_cli_reaches(tmp_path, monkeypatch):
    """mlex is imported afresh; the modules of the other tests come back
    afterwards."""
    for name in loaded_mlex():
        monkeypatch.delitem(sys.modules, name)
    assert unreached(tmp_path) == set(ALLOWED)


if __name__ == "__main__":
    import tempfile

    for name in loaded_mlex():
        del sys.modules[name]
    with tempfile.TemporaryDirectory() as tmp:
        found = unreached(tmp)
    for name in sorted(found - set(ALLOWED)):
        print("unreached:", name)
    for name in sorted(set(ALLOWED) - found):
        print("allowed but reached:", name)
