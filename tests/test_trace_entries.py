"""The benchmark's tracer still finds every entry point it names.

``perfbench/tracing.py`` is loaded by path and only read.  A renamed or
removed entry would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_entry_resolves_and_counts(monkeypatch):
    """mlex is imported afresh, as the benchmark imports it; the modules of
    the other tests come back afterwards."""
    for name in [n for n in sys.modules if n == "mlex" or n.startswith("mlex.")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("mlex.cli")
    modcore = importlib.import_module("mlex.modcore")
    algebra = importlib.import_module("mlex.algebra")
    cocycle = importlib.import_module("mlex.cocycle")
    cohomology = importlib.import_module("mlex.cohomology")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for entry in tracing.ENTRIES:
            modname, *path = entry.split(".")
            owner = sys.modules[f"mlex.{modname}"]
            if len(path) == 2:
                owner, path = vars(owner)[path[0]], path[1:]
            assert hasattr(vars(owner)[path[0]], "__wrapped__"), entry
        # Z2 acting on Z2 by a(f, {2})(x | a) = x * a, so no shortcut applies
        Z2 = modcore.ZmModule(2, (2,))
        Q = algebra.Algebra(Z2, {"f": algebra.MultilinearOp("f", 2, Z2, {})})
        one = Z2.element((1,))
        action = cocycle.Action(Q, Q, {("f", (1,)): {((one,), (one,)): one}})
        cohomology.derivations(Q, Q, action)
        cohomology.principal_derivations(Q, Q, action)
    finally:
        tracer.uninstall()
    for counter in (
        "cohomology.derivations.witness_space",
        "cohomology.principal_derivations.complete",
    ):
        assert counter in tracer.counts, counter
    assert tracer.counts["cohomology.derivations.calls"] == 2
    assert not hasattr(cohomology.derivations, "__wrapped__")
