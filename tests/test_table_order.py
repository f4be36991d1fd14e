"""Datum tables are complete and stored in canonical order once.

``Action`` and ``Cocycle`` store every table in the order the reports
print it, so reports, canonical keys and validation errors read the
tables as stored; ``cocycle.action_keys`` is the one enumerator of
action-table keys.
"""

import ast
import itertools
from pathlib import Path

import pytest

from mlex.errors import ValidationError
from mlex.modcore import ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import Action, Cocycle, action_keys, proper_subsets
from mlex import workspace as wsmod

SRC = Path(__file__).resolve().parent.parent / "src" / "mlex"


def _datum():
    """Q = Z4 with a binary and a ternary operation, I = Z2^2, over m = 4."""
    Qm, Im = ZmModule(4, (4,)), ZmModule(4, (2, 2))
    ops = {"g": 3, "f": 2}
    Q = Algebra(Qm, {f: MultilinearOp(f, n, Qm, {}) for f, n in ops.items()})
    I = Algebra(Im, {f: MultilinearOp(f, n, Im, {}) for f, n in ops.items()})
    return Q, I


def _coords(key):
    return tuple(tuple(e.coords for e in part) for part in key)


def test_action_keys_list_the_table_in_sorted_order():
    Q, I = _datum()
    for n in (2, 3):
        for s in proper_subsets(n):
            keys = list(action_keys(Q, I, n, s))
            assert len(keys) == 4 ** (n - len(s)) * 4 ** len(s)
            assert [_coords(k) for k in keys] == sorted(_coords(k) for k in keys)
            assert all(len(qoff) == n - len(s) and len(asub) == len(s) for qoff, asub in keys)


def test_tables_are_stored_in_canonical_order_whatever_the_input_order():
    Q, I = _datum()
    one, e1 = Q.module.element((1,)), I.module.element((1, 0))
    # slots and keys given out of order
    action = Action(Q, I, {
        ("g", (1,)): {((one, Q.module.element((3,))), (e1,)): e1, ((one, one), (e1,)): e1},
        ("f", (0,)): {((one,), (e1,)): e1},
    })
    assert list(action.tables) == [
        (f, s) for f in ("f", "g") for s in proper_subsets(Q.op_arity(f))
    ]
    assert action.slots() == list(action.tables)
    for (f, s), table in action.tables.items():
        assert list(table) == list(action_keys(Q, I, Q.op_arity(f), s))
    qs = mod_elements(Q.module)
    T = Cocycle(
        action,
        {(qs[3], qs[1]): e1, (qs[1], qs[3]): e1},
        {(3, qs[2]): e1, (2, qs[1]): e1},
        {("g", (one, one, one)): e1, ("f", (one, one)): e1},
    )
    assert list(T.tplus) == list(itertools.product(qs, repeat=2))
    assert list(T.tr) == list(itertools.product(range(4), qs))
    assert list(T.tf) == [
        (f, xs) for f in ("f", "g") for xs in itertools.product(qs, repeat=Q.op_arity(f))
    ]
    # the canonical key reads the cells in stored order
    assert T.canonical_key()[1] == tuple(v.coords for v in T.tplus.values())
    assert action.canonical_key() == tuple(
        v.coords for table in action.tables.values() for v in table.values()
    )


HEADER = """\
[ring] modulus = 2
[module Z] factors = 2
[algebra Q] module = Z; op f/2
[algebra I] module = Z; op f/2
"""


@pytest.mark.parametrize(
    "section, cells, where",
    [
        (
            "[action t0] Q = Q; I = I\n[cocycle C] action = t0\n",
            ["Tplus: ((1),(0)) -> (1)", "Tplus: ((0),(1)) -> (1)"],
            "T1 violated group factor set nonzero on a zero argument at ((0),(1))",
        ),
        (
            "[action t] Q = Q; I = I\n",
            ["a(f,2): ((0),(1)|(1),(1)) -> (1)", "a(f,2): ((0),(0)|(0),(0)) -> (1)"],
            "T4 violated action a(f,{2}) nonzero at zero outside-slot entry at ((0)|(0))",
        ),
    ],
)
def test_validation_names_the_first_offending_cell_in_table_order(section, cells, where):
    """Files listing the same violations in opposite orders give one message."""
    messages = set()
    for order in (cells, cells[::-1]):
        with pytest.raises(ValidationError) as err:
            wsmod.load_text(HEADER + section + "".join(c + "\n" for c in order))
        messages.add(str(err.value))
    assert len(messages) == 1
    assert where in messages.pop()


def _calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == name
    ]


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _element_lists(func):
    """Names the function binds to ``mod_elements(...)``."""
    return {
        t.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and _is_elements(node.value, set())
        for t in node.targets
        if isinstance(t, ast.Name)
    }


def _is_elements(node, names):
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "mod_elements") or (
        isinstance(node, ast.Name) and node.id in names
    )


def _enumerates_action_keys(call, names):
    """An ``itertools.product`` over all elements of a module whose repeat
    count is a slot subset's size or the number of slots outside it.  The
    generator cells of ``enumerate_actions`` range over nonzero elements or
    generator indices, and the full-tuple loops of ``is_h2_morphism``
    repeat the arity: neither lists table keys."""
    repeat = next((k.value for k in call.keywords if k.arg == "repeat"), None)
    if repeat is None or not any(_is_elements(a, names) for a in call.args):
        return False
    text = ast.unparse(repeat)
    return any(part in text for part in ("len(s)", "len(off", "off_slots", "- len("))


def _key_enumerations(tree):
    found = []
    for func in _functions(tree):
        if func.name == "action_keys":
            continue
        names = _element_lists(func)
        found.extend(
            (func.name, call.lineno)
            for call in _calls(func, "itertools.product")
            if _enumerates_action_keys(call, names)
        )
    return found


def test_only_action_keys_enumerates_action_table_keys():
    offenders = [
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _key_enumerations(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_action_keys_rule_sees_a_key_enumeration():
    tree = ast.parse(
        "def f(Q, I, s, off, n):\n"
        "    qs = mod_elements(Q.module)\n"
        "    for qoff in itertools.product(qs, repeat=len(off)):\n"
        "        for asub in itertools.product(mod_elements(I.module), repeat=len(s)):\n"
        "            pass\n"
        "    for xs in itertools.product(qs, repeat=n):\n"
        "        pass\n"
        "    for cs in itertools.product(gens, repeat=len(s)):\n"
        "        pass\n"
    )
    assert _key_enumerations(tree) == [("f", 3), ("f", 4)]


TABLES = ("tplus", "tr", "tf", "tables", "table")


def test_cli_prints_tables_in_stored_order():
    tree = ast.parse((SRC / "cli.py").read_text())
    sorts = [
        ast.unparse(call)
        for call in _calls(tree, "sorted")
        if call.args
        and any(
            (isinstance(n, ast.Attribute) and n.attr in TABLES)
            or (isinstance(n, ast.Name) and n.id in TABLES)
            for n in ast.walk(call.args[0])
        )
    ]
    assert sorts == []
