"""E = I x Q on integer positions against the defining formulas.

``SemidirectProduct`` answers ``add``, ``scalar`` and ``apply_op`` from
position tables that legality reads too, and ``relifted`` reads the
tables that a lifting realizes off them.  ``ElementProduct`` in
``oracles.py`` evaluates the same formulas on pairs of Elements, with no
table, and ``element_relift`` evaluates the realization equations on it
pair by pair, so the tests below compare the tables with an independent
route.  Action T4 is decided on positions too; ``element_validate_action``
decides it on Elements.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mlex.errors import MlexError, ValidationError
from mlex.modcore import ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    equivalent,
    mlf_variety,
    realizes_raw,
    relift,
)
from mlex.cohomology import derivations, h1, h2_affine

from fixture_lib import f1_datum, side_action, sig_f, z2
from oracles import ElementProduct, element_relift, element_validate_action, matches
from strategies import PRESENTATIONS, cocycles, witness_maps


def assert_product_matches_the_formulas(T, legality_first):
    raw, oracle = SemidirectProduct(T), ElementProduct(T)
    if legality_first:
        raw.legality()
    universe = oracle.universe()
    assert raw.universe() == universe
    for u in universe:
        assert raw.neg(u) == oracle.neg(u)
        for r in range(-1, raw.modulus + 1):
            assert raw.scalar(r, u) == oracle.scalar(r, u)
        for v in universe:
            assert raw.add(u, v) == oracle.add(u, v)
    for name, op in T.Q.ops.items():
        for args in itertools.product(universe, repeat=op.arity):
            assert raw.apply_op(name, args) == oracle.apply_op(name, args)


@settings(max_examples=150, deadline=None)
@given(cocycles(arities=(1, 2, 3)), st.booleans())
def test_every_table_entry_matches_the_element_formulas(T, legality_first):
    """Legal and illegal tables alike, filled by legality or by callers.
    A second product over the same Action and Algebras, whose position
    tables the first one built, matches too."""
    assert_product_matches_the_formulas(T, legality_first)
    assert_product_matches_the_formulas(Cocycle.zero(T.Q, T.I, T.action), not legality_first)


def flattened(tables, T):
    """Realized tables as I positions in T's canonical order, -1 for None."""
    tplus, tr, tf, action_tables = tables
    index = T.I.module.layout.index
    pairs = [(tplus, T.tplus), (tr, T.tr), (tf, T.tf)]
    pairs += [(action_tables[key], table) for key, table in T.action.tables.items()]
    return [
        -1 if got[key] is None else index[got[key].coords] for got, ref in pairs for key in ref
    ]


@pytest.mark.parametrize("modulus", sorted(PRESENTATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relifts_match_the_element_relift(modulus, data):
    """``relifted``, ``relift`` and ``realizes_raw`` against the lifting
    x -> (h(x), x) evaluated pair by pair on the Element formulas, for an
    arbitrary map h with h(0) = 0, on legal and illegal tables.  The
    realized cocycle, or that with one cell changed, is realized by the
    zero lifting exactly when the oracle says so."""
    T = data.draw(cocycles(arities=(1, 2, 3), moduli=(modulus,)))
    h = data.draw(witness_maps(T.Q, T.I))
    raw = SemidirectProduct(T)
    if data.draw(st.booleans()):
        raw.legality()
    expected = element_relift(T, h)
    assert relift(raw, h) == expected
    index = T.I.module.layout.index
    assert raw.relifted([index[h[x].coords] for x in mod_elements(T.Q.module)]) == flattened(
        expected, T
    )
    zero = {x: T.I.module.zero() for x in mod_elements(T.Q.module)}
    assert realizes_raw(raw, T) == matches(element_relift(T, zero), T)
    tplus, tr, tf, tables = expected
    if any(v is None for table in tables.values() for v in table.values()):
        return
    Tp = Cocycle(Action(T.Q, T.I, tables), tplus, tr, tf)
    if data.draw(st.booleans()):
        table = data.draw(st.sampled_from([Tp.tplus, Tp.tr, Tp.tf, *Tp.action.tables.values()]))
        key = data.draw(st.sampled_from(sorted(table, key=repr)))
        table[key] = data.draw(st.sampled_from(mod_elements(T.I.module)))
    assert realizes_raw(raw, Tp) == matches(element_relift(T, zero), Tp)


def validation_outcome(validate, action):
    try:
        return validate(action)
    except ValidationError as err:
        return str(err), err.clause, err.where


@settings(max_examples=200, deadline=None)
@given(cocycles(arities=(2, 3), defects=["none", "action", "action"]), st.data())
def test_action_validation_matches_the_element_check(T, data):
    """Drawn actions that are additive in no slot, in their kernel slots
    only, or everywhere but at one cell, and a drawn cell set nonzero:
    the position check raises the same clause, message and ``where`` at
    the same first offending cell as the Element check, or passes with
    it."""
    tables = {key: dict(table) for key, table in T.action.tables.items()}
    if data.draw(st.booleans()):
        table = tables[data.draw(st.sampled_from(sorted(tables)))]
        key = data.draw(st.sampled_from(sorted(table, key=repr)))
        table[key] = data.draw(st.sampled_from(mod_elements(T.I.module)))
    expected = validation_outcome(element_validate_action, Action(T.Q, T.I, tables))
    assert validation_outcome(Action.validate, Action(T.Q, T.I, tables)) == expected


def test_pairs_outside_the_datum_raise_and_equal_modules_are_accepted():
    Q, I = f1_datum()
    raw = SemidirectProduct(Cocycle.zero(Q, I, side_action()))
    u = (I.module.element((1,)), Q.module.element((1,)))
    foreign = ZmModule(4, (4,)).element((1,))
    for bad in ((foreign, u[1]), (u[0], foreign)):
        with pytest.raises(MlexError):
            raw.add(u, bad)
        with pytest.raises(MlexError):
            raw.scalar(1, bad)
        with pytest.raises(MlexError):
            raw.apply_op("f", [bad, u])
    with pytest.raises(MlexError):
        raw.apply_op("f", [u])
    twin = z2()
    assert twin == Q.module and twin is not Q.module
    v = (twin.element((1,)), twin.element((1,)))
    assert raw.add(u, v) == raw.add(u, u)
    assert raw.scalar(3, v) == raw.scalar(3, u)
    assert raw.apply_op("f", [v, v]) == raw.apply_op("f", [u, u])


def test_one_split_product_per_action(monkeypatch):
    """derivations, h1 and two affine H2 computations on one action build
    one semidirect product, the action's ``split``, and decide its
    legality once."""
    built, decided = [], []
    init, check = SemidirectProduct.__init__, SemidirectProduct._check_legality

    def counting_init(self, T):
        built.append(self)
        init(self, T)

    def counting_check(self):
        decided.append(self)
        return check(self)

    monkeypatch.setattr(SemidirectProduct, "__init__", counting_init)
    monkeypatch.setattr(SemidirectProduct, "_check_legality", counting_check)
    Q, I = f1_datum()
    action = side_action()
    ders = derivations(Q, I, action)
    assert h1(Q, I, action).derivations == ders
    for _ in range(2):
        h2_affine(Q, I, action, mlf_variety(sig_f()))
    assert built == [action.split] and decided == [action.split]


def test_equivalent_rejects_cocycles_outside_t4():
    """Q = I = Z2, f nonzero on Q and zero on I, and an action that is
    nonzero at a zero outside-slot entry."""
    Z = z2()
    zero, one = Z.zero(), Z.element((1,))
    Q = Algebra(Z, {"f": MultilinearOp("f", 2, Z, {(0, 0): one})})
    I = Algebra(Z, {"f": MultilinearOp("f", 2, Z, {})})
    T = Cocycle.zero(Q, I, Action(Q, I, {("f", (1,)): {((zero,), (one,)): one}}))
    tplus, tr, tf, tables = relift(SemidirectProduct(T), {zero: zero, one: one})
    Tp = Cocycle(Action(Q, I, tables), tplus, tr, tf)
    with pytest.raises(ValidationError) as err:
        equivalent(T, Tp)
    assert err.value.clause == "T4"
