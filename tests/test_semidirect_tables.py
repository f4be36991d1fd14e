"""E = I x Q on integer positions against the defining formulas.

``SemidirectProduct`` answers ``add``, ``scalar`` and ``apply_op`` from
position tables that legality reads too.  ``ElementProduct`` in
``oracles.py`` evaluates the same formulas on pairs of Elements, with no
table, so the tests below compare the tables with an independent route.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mlex.errors import MlexError, ValidationError
from mlex.modcore import ZmModule
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import Action, Cocycle, SemidirectProduct, equivalent, mlf_variety, relift
from mlex.cohomology import derivations, h1, h2_affine

from fixture_lib import f1_datum, side_action, sig_f, z2
from oracles import ElementProduct
from strategies import cocycles


@settings(max_examples=150, deadline=None)
@given(cocycles(arities=(1, 2, 3)), st.booleans())
def test_every_table_entry_matches_the_element_formulas(T, legality_first):
    """Legal and illegal tables alike, filled by legality or by callers."""
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
