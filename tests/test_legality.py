"""Semidirect legality against the exhaustive oracle.

``SemidirectProduct.legality`` decides additivity on index tables and a
generating set.  ``exhaustive_legality`` below checks every axiom on
every element tuple instead; both must return the same (ok, reason).
"""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mlex.modcore import ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import Action, Cocycle, SemidirectProduct, proper_subsets
from mlex.cocycle import _action_from_generator_tables
from mlex.cohomology import enumerate_cocycles

from fixture_lib import f1_datum, nonabelian_kernel


def exhaustive_legality(raw):
    """(ok, reason) for the module and multilinearity axioms, every
    condition checked on every element tuple of the raw table."""
    T, Qm, Im = raw.T, raw.Q.module, raw.I.module
    qs = mod_elements(Qm)
    # abelian group laws reduce to conditions on the group factor set
    for x in qs:
        for y in qs:
            if T.tplus[(x, y)] != T.tplus[(y, x)]:
                return False, f"addition not commutative at ({x},{y})"
    for x in qs:
        for y in qs:
            for z in qs:
                lhs = Im.add(T.tplus[(x, y)], T.tplus[(Qm.add(x, y), z)])
                rhs = Im.add(T.tplus[(y, z)], T.tplus[(x, Qm.add(y, z))])
                if lhs != rhs:
                    return False, f"addition not associative at ({x},{y},{z})"
    # scalars must agree with repeated addition, and m*u must vanish
    universe = raw.universe()
    for u in universe:
        acc = raw.zero()
        for r in range(raw.modulus):
            if raw.scalar(r, u) != acc:
                return False, f"scalar {r} disagrees with repeated addition at {u}"
            acc = raw.add(acc, u)
        if acc != raw.zero():
            return False, f"element {u} not annihilated by the modulus"
    # multilinearity of every operation in every slot
    for name, op in raw.Q.ops.items():
        n = op.arity
        for slot in range(n):
            for args in itertools.product(universe, repeat=n):
                for v in universe:
                    bumped = list(args)
                    bumped[slot] = raw.add(args[slot], v)
                    swapped = list(args)
                    swapped[slot] = v
                    lhs = raw.apply_op(name, bumped)
                    rhs = raw.add(raw.apply_op(name, args), raw.apply_op(name, swapped))
                    if lhs != rhs:
                        return False, f"operation {name} not additive in slot {slot + 1}"
    return True, None


def assert_same_legality(T):
    assert SemidirectProduct(T).legality() == exhaustive_legality(SemidirectProduct(T))


# Presentations per modulus; Z6 and Z2 x Z3 are the same group.
PRESENTATIONS = {
    2: [(2,), (2, 2)],
    3: [(3,), (3, 3)],
    4: [(2,), (4,), (2, 2)],
    6: [(2,), (3,), (6,), (2, 3)],
}


def size(factors):
    n = 1
    for d in factors:
        n *= d
    return n


def killed_by(module, d):
    return [v for v in mod_elements(module) if module.scalar(d, v).is_zero()]


def draw_map(draw, sources, target, linear, poke=False):
    """A table on every element tuple of sources[0] x ... -> target that is
    additive in the slots listed in ``linear`` and arbitrary in the rest;
    ``poke`` then changes the value at one drawn tuple."""
    free = [i for i in range(len(sources)) if i not in linear]
    cells = {}
    for rest in itertools.product(*(mod_elements(sources[i]) for i in free)):
        for key in itertools.product(*(range(sources[i].rank) for i in linear)):
            order = 0
            for i, j in zip(linear, key):
                order = gcd(order, sources[i].factors[j])
            cells[(rest, key)] = draw(st.sampled_from(killed_by(target, order)))
    table = {}
    for args in itertools.product(*(mod_elements(M) for M in sources)):
        rest = tuple(args[i] for i in free)
        out = target.zero()
        for key in itertools.product(*(range(sources[i].rank) for i in linear)):
            coeff = 1
            for i, j in zip(linear, key):
                coeff *= args[i].coords[j]
            out = target.add(out, target.scalar(coeff, cells[(rest, key)]))
        table[args] = out
    if poke:
        args = draw(st.sampled_from(sorted(table, key=lambda t: [a.coords for a in t])))
        table[args] = draw(st.sampled_from(mod_elements(target)))
    return table


def draw_algebra(draw, module, arity):
    table = {}
    for key in itertools.product(range(module.rank), repeat=arity):
        order = 0
        for i in key:
            order = gcd(order, module.factors[i])
        table[key] = draw(st.sampled_from(killed_by(module, order)))
    return Algebra(module, {"f": MultilinearOp("f", arity, module, table)})


@st.composite
def cocycles(draw):
    """Cocycles whose semidirect product is legal, or illegal at a drawn
    stage: a defect is put into one table, or into all of them."""
    m = draw(st.sampled_from(sorted(PRESENTATIONS)))
    arity = draw(st.sampled_from([1, 2]))
    qf, if_ = draw(
        st.sampled_from(
            [
                (a, b)
                for a in PRESENTATIONS[m]
                for b in PRESENTATIONS[m]
                # keep |E| small enough for the exhaustive oracle
                if size(a) * size(b) <= (18 if arity == 1 else 12)
            ]
        )
    )
    Qm, Im = ZmModule(m, qf), ZmModule(m, if_)
    Q, I = draw_algebra(draw, Qm, arity), draw_algebra(draw, Im, arity)
    qs, ins = mod_elements(Qm), mod_elements(Im)
    # operation-stage defects are drawn most often: they need the most care
    defect = draw(st.sampled_from(["none", "tplus", "tr", "all"] + ["action", "tf"] * 3))

    def defective(part):
        return defect in (part, "all")

    tables = {}
    for s in proper_subsets(arity):
        sources = [Qm] * (arity - len(s)) + [Im] * len(s)
        kernel_slots = list(range(arity - len(s), arity))
        linear, poke = range(arity), False
        if defective("action"):
            linear = draw(st.sampled_from([[], kernel_slots, linear]))
            poke = linear == range(arity)
        table = draw_map(draw, sources, Im, list(linear), poke)
        tables[("f", s)] = {
            (args[: arity - len(s)], args[arity - len(s):]): v for args, v in table.items()
        }
    action = Action(Q, I, tables)

    tplus = {}
    if defective("tplus"):
        kind = draw(st.sampled_from(["coboundary", "symmetric", "normalized", "any"]))
        if kind == "coboundary":
            h = {x: draw(st.sampled_from(ins)) if not x.is_zero() else Im.zero() for x in qs}
            tplus = {
                (x, y): Im.sub(Im.add(h[x], h[y]), h[Qm.add(x, y)]) for x in qs for y in qs
            }
        else:
            for i, x in enumerate(qs):
                for j, y in enumerate(qs):
                    if kind == "symmetric" and j < i:
                        tplus[(x, y)] = tplus[(y, x)]
                    elif kind != "any" and (x.is_zero() or y.is_zero()):
                        tplus[(x, y)] = Im.zero()
                    else:
                        tplus[(x, y)] = draw(st.sampled_from(ins))
    linear, poke = range(arity), False
    if defective("tf"):
        # additive in no slot, in every slot but the last, or in every
        # slot but for one changed value
        linear = draw(st.sampled_from([[], range(arity - 1), linear]))
        poke = linear == range(arity)
    tf = draw_map(draw, [Qm] * arity, Im, list(linear), poke)
    tf = {("f", xs): v for xs, v in tf.items()}
    T = Cocycle.from_cells(action, tplus, tf)
    if defective("tr"):
        if draw(st.booleans()):
            T.tr = {key: draw(st.sampled_from(ins)) for key in T.tr}
        else:
            T.tr[draw(st.sampled_from(sorted(T.tr, key=lambda k: (k[0], k[1].coords))))] = (
                draw(st.sampled_from(ins))
            )
    return T


@settings(max_examples=300, deadline=None)
@given(cocycles())
def test_legality_matches_exhaustive_oracle(T):
    assert_same_legality(T)


@pytest.mark.parametrize("kernel", ["zero", "nonabelian"])
def test_legality_matches_oracle_on_enumerated_cocycles(kernel):
    Q, I = f1_datum()
    if kernel == "nonabelian":
        I = nonabelian_kernel()
    enumerated = enumerate_cocycles(Q, I, action=None)
    assert len(enumerated) == 16
    for T in enumerated:
        assert_same_legality(T)
