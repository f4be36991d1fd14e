"""Hypothesis strategies for small random data: modules, algebras, maps,
cocycles and witness maps, over moduli 2, 3, 4 and 6."""

import itertools
from math import gcd

from hypothesis import strategies as st

from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import Action, Cocycle, proper_subsets


# Presentations per modulus; Z6 and Z2 x Z3 are the same group.
PRESENTATIONS = {
    2: [(2,), (2, 2)],
    3: [(3,), (3, 3)],
    4: [(2,), (4,), (2, 2)],
    6: [(2,), (3,), (6,), (2, 3)],
}

# Largest |Q| * |I| per operation arity, small enough for the exhaustive oracles.
MAX_E = {1: 18, 2: 12, 3: 9}

DEFECTS = ["none", "tplus", "tr", "all"] + ["action", "tf"] * 3


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


def draw_algebra(draw, module, arity, abelian=False):
    """One operation f of the arity; with ``abelian`` it is zero."""
    table = {}
    keys = [] if abelian else itertools.product(range(module.rank), repeat=arity)
    for key in keys:
        order = 0
        for i in key:
            order = gcd(order, module.factors[i])
        table[key] = draw(st.sampled_from(killed_by(module, order)))
    return Algebra(module, {"f": MultilinearOp("f", arity, module, table)})


@st.composite
def cocycles(draw, arities=(1, 2), defects=DEFECTS, affine=False, moduli=tuple(PRESENTATIONS)):
    """Cocycles whose semidirect product is legal, or illegal at a drawn
    stage: a defect is put into one table, or into all of them.  With
    ``affine`` the kernel operation is zero and only unary action terms
    are drawn."""
    m = draw(st.sampled_from(sorted(moduli)))
    arity = draw(st.sampled_from(arities))
    qf, if_ = draw(
        st.sampled_from(
            [
                (a, b)
                for a in PRESENTATIONS[m]
                for b in PRESENTATIONS[m]
                if size(a) * size(b) <= MAX_E[arity]
            ]
        )
    )
    Qm, Im = ZmModule(m, qf), ZmModule(m, if_)
    Q, I = draw_algebra(draw, Qm, arity), draw_algebra(draw, Im, arity, affine)
    qs, ins = mod_elements(Qm), mod_elements(Im)
    # operation-stage defects are drawn most often: they need the most care
    defect = draw(st.sampled_from(defects))

    def defective(part):
        return defect in (part, "all")

    tables = {}
    for s in proper_subsets(arity):
        if affine and len(s) > 1:
            continue
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


@st.composite
def witness_maps(draw, Q, I):
    """A map h: Q -> I with h(0) = 0."""
    ins = mod_elements(I.module)
    return {
        x: I.module.zero() if x.is_zero() else draw(st.sampled_from(ins))
        for x in mod_elements(Q.module)
    }


@st.composite
def linear_maps(draw, source, target):
    """A LinMap: each generator goes to an element its order kills."""
    return LinMap(
        source,
        target,
        tuple(draw(st.sampled_from(killed_by(target, d))) for d in source.factors),
    )
