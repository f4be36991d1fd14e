"""Exhaustive oracles for routines that the library decides by a shorter route.

Each function checks its property by brute force, the way the library
once did: on every element tuple, or by a hand-coded formula instead of
the one realization routine.  The tests compare each library route with
its oracle on random small data.
"""

import itertools

from mlex.modcore import mod_elements
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    all_witness_maps,
    proper_subsets,
    substitute,
)


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
        pair = f"<{u[0]},{u[1]}>"
        acc = raw.zero()
        for r in range(raw.modulus):
            if raw.scalar(r, u) != acc:
                return False, f"scalar {r} disagrees with repeated addition at {pair}"
            acc = raw.add(acc, u)
        if acc != raw.zero():
            return False, f"element {pair} not annihilated by the modulus"
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


def isomorphism_witness(T, Tp):
    """First witness h making (a,x) -> (a - h(x), x) an isomorphism of the
    two semidirect tables, checked cell by cell, or None."""
    raw1, raw2 = SemidirectProduct(T), SemidirectProduct(Tp)
    Q, I = T.Q, T.I
    universe = raw1.universe()
    for h in all_witness_maps(Q, I):

        def gamma(u):
            a, x = u
            return (I.module.sub(a, h[x]), x)

        def respects():
            for u in universe:
                for v in universe:
                    if gamma(raw1.add(u, v)) != raw2.add(gamma(u), gamma(v)):
                        return False
                for r in range(raw1.modulus):
                    if gamma(raw1.scalar(r, u)) != raw2.scalar(r, gamma(u)):
                        return False
            for f, op in Q.ops.items():
                for args in itertools.product(universe, repeat=op.arity):
                    if gamma(raw1.apply_op(f, args)) != raw2.apply_op(
                        f, [gamma(u) for u in args]
                    ):
                        return False
            return True

        if respects():
            return h
    return None


def coboundary_formula(h, action):
    """The coboundary of h over a reference action by the alternating-sign
    formula, validated as a cocycle."""
    Q, I = action.Q, action.I
    zq = Q.module.zero()
    Im = I.module

    def sign(k):
        return 1 if k % 2 == 0 else Im.modulus - 1

    qs = mod_elements(Q.module)
    tplus = {
        (x, y): Im.sub(Im.add(h[x], h[y]), h[Q.module.add(x, y)])
        for x in qs
        for y in qs
    }
    tr = {
        (r, x): Im.sub(Im.scalar(r, h[x]), h[Q.module.scalar(r, x)])
        for r in range(Q.module.modulus)
        for x in qs
    }
    tf = {}
    action_tables = {}
    for f, op in Q.ops.items():
        n = op.arity
        for xs in itertools.product(qs, repeat=n):
            hx = [h[x] for x in xs]
            acc = Im.zero()
            for s in proper_subsets(n):
                acc = Im.add(acc, Im.scalar(sign(1 + len(s)), action.value(f, s, xs, hx)))
            acc = Im.add(acc, Im.scalar(sign(1 + n), I.eval_op(f, hx)))
            tf[(f, xs)] = Im.sub(acc, h[Q.eval_op(f, xs)])
        for s in proper_subsets(n):
            off = tuple(i for i in range(n) if i not in s)
            table = {}
            for qoff in itertools.product(qs, repeat=len(off)):
                xs = [zq] * n
                for i, q in zip(off, qoff):
                    xs[i] = q
                hx = [h[x] for x in xs]
                for asub in itertools.product(mod_elements(Im), repeat=len(s)):
                    args = substitute(hx, s, asub)
                    acc = Im.zero()
                    for r_set in proper_subsets(n):
                        if set(s) < set(r_set):
                            acc = Im.add(
                                acc,
                                Im.scalar(
                                    sign(1 + len(r_set) - len(s)),
                                    action.value(f, r_set, xs, args),
                                ),
                            )
                    acc = Im.add(acc, Im.scalar(sign(1 + n - len(s)), I.eval_op(f, args)))
                    table[(qoff, asub)] = acc
            action_tables[(f, s)] = table
    G = Cocycle(Action(Q, I, action_tables), tplus, tr, tf)
    G.validate()
    return G


def exhaustive_is_homomorphism(A, B, phi):
    """Does the LinMap phi respect every operation on every element tuple?"""
    if A.signature() != B.signature():
        return False
    for name, op in A.ops.items():
        for args in itertools.product(mod_elements(A.module), repeat=op.arity):
            if phi(op(*args)) != B.eval_op(name, [phi(a) for a in args]):
                return False
    return True
