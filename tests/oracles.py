"""Exhaustive oracles for routines that the library decides by a shorter route.

Each function checks its property by brute force, the way the library
once did: on every element tuple, by trying every map, or by a
hand-coded formula instead of the one realization routine.  The tests compare each library route with
its oracle on random small data.
"""

import itertools

from mlex.errors import ConsistencyError
from mlex.modcore import hom_enumerate, mod_elements
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    proper_subsets,
    substitute,
)
from mlex.derlie import is_derivation, lin_bracket
from mlex.cohomology import multilinearity_identities
from mlex import termlang


def all_witness_maps(Q, I):
    """All maps h: Q -> I with h(0) = 0, lexicographic in their tables."""
    xs = [x for x in mod_elements(Q.module) if not x.is_zero()]
    out = []
    for images in itertools.product(mod_elements(I.module), repeat=len(xs)):
        h = {Q.module.zero(): I.module.zero()}
        h.update(dict(zip(xs, images)))
        out.append(h)
    return out


def coboundary_table(h, Q, I):
    """The group factor set h(x) + h(y) - h(x+y) of a lifting change."""
    qs = mod_elements(Q.module)
    return {
        (x, y): I.module.sub(I.module.add(h[x], h[y]), h[Q.module.add(x, y)])
        for x in qs
        for y in qs
    }


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
    tplus = coboundary_table(h, Q, I)
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


def first_box_helper(datum, d_I):
    """First helper map h: Q -> A, in ``all_witness_maps`` order, for which
    the two-sum identity of the box condition holds at every action-table
    cell, or None."""
    Q, I_alg, A = datum.Q, datum.I_alg, datum.A
    T = datum.T
    lifts = datum.section
    for h in all_witness_maps(Q, A):
        ok = True
        for (f, s), table in T.action.tables.items():
            n = Q.op_arity(f)
            off = T.action.off_slots(f, s)
            for qoff in itertools.product(mod_elements(Q.module), repeat=len(off)):
                for bsub in itertools.product(mod_elements(I_alg.module), repeat=len(s)):
                    lhs = datum.coeff.embed(d_I[table[(qoff, bsub)]])
                    margs = [None] * n
                    for q, i in zip(qoff, off):
                        margs[i] = lifts[q]
                    for b, i in zip(bsub, s):
                        margs[i] = datum.iota(b)
                    rhs = A.module.zero()
                    for i in range(n):
                        coeff = (
                            h[qoff[off.index(i)]] if i in off else
                            datum.coeff.embed(d_I[bsub[s.index(i)]])
                        )
                        rhs = A.module.add(
                            rhs, datum.action.value(f, (i,), tuple(margs), (coeff,) * n)
                        )
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return h
    return None


def exhaustive_derivations_of(M):
    """All derivations of M: every endomorphism, in ``hom_enumerate``
    order, tried against the product rule."""
    out = [h for h in hom_enumerate(M.module, M.module) if is_derivation(M, h)]
    keys = {d.images for d in out}
    for d1 in out:
        for d2 in out:
            if lin_bracket(d1, d2).images not in keys:
                raise ConsistencyError("derivations are not closed under the bracket")
    return out


def full_cell_pair_is_compatible(alpha, beta, action):
    """The distinguished-slot rule on every cell of Q^n x I^n."""
    Q, I = action.Q, action.I
    for f, s in action.slots():
        n = Q.op_arity(f)
        for xs in itertools.product(mod_elements(Q.module), repeat=n):
            for avec in itertools.product(mod_elements(I.module), repeat=n):
                lhs = alpha(action.value(f, s, xs, avec))
                rhs = I.module.zero()
                for i in range(n):
                    rhs = I.module.add(
                        rhs,
                        action.value(
                            f,
                            s,
                            substitute(xs, (i,), (beta(xs[i]),)),
                            substitute(avec, (i,), (alpha(avec[i]),)),
                        ),
                    )
                if lhs != rhs:
                    return False
    return True


def exhaustive_compatible_pairs(I, Q, action):
    """Every pair in Der(I) x Der(Q) tried against the full-cell rule."""
    pairs = [
        (a, b)
        for a in exhaustive_derivations_of(I)
        for b in exhaustive_derivations_of(Q)
        if full_cell_pair_is_compatible(a, b, action)
    ]
    keyset = {(a.images, b.images) for a, b in pairs}
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            br = (lin_bracket(a1, a2).images, lin_bracket(b1, b2).images)
            if br not in keyset:
                raise ConsistencyError("compatible pairs not closed under the bracket")
    return pairs


def _strict_residual(T, identity):
    """Evaluate both sides of the identity at kernel-zero pairs in the raw
    semidirect product and return the first-coordinate differences."""
    raw = SemidirectProduct(T)
    Qm = T.Q.module
    out = []
    for xs in itertools.product(mod_elements(Qm), repeat=len(identity.variables)):
        env = {v: raw.lift(x) for v, x in zip(identity.variables, xs)}
        lhs = termlang.eval_term(raw, identity.lhs, env)
        rhs = termlang.eval_term(raw, identity.rhs, env)
        out.append(T.I.module.sub(lhs[0], rhs[0]))
    return out


def sampled_constraint_rows(H):
    """The congruence rows of an ``AffineH2``, group laws written by hand
    and every other identity sampled through the raw semidirect product
    of each basis cocycle, which is linear in the factor sets over affine
    datum."""
    Qm, Im = H.Q.module, H.I.module
    k = Im.rank
    ncols = len(H.cells) * k
    cell_index = {(cell[0], cell[1], cell[2]): i for i, cell in enumerate(H.cells)}

    def tplus_cols(x, y):
        if x.is_zero() or y.is_zero():
            return None
        return cell_index[("plus", x, y)]

    rows = []

    def add_row(entries, modulus):
        row = [0] * ncols
        for col_cell, coeff, coord in entries:
            if col_cell is not None:
                row[col_cell * k + coord] += coeff
        rows.append((tuple(row), modulus))

    qs = mod_elements(Qm)
    # symmetry and the group 2-cocycle law for the addition factor set
    for x in qs:
        for y in qs:
            for j in range(k):
                add_row(
                    [(tplus_cols(x, y), 1, j), (tplus_cols(y, x), -1, j)],
                    Im.factors[j],
                )
    for x in qs:
        for y in qs:
            for z in qs:
                for j in range(k):
                    add_row(
                        [
                            (tplus_cols(x, y), 1, j),
                            (tplus_cols(Qm.add(x, y), z), 1, j),
                            (tplus_cols(y, z), -1, j),
                            (tplus_cols(x, Qm.add(y, z)), -1, j),
                        ],
                        Im.factors[j],
                    )
    # the modulus must annihilate every element
    for x in qs:
        for j in range(k):
            entries = []
            for step in range(1, Qm.modulus):
                entries.append((tplus_cols(Qm.scalar(step, x), x), 1, j))
            add_row(entries, Im.factors[j])
    # sampled residual rows: multilinearity plus the variety identities
    sampled = multilinearity_identities(H.variety.signature) + list(
        H.variety.identities
    )
    basis_vectors = []
    for idx in range(len(H.cells)):
        for j in range(k):
            vec = [0] * ncols
            vec[idx * k + j] = 1
            basis_vectors.append(tuple(vec))
    basis_residuals = [
        [_strict_residual(H._cocycle_of(vec), ident) for ident in sampled]
        for vec in basis_vectors
    ]
    n_instances = [
        len(basis_residuals[0][i]) if basis_vectors else 0
        for i in range(len(sampled))
    ]
    for ident_idx in range(len(sampled)):
        for inst in range(n_instances[ident_idx]):
            for j in range(k):
                row = tuple(
                    basis_residuals[col][ident_idx][inst].coords[j]
                    for col in range(ncols)
                )
                rows.append((row, Im.factors[j]))
    # deduplicate and drop trivial rows
    seen = set()
    out = []
    for row, modulus in rows:
        row = tuple(c % modulus for c in row)
        if any(row) and (row, modulus) not in seen:
            seen.add((row, modulus))
            out.append((row, modulus))
    return out
