"""Exhaustive oracles and reference descriptions for the tests.

The oracles check a property by brute force, the way the library once
did: on every element tuple, by trying every map, or by a hand-coded
formula instead of the one realization routine.  The reference
descriptions are the paper's independent characterizations that no
command runs: every lifting of an extension, realization by one
lifting, the standard isomorphism onto the semidirect product, the
stabilizing automorphisms, the module maps killing the commutator ideal
and the lifting of a derivation pair.  The tests compare each library
route with its oracle or reference on random small data.
"""

import itertools
from dataclasses import dataclass, replace

from mlex.errors import ConsistencyError, MlexError
from mlex.modcore import (
    LinMap,
    abelian_decomposition,
    homs_where,
    iter_homs,
    mod_elements,
    solve_congruences,
)
from mlex.algebra import commutator, is_homomorphism, whole_ideal
from mlex.cocycle import (
    Action,
    Cocycle,
    LiftingChanges,
    SemidirectProduct,
    _extension_tables,
    extract_cocycle,
    matches,
    proper_subsets,
    relift,
    substitute,
)
from mlex.derlie import _derivation_defects, lin_add, lin_bracket, twist_cocycle
from mlex.cohomology import (
    _atom_tables,
    _twin_side_condition,
    derivations,
    group_law_identities,
    multilinearity_identities,
)
from mlex.expander import (
    ActionApp,
    FactorF,
    FactorPlus,
    FactorR,
    eval_sum,
    split,
    strict_identity,
)
from mlex import termlang


# -- reference descriptions ----------------------------------------------------


def h_key(h, Q):
    """The value table of a map on Q, in ``mod_elements`` order."""
    return tuple(h[x].coords for x in mod_elements(Q.module))


def all_liftings(E):
    """Every section of E's projection fixing zero, in deterministic order."""
    xs = [x for x in mod_elements(E.Q.module) if not x.is_zero()]
    fibers = [
        sorted((m for m in mod_elements(E.M.module) if E.pi(m) == x), key=lambda e: e.coords)
        for x in xs
    ]
    out = []
    for choice in itertools.product(*fibers):
        lift = {E.Q.module.zero(): E.M.module.zero()}
        lift.update(dict(zip(xs, choice)))
        out.append(lift)
    return out


def with_lifting(E, lifting):
    return replace(E, lifting=lifting)


def realizes(E, T):
    """Do the four realization equations hold for this extension/lifting?"""
    return matches(_extension_tables(E), T)


def psi_isomorphism(E, T=None):
    """The standard map M -> I x Q for the extension's lifting, verified
    as an isomorphism onto the semidirect product of its cocycle."""
    T = T or extract_cocycle(E)
    raw = SemidirectProduct(T)
    inv = E.iota_inverse()
    l = E.lifting

    def psi(m):
        x = E.pi(m)
        return (inv[E.M.module.sub(m, l[x])], x)

    table = {m: psi(m) for m in mod_elements(E.M.module)}
    if len(set(table.values())) != len(table):
        return None
    for u in table:
        for v in table:
            if table[E.M.module.add(u, v)] != raw.add(table[u], table[v]):
                return None
        for r in range(E.M.module.modulus):
            if table[E.M.module.scalar(r, u)] != raw.scalar(r, table[u]):
                return None
    for f, op in E.M.ops.items():
        for args in itertools.product(list(table), repeat=op.arity):
            if table[E.M.apply_op(f, args)] != raw.apply_op(f, [table[a] for a in args]):
                return None
    return table


def stab_automorphisms(E):
    """Automorphisms fixing the embedded kernel pointwise and commuting
    with the projection, with the derivation dictionary attached."""
    M = E.M
    inv = E.iota_inverse()
    auts = []
    for phi in iter_homs(M.module, M.module):
        if not phi.is_bijective():
            continue
        if any(phi(m) != m for m in inv):
            continue
        if any(E.pi(phi(m)) != E.pi(m) for m in mod_elements(M.module)):
            continue
        if not is_homomorphism(M, M, phi):
            continue
        auts.append(phi)

    def to_derivation(phi):
        return {
            x: inv[M.module.sub(E.lifting[x], phi(E.lifting[x]))]
            for x in mod_elements(E.Q.module)
        }

    return auts, to_derivation


def hom_kill_commutator(Q, I):
    """Independent description for central datum: module maps vanishing
    on the commutator ideal of Q, by one congruence solve."""
    qq = commutator(whole_ideal(Q), whole_ideal(Q))
    maps = homs_where(Q.module, I.module, lambda phi: [phi(e) for e in qq.elements])
    tables = [{x: phi(x) for x in mod_elements(Q.module)} for phi in maps]
    return sorted(tables, key=lambda h: h_key(h, Q))


def is_derivation(M, h):
    """Module endomap satisfying the product rule on every operation."""
    if h.source != M.module or h.target != M.module:
        return False
    return all(d.is_zero() for d in _derivation_defects(M, h))


@dataclass
class LiftResult:
    ok: bool
    obstruction: str | None
    derivation: LinMap | None


def lift_pair(pair, T):
    """Pair lift (a, x) -> (alpha a, beta x) on the semidirect product,
    or the first failing linearity condition."""
    alpha, beta = pair
    if not T.is_group_trivial_table():
        raise MlexError("pair lifting requires a cocycle with zero group factor set")
    if not T.is_linear():
        raise MlexError("pair lifting requires a linear cocycle")
    # C1 and C3 hold iff the twisted scalar and operation factor sets vanish
    S = twist_cocycle(T, pair)
    for clause, table in (("C1", S.tr), ("C3", S.tf)):
        if any(not v.is_zero() for v in table.values()):
            return LiftResult(False, clause, None)
    E, encode, decode = SemidirectProduct(T).extension_record()
    images = []
    for g in E.M.module.generators():
        a, x = decode[g]
        images.append(encode[(alpha(a), beta(x))])
    phi = LinMap(E.M.module, E.M.module, tuple(images))
    if not is_derivation(E.M, phi):
        raise ConsistencyError("pair lift passed C1-C3 but is not a derivation")
    return LiftResult(True, None, phi)


# -- exhaustive oracles --------------------------------------------------------


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


class ElementProduct:
    """E = I x Q for a cocycle T evaluated on pairs of Elements by the
    defining formulas, with no position tables:

        (a, x) + (b, y) = (a + b + T+(x, y), x + y)
        -(a, x) = (-(a + T+(x, -x)), -x)
        r(a, x) = (ra + Tr(r, x), rx)
        f((a1, x1), ..., (an, xn)) = (f(a) + sum over s of a(f, s)(x | a) + Tf(x), f(x))

    where s runs over the nonempty proper slot subsets."""

    def __init__(self, T):
        self.T, self.Q, self.I = T, T.Q, T.I
        self.modulus = T.Q.module.modulus

    def universe(self):
        return [(a, x) for a in mod_elements(self.I.module) for x in mod_elements(self.Q.module)]

    def zero(self):
        return (self.I.module.zero(), self.Q.module.zero())

    def add(self, u, v):
        (a, x), (b, y), Im = u, v, self.I.module
        return Im.add(Im.add(a, b), self.T.tplus[(x, y)]), self.Q.module.add(x, y)

    def neg(self, u):
        a, x = u
        nx = self.Q.module.neg(x)
        return self.I.module.neg(self.I.module.add(a, self.T.tplus[(x, nx)])), nx

    def scalar(self, r, u):
        a, x = u
        r = r % self.modulus
        return (
            self.I.module.add(self.I.module.scalar(r, a), self.T.tr[(r, x)]),
            self.Q.module.scalar(r, x),
        )

    def apply_op(self, name, args):
        avec = tuple(u[0] for u in args)
        xvec = tuple(u[1] for u in args)
        acc = self.I.apply_op(name, avec)
        for s in proper_subsets(len(args)):
            acc = self.I.module.add(acc, self.T.action.value(name, s, xvec, avec))
        acc = self.I.module.add(acc, self.T.tf[(name, xvec)])
        return acc, self.Q.apply_op(name, xvec)


def exhaustive_legality(T):
    """(ok, reason) for the module and multilinearity axioms, every
    condition checked on every element tuple of ``ElementProduct(T)``."""
    raw, Qm, Im = ElementProduct(T), T.Q.module, T.I.module
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
    raw1, raw2 = ElementProduct(T), ElementProduct(Tp)
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
            acc = Im.add(acc, Im.scalar(sign(1 + n), I.apply_op(f, hx)))
            tf[(f, xs)] = Im.sub(acc, h[Q.apply_op(f, xs)])
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
                    acc = Im.add(acc, Im.scalar(sign(1 + n - len(s)), I.apply_op(f, args)))
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
            if phi(op(*args)) != B.apply_op(name, [phi(a) for a in args]):
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
    """All derivations of M: every endomorphism, in ``iter_homs`` order,
    tried against the product rule."""
    out = [h for h in iter_homs(M.module, M.module) if is_derivation(M, h)]
    keys = {d.images for d in out}
    for d1 in out:
        for d2 in out:
            if lin_bracket(d1, d2).images not in keys:
                raise ConsistencyError("derivations are not closed under the bracket")
    return out


def exhaustive_check_jacobi(maps):
    """Bracket closure and the Jacobi identity, exhaustively on a list of
    maps.

    Brackets and sums are tabulated on indices first so the cubic sweep
    is pure lookups."""
    index = {m.images: i for i, m in enumerate(maps)}
    n = len(maps)
    bracket = [[None] * n for _ in range(n)]
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            key = lin_bracket(a, b).images
            if key not in index:
                return False
            bracket[i][j] = index[key]
    add = [[None] * n for _ in range(n)]
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            key = lin_add(a, b).images
            if key not in index:
                return False
            add[i][j] = index[key]
    zero = index.get(LinMap.zero_map(maps[0].source, maps[0].target).images)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                first = bracket[i][bracket[j][k]]
                second = bracket[j][bracket[k][i]]
                third = bracket[k][bracket[i][j]]
                if add[add[first][second]][third] != zero:
                    return False
    return True


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


def element_constraint_rows(H):
    """The congruence rows of an ``AffineH2`` computed on ``Element``s, as
    the library once did: every quotient term evaluated in Q, every cell
    found by its Element key, every slot map read at every assignment."""
    Q, Im = H.Q, H.I.module
    k = Im.rank
    ncols = len(H.cells) * k
    cell_index = {cell: i for i, cell in enumerate(H.cells)}
    unit = [[int(i == j) for i in range(k)] for j in range(k)]

    def plus_terms(x, y):
        if x.is_zero() or y.is_zero():
            return []
        return [(cell_index[("plus", x, y)], unit)]

    def linear_terms(atom, env):
        if isinstance(atom, FactorPlus):
            x, y = (termlang.eval_term(Q, q, env) for q in (atom.q1, atom.q2))
            return plus_terms(x, y)
        if isinstance(atom, FactorR):
            x = termlang.eval_term(Q, atom.q, env)
            return [
                term
                for j in range(1, atom.r % Q.module.modulus)
                for term in plus_terms(Q.module.scalar(j, x), x)
            ]
        if isinstance(atom, FactorF):
            xs = tuple(termlang.eval_term(Q, q, env) for q in atom.qargs)
            if any(x.is_zero() for x in xs):
                return []
            return [(cell_index[("op", atom.op, xs)], unit)]
        if isinstance(atom, ActionApp) and len(atom.slots) == 1:
            qvec = tuple(termlang.eval_term(Q, q, env) for q in atom.qargs)
            images = [
                H.action.value(atom.op, atom.slots, qvec, (g,) * len(qvec)).coords
                for g in Im.generators()
            ]
            return [
                (cell, [[sum(a[j] * b[i] for a, b in zip(images, mat)) for i in range(k)]
                        for j in range(k)])
                for cell, mat in linear_terms(atom.iargs[0], env)
            ]
        return []

    sig = H.variety.signature
    identities = (
        group_law_identities(Q.module.modulus)
        + multilinearity_identities(sig)
        + list(H.variety.identities)
    )
    seen = set()
    out = []
    for ident in identities:
        strict = strict_identity(ident, sig, cancel=False)
        residual = strict.lhs.add(strict.rhs.neg()).items.items()
        for xs in itertools.product(mod_elements(Q.module), repeat=len(ident.variables)):
            env = dict(zip(ident.variables, xs))
            rows = [[0] * ncols for _ in range(k)]
            for atom, c in residual:
                for cell, mat in linear_terms(atom, env):
                    for j in range(k):
                        for i in range(k):
                            rows[j][cell * k + i] += c * mat[j][i]
            for row, modulus in zip(rows, Im.factors):
                row = tuple(v % modulus for v in row)
                if any(row) and (row, modulus) not in seen:
                    seen.add((row, modulus))
                    out.append((row, modulus))
    return out


def relifted_unit_vectors(H):
    """The cell vectors of the unit maps' coboundaries of an ``AffineH2``,
    each read from the tables that relifting the split table by the unit
    map realizes: one kernel generator at one nonzero x, j innermost."""
    changes = LiftingChanges(H.Q, H.I)
    base = SemidirectProduct(Cocycle.zero(H.Q, H.I, H.action))
    n = len(changes.moduli)
    out = []
    for t in range(n):
        tplus, _, tf, _ = relift(base, changes.table([int(i == t) for i in range(n)]))
        out.append(H._vector_of(tplus, tf))
    return out


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _add_row(M, dst, src, k):
    M[dst] = [a + k * b for a, b in zip(M[dst], M[src])]


def _add_col(M, dst, src, k):
    for row in M:
        row[dst] += k * row[src]


def _negate_row(M, i):
    M[i] = [-a for a in M[i]]


def reference_smith_normal_form(A):
    """(U, D, V) with U*A*V = D, as ``modcore.smith_normal_form`` once
    computed it: full-matrix pivot search and row and column operations
    on whole rows and columns, with a divisibility scan at every pivot."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(map(int, row)) for row in A]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        _swap_rows(D, t, pi), _swap_rows(U, t, pi)
        _swap_cols(D, t, pj), _swap_cols(V, t, pj)
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    _add_row(D, i, t, -q), _add_row(U, i, t, -q)
                    if D[i][t]:
                        _swap_rows(D, t, i), _swap_rows(U, t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    _add_col(D, j, t, -q), _add_col(V, j, t, -q)
                    if D[t][j]:
                        _swap_cols(D, t, j), _swap_cols(V, t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the divisor chain
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(D, t, offender, 1), _add_row(U, t, offender, 1)
        if D[t][t] < 0:
            _negate_row(D, t), _negate_row(U, t)
        t += 1
    return U, D, V


def per_assignment_soundness_check(t, T, signature, assignments=None):
    """``expander.soundness_check`` with every atom of the split evaluated
    at every assignment."""
    raw = SemidirectProduct(T)
    variables = termlang.term_variables(t)
    parts = split(t, signature, variables)
    pools = assignments or itertools.product(raw.universe(), repeat=len(variables))
    for combo in pools:
        env_pairs = dict(zip(variables, combo))
        env_i = {parts.names[v]: env_pairs[v][0] for v in variables}
        env_q = {v: env_pairs[v][1] for v in variables}
        direct = termlang.eval_term(raw, t, env_pairs)
        total = T.I.module.add(
            eval_sum(parts.pure, T, env_i, env_q),
            T.I.module.add(
                eval_sum(parts.star, T, env_i, env_q),
                eval_sum(parts.delta, T, env_i, env_q),
            ),
        )
        if direct[0] != total:
            return False, env_pairs
        if direct[1] != termlang.eval_term(T.Q, parts.qterm, env_q):
            return False, env_pairs
    return True, None


def per_call_lifting_changes(Q, I, D):
    """The maps h: Q -> I with h(0) = 0 and h(x) + h(y) - h(x+y) = D(x, y),
    sorted: the δ rows written out and solved afresh for this one D, and
    the module maps added to the particular solution as maps."""
    Qm, Im = Q.module, I.module
    qs = mod_elements(Qm)
    if any(not (D[(qs[0], x)].is_zero() and D[(x, qs[0])].is_zero()) for x in qs):
        return []
    xs, k = qs[1:], Im.rank
    rows = {}
    for x in xs:
        for y in xs:
            s = Qm.add(x, y)
            coeffs = [(z == x) + (z == y) - (z == s) for z in xs]
            for j, d in enumerate(Im.factors):
                row = [0] * (len(xs) * k)
                row[j::k] = coeffs
                rows[(tuple(row), D[(x, y)].coords[j], d)] = None
    A, b, moduli = zip(*rows) if rows else ((), (), ())
    sol = solve_congruences(A, b, moduli, list(Im.factors) * len(xs))
    if sol is None:
        return []
    p = sol.particular
    h0 = {x: Im.element(p[(i - 1) * k:i * k]) if i else Im.zero() for i, x in enumerate(qs)}
    out = [{x: Im.add(h0[x], phi(x)) for x in qs} for phi in iter_homs(Qm, Im)]
    return sorted(out, key=lambda h: [h[x].coords for x in qs])


def pairwise_closed(maps, Q, I):
    """Is the list of maps Q -> I closed under pointwise addition, tried on
    every pair?"""
    keys = {h_key(h, Q) for h in maps}
    return all(
        h_key({x: I.module.add(h1[x], h2[x]) for x in h1}, Q) in keys
        for h1 in maps
        for h2 in maps
    )


def breadth_first_principal(Q, I, action, depth=3):
    """(maps, complete) of ``principal_derivations``, the accepted
    candidates spanned breadth first."""
    qs = mod_elements(Q.module)
    if action.is_trivial():
        return [{x: I.module.zero() for x in qs}], True
    ders = derivations(Q, I, action)
    der_keys = {h_key(h, Q) for h in ders}
    raw = SemidirectProduct(Cocycle.zero(Q, I, action))
    good = []
    for table, meta in _atom_tables(Q, I, action, depth):
        d = dict(zip(qs, table))
        if h_key(d, Q) in der_keys and _twin_side_condition(raw, d, meta):
            good.append(d)
    maps = breadth_first_span(good, Q, I)
    return maps, len(maps) == len(ders)


def breadth_first_span(gens, Q, I):
    """The maps Q -> I that sums of ``gens`` reach, one generator added to
    every newly reached map in turn, sorted."""
    qs = mod_elements(Q.module)
    zero = {x: I.module.zero() for x in qs}
    members = {h_key(zero, Q): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                s = {x: I.module.add(base[x], g[x]) for x in qs}
                k = h_key(s, Q)
                if k not in members:
                    members[k] = s
                    nxt.append(s)
        frontier = nxt
    return sorted(members.values(), key=lambda h: h_key(h, Q))


def quadratic_h1(Q, I, ders, principal):
    """(cosets, invariant factors) of first cohomology: every pair of
    derivations compared through their difference, and the coset group
    decomposed from index sums."""
    pkeys = {h_key(h, Q) for h in principal}
    cosets = []
    assigned = {}
    for h in ders:
        if h_key(h, Q) in assigned:
            continue
        coset = []
        for g in ders:
            diff = {x: I.module.sub(h[x], g[x]) for x in h}
            if h_key(diff, Q) in pkeys:
                coset.append(g)
                assigned[h_key(g, Q)] = len(cosets)
        coset.sort(key=lambda d: h_key(d, Q))
        cosets.append(coset)
    reps = [c[0] for c in cosets]

    def add_cosets(i, j):
        return assigned[h_key({x: I.module.add(reps[i][x], reps[j][x]) for x in reps[i]}, Q)]

    zero = h_key({x: I.module.zero() for x in mod_elements(Q.module)}, Q)
    factors, _, _ = abelian_decomposition(list(range(len(cosets))), add_cosets, assigned[zero])
    return cosets, factors
