"""Second and first cohomology at desk scale.

The nonabelian route enumerates every cocycle inside a budget and
partitions the compatible ones by equivalence.  The affine route cuts
the cocycle space out as the kernel of an integer congruence system and
presents the quotient by coboundaries as an abelian group via Smith
reduction.  Both routes are cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, ConsistencyError, MlexError
from .modcore import (
    Congruences,
    Presentation,
    abelian_decomposition,
    mod_elements,
    solve_congruences,
)
from . import termlang
from .expander import ActionApp, FactorF, FactorPlus, FactorR, strict_identity
from .cocycle import (
    Cocycle,
    DatumError,
    LiftingChanges,
    SemidirectProduct,
    enumerate_actions,
    is_compatible,
    matches,
    relift,
    substitute,
)


@dataclass
class CohomologyClass:
    representative: Cocycle
    members: list
    variety: str

    def size(self):
        return len(self.members)


def _factor_set_cells(Q, I):
    """Unknown factor-set cells: entries not pinned to zero by T1/T3."""
    qs = [x for x in mod_elements(Q.module) if not x.is_zero()]
    cells = [("plus", x, y) for x, y in itertools.product(qs, repeat=2)]
    for f in sorted(Q.ops):
        arity = Q.op_arity(f)
        for xs in itertools.product(qs, repeat=arity):
            cells.append(("op", f, xs))
    return cells


def _cocycle_from_assignment(action, cells, values):
    tplus_cells, tf_cells = {}, {}
    for cell, v in zip(cells, values):
        if cell[0] == "plus":
            tplus_cells[(cell[1], cell[2])] = v
        else:
            tf_cells[(cell[1], cell[2])] = v
    return Cocycle.from_cells(action, tplus_cells, tf_cells)


def enumerate_cocycles(Q, I, action=None, budget=2**20):
    """Every cocycle with telescoped scalar factor sets, one action or all.

    A compatible cocycle always telescopes (writing r*x as repeated
    addition forces it), so nothing compatible is lost; the raw
    free-scalar space is only needed by the realization checks, which
    build it directly.
    """
    actions = [action] if action is not None else enumerate_actions(Q, I, budget)
    cells = _factor_set_cells(Q, I)
    per_action = len(mod_elements(I.module)) ** len(cells)
    total = per_action * len(actions)
    if total > budget:
        raise BudgetExceeded(total, budget)
    out = []
    ivals = mod_elements(I.module)
    for act in actions:
        for values in itertools.product(ivals, repeat=len(cells)):
            out.append(_cocycle_from_assignment(act, cells, values))
    return out


def enumerate_h2(Q, I, V, action=None, budget=2**20):
    """All compatible cocycles modulo equivalence, smallest key first: each
    is compared, as ``equivalent`` does, with the first member of every
    class so far, through one group of lifting changes."""
    if not termlang.in_variety(Q, V):
        raise DatumError(f"quotient algebra is not in variety {V.name!r}")
    if not termlang.in_variety(I, V):
        raise DatumError(f"kernel algebra is not in variety {V.name!r}")
    changes = LiftingChanges(Q, I)
    classes = []
    for T in enumerate_cocycles(Q, I, action=action, budget=budget):
        raw = SemidirectProduct(T)
        if not is_compatible(T, V, check_datum=False, raw=raw):
            continue
        for cls in classes:
            if changes.witness(raw, cls[0]) is not None:
                cls.append(T)
                break
        else:
            classes.append([T])
    out = []
    for cls in classes:
        cls.sort(key=lambda c: c.canonical_key())
        out.append(CohomologyClass(cls[0], cls, V.name))
    out.sort(key=lambda c: c.representative.canonical_key())
    return out


# -- affine second cohomology ---------------------------------------------------


def group_law_identities(m):
    """The laws of a Z/m-module's addition; m-fold addition, associated
    to the left, is zero."""
    sig = termlang.Signature(m, ())
    laws = ["x + y = y + x", "(x + y) + z = x + (y + z)", " + ".join(["x"] * m) + " = 0"]
    return [termlang.parse_identity(law, sig) for law in laws]


def multilinearity_identities(signature):
    """Slotwise additivity identities for every operation symbol."""
    out = []
    for name, arity in signature.ops:
        xs = [termlang.Var(f"x{i}") for i in range(arity)]
        y = termlang.Var("y")
        for slot in range(arity):
            bumped = list(xs)
            bumped[slot] = termlang.Plus(xs[slot], y)
            lhs = termlang.Apply(name, tuple(bumped))
            swapped = list(xs)
            swapped[slot] = y
            rhs = termlang.Plus(
                termlang.Apply(name, tuple(xs)), termlang.Apply(name, tuple(swapped))
            )
            variables = tuple(v.name for v in xs) + ("y",)
            out.append(termlang.Identity(lhs, rhs, variables))
    return out


class AffineH2:
    """H^2 for affine datum: an abelian group of cocycle classes."""

    def __init__(self, Q, I, action, variety):
        self.Q, self.I, self.action, self.variety = Q, I, action, variety
        self.cells = _factor_set_cells(Q, I)
        self._cell_index = {cell: i for i, cell in enumerate(self.cells)}
        k = I.module.rank
        self._unit = [[int(i == j) for i in range(k)] for j in range(k)]
        self.invariant_factors = []
        self.reps = []
        self._solve()

    # cell vectors are integer tuples: one entry per (cell, I-coordinate)
    def _vector_of(self, tplus, tf):
        out = []
        for cell in self.cells:
            v = (tplus if cell[0] == "plus" else tf)[(cell[1], cell[2])]
            out.extend(v.coords)
        return tuple(out)

    def _cocycle_of(self, vec):
        k = self.I.module.rank
        values = []
        for idx in range(len(self.cells)):
            values.append(self.I.module.element(vec[idx * k : (idx + 1) * k]))
        return _cocycle_from_assignment(self.action, self.cells, values)

    def _constraint_rows(self):
        """Linear functionals cutting out the strictly compatible cocycles.

        The strict 2-cocycle identities (``expander.strict_identity``, what
        ``mlex expand --emit strict`` prints) of the module laws, of
        multilinearity and of the variety are taken at every quotient
        assignment and linearized in the factor-set cells, kernel
        coordinate j innermost; each row is reduced modulo its factor and
        kept once.  Only factor-set summands survive at kernel entries 0:
        ``_solve`` first checks that the zero cocycle is compatible, and a
        legal zero-cocycle product makes a unary action T4, so additive in
        its slot and 0 there; the kernel operations are zero.
        """
        Qm, Im = self.Q.module, self.I.module
        k = Im.rank
        ncols = len(self.cells) * k
        sig = self.variety.signature
        identities = (
            group_law_identities(Qm.modulus)
            + multilinearity_identities(sig)
            + list(self.variety.identities)
        )
        seen = set()
        out = []
        for ident in identities:
            strict = strict_identity(ident, sig, cancel=False)
            residual = strict.lhs.add(strict.rhs.neg()).items.items()
            for xs in itertools.product(mod_elements(Qm), repeat=len(ident.variables)):
                env = dict(zip(ident.variables, xs))
                rows = [[0] * ncols for _ in range(k)]
                for atom, c in residual:
                    for cell, mat in self._linear_terms(atom, env):
                        for j in range(k):
                            for i in range(k):
                                rows[j][cell * k + i] += c * mat[j][i]
                for row, modulus in zip(rows, Im.factors):
                    row = tuple(v % modulus for v in row)
                    if any(row) and (row, modulus) not in seen:
                        seen.add((row, modulus))
                        out.append((row, modulus))
        return out

    def _linear_terms(self, atom, env):
        """(cell index, k x k matrix) pairs: at the quotient assignment env
        and kernel entries 0, the atom's value is the sum of matrix times
        cell value.  Scalar factor sets telescope into group factor-set
        cells, as ``_cocycle_of`` builds them through ``from_cells``."""
        Q = self.Q
        if isinstance(atom, FactorPlus):
            x, y = (termlang.eval_term(Q, q, env) for q in (atom.q1, atom.q2))
            return self._plus_terms(x, y)
        if isinstance(atom, FactorR):
            x = termlang.eval_term(Q, atom.q, env)
            return [
                term
                for j in range(1, atom.r % Q.module.modulus)
                for term in self._plus_terms(Q.module.scalar(j, x), x)
            ]
        if isinstance(atom, FactorF):
            xs = tuple(termlang.eval_term(Q, q, env) for q in atom.qargs)
            if any(x.is_zero() for x in xs):
                return []
            return [(self._cell_index[("op", atom.op, xs)], self._unit)]
        if isinstance(atom, ActionApp) and len(atom.slots) == 1:
            qvec = tuple(termlang.eval_term(Q, q, env) for q in atom.qargs)
            # the slot map's matrix has the images of I's generators as columns
            images = [
                self.action.value(atom.op, atom.slots, qvec, (g,) * len(qvec)).coords
                for g in self.I.module.generators()
            ]
            k = len(images)
            return [
                (cell, [[sum(a[j] * b[i] for a, b in zip(images, mat)) for i in range(k)]
                        for j in range(k)])
                for cell, mat in self._linear_terms(atom.iargs[0], env)
            ]
        # kernel variables and kernel operations vanish, and a unary
        # action has no several-slot summands
        return []

    def _plus_terms(self, x, y):
        if x.is_zero() or y.is_zero():
            return []
        return [(self._cell_index[("plus", x, y)], self._unit)]

    def _solve(self):
        if not self.I.is_abelian():
            raise MlexError("affine datum needs an abelian kernel algebra")
        if not self.action.is_unary():
            raise MlexError("affine datum needs a purely unary action")
        base = SemidirectProduct(Cocycle.zero(self.Q, self.I, self.action))
        if not is_compatible(base.T, self.variety, raw=base):
            raise MlexError(
                f"action is not compatible with variety {self.variety.name!r}"
            )
        k = self.I.module.rank
        col_moduli = [self.I.module.factors[j] for _ in self.cells for j in range(k)]
        self._col_moduli = col_moduli
        ncols = len(col_moduli)
        rows = self._constraint_rows()
        A = [list(r) for r, _ in rows]
        row_moduli = [m for _, m in rows]
        cocycle_gens = solve_congruences(A, [0] * len(rows), row_moduli, col_moduli).kernel
        self._zgens = cocycle_gens
        p = len(cocycle_gens)
        m = self.Q.module.modulus
        # one factorization of the generator matrix serves the relations
        # among the generators, every coboundary and every class_of
        self._generators = Congruences(
            [[g[row] for g in cocycle_gens] for row in range(ncols)], col_moduli, [m] * p
        )
        relations = list(self._generators.kernel)
        # generator order relations: m * e_i always collapses
        relations.extend(tuple(m if j == i else 0 for j in range(p)) for i in range(p))
        # over affine datum the lifting change h of the split table
        # realizes exactly the factor sets of the coboundary of h
        for h in LiftingChanges(self.Q, self.I).units():
            tplus, _, tf, _ = relift(base, h)
            sol = self._generators.solve(self._vector_of(tplus, tf))
            if sol is None:
                raise ConsistencyError(
                    "coboundary outside the compatible cocycle group"
                )
            relations.append(sol.particular)
        if p == 0:
            self.reps = [self._cocycle_of((0,) * ncols)]
            self._presentation = None
            return
        rel_rows = [list(r) for r in relations if any(r)] or [[0] * p]
        self._presentation = Presentation(rel_rows, p)
        # a zero diagonal entry would mean an infinite quotient; the
        # generator order relations make that impossible
        if 0 in self._presentation.factors:
            raise ConsistencyError("affine cohomology quotient is not finite")
        self.invariant_factors = list(self._presentation.factors)
        self.reps = [
            self._cocycle_of(self._combine(self._presentation.lift(combo)))
            for combo in itertools.product(*(range(d) for d in self.invariant_factors))
        ]

    def _combine(self, v):
        return tuple(
            sum(c * g[row] for c, g in zip(v, self._zgens)) % d
            for row, d in enumerate(self._col_moduli)
        )

    def class_count(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def class_of(self, T):
        """Coordinates of [T] in the invariant-factor presentation."""
        sol = self._generators.solve(self._vector_of(T.tplus, T.tf))
        if sol is None:
            raise MlexError("cocycle is not strictly compatible with the variety")
        if self._presentation is None:
            return ()
        return self._presentation.project(sol.particular)

    def zero_class(self):
        return tuple(0 for _ in self.invariant_factors)

    def add_classes(self, c1, c2):
        return tuple(
            (a + b) % d for a, b, d in zip(c1, c2, self.invariant_factors)
        )


def h2_affine(Q, I, action, V):
    return AffineH2(Q, I, action, V)


# -- derivations of datum, stabilizers, first cohomology ------------------------


def derivations(Q, I, action):
    """All maps h with null coboundary, sorted by their value tables.

    These are the h whose lifting x -> (h(x), x) of the split table
    realizes the zero cocycle again, the stabilizing automorphisms of
    the split extension; they form a group, since the lifting changes
    for h and g compose to the one for h + g.  A null group factor set
    h(x) + h(y) - h(x + y) makes h additive, so the candidates are the
    module maps Q -> I.
    """
    zero = Cocycle.zero(Q, I, action)
    raw = SemidirectProduct(zero)
    changes = LiftingChanges(Q, I)
    out = [h for h in map(changes.table, changes.homs) if matches(relift(raw, h), zero)]
    if not changes.is_subgroup(out):
        raise ConsistencyError("derivations are not closed under addition")
    return out


@dataclass
class PrincipalResult:
    maps: list
    complete: bool
    depth_used: int


def _atom_tables(Q, I, action, depth):
    """Nested action-term candidates up to the depth.

    Each entry is (value table over Q, meta) where meta is the recursive
    description ("atom", f, s, pattern, consts, pos, inner_meta); leaves
    have pos = None.  At x the term a(f, s) reads the outside-slot entries
    r*x for r in pattern and the kernel entries consts, with the inner
    candidate's value at x in place pos."""
    Qm = Q.module
    qs = mod_elements(Qm)
    gens = [I.module.generator(j) for j in range(I.module.rank)]

    def terms(inner_table, inner_meta):
        """The candidates one term above the inner one, or the leaves."""
        for (f, s), table in action.tables.items():
            n_off = Q.op_arity(f) - len(s)
            for pattern in itertools.product(range(1, Qm.modulus), repeat=n_off):
                qoffs = [tuple(Qm.scalar(r, x) for r in pattern) for x in qs]
                for pos in [None] if inner_meta is None else range(len(s)):
                    for consts in itertools.product(gens, repeat=len(s)):
                        asubs = (
                            [consts] * len(qs)
                            if pos is None
                            else [substitute(consts, (pos,), (v,)) for v in inner_table]
                        )
                        yield (
                            tuple(table[key] for key in zip(qoffs, asubs)),
                            ("atom", f, s, pattern, consts, pos, inner_meta),
                        )

    level = list(terms(None, None))
    atoms = list(level)
    for _ in range(depth - 1):
        level = [atom for inner in level for atom in terms(*inner)]
        atoms.extend(level)
        if not level:
            break
    return atoms


def principal_derivations(Q, I, action, depth=3):
    """Derivations realized by identity twins with kernel constants.

    The subgroup generated by the accepted depth-bounded candidates is a
    sound under-approximation; ``complete`` reports when it is provably
    all of the principal derivations (trivial action, or the whole
    derivation group was reached).
    """
    zero = {x: I.module.zero() for x in mod_elements(Q.module)}
    if action.is_trivial():
        return PrincipalResult([zero], True, 0)
    ders = derivations(Q, I, action)
    changes = LiftingChanges(Q, I)
    der_keys = {changes.vector(h) for h in ders}
    raw = SemidirectProduct(Cocycle.zero(Q, I, action))
    qs = mod_elements(Q.module)
    good = {}  # accepted tables; a rejected one may pass under other meta
    for table, meta in _atom_tables(Q, I, action, depth):
        d = dict(zip(qs, table))
        key = changes.vector(d)
        if key not in der_keys or key in good:
            continue
        if _twin_side_condition(raw, d, meta):
            good[key] = d
    maps = changes.span(good.values())
    complete = len(maps) == len(ders)
    return PrincipalResult(maps, complete, depth)


def _poly_value(raw, meta, u):
    """Evaluate the candidate's defining polynomial at a product element,
    substituting nested values recursively."""
    _, f, s, pattern, consts, pos, inner = meta
    Q = raw.Q
    n = Q.op_arity(f)
    off = tuple(i for i in range(n) if i not in s)
    args = [None] * n
    for r, i in zip(pattern, off):
        args[i] = raw.scalar(r, u)
    for idx, (c, i) in enumerate(zip(consts, s)):
        if pos is not None and idx == pos:
            args[i] = _poly_value(raw, inner, u)
        else:
            args[i] = raw.embed_kernel(c)
    return raw.apply_op(f, args)


def _twin_side_condition(raw, d, meta):
    """The twin polynomial must not pick up kernel-coordinate junk: its
    value at every product element is exactly the candidate table."""
    Q, I = raw.Q, raw.I
    for a in mod_elements(I.module):
        for x in mod_elements(Q.module):
            if _poly_value(raw, meta, (a, x)) != (d[x], Q.module.zero()):
                return False
    return True


@dataclass
class H1Result:
    derivations: list
    principal: PrincipalResult
    cosets: list
    invariant_factors: list
    changes: LiftingChanges
    index: dict  # derivation vector -> coset index

    def class_count(self):
        return len(self.cosets)

    def coset_index(self, h):
        """The coset of the map h, or None when h is not a derivation."""
        return self.index.get(self.changes.vector(h))


def h1(Q, I, action, depth=3):
    """Derivations modulo the principal ones: each derivation, in sorted
    order, that no coset holds yet takes the coset h + P of the principal
    subgroup P, sorted; the invariant factors come from the coset sums."""
    changes = LiftingChanges(Q, I)
    ders = derivations(Q, I, action)
    pres = principal_derivations(Q, I, action, depth=depth)
    principal = [changes.vector(p) for p in pres.maps]
    index, reps, cosets = {}, [], []
    for h in ders:
        v = changes.vector(h)
        if v in index:
            continue
        members = sorted(changes.add(v, p) for p in principal)
        index.update(dict.fromkeys(members, len(cosets)))
        reps.append(members[0])
        cosets.append([changes.table(u) for u in members])
    factors, _, _ = abelian_decomposition(
        range(len(cosets)),
        lambda i, j: index[changes.add(reps[i], reps[j])],
        index[changes.zero],
    )
    return H1Result(ders, pres, cosets, factors, changes, index)
