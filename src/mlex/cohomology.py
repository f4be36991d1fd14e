"""Second and first cohomology at desk scale.

The nonabelian route enumerates every cocycle inside a budget and
partitions the compatible ones by equivalence.  The affine route cuts
the cocycle space out as the kernel of an integer congruence system and
presents the quotient by coboundaries as an abelian group via Smith
reduction.  Both routes are cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
import operator
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


def _compose(A, mat):
    """A times mat, mat None standing for the identity."""
    if mat is None:
        return A
    return tuple(
        tuple(sum(a * mat[l][i] for l, a in enumerate(row)) for i in range(len(mat[0])))
        for row in A
    )


class AffineH2:
    """H^2 for affine datum: an abelian group of cocycle classes.

    The congruence system is read off integer tables: an element of Q is
    its position in ``mod_elements`` order, ``_layout`` is Q's module
    layout with its add, neg and scalar tables, and ``Q.op_table(f)`` is
    Q's operation f on positions, keyed by the base-|Q| number of the
    argument tuple.  Built once per object, ``_plus_cell`` and
    ``_op_cell[f]`` give the position in ``cells`` of the factor-set cell
    at those keys, or -1 at a zero entry.
    """

    def __init__(self, Q, I, action, variety):
        self.Q, self.I, self.action, self.variety = Q, I, action, variety
        self.cells = _factor_set_cells(Q, I)
        self._col_moduli = [d for _ in self.cells for d in I.module.factors]
        self._index_tables()
        self._slot_matrices = {}
        self.invariant_factors = []
        self.reps = []
        self._solve()

    def _index_tables(self):
        layout = self._layout = self.Q.module.layout
        index = layout.index
        nq = self._nq = len(layout.elements)
        self._op_cell = {f: [-1] * nq ** op.arity for f, op in self.Q.ops.items()}
        self._plus_cell = [-1] * nq * nq
        for c, cell in enumerate(self.cells):
            plus = cell[0] == "plus"
            table, xs = (self._plus_cell, cell[1:]) if plus else (self._op_cell[cell[1]], cell[2])
            pos = 0
            for x in xs:
                pos = pos * nq + index[x.coords]
            table[pos] = c

    def _slot_matrix(self, f, s, qoff):
        """a(f, s)(qoff | .) at outside-slot positions qoff, as the matrix
        whose column l is the image of I's generator l; read once."""
        key = (f, s, qoff)
        A = self._slot_matrices.get(key)
        if A is None:
            table = self.action.tables[(f, s)]
            q = tuple(self._layout.elements[i] for i in qoff)
            images = [table[(q, (g,))].coords for g in self.I.module.generators()]
            A = self._slot_matrices[key] = tuple(zip(*images))
        return A

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
        assignment, in ``mod_elements`` product order, and linearized in
        the factor-set cells, kernel coordinate j innermost; each row is
        reduced modulo its factor and kept once.  Each atom is compiled
        once per identity into a function of the assignment's positions
        (``_linear_terms``).  Only factor-set summands survive at kernel
        entries 0: ``_solve`` first checks that the zero cocycle is
        compatible, and a legal zero-cocycle product makes a unary action
        T4, so additive in its slot and 0 there; the kernel operations are
        zero.
        """
        Im = self.I.module
        k = Im.rank
        ncols = len(self.cells) * k
        sig = self.variety.signature
        identities = (
            group_law_identities(self.Q.module.modulus)
            + multilinearity_identities(sig)
            + list(self.variety.identities)
        )
        seen = set()
        out = []
        for ident in identities:
            strict = strict_identity(ident, sig, cancel=False)
            residual = strict.lhs.add(strict.rhs.neg()).items.items()
            compiled = []
            for atom, c in residual:
                terms = self._linear_terms(atom, ident.variables)
                if terms is not None:
                    compiled.append((terms, c))
            for xs in itertools.product(range(self._nq), repeat=len(ident.variables)):
                rows = [{} for _ in range(k)]
                for terms, c in compiled:
                    for cell, mat in terms(xs):
                        col = cell * k
                        for j, row in enumerate(rows):
                            if mat is None:
                                row[col + j] = row.get(col + j, 0) + c
                                continue
                            for i, a in enumerate(mat[j]):
                                if a:
                                    row[col + i] = row.get(col + i, 0) + c * a
                for row, modulus in zip(rows, Im.factors):
                    entries = tuple(
                        sorted((col, v % modulus) for col, v in row.items() if v % modulus)
                    )
                    if entries and (entries, modulus) not in seen:
                        seen.add((entries, modulus))
                        dense = [0] * ncols
                        for col, v in entries:
                            dense[col] = v
                        out.append((tuple(dense), modulus))
        return out

    def _quotient_term(self, t, variables):
        """The quotient term t as a function of the positions of the
        variables, a tuple in their order."""
        if isinstance(t, termlang.Var):
            return operator.itemgetter(variables.index(t.name))
        if isinstance(t, termlang.Zero):
            return lambda xs: 0
        nq = self._nq
        if isinstance(t, termlang.Neg):
            neg, arg = self._layout.neg, self._quotient_term(t.arg, variables)
            return lambda xs: neg[arg(xs)]
        if isinstance(t, termlang.Plus):
            add = self._layout.add
            left, right = (self._quotient_term(u, variables) for u in (t.left, t.right))
            return lambda xs: add[left(xs) * nq + right(xs)]
        if isinstance(t, termlang.Scalar):
            scal, arg = self._layout.scalar, self._quotient_term(t.arg, variables)
            offset = t.coeff % self.Q.module.modulus * nq
            return lambda xs: scal[offset + arg(xs)]
        if isinstance(t, termlang.Apply):
            key = self._argument_key(t.args, variables)
            table = self.Q.op_table(t.op)
            return lambda xs: table[key(xs)]
        raise MlexError(f"unknown term node {t!r}")

    def _argument_key(self, qargs, variables):
        """The base-|Q| key of an argument tuple, as a function of the
        variables' positions."""
        args = [self._quotient_term(q, variables) for q in qargs]
        nq = self._nq

        def key(xs):
            out = 0
            for arg in args:
                out = out * nq + arg(xs)
            return out

        return key

    def _linear_terms(self, atom, variables):
        """A function from the variables' positions to (cell, matrix)
        pairs: at those quotient entries and kernel entries 0, the atom's
        value is the sum of matrix times cell value, None standing for
        the identity matrix.  Scalar factor sets telescope into group
        factor-set cells, as ``_cocycle_of`` builds them through
        ``from_cells``.  None when the atom vanishes: kernel variables and
        kernel operations do, and a unary action has no several-slot
        summands."""
        nq, plus_cell = self._nq, self._plus_cell
        if isinstance(atom, FactorPlus):
            x, y = (self._quotient_term(q, variables) for q in (atom.q1, atom.q2))

            def terms(xs):
                cell = plus_cell[x(xs) * nq + y(xs)]
                return [(cell, None)] if cell >= 0 else []

            return terms
        if isinstance(atom, FactorR):
            x = self._quotient_term(atom.q, variables)
            multiples = [j * nq for j in range(1, atom.r % self.Q.module.modulus)]
            scal = self._layout.scalar

            def terms(xs):
                v = x(xs)
                cells = (plus_cell[scal[j + v] * nq + v] for j in multiples)
                return [(cell, None) for cell in cells if cell >= 0]

            return terms
        if isinstance(atom, FactorF):
            key, op_cell = self._argument_key(atom.qargs, variables), self._op_cell[atom.op]

            def terms(xs):
                cell = op_cell[key(xs)]
                return [(cell, None)] if cell >= 0 else []

            return terms
        if isinstance(atom, ActionApp) and len(atom.slots) == 1:
            inner = self._linear_terms(atom.iargs[0], variables)
            if inner is None:
                return None
            f, s = atom.op, atom.slots
            off = [
                self._quotient_term(q, variables)
                for i, q in enumerate(atom.qargs)
                if i not in s
            ]
            slot_matrix = self._slot_matrix

            def terms(xs):
                A = slot_matrix(f, s, tuple(q(xs) for q in off))
                return [(cell, _compose(A, mat)) for cell, mat in inner(xs)]

            return terms
        return None

    def _unit_coboundaries(self):
        """The cell vectors of the coboundaries of the unit maps h = e_j
        at z, z a nonzero element of Q and j a coordinate of I, j
        innermost: what the lifting x -> (h(x), x) of the split table
        realizes.  A plus cell (x, y) holds h(x) + h(y) - h(x + y); a cell
        (f, xs) holds the sum over slots p of a(f,{p})(xs off p | h(x_p)),
        minus h(f(xs)).  The kernel operations are zero and the action is
        unary and additive in its slot; a unary f has no action slot."""
        nq, k = self._nq, self.I.module.rank
        vecs = [{} for _ in range((nq - 1) * k)]

        def bump(z, col, j, v):
            if z:
                vec = vecs[(z - 1) * k + j]
                vec[col] = vec.get(col, 0) + v

        for x in range(1, nq):
            for y in range(1, nq):
                col, s = self._plus_cell[x * nq + y] * k, self._layout.add[x * nq + y]
                for j in range(k):
                    bump(x, col + j, j, 1), bump(y, col + j, j, 1), bump(s, col + j, j, -1)
        for f in sorted(self.Q.ops):
            n = self.Q.op_arity(f)
            values, cells = self.Q.op_table(f), self._op_cell[f]
            for key, xs in enumerate(itertools.product(range(nq), repeat=n)):
                if cells[key] < 0:
                    continue
                col = cells[key] * k
                for p in range(n) if n > 1 else ():
                    A = self._slot_matrix(f, (p,), xs[:p] + xs[p + 1:])
                    for j in range(k):
                        for i in range(k):
                            if A[i][j]:
                                bump(xs[p], col + i, j, A[i][j])
                for j in range(k):
                    bump(values[key], col + j, j, -1)
        moduli = self._col_moduli
        out = []
        for vec in vecs:
            dense = [0] * len(moduli)
            for col, v in vec.items():
                dense[col] = v % moduli[col]
            out.append(tuple(dense))
        return out

    def _solve(self):
        if not self.I.is_abelian():
            raise MlexError("affine datum needs an abelian kernel algebra")
        if not self.action.is_unary():
            raise MlexError("affine datum needs a purely unary action")
        base = self.action.split
        if not is_compatible(base.T, self.variety, raw=base):
            raise MlexError(
                f"action is not compatible with variety {self.variety.name!r}"
            )
        col_moduli = self._col_moduli
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
        for vec in self._unit_coboundaries():
            sol = self._generators.solve(vec)
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
    raw = action.split
    changes = LiftingChanges(Q, I)
    out = [
        changes.table(v)
        for v in changes.homs
        if raw.relifted(changes.positions(v)) == raw.T.positions
    ]
    if not changes.is_subgroup(out):
        raise ConsistencyError("derivations are not closed under addition")
    return out


@dataclass
class PrincipalResult:
    maps: list
    complete: bool
    depth_used: int
    derivations: list  # the derivation group the maps were measured against


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
    derivation group was reached).  The result carries that group, as
    ``derivations`` lists it.
    """
    zero = {x: I.module.zero() for x in mod_elements(Q.module)}
    ders = derivations(Q, I, action)
    if action.is_trivial():
        return PrincipalResult([zero], True, 0, ders)
    changes = LiftingChanges(Q, I)
    der_keys = {changes.vector(h) for h in ders}
    raw = action.split
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
    return PrincipalResult(maps, complete, depth, ders)


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
    pres = principal_derivations(Q, I, action, depth=depth)
    ders = pres.derivations
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
