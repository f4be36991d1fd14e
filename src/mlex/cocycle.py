"""Actions, 2-cocycles, semidirect products, realization and equivalence.

A cocycle for a datum (Q, I) bundles factor sets (one for the group
operation, one per ring scalar, one per multilinear operation symbol)
with an action table.  The semidirect product built from a cocycle is a
raw operation table on the set I x Q: it need not satisfy the module or
multilinearity axioms, and a legality check records whether it does.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import BudgetExceeded, ConsistencyError, MlexError, ValidationError
from .modcore import Congruences, LinMap, greedy_span, is_subgroup, iter_homs, mod_elements
from .algebra import (
    Algebra,
    Ideal,
    MultilinearOp,
    algebra_from_ops,
    commutator,
    is_homomorphism,
    quotient,
    series,
    subalgebra,
    whole_ideal,
)
from . import termlang


def proper_subsets(n):
    """Nonempty proper subsets of {0..n-1} as sorted tuples, shortest first."""
    out = []
    for size in range(1, n):
        out.extend(itertools.combinations(range(n), size))
    return out


def substitute(vec, slots, values):
    """Replace vec[i] by the matching entry of values for i in slots."""
    vec = list(vec)
    for i, v in zip(slots, values):
        vec[i] = v
    return tuple(vec)


class Action:
    """Tables a(f, s): Q^n x I^n -> I for every operation f and every
    nonempty proper slot subset s.

    Values depend only on the Q-entries outside s and the I-entries
    inside s, so tables are keyed by that restriction.  Every table is
    complete and stored in canonical order: operations by name, slot
    subsets as ``proper_subsets`` lists them, keys as ``action_keys``
    lists them.  Nothing changes the tables after ``__init__``, so a
    passed ``validate`` and the split product ``split`` are kept on the
    object.
    """

    def __init__(self, Q, I, tables=None):
        if Q.signature() != I.signature():
            raise MlexError("datum algebras carry different signatures")
        if Q.module.modulus != I.module.modulus:
            raise MlexError("datum algebras use different moduli")
        self.Q = Q
        self.I = I
        tables = tables or {}
        zero = I.module.zero()
        self.tables = {
            (f, s): _filled(action_keys(Q, I, op.arity, s), tables.get((f, s), {}), zero)
            for f, op in sorted(Q.ops.items())
            for s in proper_subsets(op.arity)
        }
        for key in tables:
            if key not in self.tables:
                raise MlexError(f"no action slot {key!r} in this signature")
        self._valid = False

    def slots(self):
        return list(self.tables)

    def off_slots(self, f, s):
        return tuple(i for i in range(self.Q.op_arity(f)) if i not in s)

    def value(self, f, s, qvec, avec):
        off = self.off_slots(f, s)
        key = (tuple(qvec[i] for i in off), tuple(avec[i] for i in s))
        return self.tables[(f, s)][key]

    def validate(self):
        """The conditions making the tables a genuine action (code T4)."""
        if self._valid:
            return True
        for (f, s), table in self.tables.items():
            for (qoff, asub), value in table.items():
                if any(q.is_zero() for q in qoff) and not value.is_zero():
                    raise ValidationError(
                        f"action a({f},{_show_s(s)}) nonzero at zero outside-slot entry",
                        clause="T4",
                        where=f"({_fmt(qoff)}|{_fmt(asub)})",
                    )
            # additivity in each distinguished slot; scalar linearity follows,
            # since r*a is r-fold addition in a Z/m-module
            for pos in range(len(s)):
                for (qoff, asub) in table:
                    for extra in mod_elements(self.I.module):
                        bumped = substitute(asub, (pos,), (asub[pos] + extra,))
                        other = substitute(asub, (pos,), (extra,))
                        if table[(qoff, bumped)] != table[(qoff, asub)] + table[(qoff, other)]:
                            raise ValidationError(
                                f"action a({f},{_show_s(s)}) not additive in slot {s[pos] + 1}",
                                clause="T4",
                                where=f"({_fmt(qoff)}|{_fmt(asub)})",
                            )
        self._valid = True
        return True

    @functools.cached_property
    def split(self):
        """The semidirect product of the zero cocycle over this action."""
        return SemidirectProduct(Cocycle.zero(self.Q, self.I, self))

    def is_trivial(self):
        return all(
            v.is_zero() for table in self.tables.values() for v in table.values()
        )

    def is_unary(self):
        """No action term with more than one distinguished slot is nonzero."""
        return all(
            v.is_zero()
            for (f, s), table in self.tables.items()
            if len(s) > 1
            for v in table.values()
        )

    @staticmethod
    def trivial(Q, I):
        return Action(Q, I)

    def pull_back(self, R, phi):
        """The action of R read through phi: R -> Q on the quotient side:
        a(f, s) at outside-slot entries qoff is this action's value at
        phi(qoff)."""
        tables = {}
        for (f, s), table in self.tables.items():
            tables[(f, s)] = {
                (qoff, asub): table[(tuple(phi(q) for q in qoff), asub)]
                for qoff, asub in action_keys(R, self.I, R.op_arity(f), s)
            }
        return Action(R, self.I, tables)

    def canonical_key(self):
        return tuple(v.coords for table in self.tables.values() for v in table.values())

    def same_datum(self, other):
        return self.Q == other.Q and self.I == other.I

    def __eq__(self, other):
        return (
            isinstance(other, Action)
            and self.same_datum(other)
            and self.tables == other.tables
        )


def action_keys(Q, I, n, s):
    """The keys (qoff, asub) of an n-ary table a(f, s): quotient entries
    outside s, then kernel entries in s, in ``mod_elements`` product
    order.  Keys that share qoff share one tuple object and come in one
    run."""
    return itertools.product(
        itertools.product(mod_elements(Q.module), repeat=n - len(s)),
        itertools.product(mod_elements(I.module), repeat=len(s)),
    )


def _filled(keys, cells, zero):
    """The table over keys, in their order: the given cells, zero elsewhere."""
    table = dict.fromkeys(keys, zero)
    table.update(cells)
    return table


def _fmt(vec):
    return ",".join(str(v) for v in vec)


def _show_pair(u):
    """A pair (a, x) of I x Q written <a,x>."""
    a, x = u
    return f"<{a},{x}>"


def _show_s(s):
    return "{" + ",".join(str(i + 1) for i in s) + "}"


def enumerate_actions(Q, I, budget=None):
    """All actions on the datum, smallest canonical key first."""
    free_cells = []
    for f, op in sorted(Q.ops.items()):
        n = op.arity
        for s in proper_subsets(n):
            off = tuple(i for i in range(n) if i not in s)
            nonzero_q = [e for e in mod_elements(Q.module) if not e.is_zero()]
            for qoff in itertools.product(nonzero_q, repeat=len(off)):
                for gen_idx in itertools.product(range(I.module.rank), repeat=len(s)):
                    orders = [I.module.factors[g] for g in gen_idx]
                    candidates = [
                        v
                        for v in mod_elements(I.module)
                        if all(I.module.scalar(d, v).is_zero() for d in orders)
                    ]
                    free_cells.append(((f, s, qoff, gen_idx), candidates))
    total = 1
    for _, cands in free_cells:
        total *= len(cands)
    if budget is not None and total > budget:
        raise BudgetExceeded(total, budget)
    actions = []
    for assignment in itertools.product(*(c for _, c in free_cells)):
        tables = {}
        for ((f, s, qoff, gen_idx), _), value in zip(free_cells, assignment):
            tables.setdefault((f, s), {})[(qoff, gen_idx)] = value
        actions.append(_action_from_generator_tables(Q, I, tables))
    actions.sort(key=lambda a: a.canonical_key())
    return actions


def _action_from_generator_tables(Q, I, gen_tables):
    """Extend generator-level tables multilinearly to a full Action; cells
    with a zero outside-slot entry stay zero."""
    tables = {}
    for (f, s), gen_cells in gen_tables.items():
        table = tables[(f, s)] = {}
        for qoff, keys in itertools.groupby(
            action_keys(Q, I, Q.op_arity(f), s), key=operator.itemgetter(0)
        ):
            if any(q.is_zero() for q in qoff):
                continue
            slot_op = MultilinearOp(
                f, len(s), I.module, {g: v for (q, g), v in gen_cells.items() if q == qoff}
            )
            table.update((key, slot_op(*key[1])) for key in keys)
    return Action(Q, I, tables)


class Cocycle:
    """Factor sets plus an action for a datum (Q, I).

    Tables are dense: every argument tuple has an explicit entry, and
    the normalization cells demanded by conditions T1-T3 are validated.
    They are stored in canonical order: ``tplus`` over (x, y), ``tr`` over
    (r, x), ``tf`` over operations by name, then argument tuples, each in
    ``mod_elements`` product order.
    """

    def __init__(self, action, tplus, tr, tf):
        self.action, self.Q, self.I = action, action.Q, action.I
        qs, zero = mod_elements(self.Q.module), self.I.module.zero()
        self.tplus = _filled(itertools.product(qs, repeat=2), tplus, zero)
        self.tr = _filled(itertools.product(range(self.Q.module.modulus), qs), tr, zero)
        self.tf = _filled(
            (
                (f, xs)
                for f, op in sorted(self.Q.ops.items())
                for xs in itertools.product(qs, repeat=op.arity)
            ),
            tf,
            zero,
        )

    def validate(self):
        zeroQ = self.Q.module.zero()
        for (x, y), v in self.tplus.items():
            if (x == zeroQ or y == zeroQ) and not v.is_zero():
                raise ValidationError(
                    "group factor set nonzero on a zero argument",
                    clause="T1",
                    where=f"({x},{y})",
                )
        for (r, x), v in self.tr.items():
            if x == zeroQ and not v.is_zero():
                raise ValidationError(
                    f"scalar factor set for r={r} nonzero at zero",
                    clause="T2",
                    where=f"({x})",
                )
        for (f, xs), v in self.tf.items():
            if any(x == zeroQ for x in xs) and not v.is_zero():
                raise ValidationError(
                    f"factor set for {f} nonzero on a zero argument",
                    clause="T3",
                    where="(" + ",".join(str(x) for x in xs) + ")",
                )
        self.action.validate()
        return True

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(Q, I, action=None):
        action = action or Action.trivial(Q, I)
        return Cocycle(action, {}, {}, {})

    @staticmethod
    def from_cells(action, tplus_cells=None, tf_cells=None):
        """Build from sparse factor-set cells; scalar factor sets are the
        telescoped sums forced by writing r*x as repeated addition."""
        T = Cocycle(action, dict(tplus_cells or {}), {}, dict(tf_cells or {}))
        T.tr = T._telescoped_tr()
        return T

    def pull_back(self, R, phi):
        """The cocycle over (R, I) read through phi: R -> Q: every factor
        set at quotient entries xs is this cocycle's value at phi(xs), and
        the action is pulled back the same way."""
        rs = mod_elements(R.module)
        return Cocycle(
            self.action.pull_back(R, phi),
            {(x, y): self.tplus[(phi(x), phi(y))] for x in rs for y in rs},
            {(r, x): self.tr[(r, phi(x))] for r in range(R.module.modulus) for x in rs},
            {
                (f, xs): self.tf[(f, tuple(phi(x) for x in xs))]
                for f, op in R.ops.items()
                for xs in itertools.product(rs, repeat=op.arity)
            },
        )

    def _telescoped_tr(self):
        """Scalar factor sets tr(r, x) = sum of tplus(j*x, x) for 0 < j < r."""
        Q, I = self.Q, self.I
        tr = {}
        for r in range(Q.module.modulus):
            for x in mod_elements(Q.module):
                acc = I.module.zero()
                for j in range(1, r):
                    acc = I.module.add(acc, self.tplus[(Q.module.scalar(j, x), x)])
                tr[(r, x)] = acc
        return tr

    # -- algebraic structure on cocycles over one action ------------------

    def add(self, other):
        return self._cellwise(other, self.I.module.add)

    def sub(self, other):
        return self._cellwise(other, self.I.module.sub)

    def _cellwise(self, other, combine):
        """combine applied to matching cells of two cocycles over one action."""
        if self.action != other.action:
            raise MlexError("cocycle arithmetic needs a common action")
        return Cocycle(
            self.action,
            {k: combine(v, other.tplus[k]) for k, v in self.tplus.items()},
            {k: combine(v, other.tr[k]) for k, v in self.tr.items()},
            {k: combine(v, other.tf[k]) for k, v in self.tf.items()},
        )

    def is_group_trivial_table(self):
        return all(v.is_zero() for v in self.tplus.values())

    def is_linear(self):
        return self.action.is_unary()

    def is_action_trivial(self):
        return self.action.is_trivial()

    def factor_sets_zero(self):
        return (
            self.is_group_trivial_table()
            and all(v.is_zero() for v in self.tr.values())
            and all(v.is_zero() for v in self.tf.values())
        )

    def canonical_key(self):
        return (self.action.canonical_key(),) + tuple(
            tuple(v.coords for v in table.values()) for table in (self.tplus, self.tr, self.tf)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle)
            and self.action == other.action
            and self.tplus == other.tplus
            and self.tr == other.tr
            and self.tf == other.tf
        )

    def same_datum(self, other):
        return self.Q == other.Q and self.I == other.I


class SemidirectProduct:
    """The raw operation table on E = I x Q defined by a cocycle.

    The pair (a, x) sits at position a*|Q| + x, its place in
    ``universe()``, where a and x are positions in the module layouts of
    I and Q.  E's tables are over positions, each built on first read and
    held on this object: ``_add[u*|E| + v]`` is u + v,
    ``_scalar[r*|E| + u]`` is r*u, and ``_ops[f]`` maps the base-|E|
    number of an argument tuple to its value under f, filled one value at
    a time.  The table realizes its cocycle whether or not it is a legal
    algebra; ``legality()`` reports whether the module and multilinearity
    axioms hold, and ``to_algebra()`` converts when they do.
    """

    def __init__(self, cocycle):
        self.T, self.Q, self.I = cocycle, cocycle.Q, cocycle.I
        self.modulus = self.Q.module.modulus
        self._ql, self._il = self.Q.module.layout, self.I.module.layout
        self._nq = len(self._ql.elements)
        self._ne = self._nq * len(self._il.elements)
        self._legal = self._gens = None
        self._ops = {name: {} for name in self.Q.ops}

    @functools.cached_property
    def _elements(self):
        return tuple((a, x) for a in self._il.elements for x in self._ql.elements)

    @functools.cached_property
    def _tp(self):
        """T+ on Q's positions: ``_tp[x*|Q| + y]`` is the position of T+(x, y)."""
        return [self._il.index[v.coords] for v in self.T.tplus.values()]

    @functools.cached_property
    def _add(self):
        nq, ni, tp = self._nq, len(self._il.elements), self._tp
        iadd, qadd = self._il.add, self._ql.add
        return [
            iadd[iadd[a * ni + b] * ni + tp[x * nq + y]] * nq + qadd[x * nq + y]
            for a, x, b, y in itertools.product(range(ni), range(nq), range(ni), range(nq))
        ]

    @functools.cached_property
    def _scalar(self):
        nq, ni = self._nq, len(self._il.elements)
        iadd, iscal, qscal = self._il.add, self._il.scalar, self._ql.scalar
        tr = [self._il.index[v.coords] for v in self.T.tr.values()]
        return [
            iadd[iscal[r * ni + a] * ni + tr[r * nq + x]] * nq + qscal[r * nq + x]
            for r, a, x in itertools.product(range(self.modulus), range(ni), range(nq))
        ]

    def _pos(self, u):
        """The position of the pair u; an entry outside I or Q raises."""
        a, x = u
        if a.module is not self.I.module or x.module is not self.Q.module:
            self.I.module._check(a), self.Q.module._check(x)
        return self._il.index[a.coords] * self._nq + self._ql.index[x.coords]

    def _op(self, name, key):
        """The position of f(args), key the base-|E| number of args: read
        from f's table, or computed and stored there."""
        table = self._ops[name]
        value = table.get(key)
        if value is None:
            args, rest = [], key
            for _ in range(self.Q.op_arity(name)):
                rest, d = divmod(rest, self._ne)
                args.append(self._elements[d])
            avec = tuple(a for a, _ in reversed(args))
            xvec = tuple(x for _, x in reversed(args))
            acc = self.I.apply_op(name, avec)
            for s in proper_subsets(len(args)):
                acc = self.I.module.add(acc, self.T.action.value(name, s, xvec, avec))
            acc = self.I.module.add(acc, self.T.tf[(name, xvec)])
            value = table[key] = self._pos((acc, self.Q.apply_op(name, xvec)))
        return value

    def universe(self):
        return list(self._elements)

    def zero(self):
        return (self.I.module.zero(), self.Q.module.zero())

    def add(self, u, v):
        return self._elements[self._add[self._pos(u) * self._ne + self._pos(v)]]

    def neg(self, u):
        a, x = u
        nx = self.Q.module.neg(x)
        return self.I.module.neg(self.I.module.add(a, self.T.tplus[(x, nx)])), nx

    def scalar(self, r, u):
        return self._elements[self._scalar[r % self.modulus * self._ne + self._pos(u)]]

    def apply_op(self, name, args):
        if len(args) != self.Q.op_arity(name):
            raise MlexError(f"operation {name}: expected {self.Q.op_arity(name)} arguments")
        key = 0
        for u in args:
            key = key * self._ne + self._pos(u)
        return self._elements[self._op(name, key)]

    def op_arity(self, name):
        return self.Q.op_arity(name)

    def multilinear_generators(self):
        """The generating set that legality checked the operations on, once
        the cached verdict is legal and ``zero()`` is the group's identity;
        else None.  The verdict is read, not computed."""
        return self._gens

    def embed_kernel(self, a):
        return (a, self.Q.module.zero())

    def lift(self, x):
        return (self.I.module.zero(), x)

    def project(self, u):
        return u[1]

    # -- legality ---------------------------------------------------------

    def legality(self):
        """(ok, reason): do the module and multilinearity axioms hold?"""
        if self._legal is None:
            self._legal = self._check_legality()
        return self._legal

    def is_legal(self):
        return self.legality()[0]

    def _plus(self, u, v):
        return self._add[u * self._ne + v]

    def _check_legality(self):
        """Decide the axioms on E's position tables.

        Once the group laws hold, E is a finite abelian group, and a map
        phi into E is additive iff phi(u+g) = phi(u) + phi(g) for every u
        and every g of a generating set.  Slot i is checked only after the
        slots before it passed, so the defect in slot i is additive in
        those slots too and their arguments range over the generators
        alone.
        """
        qs, qadd, iadd, tp = self._ql.elements, self._ql.add, self._il.add, self._tp
        nq, ni = self._nq, len(self._il.elements)
        # abelian group laws reduce to conditions on the group factor set
        for x in range(nq):
            for y in range(nq):
                if tp[x * nq + y] != tp[y * nq + x]:
                    return False, f"addition not commutative at ({qs[x]},{qs[y]})"
        for x in range(nq):
            for y in range(nq):
                txy, xy = tp[x * nq + y], qadd[x * nq + y]
                for z in range(nq):
                    lhs = iadd[txy * ni + tp[xy * nq + z]]
                    rhs = iadd[tp[y * nq + z] * ni + tp[x * nq + qadd[y * nq + z]]]
                    if lhs != rhs:
                        return (
                            False,
                            f"addition not associative at ({qs[x]},{qs[y]},{qs[z]})",
                        )
        # scalars must agree with repeated addition, and m*u must vanish
        ne, eadd, escal, elems = self._ne, self._add, self._scalar, self._elements
        for u in range(ne):
            acc = 0
            for r in range(self.modulus):
                if escal[r * ne + u] != acc:
                    at = _show_pair(elems[u])
                    return False, f"scalar {r} disagrees with repeated addition at {at}"
                acc = eadd[acc * ne + u]
            if acc != 0:
                return False, f"element {_show_pair(elems[u])} not annihilated by the modulus"
        if not self.Q.ops:
            return True, None
        # multilinearity of every operation in every slot
        identity = next(u for u in range(ne) if eadd[u * ne + u] == u)
        gens = [u for u, _ in greedy_span(range(ne), self._plus, identity)]
        for name, op in self.Q.ops.items():
            n, get = op.arity, self._ops[name].get
            for slot in range(n):
                stride = ne ** (n - 1 - slot)
                for pre in itertools.product(gens, repeat=slot):
                    for post in itertools.product(range(ne), repeat=n - 1 - slot):
                        base = 0
                        for d in pre + (0,) + post:
                            base = base * ne + d
                        # f along the slot, the other arguments fixed
                        fiber = []
                        for key in range(base, base + ne * stride, stride):
                            value = get(key)
                            fiber.append(self._op(name, key) if value is None else value)
                        for u in range(ne):
                            fu, row = fiber[u], u * ne
                            for g in gens:
                                if fiber[eadd[row + g]] != eadd[fu * ne + fiber[g]]:
                                    return False, f"operation {name} not additive in slot {slot + 1}"
        if eadd[0] == 0:
            self._gens = [elems[g] for g in gens]
        return True, None

    # -- conversion -------------------------------------------------------

    def to_algebra(self):
        """Canonical Algebra plus the encode/decode pair maps."""
        ok, reason = self.legality()
        if not ok:
            raise MlexError(f"semidirect table is not a legal algebra: {reason}")
        items = self.universe()
        op_specs = {
            name: (op.arity, lambda *args, _n=name: self.apply_op(_n, list(args)))
            for name, op in self.Q.ops.items()
        }
        return algebra_from_ops(items, self.add, self.zero(), op_specs, self.modulus)

    def extension_record(self):
        M, encode, decode = self.to_algebra()
        pi_images = []
        for g in M.module.generators():
            pi_images.append(self.project(decode[g]))
        pi = LinMap(M.module, self.Q.module, tuple(pi_images))
        iota = LinMap(
            self.I.module,
            M.module,
            tuple(encode[self.embed_kernel(g)] for g in self.I.module.generators()),
        )
        lifting = {x: encode[self.lift(x)] for x in mod_elements(self.Q.module)}
        return ExtensionRecord(M, self.Q, self.I, pi, iota, lifting), encode, decode


@dataclass
class ExtensionRecord:
    """A concrete extension pi: M ->> Q with embedded kernel and lifting."""

    M: Algebra
    Q: Algebra
    I: Algebra
    pi: LinMap
    iota: LinMap
    lifting: dict

    def validate(self):
        if not self.pi.is_surjective():
            raise ValidationError("projection is not surjective")
        if not is_homomorphism(self.M, self.Q, self.pi):
            raise ValidationError("projection is not an algebra homomorphism")
        if not self.iota.is_injective():
            raise ValidationError("kernel embedding is not injective")
        if not is_homomorphism(self.I, self.M, self.iota):
            raise ValidationError("kernel embedding is not an algebra homomorphism")
        if self.iota.image_elements() != self.pi.kernel_elements():
            raise ValidationError("embedded kernel differs from the projection kernel")
        zq = self.Q.module.zero()
        if not self.lifting[zq].is_zero():
            raise ValidationError("lifting does not send zero to zero")
        for x in mod_elements(self.Q.module):
            if self.pi(self.lifting[x]) != x:
                raise ValidationError(f"lifting is not a section at {x}")
        return True

    def kernel_ideal(self):
        elems = frozenset(self.iota.image_elements())
        return Ideal(
            self.M,
            tuple(self.iota(g) for g in self.I.module.generators()),
            elements=elems,
        )

    def iota_inverse(self):
        return {self.iota(a): a for a in mod_elements(self.I.module)}


def _realized_tables(Q, I, carrier, lift, embed, down):
    """The four realization equations of a lifting, evaluated once.

    ``carrier`` supplies add/neg/scalar/apply_op, ``lift`` maps Q into it,
    ``embed`` maps I into it and ``down`` maps a carrier element back to
    I, or to None outside the embedded kernel.  Returns the group, scalar
    and operation factor sets and the action tables, keyed as in a
    Cocycle; an entry is None where its equation leaves the kernel.
    Action terms depend only on the quotient entries outside the slot
    subset and the kernel entries inside it, so only the ``action_keys``
    are evaluated, with one lift per run of outside-slot entries.
    """
    qs = mod_elements(Q.module)
    add, neg = carrier.add, carrier.neg

    def defect(u, x):
        """u minus the lift of x, pulled back to the kernel."""
        return down(add(u, neg(lift(x))))

    tplus = {
        (x, y): defect(add(lift(x), lift(y)), Q.module.add(x, y))
        for x in qs
        for y in qs
    }
    tr = {
        (r, x): defect(carrier.scalar(r, lift(x)), Q.module.scalar(r, x))
        for r in range(Q.module.modulus)
        for x in qs
    }
    tf = {}
    action_tables = {}
    for f, op in Q.ops.items():
        n = op.arity
        for xs in itertools.product(qs, repeat=n):
            tf[(f, xs)] = defect(carrier.apply_op(f, [lift(x) for x in xs]), Q.apply_op(f, xs))
        for s in proper_subsets(n):
            off = tuple(i for i in range(n) if i not in s)
            table = action_tables[(f, s)] = {}
            for qoff, keys in itertools.groupby(
                action_keys(Q, I, n, s), key=operator.itemgetter(0)
            ):
                lifted = substitute([None] * n, off, [lift(q) for q in qoff])
                for key in keys:
                    subbed = substitute(lifted, s, [embed(a) for a in key[1]])
                    table[key] = down(carrier.apply_op(f, subbed))
    return tplus, tr, tf, action_tables


def _extension_tables(E):
    return _realized_tables(
        E.Q, E.I, E.M, E.lifting.__getitem__, E.iota, E.iota_inverse().get
    )


def matches(tables, T):
    """Are realized tables exactly T's factor sets and action tables?"""
    tplus, tr, tf, action_tables = tables
    return (
        tplus == T.tplus
        and tr == T.tr
        and tf == T.tf
        and action_tables == T.action.tables
    )


def _kernel_part(u):
    """The kernel entry of a pair of a raw table, or None off the kernel."""
    a, x = u
    return a if x.is_zero() else None


def realizes_raw(raw, T):
    """Realization check for the raw semidirect table with its canonical
    embedding, projection and lifting."""
    tables = _realized_tables(
        raw.Q, raw.I, raw, raw.lift, raw.embed_kernel, _kernel_part
    )
    return matches(tables, T)


def relift(raw, h):
    """The tables realized by the lifting x -> (h(x), x) of a raw
    semidirect table: changing the lifting by h."""
    return _realized_tables(
        raw.Q, raw.I, raw, lambda x: (h[x], x), raw.embed_kernel, _kernel_part
    )


def extract_cocycle(E):
    """The cocycle defined by the extension's lifting."""
    tplus, tr, tf, action_tables = _extension_tables(E)

    def require(values, what):
        if any(v is None for v in values):
            raise ConsistencyError(f"{what} landed outside the embedded kernel")

    require(tplus.values(), "group factor set")
    require(tr.values(), "scalar factor set")
    for f, op in E.Q.ops.items():
        require((v for (g, _), v in tf.items() if g == f), f"factor set for {f}")
        for s in proper_subsets(op.arity):
            require(action_tables[(f, s)].values(), f"action a({f},..)")
    T = Cocycle(Action(E.Q, E.I, action_tables), tplus, tr, tf)
    T.validate()
    return T


class LiftingChanges:
    """The group of lifting changes of a datum: the maps h: Q -> I with
    h(0) = 0, under pointwise addition.

    A map is a vector over (x, j), x a nonzero element of Q in
    ``mod_elements`` order and j a coordinate of I, j innermost; entry
    (x, j) lies in Z_{d_j}.  Every list of maps is sorted by vector, which
    is the order of their value tables.  The group factor set of h is
    δh(x, y) = h(x) + h(y) - h(x + y), linear in h; δ is factored once,
    when ``changes`` first needs it.  Build one object per computation and
    share it among the questions that computation asks.
    """

    def __init__(self, Q, I):
        self.Q, self.I = Q, I
        self._qs = Q.module.layout.elements
        self.moduli = list(I.module.factors) * (len(self._qs) - 1)
        self.zero = (0,) * len(self.moduli)

    def vector(self, h):
        return tuple(c for x in self._qs[1:] for c in h[x].coords)

    def table(self, c):
        k, Im = self.I.module.rank, self.I.module
        return {x: Im.element(c[(i - 1) * k:i * k]) if i else Im.zero() for i, x in enumerate(self._qs)}

    def add(self, u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, self.moduli))

    @functools.cached_property
    def homs(self):
        """Hom(Q, I), the maps with null group factor set, as sorted vectors."""
        return sorted(
            self.vector({x: phi(x) for x in self._qs})
            for phi in iter_homs(self.Q.module, self.I.module)
        )

    @functools.cached_property
    def _delta(self):
        """δ with one row per distinct (row, modulus) over nonzero x, y and
        coordinate j, and the row each (x, y, j) reads: a symmetric
        factor set repeats rows."""
        qs, nq, k = self._qs, len(self._qs), self.I.module.rank
        add = self.Q.module.layout.add
        rows, where = {}, {}
        for x in range(1, nq):
            for y in range(1, nq):
                coeffs = [0] * nq  # at positions; position 0 is h(0) = 0
                for z, c in ((x, 1), (y, 1), (add[x * nq + y], -1)):
                    coeffs[z] += c
                for j, d in enumerate(self.I.module.factors):
                    row = [0] * len(self.moduli)
                    row[j::k] = coeffs[1:]
                    where[(qs[x], qs[y], j)] = rows.setdefault((tuple(row), d), len(rows))
        A = [list(row) for row, _ in rows]
        return Congruences(A, [d for _, d in rows], self.moduli), where

    def changes(self, D):
        """Every h with δh = D, sorted: the coset h0 + Hom(Q, I) of one
        particular solution h0, or [] when there is none."""
        qs = self._qs
        if any(not (D[(qs[0], x)].is_zero() and D[(x, qs[0])].is_zero()) for x in qs):
            return []
        delta, where = self._delta
        b = {}  # a repeated row must repeat its right-hand side
        for (x, y, j), row in where.items():
            if b.setdefault(row, D[(x, y)].coords[j]) != D[(x, y)].coords[j]:
                return []
        sol = delta.solve([b[row] for row in range(len(b))])
        if sol is None:
            return []
        return [self.table(v) for v in sorted(self.add(sol.particular, u) for u in self.homs)]

    def span(self, maps):
        """The subgroup the maps generate, sorted."""
        spanned = greedy_span((self.vector(h) for h in maps), self.add, self.zero)
        return [self.table(v) for v in sorted({self.zero}.union(*(a for _, a in spanned)))]

    def is_subgroup(self, maps):
        return is_subgroup((self.vector(h) for h in maps), self.add, self.zero)

    def witness(self, raw, Tp):
        """First h of ``changes`` whose lifting x -> (h(x), x) of the raw
        table realizes Tp, or None: see ``equivalent``."""
        T = raw.T
        D = {key: T.I.module.sub(v, T.tplus[key]) for key, v in Tp.tplus.items()}
        for h in self.changes(D):
            if matches(relift(raw, h), Tp):
                return h
        return None


def equivalent(T, Tp):
    """First witness h, in the order of ``LiftingChanges.changes``, whose
    lifting x -> (h(x), x) of T's semidirect table realizes Tp, or None.

    On any table that lifting realizes the group factor set T_+ plus that
    of h, so h is a lifting change for Tp_+ - T_+.  For cocycles
    satisfying T1-T4 this is exactly when (a, x) -> (a - h(x), x) is an
    isomorphism of the two semidirect tables.  For addition and scalars
    the two conditions are one identity on any table; for the operations
    they agree because the kernel operations are multilinear and both
    actions are additive in each slot.  Only T's table is built.  Both
    cocycles are validated first, so input outside T1-T4 raises.
    """
    if not T.same_datum(Tp):
        raise MlexError("equivalence requires a common datum")
    T.validate(), Tp.validate()
    return LiftingChanges(T.Q, T.I).witness(SemidirectProduct(T), Tp)


def negated(h, I):
    """The witness map x -> -h(x)."""
    return {x: I.module.neg(v) for x, v in h.items()}


def coboundary(h, action):
    """The cocycle determined by a lifting change h over a reference action:
    the zero cocycle minus what the lifting x -> (-h(x), x) of its split
    table realizes, cell by cell, action tables included.  A reference
    action outside T4 raises."""
    Q, I = action.Q, action.I
    if not h[Q.module.zero()].is_zero():
        raise MlexError("witness map must send zero to zero")
    action.validate()
    Z = action.split.T
    tplus, tr, tf, action_tables = relift(action.split, negated(h, I))

    def minus(ref, table):
        return {k: I.module.sub(ref[k], v) for k, v in table.items()}

    G = Cocycle(
        Action(Q, I, {k: minus(action.tables[k], t) for k, t in action_tables.items()}),
        minus(Z.tplus, tplus),
        minus(Z.tr, tr),
        minus(Z.tf, tf),
    )
    G.validate()
    return G


class DatumError(MlexError):
    """The datum algebras fail the variety membership precondition."""


def is_compatible(T, V, check_datum=True, raw=None):
    """Is the semidirect product of T a legal algebra of the variety V?

    ``raw`` is T's SemidirectProduct when the caller already built one;
    its legality verdict and operation cache are reused.
    """
    if check_datum:
        if not termlang.in_variety(T.Q, V):
            raise DatumError(f"quotient algebra is not in variety {V.name!r}")
        if not termlang.in_variety(T.I, V):
            raise DatumError(f"kernel algebra is not in variety {V.name!r}")
    if raw is None:
        raw = SemidirectProduct(T)
    if not raw.is_legal():
        return False
    return all(termlang.holds(raw, ident) for ident in V.identities)


def mlf_variety(signature):
    """The largest variety for the signature: no identities beyond the
    module and multilinearity axioms (those are checked by legality)."""
    return termlang.Variety("mlf", signature, ())


def is_h2_morphism(T, Tp, alpha, h, beta, emend=False):
    """Boolean morphism predicate between cocycles over possibly
    different data.

    With ``emend=False`` the third condition is evaluated exactly as
    printed in its source formulation, which applies the kernel-side map
    to quotient elements; that reading only types when both data share
    one carrier algebra, and otherwise raises.  ``emend=True`` (the
    command line's ``--emend``) switches to the corrected reading
    (quotient map on quotient entries, kernel operation of the target
    kernel).
    """
    Q1, I1, Q2, I2 = T.Q, T.I, Tp.Q, Tp.I
    Im2 = I2.module
    for x in mod_elements(Q1.module):
        for y in mod_elements(Q1.module):
            lhs = alpha(T.tplus[(x, y)])
            rhs = Im2.add(
                Tp.tplus[(beta(x), beta(y))],
                Im2.sub(Im2.add(h[x], h[y]), h[Q1.module.add(x, y)]),
            )
            if lhs != rhs:
                return False
        for r in range(Q1.module.modulus):
            lhs = alpha(T.tr[(r, x)])
            rhs = Im2.add(
                Tp.tr[(r, beta(x))],
                Im2.sub(Im2.scalar(r, h[x]), h[Q1.module.scalar(r, x)]),
            )
            if lhs != rhs:
                return False
    if not emend and Q1 != I1:
        raise MlexError(
            "the literal third morphism condition applies the kernel map to "
            "quotient entries; it only types when Q = I (pass --emend "
            "for the corrected reading)"
        )
    for f, op in Q1.ops.items():
        n = op.arity
        for s in proper_subsets(n):
            for xs in itertools.product(mod_elements(Q1.module), repeat=n):
                hx = [h[x] for x in xs]
                for avec in itertools.product(mod_elements(I1.module), repeat=n):
                    lhs = alpha(T.action.value(f, s, xs, avec))
                    mapped_q = tuple((beta if emend else alpha)(x) for x in xs)
                    mapped_a = tuple(alpha(a) for a in avec)
                    acc = Tp.action.value(f, s, mapped_q, mapped_a)
                    bx = tuple(beta(x) for x in xs)
                    for r_set in proper_subsets(n):
                        if set(s) < set(r_set):
                            args = substitute(hx, s, [mapped_a[i] for i in s])
                            acc = Im2.add(acc, Tp.action.value(f, r_set, bx, args))
                    args = substitute(hx, s, [mapped_a[i] for i in s])
                    acc = Im2.add(acc, I2.apply_op(f, args))
                    if lhs != acc:
                        return False
    return True


def kernel_kind(T):
    """Syntactic abelian/central test for the kernel, cross-checked
    against the commutator oracle in the constructed semidirect."""
    syntactic_abelian = T.I.is_abelian() and T.is_linear()
    syntactic_central = T.I.is_abelian() and T.is_action_trivial()
    raw = SemidirectProduct(T)
    ok, reason = raw.legality()
    if not ok:
        raise MlexError(f"kernel classification needs a legal product: {reason}")
    E, encode, _ = raw.extension_record()
    kernel = E.kernel_ideal()
    oracle_abelian = commutator(kernel, kernel).is_zero()
    oracle_central = commutator(whole_ideal(E.M), kernel).is_zero()
    if syntactic_abelian != oracle_abelian:
        raise ConsistencyError(
            "abelian-kernel characterization disagrees with the commutator oracle"
        )
    if syntactic_central != oracle_central:
        raise ConsistencyError(
            "central-kernel characterization disagrees with the commutator oracle"
        )
    return {"abelian": oracle_abelian, "central": oracle_central}


@dataclass
class DecompositionStage:
    kernel: Algebra
    cocycle: Cocycle


@dataclass
class Decomposition:
    kind: str
    top: Algebra
    stages: list
    reconstructed: Algebra
    isomorphism: LinMap | None

    @property
    def verified(self):
        return self.isomorphism is not None


def decompose(M, kind):
    """Peel M along its derived or lower central series and rebuild it as
    a right-associated tower of semidirect products."""
    series_kind = {"solvable": "derived", "nilpotent": "lower_central"}.get(kind)
    if series_kind is None:
        raise MlexError(f"unknown decomposition kind {kind!r}")
    chain, reaches_zero, _ = series(M, series_kind)
    if not reaches_zero:
        raise MlexError(f"algebra is not {kind}")
    if M.module.size() == 1:
        return Decomposition(kind, M, [], M, LinMap.identity(M.module))
    # chain: S_0 = M > S_1 > ... > S_n = 0
    quotients = []
    for S in chain[1:]:
        quotients.append(quotient(M, S))
    # quotients[k-1] is M/S_k for k = 1..n
    A_prev, _, sect_prev = quotients[0]
    R = A_prev
    phi = LinMap.identity(R.module)  # R -> A_prev
    stages = []
    for k in range(1, len(quotients)):
        A_next, p_next, sect_next = quotients[k]
        A_k, p_k, sect_k = quotients[k - 1]
        pi_k = LinMap(
            A_next.module,
            A_k.module,
            tuple(p_k(sect_next[g]) for g in A_next.module.generators()),
        )
        kernel_set = {m for m in mod_elements(A_next.module) if pi_k(m).is_zero()}
        K, iota_k, _ = subalgebra(A_next, kernel_set)
        lifting = {
            q: p_next(sect_k[q]) for q in mod_elements(A_k.module)
        }
        E = ExtensionRecord(A_next, A_k, K, pi_k, iota_k, lifting)
        E.validate()
        T_k = extract_cocycle(E)
        if kind == "solvable" and not T_k.is_linear():
            raise ConsistencyError("solvable stage produced a non-linear cocycle")
        if kind == "nilpotent" and not T_k.is_action_trivial():
            raise ConsistencyError("nilpotent stage produced a non-action-trivial cocycle")
        stages.append(DecompositionStage(K, T_k))
        # pull the cocycle back along phi: R ~ A_k and rebuild
        raw = SemidirectProduct(T_k.pull_back(R, phi))
        R_next, encode, decode = raw.to_algebra()
        images = []
        for g in R_next.module.generators():
            a, x = decode[g]
            images.append(A_next.module.add(iota_k(a), lifting[phi(x)]))
        phi_next = LinMap(R_next.module, A_next.module, tuple(images))
        if not (phi_next.is_bijective() and is_homomorphism(R_next, A_next, phi_next)):
            raise ConsistencyError("stage reconstruction failed to match the quotient")
        R, phi = R_next, phi_next
    # the last quotient is M/0, so its section is the inverse of M -> M/0
    sect_last = quotients[-1][2]
    iso = LinMap(
        R.module, M.module, tuple(sect_last[phi(g)] for g in R.module.generators())
    )
    if not (iso.is_bijective() and is_homomorphism(R, M, iso)):
        iso = None
    return Decomposition(kind, A_prev, stages, R, iso)
