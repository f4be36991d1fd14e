"""Finite algebras: a Z/m-module expanded by multilinear operations.

Operations are stored as structure-constant tables on generator tuples
and extended multilinearly.  Ideals keep both a generating list and the
full closed element set; all algebras in play are tiny, so membership is
set lookup and closures are plain fixpoint loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import MlexError
from .modcore import (
    Element,
    LinMap,
    Presentation,
    ZmModule,
    abelian_decomposition,
    iter_homs,
    mod_elements,
    span_elements,
)


class MultilinearOp:
    """An n-ary operation given by its values on generator tuples.

    ``table`` maps a tuple of generator indices to an Element of the
    carrier; missing entries are zero.  Well-definedness requires that
    the order of the generator in each slot annihilates the value.
    """

    def __init__(self, name, arity, carrier, table=None):
        if arity < 1:
            raise MlexError(f"operation {name}: arity must be >= 1")
        self.name = name
        self.arity = arity
        self.carrier = carrier
        self._cache = {}
        self.table = {}
        for key, value in (table or {}).items():
            key = tuple(key)
            if len(key) != arity or not all(0 <= i < carrier.rank for i in key):
                raise MlexError(f"operation {name}: bad generator tuple {key}")
            if value.module != carrier:
                raise MlexError(f"operation {name}: value outside the carrier")
            for i in key:
                if not carrier.scalar(carrier.factors[i], value).is_zero():
                    raise MlexError(
                        f"operation {name}: value {value} not annihilated by "
                        f"generator order {carrier.factors[i]}"
                    )
            if not value.is_zero():
                self.table[key] = value

    def __call__(self, *args):
        if len(args) != self.arity:
            raise MlexError(
                f"operation {self.name}: expected {self.arity} arguments"
            )
        cached = self._cache.get(args)
        if cached is not None:
            return cached
        M = self.carrier
        out = M.zero()
        for key, value in self.table.items():
            coeff = 1
            for slot, gen_index in enumerate(key):
                coeff = (coeff * args[slot].coords[gen_index]) % M.modulus
                if coeff == 0:
                    break
            if coeff:
                out = M.add(out, M.scalar(coeff, value))
        self._cache[args] = out
        return out

    def is_zero(self):
        return not self.table


class Algebra:
    """A module together with named multilinear operations.

    ``op_table(f)`` is f on the module layout's positions, built on first
    read and held on this object, so it lives as long as the algebra.
    """

    def __init__(self, module, ops=None):
        self.module = module
        self.ops = {}
        self._op_tables = {}
        for name, op in (ops or {}).items():
            if op.carrier != module:
                raise MlexError(f"operation {name} lives on a different module")
            self.ops[name] = op

    # carrier interface shared with the raw semidirect tables
    @property
    def modulus(self):
        return self.module.modulus

    def universe(self):
        return mod_elements(self.module)

    def zero(self):
        return self.module.zero()

    def add(self, a, b):
        return self.module.add(a, b)

    def neg(self, a):
        return self.module.neg(a)

    def scalar(self, r, a):
        return self.module.scalar(r, a)

    def apply_op(self, name, args):
        if name not in self.ops:
            raise MlexError(f"unknown operation symbol {name!r}")
        return self.ops[name](*args)

    def op_table(self, name):
        """f on positions: ``op_table(f)[key]`` is the position of
        f(args), key the base-|A| number of the argument positions."""
        table = self._op_tables.get(name)
        if table is None:
            layout, op = self.module.layout, self.ops[name]
            table = self._op_tables[name] = tuple(
                layout.index[op(*args).coords]
                for args in itertools.product(layout.elements, repeat=op.arity)
            )
        return table

    def multilinear_generators(self):
        """Module generators: every MultilinearOp is multilinear by
        construction."""
        return self.module.generators()

    def op_arity(self, name):
        if name not in self.ops:
            raise MlexError(f"unknown operation symbol {name!r}")
        return self.ops[name].arity

    def signature(self):
        return {name: op.arity for name, op in self.ops.items()}

    def is_abelian(self):
        """All multilinear operations are identically zero."""
        return all(op.is_zero() for op in self.ops.values())

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.module == other.module
            and self.signature() == other.signature()
            and all(
                self.ops[n].table == other.ops[n].table for n in self.ops
            )
        )

    def __hash__(self):
        return hash(
            (
                self.module,
                tuple(sorted((n, o.arity, tuple(sorted(o.table.items()))) for n, o in self.ops.items())),
            )
        )

    def __str__(self):
        return f"Algebra({self.module}, ops={sorted(self.ops)})"


@dataclass
class Ideal:
    """A submodule absorbing every multilinear operation."""

    parent: Algebra
    generators: tuple[Element, ...]
    elements: frozenset = field(default=None)

    def __post_init__(self):
        if self.elements is None:
            self.elements = frozenset(
                _ideal_closure(self.parent, list(self.generators))
            )

    def __contains__(self, e):
        return e in self.elements

    def is_zero(self):
        return self.elements == {self.parent.module.zero()}

    def sorted_elements(self):
        return sorted(self.elements, key=lambda e: e.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __le__(self, other):
        return self.elements <= other.elements


def _absorption_step(A, gens, current):
    """Values f(..., g, ...) with one slot from gens and the other slots
    ranging over carrier generators; multilinearity makes this span all
    absorbed values."""
    out = []
    carrier_gens = A.module.generators()
    for op in A.ops.values():
        for slot in range(op.arity):
            others = [carrier_gens] * op.arity
            for g in gens:
                pools = list(others)
                pools[slot] = [g]
                for args in itertools.product(*pools):
                    v = op(*args)
                    if v not in current:
                        out.append(v)
    return out


def _ideal_closure(A, seed):
    gens = list(seed)
    closed = span_elements(A.module, gens)
    while True:
        new = _absorption_step(A, gens, closed)
        if not new:
            return closed
        gens.extend(new)
        closed = span_elements(A.module, gens)


def ideal_generated(A, elements):
    for e in elements:
        if e.module != A.module:
            raise MlexError("generator outside the carrier")
    return Ideal(A, tuple(elements))


def is_ideal_set(A, subset):
    """Exhaustive ideal test on an element set (used as an oracle)."""
    subset = set(subset)
    if A.module.zero() not in subset:
        return False
    for a in subset:
        for b in subset:
            if A.module.add(a, b) not in subset:
                return False
        if A.module.neg(a) not in subset:
            return False
    for op in A.ops.values():
        for slot in range(op.arity):
            pools = [list(mod_elements(A.module))] * op.arity
            pools[slot] = list(subset)
            for args in itertools.product(*pools):
                if op(*args) not in subset:
                    return False
    return True


def commutator(I, J):
    """Smallest ideal containing the mixed operation values of I and J."""
    if I.parent != J.parent:
        raise MlexError("commutator arguments have different parents")
    A = I.parent
    values = set()
    for op in A.ops.values():
        for side, other in ((I, J), (J, I)):
            pools = [other.sorted_elements()] * op.arity
            for args in itertools.product(*pools):
                if any(a in side for a in args):
                    values.add(op(*args))
    return ideal_generated(A, sorted(values, key=lambda e: e.coords))


def whole_ideal(A):
    return ideal_generated(A, A.module.generators())


def zero_ideal(A):
    return ideal_generated(A, [])


def series(A, kind):
    """Descending chain of ideals until stabilization.

    kind "derived" iterates S -> [S,S]; "lower_central" iterates
    S -> [A,S].  Returns (chain, stabilized_at_zero, steps).
    """
    if kind not in ("derived", "lower_central"):
        raise MlexError(f"unknown series kind {kind!r}")
    top = whole_ideal(A)
    chain = [top]
    while True:
        last = chain[-1]
        nxt = commutator(last, last) if kind == "derived" else commutator(top, last)
        if nxt.elements == last.elements:
            break
        chain.append(nxt)
        if nxt.is_zero():
            break
    reaches_zero = chain[-1].is_zero()
    steps = len(chain) - 1 if reaches_zero else None
    return chain, reaches_zero, steps


# -- quotients and subalgebras ---------------------------------------------------


def quotient(A, I):
    """Quotient algebra and the canonical surjection.

    Returns (Q, pi, section) where pi is a LinMap A.module -> Q.module
    and section is a LinMap splitting pi on the underlying modules
    (section(0) = 0; it is not an algebra map in general).
    """
    if not isinstance(I, Ideal) or I.parent != A:
        raise MlexError("quotient requires an ideal of the algebra")
    if not is_ideal_set(A, I.elements):
        raise MlexError("absorption violation: subset is not an ideal")
    M = A.module
    k = M.rank
    # present M/I by rows: generator orders plus lifted ideal generators
    rel = [[M.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for e in I.sorted_elements():
        if not e.is_zero():
            rel.append(list(e.coords))
    if not rel:
        rel = [[0] * k] if k else [[0]]
    pres = Presentation(rel, k)
    Qmod = ZmModule(M.modulus, pres.factors)

    def project(e):
        return Qmod.element(pres.project(e.coords))

    def lift(q):
        return M.element(pres.lift(q.coords))

    pi = LinMap(M, Qmod, tuple(project(g) for g in M.generators()))
    ops = {}
    for name, op in A.ops.items():
        table = {}
        for key in itertools.product(range(Qmod.rank), repeat=op.arity):
            args = [lift(Qmod.generator(i)) for i in key]
            table[key] = pi(op(*args))
        ops[name] = MultilinearOp(name, op.arity, Qmod, table)
    Q = Algebra(Qmod, ops)
    section_map = {q: lift(q) for q in mod_elements(Qmod)}
    return Q, pi, section_map


def subalgebra(A, subset):
    """Algebra structure on a subset closed under +, scalars and ops.

    Returns (S, embed, to_sub): embed is a LinMap S.module -> A.module
    and to_sub maps each element of the subset to its coordinates in S.
    """
    subset = sorted(set(subset), key=lambda e: e.coords)
    M = A.module
    op_specs = {name: (op.arity, op) for name, op in A.ops.items()}
    S, to_sub, from_sub = algebra_from_ops(subset, M.add, M.zero(), op_specs, M.modulus)
    embed = LinMap(S.module, M, tuple(from_sub[g] for g in S.module.generators()))
    return S, embed, to_sub


def algebra_from_ops(items, add, zero, op_specs, modulus):
    """Build an Algebra from a raw finite carrier.

    ``items`` is the carrier, ``add`` its addition, ``op_specs`` maps an
    operation name to (arity, callable).  Returns (B, encode, decode)
    where encode maps raw items to canonical Elements.  Raises MlexError
    when an operation value falls outside ``items``.
    """
    orders, gens, coords = abelian_decomposition(list(items), add, zero)
    mod = ZmModule(modulus, tuple(orders))
    encode = {e: mod.element(c) for e, c in coords.items()}
    decode = {v: e for e, v in encode.items()}
    ops = {}
    for name, (arity, func) in op_specs.items():
        table = {}
        for key in itertools.product(range(mod.rank), repeat=arity):
            args = [decode[mod.generator(i)] for i in key]
            value = func(*args)
            if value not in encode:
                raise MlexError("subset is not closed under the operations")
            table[key] = encode[value]
        ops[name] = MultilinearOp(name, arity, mod, table)
    return Algebra(mod, ops), encode, decode


# -- homomorphisms -----------------------------------------------------------------


def is_homomorphism(A, B, phi):
    """Does the LinMap phi respect all operations?

    Both phi(f(args)) and f(phi(args)) are multilinear in args, so they
    agree everywhere once they agree on generator tuples.
    """
    if phi.source != A.module or phi.target != B.module:
        raise MlexError("map does not match the algebras")
    if A.signature() != B.signature():
        return False
    for name, op in A.ops.items():
        for args in itertools.product(A.module.generators(), repeat=op.arity):
            if phi(op(*args)) != B.apply_op(name, [phi(a) for a in args]):
                return False
    return True


def _invariant_factors(module):
    """Invariant factors of the module's group, 1s dropped; equal exactly
    for isomorphic groups, whatever their presentations (Z6, Z2 x Z3)."""
    k = module.rank
    if not k:
        return []
    diagonal = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(module.factors)]
    return list(Presentation(diagonal, k).factors)


def find_isomorphism(A, B):
    """First algebra isomorphism A -> B in enumeration order, or None."""
    if A.signature() != B.signature():
        return None
    if _invariant_factors(A.module) != _invariant_factors(B.module):
        return None
    for phi in iter_homs(A.module, B.module):
        if not phi.is_bijective():
            continue
        if is_homomorphism(A, B, phi):
            return phi
    return None
