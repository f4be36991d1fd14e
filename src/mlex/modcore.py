"""Exact arithmetic and linear algebra over the ring Z/m.

Finite modules are explicit products of cyclic groups Z_d1 x ... x Z_dk
with every d_i dividing the session modulus m.  Every element has a
unique coordinate normal form, every enumeration is lexicographic in
those coordinates, and all arithmetic is integer-exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import MlexError


@dataclass(frozen=True)
class ZmModule:
    """A finite Z/m-module with canonical generators e_1..e_k.

    ``factors[i]`` is the additive order of e_{i+1}; each must divide
    ``modulus``.  The empty factor tuple is the zero module.
    """

    modulus: int
    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        if self.modulus < 1:
            raise MlexError("modulus must be a positive integer")
        for d in self.factors:
            if d < 1 or self.modulus % d != 0:
                raise MlexError(
                    f"cyclic order {d} does not divide the modulus {self.modulus}"
                )

    @property
    def rank(self):
        return len(self.factors)

    def size(self):
        n = 1
        for d in self.factors:
            n *= d
        return n

    def zero(self):
        return Element(self, (0,) * self.rank)

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise MlexError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return Element(self, tuple(int(c) % d for c, d in zip(coords, self.factors)))

    def generator(self, i):
        coords = [0] * self.rank
        coords[i] = 1
        return Element(self, tuple(coords))

    def generators(self):
        return [self.generator(i) for i in range(self.rank)]

    def add(self, a, b):
        self._check(a), self._check(b)
        return Element(
            self,
            tuple((x + y) % d for x, y, d in zip(a.coords, b.coords, self.factors)),
        )

    def neg(self, a):
        self._check(a)
        return Element(self, tuple((-x) % d for x, d in zip(a.coords, self.factors)))

    def scalar(self, r, a):
        self._check(a)
        return Element(self, tuple((r * x) % d for x, d in zip(a.coords, self.factors)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _check(self, a):
        if a.module != self:
            raise MlexError(f"element {a} does not live in module {self}")

    def __str__(self):
        if not self.factors:
            return "0"
        return "x".join(f"Z{d}" for d in self.factors)


@dataclass(frozen=True)
class Element:
    module: ZmModule
    coords: tuple[int, ...]

    def __add__(self, other):
        return self.module.add(self, other)

    def __sub__(self, other):
        return self.module.sub(self, other)

    def __neg__(self):
        return self.module.neg(self)

    def __rmul__(self, r):
        return self.module.scalar(r, self)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def mod_elements(module):
    """All elements of ``module`` in lexicographic coordinate order, zero first."""
    return [
        Element(module, coords)
        for coords in itertools.product(*(range(d) for d in module.factors))
    ]


@dataclass(frozen=True)
class LinMap:
    """A module homomorphism given by the images of the canonical generators.

    Well-definedness demands d_i * images[i] = 0 in the target, where d_i
    is the order of the i-th source generator.
    """

    source: ZmModule
    target: ZmModule
    images: tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source.rank:
            raise MlexError("one image per source generator is required")
        for d, img in zip(self.source.factors, self.images):
            if img.module != self.target:
                raise MlexError("image outside the target module")
            if not self.target.scalar(d, img).is_zero():
                raise MlexError(
                    f"map not well defined: order {d} generator sent to {img}"
                )

    def __call__(self, a):
        if a.module != self.source:
            raise MlexError("argument outside the source module")
        out = self.target.zero()
        for c, img in zip(a.coords, self.images):
            out = self.target.add(out, self.target.scalar(c, img))
        return out

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise MlexError("composition mismatch")
        return LinMap(other.source, self.target, tuple(self(g) for g in other.images))

    def image_elements(self):
        seen = {self.target.zero()}
        for a in mod_elements(self.source):
            seen.add(self(a))
        return seen

    def kernel_elements(self):
        return {a for a in mod_elements(self.source) if self(a).is_zero()}

    def is_injective(self):
        return len(self.kernel_elements()) == 1

    def is_surjective(self):
        return len(self.image_elements()) == self.target.size()

    def is_bijective(self):
        return self.is_injective() and self.is_surjective()

    @staticmethod
    def zero_map(source, target):
        return LinMap(source, target, tuple(target.zero() for _ in range(source.rank)))

    @staticmethod
    def identity(module):
        return LinMap(module, module, tuple(module.generators()))


def hom_enumerate(source, target):
    """All module homomorphisms source -> target, in lexicographic order.

    A generator of order d may be sent exactly to the elements killed by
    d, so the count is the product over generators of the sizes of those
    annihilator sets.
    """
    return list(iter_homs(source, target))


def iter_homs(source, target):
    """The maps of ``hom_enumerate`` one at a time, for searches that stop
    at the first hit."""
    candidate_lists = []
    for d in source.factors:
        candidate_lists.append(
            [n for n in mod_elements(target) if target.scalar(d, n).is_zero()]
        )
    for images in itertools.product(*candidate_lists):
        yield LinMap(source, target, images)


# -- integer Smith normal form -------------------------------------------------


def _add_row(M, dst, src, k, start=0):
    row, other = M[dst], M[src]
    for j in range(start, len(row)):
        row[j] += k * other[j]


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D over the integers.

    U and V are unimodular; D is diagonal with nonnegative entries and
    D[i][i] divides D[i+1][i+1].  The pivot at step t is the first entry
    of least absolute value in row-major order among rows and columns
    >= t; rows and columns < t of D are zero there, so operations on D
    start at t.  Column operations on V run as row operations on its
    transpose.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(map(int, row)) for row in A]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    VT = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            row = D[i]
            for j in range(t, cols):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        return best
        return best

    def swap_cols(t, j):
        for i in range(t, rows):
            row = D[i]
            row[t], row[j] = row[j], row[t]
        VT[t], VT[j] = VT[j], VT[t]

    t = 0
    while t < min(rows, cols):
        found = pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        D[t], D[pi] = D[pi], D[t]
        U[t], U[pi] = U[pi], U[t]
        swap_cols(t, pj)
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    if q:
                        _add_row(D, i, t, -q, t), _add_row(U, i, t, -q)
                    if D[i][t]:
                        D[t], D[i] = D[i], D[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            if dirty:
                continue
            pivot_row = D[t]
            for j in range(t + 1, cols):
                if pivot_row[j]:
                    q = pivot_row[j] // pivot_row[t]
                    if q:
                        for i in range(t, rows):
                            row = D[i]
                            row[j] -= q * row[t]
                        _add_row(VT, j, t, -q)
                    if pivot_row[j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the divisor chain;
            # a unit pivot divides everything
            p = D[t][t]
            if p in (1, -1):
                break
            offender = None
            for i in range(t + 1, rows):
                if any(v % p for v in D[i][t + 1:]):
                    offender = i
                    break
            if offender is None:
                break
            _add_row(D, t, offender, 1, t), _add_row(U, t, offender, 1)
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    V = [list(col) for col in zip(*VT)] if cols else []
    return U, D, V


def int_inverse(V):
    """Inverse of a unimodular integer matrix."""
    n = len(V)
    U, D, W = smith_normal_form(V)
    # V unimodular: D is the identity, so V^{-1} = W * U
    for i in range(n):
        if D[i][i] != 1:
            raise MlexError("matrix is not unimodular")
    return [[sum(W[i][t] * U[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


@dataclass
class LinearSolution:
    """A particular solution plus generators of the solution lattice."""

    particular: tuple[int, ...]
    kernel: list[tuple[int, ...]]


class Congruences:
    """A x = b with row i read modulo row_moduli[i] and the unknown x_j in
    Z_{col_moduli[j]}, factored once for every right-hand side: ``kernel``
    generates the reduced solutions of A x = 0, and ``solve(b)`` returns a
    LinearSolution or None when A x = b is inconsistent."""

    def __init__(self, A, row_moduli, col_moduli):
        rows = len(row_moduli)
        n = len(col_moduli)
        if len(A) != rows or any(len(row) != n for row in A):
            raise MlexError("dimension mismatch in linear system")
        # integer system [A | diag(e)] z = b; without rows every vector solves it
        B = [list(A[i]) + [row_moduli[i] if j == i else 0 for j in range(rows)]
             for i in range(rows)]
        U, D, V = smith_normal_form(B) if rows else ([], [], [[int(i == j) for j in range(n)] for i in range(n)])
        self._U, self._V = U, V
        self._diag = [D[i][i] for i in range(rows)]
        self._col_moduli = list(col_moduli)
        self.kernel = []
        seen = set()
        for i in range(len(V)):
            if i < rows and self._diag[i]:
                continue
            vec = self._reduce([row[i] for row in V])
            if any(vec) and vec not in seen:
                seen.add(vec)
                self.kernel.append(vec)

    def _reduce(self, z):
        return tuple(x % c if c else x for x, c in zip(z, self._col_moduli))

    def solve(self, b):
        if len(b) != len(self._diag):
            raise MlexError("dimension mismatch in linear system")
        w = [0] * len(self._V)
        for i, (x, d) in enumerate(zip(_mat_vec(self._U, list(b)), self._diag)):
            if d:
                if x % d:
                    return None
                w[i] = x // d
            elif x:
                return None
        return LinearSolution(self._reduce(_mat_vec(self._V, w)), list(self.kernel))


def solve_congruences(A, b, row_moduli, col_moduli):
    """The LinearSolution of one system A x = b, or None: see
    ``Congruences``."""
    return Congruences(A, row_moduli, col_moduli).solve(b)


class Presentation:
    """Z^k modulo the span of the integer vectors ``rows``, by one Smith form
    U * rows * V = D: ``factors`` are the diagonal entries d_j other than 1,
    ``project(x)`` gives (x V)_j mod d_j at their positions j, and
    ``lift(c)`` gives y V^-1 where y is c at those j and 0 elsewhere."""

    def __init__(self, rows, k):
        _, D, V = smith_normal_form(rows)
        diag = [D[i][i] if i < len(D) else 0 for i in range(k)]
        self._keep = [j for j in range(k) if diag[j] != 1]
        self.factors = tuple(diag[j] for j in self._keep)
        self._k, self._V = k, V
        # V is unimodular, so the inverse is integral
        self._Vinv = int_inverse(V)

    def project(self, x):
        return tuple(
            sum(a * row[j] for a, row in zip(x, self._V)) % d
            for j, d in zip(self._keep, self.factors)
        )

    def lift(self, c):
        return [
            sum(a * self._Vinv[j][i] for a, j in zip(c, self._keep))
            for i in range(self._k)
        ]


def affine_solutions(moduli, residual):
    """Every coefficient vector c, entry j in Z_{moduli[j]}, at which the
    list of Elements ``residual(c)``, affine in c, is all zero; sorted.

    The linear part is read at the zero and unit vectors, and each reduced
    (row, right-hand side, modulus) triple enters one congruence solve
    once; a zero row with a nonzero right-hand side has no solution."""
    n = len(moduli)
    base = residual((0,) * n)
    columns = [residual(tuple(int(i == j) for i in range(n))) for j in range(n)]
    system = {}
    for i, v in enumerate(base):
        for k, d in enumerate(v.module.factors):
            row = tuple((c[i].coords[k] - v.coords[k]) % d for c in columns)
            rhs = -v.coords[k] % d
            if any(row):
                system[(row, rhs, d)] = None
            elif rhs:
                return []
    A, b, row_moduli = zip(*system) if system else ((), (), ())
    sol = solve_congruences(A, b, row_moduli, moduli)
    if sol is None:
        return []
    W = ZmModule(lcm(*moduli), tuple(moduli))
    span = span_elements(W, [W.element(g) for g in sol.kernel])
    return sorted(W.add(W.element(sol.particular), v).coords for v in span)


def homs_where(source, target, residual):
    """Every homomorphism h: source -> target at which the list of Elements
    ``residual(h)``, affine in h, is all zero; in ``hom_enumerate`` order.
    Coordinate c_ij in Z_gcd(s_i, t_j) sends e_i to c_ij (t_j / gcd) f_j,
    so every vector is a well-defined map and they sort in that order."""
    cells = [(i, j) for i in range(source.rank) for j in range(target.rank)]
    moduli = [gcd(source.factors[i], target.factors[j]) for i, j in cells]

    def as_map(c):
        images = [[0] * target.rank for _ in range(source.rank)]
        for (i, j), g, x in zip(cells, moduli, c):
            images[i][j] = x * (target.factors[j] // g)
        return LinMap(source, target, tuple(target.element(v) for v in images))

    return [as_map(c) for c in affine_solutions(moduli, lambda c: residual(as_map(c)))]


def solve_linear(A, b, col_moduli=None):
    """Convenience wrapper: b is one Element whose factor orders are the
    row moduli; unknowns default to full Z/m residues."""
    row_moduli = list(b.module.factors)
    if col_moduli is None:
        ncols = len(A[0]) if A else 0
        col_moduli = [b.module.modulus] * ncols
    return solve_congruences(A, list(b.coords), row_moduli, list(col_moduli))


def greedy_span(items, plus, zero):
    """Grow the subgroup that ``items`` generate under ``plus``, one greedy
    generator at a time: an item already spanned is skipped, and any other
    one is yielded with the elements its multiples add.  The span S grows
    by the cosets S + u, S + 2u, ... until a multiple of u falls back into
    S, so the whole span costs O(|span|) sums."""
    span, order = {zero}, [zero]
    for u in items:
        if u in span:
            continue
        added, coset = [], order
        while True:
            coset = [plus(s, u) for s in coset]
            if coset[0] in span:
                break
            span.update(coset)
            added.extend(coset)
        order = order + added
        yield u, added


def is_subgroup(items, plus, zero):
    """Is the finite set ``items`` closed under ``plus``?  It is iff it holds
    zero and the span of its greedy generators adds nothing outside it:
    O(|items|) sums instead of one per pair."""
    items = dict.fromkeys(items)
    return zero in items and all(
        e in items for _, added in greedy_span(items, plus, zero) for e in added
    )


def span_elements(module, gens):
    """The submodule generated by ``gens`` as an explicit element set."""
    zero = module.zero()
    return {zero}.union(*(added for _, added in greedy_span(gens, module.add, zero)))


def abelian_decomposition(elements, add, zero):
    """Decompose a finite abelian group given by a raw addition function.

    Returns (orders, gens, coords) where orders is the invariant-factor
    list in ascending divisibility order (no 1 entries), gens the
    matching generators, and coords maps every element to its
    coordinate tuple.  Deterministic for a fixed element order.
    """
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}

    def element_order(x):
        t, y = 1, x
        while y != zero:
            y = add(y, x)
            t += 1
        return t

    span = [zero]
    span_set = {zero}
    gens, orders = [], []
    while len(span) < len(elements):
        best = None
        for x in elements:
            t, y = 1, x
            while y not in span_set:
                y = add(y, x)
                t += 1
            if t > 1 and (best is None or t > best[0]):
                best = (t, x)
        d, x = best
        rep = None
        for s in span:
            cand = add(x, s)
            if element_order(cand) == d:
                rep = cand
                break
        if rep is None:
            raise MlexError("internal: no generator representative of full order")
        gens.append(rep)
        orders.append(d)
        new_span = []
        seen = set()
        for s in span:
            y = s
            for _ in range(d):
                if y not in seen:
                    seen.add(y)
                    new_span.append(y)
                y = add(y, rep)
        span = sorted(new_span, key=lambda e: index[e])
        span_set = seen
    # greedy order is descending divisibility; flip to ascending
    gens.reverse()
    orders.reverse()
    coords = {}
    for tup in itertools.product(*(range(d) for d in orders)):
        e = zero
        for c, g in zip(tup, gens):
            for _ in range(c):
                e = add(e, g)
        if e in coords:
            raise MlexError("internal: generators do not give a direct sum")
        coords[e] = tup
    if len(coords) != len(elements):
        raise MlexError("internal: decomposition misses elements")
    return orders, gens, coords
