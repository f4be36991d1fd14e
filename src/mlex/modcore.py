"""Exact arithmetic and linear algebra over the ring Z/m.

Finite modules are explicit products of cyclic groups Z_d1 x ... x Z_dk
with every d_i dividing the session modulus m.  Every element has a
unique coordinate normal form, every enumeration is lexicographic in
those coordinates, and all arithmetic is integer-exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import MlexError


@dataclass(frozen=True)
class ZmModule:
    """A finite Z/m-module with canonical generators e_1..e_k.

    ``factors[i]`` is the additive order of e_{i+1}; each must divide
    ``modulus``.  The empty factor tuple is the zero module.  The hash is
    the dataclass one, hash((modulus, factors)), computed once.  The
    ``layout`` is built on first use and lives as long as this object;
    equal modules made separately do not share it.
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
        object.__setattr__(self, "_hash", hash((self.modulus, self.factors)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.modulus == other.modulus and self.factors == other.factors

    @functools.cached_property
    def layout(self):
        return ModuleLayout(self)

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
        if a.module is not self and a.module != self:
            raise MlexError(f"element {a} does not live in module {self}")

    def __str__(self):
        if not self.factors:
            return "0"
        return "x".join(f"Z{d}" for d in self.factors)


@dataclass(frozen=True)
class Element:
    """An element in coordinate normal form.  Its hash is the dataclass
    one, hash((module, coords)), cached on first use: the iteration order
    of a set of elements follows it and can reach a report."""

    module: ZmModule
    coords: tuple[int, ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.module, self.coords))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and (
            self.module is other.module or self.module == other.module
        )

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


class ModuleLayout:
    """A module's elements at integer positions, and its operations there.

    ``elements`` is the one set of Element objects in lexicographic
    coordinate order, zero first, and ``index`` maps coordinates to
    positions.  Each table is built on first read: ``add[x*n + y]`` is
    x + y, ``neg[x]`` is -x and ``scalar[r*n + x]`` is r*x for
    0 <= r < modulus, where n = |module|.
    """

    def __init__(self, module):
        self.module = module
        coords = itertools.product(*(range(d) for d in module.factors))
        self.elements = tuple(Element(module, c) for c in coords)
        self.index = {e.coords: i for i, e in enumerate(self.elements)}

    @functools.cached_property
    def add(self):
        return tuple(self.index[(x + y).coords] for x in self.elements for y in self.elements)

    @functools.cached_property
    def neg(self):
        return tuple(self.index[(-x).coords] for x in self.elements)

    @functools.cached_property
    def scalar(self):
        rs = range(self.module.modulus)
        return tuple(self.index[(r * x).coords] for r in rs for x in self.elements)


def mod_elements(module):
    """All elements of ``module`` in lexicographic coordinate order, zero
    first: a new list of the module's one set of Element objects."""
    return list(module.layout.elements)


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


def iter_homs(source, target):
    """All module homomorphisms source -> target, one at a time, in
    lexicographic order.

    A generator of order d may be sent exactly to the elements killed by
    d, so the count is the product over generators of the sizes of those
    annihilator sets.
    """
    candidate_lists = []
    for d in source.factors:
        candidate_lists.append(
            [n for n in mod_elements(target) if target.scalar(d, n).is_zero()]
        )
    for images in itertools.product(*candidate_lists):
        yield LinMap(source, target, images)


# -- integer Smith normal form -------------------------------------------------


def _add_row(dst, src, k):
    """dst += k * src on sparse rows {column: nonzero}; k is nonzero."""
    get = dst.get
    for c, v in src.items():
        x = get(c, 0) + k * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D over the integers.

    U and V are unimodular; D is diagonal with nonnegative entries and
    D[i][i] divides D[i+1][i+1].  The pivot at step t is the first entry
    of least absolute value in row-major order among rows and columns
    >= t.  Rows of D and U are sparse {column: nonzero} dicts, and so are
    the columns of V.  D keeps its columns where they start and reads
    column j at ``perm[j]``, so a column swap is two entries of ``perm``;
    a row or column operation touches only the nonzeros it moves.  Rows
    and columns < t of D are zero past the diagonal at step t.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [{j: int(v) for j, v in enumerate(row) if v} for row in A]
    U = [{i: 1} for i in range(rows)]
    # Vcol[c]: the column of V that meets column c of the input
    Vcol = [{j: 1} for j in range(cols)]
    perm = list(range(cols))  # column j of D is stored at perm[j]
    pos = list(range(cols))  # and stored column c is column pos[c]

    def swap_rows(t, i):
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]

    def swap_cols(t, j):
        a, b = perm[t], perm[j]
        perm[t], perm[j] = b, a
        pos[a], pos[b] = j, t

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            row = D[i]
            if row:
                v = min(map(abs, row.values()))
                if best is None or v < best[0]:
                    best = (v, i)
                    if v == 1:
                        break
        if best is None:
            return None
        v, i = best
        return i, min(pos[c] for c, x in D[i].items() if abs(x) == v)

    t = 0
    while t < min(rows, cols):
        found = pivot_search(t)
        if found is None:
            break
        pi, pj = found
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t below the pivot; a row operation writes only
            # its own row and a swap sends the old pivot row to a passed
            # position, so the rows holding column t are listed once
            ct = perm[t]
            dirty = False
            for i in [i for i in range(t + 1, rows) if ct in D[i]]:
                row = D[i]
                q = row[ct] // D[t][ct]
                if q:
                    _add_row(row, D[t], -q), _add_row(U[i], U[t], -q)
                if ct in row:
                    swap_rows(t, i)
                    dirty = True
            if dirty:
                continue
            # clear row t to the right: column operations reach the rows
            # holding column t, which change only with a column swap
            pivot_row = D[t]
            holders = [pivot_row]
            for j in sorted(pos[c] for c in pivot_row if c != ct):
                ct, cj = perm[t], perm[j]
                q = pivot_row[cj] // pivot_row[ct]
                if q:
                    for row in holders:
                        x = row.get(cj, 0) - q * row[ct]
                        if x:
                            row[cj] = x
                        else:
                            del row[cj]
                    _add_row(Vcol[cj], Vcol[ct], -q)
                if cj in pivot_row:
                    swap_cols(t, j)
                    holders = [D[i] for i in range(t, rows) if cj in D[i]]
                    dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the divisor chain;
            # a unit pivot divides everything
            p = pivot_row[perm[t]]
            if p in (1, -1):
                break
            rem = p.__rmod__  # rem(v) == v % p
            offender = next(
                (i for i in range(t + 1, rows) if any(map(rem, D[i].values()))), None
            )
            if offender is None:
                break
            _add_row(D[t], D[offender], 1), _add_row(U[t], U[offender], 1)
        if D[t][perm[t]] < 0:
            for row in (D[t], U[t]):
                for c in row:
                    row[c] = -row[c]
        t += 1
    V = [list(row) for row in zip(*(_dense(Vcol[c], range(cols)) for c in perm))]
    return [_dense(row, range(rows)) for row in U], [_dense(row, pos) for row in D], V


def _dense(row, pos):
    """The sparse row {c: v} as a list with v at pos[c]."""
    out = [0] * len(pos)
    for c, v in row.items():
        out[pos[c]] = v
    return out


def int_inverse(V):
    """Inverse of a unimodular integer matrix."""
    n = len(V)
    U, D, W = smith_normal_form(V)
    # V unimodular: D is the identity, so V^{-1} = W * U
    for i in range(n):
        if D[i][i] != 1:
            raise MlexError("matrix is not unimodular")
    return [[sum(W[i][t] * U[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


@dataclass
class LinearSolution:
    """A particular solution plus generators of the solution lattice."""

    particular: tuple[int, ...]
    kernel: list[tuple[int, ...]]


class Congruences:
    """A x = b with row i read modulo row_moduli[i] and the unknown x_j in
    Z_{col_moduli[j]}, factored once for every right-hand side: ``kernel``
    generates the reduced solutions of A x = 0, and ``solve(b)`` returns a
    LinearSolution or None when A x = b is inconsistent.  U is kept as
    sparse rows and the unknowns' part of V as sparse columns, so a solve
    multiplies nonzeros only."""

    def __init__(self, A, row_moduli, col_moduli):
        rows = len(row_moduli)
        n = len(col_moduli)
        if len(A) != rows or any(len(row) != n for row in A):
            raise MlexError("dimension mismatch in linear system")
        # integer system [A | diag(e)] z = b; without rows every vector solves it
        B = [list(A[i]) + [row_moduli[i] if j == i else 0 for j in range(rows)]
             for i in range(rows)]
        U, D, V = smith_normal_form(B) if rows else ([], [], [[int(i == j) for j in range(n)] for i in range(n)])
        self._U = [{c: u for c, u in enumerate(row) if u} for row in U]
        self._Vcols = [{r: V[r][i] for r in range(n) if V[r][i]} for i in range(len(V))]
        self._diag = [D[i][i] for i in range(rows)]
        self._col_moduli = list(col_moduli)
        self.kernel = []
        seen = set()
        for i, col in enumerate(self._Vcols):
            if i < rows and self._diag[i]:
                continue
            vec = self._reduce(col)
            if any(vec) and vec not in seen:
                seen.add(vec)
                self.kernel.append(vec)

    def _reduce(self, z):
        """The sparse vector {r: z_r} over the unknowns, reduced."""
        return tuple(
            z.get(r, 0) % c if c else z.get(r, 0) for r, c in enumerate(self._col_moduli)
        )

    def solve(self, b):
        if len(b) != len(self._diag):
            raise MlexError("dimension mismatch in linear system")
        z = {}
        for i, (row, d) in enumerate(zip(self._U, self._diag)):
            x = sum(u * b[c] for c, u in row.items())
            if not d:
                if x:
                    return None
                continue
            w, r = divmod(x, d)
            if r:
                return None
            if w:
                for c, v in self._Vcols[i].items():
                    z[c] = z.get(c, 0) + w * v
        return LinearSolution(self._reduce(z), list(self.kernel))


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
    ``residual(h)``, affine in h, is all zero; in ``iter_homs`` order.
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
