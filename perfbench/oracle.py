"""Expected verdicts, computed without mlex.

Closed forms hold for m = 2, Q = Z2^a, I = Z2^b, the trivial action, a
zero operation on I and the variety mlf.  Let r be the dimension of the
span of the values of Q's operation.  Every legal cocycle is then
equivalent to one with a zero group factor set and a bilinear T_f, and
two of those are equivalent exactly when their T_f differ by h o f_Q for
a module map h, so

    |H2| = 2^(b (a^2 - r)),   |Der| = |H1| = 2^(b (a - r)).

``h2_all_actions`` is a brute-force twin of the exhaustive route for
a one-generator quotient: it enumerates every action and every cocycle,
tests legality on the raw table and partitions by witness search.
"""

from __future__ import annotations

import functools
import itertools

from gen import Bilinear, Datum, add, elements, killed_by, scale


def gf2_rank(vectors):
    rows = [int("".join(str(c) for c in v), 2) for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        rank += 1
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def op_rank(d):
    return gf2_rank(list(d.qop.gens.values()))


def closed_h2(d):
    a, b = len(d.qf), len(d.if_)
    return 2 ** (b * (a * a - op_rank(d)))


def closed_h1(d):
    a, b = len(d.qf), len(d.if_)
    return 2 ** (b * (a - op_rank(d)))


class _Raw:
    """The raw table on I x Q of one (action, cocycle) pair."""

    def __init__(self, d, action, tplus, tf):
        self.d, self.m = d, d.m
        self.b1, self.b2 = action
        self.tplus, self.tf = tplus, tf
        self.qs, self.is_ = elements(d.qf), elements(d.if_)
        self.universe = [(a, x) for a in self.is_ for x in self.qs]
        self.zero = (self.is_[0], self.qs[0])

    def add(self, u, v):
        (a, x), (b, y) = u, v
        return (add(self.d.if_, add(self.d.if_, a, b), self.tplus[(x, y)]),
                add(self.d.qf, x, y))

    def tr(self, r, x):
        acc = self.is_[0]
        for j in range(1, r):
            acc = add(self.d.if_, acc, self.tplus[(scale(self.d.qf, j, x), x)])
        return acc

    def scalar(self, r, u):
        a, x = u
        return (add(self.d.if_, scale(self.d.if_, r, a), self.tr(r, x)), scale(self.d.qf, r, x))

    def op(self, u, v):
        """I's operation is zero, so only the action and T_f reach the kernel."""
        (a, x), (b, y) = u, v
        val = add(self.d.if_, add(self.d.if_, self.b1(y, a), self.b2(x, b)), self.tf[(x, y)])
        return (val, self.d.qop(x, y))

    def legal(self):
        qs, t, If, Qf = self.qs, self.tplus, self.d.if_, self.d.qf
        for x, y in itertools.product(qs, repeat=2):
            if t[(x, y)] != t[(y, x)]:
                return False
        for x, y, z in itertools.product(qs, repeat=3):
            if add(If, t[(x, y)], t[(add(Qf, x, y), z)]) != add(If, t[(y, z)], t[(x, add(Qf, y, z))]):
                return False
        for u in self.universe:
            acc = self.zero
            for r in range(self.m):
                if self.scalar(r, u) != acc:
                    return False
                acc = self.add(acc, u)
            if acc != self.zero:
                return False
        for u, v, w in itertools.product(self.universe, repeat=3):
            if self.op(self.add(u, v), w) != self.add(self.op(u, w), self.op(v, w)):
                return False
            if self.op(w, self.add(u, v)) != self.add(self.op(w, u), self.op(w, v)):
                return False
        return True


def _equivalent(r1, r2):
    d = r1.d
    nonzero = r1.qs[1:]
    for images in itertools.product(r1.is_, repeat=len(nonzero)):
        h = dict(zip(nonzero, images))
        h[r1.qs[0]] = r1.is_[0]

        def g(u):
            a, x = u
            return (add(d.if_, a, scale(d.if_, -1, h[x])), x)

        U = r1.universe
        if all(g(r1.add(u, v)) == r2.add(g(u), g(v)) for u in U for v in U) and \
           all(g(r1.scalar(r, u)) == r2.scalar(r, g(u)) for r in range(d.m) for u in U) and \
           all(g(r1.op(u, v)) == r2.op(g(u), g(v)) for u in U for v in U):
            return True
    return False


class _Linear:
    """Q x I -> I given per nonzero q on generators of I, extended linearly in a."""

    def __init__(self, d, cells):
        self.d, self.cells = d, cells

    def __call__(self, q, a):
        acc = tuple(0 for _ in self.d.if_)
        if not any(q):
            return acc
        for j, c in enumerate(a):
            acc = add(self.d.if_, acc, scale(self.d.if_, c, self.cells[(q, j)]))
        return acc


@functools.lru_cache(maxsize=None)
def h2_all_actions(m, qf, if_, qop):
    """Class count of the exhaustive all-action H2 with variety mlf;
    qop lists Q's operation as ((i, j), value) on generator pairs."""
    d = Datum(m, qf, if_, Bilinear(qf, qf, qf, dict(qop)))
    qs, is_ = elements(d.qf), elements(d.if_)
    nonzero = qs[1:]
    keys = [(q, j) for q in nonzero for j in range(len(d.if_))]
    pools = [killed_by(d.if_, d.if_[j]) for _, j in keys]
    cells = [(x, y) for x in nonzero for y in nonzero]
    total = 0
    for v1 in itertools.product(*pools):
        for v2 in itertools.product(*pools):
            action = (_Linear(d, dict(zip(keys, v1))), _Linear(d, dict(zip(keys, v2))))
            legal = []
            for tp in itertools.product(is_, repeat=len(cells)):
                for tfv in itertools.product(is_, repeat=len(cells)):
                    tplus = {(x, y): is_[0] for x in qs for y in qs}
                    tf = dict(tplus)
                    tplus.update(zip(cells, tp))
                    tf.update(zip(cells, tfv))
                    raw = _Raw(d, action, tplus, tf)
                    if raw.legal():
                        legal.append(raw)
            reps = []
            for raw in legal:
                if not any(_equivalent(raw, rep) for rep in reps):
                    reps.append(raw)
            total += len(reps)
    return total
