"""Seeded workspace generator for the benchmark.

Everything here is plain integer arithmetic on coordinate tuples; it does
not import mlex.  A datum is a pair of modules Q = Z_q1 x ... and
I = Z_i1 x ... over the modulus m, one binary operation f on each (zero
on I, so the kernel is abelian), actions of Q on I and cocycles.  Every table is drawn
bilinear with a zero group factor set, which makes the semidirect
product a legal algebra; symmetric group factor sets enter as
coboundaries T + dh, built here from a random witness h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

LEIBNIZ = '"[x,[y,z]] = [[x,y],z] + [y,[x,z]]"'


def elements(factors):
    """All coordinate tuples of Z_d1 x ... in mlex's enumeration order."""
    return list(itertools.product(*(range(d) for d in factors)))


def killed_by(factors, g):
    """Elements v with g*v = 0."""
    return [v for v in elements(factors) if all((g * c) % d == 0 for c, d in zip(v, factors))]


def add(factors, u, v):
    return tuple((a + b) % d for a, b, d in zip(u, v, factors))


def sub(factors, u, v):
    return tuple((a - b) % d for a, b, d in zip(u, v, factors))


def scale(factors, r, u):
    return tuple((r * a) % d for a, d in zip(u, factors))


@dataclass
class Bilinear:
    """A bilinear map X x Y -> Z given by its values on generator pairs."""

    xf: tuple
    yf: tuple
    zf: tuple
    gens: dict  # (i, j) -> Z-element

    @staticmethod
    def draw(rng, xf, yf, zf, zero=False):
        gens = {}
        for i, j in itertools.product(range(len(xf)), range(len(yf))):
            pool = killed_by(zf, gcd(xf[i], yf[j]))
            gens[(i, j)] = pool[0] if zero else rng.choice(pool)
        return Bilinear(tuple(xf), tuple(yf), tuple(zf), gens)

    def __call__(self, x, y):
        acc = tuple(0 for _ in self.zf)
        for (i, j), v in self.gens.items():
            acc = add(self.zf, acc, scale(self.zf, x[i] * y[j], v))
        return acc

    def is_zero(self):
        return all(not any(v) for v in self.gens.values())


@dataclass
class Cocycle:
    """Full factor-set tables over one action: Tplus and Tf."""

    action: str
    tplus: dict
    tf: dict


@dataclass
class Datum:
    m: int
    qf: tuple
    if_: tuple
    qop: Bilinear  # the operation of Q
    actions: dict = field(default_factory=dict)  # name -> (B1, B2), None when trivial
    cocycles: dict = field(default_factory=dict)  # name -> Cocycle

    def cocycle(self, action, tf):
        """Cocycle with zero group factor set and the bilinear Tf."""
        qs = elements(self.qf)
        return Cocycle(action, {}, {(x, y): tf(x, y) for x in qs for y in qs})

    def shifted(self, T, h):
        """T + dh for trivial action and zero operations:
        dh+(x, y) = h(x) + h(y) - h(x + y) and dh_f = 0."""
        qs = elements(self.qf)
        tplus = {}
        for x in qs:
            for y in qs:
                d = sub(self.if_, add(self.if_, h[x], h[y]), h[add(self.qf, x, y)])
                tplus[(x, y)] = add(self.if_, T.tplus.get((x, y), self.izero()), d)
        return Cocycle(T.action, tplus, dict(T.tf))

    def izero(self):
        return tuple(0 for _ in self.if_)

    def witness(self, rng):
        zero_q = tuple(0 for _ in self.qf)
        return {x: (self.izero() if x == zero_q else rng.choice(elements(self.if_)))
                for x in elements(self.qf)}


def draw_datum(rng, m, qf, if_, qop=False):
    """A datum with the trivial action t0; Q's operation is drawn when
    qop is set and zero otherwise."""
    qf, if_ = tuple(qf), tuple(if_)
    return Datum(m, qf, if_, Bilinear.draw(rng, qf, qf, qf, zero=not qop), actions={"t0": None})


def _draw(rng, xf, yf, zf, nonzero):
    while True:
        b = Bilinear.draw(rng, xf, yf, zf)
        if not (nonzero and b.is_zero()):
            return b


def draw_action(rng, d, nonzero=False):
    """A random bilinear action: one map Q x I -> I per distinguished slot."""
    return (_draw(rng, d.qf, d.if_, d.if_, nonzero), _draw(rng, d.qf, d.if_, d.if_, nonzero))


def draw_tf(rng, d, nonzero=False):
    return _draw(rng, d.qf, d.qf, d.if_, nonzero)


# -- writer -------------------------------------------------------------------------


def _el(v):
    return "(" + ",".join(str(c) for c in v) + ")"


def _op_entries(b):
    parts = []
    for (i, j), v in sorted(b.gens.items()):
        if any(v):
            parts.append(f"op f/2: ({i + 1},{j + 1}) -> {_el(v)}")
    return parts or ["op f/2"]


def _factors(f):
    return ",".join(str(x) for x in f) if f else "-"


def datum_text(d):
    """The workspace text of a datum: algebras Q and I, the leibniz
    variety, every action and every cocycle."""
    lines = [
        f"[ring] modulus = {d.m}",
        f"[module MQ] factors = {_factors(d.qf)}",
        f"[module MI] factors = {_factors(d.if_)}",
        "[algebra Q] module = MQ; " + "; ".join(_op_entries(d.qop)),
        "[algebra I] module = MI; op f/2",
        f"[variety leibniz] signature = f/2; bracket = f; identity {LEIBNIZ}",
    ]
    qs, is_ = elements(d.qf), elements(d.if_)
    qzero, izero = qs[0], is_[0]
    for name, act in sorted(d.actions.items()):
        parts = [f"[action {name}] Q = Q; I = I"]
        if act is not None:
            for slot, b in ((1, act[0]), (2, act[1])):
                for q in qs[1:]:
                    for a in is_[1:]:
                        v = b(q, a)
                        if any(v):
                            # slot s holds the kernel entry; the other slot the quotient entry
                            qv = (qzero, q) if slot == 1 else (q, qzero)
                            av = (a, izero) if slot == 1 else (izero, a)
                            parts.append(
                                f"a(f,{slot}): ({_el(qv[0])},{_el(qv[1])}|"
                                f"{_el(av[0])},{_el(av[1])}) -> {_el(v)}"
                            )
        lines.append("; ".join(parts))
    for name, T in sorted(d.cocycles.items()):
        parts = [f"[cocycle {name}] action = {T.action}"]
        for (x, y), v in sorted(T.tplus.items()):
            if any(v):
                parts.append(f"Tplus: ({_el(x)},{_el(y)}) -> {_el(v)}")
        for (x, y), v in sorted(T.tf.items()):
            if any(v):
                parts.append(f"Tf: ({_el(x)},{_el(y)}) -> {_el(v)}")
        lines.append("; ".join(parts))
    return "\n".join(lines) + "\n"


def extension_text(d, action, tf):
    """The semidirect algebra M = I x Q of a zero-Tplus cocycle written
    out by structure constants, with its kernel ideal K, the coefficient
    algebra A = Z2 and the trivial action of M on A.

    Generators of M are those of I followed by those of Q; the product is
    (a, x)(b, y) = (B1(y, a) + B2(x, b) + Tf(x, y), Q.f(x, y)).
    """
    ni, nq = len(d.if_), len(d.qf)
    mf = d.if_ + d.qf
    b1, b2 = action if action is not None else (None, None)

    def split(k):
        return ("i", k) if k < ni else ("q", k - ni)

    def unit(factors, k):
        return tuple(1 if t == k else 0 for t in range(len(factors)))

    ops = []
    for u, v in itertools.product(range(ni + nq), repeat=2):
        (su, ku), (sv, kv) = split(u), split(v)
        a = d.izero()
        x = tuple(0 for _ in d.qf)
        if su == "i" and sv == "q" and b1 is not None:
            a = b1(unit(d.qf, kv), unit(d.if_, ku))
        elif su == "q" and sv == "i" and b2 is not None:
            a = b2(unit(d.qf, ku), unit(d.if_, kv))
        elif su == "q" and sv == "q":
            a = tf(unit(d.qf, ku), unit(d.qf, kv))
            x = d.qop(unit(d.qf, ku), unit(d.qf, kv))
        value = a + x
        if any(value):
            ops.append(f"op f/2: ({u + 1},{v + 1}) -> {_el(value)}")
    kernel = ",".join(_el(unit(mf, k)) for k in range(ni))
    return "\n".join([
        f"[ring] modulus = {d.m}",
        f"[module ME] factors = {_factors(mf)}",
        "[module MA] factors = 2",
        "[algebra M] module = ME; " + "; ".join(ops or ["op f/2"]),
        "[algebra A] module = MA; op f/2",
        f"[ideal K] algebra = M; generators = {kernel}",
        "[action act] Q = M; I = A",
    ]) + "\n"
