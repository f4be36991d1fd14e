"""Term language: AST, text parser, evaluator, identity satisfaction.

The grammar (also documented in the README):

    term := sum
    sum  := prod (('+'|'-') prod)*
    prod := [nat '*'] atom
    atom := '0' | ident | ident '(' term (',' term)* ')'
          | '[' term ',' term ']' | '(' term ')' | '-' atom

``[u, v]`` is sugar for a designated binary operation of the signature.
``holds`` checks a multilinear identity (every monomial holds each
variable once) on generator tuples when the carrier's operations are
known to be multilinear, and every other identity on every assignment;
counterexamples are the lexicographically first failing assignment.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import MlexError, ParseError


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Scalar(Term):
    coeff: int
    arg: Term


@dataclass(frozen=True)
class Apply(Term):
    op: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities, plus an optional bracket symbol
    rendered as [u, v], over a fixed modulus."""

    modulus: int
    ops: tuple[tuple[str, int], ...]
    bracket: str | None = None

    def arity(self, name):
        for n, a in self.ops:
            if n == name:
                return a
        return None


def term_variables(t):
    """Variable names in first-occurrence order."""
    out = []

    def walk(u):
        if isinstance(u, Var):
            if u.name not in out:
                out.append(u.name)
        elif isinstance(u, Neg):
            walk(u.arg)
        elif isinstance(u, Plus):
            walk(u.left), walk(u.right)
        elif isinstance(u, Scalar):
            walk(u.arg)
        elif isinstance(u, Apply):
            for a in u.args:
                walk(a)

    walk(t)
    return out


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    variables: tuple[str, ...]

    def __post_init__(self):
        used = set(term_variables(self.lhs)) | set(term_variables(self.rhs))
        if not used <= set(self.variables):
            raise MlexError("identity uses variables outside its variable list")


@dataclass(frozen=True)
class Variety:
    name: str
    signature: Signature
    identities: tuple[Identity, ...]


_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*(),\[\]=]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", col=pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text, signature):
        self.text = text
        self.sig = signature
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", col=tok[2])
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", col=tok[2])
        self.i += 1
        return tok

    def parse_term(self):
        t = self.sum()
        return t

    def sum(self):
        t = self.prod()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                rhs = self.prod()
                t = Plus(t, rhs if val == "+" else Neg(rhs))
            else:
                return t

    def prod(self):
        kind, val, _ = self.peek()
        nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else (None, None, 0)
        if kind == "nat" and nxt[:2] == ("sym", "*"):
            self.take()
            self.take("sym", "*")
            return Scalar(int(val) % self.sig.modulus, self.atom())
        return self.atom()

    def atom(self):
        kind, val, col = self.peek()
        if kind == "nat":
            if val == "0":
                self.take()
                return Zero()
            raise ParseError("bare numbers other than 0 are not terms", col=col)
        if kind == "sym" and val == "-":
            self.take()
            return Neg(self.atom())
        if kind == "sym" and val == "(":
            self.take()
            t = self.sum()
            self.take("sym", ")")
            return t
        if kind == "sym" and val == "[":
            if self.sig.bracket is None:
                raise ParseError("no bracket operation designated", col=col)
            self.take()
            a = self.sum()
            self.take("sym", ",")
            b = self.sum()
            self.take("sym", "]")
            return Apply(self.sig.bracket, (a, b))
        if kind == "ident":
            self.take()
            nxt = self.peek()
            if nxt[0] == "sym" and nxt[1] == "(":
                arity = self.sig.arity(val)
                if arity is None:
                    raise ParseError(f"unknown operation symbol {val!r}", col=col)
                self.take()
                args = [self.sum()]
                while self.peek()[:2] == ("sym", ","):
                    self.take()
                    args.append(self.sum())
                self.take("sym", ")")
                if len(args) != arity:
                    raise ParseError(
                        f"operation {val!r} expects {arity} arguments, got {len(args)}",
                        col=col,
                    )
                return Apply(val, tuple(args))
            if self.sig.arity(val) is not None:
                raise ParseError(f"operation {val!r} used without arguments", col=col)
            return Var(val)
        raise ParseError(f"unexpected token {val!r}", col=col)


def parse_term(text, signature):
    p = _Parser(text, signature)
    t = p.parse_term()
    if p.peek()[0] is not None:
        raise ParseError(f"trailing input {p.peek()[1]!r}", col=p.peek()[2])
    return t


def parse_identity(text, signature):
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='")
    left, right = text.split("=")
    lhs = parse_term(left, signature)
    rhs = parse_term(right, signature)
    variables = []
    for v in term_variables(lhs) + term_variables(rhs):
        if v not in variables:
            variables.append(v)
    return Identity(lhs, rhs, tuple(variables))


def print_term(t, signature=None):
    bracket = signature.bracket if signature else None

    def atomish(u):
        # printable as a grammar atom without extra parentheses
        return isinstance(u, (Var, Zero, Apply, Neg))

    def walk(u):
        if isinstance(u, Var):
            return u.name
        if isinstance(u, Zero):
            return "0"
        if isinstance(u, Neg):
            inner = walk(u.arg)
            return "-" + (inner if atomish(u.arg) else "(" + inner + ")")
        if isinstance(u, Scalar):
            inner = walk(u.arg)
            if not atomish(u.arg):
                inner = "(" + inner + ")"
            return f"{u.coeff}*{inner}"
        if isinstance(u, Plus):
            right = walk(u.right)
            if isinstance(u.right, Plus):
                right = "(" + right + ")"
            return walk(u.left) + " + " + right
        if isinstance(u, Apply):
            if bracket == u.op and len(u.args) == 2:
                return "[" + walk(u.args[0]) + ", " + walk(u.args[1]) + "]"
            return u.op + "(" + ", ".join(walk(a) for a in u.args) + ")"
        raise MlexError(f"unknown term node {u!r}")

    out = walk(t)
    # normalize "+ -x" into "- x"-free form the parser accepts
    return out.replace("+ -", "- ")


def eval_term(carrier, t, env):
    """Evaluate ``t`` over any carrier exposing zero/add/neg/scalar/apply_op."""
    if isinstance(t, Var):
        if t.name not in env:
            raise MlexError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, Zero):
        return carrier.zero()
    if isinstance(t, Neg):
        return carrier.neg(eval_term(carrier, t.arg, env))
    if isinstance(t, Plus):
        return carrier.add(eval_term(carrier, t.left, env), eval_term(carrier, t.right, env))
    if isinstance(t, Scalar):
        return carrier.scalar(t.coeff, eval_term(carrier, t.arg, env))
    if isinstance(t, Apply):
        return carrier.apply_op(t.op, [eval_term(carrier, a, env) for a in t.args])
    raise MlexError(f"unknown term node {t!r}")


def _first_failure(carrier, identity, elems):
    for values in itertools.product(elems, repeat=len(identity.variables)):
        env = dict(zip(identity.variables, values))
        if eval_term(carrier, identity.lhs, env) != eval_term(carrier, identity.rhs, env):
            return env
    return None


def counterexample(carrier, identity):
    """First assignment violating the identity, or None if it holds."""
    return _first_failure(carrier, identity, carrier.universe())


def _degree(t):
    """Variable degrees shared by every monomial of t: a dict name ->
    degree; None when t is zero under multilinear operations, which fits
    any degree; False when monomials differ."""
    if isinstance(t, Var):
        return {t.name: 1}
    if isinstance(t, Zero):
        return None
    if isinstance(t, (Neg, Scalar)):
        return _degree(t.arg)
    if isinstance(t, Plus):
        left, right = _degree(t.left), _degree(t.right)
        if left is None or right is None:
            return right if left is None else left
        return left if left == right else False
    if isinstance(t, Apply):
        degrees = [_degree(a) for a in t.args]
        if None in degrees:
            return None
        if False in degrees:
            return False
        total = {}
        for d in degrees:
            for name, k in d.items():
                total[name] = total.get(name, 0) + k
        return total
    raise MlexError(f"unknown term node {t!r}")


def is_multilinear(identity):
    """Is each side zero or of degree one in every variable of the identity?
    Then both sides are additive in each variable on a carrier whose
    operations are multilinear."""
    target = {v: 1 for v in identity.variables}
    return all(
        d is None or d == target for d in (_degree(identity.lhs), _degree(identity.rhs))
    )


def holds(carrier, identity):
    """Does the identity hold at every assignment?

    A multilinear difference of two sides is zero everywhere iff it is zero
    on tuples of a generating set, so a multilinear identity is checked on
    ``carrier.multilinear_generators()`` when the carrier knows its
    operations to be multilinear (an ``Algebra``, or a semidirect table
    found legal); every other identity and carrier is checked exhaustively.
    """
    gens = carrier.multilinear_generators() if is_multilinear(identity) else None
    if gens is None:
        return counterexample(carrier, identity) is None
    return _first_failure(carrier, identity, gens) is None


def in_variety(carrier, variety):
    """Does the carrier satisfy every identity of the variety?

    Raises on signature mismatch; carriers must expose every operation
    of the variety's signature at the right arity.
    """
    if carrier.modulus != variety.signature.modulus:
        raise MlexError("carrier and variety use different moduli")
    for name, arity in variety.signature.ops:
        if carrier.op_arity(name) != arity:
            raise MlexError(f"carrier arity mismatch for {name!r}")
    return all(holds(carrier, ident) for ident in variety.identities)
