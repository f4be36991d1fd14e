"""Symbolic splitter: terms over a semidirect product expand into a pure
kernel part, an action part, and a factor-set part.

Evaluating a term at pairs (a_i, x_i) and pushing multilinearity through
the defining formulas writes the kernel coordinate as a sum of composed
symbols; grouping the summands by whether they mention a factor set or
an action symbol yields, for each identity of a variety, its general,
action and strict 2-cocycle identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MlexError
from . import termlang
from .termlang import Apply, Neg, Plus, Scalar, Term, Var, Zero


# -- atoms of the kernel sort --------------------------------------------------


@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class IOpApp:
    op: str
    args: tuple


@dataclass(frozen=True)
class ActionApp:
    op: str
    slots: tuple      # distinguished slots, 0-based ascending
    qargs: tuple      # full Q-argument tuple; slot entries normalized to 0
    iargs: tuple      # kernel arguments, one per distinguished slot


@dataclass(frozen=True)
class FactorPlus:
    q1: Term
    q2: Term


@dataclass(frozen=True)
class FactorR:
    r: int
    q: Term


@dataclass(frozen=True)
class FactorF:
    op: str
    qargs: tuple


def contains_factor(atom):
    if isinstance(atom, (FactorPlus, FactorR, FactorF)):
        return True
    if isinstance(atom, IOpApp):
        return any(contains_factor(a) for a in atom.args)
    if isinstance(atom, ActionApp):
        return any(contains_factor(a) for a in atom.iargs)
    return False


def contains_action(atom):
    if isinstance(atom, ActionApp):
        return True
    if isinstance(atom, IOpApp):
        return any(contains_action(a) for a in atom.args)
    return False


class AtomSum:
    """Formal integer combination of kernel-sort atoms, coefficients mod m."""

    def __init__(self, modulus, items=None):
        self.modulus = modulus
        self.items = {}
        for atom, coeff in (items or {}).items():
            c = coeff % modulus
            if c:
                self.items[atom] = c

    def add(self, other):
        out = dict(self.items)
        for atom, c in other.items.items():
            out[atom] = out.get(atom, 0) + c
        return AtomSum(self.modulus, out)

    def scale(self, r):
        return AtomSum(self.modulus, {a: r * c for a, c in self.items.items()})

    def neg(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.items

    def __eq__(self, other):
        return isinstance(other, AtomSum) and self.modulus == other.modulus and self.items == other.items


@dataclass
class PairValue:
    ipart: AtomSum
    qpart: Term


@dataclass
class SplitResult:
    pure: AtomSum        # summands using only kernel operations
    star: AtomSum        # summands using action symbols, no factor sets
    delta: AtomSum       # summands containing a factor set
    qterm: Term
    names: dict          # original variable -> kernel variable name


_LETTERS = {"x": "a", "y": "b", "z": "c", "w": "d", "u": "e", "v": "g"}


def kernel_names(variables):
    """Kernel-coordinate names letter-paired with the quotient variables
    (x -> a, y -> b, ..., subscripts preserved)."""
    used = set(variables)
    out = {}
    for i, v in enumerate(variables):
        head = v[0].lower()
        tail = v[1:]
        cand = _LETTERS.get(head, "") + tail if head in _LETTERS else ""
        if not cand or cand in used or cand in out.values():
            cand = f"a{i}" if f"a{i}" not in used else f"k{i}"
        out[v] = cand
        used.add(cand)
    return out


def expand_pair(t, signature, names):
    """Value of the term at pairs (kernel var, quotient var), expanded."""
    m = signature.modulus
    zero = AtomSum(m)

    def go(u):
        if isinstance(u, Var):
            return PairValue(AtomSum(m, {AVar(names[u.name]): 1}), u)
        if isinstance(u, Zero):
            return PairValue(zero, Zero())
        if isinstance(u, Plus):
            a, b = go(u.left), go(u.right)
            ip = a.ipart.add(b.ipart).add(
                AtomSum(m, {FactorPlus(a.qpart, b.qpart): 1})
            )
            return PairValue(ip, Plus(a.qpart, b.qpart))
        if isinstance(u, Neg):
            a = go(u.arg)
            ip = a.ipart.neg().add(
                AtomSum(m, {FactorPlus(a.qpart, Neg(a.qpart)): -1})
            )
            return PairValue(ip, Neg(a.qpart))
        if isinstance(u, Scalar):
            a = go(u.arg)
            ip = a.ipart.scale(u.coeff).add(AtomSum(m, {FactorR(u.coeff, a.qpart): 1}))
            return PairValue(ip, Scalar(u.coeff, a.qpart))
        if isinstance(u, Apply):
            parts = [go(v) for v in u.args]
            n = len(parts)
            qargs = tuple(p.qpart for p in parts)
            total = AtomSum(m)
            # kernel operation on all kernel parts, fully multilinear
            total = total.add(_op_product(m, u.op, [p.ipart for p in parts]))
            # one action summand per proper nonempty slot subset
            for size in range(1, n):
                for s in itertools.combinations(range(n), size):
                    masked = tuple(
                        Zero() if i in s else qargs[i] for i in range(n)
                    )
                    total = total.add(
                        _action_product(
                            m, u.op, s, masked, [parts[i].ipart for i in s]
                        )
                    )
            total = total.add(AtomSum(m, {FactorF(u.op, qargs): 1}))
            return PairValue(total, Apply(u.op, qargs))
        raise MlexError(f"unknown term node {u!r}")

    return go(t)


def _op_product(m, op, sums):
    out = {}
    for combo in itertools.product(*(s.items.items() for s in sums)):
        atoms = tuple(a for a, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff = (coeff * c) % m
        if coeff:
            key = IOpApp(op, atoms)
            out[key] = out.get(key, 0) + coeff
    return AtomSum(m, out)


def _action_product(m, op, slots, qargs, sums):
    out = {}
    for combo in itertools.product(*(s.items.items() for s in sums)):
        atoms = tuple(a for a, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff = (coeff * c) % m
        if coeff:
            key = ActionApp(op, slots, qargs, atoms)
            out[key] = out.get(key, 0) + coeff
    return AtomSum(m, out)


def split(t, signature, variables=None):
    """Separate the expansion into pure / action / factor-set parts."""
    variables = variables or termlang.term_variables(t)
    names = kernel_names(variables)
    value = expand_pair(t, signature, names)
    pure, star, delta = {}, {}, {}
    for atom, c in value.ipart.items.items():
        if contains_factor(atom):
            delta[atom] = c
        elif contains_action(atom):
            star[atom] = c
        else:
            pure[atom] = c
    m = signature.modulus
    return SplitResult(
        AtomSum(m, pure), AtomSum(m, star), AtomSum(m, delta), value.qpart, names
    )


@dataclass
class MsIdentity:
    kind: str
    lhs: AtomSum
    rhs: AtomSum
    signature: object

    def render(self, style="functional"):
        return (
            render_sum(self.lhs, self.signature, style)
            + " = "
            + render_sum(self.rhs, self.signature, style)
        )

    def to_sexp(self):
        return (
            "(= "
            + sum_sexp(self.lhs)
            + " "
            + sum_sexp(self.rhs)
            + ")"
        )


def _cancel(lhs, rhs):
    l, r = dict(lhs.items), dict(rhs.items)
    for atom in list(l):
        if atom in r:
            k = min(l[atom], r[atom])
            l[atom] -= k
            r[atom] -= k
            if not l[atom]:
                del l[atom]
            if not r[atom]:
                del r[atom]
    return AtomSum(lhs.modulus, l), AtomSum(rhs.modulus, r)


def _identity_parts(identity, signature):
    variables = list(identity.variables)
    return (
        split(identity.lhs, signature, variables),
        split(identity.rhs, signature, variables),
    )


def general_identity(identity, signature, cancel=True):
    L, R = _identity_parts(identity, signature)
    lhs, rhs = L.star.add(L.delta), R.star.add(R.delta)
    if cancel:
        lhs, rhs = _cancel(lhs, rhs)
    return MsIdentity("general", lhs, rhs, signature)


def action_identity(identity, signature, cancel=True):
    L, R = _identity_parts(identity, signature)
    lhs, rhs = L.star, R.star
    if cancel:
        lhs, rhs = _cancel(lhs, rhs)
    return MsIdentity("action", lhs, rhs, signature)


def strict_identity(identity, signature, cancel=True):
    L, R = _identity_parts(identity, signature)
    lhs, rhs = L.delta, R.delta
    if cancel:
        lhs, rhs = _cancel(lhs, rhs)
    return MsIdentity("strict", lhs, rhs, signature)


# -- rendering -------------------------------------------------------------------


def _q(term, signature):
    return termlang.print_term(term, signature)


def atom_size(atom):
    if isinstance(atom, AVar):
        return 1
    if isinstance(atom, IOpApp):
        return 1 + sum(atom_size(a) for a in atom.args)
    if isinstance(atom, ActionApp):
        return (
            1
            + sum(_term_size(q) for q in atom.qargs)
            + sum(atom_size(a) for a in atom.iargs)
        )
    if isinstance(atom, FactorPlus):
        return 1 + _term_size(atom.q1) + _term_size(atom.q2)
    if isinstance(atom, FactorR):
        return 1 + _term_size(atom.q)
    if isinstance(atom, FactorF):
        return 1 + sum(_term_size(q) for q in atom.qargs)
    raise MlexError(f"unknown atom {atom!r}")


def _term_size(t):
    if isinstance(t, (Var, Zero)):
        return 1
    if isinstance(t, (Neg, Scalar)):
        return 1 + _term_size(t.arg)
    if isinstance(t, Plus):
        return 1 + _term_size(t.left) + _term_size(t.right)
    if isinstance(t, Apply):
        return 1 + sum(_term_size(a) for a in t.args)
    raise MlexError(f"unknown term {t!r}")


def render_atom(atom, signature, style="functional"):
    if isinstance(atom, AVar):
        return atom.name
    if isinstance(atom, IOpApp):
        if signature.bracket == atom.op and len(atom.args) == 2:
            return (
                "["
                + render_atom(atom.args[0], signature, style)
                + ", "
                + render_atom(atom.args[1], signature, style)
                + "]"
            )
        return (
            atom.op
            + "("
            + ", ".join(render_atom(a, signature, style) for a in atom.args)
            + ")"
        )
    if isinstance(atom, ActionApp):
        if style == "infix" and len(atom.qargs) == 2 and len(atom.slots) == 1:
            inner = render_atom(atom.iargs[0], signature, style)
            if isinstance(atom.iargs[0], ActionApp):
                inner = "(" + inner + ")"
            if atom.slots == (0,):
                return inner + " o " + _q_atomic(atom.qargs[1], signature)
            return _q_atomic(atom.qargs[0], signature) + " * " + inner
        qbits = []
        for i, q in enumerate(atom.qargs):
            qbits.append("_" if i in atom.slots else _q(q, signature))
        slot_names = ",".join(str(i + 1) for i in atom.slots)
        ibits = ", ".join(render_atom(a, signature, style) for a in atom.iargs)
        return f"a({atom.op},{slot_names})({', '.join(qbits)} | {ibits})"
    if isinstance(atom, FactorPlus):
        return f"T+({_q(atom.q1, signature)}, {_q(atom.q2, signature)})"
    if isinstance(atom, FactorR):
        return f"Tr[{atom.r}]({_q(atom.q, signature)})"
    if isinstance(atom, FactorF):
        return (
            "T"
            + atom.op
            + "("
            + ", ".join(_q(q, signature) for q in atom.qargs)
            + ")"
        )
    raise MlexError(f"unknown atom {atom!r}")


def _q_atomic(t, signature):
    s = _q(t, signature)
    if isinstance(t, (Plus, Scalar)):
        return "(" + s + ")"
    return s


def render_sum(s, signature, style="functional"):
    if s.is_zero():
        return "0"
    m = s.modulus
    entries = []
    for atom, c in s.items.items():
        coeff = c if c <= m - c else c - m  # symmetric representative
        entries.append((atom_size(atom), render_atom(atom, signature, style), coeff))
    entries.sort(key=lambda e: (e[0], e[1]))
    out = []
    for _, text, coeff in entries:
        mag = abs(coeff)
        body = text if mag == 1 else f"{mag}*{text}"
        if not out:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(out)


def sum_sexp(s):
    if s.is_zero():
        return "(sum)"
    bits = []
    for atom, c in sorted(
        s.items.items(), key=lambda kv: (atom_size(kv[0]), atom_sexp(kv[0]))
    ):
        bits.append(f"(term {c} {atom_sexp(atom)})")
    return "(sum " + " ".join(bits) + ")"


def atom_sexp(atom):
    if isinstance(atom, AVar):
        return f"(ivar {atom.name})"
    if isinstance(atom, IOpApp):
        return f"(iop {atom.op} " + " ".join(atom_sexp(a) for a in atom.args) + ")"
    if isinstance(atom, ActionApp):
        slots = " ".join(str(i + 1) for i in atom.slots)
        qs = " ".join(term_sexp(q) for q in atom.qargs)
        its = " ".join(atom_sexp(a) for a in atom.iargs)
        return f"(action {atom.op} (slots {slots}) (q {qs}) (i {its}))"
    if isinstance(atom, FactorPlus):
        return f"(tplus {term_sexp(atom.q1)} {term_sexp(atom.q2)})"
    if isinstance(atom, FactorR):
        return f"(tr {atom.r} {term_sexp(atom.q)})"
    if isinstance(atom, FactorF):
        return f"(tf {atom.op} " + " ".join(term_sexp(q) for q in atom.qargs) + ")"
    raise MlexError(f"unknown atom {atom!r}")


def term_sexp(t):
    if isinstance(t, Var):
        return f"(qvar {t.name})"
    if isinstance(t, Zero):
        return "(qzero)"
    if isinstance(t, Neg):
        return f"(qneg {term_sexp(t.arg)})"
    if isinstance(t, Plus):
        return f"(qplus {term_sexp(t.left)} {term_sexp(t.right)})"
    if isinstance(t, Scalar):
        return f"(qscalar {t.coeff} {term_sexp(t.arg)})"
    if isinstance(t, Apply):
        return f"(qop {t.op} " + " ".join(term_sexp(a) for a in t.args) + ")"
    raise MlexError(f"unknown term {t!r}")


# -- evaluation in a concrete datum ----------------------------------------------


def eval_atom(atom, T, env_i, env_q):
    I, Q = T.I, T.Q
    if isinstance(atom, AVar):
        if atom.name not in env_i:
            raise MlexError(f"unbound kernel variable {atom.name!r}")
        return env_i[atom.name]
    if isinstance(atom, IOpApp):
        return I.eval_op(atom.op, [eval_atom(a, T, env_i, env_q) for a in atom.args])
    if isinstance(atom, ActionApp):
        qvec = tuple(termlang.eval_term(Q, q, env_q) for q in atom.qargs)
        ivals = [eval_atom(a, T, env_i, env_q) for a in atom.iargs]
        avec = [I.module.zero()] * len(atom.qargs)
        for i, v in zip(atom.slots, ivals):
            avec[i] = v
        return T.action.value(atom.op, atom.slots, qvec, tuple(avec))
    if isinstance(atom, FactorPlus):
        return T.tplus[
            (
                termlang.eval_term(Q, atom.q1, env_q),
                termlang.eval_term(Q, atom.q2, env_q),
            )
        ]
    if isinstance(atom, FactorR):
        return T.tr[(atom.r % Q.module.modulus, termlang.eval_term(Q, atom.q, env_q))]
    if isinstance(atom, FactorF):
        return T.tf[
            (atom.op, tuple(termlang.eval_term(Q, q, env_q) for q in atom.qargs))
        ]
    raise MlexError(f"unknown atom {atom!r}")


def eval_sum(s, T, env_i, env_q):
    out = T.I.module.zero()
    for atom, c in s.items.items():
        out = T.I.module.add(out, T.I.module.scalar(c, eval_atom(atom, T, env_i, env_q)))
    return out


def _footprint(atom):
    """Kernel names and quotient variables that an atom reads."""
    if isinstance(atom, AVar):
        return {atom.name}, set()
    kernel, qterms = set(), []
    if isinstance(atom, IOpApp):
        inner = atom.args
    elif isinstance(atom, ActionApp):
        inner, qterms = atom.iargs, atom.qargs
    elif isinstance(atom, FactorPlus):
        inner, qterms = (), (atom.q1, atom.q2)
    elif isinstance(atom, FactorR):
        inner, qterms = (), (atom.q,)
    elif isinstance(atom, FactorF):
        inner, qterms = (), atom.qargs
    else:
        raise MlexError(f"unknown atom {atom!r}")
    quotient = {v for q in qterms for v in termlang.term_variables(q)}
    for a in inner:
        k, q = _footprint(a)
        kernel |= k
        quotient |= q
    return kernel, quotient


def soundness_check(t, T, signature, assignments=None):
    """First-coordinate identity: raw evaluation equals the evaluated
    pure + action + factor-set split, for every assignment.

    The split's atoms are grouped by the kernel names and quotient
    variables they read, and each group's sum is evaluated once per value
    of those; the kernel is abelian, so the regrouped total is the same
    Element."""
    from .cocycle import SemidirectProduct

    raw = SemidirectProduct(T)
    variables = termlang.term_variables(t)
    parts = split(t, signature, variables)
    by_footprint = {}
    for part in (parts.pure, parts.star, parts.delta):
        for atom, c in part.items.items():
            kernel, quotient = _footprint(atom)
            key = (tuple(sorted(kernel)), tuple(sorted(quotient)))
            by_footprint.setdefault(key, {})[atom] = c
    # (kernel names, quotient variables, their atoms' sum, memo of its values)
    groups = [
        (kernel, quotient, AtomSum(signature.modulus, items), {})
        for (kernel, quotient), items in by_footprint.items()
    ]
    pools = assignments or itertools.product(
        raw.universe(), repeat=len(variables)
    )
    for combo in pools:
        env_pairs = dict(zip(variables, combo))
        env_i = {parts.names[v]: env_pairs[v][0] for v in variables}
        env_q = {v: env_pairs[v][1] for v in variables}
        direct = termlang.eval_term(raw, t, env_pairs)
        total = T.I.module.zero()
        for kernel, quotient, group, memo in groups:
            key = (tuple(env_i[k] for k in kernel), tuple(env_q[q] for q in quotient))
            value = memo.get(key)
            if value is None:
                value = memo[key] = eval_sum(group, T, env_i, env_q)
            total = T.I.module.add(total, value)
        if direct[0] != total:
            return False, env_pairs
        if direct[1] != termlang.eval_term(T.Q, parts.qterm, env_q):
            return False, env_pairs
    return True, None
