"""Low-dimensional inflation/restriction/transgression machinery.

Starting from an extension 0 -> I -> M -> Q -> 0 and an affine action of
M on an abelian coefficient algebra A, the coefficients are cut down to
the null submodule (the elements annihilated by every iterated action
term carrying an ideal entry), an induced action of Q is transported
along the projection, and five cohomology groups are connected by
inflation, restriction and the transgression.  ``verify_hs`` recomputes
every group and checks image = kernel at each interior node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConsistencyError, MlexError
from .modcore import mod_elements
from .algebra import quotient, subalgebra
from .cocycle import (
    Action,
    Cocycle,
    ExtensionRecord,
    LiftingChanges,
    action_keys,
    extract_cocycle,
    is_compatible,
)
from .cohomology import derivations, h1, h2_affine


def null_submodule(ideal_elements, action):
    """Greatest submodule of the coefficients killed by every action term
    that carries an ideal entry, and closed under all action terms."""
    if not action.is_unary():
        raise MlexError("null submodule needs a purely unary action")
    ideal_elements = set(ideal_elements)
    # (qoff, value) of every single-slot term, by its coefficient entry
    slot_values = {a: [] for a in mod_elements(action.I.module)}
    for (f, s), table in action.tables.items():
        if len(s) == 1:
            for (qoff, (a,)), value in table.items():
                slot_values[a].append((qoff, value))

    current = {
        a
        for a, terms in slot_values.items()
        if all(
            value.is_zero()
            for qoff, value in terms
            if any(q in ideal_elements for q in qoff)
        )
    }
    while True:
        nxt = {
            a
            for a in current
            if all(value in current for _, value in slot_values[a])
        }
        if nxt == current:
            break
        current = nxt
    return current


@dataclass
class CoefficientEmbedding:
    algebra: object
    embed: object          # LinMap AI -> A
    to_sub: dict           # A-element -> AI-element (on the subset)


def _restrict_action(action, coeff):
    """The action read on the coefficient subalgebra coeff, on the
    kernel side; its values must stay in that subalgebra."""
    tables = {}
    Q, AI = action.Q, coeff.algebra
    for (f, s), table in action.tables.items():
        new = tables[(f, s)] = {}
        for qoff, asub in action_keys(Q, AI, Q.op_arity(f), s):
            value = table[(qoff, tuple(coeff.embed(a) for a in asub))]
            if value not in coeff.to_sub:
                raise ConsistencyError(
                    "action does not close on the null submodule"
                )
            new[(qoff, asub)] = coeff.to_sub[value]
    return Action(Q, AI, tables)


class HSDatum:
    """Bundle of an extension and an affine coefficient action, with all
    induced data precomputed."""

    def __init__(self, M, ideal, A, action, variety):
        if not A.is_abelian():
            raise MlexError("coefficient algebra must be abelian")
        if not action.is_unary():
            raise MlexError("coefficient action must be affine (unary)")
        if action.Q != M or action.I != A:
            raise MlexError("action does not act on (M, A)")
        action.validate()
        if not is_compatible(action.split.T, variety, raw=action.split):
            raise MlexError(
                f"coefficient action is not compatible with {variety.name!r}"
            )
        self.M, self.A, self.variety = M, A, variety
        self.ideal = ideal
        # extension M ->> Q with kernel the ideal
        Q, pi, section = quotient(M, ideal)
        self.Q, self.pi, self.section = Q, pi, section
        I_alg, iota, to_I = subalgebra(M, ideal.elements)
        self.I_alg, self.iota, self.to_I = I_alg, iota, to_I
        self.E = ExtensionRecord(M, Q, I_alg, pi, iota, dict(section))
        self.E.validate()
        self.T = extract_cocycle(self.E)
        # null submodule and its algebra structure
        null_set = null_submodule(ideal.elements, action)
        AI_alg, embed_AI, to_AI = subalgebra(A, null_set)
        self.coeff = CoefficientEmbedding(AI_alg, embed_AI, to_AI)
        self.null_set = null_set
        self.action = action
        self.action_M_AI = _restrict_action(action, self.coeff)
        # induced action of Q on the null submodule, read at the section
        self.induced = self.action_M_AI.pull_back(Q, section.__getitem__)
        # representative independence: pulling the induced action back
        # along pi gives the restricted action again.  The action is
        # unary, so only single-slot tables can be nonzero, and a
        # single-slot entry (qoff | a) is its own diagonal (a, ..., a):
        # comparing whole tables decides what comparing diagonals does.
        if self.induced.pull_back(M, pi) != self.action_M_AI:
            raise ConsistencyError("induced action depends on coset representatives")
        split = self.induced.split
        if not is_compatible(split.T, variety, check_datum=False, raw=split):
            raise ConsistencyError("induced action lost variety compatibility")
        self.action_I_AI = self.action_M_AI.pull_back(I_alg, iota)
        if not self.action_I_AI.is_trivial():
            raise ConsistencyError(
                "ideal action on the null submodule failed to vanish"
            )


def inflation_derivation(datum, d):
    """Precompose a quotient-datum derivation with the projection."""
    return {m: d[datum.pi(m)] for m in mod_elements(datum.M.module)}


def inflation_cocycle(datum, S):
    """Precompose a quotient-datum cocycle with the projection; its action
    is the induced action pulled back along pi, which ``HSDatum`` checked
    to be ``action_M_AI``."""
    return S.pull_back(datum.M, datum.pi)


def restriction_derivation(datum, d):
    """Restrict an M-datum derivation to the kernel algebra."""
    return {
        b: d[datum.iota(b)] for b in mod_elements(datum.I_alg.module)
    }


def square_condition(datum, d_I):
    """The box condition on a kernel derivation with null-submodule
    coefficients, in the form this program decides: single-slot extension
    actions intertwine with the induced action, larger slots are
    annihilated.  The paper prints it as a two-sum identity that some
    helper map h: Q -> A must satisfy; every derivation this form accepts
    has such a helper."""
    for (f, s), table in datum.T.action.tables.items():
        induced = datum.induced.tables[(f, s)]
        for (qoff, bsub), value in table.items():
            if len(s) == 1:
                if d_I[value] != induced[(qoff, (d_I[bsub[0]],))]:
                    return False
            elif not d_I[value].is_zero():
                return False
    return True


def transgression(datum, d_I):
    """Compose a boxed kernel derivation with the datum's extracted
    extension cocycle."""
    if not square_condition(datum, d_I):
        raise MlexError("derivation does not satisfy the box condition")
    T = datum.T
    tplus = {k: d_I[v] for k, v in T.tplus.items()}
    tr = {k: d_I[v] for k, v in T.tr.items()}
    tf = {k: d_I[v] for k, v in T.tf.items()}
    S = Cocycle(datum.induced, tplus, tr, tf)
    S.validate()
    if not is_compatible(S, datum.variety, check_datum=False):
        raise ConsistencyError("transgressed cocycle lost compatibility")
    return S


@dataclass
class HSReport:
    checks: dict
    sizes: dict
    caveats: list

    @property
    def passed(self):
        return all(self.checks.values())

    def lines(self):
        out = []
        for name, ok in self.checks.items():
            out.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        for c in self.caveats:
            out.append(f"NOTE  {c}")
        return out


def verify_hs(datum, depth=3):
    """Compute the five groups and check exactness at every node."""
    Q, M, I_alg = datum.Q, datum.M, datum.I_alg
    AI = datum.coeff.algebra
    caveats = []
    checks = {}

    G1 = h1(Q, AI, datum.induced, depth=depth)
    G2 = h1(M, AI, datum.action_M_AI, depth=depth)
    for name, G in (("quotient", G1), ("middle", G2)):
        if not G.principal.complete:
            caveats.append(
                f"principal derivation search at the {name} node is depth-bounded"
            )
    ders3 = derivations(I_alg, AI, datum.action_I_AI)
    G3 = [d for d in ders3 if square_condition(datum, d)]
    changes3 = LiftingChanges(I_alg, AI)
    keys3 = {changes3.vector(d) for d in G3}
    checks["box derivations form a subgroup"] = changes3.is_subgroup(G3)
    G4 = h2_affine(Q, AI, datum.induced, datum.variety)
    G5 = h2_affine(M, AI, datum.action_M_AI, datum.variety)

    # inflation on first cohomology
    infl = {}
    ok_members = True
    for idx, coset in enumerate(G1.cosets):
        images = {G2.coset_index(inflation_derivation(datum, d)) for d in coset}
        if len(images) != 1 or None in images:
            ok_members = False
        infl[idx] = images.pop()
    checks["inflation well-defined on first-cohomology classes"] = ok_members
    checks["inflation injective"] = len(set(infl.values())) == len(G1.cosets)

    # restriction: kernel at the middle node
    restr = {}
    ok_members = True
    for idx, coset in enumerate(G2.cosets):
        keys = {changes3.vector(restriction_derivation(datum, d)) for d in coset}
        if len(keys) != 1:
            ok_members = False
        key = keys.pop()
        if key not in keys3:
            ok_members = False
            restr[idx] = None
        else:
            restr[idx] = key
    checks["restriction lands in the boxed kernel derivations"] = ok_members
    ker_r = {idx for idx, key in restr.items() if key == changes3.zero}
    checks["image of inflation equals kernel of restriction"] = (
        set(infl.values()) == ker_r
    )

    # transgression: kernel at the boxed node
    zero4 = G4.zero_class()
    trans = {}
    for d in G3:
        S = transgression(datum, d)
        trans[changes3.vector(d)] = G4.class_of(S)
    im_r = {key for key in restr.values() if key is not None}
    ker_delta = {key for key, cls in trans.items() if cls == zero4}
    checks["image of restriction equals kernel of transgression"] = im_r == ker_delta

    # inflation on second cohomology: kernel at the fourth node
    infl2 = {}
    for combo, rep in zip(
        itertools.product(*(range(d) for d in G4.invariant_factors)), G4.reps
    ):
        S = inflation_cocycle(datum, rep)
        infl2[combo] = G5.class_of(S)
    zero5 = G5.zero_class()
    ker_sigma2 = {c for c, img in infl2.items() if img == zero5}
    im_delta = set(trans.values())
    checks["image of transgression equals kernel of second inflation"] = (
        im_delta == ker_sigma2
    )
    # the transgression image is a subgroup hit exactly; also record sizes
    sizes = {
        "H1(Q)": G1.class_count(),
        "H1(M)": G2.class_count(),
        "Der_box(I)": len(G3),
        "H2(Q)": G4.class_count(),
        "H2(M)": G5.class_count(),
    }
    return HSReport(checks, sizes, caveats)
