"""Derivations of algebras, compatible pairs, and the Wells sequence.

Derivations of one algebra form a Lie ring under the commutator bracket.
For a group-trivial extension realizing affine datum, the ideal
preserving derivations fit into an exact sequence between the
cohomological derivations of the datum and the obstruction classes
produced by twisting the cocycle with a compatible pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConsistencyError, MlexError
from .modcore import LinMap, greedy_span, homs_where, is_subgroup, mod_elements
from .algebra import subalgebra, algebra_from_ops
from . import termlang
from .cocycle import (
    Cocycle,
    ExtensionRecord,
    LiftingChanges,
    SemidirectProduct,
    equivalent,
    extract_cocycle,
    is_compatible,
    negated,
    relift,
    substitute,
)
from .cohomology import derivations as datum_derivations


def lin_add(f, g):
    return LinMap(
        f.source, f.target, tuple(f.target.add(a, b) for a, b in zip(f.images, g.images))
    )


def lin_sub(f, g):
    return LinMap(
        f.source, f.target, tuple(f.target.sub(a, b) for a, b in zip(f.images, g.images))
    )


def lin_bracket(f, g):
    return lin_sub(f.compose(g), g.compose(f))


def _derivation_defects(M, h):
    """h(f(args)) minus the product-rule sum, at every generator tuple of
    every operation; linear in h because every operation is multilinear."""
    gens = M.module.generators()
    out = []
    for name, op in M.ops.items():
        for args in itertools.product(gens, repeat=op.arity):
            d = h(M.apply_op(name, args))
            for i in range(op.arity):
                d = M.module.sub(d, M.apply_op(name, substitute(args, (i,), (h(args[i]),))))
            out.append(d)
    return out


def _generating_maps(maps):
    """A generating set of the group formed by the nonempty list ``maps``,
    taken greedily in list order."""
    zero = LinMap.zero_map(maps[0].source, maps[0].target)
    return [u for u, _ in greedy_span(maps, lin_add, zero)]


def derivations_of(M):
    """All derivations of M in ``iter_homs`` order, bracket-closed: the
    endomorphisms with no product-rule defect, by one congruence solve.
    They form a group and the bracket is bilinear, so closure is checked
    on generator pairs."""
    out = homs_where(M.module, M.module, lambda h: _derivation_defects(M, h))
    keys = {d.images for d in out}
    gens = _generating_maps(out)
    for d1 in gens:
        for d2 in gens:
            if lin_bracket(d1, d2).images not in keys:
                raise ConsistencyError("derivations are not closed under the bracket")
    return out


def ideal_preserving(M, ideal_elements):
    """Derivations mapping the given ideal set into itself."""
    ideal_elements = set(ideal_elements)
    out = [
        d for d in derivations_of(M) if all(d(e) in ideal_elements for e in ideal_elements)
    ]
    return out


def check_jacobi(maps):
    """Bracket closure and the Jacobi identity on a list of maps.

    Closure under addition is checked first by the subgroup test, so the
    maps form a group; the bracket is bilinear and the Jacobi sum
    trilinear, so both are then checked on a generating set alone."""
    if not maps:
        return True
    if not is_subgroup(maps, lin_add, LinMap.zero_map(maps[0].source, maps[0].target)):
        return False
    keys = {m.images for m in maps}
    gens = _generating_maps(maps)
    bracket = {}
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            bracket[i, j] = lin_bracket(a, b)
            if bracket[i, j].images not in keys:
                return False
    for i, j, k in itertools.product(range(len(gens)), repeat=3):
        if (i, j, k) > min((j, k, i), (k, i, j)):
            continue  # rotating the triple permutes the three terms
        jacobi = lin_add(
            lin_add(lin_bracket(bracket[i, j], gens[k]), lin_bracket(bracket[j, k], gens[i])),
            lin_bracket(bracket[k, i], gens[j]),
        )
        if not all(e.is_zero() for e in jacobi.images):
            return False
    return True


def _pair_defects(alpha, beta, action):
    """Left minus right side of the distinguished-slot rule at every
    action-table key.  Term i in s changes only a slot entry and term i
    outside s only a quotient entry, so the rule at (xs, avec) depends on
    the key (qoff, asub) alone."""
    Im = action.I.module
    alpha_of = {a: alpha(a) for a in mod_elements(Im)}
    beta_of = {q: beta(q) for q in mod_elements(action.Q.module)}
    out = []
    for f, s in action.slots():
        table = action.tables[(f, s)]
        for (qoff, asub), v in table.items():
            d = alpha_of[v]
            for p, a in enumerate(asub):
                d = Im.sub(d, table[(qoff, substitute(asub, (p,), (alpha_of[a],)))])
            for p, q in enumerate(qoff):
                d = Im.sub(d, table[(substitute(qoff, (p,), (beta_of[q],)), asub)])
            out.append(d)
    return out


def pair_is_compatible(alpha, beta, action):
    """Distinguished-slot derivation rule relating the two components."""
    return all(d.is_zero() for d in _pair_defects(alpha, beta, action))


def compatible_pairs(I, Q, action):
    """All compatible derivation pairs of the datum, sorted by their
    images, bracket-closed.  For each derivation beta of Q one congruence
    solve finds the alphas with no product-rule or pair-rule defect: alpha
    enters only slot entries, where a T4 action (``Action.validate``, run
    on every workspace action at load) is additive; beta enters quotient
    entries, where an action need not be."""
    pairs = [
        (a, b)
        for b in derivations_of(Q)
        for a in homs_where(
            I.module, I.module, lambda a: _derivation_defects(I, a) + _pair_defects(a, b, action)
        )
    ]
    pairs.sort(key=lambda p: (_imgs_key(p[0].images), _imgs_key(p[1].images)))
    keyset = {(a.images, b.images) for a, b in pairs}
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            br = (lin_bracket(a1, a2).images, lin_bracket(b1, b2).images)
            if br not in keyset:
                raise ConsistencyError("compatible pairs not closed under the bracket")
    return pairs


def project_pair(phi, E):
    """The restriction/quotient pair of an ideal-preserving derivation."""
    inv = E.iota_inverse()
    if any(phi(m) not in inv for m in inv):
        raise MlexError("derivation does not preserve the embedded kernel")
    alpha = LinMap(
        E.I.module,
        E.I.module,
        tuple(inv[phi(E.iota(g))] for g in E.I.module.generators()),
    )
    beta_table = {x: E.pi(phi(E.lifting[x])) for x in mod_elements(E.Q.module)}
    beta = LinMap(
        E.Q.module,
        E.Q.module,
        tuple(beta_table[g] for g in E.Q.module.generators()),
    )
    for x, v in beta_table.items():
        if beta(x) != v:
            raise ConsistencyError("projected quotient map is not linear")
    return alpha, beta


def group_trivialize(T):
    """Equivalent cocycle with zero group factor set, or None.

    Takes the first witness h, in the order of ``LiftingChanges.changes``,
    with T_+ = h(x) + h(y) - h(x+y) and shifts T by its coboundary; over
    affine datum the action is unchanged.
    """
    Q, I = T.Q, T.I
    if T.is_group_trivial_table():
        return T, {x: I.module.zero() for x in mod_elements(Q.module)}
    h = next(iter(LiftingChanges(Q, I).changes(T.tplus)), None)
    return (None, None) if h is None else (shift_by_coboundary(T, h), h)


def shift_by_coboundary(T, h):
    """T minus the coboundary of h over T's own action (affine datum):
    what the lifting x -> (-h(x), x) of T's table realizes."""
    if not T.is_linear() or not T.I.is_abelian():
        raise MlexError("coboundary shifts are implemented for affine datum")
    tplus, tr, tf, action_tables = relift(SemidirectProduct(T), negated(h, T.I))
    if action_tables != T.action.tables:
        raise ConsistencyError("affine coboundary produced action adjustments")
    return Cocycle(T.action, tplus, tr, tf)


def twist_cocycle(T, pair):
    """Factor sets twisted by a compatible pair; action terms unchanged."""
    alpha, beta = pair
    Q, I = T.Q, T.I
    Im = I.module
    tplus = {}
    for (x, y), v in T.tplus.items():
        tplus[(x, y)] = Im.sub(
            alpha(v),
            Im.add(T.tplus[(beta(x), y)], T.tplus[(x, beta(y))]),
        )
    tr = {}
    for (r, x), v in T.tr.items():
        tr[(r, x)] = Im.sub(alpha(v), T.tr[(r, beta(x))])
    tf = {}
    for (f, xs), v in T.tf.items():
        acc = alpha(v)
        for i in range(len(xs)):
            acc = Im.sub(acc, T.tf[(f, substitute(xs, (i,), (beta(xs[i]),)))])
        tf[(f, xs)] = acc
    return Cocycle(T.action, tplus, tr, tf)


def factor_sets_multilinear(S):
    """Membership of a group-trivial affine cocycle in the unconstrained
    variety's cocycle set: the operation factor sets must be multilinear."""
    Q, I = S.Q, S.I
    for f, op in Q.ops.items():
        n = op.arity
        for slot in range(n):
            for xs in itertools.product(mod_elements(Q.module), repeat=n):
                for y in mod_elements(Q.module):
                    bumped = substitute(xs, (slot,), (Q.module.add(xs[slot], y),))
                    swapped = substitute(xs, (slot,), (y,))
                    if S.tf[(f, bumped)] != I.module.add(
                        S.tf[(f, xs)], S.tf[(f, swapped)]
                    ):
                        return False
    return True


@dataclass
class WellsClass:
    cocycle: Cocycle
    witness: dict | None

    @property
    def is_zero(self):
        return self.witness is not None


def wells_map(pair, T):
    """Obstruction class of a compatible pair against a group-trivial
    cocycle over affine datum."""
    if not (T.I.is_abelian() and T.is_linear()):
        raise MlexError("the obstruction map needs affine datum")
    T0, _ = group_trivialize(T)
    if T0 is None:
        raise MlexError("cocycle is not group-trivial")
    return _obstruction_classes([pair], T0)[0]


def _obstruction_classes(pairs, T0):
    """The obstruction class of each pair against the group-trivial T0, the
    witnesses sought in one group of lifting changes of one split table."""
    changes = LiftingChanges(T0.Q, T0.I)
    split = T0.action.split
    out = []
    for pair in pairs:
        S = twist_cocycle(T0, pair)
        S.validate()
        if not factor_sets_multilinear(S):
            raise ConsistencyError("twisted factor sets are not multilinear")
        out.append(WellsClass(S, changes.witness(split, S)))
    return out


@dataclass
class WellsReport:
    checks: dict
    der_ideal_count: int
    pair_count: int
    kernel_pairs: int

    @property
    def passed(self):
        return all(self.checks.values())

    def lines(self):
        out = []
        for name, ok in self.checks.items():
            out.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        return out


def lie_variety(modulus):
    sig = termlang.Signature(modulus, (("br", 2),), bracket="br")
    ids = (
        termlang.parse_identity("[x, x] = 0", sig),
        termlang.parse_identity("[x, y] + [y, x] = 0", sig),
        termlang.parse_identity(
            "[[x, y], z] + [[y, z], x] + [[z, x], y] = 0", sig
        ),
    )
    return termlang.Variety("lie", sig, ids)


def verify_wells(T):
    """Exactness report for the derivation sequence of a group-trivial
    extension realizing affine datum with cocycle T, plus the semidirect
    corollary."""
    if not (T.I.is_abelian() and T.is_linear()):
        raise MlexError("the derivation sequence needs affine datum")
    T0, witness = group_trivialize(T)
    if T0 is None:
        raise MlexError("extension is not group-trivial")
    raw = SemidirectProduct(T0)
    E0, encode, decode = raw.extension_record()
    M, Q, I = E0.M, E0.Q, E0.I
    checks = {}

    kernel_set = set(E0.iota.image_elements())
    der_ideal = ideal_preserving(M, kernel_set)
    checks["derivations bracket-close and satisfy Jacobi"] = check_jacobi(der_ideal)

    pairs = compatible_pairs(I, Q, T0.action)
    datum_ders = datum_derivations(Q, I, T0.action)
    changes = LiftingChanges(Q, I)
    datum_keys = {changes.vector(h) for h in datum_ders}

    # first arrow: datum derivation -> kernel-valued derivation of M
    def inflate(h):
        images = []
        for g in M.module.generators():
            x = E0.pi(g)
            images.append(E0.iota(h[x]))
        return LinMap(M.module, M.module, tuple(images))

    inflated = {}
    arrows_are_derivations = True
    for h in datum_ders:
        phi = inflate(h)
        table_ok = all(
            phi(m) == E0.iota(h[E0.pi(m)]) for m in mod_elements(M.module)
        )
        if not table_ok or phi.images not in {d.images for d in der_ideal}:
            arrows_are_derivations = False
        inflated[changes.vector(h)] = phi
    checks["datum derivations inflate to ideal-preserving derivations"] = (
        arrows_are_derivations
    )
    checks["first arrow injective"] = len(
        {phi.images for phi in inflated.values()}
    ) == len(datum_ders)

    psi_of = {d.images: project_pair(d, E0) for d in der_ideal}
    for d in der_ideal:
        a, b = psi_of[d.images]
        if not pair_is_compatible(a, b, T0.action):
            raise ConsistencyError("projected pair fails compatibility")

    ker_psi = {
        d.images
        for d in der_ideal
        if all(img.is_zero() for img in psi_of[d.images][0].images)
        and all(img.is_zero() for img in psi_of[d.images][1].images)
    }
    checks["kernel of projection equals the inflated datum derivations"] = ker_psi == {
        phi.images for phi in inflated.values()
    }

    # kernel of the projection is isomorphic to the datum derivations via
    # evaluation along the lifting
    delta_keys = set()
    for imgs in ker_psi:
        phi = LinMap(M.module, M.module, imgs)
        inv = E0.iota_inverse()
        table = {x: inv[phi(E0.lifting[x])] for x in mod_elements(Q.module)}
        delta_keys.add(changes.vector(table))
    checks["kernel maps onto the datum derivations"] = delta_keys == datum_keys

    # T0 is group-trivial, so these are the classes ``wells_map`` gives
    wells = {
        (a.images, b.images): cls for (a, b), cls in zip(pairs, _obstruction_classes(pairs, T0))
    }
    ker_wells = {
        key for key, cls in wells.items() if cls.is_zero
    }
    im_psi = {(a.images, b.images) for a, b in psi_of.values()}
    checks["image of projection equals kernel of the obstruction map"] = (
        im_psi == ker_wells
    )

    # corollary: the ideal-preserving derivations split over the kernel of
    # the obstruction map, with vanishing extension class
    cor = _verify_wells_corollary(
        E0, T0, der_ideal, psi_of, wells, ker_wells, datum_ders, inflated
    )
    checks.update(cor)
    return WellsReport(
        checks,
        der_ideal_count=len(der_ideal),
        pair_count=len(pairs),
        kernel_pairs=len(ker_wells),
    )


def _imgs_key(images):
    return tuple(e.coords for e in images)


def _pair_key(key):
    return (_imgs_key(key[0]), _imgs_key(key[1]))


def _verify_wells_corollary(E0, T0, der_ideal, psi_of, wells, ker_wells, datum_ders, inflated):
    M, Q, I = E0.M, E0.Q, E0.I
    checks = {}
    modulus = M.module.modulus

    # section of the projection over the kernel of the obstruction map
    pair_of = {}
    for d in der_ideal:
        pair_of[d.images] = psi_of[d.images]
    section = {}
    ok_section = True
    for key in ker_wells:
        alpha = LinMap(I.module, I.module, key[0])
        beta = LinMap(Q.module, Q.module, key[1])
        h = wells[key].witness
        images = []
        for g in M.module.generators():
            x = E0.pi(g)
            a = E0.iota_inverse()[M.module.sub(g, E0.lifting[x])]
            images.append(
                M.module.add(
                    E0.iota(I.module.add(alpha(a), h[x])), E0.lifting[beta(x)]
                )
            )
        phi = LinMap(M.module, M.module, tuple(images))
        if phi.images not in {d.images for d in der_ideal}:
            ok_section = False
        got = project_pair(phi, E0)
        if (got[0].images, got[1].images) != key:
            ok_section = False
        section[key] = phi
    checks["obstruction-kernel pairs lift through a section"] = ok_section

    # Lie algebra structures: the ideal-preserving derivations as an
    # extension of the kernel pairs by the datum derivations
    der_items = sorted({d.images for d in der_ideal}, key=_imgs_key)
    maps = {imgs: LinMap(M.module, M.module, imgs) for imgs in der_items}
    D_alg, enc_D, dec_D = algebra_from_ops(
        der_items,
        lambda a, b: lin_add(maps[a], maps[b]).images,
        LinMap.zero_map(M.module, M.module).images,
        {"br": (2, lambda a, b: lin_bracket(maps[a], maps[b]).images)},
        modulus,
    )
    V_lie = lie_variety(modulus)
    checks["ideal-preserving derivations form a Lie ring"] = termlang.in_variety(
        D_alg, V_lie
    )

    kw_items = sorted(ker_wells, key=_pair_key)
    pair_maps = {
        key: (LinMap(I.module, I.module, key[0]), LinMap(Q.module, Q.module, key[1]))
        for key in kw_items
    }

    def kw_add(k1, k2):
        return (
            lin_add(pair_maps[k1][0], pair_maps[k2][0]).images,
            lin_add(pair_maps[k1][1], pair_maps[k2][1]).images,
        )

    def kw_bracket(k1, k2):
        return (
            lin_bracket(pair_maps[k1][0], pair_maps[k2][0]).images,
            lin_bracket(pair_maps[k1][1], pair_maps[k2][1]).images,
        )

    kw_zero = (
        LinMap.zero_map(I.module, I.module).images,
        LinMap.zero_map(Q.module, Q.module).images,
    )
    KW_alg, enc_KW, dec_KW = algebra_from_ops(
        kw_items, kw_add, kw_zero, {"br": (2, kw_bracket)}, modulus
    )

    ker_set = {enc_D[phi.images] for phi in inflated.values()}
    K_alg, iota_K, _ = subalgebra(D_alg, ker_set)
    pi_images = []
    for g in D_alg.module.generators():
        a, b = psi_of[dec_D[g]]
        pi_images.append(enc_KW[(a.images, b.images)])
    pi_lie = LinMap(D_alg.module, KW_alg.module, tuple(pi_images))
    lifting_lie = {}
    for q in mod_elements(KW_alg.module):
        key = dec_KW[q]
        lifting_lie[q] = enc_D[section[key].images]
    E_lie = ExtensionRecord(D_alg, KW_alg, K_alg, pi_lie, iota_K, lifting_lie)
    try:
        E_lie.validate()
        S = extract_cocycle(E_lie)
        checks["derivation extension realizes a Lie-compatible cocycle"] = True
    except MlexError:
        checks["derivation extension realizes a Lie-compatible cocycle"] = False
        return checks
    split = S.action.split
    checks["section action is Lie-variety compatible"] = is_compatible(
        split.T, V_lie, check_datum=False, raw=split
    )
    witness = equivalent(S, split.T)
    checks["extension class of the derivation sequence vanishes"] = witness is not None
    return checks
