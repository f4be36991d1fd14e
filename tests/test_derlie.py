import pytest

from mlex.errors import MlexError
from mlex.modcore import LinMap, ZmModule, iter_homs, mod_elements
from mlex.algebra import Algebra, MultilinearOp, ideal_generated
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    is_compatible,
    mlf_variety,
)
from mlex.derlie import (
    check_jacobi,
    compatible_pairs,
    derivations_of,
    group_trivialize,
    ideal_preserving,
    lin_bracket,
    pair_is_compatible,
    project_pair,
    twist_cocycle,
    verify_wells,
    wells_map,
)
from oracles import all_liftings, is_derivation, lift_pair
from fixture_lib import (
    f1_datum,
    f2_algebra,
    f2_cocycle,
    f2_kernel_ideal,
    pure_datum_m4,
    side_action,
    sig_f,
)


def test_derivations_of_f2():
    F2 = f2_algebra()
    ders = derivations_of(F2)
    assert len(ders) == 4
    e1 = F2.module.generator(0)
    for d in ders:
        assert d(e1).is_zero()
    assert check_jacobi(ders)


def test_derivations_of_zero_ops_is_all_endos():
    M = ZmModule(2, (2, 2))
    P = Algebra(M, {"f": MultilinearOp("f", 2, M, {})})
    assert len(derivations_of(P)) == len(list(iter_homs(M, M)))


def test_derivations_of_zero_algebra():
    Z = ZmModule(2, ())
    A = Algebra(Z, {"f": MultilinearOp("f", 2, Z, {})})
    assert len(derivations_of(A)) == 1


def test_ideal_preserving():
    F2 = f2_algebra()
    ders = derivations_of(F2)
    whole = ideal_preserving(F2, set(mod_elements(F2.module)))
    assert len(whole) == len(ders)
    zero_only = ideal_preserving(F2, {F2.module.zero()})
    # preserving {0} means vanishing... every derivation fixes 0
    assert len(zero_only) == len(ders)
    I = f2_kernel_ideal(F2)
    assert len(ideal_preserving(F2, I.elements)) == 4


def test_compatible_pairs_trivial_action():
    Q, I = f1_datum()
    pairs = compatible_pairs(I, Q, Action.trivial(Q, I))
    assert len(pairs) == len(derivations_of(I)) * len(derivations_of(Q))
    zero = LinMap.zero_map(I.module, I.module)
    assert any(
        a.images == zero.images and b.images == zero.images for a, b in pairs
    )


def test_compatible_pairs_constrained_by_action():
    Q, I = f1_datum()
    act = side_action()
    pairs = compatible_pairs(I, Q, act)
    # the rule reads alpha(x * a) = beta(x) * a + x * alpha(a)
    for alpha, beta in pairs:
        for x in mod_elements(Q.module):
            for a in mod_elements(I.module):
                lhs = alpha(act.value("f", (1,), (x, x), (a, a)))
                rhs = I.module.add(
                    act.value("f", (1,), (beta(x), beta(x)), (a, a)),
                    act.value("f", (1,), (x, x), (alpha(a), alpha(a))),
                )
                assert lhs == rhs
    assert len(pairs) < len(derivations_of(I)) * len(derivations_of(Q)) or pairs


def test_lift_pair_obstruction():
    Q, I = f1_datum()
    T = f2_cocycle()
    ident = LinMap.identity(Q.module)
    zero = LinMap.zero_map(Q.module, Q.module)
    res = lift_pair((ident, ident), T)
    assert not res.ok and res.obstruction == "C3"
    res = lift_pair((zero, zero), T)
    assert res.ok
    assert is_derivation(SemidirectProduct(T).extension_record()[0].M, res.derivation)
    # action-only cocycle: every compatible pair lifts
    act = side_action()
    T0 = Cocycle.zero(Q, I, act)
    for pair in compatible_pairs(I, Q, act):
        assert lift_pair(pair, T0).ok


def test_lift_pair_checks_scalar_factor_sets_first():
    """A group-trivial cocycle with a free scalar factor set: C1 fails
    where beta moves the scalar cell, and is reported before C3."""
    Q, I = f1_datum()
    one = Q.module.element((1,))
    T = Cocycle(
        Action.trivial(Q, I), {}, {(1, one): one}, {("f", (one, one)): one}
    )
    ident = LinMap.identity(Q.module)
    zero = LinMap.zero_map(Q.module, Q.module)
    res = lift_pair((ident, zero), T)
    assert not res.ok and res.obstruction == "C1" and res.derivation is None
    res = lift_pair((ident, ident), T)
    assert not res.ok and res.obstruction == "C3"


def test_lift_pair_requires_group_trivial():
    Qp, Ip = pure_datum_m4()
    one = Qp.module.element((1,))
    T = Cocycle.from_cells(Action.trivial(Qp, Ip), tplus_cells={(one, one): one})
    ident = LinMap.identity(Qp.module)
    with pytest.raises(MlexError):
        lift_pair((ident, ident), T)


def test_project_pair_examples():
    T = f2_cocycle()
    E, encode, decode = SemidirectProduct(T).extension_record()
    M = E.M
    zero_phi = LinMap.zero_map(M.module, M.module)
    a, b = project_pair(zero_phi, E)
    assert all(v.is_zero() for v in a.images)
    assert all(v.is_zero() for v in b.images)
    # a derivation with phi(l(x)) inside the kernel projects to (0, 0)
    inv = E.iota_inverse()
    liftings = all_liftings(E)
    assert len(liftings) > 1
    for phi in ideal_preserving(M, set(inv)):
        alpha, beta = project_pair(phi, E)
        assert pair_is_compatible(alpha, beta, T.action)
        # the quotient map does not depend on the lifting it is read at
        for lifting in liftings[:2]:
            for x in mod_elements(E.Q.module):
                assert E.pi(phi(lifting[x])) == beta(x)


def test_project_pair_kernel_valued_derivation():
    """On the F2 quotient extension, the derivation e2 -> e1, e1 -> 0
    projects to the zero pair: it lies in the kernel of the projection."""
    from mlex.algebra import ideal_generated, quotient, subalgebra
    from mlex.cocycle import ExtensionRecord

    F2 = f2_algebra()
    ideal = ideal_generated(F2, [F2.module.element((1, 0))])
    Qc, pi, section = quotient(F2, ideal)
    I_alg, iota, _ = subalgebra(F2, ideal.elements)
    E = ExtensionRecord(F2, Qc, I_alg, pi, iota, dict(section))
    phi = LinMap(
        F2.module,
        F2.module,
        (F2.module.zero(), F2.module.element((1, 0))),
    )
    assert is_derivation(F2, phi)
    alpha, beta = project_pair(phi, E)
    assert all(v.is_zero() for v in alpha.images)
    assert all(v.is_zero() for v in beta.images)


def test_project_pair_identity_on_pure_modules():
    Qp, Ip = pure_datum_m4()
    T = Cocycle.zero(Qp, Ip)
    E, _, _ = SemidirectProduct(T).extension_record()
    ident = LinMap.identity(E.M.module)
    alpha, beta = project_pair(ident, E)
    assert alpha.images == LinMap.identity(Ip.module).images
    assert beta.images == LinMap.identity(Qp.module).images


def test_psi_respects_brackets():
    T = f2_cocycle()
    E, _, _ = SemidirectProduct(T).extension_record()
    ders = ideal_preserving(E.M, set(E.iota_inverse()))
    for d1 in ders:
        for d2 in ders:
            a1, b1 = project_pair(d1, E)
            a2, b2 = project_pair(d2, E)
            ac, bc = project_pair(lin_bracket(d1, d2), E)
            assert ac.images == lin_bracket(a1, a2).images
            assert bc.images == lin_bracket(b1, b2).images


def test_group_trivialize():
    Qp, Ip = pure_datum_m4()
    one = Qp.module.element((1,))
    T = Cocycle.from_cells(Action.trivial(Qp, Ip), tplus_cells={(one, one): one})
    T0, h = group_trivialize(T)
    # that cocycle builds Z4: the group part cannot be removed
    assert T0 is None
    T = f2_cocycle()
    T0, h = group_trivialize(T)
    assert T0 is T and all(v.is_zero() for v in h.values())


def test_wells_map_examples():
    Q, I = f1_datum()
    T = f2_cocycle()
    zero = LinMap.zero_map(Q.module, Q.module)
    ident = LinMap.identity(Q.module)
    assert wells_map((zero, zero), T).is_zero
    assert not wells_map((ident, ident), T).is_zero
    # the twisted factor set for (id, id) has T_f(1,1) = -T_f(1,1) = 1
    one = Q.module.element((1,))
    S = wells_map((ident, ident), T).cocycle
    assert S.tf[("f", (one, one))] == one
    # zero cocycle goes to the zero class for every pair
    T0 = Cocycle.zero(Q, I)
    for pair in compatible_pairs(I, Q, T0.action):
        assert wells_map(pair, T0).is_zero


def test_wells_obstruction_matches_lift():
    """A pair lifts through the projection iff its obstruction class is
    zero, matching the lift test on the factor sets."""
    Q, I = f1_datum()
    T = f2_cocycle()
    for pair in compatible_pairs(I, Q, T.action):
        assert wells_map(pair, T).is_zero == lift_pair(pair, T).ok


def test_twist_bracket_compatibility():
    """Twisting by a bracket of pairs equals the commutator of twists."""
    Q, I = f1_datum()
    for T in (f2_cocycle(), Cocycle.zero(Q, I, side_action())):
        pairs = compatible_pairs(I, Q, T.action)
        for p1 in pairs:
            for p2 in pairs:
                left = twist_cocycle(twist_cocycle(T, p2), p1)
                right = twist_cocycle(twist_cocycle(T, p1), p2)
                bracket_pair = (
                    lin_bracket(p1[0], p2[0]),
                    lin_bracket(p1[1], p2[1]),
                )
                want = twist_cocycle(T, bracket_pair)
                for key in want.tf:
                    assert want.tf[key] == I.module.sub(left.tf[key], right.tf[key])
                for key in want.tr:
                    assert want.tr[key] == I.module.sub(left.tr[key], right.tr[key])


def test_verify_wells_fixtures():
    Q, I = f1_datum()
    fixtures = [f2_cocycle(), Cocycle.zero(Q, I), Cocycle.zero(Q, I, side_action())]
    # a nonzero factor set over the nontrivial action (it is compatible)
    one = Q.module.element((1,))
    T4 = Cocycle.from_cells(side_action(), tf_cells={("f", (one, one)): one})
    assert is_compatible(T4, mlf_variety(sig_f()))
    fixtures.append(T4)
    for T in fixtures:
        report = verify_wells(T)
        assert report.passed, report.checks


def test_verify_wells_exactness_counts():
    T = f2_cocycle()
    report = verify_wells(T)
    assert report.der_ideal_count == 4
    assert report.pair_count == 4
    assert report.kernel_pairs == 2


def test_verify_wells_rank_two_quotient():
    """Size-8 extension: quotient Z2 x Z2 with a bilinear-form factor
    set; the derivation sequence stays exact."""
    from mlex.modcore import mod_elements as elems

    Z22 = ZmModule(2, (2, 2))
    Qb = Algebra(Z22, {"f": MultilinearOp("f", 2, Z22, {})})
    Zi = ZmModule(2, (2,))
    Ib = Algebra(Zi, {"f": MultilinearOp("f", 2, Zi, {})})
    tf_cells = {}
    for x in elems(Z22):
        for y in elems(Z22):
            v = (x.coords[0] * y.coords[0] + x.coords[1] * y.coords[1]) % 2
            if v and not x.is_zero() and not y.is_zero():
                tf_cells[("f", (x, y))] = Zi.element((1,))
    T = Cocycle.from_cells(Action.trivial(Qb, Ib), tf_cells=tf_cells)
    assert is_compatible(T, mlf_variety(sig_f()))
    report = verify_wells(T)
    assert report.passed, report.checks
    assert report.der_ideal_count == 32
    assert report.kernel_pairs == 8
