import itertools

import pytest

from mlex.errors import BudgetExceeded, MlexError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.termlang import Signature, Variety, parse_identity
from mlex.cocycle import (
    Action,
    Cocycle,
    DatumError,
    SemidirectProduct,
    equivalent,
    extract_cocycle,
    is_compatible,
    mlf_variety,
)
from mlex.cohomology import (
    derivations,
    enumerate_h2,
    h1,
    h2_affine,
    h_key,
    hom_kill_commutator,
    principal_derivations,
    stab_automorphisms,
)
from fixture_lib import (
    f1_datum,
    f2_cocycle,
    pure_datum_m4,
    side_action,
    sig_f,
)


@pytest.fixture
def datum():
    return f1_datum()


def test_enumerate_h2_fixed_action(datum):
    Q, I = datum
    classes = enumerate_h2(Q, I, mlf_variety(sig_f()), action=Action.trivial(Q, I))
    assert len(classes) == 2
    # representatives are minimal: the zero cocycle first
    assert classes[0].representative.factor_sets_zero()


def test_enumerate_h2_all_actions(datum):
    Q, I = datum
    classes = enumerate_h2(Q, I, mlf_variety(sig_f()))
    assert len(classes) == 6
    assert sum(c.size() for c in classes) == 8


def test_enumerate_h2_pure_module_m4():
    Q, I = pure_datum_m4()
    classes = enumerate_h2(Q, I, mlf_variety(Signature(4, ())))
    assert len(classes) == 2
    reducts = []
    for c in classes:
        A, _, _ = SemidirectProduct(c.representative).to_algebra()
        reducts.append(A.module.factors)
    assert sorted(reducts) == [(2, 2), (4,)]


def test_enumerate_h2_datum_error():
    Z2 = ZmModule(2, (2,))
    bad = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    good = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {})})
    alt = Variety("alt", sig_f(), (parse_identity("f(x,x) = 0", sig_f()),))
    with pytest.raises(DatumError):
        enumerate_h2(bad, good, alt)


def test_enumerate_h2_budget(datum):
    Q, I = datum
    with pytest.raises(BudgetExceeded) as err:
        enumerate_h2(Q, I, mlf_variety(sig_f()), budget=3)
    assert err.value.needed > 3


def test_h2_affine_central_m2(datum):
    Q, I = datum
    H = h2_affine(Q, I, Action.trivial(Q, I), mlf_variety(sig_f()))
    assert H.invariant_factors == [2]
    assert H.class_count() == 2


def test_h2_affine_with_zero_identity(datum):
    Q, I = datum
    sig = sig_f()
    V = Variety("fzero", sig, (parse_identity("f(x,y) = 0", sig),))
    H = h2_affine(Q, I, Action.trivial(Q, I), V)
    assert H.class_count() == 1


def test_h2_affine_matches_enumeration_on_affine_fixtures(datum):
    """Linear-solver route and exhaustive route agree: same class count
    and each representative matched by an equivalence witness."""
    Q, I = datum
    Qp, Ip = pure_datum_m4()
    fixtures = [
        (Q, I, Action.trivial(Q, I), mlf_variety(sig_f())),
        (Q, I, side_action(), mlf_variety(sig_f())),
        (Qp, Ip, Action.trivial(Qp, Ip), mlf_variety(Signature(4, ()))),
        (
            Q,
            I,
            Action.trivial(Q, I),
            Variety("fzero", sig_f(), (parse_identity("f(x,y) = 0", sig_f()),)),
        ),
    ]
    for Qx, Ix, action, V in fixtures:
        H = h2_affine(Qx, Ix, action, V)
        classes = enumerate_h2(Qx, Ix, V, action=action)
        assert H.class_count() == len(classes)
        matched = 0
        for rep in H.reps:
            for cls in classes:
                if equivalent(rep, cls.representative) is not None:
                    matched += 1
                    break
        assert matched == len(classes)


def test_h2_affine_group_law(datum):
    Q, I = datum
    for action in (Action.trivial(Q, I), side_action()):
        H = h2_affine(Q, I, action, mlf_variety(sig_f()))
        for T1 in H.reps:
            for T2 in H.reps:
                want = H.add_classes(H.class_of(T1), H.class_of(T2))
                assert want == H.class_of(T1.add(T2))


def test_h2_affine_sum_class_respects_equivalence(datum):
    """Replacing a summand by an equivalent cocycle leaves the sum's
    class unchanged."""
    Q, I = datum
    action = Action.trivial(Q, I)
    H = h2_affine(Q, I, action, mlf_variety(sig_f()))
    classes = enumerate_h2(Q, I, mlf_variety(sig_f()), action=action)
    for cls in classes:
        for member in cls.members:
            for T2 in H.reps:
                assert H.class_of(member.add(T2)) == H.add_classes(
                    H.class_of(cls.representative), H.class_of(T2)
                )


def test_affine_residuals_are_additive(datum):
    """The strict-identity residual map underpinning the linear solver is
    additive in the factor sets over affine datum."""
    from mlex.cohomology import multilinearity_identities
    from fixture_lib import leibniz_variety
    from oracles import _strict_residual

    Q, I = datum
    action = side_action()
    one = Q.module.element((1,))
    zero = Q.module.zero()
    cells = [(x, y) for x in (zero, one) for y in (zero, one)]
    cocycles = [
        Cocycle.from_cells(action),
        Cocycle.from_cells(action, tf_cells={("f", (one, one)): one}),
        Cocycle.from_cells(action, tplus_cells={(one, one): one}),
        Cocycle.from_cells(
            action,
            tplus_cells={(one, one): one},
            tf_cells={("f", (one, one)): one},
        ),
    ]
    idents = multilinearity_identities(sig_f()) + list(leibniz_variety().identities)
    for T1 in cocycles:
        for T2 in cocycles:
            total = T1.add(T2)
            for ident in idents:
                left = _strict_residual(total, ident)
                r1 = _strict_residual(T1, ident)
                r2 = _strict_residual(T2, ident)
                assert left == [I.module.add(a, b) for a, b in zip(r1, r2)]


def test_h2_affine_zero_kernel(datum):
    Q, _ = datum
    Z0 = ZmModule(2, ())
    I0 = Algebra(Z0, {"f": MultilinearOp("f", 2, Z0, {})})
    H = h2_affine(Q, I0, Action.trivial(Q, I0), mlf_variety(sig_f()))
    assert H.class_count() == 1 and H.invariant_factors == []


def test_h2_affine_rejects_non_affine(datum):
    Q, I = datum
    from fixture_lib import nonabelian_kernel

    with pytest.raises(MlexError):
        h2_affine(Q, nonabelian_kernel(), Action.trivial(Q, nonabelian_kernel()), mlf_variety(sig_f()))


def test_h2_affine_rejects_incompatible_action(datum):
    Q, I = datum
    sig = sig_f()
    V = Variety("fzero", sig, (parse_identity("f(x,y) = 0", sig),))
    # the one-sided action is mlf-compatible but not fzero-compatible
    act = side_action()
    assert not is_compatible(Cocycle.zero(Q, I, act), V)
    with pytest.raises(MlexError):
        h2_affine(Q, I, act, V)


def test_zero_class_iff_split(datum):
    """The zero class corresponds exactly to extensions with a
    homomorphic lifting."""
    Q, I = datum
    action = Action.trivial(Q, I)
    classes = enumerate_h2(Q, I, mlf_variety(sig_f()), action=action)
    for cls in classes:
        for T in cls.members:
            E, _, _ = SemidirectProduct(T).extension_record()
            has_hom_lift = False
            for lifting in E.all_liftings():
                hom = all(
                    lifting[Q.module.add(x, y)]
                    == E.M.module.add(lifting[x], lifting[y])
                    for x in mod_elements(Q.module)
                    for y in mod_elements(Q.module)
                ) and all(
                    lifting[Q.eval_op("f", (x, y))]
                    == E.M.eval_op("f", (lifting[x], lifting[y]))
                    for x in mod_elements(Q.module)
                    for y in mod_elements(Q.module)
                )
                if hom:
                    has_hom_lift = True
                    break
            is_zero_class = equivalent(T, Cocycle.zero(Q, I, T.action)) is not None
            assert is_zero_class == has_hom_lift


def test_mixed_factor_datum_h2():
    """Central datum Z2 by Z2 x Z4 over m = 4: both cells are pinned to
    the 2-torsion of the kernel, coboundaries have order 2, giving
    H2 = Z2^3; the two routes agree and a representative round-trips."""
    Qm, Im = ZmModule(4, (2,)), ZmModule(4, (2, 4))
    Q = Algebra(Qm, {"f": MultilinearOp("f", 2, Qm, {})})
    I = Algebra(Im, {"f": MultilinearOp("f", 2, Im, {})})
    mlf = mlf_variety(Signature(4, (("f", 2),)))
    act = Action.trivial(Q, I)
    classes = enumerate_h2(Q, I, mlf, action=act)
    H = h2_affine(Q, I, act, mlf)
    assert H.invariant_factors == [2, 2, 2]
    assert len(classes) == H.class_count() == 8
    reducts = set()
    for cls in classes[:3]:
        raw = SemidirectProduct(cls.representative)
        E, _, _ = raw.extension_record()
        from mlex.cocycle import psi_isomorphism

        assert psi_isomorphism(E) is not None
        A, _, _ = raw.to_algebra()
        reducts.add(A.module.factors)
    assert reducts <= {(2, 2, 4), (4, 4)}


def test_derivations_central_datum(datum):
    Q, I = datum
    ders = derivations(Q, I, Action.trivial(Q, I))
    assert len(ders) == 2
    indep = hom_kill_commutator(Q, I)
    assert [h_key(h, Q) for h in ders] == [h_key(h, Q) for h in indep]


def test_derivations_commutator_constraint():
    Z2 = ZmModule(2, (2,))
    Qc = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    I = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {})})
    ders = derivations(Qc, I, Action.trivial(Qc, I))
    assert len(ders) == 1
    assert len(hom_kill_commutator(Qc, I)) == 1
    # zero map always qualifies
    assert all(v.is_zero() for v in ders[0].values())


def test_stab_automorphisms_match_derivations(datum):
    Q, I = datum
    for T in (f2_cocycle(), Cocycle.zero(Q, I)):
        E, _, _ = SemidirectProduct(T).extension_record()
        auts, to_der = stab_automorphisms(E)
        ders = derivations(Q, I, extract_cocycle(E).action)
        assert len(auts) == len(ders) == 2
        assert sorted(h_key(to_der(g), Q) for g in auts) == [
            h_key(h, Q) for h in ders
        ]
        # composition maps to addition and is commutative
        for g1 in auts:
            for g2 in auts:
                comp = g1.compose(g2)
                total = {
                    x: I.module.add(to_der(g1)[x], to_der(g2)[x])
                    for x in mod_elements(Q.module)
                }
                assert h_key(to_der(comp), Q) == h_key(total, Q)
                assert comp.images == g2.compose(g1).images


def test_identity_always_stabilizes(datum):
    T = f2_cocycle()
    E, _, _ = SemidirectProduct(T).extension_record()
    auts, _ = stab_automorphisms(E)
    assert any(g.images == LinMap.identity(E.M.module).images for g in auts)


def test_principal_derivations_shortcuts(datum):
    Q, I = datum
    res = principal_derivations(Q, I, Action.trivial(Q, I))
    assert len(res.maps) == 1 and res.complete
    res = principal_derivations(Q, I, side_action())
    assert res.complete  # reached the whole derivation group or vacuous
    # depth-one candidate from the one-sided action: d(x) = a(f,2)(x, c)
    act = side_action()
    ders = derivations(Q, I, act)
    for d in res.maps:
        assert h_key(d, Q) in {h_key(g, Q) for g in ders}


def test_h1_examples(datum):
    Q, I = datum
    r = h1(Q, I, Action.trivial(Q, I))
    assert r.class_count() == 2
    assert r.invariant_factors == [2]
    Z2 = ZmModule(2, (2,))
    Qc = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    I2 = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {})})
    r = h1(Qc, I2, Action.trivial(Qc, I2))
    assert r.class_count() == 1
    # zero datum
    Z0 = ZmModule(2, ())
    zero_alg = Algebra(Z0, {"f": MultilinearOp("f", 2, Z0, {})})
    r = h1(zero_alg, zero_alg, Action.trivial(zero_alg, zero_alg))
    assert r.class_count() == 1 and r.invariant_factors == []
