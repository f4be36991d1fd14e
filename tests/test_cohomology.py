import pytest

from mlex.errors import BudgetExceeded, MlexError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp, ideal_generated, quotient
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
from mlex import cohomology
from mlex.cohomology import (
    derivations,
    enumerate_h2,
    h1,
    h2_affine,
    principal_derivations,
)
from oracles import all_liftings, h_key, hom_kill_commutator, psi_isomorphism, stab_automorphisms
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


def test_presentation_of_a_module_does_not_reach_the_answers():
    """Z6 and Z2 x Z3 are one group: the affine H2 over either kernel has
    the same invariant factors, and so has every quotient of the ring Z6
    in either presentation (both come from a Smith form, so the factors
    are invariant factors)."""
    sig = Signature(6, (("f", 2),))

    def zero_algebra(factors):
        M = ZmModule(6, factors)
        return Algebra(M, {"f": MultilinearOp("f", 2, M, {})})

    for q in (2, 3):
        Q = zero_algebra((q,))
        factors = [
            h2_affine(Q, I, Action.trivial(Q, I), mlf_variety(sig)).invariant_factors
            for I in (zero_algebra((6,)), zero_algebra((2, 3)))
        ]
        assert factors == [[q], [q]]
    Z6, Z23 = ZmModule(6, (6,)), ZmModule(6, (2, 3))
    ring6 = Algebra(Z6, {"f": MultilinearOp("f", 2, Z6, {(0, 0): Z6.element((1,))})})
    ring23 = Algebra(
        Z23,
        {"f": MultilinearOp("f", 2, Z23, {(0, 0): Z23.generator(0), (1, 1): Z23.generator(1)})},
    )
    expected = [(6,), (), (2,), (3,), (2,), ()]
    for x, want in zip(range(6), expected):
        got = [
            quotient(R, ideal_generated(R, [g]))[0].module.factors
            for R, g in ((ring6, Z6.element((x,))), (ring23, Z23.element((x, x))))
        ]
        assert got == [want, want], x


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
            for lifting in all_liftings(E):
                hom = all(
                    lifting[Q.module.add(x, y)]
                    == E.M.module.add(lifting[x], lifting[y])
                    for x in mod_elements(Q.module)
                    for y in mod_elements(Q.module)
                ) and all(
                    lifting[Q.apply_op("f", (x, y))]
                    == E.M.apply_op("f", (lifting[x], lifting[y]))
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


# Z6 and Z2 x Z3 are one group: 1 -> (1, 1) one way, (1, 0) -> 3 and
# (0, 1) -> 4 the other.
Z6, Z23 = ZmModule(6, (6,)), ZmModule(6, (2, 3))
TO_Z23 = LinMap(Z6, Z23, (Z23.element((1, 1)),))
TO_Z6 = LinMap(Z23, Z6, (Z6.element((3,)), Z6.element((4,))))


def scaled_action(Q, I, r):
    """a(f, {2})(x | a) = r * x * a, x read as an integer: well defined and
    additive in a when r kills |Q| times I."""
    table = {
        ((x,), (a,)): I.module.scalar(r * x.coords[0], a)
        for x in mod_elements(Q.module)
        for a in mod_elements(I.module)
    }
    return Action(Q, I, {("f", (1,)): table})


def with_kernel(action, J, to_J, from_J):
    """The action carried to a kernel J along the isomorphism to_J, whose
    inverse is from_J."""
    tables = {
        key: {(qoff, tuple(to_J(a) for a in asub)): to_J(v) for (qoff, asub), v in table.items()}
        for key, table in action.tables.items()
    }
    assert all(from_J(to_J(a)) == a for a in mod_elements(action.I.module))
    return Action(action.Q, J, tables)


def first_cohomology_summary(Q, I, action):
    r = h1(Q, I, action)
    ders = derivations(Q, I, action)
    return len(ders), len(r.principal.maps), r.class_count(), r.invariant_factors


def zero_op(M):
    return Algebra(M, {"f": MultilinearOp("f", 2, M, {})})


@pytest.mark.parametrize("r", [0, 2])
def test_first_cohomology_does_not_depend_on_the_quotient_presentation(r):
    """The quotient Q = Z6 or Z2 x Z3 against I = Z6; with r = 2 two
    derivations, one of them principal."""
    Q6, Q23, I = zero_op(Z6), zero_op(Z23), zero_op(Z6)
    action = scaled_action(Q6, I, r)
    got = first_cohomology_summary(Q6, I, action)
    assert got == first_cohomology_summary(Q23, I, action.pull_back(Q23, TO_Z6))
    assert got == {0: (6, 1, 6, [6]), 2: (2, 1, 2, [2])}[r]


@pytest.mark.parametrize(
    "q, r, unit, expected",
    [(2, 0, False, (2, 1, 2, [2])), (3, 0, False, (3, 1, 3, [3])), (2, 3, True, (2, 2, 1, []))],
)
def test_first_cohomology_does_not_depend_on_the_kernel_presentation(q, r, unit, expected):
    """The kernel I = Z6 or Z2 x Z3 against Q = Zq, with f(1, 1) = 1 when
    ``unit``, the action carried along the isomorphism."""
    M = ZmModule(6, (q,))
    Q = Algebra(M, {"f": MultilinearOp("f", 2, M, {(0, 0): M.element((1,))} if unit else {})})
    I6, I23 = zero_op(Z6), zero_op(Z23)
    action = scaled_action(Q, I6, r)
    got = first_cohomology_summary(Q, I6, action)
    assert got == first_cohomology_summary(Q, I23, with_kernel(action, I23, TO_Z23, TO_Z6))
    assert got == expected


def test_principal_derivations_test_each_accepted_table_once(monkeypatch):
    """Q = I = Z6 with a(f, {2})(x | a) = 2xa: almost every depth-3
    candidate is the zero map.  A table the twin condition has accepted is
    not tested again; a rejected one may be, under other meta."""
    calls = []
    twin = cohomology._twin_side_condition

    def counted(raw, d, meta):
        ok = twin(raw, d, meta)
        calls.append((h_key(d, raw.Q), ok))
        return ok

    monkeypatch.setattr(cohomology, "_twin_side_condition", counted)
    Q, I = zero_op(Z6), zero_op(Z6)
    res = principal_derivations(Q, I, scaled_action(Q, I, 2))
    accepted = set()
    for key, ok in calls:
        assert key not in accepted
        if ok:
            accepted.add(key)
    zero = h_key({x: I.module.zero() for x in mod_elements(Q.module)}, Q)
    assert accepted == {zero}
    assert [h_key(d, Q) for d in res.maps] == [zero] and not res.complete
