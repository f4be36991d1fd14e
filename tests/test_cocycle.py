import itertools

import pytest
from hypothesis import given, settings

from mlex.errors import ConsistencyError, MlexError, ValidationError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp, find_isomorphism
from mlex.termlang import Variety, parse_identity
from mlex.cocycle import (
    Action,
    Cocycle,
    DatumError,
    SemidirectProduct,
    coboundary,
    decompose,
    enumerate_actions,
    equivalent,
    extract_cocycle,
    is_compatible,
    is_h2_morphism,
    kernel_kind,
    mlf_variety,
    realizes_raw,
)
from oracles import all_liftings, all_witness_maps, psi_isomorphism, realizes, with_lifting
from strategies import cocycles
from fixture_lib import (
    all_f1_cocycles,
    f1_datum,
    f2_algebra,
    f2_cocycle,
    leibniz_variety,
    nonabelian_kernel,
    pure_datum_m4,
    s3_algebra,
    side_action,
    sig_f,
)


@pytest.fixture
def datum():
    return f1_datum()


def one_of(A):
    return A.module.element((1,))


def test_cocycle_validation(datum):
    Q, I = datum
    one = one_of(Q)
    act = Action.trivial(Q, I)
    T = Cocycle(act, {(Q.module.zero(), one): one}, {}, {})
    with pytest.raises(ValidationError) as err:
        T.validate()
    assert err.value.clause == "T1"
    T = Cocycle(act, {}, {(1, Q.module.zero()): one}, {})
    with pytest.raises(ValidationError) as err:
        T.validate()
    assert err.value.clause == "T2"
    T = Cocycle(act, {}, {}, {("f", (Q.module.zero(), one)): one})
    with pytest.raises(ValidationError) as err:
        T.validate()
    assert err.value.clause == "T3"


def test_action_validation(datum):
    Q, I = datum
    one = one_of(Q)
    # not additive in the distinguished slot: value(a=1) = 1 but the table
    # is zero-filled elsewhere, so doubling fails only if inconsistent;
    # build an explicitly non-additive table instead
    table = {
        ((q,), (a,)): (one if (q == one and a == I.module.zero()) else I.module.zero())
        for q in mod_elements(Q.module)
        for a in mod_elements(I.module)
    }
    act = Action(Q, I, {("f", (1,)): table})
    with pytest.raises(ValidationError) as err:
        act.validate()
    assert err.value.clause == "T4"


def test_semidirect_direct_product(datum):
    Q, I = datum
    one = one_of(Q)
    raw = SemidirectProduct(Cocycle.zero(Q, I))
    assert raw.is_legal()
    assert raw.add((one, Q.module.zero()), (I.module.zero(), one)) == (one, one)


def test_semidirect_rebuilds_f2(datum):
    Q, I = datum
    one = one_of(Q)
    raw = SemidirectProduct(f2_cocycle())
    assert raw.is_legal()
    value = raw.apply_op("f", [(I.module.zero(), one), (I.module.zero(), one)])
    assert value == (one, Q.module.zero())
    A, _, _ = raw.to_algebra()
    assert find_isomorphism(A, f2_algebra()) is not None


def test_semidirect_group_cocycle_m2_invalid(datum):
    Q, I = datum
    one = one_of(Q)
    T = Cocycle.from_cells(Action.trivial(Q, I), tplus_cells={(one, one): one})
    raw = SemidirectProduct(T)
    ok, reason = raw.legality()
    assert not ok
    assert "annihilated" in reason
    # the order-4 witness from the table itself
    u = (I.module.zero(), one)
    two_u = raw.add(u, u)
    assert two_u == (one, Q.module.zero())
    with pytest.raises(MlexError):
        raw.to_algebra()


def test_semidirect_group_cocycle_m4_gives_z4():
    Q, I = pure_datum_m4()
    one = Q.module.element((1,))
    T = Cocycle.from_cells(Action.trivial(Q, I), tplus_cells={(one, one): one})
    raw = SemidirectProduct(T)
    assert raw.is_legal()
    A, _, _ = raw.to_algebra()
    assert A.module.factors == (4,)


def test_realization_full_enumeration():
    """Every cocycle over the F1 datum (including free scalar factor sets)
    is realized by its semidirect table with the canonical lifting."""
    cocycles = all_f1_cocycles()
    assert len(cocycles) == 64
    for T in cocycles:
        T.validate()
        assert realizes_raw(SemidirectProduct(T), T)


def test_realization_other_datum():
    """Realization needs no legality: raw tables over the Z/4 pure-module
    datum satisfy the defining equations as well."""
    from mlex.cohomology import enumerate_cocycles

    Qp, Ip = pure_datum_m4()
    for T in enumerate_cocycles(Qp, Ip):
        assert realizes_raw(SemidirectProduct(T), T)


def test_realizes_extension_record(datum):
    T = f2_cocycle()
    E, _, _ = SemidirectProduct(T).extension_record()
    E.validate()
    assert realizes(E, T)
    # a factor set from a different cocycle is rejected
    Q, I = T.Q, T.I
    T0 = Cocycle.zero(Q, I)
    assert not realizes(E, T0)


def one_cell_changes(T):
    """Every cocycle that differs from T in exactly one cell of one table."""

    def others(v):
        return [w for w in mod_elements(T.I.module) if w != v]

    factor_sets = {"tplus": T.tplus, "tr": T.tr, "tf": T.tf}
    for name, table in factor_sets.items():
        for key, v in table.items():
            for w in others(v):
                changed = dict(factor_sets, **{name: {**table, key: w}})
                yield Cocycle(T.action, changed["tplus"], changed["tr"], changed["tf"])
    for slot, table in T.action.tables.items():
        for key, v in table.items():
            for w in others(v):
                tables = dict(T.action.tables)
                tables[slot] = {**table, key: w}
                yield Cocycle(Action(T.Q, T.I, tables), T.tplus, T.tr, T.tf)


def test_realization_rejects_one_cell_changes():
    """Changing any single cell of T+, Tr, Tf or an action table breaks
    realization, on the raw table and, when legal, on its extension."""
    from mlex.cohomology import enumerate_cocycles

    cocycles = all_f1_cocycles() + list(enumerate_cocycles(*pure_datum_m4()))
    for T in cocycles:
        raw = SemidirectProduct(T)
        E = raw.extension_record()[0] if raw.is_legal() else None
        changed = list(one_cell_changes(T))
        assert len(changed) >= 8
        for T2 in changed:
            assert not realizes_raw(raw, T2)
            assert E is None or not realizes(E, T2)


def test_extract_rejects_liftings_that_are_not_sections():
    """A lifting into the wrong fibres sends a factor set outside the
    kernel, and the error names the family that left it."""
    Z22 = ZmModule(2, (2, 2))
    Q = Algebra(Z22, {"f": MultilinearOp("f", 2, Z22, {(0, 0): Z22.generator(0)})})
    _, I = f1_datum()
    E, _, _ = SemidirectProduct(Cocycle.zero(Q, I)).extension_record()
    e1, e2 = Z22.generators()
    # e1 takes the lift of e2 and nothing else moves: not additive modulo
    # the kernel at (e1, e2)
    moved = dict(E.lifting)
    moved[e1] = E.lifting[e2]
    with pytest.raises(ConsistencyError, match="^group factor set landed outside"):
        extract_cocycle(with_lifting(E, moved))
    # swapping the fibres is additive, but f(e1, e1) = e1 while f(e2, e2) = 0
    swapped = {x: E.lifting[Z22.element(x.coords[::-1])] for x in mod_elements(Z22)}
    with pytest.raises(ConsistencyError, match="^factor set for f landed outside"):
        extract_cocycle(with_lifting(E, swapped))


def test_extract_round_trip(datum):
    T = f2_cocycle()
    E, _, _ = SemidirectProduct(T).extension_record()
    T2 = extract_cocycle(E)
    one = one_of(T.Q)
    assert T2.tf[("f", (one, one))] == one
    assert T2.is_group_trivial_table()
    assert T2.is_action_trivial()
    assert psi_isomorphism(E, T2) is not None


def test_extract_split_extension_zero_factor_sets(datum):
    """A homomorphic lifting yields only action terms."""
    Q, I = datum
    act = side_action()
    T = Cocycle.zero(Q, I, act)
    raw = SemidirectProduct(T)
    assert raw.is_legal()
    E, encode, _ = raw.extension_record()
    T2 = extract_cocycle(E)
    assert T2.factor_sets_zero()
    # direct product with trivial action as well
    E0, _, _ = SemidirectProduct(Cocycle.zero(Q, I)).extension_record()
    assert extract_cocycle(E0).factor_sets_zero()


def test_extracted_cocycles_telescope(datum):
    for T in [f2_cocycle(), Cocycle.zero(*reversed(f1_datum()))]:
        raw = SemidirectProduct(T)
        if not raw.is_legal():
            continue
        E, _, _ = raw.extension_record()
        for lifting in all_liftings(E):
            T = extract_cocycle(with_lifting(E, lifting))
            assert T.tr == T._telescoped_tr()


def test_liftings_give_equivalent_cocycles(datum):
    T = f2_cocycle()
    E, _, _ = SemidirectProduct(T).extension_record()
    lifts = all_liftings(E)
    assert len(lifts) == 2
    cocycles = [extract_cocycle(with_lifting(E, l)) for l in lifts]
    for Ta in cocycles:
        for Tb in cocycles:
            assert equivalent(Ta, Tb) is not None


def test_equivalence_properties(datum):
    Q, I = datum
    zero_h = {x: I.module.zero() for x in mod_elements(Q.module)}
    T = f2_cocycle()
    assert equivalent(T, T) == zero_h
    Tz = Cocycle.zero(Q, I)
    assert equivalent(T, Tz) is None
    assert equivalent(Tz, T) is None
    # symmetry and transitivity over the compatible suite
    mlf = mlf_variety(sig_f())
    compat = [
        C for C in all_f1_cocycles() if SemidirectProduct(C).is_legal()
    ]
    for Ta in compat:
        for Tb in compat:
            ab = equivalent(Ta, Tb)
            ba = equivalent(Tb, Ta)
            assert (ab is None) == (ba is None)
    for Ta in compat[:4]:
        for Tb in compat:
            if equivalent(Ta, Tb) is None:
                continue
            for Tc in compat:
                if equivalent(Tb, Tc) is not None:
                    assert equivalent(Ta, Tc) is not None


def test_equivalence_preserves_compatibility(datum):
    mlf = mlf_variety(sig_f())
    leib = leibniz_variety()
    compat = all_f1_cocycles()
    legal = [C for C in compat if SemidirectProduct(C).is_legal()]
    for Ta in legal[:6]:
        for Tb in legal:
            if equivalent(Ta, Tb) is None:
                continue
            for V in (mlf, leib):
                assert is_compatible(Ta, V) == is_compatible(Tb, V)


def test_coboundary_examples(datum):
    Q, I = datum
    one = one_of(Q)
    act = Action.trivial(Q, I)
    zero_h = {x: I.module.zero() for x in mod_elements(Q.module)}
    G = coboundary(zero_h, act)
    assert G.factor_sets_zero() and G.action.is_trivial()
    h = dict(zero_h)
    h[one] = one
    G1 = coboundary(h, act)
    assert G1.tf[("f", (one, one))].is_zero()
    assert all(v.is_zero() for v in G1.tplus.values())
    with pytest.raises(MlexError):
        coboundary({Q.module.zero(): one, one: one}, act)


def test_coboundary_is_cocycle_and_compatible(datum):
    """Coboundaries satisfy the normalization conditions and are
    compatible with any variety containing the datum."""
    Q, I = datum
    mlf = mlf_variety(sig_f())
    leib = leibniz_variety()
    for act in enumerate_actions(Q, I):
        for h in all_witness_maps(Q, I):
            G = coboundary(h, act)
            G.validate()
            assert is_compatible(G, mlf)
            assert is_compatible(G, leib)


def test_coboundary_shift_is_equivalence(datum):
    """Subtracting the coboundary of h over a cocycle's own action gives an
    equivalent cocycle; with a foreign reference action it need not.

    The second half pins the reason the equivalence test is the
    isomorphism criterion rather than a raw difference test: a coboundary
    over a nontrivial reference action can coincide, as a table, with a
    cocycle that is not split."""
    Q, I = datum
    Im = I.module
    for act in enumerate_actions(Q, I):
        base = Cocycle.zero(Q, I, act)
        for h in all_witness_maps(Q, I):
            G = coboundary(h, act)
            if not G.action.is_trivial():
                continue
            shifted = Cocycle(
                act,
                {k: Im.sub(base.tplus[k], G.tplus[k]) for k in base.tplus},
                {k: Im.sub(base.tr[k], G.tr[k]) for k in base.tr},
                {k: Im.sub(base.tf[k], G.tf[k]) for k in base.tf},
            )
            assert equivalent(base, shifted) is not None
    # the F2 table is the coboundary of h over a one-sided action, yet it
    # is not equivalent to the zero cocycle
    one = one_of(Q)
    act = side_action(slot=0)
    h = {Q.module.zero(): I.module.zero(), one: one}
    G = coboundary(h, act)
    assert G.tf[("f", (one, one))] == one and G.action.is_trivial()
    assert equivalent(G, Cocycle.zero(Q, I)) is None


def test_affine_coboundary_formula(datum):
    """For unary actions with abelian kernel the operation coboundary is
    the single-sum expression."""
    Q, I = datum
    act = side_action()
    one = one_of(Q)
    for h in all_witness_maps(Q, I):
        G = coboundary(h, act)
        for xs in itertools.product(mod_elements(Q.module), repeat=2):
            expected = I.module.zero()
            for i in range(2):
                hvec = tuple(h[x] for x in xs)
                expected = I.module.add(
                    expected, act.value("f", (i,), xs, hvec)
                )
            expected = I.module.sub(expected, h[Q.eval_op("f", xs)])
            assert G.tf[("f", xs)] == expected
        assert G.action.is_trivial()


def test_is_compatible_examples(datum):
    Q, I = datum
    mlf = mlf_variety(sig_f())
    assert is_compatible(Cocycle.zero(Q, I), mlf)
    assert is_compatible(f2_cocycle(), leibniz_variety())
    one = one_of(Q)
    Tbad = Cocycle.from_cells(Action.trivial(Q, I), tplus_cells={(one, one): one})
    assert not is_compatible(Tbad, mlf)


def test_is_compatible_datum_error():
    Z2 = ZmModule(2, (2,))
    bad = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    good = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {})})
    alt = Variety("alt", sig_f(), (parse_identity("f(x,x) = 0", sig_f()),))
    T = Cocycle.zero(bad, good)
    with pytest.raises(DatumError):
        is_compatible(T, alt)


def test_kernel_kind(datum):
    Q, I = datum
    kinds = kernel_kind(f2_cocycle())
    assert kinds == {"abelian": True, "central": True}
    kinds = kernel_kind(Cocycle.zero(Q, I))
    assert kinds == {"abelian": True, "central": True}
    T = Cocycle.zero(Q, I, side_action())
    kinds = kernel_kind(T)
    assert kinds == {"abelian": True, "central": False}
    # nonabelian kernel
    bad = nonabelian_kernel()
    Qz, _ = f1_datum()
    Tn = Cocycle.zero(Qz, bad)
    kinds = kernel_kind(Tn)
    assert kinds == {"abelian": False, "central": False}


def test_kernel_kind_over_all_compatible(datum):
    mlf = mlf_variety(sig_f())
    seen = set()
    for T in all_f1_cocycles():
        raw = SemidirectProduct(T)
        if not raw.is_legal():
            continue
        kinds = kernel_kind(T)  # raises ConsistencyError on disagreement
        seen.add((kinds["abelian"], kinds["central"]))
    assert (True, True) in seen
    assert (True, False) in seen


def test_decompose_f2():
    F2 = f2_algebra()
    for kind in ("nilpotent", "solvable"):
        d = decompose(F2, kind)
        assert d.verified
        assert len(d.stages) == 1
        assert d.stages[0].kernel.module.size() == 2
        assert d.stages[0].cocycle.is_action_trivial()
        one = d.stages[0].cocycle.Q.module.element((1,))
        assert d.stages[0].cocycle.tf[("f", (one, one))] == d.stages[
            0
        ].cocycle.I.module.element((1,))


def test_decompose_s3():
    S3 = s3_algebra()
    d = decompose(S3, "solvable")
    assert d.verified
    assert len(d.stages) == 2
    assert all(st.cocycle.is_linear() for st in d.stages)
    d2 = decompose(S3, "nilpotent")
    assert d2.verified
    assert all(st.cocycle.is_action_trivial() for st in d2.stages)


def test_decompose_degenerate_cases():
    Z2 = ZmModule(2, (2,))
    ab = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {})})
    d = decompose(ab, "solvable")
    assert d.stages == [] and d.verified
    zero_alg = Algebra(ZmModule(2, ()), {"f": MultilinearOp("f", 2, ZmModule(2, ()), {})})
    d = decompose(zero_alg, "nilpotent")
    assert d.stages == [] and d.verified
    bad = nonabelian_kernel()
    with pytest.raises(MlexError):
        decompose(bad, "solvable")


def test_lifting_difference_is_coboundary_mod4():
    """On the Z4 -> Z2 extension (nontrivial group factor set, m = 4),
    the cocycles of two liftings differ exactly by the coboundary of the
    lifting difference, including the telescoped scalar factor sets."""
    from fixture_lib import hs_fixture_c
    from mlex.algebra import quotient, subalgebra

    M, ideal, _, _, _ = hs_fixture_c()
    Q, pi, section = quotient(M, ideal)
    I_alg, iota, to_I = subalgebra(M, ideal.elements)
    from mlex.cocycle import ExtensionRecord

    E = ExtensionRecord(M, Q, I_alg, pi, iota, dict(section))
    E.validate()
    lifts = all_liftings(E)
    assert len(lifts) == 2
    Ta = extract_cocycle(with_lifting(E, lifts[0]))
    Tb = extract_cocycle(with_lifting(E, lifts[1]))
    h = {
        x: to_I[M.module.sub(lifts[0][x], lifts[1][x])]
        for x in mod_elements(Q.module)
    }
    G = coboundary(h, Ta.action)
    diff = Ta.sub(Tb)
    assert diff.tplus == G.tplus
    assert diff.tr == G.tr
    assert diff.tf == G.tf
    assert equivalent(Ta, Tb) is not None


def test_nonabelian_kernel_coboundary_shifts_action(datum):
    """With a nonzero kernel operation, changing the lifting adjusts the
    action tables; extracted cocycles stay pairwise equivalent."""
    Q, _ = datum
    In = nonabelian_kernel()
    one = Q.module.element((1,))
    e = In.module.element((1,))
    h = {Q.module.zero(): In.module.zero(), one: e}
    G = coboundary(h, Action.trivial(Q, In))
    # the adjustment is the kernel operation applied against h
    assert G.action.value("f", (0,), (one, one), (e, In.module.zero())) == e
    T = Cocycle.zero(Q, In)
    raw = SemidirectProduct(T)
    assert raw.is_legal()
    E, _, _ = raw.extension_record()
    cocycles = [extract_cocycle(with_lifting(E, l)) for l in all_liftings(E)]
    assert any(
        ca.action != cb.action for ca in cocycles for cb in cocycles
    )
    for ca in cocycles:
        for cb in cocycles:
            assert equivalent(ca, cb) is not None


def test_enumerate_classes_over_nonabelian_kernel(datum):
    from mlex.cohomology import enumerate_h2

    Q, _ = datum
    In = nonabelian_kernel()
    classes = enumerate_h2(Q, In, mlf_variety(sig_f()))
    assert len(classes) == 4
    assert all(c.size() == 2 for c in classes)


def test_h2_morphism_predicate(datum):
    Q, I = datum
    T = f2_cocycle()
    zero_h = {x: I.module.zero() for x in mod_elements(Q.module)}
    ident = LinMap.identity(I.module)
    # the identity morphism in the emended reading
    assert is_h2_morphism(T, T, ident, zero_h, LinMap.identity(Q.module), emend=True)
    # equivalence witnesses are morphisms with identity components
    E, _, _ = SemidirectProduct(T).extension_record()
    lifts = all_liftings(E)
    Ta, Tb = (extract_cocycle(with_lifting(E, l)) for l in lifts)
    h = equivalent(Ta, Tb)
    assert is_h2_morphism(
        Ta, Tb, ident, h, LinMap.identity(Q.module), emend=True
    )
    # the literal reading types here because Q = I structurally
    assert is_h2_morphism(T, T, ident, zero_h, LinMap.identity(Q.module), emend=False)


def legal_t1_t4(T):
    try:
        return T.validate() and SemidirectProduct(T).is_legal()
    except MlexError:
        return False


@settings(max_examples=100, deadline=None)
@given(cocycles(arities=(1, 2, 3), defects=["none", "tplus"]).filter(legal_t1_t4))
def test_extract_cocycle_of_the_semidirect_product_returns_it(T):
    E, _, _ = SemidirectProduct(T).extension_record()
    assert extract_cocycle(E) == T
