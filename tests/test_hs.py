import itertools

import pytest

from mlex.errors import ConsistencyError, MlexError
from mlex.modcore import mod_elements
from mlex.algebra import ideal_generated, subalgebra
from mlex.cocycle import (
    Action,
    Cocycle,
    coboundary,
    mlf_variety,
)
from mlex.cohomology import derivations, h2_affine
from mlex import workspace
from mlex.hs import (
    CoefficientEmbedding,
    HSDatum,
    _restrict_action,
    inflation_cocycle,
    inflation_derivation,
    null_submodule,
    restriction_derivation,
    square_condition,
    transgression,
    verify_hs,
)
from oracles import all_witness_maps, first_box_helper, h_key
from fixture_lib import (
    HS_TWIST_FILE,
    f2_algebra,
    hs_fixture_a,
    hs_fixture_b,
    hs_fixture_c,
    hs_fixture_d,
    hs_fixture_unary,
    sig_f,
)


@pytest.fixture(scope="module")
def datum_a():
    return HSDatum(*hs_fixture_a())


@pytest.fixture(scope="module")
def datum_b():
    return HSDatum(*hs_fixture_b())


@pytest.fixture(scope="module")
def datum_c():
    return HSDatum(*hs_fixture_c())


def twist_datum():
    ws = workspace.load_text(HS_TWIST_FILE)
    M, A = ws.algebra("M"), ws.algebra("A")
    return HSDatum(M, ws.ideal("I"), A, ws.action("act"), mlf_variety(sig_f()))


def test_null_submodule_trivial_action(datum_a):
    # trivial action: the whole coefficient module survives
    assert len(datum_a.null_set) == datum_a.A.module.size()


def test_null_submodule_zero_ideal():
    M, ideal, A, action, V = hs_fixture_b()
    zero_ideal_set = {M.module.zero()}
    N = null_submodule(zero_ideal_set, action)
    assert N == set(mod_elements(A.module))


def test_null_submodule_projection_kernel(datum_b):
    assert sorted(e.coords for e in datum_b.null_set) == [(0, 0), (1, 0)]
    # fixpoint stabilizes at the kernel of the ideal-restricted action
    M, ideal, A, action, V = hs_fixture_b()
    direct = {
        a
        for a in mod_elements(A.module)
        if all(
            action.value("f", (1,), (b, b), (a, a)).is_zero()
            for b in ideal.elements
        )
    }
    assert datum_b.null_set == direct


def test_induced_action_well_defined(datum_b):
    # every representative gives the same induced value (checked again
    # here through the public tables)
    ind = datum_b.induced
    for (f, s), table in ind.tables.items():
        for (qoff, asub), v in table.items():
            for reps in itertools.product(
                *(
                    [m for m in mod_elements(datum_b.M.module) if datum_b.pi(m) == q]
                    for q in qoff
                )
            ):
                got = datum_b.action.value(
                    f, s, _fill(len(qoff) + len(s), s, reps),
                    _fill_i(len(qoff) + len(s), s, [datum_b.coeff.embed(a) for a in asub], datum_b.A.module)
                )
                assert got == datum_b.coeff.embed(v)


def _fill(n, slots, offvals):
    out = [None] * n
    off = [i for i in range(n) if i not in slots]
    for i, v in zip(off, offvals):
        out[i] = v
    for i in slots:
        out[i] = offvals[0]  # irrelevant entry
    return tuple(out)


def _fill_i(n, slots, vals, module):
    out = [module.zero()] * n
    for i, v in zip(slots, vals):
        out[i] = v
    return tuple(out)


def test_induced_action_nontrivial():
    datum = twist_datum()
    M = datum.M
    assert sorted(e.coords for e in datum.null_set) == [(0, 0), (1, 0)]
    assert not datum.induced.is_trivial()
    assert datum.induced.pull_back(M, datum.pi) == datum.action_M_AI
    # coboundaries inflate to the coboundaries of h o pi, actions included
    for h in all_witness_maps(datum.Q, datum.coeff.algebra):
        h_up = {m: h[datum.pi(m)] for m in mod_elements(M.module)}
        expected = coboundary(h_up, datum.action_M_AI)
        assert inflation_cocycle(datum, coboundary(h, datum.induced)) == expected


def test_restriction_to_a_subset_the_action_leaves():
    # (0,1) is sent to (1,0) by the kernel generator
    M, ideal, A, action, V = hs_fixture_b()
    subset = {A.module.zero(), A.module.element((0, 1))}
    with pytest.raises(ConsistencyError, match="does not close on the null submodule"):
        _restrict_action(action, CoefficientEmbedding(*subalgebra(A, subset)))


def test_induced_action_trivial_cases(datum_a, datum_c):
    assert datum_a.induced.is_trivial()
    assert datum_c.induced.is_trivial()


def test_ideal_action_on_null_submodule_vanishes(datum_b):
    assert datum_b.action_I_AI.is_trivial()


def test_inflation_derivation(datum_b):
    ders_Q = derivations(datum_b.Q, datum_b.coeff.algebra, datum_b.induced)
    ders_M = derivations(datum_b.M, datum_b.coeff.algebra, datum_b.action_M_AI)
    keys_M = {h_key(d, datum_b.M) for d in ders_M}
    for d in ders_Q:
        assert h_key(inflation_derivation(datum_b, d), datum_b.M) in keys_M
    # zero maps to zero
    zero = {x: datum_b.coeff.algebra.module.zero() for x in mod_elements(datum_b.Q.module)}
    infl = inflation_derivation(datum_b, zero)
    assert all(v.is_zero() for v in infl.values())


def test_inflation_cocycle_and_coboundaries(datum_b):
    AI = datum_b.coeff.algebra
    # coboundaries inflate to coboundaries, witnessed by h o pi
    for h in all_witness_maps(datum_b.Q, AI):
        G = coboundary(h, datum_b.induced)
        G_up = inflation_cocycle(datum_b, G)
        h_up = {m: h[datum_b.pi(m)] for m in mod_elements(datum_b.M.module)}
        expected = coboundary(h_up, datum_b.action_M_AI)
        assert G_up.tplus == expected.tplus
        assert G_up.tr == expected.tr
        assert G_up.tf == expected.tf


def test_restriction_and_square(datum_b):
    AI = datum_b.coeff.algebra
    ders_M = derivations(datum_b.M, AI, datum_b.action_M_AI)
    for d in ders_M:
        d_I = restriction_derivation(datum_b, d)
        assert square_condition(datum_b, d_I)
    # inflations restrict to zero
    ders_Q = derivations(datum_b.Q, AI, datum_b.induced)
    for d in ders_Q:
        rest = restriction_derivation(datum_b, inflation_derivation(datum_b, d))
        assert all(v.is_zero() for v in rest.values())


def test_square_general_form(datum_a, datum_b, datum_c):
    """Every derivation the box condition accepts has a helper map for
    the paper's printed two-sum identity."""
    more = [HSDatum(*hs_fixture_d()), HSDatum(*hs_fixture_unary())]
    for datum in (datum_a, datum_b, datum_c, twist_datum(), *more):
        AI = datum.coeff.algebra
        for d in derivations(datum.I_alg, AI, datum.action_I_AI):
            if square_condition(datum, d):
                assert first_box_helper(datum, d) is not None


def test_square_derivations_form_subgroup(datum_b):
    AI = datum_b.coeff.algebra
    ders = derivations(datum_b.I_alg, AI, datum_b.action_I_AI)
    boxed = [d for d in ders if square_condition(datum_b, d)]
    keys = {h_key(d, datum_b.I_alg) for d in boxed}
    for d1 in boxed:
        for d2 in boxed:
            s = {b: AI.module.add(d1[b], d2[b]) for b in d1}
            assert h_key(s, datum_b.I_alg) in keys


def test_transgression_examples(datum_b):
    AI = datum_b.coeff.algebra
    zero = {b: AI.module.zero() for b in mod_elements(datum_b.I_alg.module)}
    S = transgression(datum_b, zero)
    assert S.factor_sets_zero()
    ders = derivations(datum_b.I_alg, AI, datum_b.action_I_AI)
    nonzero = [d for d in ders if any(not v.is_zero() for v in d.values())]
    assert nonzero
    H = h2_affine(datum_b.Q, AI, datum_b.induced, datum_b.variety)
    hit = {H.class_of(transgression(datum_b, d)) for d in nonzero}
    assert any(any(c) for c in hit)


def test_transgression_representative_independent(datum_a):
    """Shifting the extension cocycle by a coboundary leaves the
    transgressed class unchanged."""
    AI = datum_a.coeff.algebra
    ders = [
        d
        for d in derivations(datum_a.I_alg, AI, datum_a.action_I_AI)
        if square_condition(datum_a, d)
    ]
    H = h2_affine(datum_a.Q, AI, datum_a.induced, datum_a.variety)
    T = datum_a.T
    for d in ders:
        base = transgression(datum_a, d)
        base_class = H.class_of(base)
        for h in all_witness_maps(datum_a.Q, datum_a.I_alg):
            G = coboundary(h, T.action)
            if not G.action.is_trivial():
                continue
            shifted = Cocycle(
                T.action,
                {k: datum_a.I_alg.module.add(T.tplus[k], G.tplus[k]) for k in T.tplus},
                {k: datum_a.I_alg.module.add(T.tr[k], G.tr[k]) for k in T.tr},
                {k: datum_a.I_alg.module.add(T.tf[k], G.tf[k]) for k in T.tf},
            )
            moved = Cocycle(
                datum_a.induced,
                {k: d[v] for k, v in shifted.tplus.items()},
                {k: d[v] for k, v in shifted.tr.items()},
                {k: d[v] for k, v in shifted.tf.items()},
            )
            assert H.class_of(moved) == base_class


def test_transgression_then_inflation_vanishes(datum_b):
    """The composite of transgression and inflation is a coboundary,
    witnessed by d composed with the canonical kernel retraction."""
    AI = datum_b.coeff.algebra
    ders = [
        d
        for d in derivations(datum_b.I_alg, AI, datum_b.action_I_AI)
        if square_condition(datum_b, d)
    ]
    for d in ders:
        S = transgression(datum_b, d)
        S_up = inflation_cocycle(datum_b, S)
        witness = {}
        for m in mod_elements(datum_b.M.module):
            s_m = datum_b.M.module.sub(datum_b.section[datum_b.pi(m)], m)
            witness[m] = d[datum_b.to_I[s_m]]
        G = coboundary(witness, datum_b.action_M_AI)
        assert G.tplus == S_up.tplus
        assert G.tr == S_up.tr
        assert G.tf == S_up.tf


def test_verify_hs_fixtures(datum_a, datum_b, datum_c):
    for datum, expect_sizes in (
        (datum_a, {"H1(Q)": 2, "H1(M)": 2, "Der_box(I)": 2, "H2(Q)": 2}),
        (datum_b, {"H1(Q)": 2, "H1(M)": 2, "Der_box(I)": 2, "H2(Q)": 2}),
        (datum_c, {"H1(Q)": 2, "H1(M)": 2, "Der_box(I)": 2, "H2(Q)": 4}),
    ):
        report = verify_hs(datum)
        assert report.passed, report.checks
        for key, val in expect_sizes.items():
            assert report.sizes[key] == val


def test_hs_degenerate_whole_ideal():
    """Quotient by the whole algebra: the induced datum collapses to the
    zero quotient and the sequence stays exact."""
    from mlex.algebra import whole_ideal
    from fixture_lib import zero_binary_algebra, z2

    F2 = f2_algebra()
    A = zero_binary_algebra(z2())
    datum = HSDatum(F2, whole_ideal(F2), A, Action.trivial(F2, A), mlf_variety(sig_f()))
    assert datum.Q.module.size() == 1
    report = verify_hs(datum)
    assert report.passed
    assert report.sizes["H1(Q)"] == 1 and report.sizes["H2(Q)"] == 1
    # a split extension cocycle transgresses to the zero class
    AI = datum.coeff.algebra
    for d in derivations(datum.I_alg, AI, datum.action_I_AI):
        if square_condition(datum, d):
            S = transgression(datum, d)
            H = h2_affine(datum.Q, AI, datum.induced, datum.variety)
            assert H.class_of(S) == H.zero_class()


def test_hs_rejects_nonabelian_coefficients():
    F2 = f2_algebra()
    ideal = ideal_generated(F2, [F2.module.element((1, 0))])
    with pytest.raises(MlexError):
        HSDatum(F2, ideal, F2, Action.trivial(F2, F2), mlf_variety(sig_f()))
