"""Lifting changes, derivation spaces and homomorphism checks against
their exhaustive oracles.

``equivalent``, ``coboundary``, ``derivations`` and ``shift_by_coboundary``
evaluate lifting changes through the one realization routine,
``LiftingChanges.changes`` finds the maps with a given group factor set and
``derivations_of`` and ``compatible_pairs`` find their maps by one
congruence solve, ``pair_is_compatible`` checks one cell per action-table
key, ``is_homomorphism`` checks generator tuples only, and ``AffineH2``
linearizes the strict identities of the expander on integer index tables
and writes its coboundaries in closed form.  The oracles in
``oracles.py`` decide the same questions cell by cell, by the
alternating-sign formula, by sampling the raw semidirect product, on
``Element``s, by relifting the split table or by listing every map; the affine classes are also compared with the
exhaustive ``enumerate_h2``, and equivalence with equality of their
``class_of``; the tower ``decompose`` builds is compared with the algebra
by the exhaustive isomorphism search.  The data cover moduli 2, 3, 4
and 6, arities 1 to 3 and nonzero kernel operations: a sign error is
invisible mod 2.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mlex
from mlex import modcore

from mlex.errors import ConsistencyError, MlexError, ValidationError
from mlex.modcore import Congruences, LinMap, ZmModule, mod_elements, smith_normal_form
from mlex.algebra import Algebra, MultilinearOp, find_isomorphism, is_homomorphism, series
from mlex.termlang import (
    Apply,
    Neg,
    Plus,
    Scalar,
    Signature,
    Var,
    Variety,
    counterexample,
    holds,
    parse_identity,
)
from mlex.expander import soundness_check
from mlex.cocycle import (
    Action,
    Cocycle,
    DatumError,
    LiftingChanges,
    SemidirectProduct,
    coboundary,
    decompose,
    equivalent,
    is_compatible,
    mlf_variety,
    relift,
)
from mlex.cohomology import (
    AffineH2,
    _factor_set_cells,
    derivations,
    enumerate_h2,
    h1,
)
from mlex.derlie import (
    check_jacobi,
    compatible_pairs,
    derivations_of,
    group_trivialize,
    lin_add,
    pair_is_compatible,
    shift_by_coboundary,
)

from oracles import (
    all_witness_maps,
    breadth_first_principal,
    breadth_first_span,
    coboundary_formula,
    coboundary_table,
    element_constraint_rows,
    exhaustive_check_jacobi,
    exhaustive_compatible_pairs,
    exhaustive_derivations_of,
    exhaustive_is_homomorphism,
    full_cell_pair_is_compatible,
    h_key,
    isomorphism_witness,
    pairwise_closed,
    per_assignment_soundness_check,
    per_call_lifting_changes,
    quadratic_h1,
    reference_smith_normal_form,
    relifted_unit_vectors,
    sampled_constraint_rows,
)
from fixture_lib import side_action
from strategies import (
    PRESENTATIONS,
    cocycles,
    draw_algebra,
    draw_map,
    linear_maps,
    size,
    witness_maps,
)

ARITIES = (1, 2, 3)


def satisfies_t1_t4(T):
    try:
        return T.validate()
    except MlexError:
        return False


def valid_cocycles(**kwargs):
    """Cocycles meeting T1-T4, with legal or illegal semidirect tables."""
    return cocycles(arities=ARITIES, **kwargs).filter(satisfies_t1_t4)


def actions():
    """Genuine actions, or trivial ones, with or without kernel operations."""
    drawn = st.booleans().flatmap(
        lambda affine: cocycles(arities=ARITIES, defects=["none"], affine=affine)
    ).map(lambda T: T.action)
    return st.one_of(drawn, drawn.map(lambda a: Action.trivial(a.Q, a.I)))


@st.composite
def partners(draw, T):
    """T itself, T read through a drawn lifting change, or that with one
    cell changed."""
    kind = draw(st.sampled_from(["same", "relifted", "poked"]))
    if kind == "same":
        return T
    tplus, tr, tf, tables = relift(SemidirectProduct(T), draw(witness_maps(T.Q, T.I)))
    Tp = Cocycle(Action(T.Q, T.I, tables), tplus, tr, tf)
    if kind == "poked":
        table = draw(st.sampled_from([Tp.tplus, Tp.tr, Tp.tf, *Tp.action.tables.values()]))
        key = draw(st.sampled_from(sorted(table, key=repr)))
        table[key] = draw(st.sampled_from(mod_elements(T.I.module)))
    return Tp


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equivalent_returns_the_isomorphism_witness(data):
    """A poked partner outside T1-T4 is rejected with its clause."""
    T = data.draw(valid_cocycles())
    Tp = data.draw(partners(T))
    try:
        Tp.validate()
    except ValidationError as invalid:
        with pytest.raises(ValidationError) as err:
            equivalent(T, Tp)
        assert err.value.clause == invalid.clause
        return
    assert equivalent(T, Tp) == isomorphism_witness(T, Tp)


# Largest number of maps Q -> I for the lifting-change cases.
MAX_MAPS = 729


@st.composite
def map_data(draw):
    """Modules Q and I small enough to list every map Q -> I."""
    m = draw(st.sampled_from(sorted(PRESENTATIONS)))
    qf, if_ = draw(
        st.sampled_from(
            [
                (a, b)
                for a in PRESENTATIONS[m]
                for b in PRESENTATIONS[m]
                if size(b) ** (size(a) - 1) <= MAX_MAPS
            ]
        )
    )
    Q = draw_algebra(draw, ZmModule(m, qf), 2, abelian=True)
    return Q, draw_algebra(draw, ZmModule(m, if_), 2, abelian=True)


@st.composite
def lifting_change_data(draw):
    """Modules Q and I from ``map_data`` and a table D: see
    ``group_factor_tables``."""
    Q, I = draw(map_data())
    return Q, I, draw(group_factor_tables(Q, I))


@st.composite
def group_factor_tables(draw, Q, I):
    """The group factor set of a drawn map, that with one cell changed, or
    a table zero on the zero cells and arbitrary elsewhere."""
    ins = mod_elements(I.module)
    D = coboundary_table(draw(witness_maps(Q, I)), Q, I)
    keys = sorted(D, key=lambda k: (k[0].coords, k[1].coords))
    kind = draw(st.sampled_from(["coboundary", "poked", "arbitrary"]))
    if kind == "poked":
        D[draw(st.sampled_from(keys))] = draw(st.sampled_from(ins))
    elif kind == "arbitrary":
        for x, y in keys:
            if not (x.is_zero() or y.is_zero()):
                D[(x, y)] = draw(st.sampled_from(ins))
    return D


@settings(max_examples=200, deadline=None)
@given(lifting_change_data())
def test_lifting_changes_are_the_maps_with_that_group_factor_set(case):
    Q, I, D = case
    expected = [h for h in all_witness_maps(Q, I) if coboundary_table(h, Q, I) == D]
    assert LiftingChanges(Q, I).changes(D) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_group_of_lifting_changes_answers_each_table_as_its_own_solve(data):
    """One factored δ serves every table D of its datum."""
    Q, I = data.draw(map_data())
    changes = LiftingChanges(Q, I)
    for _ in range(3):
        D = data.draw(group_factor_tables(Q, I))
        assert changes.changes(D) == per_call_lifting_changes(Q, I, D)


@st.composite
def map_sets(draw):
    """A datum and a set of maps Q -> I: the span of up to three drawn
    maps, that without one of its maps, or with one more drawn map."""
    Q, I = draw(map_data())
    gens = [draw(witness_maps(Q, I)) for _ in range(draw(st.integers(0, 3)))]
    maps = breadth_first_span(gens, Q, I)
    kind = draw(st.sampled_from(["span", "dropped", "extra"]))
    if kind == "dropped" and len(maps) > 1:
        maps.pop(draw(st.integers(0, len(maps) - 1)))
    elif kind == "extra":
        extra = draw(witness_maps(Q, I))
        if extra not in maps:
            maps.append(extra)
    return Q, I, gens, maps


@settings(max_examples=200, deadline=None)
@given(map_sets())
def test_span_and_subgroup_test_match_pairwise_routes(case):
    Q, I, gens, maps = case
    changes = LiftingChanges(Q, I)
    assert changes.span(gens) == breadth_first_span(gens, Q, I)
    assert changes.is_subgroup(maps) == pairwise_closed(maps, Q, I)


# Largest |Q| * |I| for the first cohomology cases: the principal
# candidates are checked at every element of the product, by the library
# and again by the oracle.
MAX_PRODUCT = 8


def nilpotent_action():
    """Z2 acting on Z2^3 by a(f, {2})(1 | a) = (a_2, 0, 0): the derivations
    are the maps into the kernel {a_2 = 0} of that slot map, and the
    principal ones those into its image, so two of four cosets are one."""
    Q, I = (
        Algebra(M, {"f": MultilinearOp("f", 2, M, {})})
        for M in (ZmModule(2, (2,)), ZmModule(2, (2, 2, 2)))
    )
    table = {
        ((x,), (a,)): I.module.element((a.coords[1] * x.coords[0], 0, 0))
        for x in mod_elements(Q.module)
        for a in mod_elements(I.module)
    }
    return Action(Q, I, {("f", (1,)): table})


@settings(max_examples=60, deadline=None)
@example(side_action())
@example(nilpotent_action())
@given(
    st.booleans()
    .flatmap(lambda affine: cocycles(arities=(1, 2), defects=["none"], affine=affine))
    .map(lambda T: T.action)
    .filter(lambda a: a.Q.module.size() * a.I.module.size() <= MAX_PRODUCT)
)
def test_first_cohomology_matches_quadratic_routes(action):
    """Derivations closed on every pair, the principal subgroup spanned
    breadth first, and the cosets found by comparing every pair of
    derivations, with the invariant factors of their sums."""
    Q, I = action.Q, action.I
    r = h1(Q, I, action)
    assert pairwise_closed(r.derivations, Q, I)
    assert (r.principal.maps, r.principal.complete) == breadth_first_principal(Q, I, action)
    cosets, factors = quadratic_h1(Q, I, r.derivations, r.principal.maps)
    assert r.cosets == cosets
    assert r.invariant_factors == factors
    for i, coset in enumerate(cosets):
        assert all(r.coset_index(h) == i for h in coset)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_group_trivialize_takes_the_first_map_with_that_group_factor_set(data):
    T = data.draw(valid_cocycles(defects=["none", "tplus"], affine=True))
    T = data.draw(partners(T).filter(satisfies_t1_t4))
    hits = [
        h for h in all_witness_maps(T.Q, T.I) if coboundary_table(h, T.Q, T.I) == T.tplus
    ]
    T0, h = group_trivialize(T)
    if hits:
        assert h == hits[0]
        assert T0 == shift_by_coboundary(T, h)
    else:
        assert (T0, h) == (None, None)


def test_library_has_no_exhaustive_witness_search():
    for path in sorted(Path(mlex.__file__).parent.glob("*.py")):
        assert "all_witness_maps" not in path.read_text(), path.name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coboundary_matches_formula(data):
    action = data.draw(actions())
    h = data.draw(witness_maps(action.Q, action.I))
    assert coboundary(h, action) == coboundary_formula(h, action)


@settings(max_examples=60, deadline=None)
@given(actions())
def test_derivations_are_the_maps_with_null_coboundary(action):
    Q, I = action.Q, action.I
    expected = []
    for h in all_witness_maps(Q, I):
        G = coboundary_formula(h, action)
        if G.factor_sets_zero() and G.action.is_trivial():
            expected.append(h)
    expected.sort(key=lambda h: h_key(h, Q))
    assert derivations(Q, I, action) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_shift_by_coboundary_subtracts_the_formula(data):
    T = data.draw(valid_cocycles(affine=True))
    h = data.draw(witness_maps(T.Q, T.I))
    G = coboundary_formula(h, T.action)
    assert G.action.is_trivial()
    Im = T.I.module
    expected = Cocycle(
        T.action,
        {k: Im.sub(v, G.tplus[k]) for k, v in T.tplus.items()},
        {k: Im.sub(v, G.tr[k]) for k, v in T.tr.items()},
        {k: Im.sub(v, G.tf[k]) for k, v in T.tf.items()},
    )
    assert shift_by_coboundary(T, h) == expected


# Largest module per arity for the homomorphism cases.
MAX_MODULE = {1: 9, 2: 6, 3: 4}


@st.composite
def homomorphism_cases(draw):
    """Two algebras of one signature and a module map between them: a
    drawn map, the zero map, or r times the identity of one algebra."""
    m = draw(st.sampled_from(sorted(PRESENTATIONS)))
    arity = draw(st.sampled_from(ARITIES))
    fits = [f for f in PRESENTATIONS[m] if size(f) <= MAX_MODULE[arity]]
    A = draw_algebra(draw, ZmModule(m, draw(st.sampled_from(fits))), arity)
    kind = draw(st.sampled_from(["drawn", "drawn", "zero", "scalar"]))
    if kind == "scalar":
        r = draw(st.integers(0, m - 1))
        gens = A.module.generators()
        return A, A, LinMap(A.module, A.module, tuple(A.module.scalar(r, g) for g in gens))
    B = draw_algebra(draw, ZmModule(m, draw(st.sampled_from(fits))), arity)
    if kind == "zero":
        return A, B, LinMap.zero_map(A.module, B.module)
    return A, B, draw(linear_maps(A.module, B.module))


@settings(max_examples=200, deadline=None)
@given(homomorphism_cases())
def test_is_homomorphism_matches_exhaustive_check(case):
    A, B, phi = case
    assert is_homomorphism(A, B, phi) == exhaustive_is_homomorphism(A, B, phi)


@st.composite
def algebras(draw):
    """One operation of arity 1 to 3 on any presentation, zero or drawn."""
    m = draw(st.sampled_from(sorted(PRESENTATIONS)))
    module = ZmModule(m, draw(st.sampled_from(PRESENTATIONS[m])))
    return draw_algebra(draw, module, draw(st.sampled_from(ARITIES)), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(algebras())
def test_derivations_of_matches_exhaustive_search(A):
    assert derivations_of(A) == exhaustive_derivations_of(A)


def satisfies_t4(action):
    try:
        return action.validate()
    except MlexError:
        return False


def outcome(route, *args):
    """The route's result, or the bracket-closure failure it raises."""
    try:
        return route(*args)
    except ConsistencyError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(cocycles(arities=ARITIES).map(lambda T: T.action).filter(satisfies_t4))
def test_compatible_pairs_match_exhaustive_search(action):
    Q, I = action.Q, action.I
    assert outcome(compatible_pairs, I, Q, action) == outcome(
        exhaustive_compatible_pairs, I, Q, action
    )


@st.composite
def endomaps(draw, module):
    """A drawn endomorphism, or r times the identity (r = 0 included)."""
    if draw(st.booleans()):
        return draw(linear_maps(module, module))
    r = draw(st.integers(0, module.modulus - 1))
    return LinMap(module, module, tuple(module.scalar(r, g) for g in module.generators()))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pair_rule_on_table_keys_matches_every_cell(data):
    action = data.draw(cocycles(arities=ARITIES).map(lambda T: T.action))
    alpha = data.draw(endomaps(action.I.module))
    beta = data.draw(endomaps(action.Q.module))
    assert pair_is_compatible(alpha, beta, action) == full_cell_pair_is_compatible(
        alpha, beta, action
    )


def test_derivation_spaces_do_not_list_every_map():
    tree = ast.parse((Path(mlex.__file__).parent / "derlie.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "iter_homs" not in names


def per_x_offset(bound):
    """Is the slice bound of the form (i - 1) * k, a block of a vector with
    one block per nonzero x?"""
    return (
        isinstance(bound, ast.BinOp)
        and isinstance(bound.op, ast.Mult)
        and isinstance(bound.left, ast.BinOp)
        and isinstance(bound.left.op, ast.Sub)
        and isinstance(bound.left.right, ast.Constant)
        and bound.left.right.value == 1
    )


def nested_loops_over_one_name(tree):
    """The names that a loop or comprehension iterates while a loop around
    it, or an earlier generator of the same comprehension, iterates the
    same name: the shape of a check on every pair."""
    found = []

    def iterate(it, names):
        if isinstance(it, ast.Name):
            if it.id in names:
                found.append(it.id)
            return names | {it.id}
        return names

    def visit(node, names):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                names = iterate(gen.iter, names)
            for child in ast.iter_child_nodes(node):
                visit(child, names)
            return
        if isinstance(node, ast.For):
            names = iterate(node.iter, names)
        for child in ast.iter_child_nodes(node):
            visit(child, names)

    visit(tree, frozenset())
    return found


def test_maps_into_the_kernel_have_one_layout_and_no_pairwise_loops():
    """Only ``LiftingChanges`` cuts a vector into one block per nonzero x,
    and ``cohomology`` and ``hs`` decide closure and cosets without
    visiting every pair."""
    src = Path(mlex.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(n)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == "LiftingChanges"
            for n in ast.walk(c)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Slice) and id(node) not in owner:
                assert not per_x_offset(node.lower), (path.name, node.lineno)
    for name in ("cohomology.py", "hs.py"):
        assert nested_loops_over_one_name(ast.parse((src / name).read_text())) == [], name


def variety_shapes(arity, m):
    """Varieties over one operation f of the arity: mlf; for f binary a
    Leibniz identity; an identity with a scalar and a negation, which every
    multilinear f satisfies; and for f unary f(f(x)) = 0."""
    sig = Signature(m, (("f", arity),))
    xs = ["x", "y", "z"][:arity]
    doubled = ", ".join(["2*x"] + xs[1:])
    negated = ", ".join(["-" + v if v == xs[-1] else v for v in xs])
    texts = [f"f({doubled}) + f({negated}) = f({', '.join(xs)})"]
    if arity == 2:
        texts.append("f(x, f(y, z)) = f(f(x, y), z) + f(y, f(x, z))")
    if arity == 1:
        texts.append("f(f(x)) = 0")
    return [mlf_variety(sig)] + [
        Variety(f"v{i}", sig, (parse_identity(text, sig),)) for i, text in enumerate(texts)
    ]


def affine_h2(T, V):
    """The affine H2 over T's datum and action, or None where the split
    extension is not in V."""
    try:
        if not is_compatible(Cocycle.zero(T.Q, T.I, T.action), V):
            return None
    except DatumError:
        return None
    return AffineH2(T.Q, T.I, T.action, V)


def affine_data(arities):
    """Datum cocycles with a unary T4 action and zero kernel operations."""
    return cocycles(arities=arities, defects=["none"], affine=True)


def shapes_of(T):
    return variety_shapes(T.Q.op_arity("f"), T.Q.module.modulus)


# Largest number of factor-set cells for the sampled-row oracle, which
# builds one raw product per cell and kernel coordinate.
MAX_CELLS = 27


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        affine_data(ARITIES),
        # a kernel of rank 2 makes the slot maps matrices, not scalars
        affine_data((2, 3)).filter(lambda T: T.I.module.rank == 2),
    ).filter(lambda T: len(_factor_set_cells(T.Q, T.I)) <= MAX_CELLS)
)
def test_affine_rows_match_sampled_rows(T):
    for V in shapes_of(T):
        H = affine_h2(T, V)
        if H is not None:
            assert H._constraint_rows() == sampled_constraint_rows(H)


@st.composite
def rota_baxter_data(draw):
    """(T, V): V a Rota-Baxter variety of weight w >= 2 over a bracket br
    and a unary P, so its strict identity holds scalar factor sets
    Tr[w]; Q's P is zero, -w times the identity or drawn, and T's action
    of br is drawn in both slots."""
    m = draw(st.sampled_from([3, 4, 6]))
    w = draw(st.integers(2, m - 1))
    qf, if_ = draw(st.sampled_from([
        (a, b) for a in PRESENTATIONS[m] for b in PRESENTATIONS[m] if size(a) * size(b) <= 18
    ]))
    Qm, Im = ZmModule(m, qf), ZmModule(m, if_)
    br = draw_algebra(draw, Qm, 2).ops["f"].table
    kind = draw(st.sampled_from(["zero", "scaled", "drawn"]))
    if kind == "drawn":
        P = draw_algebra(draw, Qm, 1).ops["f"].table
    else:
        P = {(i,): Qm.scalar(-w if kind == "scaled" else 0, g)
             for i, g in enumerate(Qm.generators())}
    Q = Algebra(Qm, {"br": MultilinearOp("br", 2, Qm, br), "P": MultilinearOp("P", 1, Qm, P)})
    I = Algebra(Im, {"br": MultilinearOp("br", 2, Im), "P": MultilinearOp("P", 1, Im)})
    tables = {}
    for s in [(0,), (1,)]:
        table = draw_map(draw, [Qm, Im], Im, [0, 1])
        tables[("br", s)] = {((x,), (a,)): v for (x, a), v in table.items()}
    sig = Signature(m, (("br", 2), ("P", 1)), bracket="br")
    law = f"[P(x), P(y)] = P([P(x), y]) + P([x, P(y)]) + {w}*P([x, y])"
    V = Variety("rotabaxter", sig, (parse_identity(law, sig),))
    return Cocycle.zero(Q, I, Action(Q, I, tables)), V


def affine_draws():
    """(T, V) over moduli 2, 3, 4 and 6, and over 6 alone so that Z6 and
    Z2 x Z3 come often: one operation of arity 1 to 3 under mlf, the
    Leibniz and the other ``variety_shapes``, or a bracket and a unary
    operation under a Rota-Baxter law."""
    def one_op(arities=ARITIES, pick=st.sampled_from, **kwargs):
        return cocycles(arities=arities, defects=["none"], affine=True, **kwargs).flatmap(
            lambda T: st.tuples(st.just(T), pick(shapes_of(T)))
        )

    leibniz = one_op(arities=(2,), pick=lambda shapes: st.just(shapes[-1]))
    return st.one_of(one_op(), one_op(moduli=(6,)), leibniz, rota_baxter_data())


def unsolved_affine_h2(T, V):
    """An ``AffineH2`` with its index tables built and no system solved,
    or None where the split extension is not in V.  Its rows and
    coboundary vectors need no Smith form, whose cost explodes on
    kernels such as Z2 x Z3."""
    try:
        if not is_compatible(Cocycle.zero(T.Q, T.I, T.action), V):
            return None
    except DatumError:
        return None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineH2, "_solve", lambda self: None)
        return AffineH2(T.Q, T.I, T.action, V)


@settings(max_examples=200, deadline=None)
@given(affine_draws())
def test_affine_rows_match_element_rows(case):
    """The rows read off index tables are the Element route's, in order."""
    H = unsolved_affine_h2(*case)
    assume(H is not None)
    assert H._constraint_rows() == element_constraint_rows(H)


@settings(max_examples=200, deadline=None)
@given(affine_draws(), st.data())
def test_closed_form_coboundaries_match_relifted_units(case, data):
    """The closed-form coboundary of every unit map is the vector its
    relift of the split table realizes, and one of them is the
    alternating-sign formula's."""
    H = unsolved_affine_h2(*case)
    assume(H is not None)
    vectors = H._unit_coboundaries()
    assert vectors == relifted_unit_vectors(H)
    if vectors:
        t = data.draw(st.integers(0, len(vectors) - 1))
        unit = LiftingChanges(H.Q, H.I).table([int(i == t) for i in range(len(vectors))])
        G = coboundary_formula(unit, H.action)
        assert H._vector_of(G.tplus, G.tf) == vectors[t]


# Largest cocycle enumeration for the exhaustive H2 comparison.
MAX_COCYCLES = 1024


def enumeration_size(T):
    return T.I.module.size() ** len(_factor_set_cells(T.Q, T.I))


@settings(max_examples=30, deadline=None)
@given(affine_data((1, 2)).filter(lambda T: enumeration_size(T) <= MAX_COCYCLES))
def test_affine_h2_matches_exhaustive_h2(T):
    """The affine classes are the exhaustive ones: as many, and each
    representative equivalent to exactly one exhaustive class."""
    for V in shapes_of(T):
        H = affine_h2(T, V)
        if H is None:
            continue
        classes = enumerate_h2(T.Q, T.I, V, action=T.action, budget=MAX_COCYCLES)
        assert H.class_count() == len(classes)
        for rep in H.reps:
            assert sum(equivalent(rep, c.representative) is not None for c in classes) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_is_equality_of_affine_classes(data):
    """Every compatible cocycle is a class representative read through a
    lifting change; two of them are equivalent iff ``class_of`` gives them
    one class."""
    T = data.draw(affine_data((1, 2)))
    H = affine_h2(T, data.draw(st.sampled_from(shapes_of(T))))
    if H is None:
        return

    def compatible(reps):
        rep = data.draw(st.sampled_from(reps))
        tplus, tr, tf, tables = relift(SemidirectProduct(rep), data.draw(witness_maps(T.Q, T.I)))
        return Cocycle(Action(T.Q, T.I, tables), tplus, tr, tf)

    for _ in range(3):
        T1 = compatible(H.reps)
        # the second from T1's class about half the time
        T2 = compatible(H.reps + [T1] * len(H.reps))
        assert (equivalent(T1, T2) is not None) == (H.class_of(T1) == H.class_of(T2))


# Every presentation of a module of order at most 8 over moduli 2, 3, 4, 6.
SMALL_MODULES = [
    (2, (2,)), (2, (2, 2)), (2, (2, 2, 2)), (3, (3,)), (4, (4,)), (4, (2, 4)),
    (4, (4, 2)), (6, (6,)), (6, (2, 3)),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decompose_rebuilds_the_algebra(data):
    """The tower of semidirect products that ``decompose`` builds along the
    derived or lower central series is isomorphic to the algebra."""
    m, factors = data.draw(st.sampled_from(SMALL_MODULES))
    A = draw_algebra(data.draw, ZmModule(m, factors), data.draw(st.sampled_from((1, 2))))
    kind = data.draw(st.sampled_from(["solvable", "nilpotent"]))
    series_kind = {"solvable": "derived", "nilpotent": "lower_central"}[kind]
    assume(series(A, series_kind)[1])
    d = decompose(A, kind)
    assert d.verified
    assert find_isomorphism(A, d.reconstructed) is not None


def integer_matrices():
    """Matrices of 0 to 6 rows and columns with entries bounded by 1, 4 or
    30, zero about half the time."""
    def matrices(shape):
        rows, cols, bound = shape
        entry = st.one_of(st.just(0), st.integers(-bound, bound))
        row = st.lists(entry, min_size=cols, max_size=cols)
        return st.lists(row, min_size=rows, max_size=rows)

    shapes = st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from([1, 4, 30]))
    return shapes.flatmap(matrices)


@settings(max_examples=300, deadline=None)
@example([])
@example([[], []])
@given(integer_matrices())
def test_smith_normal_form_matches_reference(A):
    """U, D and V equal the full-matrix route's exactly, on matrices with
    non-unit pivots, negative entries, zero rows or columns, and no rows
    or no columns at all."""
    assert smith_normal_form(A) == reference_smith_normal_form(A)


@st.composite
def congruence_systems(draw):
    """(A, row moduli, column moduli) of the shape the affine systems have:
    up to 24 rows, moduli 2 and 4, and at most three nonzero entries per
    row of A, each reduced modulo its row's modulus."""
    rows, n = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    moduli = st.sampled_from([2, 4])
    row_moduli = draw(st.lists(moduli, min_size=rows, max_size=rows))
    col_moduli = draw(st.lists(moduli, min_size=n, max_size=n))
    A = []
    for r in row_moduli:
        row = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            row[j] = draw(st.integers(1, r - 1))
        A.append(row)
    return A, row_moduli, col_moduli


@settings(max_examples=100, deadline=None)
@given(congruence_systems(), st.data())
def test_congruence_systems_match_reference(system, data):
    """On [A | diag(row moduli)], the matrix ``Congruences`` factors, the
    Smith form equals the full-matrix route's, and so do the kernel and
    the solutions of a consistent and of an arbitrary right-hand side."""
    A, row_moduli, col_moduli = system
    B = [row + [r if j == i else 0 for j in range(len(A))]
         for i, (row, r) in enumerate(zip(A, row_moduli))]
    assert smith_normal_form(B) == reference_smith_normal_form(B)
    solver = Congruences(A, row_moduli, col_moduli)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modcore, "smith_normal_form", reference_smith_normal_form)
        reference = Congruences(A, row_moduli, col_moduli)
    assert solver.kernel == reference.kernel
    x = [data.draw(st.integers(0, c - 1)) for c in col_moduli]
    consistent = [sum(a * v for a, v in zip(row, x)) % r for row, r in zip(A, row_moduli)]
    arbitrary = [data.draw(st.integers(0, r - 1)) for r in row_moduli]
    for b in (consistent, arbitrary):
        assert solver.solve(b) == reference.solve(b)
    assert solver.solve(consistent) is not None


# Per arity: multilinear identities (Leibniz, Jacobi, symmetry), then ones
# that are not: a square, and additivity written with a sum in one slot.
IDENTITIES = {
    1: ["f(f(x)) = f(x)", "f(x) + 2*f(x) = -f(x)", "f(x) + f(y) = f(x + y)"],
    2: [
        "f(x, f(y, z)) = f(f(x, y), z) + f(y, f(x, z))",
        "f(f(x, y), z) + f(f(y, z), x) + f(f(z, x), y) = 0",
        "f(x, y) = f(y, x)",
        "f(x, x) = 0",
        "f(x + y, z) = f(x, z) + f(y, z)",
    ],
    3: ["f(x, y, z) = f(y, x, z)", "f(x, y, z) + f(z, y, x) = 0", "f(x, x, y) = 0"],
}


def identities_for(carrier, arity):
    sig = Signature(carrier.modulus, (("f", arity),))
    return [parse_identity(text, sig) for text in IDENTITIES[arity]]


@settings(max_examples=120, deadline=None)
@given(cocycles(arities=ARITIES))
def test_holds_matches_counterexample_on_semidirect_tables(T):
    """Before legality is known, and after it is found legal or illegal,
    ``holds`` agrees with the exhaustive counterexample search."""
    raw = SemidirectProduct(T)
    arity = T.Q.op_arity("f")
    for ident in identities_for(raw, arity):
        assert holds(raw, ident) == (counterexample(raw, ident) is None)
    raw.legality()
    for ident in identities_for(raw, arity):
        assert holds(raw, ident) == (counterexample(raw, ident) is None)


@settings(max_examples=120, deadline=None)
@given(algebras())
def test_holds_matches_counterexample_on_algebras(A):
    for ident in identities_for(A, A.op_arity("f")):
        assert holds(A, ident) == (counterexample(A, ident) is None)


@st.composite
def map_groups(draw):
    """The derivations of a drawn algebra, or the group spanned by two
    drawn endomorphisms, which need not close under the bracket; either
    one maybe without one of its maps or with one more drawn map, so not
    closed under addition."""
    A = draw(algebras())
    M = A.module
    if draw(st.booleans()):
        maps = derivations_of(A)
    else:
        span = {LinMap.zero_map(M, M).images: LinMap.zero_map(M, M)}
        gens = [draw(linear_maps(M, M)) for _ in range(2)]
        frontier = list(span.values())
        while frontier:
            s = frontier.pop()
            for g in gens:
                t = lin_add(s, g)
                if t.images not in span:
                    span[t.images] = t
                    frontier.append(t)
        maps = sorted(span.values(), key=lambda f: [e.coords for e in f.images])
    kind = draw(st.sampled_from(["group", "group", "dropped", "extra"]))
    if kind == "dropped" and len(maps) > 1:
        maps.pop(draw(st.integers(1, len(maps) - 1)))
    elif kind == "extra":
        extra = draw(linear_maps(M, M))
        if extra.images not in {m.images for m in maps}:
            maps.append(extra)
    return maps


@settings(max_examples=100, deadline=None)
@given(map_groups())
def test_check_jacobi_matches_exhaustive_check(maps):
    assert check_jacobi(maps) == exhaustive_check_jacobi(maps)


def terms(arity, modulus):
    """Terms in x and y over the operation f, up to eight leaves."""
    return st.recursive(
        st.sampled_from([Var("x"), Var("y")]),
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(st.integers(0, modulus - 1), inner).map(lambda p: Scalar(*p)),
            st.tuples(inner, inner).map(lambda p: Plus(*p)),
            st.lists(inner, min_size=arity, max_size=arity).map(
                lambda args: Apply("f", tuple(args))
            ),
        ),
        max_leaves=8,
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_soundness_check_matches_per_assignment_oracle(data):
    """Kernel operations and several-slot actions give atoms that read
    kernel names and quotient variables together."""
    T = data.draw(cocycles(arities=ARITIES))
    arity, m = T.Q.op_arity("f"), T.Q.module.modulus
    sig = Signature(m, (("f", arity),))
    t = data.draw(terms(arity, m))
    assert soundness_check(t, T, sig) == per_assignment_soundness_check(t, T, sig)
