"""Lifting changes, derivation spaces and homomorphism checks against
their exhaustive oracles.

``equivalent``, ``coboundary``, ``derivations`` and ``shift_by_coboundary``
evaluate lifting changes through the one realization routine,
``lifting_changes`` finds the maps with a given group factor set and
``derivations_of`` and ``compatible_pairs`` find their maps by one
congruence solve, ``pair_is_compatible`` checks one cell per action-table
key, ``is_homomorphism`` checks generator tuples only, and ``AffineH2``
linearizes the strict identities of the expander.  The oracles in
``oracles.py`` decide the same questions cell by cell, by the
alternating-sign formula, by sampling the raw semidirect product or by
listing every map; the affine classes are also compared with the
exhaustive ``enumerate_h2``.  The data cover
moduli 2, 3, 4 and 6, arities 1 to 3 and nonzero kernel operations: a sign
error is invisible mod 2.
"""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

import mlex

from mlex.errors import ConsistencyError, MlexError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import is_homomorphism
from mlex.termlang import Signature, Variety, parse_identity
from mlex.cocycle import (
    Action,
    Cocycle,
    DatumError,
    SemidirectProduct,
    coboundary,
    equivalent,
    is_compatible,
    lifting_changes,
    mlf_variety,
    relift,
)
from mlex.cohomology import (
    AffineH2,
    _factor_set_cells,
    derivations,
    enumerate_h2,
    h_key,
)
from mlex.derlie import (
    compatible_pairs,
    derivations_of,
    group_trivialize,
    pair_is_compatible,
    shift_by_coboundary,
)

from oracles import (
    all_witness_maps,
    coboundary_formula,
    coboundary_table,
    exhaustive_compatible_pairs,
    exhaustive_derivations_of,
    exhaustive_is_homomorphism,
    full_cell_pair_is_compatible,
    isomorphism_witness,
    sampled_constraint_rows,
)
from strategies import (
    PRESENTATIONS,
    cocycles,
    draw_algebra,
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
    T = data.draw(valid_cocycles())
    Tp = data.draw(partners(T))
    assert equivalent(T, Tp) == isomorphism_witness(T, Tp)


# Largest number of maps Q -> I for the lifting-change cases.
MAX_MAPS = 729


@st.composite
def lifting_change_data(draw):
    """Modules Q and I small enough to list every map Q -> I, and a table
    D: the group factor set of a drawn map, that with one cell changed, or
    a table zero on the zero cells and arbitrary elsewhere."""
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
    I = draw_algebra(draw, ZmModule(m, if_), 2, abelian=True)
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
    return Q, I, D


@settings(max_examples=200, deadline=None)
@given(lifting_change_data())
def test_lifting_changes_are_the_maps_with_that_group_factor_set(case):
    Q, I, D = case
    expected = [h for h in all_witness_maps(Q, I) if coboundary_table(h, Q, I) == D]
    assert lifting_changes(Q, I, D) == expected


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
    assert not names & {"hom_enumerate", "iter_homs"}


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
