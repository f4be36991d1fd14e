"""Lifting changes and homomorphism checks against their exhaustive oracles.

``equivalent``, ``coboundary``, ``derivations`` and ``shift_by_coboundary``
evaluate lifting changes through the one realization routine, and
``is_homomorphism`` checks generator tuples only.  The oracles in
``oracles.py`` decide the same questions cell by cell or by the
alternating-sign formula.  The data cover moduli 2, 3, 4 and 6, arities
1 to 3 and nonzero kernel operations: a sign error is invisible mod 2.
"""

from hypothesis import given, settings, strategies as st

from mlex.errors import MlexError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import is_homomorphism
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    all_witness_maps,
    coboundary,
    equivalent,
    relift,
)
from mlex.cohomology import derivations, h_key
from mlex.derlie import shift_by_coboundary

from oracles import (
    coboundary_formula,
    exhaustive_is_homomorphism,
    isomorphism_witness,
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
