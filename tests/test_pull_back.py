"""Cocycles and actions read through a quotient-side map.

Pulling a cocycle back along an algebra isomorphism phi: R -> Q, for
instance an automorphism of Q, gives the cocycle of the same raw table
seen through (a, x) -> (a, phi(x)).  The data cover moduli 2, 3, 4 and
6, arities 2 and 3 (a unary operation has no action terms), nonzero
actions and legal and illegal semidirect tables.
"""

import itertools

from hypothesis import given, settings, strategies as st

from mlex.modcore import LinMap, iter_homs, mod_elements
from mlex.algebra import Algebra, MultilinearOp, is_homomorphism
from mlex.cocycle import SemidirectProduct

from strategies import cocycles


def acted_cocycles():
    """Cocycles with a nonzero action, legal or not; reading tables through
    a map needs no normalization, so T1-T4 are not required either."""
    return cocycles(arities=(2, 3)).filter(lambda T: not T.action.is_trivial())


@st.composite
def isomorphisms_onto(draw, Q):
    """An algebra R and an isomorphism phi: R -> Q.  phi is a drawn
    automorphism of Q's module and R carries Q's operations back along
    it, so R is Q itself when phi is an algebra automorphism of Q."""
    phi = draw(
        st.sampled_from([p for p in iter_homs(Q.module, Q.module) if p.is_bijective()])
    )
    inverse = {phi(x): x for x in mod_elements(Q.module)}
    gens = Q.module.generators()
    ops = {
        f: MultilinearOp(
            f,
            op.arity,
            Q.module,
            {
                key: inverse[Q.apply_op(f, [phi(gens[i]) for i in key])]
                for key in itertools.product(range(Q.module.rank), repeat=op.arity)
            },
        )
        for f, op in Q.ops.items()
    }
    return Algebra(Q.module, ops), phi


@settings(max_examples=100, deadline=None)
@given(acted_cocycles())
def test_pull_back_along_identity_is_the_cocycle(T):
    assert T.pull_back(T.Q, LinMap.identity(T.Q.module)) == T


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pull_back_along_an_isomorphism_is_an_isomorphic_table(data):
    T = data.draw(acted_cocycles())
    R, phi = data.draw(isomorphisms_onto(T.Q))
    assert is_homomorphism(R, T.Q, phi)
    raw, pulled = SemidirectProduct(T), SemidirectProduct(T.pull_back(R, phi))
    assert pulled.is_legal() == raw.is_legal()

    def psi(u):
        a, x = u
        return a, phi(x)

    universe = pulled.universe()
    for u in universe:
        for v in universe:
            assert psi(pulled.add(u, v)) == raw.add(psi(u), psi(v))
        for r in range(pulled.modulus):
            assert psi(pulled.scalar(r, u)) == raw.scalar(r, psi(u))
    for f, op in R.ops.items():
        for args in itertools.product(universe, repeat=op.arity):
            lhs = psi(pulled.apply_op(f, list(args)))
            assert lhs == raw.apply_op(f, [psi(u) for u in args])
