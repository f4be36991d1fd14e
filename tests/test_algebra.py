import itertools

import pytest

from mlex.errors import MlexError
from mlex.modcore import LinMap, ZmModule, mod_elements
from mlex.algebra import (
    Algebra,
    MultilinearOp,
    algebra_from_ops,
    commutator,
    find_isomorphism,
    ideal_generated,
    is_homomorphism,
    is_ideal_set,
    quotient,
    series,
    subalgebra,
    whole_ideal,
    zero_ideal,
)
from fixture_lib import f2_algebra, s3_algebra


@pytest.fixture
def F2():
    return f2_algebra()


def test_op_validation():
    M = ZmModule(4, (2, 4))
    # value not annihilated by the slot generator order
    with pytest.raises(MlexError):
        MultilinearOp("f", 2, M, {(0, 0): M.element((0, 1))})
    with pytest.raises(MlexError):
        MultilinearOp("f", 0, M, {})
    op = MultilinearOp("f", 2, M, {(1, 1): M.element((0, 2))})
    assert not op.is_zero()


def test_eval_op_examples(F2):
    M = F2.module
    e1, e2 = M.generator(0), M.generator(1)
    assert F2.eval_op("f", (e2, e2)) == e1
    assert F2.eval_op("f", (M.zero(), e2)).is_zero()
    assert F2.eval_op("f", (e1 + e2, e2)) == e1
    with pytest.raises(MlexError):
        F2.eval_op("g", (e1, e1))
    with pytest.raises(MlexError):
        F2.eval_op("f", (e1,))


def test_multilinearity_of_eval(F2):
    M = F2.module
    for a in mod_elements(M):
        for b in mod_elements(M):
            for c in mod_elements(M):
                for r in range(2):
                    lhs = F2.eval_op("f", (M.add(M.scalar(r, a), b), c))
                    rhs = M.add(
                        M.scalar(r, F2.eval_op("f", (a, c))), F2.eval_op("f", (b, c))
                    )
                    assert lhs == rhs


def test_ideal_examples(F2):
    M = F2.module
    e1 = M.generator(0)
    assert ideal_generated(F2, [M.zero()]).is_zero()
    I = ideal_generated(F2, [e1])
    assert I.elements == frozenset({M.zero(), e1})
    assert len(ideal_generated(F2, M.generators()).elements) == 4


def test_ideal_closure_is_least(F2):
    """Closure agrees with the smallest absorbing submodule containing the
    seed, found by brute force over all subsets."""
    M = F2.module
    for gens in [[M.generator(0)], [M.generator(1)], [M.element((1, 1))]]:
        I = ideal_generated(F2, gens)
        best = None
        for size in range(1, 5):
            for cand in itertools.combinations(mod_elements(M), size):
                s = set(cand)
                if all(g in s for g in gens) and is_ideal_set(F2, s):
                    best = s
                    break
            if best:
                break
        assert I.elements == frozenset(best)


def test_commutator_examples(F2):
    M = F2.module
    e1 = M.generator(0)
    full = whole_ideal(F2)
    assert commutator(full, full).elements == frozenset({M.zero(), e1})
    assert commutator(zero_ideal(F2), full).is_zero()
    # all-zero ops
    P = Algebra(M, {"f": MultilinearOp("f", 2, M, {})})
    assert commutator(whole_ideal(P), whole_ideal(P)).is_zero()


def test_commutator_symmetric_monotone(F2):
    ideals = [
        zero_ideal(F2),
        ideal_generated(F2, [F2.module.generator(0)]),
        whole_ideal(F2),
    ]
    for I in ideals:
        for J in ideals:
            assert commutator(I, J).elements == commutator(J, I).elements
    for small, big in [(ideals[0], ideals[1]), (ideals[1], ideals[2])]:
        for J in ideals:
            assert commutator(small, J).elements <= commutator(big, J).elements


def test_series(F2):
    chain, ok, n = series(F2, "derived")
    assert ok and n == 2
    assert [len(c.elements) for c in chain] == [4, 2, 1]
    chain, ok, n = series(F2, "lower_central")
    assert ok and n == 2
    S3 = s3_algebra()
    _, ok, n = series(S3, "derived")
    assert ok and n == 3
    _, ok, n = series(S3, "lower_central")
    assert ok and n == 3
    P = Algebra(F2.module, {"f": MultilinearOp("f", 2, F2.module, {})})
    chain, ok, n = series(P, "derived")
    assert ok and n == 1 and len(chain) == 2


def test_quotient(F2):
    M = F2.module
    I = ideal_generated(F2, [M.generator(0)])
    Q, pi, section = quotient(F2, I)
    assert Q.module.factors == (2,)
    assert Q.is_abelian()
    assert pi.is_surjective()
    assert pi.kernel_elements() == set(I.elements)
    for q, mel in section.items():
        assert pi(mel) == q
    # quotient by zero and by everything
    Q0, _, _ = quotient(F2, zero_ideal(F2))
    assert find_isomorphism(F2, Q0) is not None
    QA, _, _ = quotient(F2, whole_ideal(F2))
    assert QA.module.size() == 1
    # reject non-ideals
    from mlex.algebra import Ideal

    bogus = Ideal(F2, (M.generator(1),), elements=frozenset({M.zero(), M.generator(1)}))
    with pytest.raises(MlexError):
        quotient(F2, bogus)


def test_quotient_kernel_recovers_ideal():
    S3 = s3_algebra()
    for gens in [[S3.module.generator(0)], [S3.module.generator(1)]]:
        I = ideal_generated(S3, gens)
        Q, pi, _ = quotient(S3, I)
        assert pi.kernel_elements() == set(I.elements)


def test_homomorphism_examples(F2):
    M = F2.module
    assert is_homomorphism(F2, F2, LinMap.identity(M))
    swap = LinMap(M, M, (M.generator(1), M.generator(0)))
    assert not is_homomorphism(F2, F2, swap)
    Z4a = Algebra(ZmModule(4, (4,)), {})
    Z22a = Algebra(ZmModule(4, (2, 2)), {})
    assert find_isomorphism(Z4a, Z22a) is None
    assert find_isomorphism(F2, F2) is not None


def test_find_isomorphism_across_presentations():
    Z6, Z23 = ZmModule(6, (6,)), ZmModule(6, (2, 3))
    assert find_isomorphism(Algebra(Z6), Algebra(Z23)) is not None
    assert find_isomorphism(Algebra(Z23), Algebra(Z6)) is not None
    assert find_isomorphism(Algebra(ZmModule(6, (1, 6))), Algebra(Z6)) is not None
    # the ring Z6 and its CRT image Z2 x Z3
    ring6 = Algebra(Z6, {"f": MultilinearOp("f", 2, Z6, {(0, 0): Z6.generator(0)})})
    ring23 = Algebra(
        Z23,
        {"f": MultilinearOp("f", 2, Z23, {(0, 0): Z23.generator(0), (1, 1): Z23.generator(1)})},
    )
    phi = find_isomorphism(ring6, ring23)
    assert phi is not None and phi.is_bijective() and is_homomorphism(ring6, ring23, phi)
    zero23 = Algebra(Z23, {"f": MultilinearOp("f", 2, Z23, {})})
    assert find_isomorphism(ring6, zero23) is None


def test_subalgebra(F2):
    I = ideal_generated(F2, [F2.module.generator(0)])
    S, embed, to_sub = subalgebra(F2, I.elements)
    assert S.module.factors == (2,)
    assert S.is_abelian()
    for e in I.elements:
        assert embed(to_sub[e]) == e
    # {0, e2} is a submodule, but f(e2, e2) = e1 leaves it
    with pytest.raises(MlexError, match="not closed under the operations"):
        subalgebra(F2, [F2.module.zero(), F2.module.generator(1)])


def test_algebra_from_ops_roundtrip(F2):
    items = mod_elements(F2.module)
    B, encode, decode = algebra_from_ops(
        items,
        F2.module.add,
        F2.module.zero(),
        {"f": (2, lambda a, b: F2.eval_op("f", (a, b)))},
        2,
    )
    assert find_isomorphism(F2, B) is not None
