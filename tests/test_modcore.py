import itertools
import random
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mlex
from mlex.errors import MlexError
from mlex.algebra import Algebra, MultilinearOp, ideal_generated, quotient
from mlex.modcore import (
    Congruences,
    LinMap,
    Presentation,
    ZmModule,
    abelian_decomposition,
    affine_solutions,
    homs_where,
    iter_homs,
    mod_elements,
    smith_normal_form,
    solve_congruences,
    span_elements,
)


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_module_validation():
    with pytest.raises(MlexError):
        ZmModule(2, (3,))
    with pytest.raises(MlexError):
        ZmModule(0, ())
    M = ZmModule(4, (2, 4))
    assert M.size() == 8
    assert M.element((3, 5)).coords == (1, 1)


def test_element_hash_is_the_dataclass_hash():
    """Set iteration order follows hash values and can reach a report, so
    the cached hashes equal the dataclass ones of the field tuples."""
    for m, factors in [(2, ()), (2, (2,)), (4, (2, 4)), (6, (2, 3)), (6, (6, 6))]:
        M = ZmModule(m, factors)
        assert hash(M) == hash((m, factors))
        for e in mod_elements(M):
            # the first call fills the cache, the second reads it
            assert hash(e) == hash(e) == hash((e.module, e.coords))


def test_equal_modules_from_distinct_objects():
    A, B = ZmModule(4, (2,)), ZmModule(4, (2,))
    assert A is not B and A == B and hash(A) == hash(B)
    a, b = A.element((1,)), B.element((1,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a + b).coords == (0,) and A.add(a, b) == B.add(b, a)
    assert A != ZmModule(4, (4,)) and a != ZmModule(4, (4,)).element((1,))


@st.composite
def small_modules(draw):
    """A module over modulus 2, 3, 4 or 6 of rank 0 to 3, at most 64 elements."""
    m = draw(st.sampled_from([2, 3, 4, 6]))
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    small = st.lists(st.sampled_from(divisors), max_size=3).filter(lambda fs: prod(fs) <= 64)
    factors = draw(small)
    return ZmModule(m, tuple(factors))


@given(small_modules())
@example(ZmModule(6, (6,)))
@example(ZmModule(6, (2, 3)))
@example(ZmModule(6, ()))
@settings(max_examples=40, deadline=None)
def test_layout_tables_agree_with_module_arithmetic(M):
    L = M.layout
    elems, n = L.elements, M.size()
    assert list(elems) == mod_elements(M) and len(elems) == n
    assert len(L.index) == n and all(L.index[e.coords] == i for i, e in enumerate(elems))
    assert len(L.add) == n * n and len(L.neg) == n and len(L.scalar) == M.modulus * n
    for i, x in enumerate(elems):
        assert elems[L.neg[i]] == M.neg(x)
        for j, y in enumerate(elems):
            assert elems[L.add[i * n + j]] == M.add(x, y)
        for r in range(M.modulus):
            assert elems[L.scalar[r * n + i]] == M.scalar(r, x)


def test_equal_modules_do_not_share_a_layout():
    """Each module object owns its layout, so tables live exactly as long
    as the module (one workspace load, one CLI call), never in a cache
    that equal modules made later would read."""
    A, B = ZmModule(4, (2, 4)), ZmModule(4, (2, 4))
    first = mod_elements(A)
    assert "add" not in vars(A.layout)  # tables wait for their first read
    assert A == B and A.layout is A.layout and A.layout is not B.layout
    assert A.layout.add == B.layout.add and A.layout.add is not B.layout.add
    assert all(e.module is A for e in A.layout.elements)
    assert all(e.module is B for e in B.layout.elements)
    # a fresh list of the one set of elements, free to reorder
    second = mod_elements(A)
    assert second is not first and all(a is b for a, b in zip(first, second))


def test_check_rejects_a_foreign_module():
    A, C = ZmModule(4, (2,)), ZmModule(4, (4,))
    with pytest.raises(MlexError):
        A.add(A.element((1,)), C.element((1,)))
    with pytest.raises(MlexError):
        A.neg(C.element((1,)))


def test_mod_elements_examples():
    assert [e.coords for e in mod_elements(ZmModule(2, (2,)))] == [(0,), (1,)]
    assert [e.coords for e in mod_elements(ZmModule(2, ()))] == [()]
    assert [e.coords for e in mod_elements(ZmModule(2, (2, 2)))] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_element_arithmetic():
    M = ZmModule(4, (2, 4))
    a, b = M.element((1, 3)), M.element((1, 2))
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (1, 1)
    assert (3 * a).coords == (1, 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_smith_recomposition(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    A = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
        assert a >= 0


def test_solve_linear_examples():
    sol = solve_congruences([[2]], [0], [4], [4])
    assert sol.particular == (0,)
    assert sol.kernel == [(2,)]
    sol = solve_congruences([[1]], [1], [2], [2])
    assert sol.particular == (1,) and sol.kernel == []
    assert solve_congruences([[0]], [1], [2], [2]) is None


def close_over(particular, kernel, moduli):
    got = {tuple(particular)}
    frontier = [tuple(particular)]
    while frontier:
        new = []
        for s in frontier:
            for k in kernel:
                e = tuple((a + b) % c for a, b, c in zip(s, k, moduli))
                if e not in got:
                    got.add(e)
                    new.append(e)
        frontier = new
    return got


def test_solver_against_exhaustive_search():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        rows, n = rng.randint(1, 2), rng.randint(1, 3)
        rm = [rng.choice([2, 4]) for _ in range(rows)]
        cm = [rng.choice([2, 4]) for _ in range(n)]
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rows)]
        if not all(cm[j] * A[i][j] % rm[i] == 0 for i in range(rows) for j in range(n)):
            continue
        b = [rng.randint(0, rm[i] - 1) for i in range(rows)]
        sol = solve_congruences(A, b, rm, cm)
        brute = {
            x
            for x in itertools.product(*(range(c) for c in cm))
            if all(
                sum(A[i][j] * x[j] for j in range(n)) % rm[i] == b[i]
                for i in range(rows)
            )
        }
        if sol is None:
            assert not brute
        else:
            assert close_over(sol.particular, sol.kernel, cm) == brute
        checked += 1


def test_solver_without_rows_returns_unit_vectors():
    sol = solve_congruences([], [], [], [2])
    assert (sol.particular, sol.kernel) == ((0,), [(1,)])
    sol = solve_congruences([], [], [], [4, 1, 3])
    assert sol.particular == (0, 0, 0)
    assert sol.kernel == [(1, 0, 0), (0, 0, 1)]


def test_factored_system_solves_as_the_one_shot_solver():
    # x0 + 2 x1 = b0, 2 x0 + x2 = b1 and 2 x0 = b2, all mod 4: b2 odd is inconsistent
    A, rm, cm = [[1, 2, 0], [2, 0, 1], [2, 0, 0]], [4, 4, 4], [4, 2, 4]
    system = Congruences(A, rm, cm)
    assert system.kernel == solve_congruences(A, [0, 0, 0], rm, cm).kernel
    outcomes = set()
    for b in itertools.product(range(4), repeat=3):
        sol = system.solve(b)
        assert sol == solve_congruences(A, list(b), rm, cm)
        outcomes.add(sol is None)
    assert outcomes == {True, False}
    assert Congruences([], [], [4, 1, 3]).solve([]) == solve_congruences([], [], [], [4, 1, 3])
    with pytest.raises(MlexError):
        system.solve([0, 0])


def test_presentation_projects_lifts_and_kills_its_relations():
    # Z4 x Z2 x Z6 modulo <(2,1,3)> is Z2 x Z12, the quotient of an algebra
    # on that module by the ideal the element generates
    rows = [[4, 0, 0], [0, 2, 0], [0, 0, 6], [2, 1, 3]]
    P = Presentation(rows, 3)
    assert P.factors == (2, 12)
    for c in itertools.product(*(range(d) for d in P.factors)):
        assert P.project(P.lift(c)) == c
    for row in rows:
        assert P.project(row) == (0, 0)
    M = ZmModule(12, (4, 2, 6))
    A = Algebra(M, {"f": MultilinearOp("f", 2, M, {})})
    Q, _, _ = quotient(A, ideal_generated(A, [M.element((2, 1, 3))]))
    assert Q.module.factors == P.factors


def test_only_modcore_names_the_smith_form():
    for path in sorted(Path(mlex.__file__).parent.glob("*.py")):
        if path.name != "modcore.py":
            text = path.read_text()
            assert "smith_normal_form" not in text and "int_inverse" not in text, path.name


def test_affine_solutions_in_lexicographic_order():
    Z2, Z4 = ZmModule(4, (2,)), ZmModule(4, (4,))

    def residual(c):
        # c0 + 2 c1 = 1 mod 4 (twice) and c0 + c2 = 0 mod 2
        v = Z4.element((c[0] + 2 * c[1] - 1,))
        return [v, v, Z2.element((c[0] + c[2],)), Z2.zero()]

    assert affine_solutions([4, 2, 2], residual) == [(1, 0, 1), (3, 1, 1)]
    assert affine_solutions([2], lambda c: [Z2.element((1,))]) == []
    assert affine_solutions([2, 1], lambda c: []) == [(0, 0), (1, 0)]
    assert affine_solutions([], lambda c: [Z2.zero()]) == [()]


def test_homs_where_without_conditions_is_hom_enumerate():
    pairs = [
        (4, (4, 2), (2, 4)),
        (4, (2, 4), (4,)),
        (4, (4,), (2, 2)),
        (6, (2, 3), (6,)),
        (6, (6,), (2, 3)),
        (6, (3,), (2,)),
    ]
    for m, s, t in pairs:
        M, N = ZmModule(m, s), ZmModule(m, t)
        assert homs_where(M, N, lambda h: []) == list(iter_homs(M, N))


def test_hom_enumerate_counts():
    Z2 = ZmModule(2, (2,))
    assert len(list(iter_homs(Z2, Z2))) == 2
    Z2m4, Z4m4 = ZmModule(4, (2,)), ZmModule(4, (4,))
    maps = list(iter_homs(Z2m4, Z4m4))
    assert len(maps) == 2
    assert sorted(m.images[0].coords for m in maps) == [(0,), (2,)]
    assert len(list(iter_homs(Z4m4, Z2m4))) == 2
    # count formula: product of annihilator sizes
    M, N = ZmModule(4, (2, 4)), ZmModule(4, (4,))
    expected = 1
    for d in M.factors:
        expected *= sum(
            1 for n in mod_elements(N) if N.scalar(d, n).is_zero()
        )
    assert len(list(iter_homs(M, N))) == expected


def test_linmap_rejects_bad_order():
    Z2, Z4 = ZmModule(4, (2,)), ZmModule(4, (4,))
    with pytest.raises(MlexError):
        LinMap(Z2, Z4, (Z4.element((1,)),))


def test_linmap_linearity_exhaustive():
    M, N = ZmModule(4, (2, 4)), ZmModule(4, (4,))
    for f in list(iter_homs(M, N))[:6]:
        for a in mod_elements(M):
            for b in mod_elements(M):
                for r in range(4):
                    assert f(M.add(M.scalar(r, a), b)) == N.add(
                        N.scalar(r, f(a)), f(b)
                    )


def test_span_elements():
    M = ZmModule(4, (4,))
    assert {e.coords for e in span_elements(M, [M.element((2,))])} == {(0,), (2,)}


def test_abelian_decomposition_shuffled():
    rng = random.Random(11)
    for factors in [(2,), (4,), (2, 2), (2, 4), (4, 4), (2, 2, 2)]:
        M = ZmModule(4, factors)
        elems = mod_elements(M)
        rng.shuffle(elems)
        orders, gens, coords = abelian_decomposition(elems, M.add, M.zero())
        assert sorted(orders) == sorted(factors)
        assert len(coords) == M.size()
        # ascending divisibility
        for a, b in zip(orders, orders[1:]):
            assert b % a == 0
