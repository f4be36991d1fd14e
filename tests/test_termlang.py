import random

import pytest
from hypothesis import given, settings, strategies as st

from mlex.errors import MlexError, ParseError
from mlex.modcore import ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp
from mlex.cocycle import Action, Cocycle, SemidirectProduct
from mlex import termlang
from mlex.termlang import (
    Apply,
    Identity,
    Neg,
    Plus,
    Scalar,
    Signature,
    Var,
    Variety,
    Zero,
    counterexample,
    eval_term,
    holds,
    in_variety,
    is_multilinear,
    parse_identity,
    parse_term,
    print_term,
)
from fixture_lib import f1_datum, f2_algebra, leibniz_variety, sig_f, zero_binary_algebra


SIG = Signature(4, (("f", 2), ("g", 2), ("P", 1)))


def test_parse_examples():
    t = parse_term("f(x, g(y, z))", SIG)
    assert t == Apply("f", (Var("x"), Apply("g", (Var("y"), Var("z")))))
    t = parse_term("2*x + -y", SIG)
    assert t == Plus(Scalar(2, Var("x")), Neg(Var("y")))
    with pytest.raises(ParseError):
        parse_term("f(x)", SIG)
    with pytest.raises(ParseError):
        parse_term("h(x, y)", SIG)
    with pytest.raises(ParseError):
        parse_term("x +", SIG)
    with pytest.raises(ParseError):
        parse_term("[x, y]", SIG)  # no bracket designated


def test_parse_positions():
    try:
        parse_term("f(x, ?)", SIG)
    except ParseError as e:
        assert e.col is not None
    else:
        raise AssertionError("expected a syntax error")


def term_strategy(depth=3):
    leaf = st.sampled_from([Var("x"), Var("y"), Zero()])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Scalar, st.integers(0, 3), sub),
            st.builds(Plus, sub, sub),
            st.builds(lambda a, b: Apply("f", (a, b)), sub, sub),
            st.builds(lambda a: Apply("P", (a,)), sub),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(term_strategy())
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t, SIG), SIG) == t


def test_print_normalizes_reassociation():
    # parsing a printed right-nested sum keeps the AST; parsing flat text
    # associates to the left
    t = parse_term("x + y + x", SIG)
    assert t == Plus(Plus(Var("x"), Var("y")), Var("x"))


def test_eval_examples():
    Z2 = ZmModule(2, (2,))
    pure = Algebra(Z2, {})
    one = Z2.element((1,))
    assert eval_term(pure, parse_term("x + x", Signature(2, ())), {"x": one}).is_zero()
    F2 = f2_algebra()
    sig = sig_f()
    e1, e2 = F2.module.generator(0), F2.module.generator(1)
    assert eval_term(F2, parse_term("f(x,x)", sig), {"x": e2}) == e1
    assert eval_term(pure, parse_term("0", Signature(2, ())), {}).is_zero()
    with pytest.raises(MlexError):
        eval_term(pure, Var("missing"), {})


def test_holds_examples():
    F2 = f2_algebra()
    sig = sig_f()
    leib = parse_identity("[x,[y,z]] = [[x,y],z] + [y,[x,z]]", sig)
    assert holds(F2, leib)
    ce = counterexample(F2, parse_identity("f(x,y) = 0", sig))
    e2 = F2.module.generator(1)
    assert ce == {"x": e2, "y": e2}
    zero_alg = Algebra(ZmModule(2, ()), {"f": MultilinearOp("f", 2, ZmModule(2, ()), {})})
    assert holds(zero_alg, leib)


def test_counterexample_is_lexicographically_first():
    F2 = f2_algebra()
    sig = sig_f()
    ident = parse_identity("f(x,y) = 0", sig)
    ce = counterexample(F2, ident)
    elems = mod_elements(F2.module)
    order = {e: i for i, e in enumerate(elems)}
    seen = False
    for x in elems:
        for y in elems:
            if not F2.eval_op("f", (x, y)).is_zero():
                assert (order[ce["x"]], order[ce["y"]]) <= (order[x], order[y])
                seen = True
    assert seen


def test_in_variety_examples():
    F2 = f2_algebra()
    sig = sig_f()
    assert in_variety(F2, leibniz_variety())
    comm_assoc = Variety(
        "ca",
        sig,
        (
            parse_identity("f(x,y) = f(y,x)", sig),
            parse_identity("f(x,f(y,z)) = f(f(x,y),z)", sig),
        ),
    )
    assert in_variety(F2, comm_assoc)
    Z2 = ZmModule(2, (2,))
    bad = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    alt = Variety("alt", sig_f(), (parse_identity("f(x,x) = 0", sig_f()),))
    assert not in_variety(bad, alt)
    with pytest.raises(MlexError):
        in_variety(Algebra(Z2, {}), alt)  # signature mismatch


def eval_term_by_substitution(carrier, t, env):
    """Independent evaluator: substitute then fold bottom-up on a stack."""
    if isinstance(t, Var):
        return env[t.name]
    stack = [(t, False)]
    values = []
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Var):
            values.append(env[node.name])
            continue
        if isinstance(node, Zero):
            values.append(carrier.zero())
            continue
        if not expanded:
            stack.append((node, True))
            if isinstance(node, (Neg, Scalar)):
                stack.append((node.arg, False))
            elif isinstance(node, Plus):
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                for a in reversed(node.args):
                    stack.append((a, False))
        else:
            if isinstance(node, Neg):
                values.append(carrier.neg(values.pop()))
            elif isinstance(node, Scalar):
                values.append(carrier.scalar(node.coeff, values.pop()))
            elif isinstance(node, Plus):
                b, a = values.pop(), values.pop()
                values.append(carrier.add(a, b))
            else:
                args = [values.pop() for _ in node.args][::-1]
                values.append(carrier.apply_op(node.op, args))
    return values[0]


def test_two_evaluators_agree():
    rng = random.Random(13)
    F2 = f2_algebra()
    sig = sig_f()

    def rand_term(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return rng.choice([Var("x"), Var("y"), Zero()])
        if r < 0.45:
            return Neg(rand_term(depth - 1))
        if r < 0.6:
            return Scalar(rng.randint(0, 1), rand_term(depth - 1))
        if r < 0.8:
            return Plus(rand_term(depth - 1), rand_term(depth - 1))
        return Apply("f", (rand_term(depth - 1), rand_term(depth - 1)))

    elems = mod_elements(F2.module)
    for _ in range(100):
        t = rand_term(4)
        env = {"x": rng.choice(elems), "y": rng.choice(elems)}
        assert eval_term(F2, t, env) == eval_term_by_substitution(F2, t, env)


def test_multilinear_term_is_slotwise_linear():
    """Terms built from applications without repeated variables evaluate
    linearly in each variable."""
    F2 = f2_algebra()
    sig = sig_f()
    t = parse_term("f(x, f(y, z))", sig)
    M = F2.module
    for y in mod_elements(M):
        for z in mod_elements(M):
            for x1 in mod_elements(M):
                for x2 in mod_elements(M):
                    lhs = eval_term(F2, t, {"x": M.add(x1, x2), "y": y, "z": z})
                    rhs = M.add(
                        eval_term(F2, t, {"x": x1, "y": y, "z": z}),
                        eval_term(F2, t, {"x": x2, "y": y, "z": z}),
                    )
                    assert lhs == rhs


def test_identity_variable_list_enforced():
    with pytest.raises(MlexError):
        Identity(Var("x"), Var("y"), ("x",))
    ident = parse_identity("f(x,y) = f(y,x)", SIG)
    assert ident.variables == ("x", "y")


def test_is_multilinear_examples():
    sig = sig_f()
    multilinear = [
        "[x,[y,z]] = [[x,y],z] + [y,[x,z]]",
        "f(x,y) = f(y,x)",
        "f(x,y) + 2*f(x,y) = -f(x + x, y)",
        "f(x, 0) + f(0 + 0, y) = 0",
    ]
    other = ["f(x,x) = 0", "f(x + y, z) = f(x, z) + f(y, z)", "f(x,y) = x", "f(x,y) = 0 + x"]
    assert all(is_multilinear(parse_identity(text, sig)) for text in multilinear)
    assert not any(is_multilinear(parse_identity(text, sig)) for text in other)


def _count_lhs_evaluations(monkeypatch, carrier, ident):
    calls = []

    def counted(c, t, env):
        if t is ident.lhs:
            calls.append(env)
        return eval_term(c, t, env)

    monkeypatch.setattr(termlang, "eval_term", counted)
    verdict = holds(carrier, ident)
    monkeypatch.setattr(termlang, "eval_term", eval_term)
    return verdict, len(calls)


def test_multilinear_identity_on_a_legal_table_reads_generator_tuples(monkeypatch):
    """Leibniz on a legal |E| = 16 product: every element tuple before the
    verdict is known, generator tuples only once it is cached as legal, and
    ``holds`` never computes the verdict itself."""
    Q2 = ZmModule(2, (2, 2))
    Q, I = zero_binary_algebra(Q2), zero_binary_algebra(Q2)
    e1 = Q2.generator(0)
    # the bilinear factor set f(x, y) = x_1 y_2 e1
    tf = {
        ("f", (x, y)): e1
        for x in mod_elements(Q2)
        for y in mod_elements(Q2)
        if x.coords[0] * y.coords[1] % 2
    }
    T = Cocycle.from_cells(Action.trivial(Q, I), tf_cells=tf)
    raw = SemidirectProduct(T)
    ident = leibniz_variety().identities[0]
    assert _count_lhs_evaluations(monkeypatch, raw, ident) == (True, 16**3)
    assert raw._legal is None
    assert raw.is_legal()
    gens = raw.multilinear_generators()
    assert len(gens) == 4
    assert _count_lhs_evaluations(monkeypatch, raw, ident) == (True, len(gens) ** 3)
    cube = parse_identity("f(f(x,x),x) = 0", sig_f())
    assert _count_lhs_evaluations(monkeypatch, raw, cube) == (True, 16)


def test_legal_table_whose_zero_is_not_the_identity_stays_exhaustive():
    """A constant group factor set c with r-fold scalar factor sets r*c is
    legal, but its identity is (-c, 0), not ``zero()``: generator tuples
    would not decide identities written with 0, -x or r*x there."""
    Q, I = f1_datum()
    zero, one = mod_elements(Q.module)
    tplus = {(x, y): one for x in (zero, one) for y in (zero, one)}
    tr = {(r, x): one if r == 1 else zero for r in range(2) for x in (zero, one)}
    tf = {("f", (x, y)): one for x in (zero, one) for y in (zero, one)}
    raw = SemidirectProduct(Cocycle(Action.trivial(Q, I), tplus, tr, tf))
    assert raw.is_legal()
    assert raw.multilinear_generators() is None
