import itertools
import random
import re

from mlex.modcore import mod_elements
from mlex.termlang import (
    Apply,
    Neg,
    Plus,
    Scalar,
    Signature,
    Var,
    Zero,
    parse_identity,
    parse_term,
    print_term,
)
from mlex.cocycle import Action, Cocycle, SemidirectProduct
from mlex.cocycle import _action_from_generator_tables
from mlex.expander import (
    ActionApp,
    AVar,
    FactorF,
    FactorPlus,
    action_identity,
    eval_sum,
    general_identity,
    kernel_names,
    render_sum,
    soundness_check,
    split,
    strict_identity,
)
from fixture_lib import f1_datum, f2_cocycle, side_action


BR_SIG = Signature(2, (("br", 2),), bracket="br")


def test_split_plus():
    res = split(parse_term("x + y", BR_SIG), BR_SIG)
    assert render_sum(res.pure, BR_SIG) == "a + b"
    assert res.star.is_zero()
    assert list(res.delta.items) == [FactorPlus(Var("x"), Var("y"))]
    assert res.qterm == Plus(Var("x"), Var("y"))


def test_split_binary_op():
    res = split(parse_term("[x, y]", BR_SIG), BR_SIG)
    assert render_sum(res.pure, BR_SIG) == "[a, b]"
    star_atoms = set(res.star.items)
    assert star_atoms == {
        ActionApp("br", (0,), (Zero(), Var("y")), (AVar("a"),)),
        ActionApp("br", (1,), (Var("x"), Zero()), (AVar("b"),)),
    }
    assert list(res.delta.items) == [FactorF("br", (Var("x"), Var("y")))]


def test_split_zero():
    res = split(parse_term("0", BR_SIG), BR_SIG)
    assert res.pure.is_zero() and res.star.is_zero() and res.delta.is_zero()


def test_kernel_names_follow_letters():
    assert kernel_names(["x", "y", "z"]) == {"x": "a", "y": "b", "z": "c"}
    assert kernel_names(["x1", "y1", "x2"]) == {"x1": "a1", "y1": "b1", "x2": "a2"}


LEIBNIZ = parse_identity("[x,[y,z]] = [[x,y],z] + [y,[x,z]]", BR_SIG)

# The left-Leibniz strict identity as mechanically expanded.  Two kernel
# variables differ from one printed source (swapped between the sides);
# the split is anchored instead by the first-coordinate soundness check
# below, which fails for the swapped variant.
GOLDEN_LEIBNIZ_STRICT = (
    "Tbr(x, [y, z]) + [a, Tbr(y, z)] + x * Tbr(y, z)"
    " = "
    "Tbr([x, y], z) + Tbr(y, [x, z]) + [Tbr(x, y), c] + [b, Tbr(x, z)]"
    " + Tbr(x, y) o z + y * Tbr(x, z) + T+([[x, y], z], [y, [x, z]])"
)

GOLDEN_LEIBNIZ_ACTION = (
    "[a, b o z] + [a, y * c] + a o [y, z] + x * [b, c] + x * (b o z) + x * (y * c)"
    " = "
    "[a o y, c] + [a, b] o z + [b, a o z] + [b, x * c] + [x * b, c] + [x, y] * c"
    " + b o [x, z] + y * [a, c] + (a o y) o z + (x * b) o z + y * (a o z) + y * (x * c)"
)


def test_leibniz_strict_golden():
    ms = strict_identity(LEIBNIZ, BR_SIG)
    assert ms.render(style="infix") == GOLDEN_LEIBNIZ_STRICT


def test_leibniz_action_golden():
    ms = action_identity(LEIBNIZ, BR_SIG)
    assert ms.render(style="infix") == GOLDEN_LEIBNIZ_ACTION


def test_leibniz_strict_matches_printed_form_as_multiset():
    """After collapsing both factor-set symbols to a single letter the
    rendered strict identity agrees side-by-side with the printed source
    formula up to the documented two-variable correction."""
    printed = (
        "[a,T(y,z)] + x * T(y,z) + T(x,[y,z])"
        " = "
        "[T(x,y),c] + T(x,y) o z + T([x,y],z) + [b,T(x,z)] + y * T(x,z)"
        " + T(y,[x,z]) + T([[x,y],z],[y,[x,z]])"
    )
    ours = strict_identity(LEIBNIZ, BR_SIG).render(style="infix")
    def atoms(text, side):
        text = text.replace("Tbr(", "T(").replace("T+(", "T(")
        text = re.sub(r"\s+", "", text)
        return sorted(text.split("=")[side].split("+T(")[0:1]) and sorted(
            re.split(r"\+(?![^(]*\))", text.split("=")[side])
        )
    # compare atom multisets on each side
    for side in (0, 1):
        assert atoms(ours, side) == atoms(printed, side)


ROTA_SIG = Signature(6, (("br", 2), ("P", 1)), bracket="br")
ROTA = parse_identity(
    "[P(x), P(y)] = P([P(x), y]) + P([x, P(y)]) + 2*P([x, y])", ROTA_SIG
)

GOLDEN_ROTA_ACTION = (
    "P(a) o P(y) + P(x) * P(b)"
    " = "
    "2*P(a o y) + 2*P(x * b)"
    " + P(P(a) o y) + P(P(x) * b) + P(a o P(y)) + P(x * P(b))"
)


def test_rota_baxter_action_golden():
    ms = action_identity(ROTA, ROTA_SIG)
    assert ms.render(style="infix") == GOLDEN_ROTA_ACTION


def test_rota_baxter_action_matches_printed_form():
    """The printed source action identity with weight w maps onto the
    rendered identity under {* , o} plus 'w P(u)' -> 'w*P(u)'."""
    printed = (
        "P(x) * P(b) + P(a) o P(y)"
        " = P(P(x) * b) + P(P(a) o y) + P(x * P(b)) + P(a o P(y))"
        " + 2*P(a o y) + 2*P(x * b)"
    )
    ours = action_identity(ROTA, ROTA_SIG).render(style="infix")

    def atom_multiset(text, side):
        text = re.sub(r"\s+", "", text)
        return sorted(text.split("=")[side].split("+"))

    for side in (0, 1):
        assert atom_multiset(printed, side) == atom_multiset(ours, side)


def test_binary_additivity_identity_matches_simplified_form():
    """Additivity of a binary operation in the first argument, after
    cancellation, ends with the group factor set of the two images."""
    sig = Signature(2, (("f", 2),))
    ident = parse_identity("f(x1 + y1, x2) = f(x1, x2) + f(y1, x2)", sig)
    ms = general_identity(ident, sig)
    text = ms.render(style="functional")
    assert text.endswith("T+(f(x1, x2), f(y1, x2))")
    lhs, rhs = text.split(" = ")
    assert "f(T+(x1, y1), a2)" in lhs
    assert "a(f,1)(_, x2 | T+(x1, y1))" in lhs
    assert "a(f,2)(x1 + y1, _ | a2)" in lhs
    assert "Tf(x1 + y1, x2)" in lhs
    assert "a(f,2)(x1, _ | a2)" in rhs and "a(f,2)(y1, _ | a2)" in rhs
    assert "Tf(x1, x2)" in rhs and "Tf(y1, x2)" in rhs
    # the common action atoms cancelled
    assert "a(f,1)(_, x2 | a1)" not in text


def test_cancellation_flag():
    sig = Signature(2, (("f", 2),))
    ident = parse_identity("f(x1 + y1, x2) = f(x1, x2) + f(y1, x2)", sig)
    raw = general_identity(ident, sig, cancel=False)
    cooked = general_identity(ident, sig, cancel=True)
    assert "a(f,1)(_, x2 | a1)" in raw.render()
    assert "a(f,1)(_, x2 | a1)" not in cooked.render()


def test_soundness_random_triples():
    """First-coordinate agreement between the raw semidirect evaluation
    and the evaluated split, over random (term, cocycle, assignment)."""
    rng = random.Random(2024)
    sig = Signature(2, (("f", 2),))
    Q, I = f1_datum()
    one = Q.module.element((1,))
    A10 = side_action()
    cocycles = [
        f2_cocycle(),
        Cocycle.from_cells(A10, tf_cells={("f", (one, one)): one}),
        # free scalar factor set, not telescoped, still sound
        Cocycle(
            A10,
            {(one, one): one},
            {(0, one): Q.module.zero(), (1, one): one},
            {("f", (one, one)): one},
        ),
    ]

    def rand_term(depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            return rng.choice([Var("x"), Var("y"), Var("z"), Zero()])
        if r < 0.5:
            return Neg(rand_term(depth - 1))
        if r < 0.62:
            return Scalar(rng.randint(0, 1), rand_term(depth - 1))
        if r < 0.82:
            return Plus(rand_term(depth - 1), rand_term(depth - 1))
        return Apply("f", (rand_term(depth - 1), rand_term(depth - 1)))

    checked = 0
    while checked < 200:
        t = rand_term(3)
        T = rng.choice(cocycles)
        raw = SemidirectProduct(T)
        universe = raw.universe()
        variables = sorted(set(v for v in ("x", "y", "z")))
        assignment = tuple(rng.choice(universe) for _ in variables)
        ok, ce = soundness_check(t, T, sig, assignments=[assignment])
        assert ok, (print_term(t, sig), ce)
        checked += 1


def test_swapped_leibniz_strict_variant_is_semantically_wrong():
    """The mechanically expanded left side contains [a, T(y, z)], not the
    swapped [a, T(x, z)] found in one printed source: on a datum with a
    nonzero kernel operation the two atoms evaluate differently, and only
    the mechanical split satisfies first-coordinate soundness."""
    from mlex.modcore import ZmModule
    from mlex.algebra import Algebra, MultilinearOp
    from mlex.expander import IOpApp, eval_atom

    Z2 = ZmModule(2, (2,))
    Qb = Algebra(Z2, {"br": MultilinearOp("br", 2, Z2, {})})
    Ib = Algebra(Z2, {"br": MultilinearOp("br", 2, Z2, {(0, 0): Z2.element((1,))})})
    one = Z2.element((1,))
    T = Cocycle.from_cells(
        Action.trivial(Qb, Ib), tf_cells={("br", (one, one)): one}
    )
    qy = Apply("br", (Var("y"), Var("z")))
    correct = IOpApp("br", (AVar("a"), FactorF("br", (Var("y"), Var("z")))))
    swapped = IOpApp("br", (AVar("a"), FactorF("br", (Var("x"), Var("z")))))
    env_i = {"a": one, "b": Z2.zero(), "c": Z2.zero()}
    env_q = {"x": Z2.zero(), "y": one, "z": one}
    assert eval_atom(correct, T, env_i, env_q) != eval_atom(swapped, T, env_i, env_q)
    # the mechanical split carries the correct atom and stays sound
    parts = split(LEIBNIZ.lhs, BR_SIG, list(LEIBNIZ.variables))
    assert correct in parts.delta.items
    assert swapped not in parts.delta.items
    ok, _ = soundness_check(LEIBNIZ.lhs, T, BR_SIG)
    assert ok


def test_sexp_emission():
    ms = strict_identity(LEIBNIZ, BR_SIG)
    sexp = ms.to_sexp()
    assert sexp.startswith("(= (sum")
    assert "(tf br" in sexp and "(tplus" in sexp


def test_ternary_split_soundness_with_plural_slot_action():
    """Arity-3 operation with a two-slot action term: the split stays
    sound, exercising the multi-slot expansion paths."""
    from mlex.modcore import ZmModule
    from mlex.algebra import Algebra, MultilinearOp
    from mlex.cocycle import _action_from_generator_tables

    Z2 = ZmModule(2, (2,))
    Qt = Algebra(Z2, {"g": MultilinearOp("g", 3, Z2, {})})
    It = Algebra(Z2, {"g": MultilinearOp("g", 3, Z2, {})})
    one = Z2.element((1,))
    act = _action_from_generator_tables(
        Qt, It, {("g", (0, 1)): {((one,), (0, 0)): one}}
    )
    act.validate()
    T = Cocycle.from_cells(act, tf_cells={("g", (one, one, one)): one})
    sig = Signature(2, (("g", 3),))
    raw = SemidirectProduct(T)
    assert raw.is_legal()
    rng = random.Random(99)

    def rand_term(depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            return rng.choice([Var("x"), Var("y"), Var("z"), Zero()])
        if r < 0.55:
            return Neg(rand_term(depth - 1))
        if r < 0.75:
            return Plus(rand_term(depth - 1), rand_term(depth - 1))
        return Apply(
            "g", (rand_term(depth - 1), rand_term(depth - 1), rand_term(depth - 1))
        )

    universe = raw.universe()
    fixed = [
        parse_term("g(g(x, y, z), y, z)", sig),
        parse_term("g(x + y, z, x)", sig),
        parse_term("g(x, y, z) + g(y, z, x)", sig),
    ]
    for t in fixed:
        ok, ce = soundness_check(t, T, sig)
        assert ok, (t, ce)
    for _ in range(25):
        t = rand_term(2)
        assignment = tuple(rng.choice(universe) for _ in range(3))
        ok, ce = soundness_check(t, T, sig, assignments=[assignment])
        assert ok, (t, ce)


def test_compatibility_via_identities_matches_direct_route():
    """A cocycle is variety-compatible exactly when the semidirect table
    is legal and every general 2-cocycle identity of the variety holds
    under the symbolic evaluation."""
    from mlex.cocycle import is_compatible
    from fixture_lib import leibniz_variety

    leib = leibniz_variety()
    sig = leib.signature
    Q, I = f1_datum()
    one = Q.module.element((1,))
    candidates = [
        f2_cocycle(),
        Cocycle.zero(Q, I),
        Cocycle.zero(Q, I, side_action()),
        Cocycle.from_cells(side_action(), tf_cells={("f", (one, one)): one}),
        Cocycle.from_cells(
            Action.trivial(Q, I), tplus_cells={(one, one): one}
        ),
    ]
    for T in candidates:
        raw = SemidirectProduct(T)
        via_identities = raw.is_legal()
        if via_identities:
            for ident in leib.identities:
                g = general_identity(ident, sig, cancel=False)
                names = kernel_names(list(ident.variables))
                for combo in itertools.product(
                    raw.universe(), repeat=len(ident.variables)
                ):
                    env_i = {
                        names[v]: c[0] for v, c in zip(ident.variables, combo)
                    }
                    env_q = {v: c[1] for v, c in zip(ident.variables, combo)}
                    if eval_sum(g.lhs, T, env_i, env_q) != eval_sum(
                        g.rhs, T, env_i, env_q
                    ):
                        via_identities = False
                        break
                if not via_identities:
                    break
        assert via_identities == is_compatible(T, leib, check_datum=False)


def test_affine_delta_independent_of_kernel_coordinates():
    sig = Signature(2, (("f", 2),))
    Q, I = f1_datum()
    T = Cocycle.from_cells(side_action(), tf_cells={})
    res = split(parse_term("f(f(x,y), z)", sig), sig)
    for combo_q in itertools.product(mod_elements(Q.module), repeat=3):
        env_q = dict(zip(["x", "y", "z"], combo_q))
        values = set()
        for combo_i in itertools.product(mod_elements(I.module), repeat=3):
            env_i = dict(zip([res.names[v] for v in ["x", "y", "z"]], combo_i))
            values.add(eval_sum(res.delta, T, env_i, env_q))
        assert len(values) == 1
