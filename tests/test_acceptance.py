"""Acceptance suite: every item prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
item is also an ordinary test and fails loudly on any violation.
"""

import random
import re

from mlex.modcore import ZmModule, iter_homs, mod_elements
from mlex.algebra import Algebra, MultilinearOp, is_homomorphism
from mlex.termlang import (
    Apply,
    Neg,
    Plus,
    Scalar,
    Signature,
    Var,
    Zero,
    parse_identity,
)
from mlex.cocycle import (
    Action,
    Cocycle,
    SemidirectProduct,
    decompose,
    equivalent,
    extract_cocycle,
    kernel_kind,
    mlf_variety,
    realizes_raw,
)
from mlex.cohomology import (
    derivations,
    enumerate_cocycles,
    enumerate_h2,
    h2_affine,
)
from mlex.derlie import verify_wells
from mlex.expander import action_identity, soundness_check, strict_identity
from mlex.hs import HSDatum, verify_hs
from mlex.cli import main as cli_main
from oracles import (
    all_liftings,
    h_key,
    hom_kill_commutator,
    psi_isomorphism,
    stab_automorphisms,
    with_lifting,
)
from fixture_lib import (
    F2_FILE,
    HS_FILE,
    LEIBNIZ_FILE,
    S3_FILE,
    all_f1_cocycles,
    f1_datum,
    f2_algebra,
    f2_cocycle,
    hs_fixture_a,
    hs_fixture_b,
    hs_fixture_c,
    nonabelian_kernel,
    pure_datum_m4,
    s3_algebra,
    side_action,
    sig_f,
)


def report(number, ok, message):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"acceptance criterion {number} failed: {message}"


def compatible_f1_cocycles():
    Q, I = f1_datum()
    out = []
    for T in enumerate_cocycles(Q, I):
        if SemidirectProduct(T).is_legal():
            out.append(T)
    return out


def test_01_realization_full_enumeration():
    cocycles = all_f1_cocycles()
    ok = len(cocycles) == 64 and all(
        realizes_raw(SemidirectProduct(T), T) for T in cocycles
    )
    report(1, ok, f"semidirect + canonical lifting realizes all {len(cocycles)} cocycles")


def test_02_representation_round_trip():
    checked = 0
    data = [compatible_f1_cocycles()]
    Qp, Ip = pure_datum_m4()
    data.append(
        [
            T
            for T in enumerate_cocycles(Qp, Ip)
            if SemidirectProduct(T).is_legal()
        ]
    )
    ok = True
    for group in data:
        for T in group:
            E, _, _ = SemidirectProduct(T).extension_record()
            T2 = extract_cocycle(E)
            if psi_isomorphism(E, T2) is None:
                ok = False
            checked += 1
    # the F2 algebra itself, presented as a quotient extension, with
    # every lifting of the projection
    from mlex.algebra import ideal_generated, quotient, subalgebra
    from mlex.cocycle import ExtensionRecord

    F2 = f2_algebra()
    ideal = ideal_generated(F2, [F2.module.element((1, 0))])
    Qc, pi, section = quotient(F2, ideal)
    I_alg, iota, _ = subalgebra(F2, ideal.elements)
    E = ExtensionRecord(F2, Qc, I_alg, pi, iota, dict(section))
    E.validate()
    for lifting in all_liftings(E):
        Ex = with_lifting(E, lifting)
        if psi_isomorphism(Ex) is None:
            ok = False
        checked += 1
    report(2, ok, f"extract/rebuild round trip verified on {checked} extensions")


def stabilizing_isomorphism_exists(E1, E2):
    """Independent search over every module map between the carriers."""
    if E1.M.module != E2.M.module:
        return False
    kernel_pairs = [(a, E1.iota(a)) for a in mod_elements(E1.I.module)]
    for phi in iter_homs(E1.M.module, E2.M.module):
        if not phi.is_bijective():
            continue
        if any(phi(img) != E2.iota(a) for a, img in kernel_pairs):
            continue
        if any(
            E2.pi(phi(m)) != E1.pi(m) for m in mod_elements(E1.M.module)
        ):
            continue
        if is_homomorphism(E1.M, E2.M, phi):
            return True
    return False


def test_03_equivalence_matches_lifting_changes():
    compat = compatible_f1_cocycles()
    ok = True
    pairs_checked = 0
    for T in compat:
        E, _, _ = SemidirectProduct(T).extension_record()
        lifts = all_liftings(E)
        cocycles = [extract_cocycle(with_lifting(E, l)) for l in lifts]
        for Ta in cocycles:
            for Tb in cocycles:
                pairs_checked += 1
                if equivalent(Ta, Tb) is None:
                    ok = False
    # converse: non-equivalent cocycles give extensions with no
    # stabilizing isomorphism (independent exhaustive search)
    records = [(T, SemidirectProduct(T).extension_record()[0]) for T in compat]
    for Ta, Ea in records:
        for Tb, Eb in records:
            agree = equivalent(Ta, Tb) is not None
            if stabilizing_isomorphism_exists(Ea, Eb) != agree:
                ok = False
    report(3, ok, f"lifting changes <-> equivalence on {pairs_checked} pairs plus converse")


GOLDEN_STRICT = (
    "Tbr(x, [y, z]) + [a, Tbr(y, z)] + x * Tbr(y, z)"
    " = "
    "Tbr([x, y], z) + Tbr(y, [x, z]) + [Tbr(x, y), c] + [b, Tbr(x, z)]"
    " + Tbr(x, y) o z + y * Tbr(x, z) + T+([[x, y], z], [y, [x, z]])"
)

GOLDEN_ROTA = (
    "P(a) o P(y) + P(x) * P(b)"
    " = "
    "2*P(a o y) + 2*P(x * b)"
    " + P(P(a) o y) + P(P(x) * b) + P(a o P(y)) + P(x * P(b))"
)


def test_04_expander_goldens_and_soundness():
    br_sig = Signature(2, (("br", 2),), bracket="br")
    leib = parse_identity("[x,[y,z]] = [[x,y],z] + [y,[x,z]]", br_sig)
    got_strict = strict_identity(leib, br_sig).render(style="infix")
    rota_sig = Signature(6, (("br", 2), ("P", 1)), bracket="br")
    rota = parse_identity(
        "[P(x), P(y)] = P([P(x), y]) + P([x, P(y)]) + 2*P([x, y])", rota_sig
    )
    got_rota = action_identity(rota, rota_sig).render(style="infix")
    ok = got_strict == GOLDEN_STRICT and got_rota == GOLDEN_ROTA

    # printed-source comparison under the documented notation map: collapse
    # both factor-set symbols to bare T and compare atom multisets
    printed_strict = (
        "[a,T(y,z)] + x*T(y,z) + T(x,[y,z]) = [T(x,y),c] + T(x,y) o z"
        " + T([x,y],z) + [b,T(x,z)] + y*T(x,z) + T(y,[x,z])"
        " + T([[x,y],z],[y,[x,z]])"
    )

    def atoms(text, side):
        text = text.replace("Tbr(", "T(").replace("T+(", "T(")
        text = re.sub(r"\s+", "", text).replace("*", " * ").replace("o", " o ")
        return sorted(re.split(r"\+(?![^(]*\))", text.split("=")[side]))

    for side in (0, 1):
        if atoms(got_strict, side) != atoms(printed_strict, side):
            ok = False

    # semantic anchor: 200 random (term, assignment, fixture) triples
    rng = random.Random(424242)
    sig = sig_f()
    Q, I = f1_datum()
    one = Q.module.element((1,))
    fixtures = [
        f2_cocycle(),
        Cocycle.from_cells(side_action(), tf_cells={("f", (one, one)): one}),
        Cocycle.zero(Q, I, side_action()),
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

    for _ in range(200):
        T = rng.choice(fixtures)
        raw_universe = SemidirectProduct(T).universe()
        t = rand_term(3)
        assignment = tuple(rng.choice(raw_universe) for _ in range(3))
        sound, _ = soundness_check(t, T, sig, assignments=[assignment])
        if not sound:
            ok = False
            break
    report(4, ok, "golden identities match and the split is sound on 200 random triples")


def test_05_kernel_characterizations():
    Q, I = f1_datum()
    data = [(Q, I), (Q, nonabelian_kernel())]
    ok = True
    seen = set()
    checked = 0
    for Qx, Ix in data:
        for T in enumerate_cocycles(Qx, Ix):
            if not SemidirectProduct(T).is_legal():
                continue
            try:
                kinds = kernel_kind(T)  # raises on oracle disagreement
            except Exception:
                ok = False
                break
            seen.add((kinds["abelian"], kinds["central"]))
            checked += 1
    # both characterizations exercised in both directions
    if (True, True) not in seen or (True, False) not in seen or (
        False,
        False,
    ) not in seen:
        ok = False
    report(5, ok, f"syntactic and commutator characterizations agree on {checked} cocycles")


def test_06_affine_h2_consistency():
    Q, I = f1_datum()
    Qp, Ip = pure_datum_m4()
    sig = sig_f()
    fzero = parse_identity("f(x,y) = 0", sig)
    from mlex.termlang import Variety

    fixtures = [
        (Q, I, Action.trivial(Q, I), mlf_variety(sig)),
        (Q, I, side_action(), mlf_variety(sig)),
        (Qp, Ip, Action.trivial(Qp, Ip), mlf_variety(Signature(4, ()))),
        (Q, I, Action.trivial(Q, I), Variety("fzero", sig, (fzero,))),
    ]
    ok = True
    for Qx, Ix, action, V in fixtures:
        H = h2_affine(Qx, Ix, action, V)
        classes = enumerate_h2(Qx, Ix, V, action=action)
        if H.class_count() != len(classes):
            ok = False
            continue
        for rep in H.reps:
            if not any(
                equivalent(rep, cls.representative) is not None for cls in classes
            ):
                ok = False
        for T1 in H.reps:
            for T2 in H.reps:
                if H.class_of(T1.add(T2)) != H.add_classes(
                    H.class_of(T1), H.class_of(T2)
                ):
                    ok = False
    report(6, ok, f"linear-solver and exhaustive routes agree on {len(fixtures)} affine fixtures")


def test_07_pure_module_sanity():
    Qp, Ip = pure_datum_m4()
    classes = enumerate_h2(Qp, Ip, mlf_variety(Signature(4, ())))
    reducts = []
    for cls in classes:
        A, _, _ = SemidirectProduct(cls.representative).to_algebra()
        reducts.append(A.module.factors)
    ok = len(classes) == 2 and sorted(reducts) == [(2, 2), (4,)]
    report(7, ok, "two classes over Z/4, split by group reducts Z2xZ2 and Z4")


def test_08_central_first_cohomology():
    Q, I = f1_datum()
    Z2 = ZmModule(2, (2,))
    Qfull = Algebra(Z2, {"f": MultilinearOp("f", 2, Z2, {(0, 0): Z2.element((1,))})})
    ok = True
    for Qx in (Q, Qfull):
        ders = derivations(Qx, I, Action.trivial(Qx, I))
        indep = hom_kill_commutator(Qx, I)
        if [h_key(h, Qx) for h in ders] != [h_key(h, Qx) for h in indep]:
            ok = False
    # stabilizers match derivations with abelian composition
    for T in (f2_cocycle(), Cocycle.zero(Q, I)):
        E, _, _ = SemidirectProduct(T).extension_record()
        auts, to_der = stab_automorphisms(E)
        ders = derivations(Q, I, extract_cocycle(E).action)
        if sorted(h_key(to_der(g), Q) for g in auts) != [h_key(h, Q) for h in ders]:
            ok = False
        for g1 in auts:
            for g2 in auts:
                if g1.compose(g2).images != g2.compose(g1).images:
                    ok = False
                total = {
                    x: I.module.add(to_der(g1)[x], to_der(g2)[x])
                    for x in mod_elements(Q.module)
                }
                if h_key(to_der(g1.compose(g2)), Q) != h_key(total, Q):
                    ok = False
    report(8, ok, "derivations equal commutator-killing maps; stabilizers are that abelian group")


def test_09_wells_exactness():
    Q, I = f1_datum()
    one = Q.module.element((1,))
    fixtures = [
        f2_cocycle(),
        Cocycle.zero(Q, I),
        Cocycle.zero(Q, I, side_action()),
        Cocycle.from_cells(side_action(), tf_cells={("f", (one, one)): one}),
    ]
    ok = True
    for T in fixtures:
        rep = verify_wells(T)
        if not rep.passed:
            ok = False
    report(9, ok, f"derivation sequence exact with vanishing corollary class on {len(fixtures)} fixtures")


def test_10_hochschild_serre_exactness():
    fixtures = [hs_fixture_a(), hs_fixture_b(), hs_fixture_c()]
    ok = True
    nontrivial_null = False
    nontrivial_transgression = False
    for fx in fixtures:
        datum = HSDatum(*fx)
        rep = verify_hs(datum)
        if not rep.passed:
            ok = False
        if len(datum.null_set) < datum.A.module.size():
            nontrivial_null = True
        from mlex.hs import square_condition, transgression

        AI = datum.coeff.algebra
        H = h2_affine(datum.Q, AI, datum.induced, datum.variety)
        for d in derivations(datum.I_alg, AI, datum.action_I_AI):
            if square_condition(datum, d) and any(
                H.class_of(transgression(datum, d))
            ):
                nontrivial_transgression = True
    ok = ok and nontrivial_null and nontrivial_transgression
    report(10, ok, "five-term sequence exact on 3 fixtures incl. proper null submodule and nonzero transgression")


def test_11_decompositions():
    okA = decompose(f2_algebra(), "nilpotent").verified
    okB = decompose(s3_algebra(), "solvable").verified
    report(11, okA and okB, "tower decompositions rebuild F2 (nilpotent) and the 3-step solvable fixture")


def test_12_determinism(tmp_path, capsys):
    f2 = tmp_path / "f2.mlex"
    f2.write_text(F2_FILE)
    hs1 = tmp_path / "hs1.mlex"
    hs1.write_text(HS_FILE)
    leib = tmp_path / "leibniz.mlex"
    leib.write_text(LEIBNIZ_FILE)
    s3 = tmp_path / "s3.mlex"
    s3.write_text(S3_FILE)
    commands = [
        ["check", "--fixture", str(f2)],
        ["semidirect", "--fixture", str(f2), "--cocycle", "T"],
        ["extract", "--fixture", str(f2), "--algebra", "M", "--ideal", "K"],
        ["equivalent", "--fixture", str(f2), "--left", "T", "--right", "Z0"],
        ["h2", "--datum", str(f2), "--variety", "mlf", "--action", "t0"],
        ["h2", "--datum", str(f2), "--variety", "mlf", "--action", "t0", "--affine"],
        ["h1", "--fixture", str(f2), "--q", "Q", "--i", "I", "--action", "t0"],
        ["derivations", "--fixture", str(f2), "--algebra", "M"],
        ["wells", "--fixture", str(f2), "--cocycle", "T"],
        ["hs", "--fixture", str(hs1)],
        ["expand", "--variety", str(leib), "--emit", "strict"],
        ["expand", "--variety", str(leib), "--emit", "action"],
        ["decompose", "--fixture", str(s3), "--algebra", "S3", "--kind", "solvable"],
        ["series", "--fixture", str(f2), "--algebra", "M", "--kind", "derived"],
    ]
    ok = True
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            ok = False
    report(12, ok, f"{len(commands)} commands byte-identical across repeated runs")
