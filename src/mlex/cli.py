"""Command line interface.

Every command loads a workspace file, runs one computation, and prints a
deterministic report.  Exit codes: 0 success/pass, 1 property violated
or verification failed (with a witness in the output), 2 usage or load
errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import MlexError, ParseError, ValidationError
from .modcore import mod_elements
from .algebra import series as algebra_series
from . import termlang
from .cocycle import (
    SemidirectProduct,
    _fmt,
    _show_pair,
    decompose,
    equivalent,
    extract_cocycle,
    is_compatible,
    kernel_kind,
    mlf_variety,
    realizes_raw,
)
from .cohomology import derivations as datum_derivations
from .cohomology import enumerate_h2, h1, h2_affine
from .derlie import derivations_of, verify_wells
from .expander import (
    action_identity,
    general_identity,
    soundness_check,
    strict_identity,
)
from .hs import HSDatum, verify_hs
from . import workspace as wsmod

USAGE_ERROR, PROPERTY_ERROR = 2, 1


def _fail(message, code):
    print(f"error: {message}")
    return code


def _resolve_variety(ws, name, signature):
    if name == "mlf":
        return mlf_variety(signature)
    return ws.variety(name)


def _signature_of(ws, algebra):
    for V in ws.varieties.values():
        if dict(V.signature.ops) == algebra.signature():
            return V.signature
    return termlang.Signature(
        ws.modulus, tuple(sorted(algebra.signature().items()))
    )


def _print_report(lines, as_json, payload):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_check(args):
    ws = wsmod.load(args.fixture)
    rng = random.Random(args.seed)
    lines = [
        f"modulus {ws.modulus}",
        f"modules {len(ws.modules)}; algebras {len(ws.algebras)}; "
        f"ideals {len(ws.ideals)}; varieties {len(ws.varieties)}; "
        f"actions {len(ws.actions)}; cocycles {len(ws.cocycles)}",
    ]
    failures = []
    for name in sorted(ws.cocycles):
        T = ws.cocycles[name]
        raw = SemidirectProduct(T)
        ok, reason = raw.legality()
        lines.append(f"cocycle {name}: semidirect {'legal' if ok else 'raw only'}"
                     + (f" ({reason})" if reason else ""))
        if not realizes_raw(raw, T):
            failures.append(f"cocycle {name}: semidirect fails realization")
        sig = _signature_of(ws, T.Q)
        for _ in range(args.samples):
            t = _random_term(rng, sig, depth=3)
            sound, ce = soundness_check(t, T, sig)
            if not sound:
                failures.append(
                    f"cocycle {name}: split unsound on {termlang.print_term(t, sig)} at {ce}"
                )
        for vname in sorted(ws.varieties):
            V = ws.varieties[vname]
            if dict(V.signature.ops) != T.Q.signature():
                continue
            try:
                compat = is_compatible(T, V, raw=raw)
            except MlexError as e:
                lines.append(f"cocycle {name} vs {vname}: datum outside variety ({e})")
                continue
            lines.append(f"cocycle {name} vs {vname}: "
                         + ("compatible" if compat else "incompatible"))
    lines.extend(f"FAIL {f}" for f in failures)
    lines.append("check " + ("FAILED" if failures else "OK"))
    _print_report(lines, args.json, {"failures": failures, "ok": not failures})
    return PROPERTY_ERROR if failures else 0


def _random_term(rng, sig, depth):
    vars_ = ["x", "y", "z"]
    ops = list(sig.ops)

    def go(d):
        r = rng.random()
        if d == 0 or r < 0.3:
            return termlang.Var(rng.choice(vars_))
        if r < 0.45:
            return termlang.Neg(go(d - 1))
        if r < 0.6:
            return termlang.Scalar(rng.randrange(sig.modulus), go(d - 1))
        if r < 0.8 or not ops:
            return termlang.Plus(go(d - 1), go(d - 1))
        name, arity = rng.choice(ops)
        return termlang.Apply(name, tuple(go(d - 1) for _ in range(arity)))

    return go(depth)


def cmd_semidirect(args):
    ws = wsmod.load(args.fixture)
    T = ws.cocycle(args.cocycle)
    raw = SemidirectProduct(T)
    ok, reason = raw.legality()
    lines = [f"universe {len(raw.universe())} elements", f"legal: {ok}"]
    if reason:
        lines.append(f"reason: {reason}")
    universe = raw.universe()
    for u in universe:
        for v in universe:
            s = raw.add(u, v)
            lines.append(f"add {_show_pair(u)} {_show_pair(v)} -> {_show_pair(s)}")
    for r in range(raw.modulus):
        for u in universe:
            lines.append(f"scalar {r} {_show_pair(u)} -> {_show_pair(raw.scalar(r, u))}")
    for f in sorted(T.Q.ops):
        arity = T.Q.op_arity(f)
        import itertools

        for args_ in itertools.product(universe, repeat=arity):
            v = raw.apply_op(f, list(args_))
            lines.append(
                f"op {f} " + " ".join(_show_pair(u) for u in args_) + f" -> {_show_pair(v)}"
            )
    _print_report(lines, args.json, {"legal": ok, "reason": reason})
    return 0


def cmd_extract(args):
    ws = wsmod.load(args.fixture)
    A = ws.algebra(args.algebra)
    ideal = ws.ideal(args.ideal)
    from .algebra import quotient, subalgebra
    from .cocycle import ExtensionRecord

    Q, pi, section = quotient(A, ideal)
    I_alg, iota, _ = subalgebra(A, ideal.elements)
    E = ExtensionRecord(A, Q, I_alg, pi, iota, dict(section))
    E.validate()
    T = extract_cocycle(E)
    lines = [f"quotient module {Q.module}", f"kernel module {I_alg.module}"]
    for (x, y), v in T.tplus.items():
        if not v.is_zero():
            lines.append(f"Tplus: ({x},{y}) -> {v}")
    for (r, x), v in T.tr.items():
        if not v.is_zero():
            lines.append(f"Tr {r}: ({x}) -> {v}")
    for (f, xs), v in T.tf.items():
        if not v.is_zero():
            lines.append(f"T{f}: ({_fmt(xs)}) -> {v}")
    for (f, s), table in T.action.tables.items():
        for (qoff, asub), v in table.items():
            if not v.is_zero():
                lines.append(f"a({f},{_fmt(i + 1 for i in s)}): ({_fmt(qoff)}|{_fmt(asub)}) -> {v}")
    kinds = kernel_kind(T)
    lines.append(f"kernel abelian: {kinds['abelian']}; central: {kinds['central']}")
    _print_report(lines, args.json, {"kernel": kinds})
    return 0


def cmd_equivalent(args):
    ws = wsmod.load(args.fixture)
    T1, T2 = ws.cocycle(args.left), ws.cocycle(args.right)
    h = equivalent(T1, T2)
    if h is None:
        _print_report(["NOT EQUIVALENT"], args.json, {"equivalent": False})
        return 0
    lines = ["EQUIVALENT"]
    for x in mod_elements(T1.Q.module):
        lines.append(f"h{x} = {h[x]}")
    payload = {
        "equivalent": True,
        "witness": {str(x): str(v) for x, v in h.items()},
    }
    if args.morphism:
        from .cocycle import is_h2_morphism
        from .modcore import LinMap

        verdict = is_h2_morphism(
            T1,
            T2,
            LinMap.identity(T1.I.module),
            h,
            LinMap.identity(T1.Q.module),
            emend=args.emend,
        )
        reading = "emended" if args.emend else "literal"
        lines.append(f"morphism conditions ({reading}): {'ok' if verdict else 'failed'}")
        payload["morphism"] = verdict
    _print_report(lines, args.json, payload)
    return 0


def cmd_h2(args):
    ws = wsmod.load(args.fixture)
    Q = ws.algebra(args.q)
    I = ws.algebra(args.i)
    sig = _signature_of(ws, Q)
    V = _resolve_variety(ws, args.variety, sig)
    action = ws.action(args.action) if args.action else None
    lines = []
    payload = {}
    if args.affine:
        if action is None:
            raise MlexError("the affine route needs --action")
        H = h2_affine(Q, I, action, V)
        lines.append(
            "H2 invariant factors: "
            + (",".join(str(d) for d in H.invariant_factors) or "trivial")
        )
        lines.append(f"{H.class_count()} classes")
        for i, rep in enumerate(H.reps):
            lines.append(f"class {i}: " + _cocycle_line(rep))
        payload = {
            "classes": H.class_count(),
            "invariant_factors": H.invariant_factors,
        }
    else:
        classes = enumerate_h2(Q, I, V, action=action, budget=args.budget)
        lines.append(f"{len(classes)} classes")
        for i, cls in enumerate(classes):
            lines.append(
                f"class {i} ({cls.size()} cocycles): " + _cocycle_line(cls.representative)
            )
        payload = {"classes": len(classes), "sizes": [c.size() for c in classes]}
    _print_report(lines, args.json, payload)
    return 0


def _cocycle_line(T):
    bits = []
    for (x, y), v in T.tplus.items():
        if not v.is_zero():
            bits.append(f"T+({x},{y})={v}")
    for (f, xs), v in T.tf.items():
        if not v.is_zero():
            bits.append(f"T{f}({_fmt(xs)})={v}")
    for (f, s), table in T.action.tables.items():
        for (qoff, asub), v in table.items():
            if not v.is_zero():
                bits.append(f"a({f},{_fmt(i + 1 for i in s)})({_fmt(qoff)}|{_fmt(asub)})={v}")
    return "; ".join(bits) if bits else "zero cocycle"


def cmd_h1(args):
    ws = wsmod.load(args.fixture)
    Q = ws.algebra(args.q)
    I = ws.algebra(args.i)
    action = ws.action(args.action)
    result = h1(Q, I, action, depth=args.depth)
    lines = [
        f"derivations: {len(result.derivations)}",
        f"principal: {len(result.principal.maps)}"
        + ("" if result.principal.complete else " (depth-bounded, may be incomplete)"),
        f"H1 classes: {result.class_count()}",
        "invariant factors: "
        + (",".join(str(d) for d in result.invariant_factors) or "trivial"),
    ]
    for i, coset in enumerate(result.cosets):
        rep = coset[0]
        desc = ", ".join(f"{x}->{rep[x]}" for x in mod_elements(Q.module))
        lines.append(f"class {i}: {desc}")
    _print_report(
        lines,
        args.json,
        {
            "derivations": len(result.derivations),
            "principal": len(result.principal.maps),
            "classes": result.class_count(),
            "complete": result.principal.complete,
        },
    )
    return 0


def cmd_derivations(args):
    ws = wsmod.load(args.fixture)
    if args.algebra:
        A = ws.algebra(args.algebra)
        ders = derivations_of(A)
        lines = [f"{len(ders)} derivations"]
        for d in ders:
            lines.append(
                "d: " + ", ".join(f"e{i+1}->{v}" for i, v in enumerate(d.images))
            )
        _print_report(lines, args.json, {"count": len(ders)})
        return 0
    Q = ws.algebra(args.q)
    I = ws.algebra(args.i)
    action = ws.action(args.action)
    ders = datum_derivations(Q, I, action)
    lines = [f"{len(ders)} derivations"]
    for d in ders:
        lines.append(
            "h: " + ", ".join(f"{x}->{d[x]}" for x in mod_elements(Q.module))
        )
    _print_report(lines, args.json, {"count": len(ders)})
    return 0


def cmd_wells(args):
    ws = wsmod.load(args.fixture)
    T = ws.cocycle(args.cocycle)
    if not SemidirectProduct(T).is_legal():
        raise MlexError("the cocycle's semidirect product is not a legal algebra")
    report = verify_wells(T)
    lines = report.lines()
    lines.append(
        f"ideal-preserving derivations: {report.der_ideal_count}; "
        f"compatible pairs: {report.pair_count}; obstruction kernel: {report.kernel_pairs}"
    )
    lines.append("wells " + ("PASS" if report.passed else "FAIL"))
    _print_report(lines, args.json, {"checks": report.checks, "pass": report.passed})
    return 0 if report.passed else PROPERTY_ERROR


def cmd_hs(args):
    ws = wsmod.load(args.fixture)
    M = ws.algebra(args.algebra)
    ideal = ws.ideal(args.ideal)
    A = ws.algebra(args.coeff)
    action = ws.action(args.action)
    sig = _signature_of(ws, M)
    V = _resolve_variety(ws, args.variety, sig)
    datum = HSDatum(M, ideal, A, action, V)
    report = verify_hs(datum, depth=args.depth)
    lines = report.lines()
    lines.append(
        "groups: "
        + "; ".join(f"{k}={v}" for k, v in report.sizes.items())
    )
    lines.append("hs " + ("PASS" if report.passed else "FAIL"))
    _print_report(
        lines, args.json, {"checks": report.checks, "sizes": report.sizes, "pass": report.passed}
    )
    return 0 if report.passed else PROPERTY_ERROR


def cmd_expand(args):
    if args.variety.endswith(".mlex"):
        ws = wsmod.load(args.variety)
        varieties = [ws.varieties[n] for n in sorted(ws.varieties)]
    else:
        ws = wsmod.load(args.fixture) if args.fixture else None
        if ws is None:
            raise MlexError("--variety must be a .mlex file or used with --fixture")
        varieties = [ws.variety(args.variety)]
    produce = {
        "general": general_identity,
        "action": action_identity,
        "strict": strict_identity,
    }[args.emit]
    lines = []
    payload = []
    for V in varieties:
        for idx, ident in enumerate(V.identities):
            ms = produce(ident, V.signature, cancel=not args.no_cancel)
            rendered = ms.render(style=args.notation)
            lines.append(f"{V.name}[{idx}] {args.emit}: {rendered}")
            if args.sexp:
                lines.append(f"{V.name}[{idx}] sexp: {ms.to_sexp()}")
            payload.append({"variety": V.name, "index": idx, "text": rendered})
    _print_report(lines, args.json, payload)
    return 0


def cmd_decompose(args):
    ws = wsmod.load(args.fixture)
    A = ws.algebra(args.algebra)
    try:
        result = decompose(A, args.kind)
    except MlexError as e:
        print(f"FAIL {e}")
        return PROPERTY_ERROR
    lines = [f"top quotient: {result.top.module}"]
    for i, stage in enumerate(result.stages):
        flavor = "linear" if stage.cocycle.is_linear() else "nonlinear"
        if stage.cocycle.is_action_trivial():
            flavor = "action-trivial"
        lines.append(
            f"stage {i + 1}: kernel {stage.kernel.module}; cocycle {flavor}; "
            + _cocycle_line(stage.cocycle)
        )
    lines.append(f"reconstruction isomorphic: {result.verified}")
    _print_report(lines, args.json, {"stages": len(result.stages), "verified": result.verified})
    return 0 if result.verified else PROPERTY_ERROR


def cmd_series(args):
    ws = wsmod.load(args.fixture)
    A = ws.algebra(args.algebra)
    chain, reaches_zero, steps = algebra_series(A, args.kind)
    lines = []
    for i, ideal in enumerate(chain):
        elems = ",".join(str(e) for e in ideal.sorted_elements())
        lines.append(f"term {i}: {{{elems}}}")
    label = "solvable" if args.kind == "derived" else "nilpotent"
    if reaches_zero:
        lines.append(f"{label}: yes ({steps} steps)")
    else:
        lines.append(f"{label}: no")
    _print_report(lines, args.json, {"reaches_zero": reaches_zero, "steps": steps})
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="mlex",
        description="extension and cohomology calculator for finite multilinear module expansions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fixture=True):
        if fixture:
            sp.add_argument("--fixture", "--datum", dest="fixture", required=True)
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("check", help="load, validate, and self-test a workspace")
    common(sp)
    sp.add_argument("--seed", type=int, default=20240501)
    sp.add_argument("--samples", type=int, default=10)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("semidirect", help="print the semidirect product table")
    common(sp)
    sp.add_argument("--cocycle", required=True)
    sp.set_defaults(func=cmd_semidirect)

    sp = sub.add_parser("extract", help="extract the cocycle of a quotient extension")
    common(sp)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--ideal", required=True)
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("equivalent", help="search for an equivalence witness")
    common(sp)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument(
        "--morphism",
        action="store_true",
        help="also verify the witness against the morphism conditions",
    )
    sp.add_argument(
        "--emend",
        action="store_true",
        help="use the corrected reading of the third morphism condition",
    )
    sp.set_defaults(func=cmd_equivalent)

    sp = sub.add_parser("h2", help="second cohomology classes")
    common(sp)
    sp.add_argument("--q", default="Q")
    sp.add_argument("--i", default="I")
    sp.add_argument("--variety", required=True)
    sp.add_argument("--action", default=None)
    sp.add_argument("--affine", action="store_true")
    sp.add_argument("--budget", type=int, default=2**20)
    sp.set_defaults(func=cmd_h2)

    sp = sub.add_parser("h1", help="first cohomology of a datum with action")
    common(sp)
    sp.add_argument("--q", default="Q")
    sp.add_argument("--i", default="I")
    sp.add_argument("--action", required=True)
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("derivations", help="derivations of an algebra or datum")
    common(sp)
    sp.add_argument("--algebra", default=None)
    sp.add_argument("--q", default="Q")
    sp.add_argument("--i", default="I")
    sp.add_argument("--action", default=None)
    sp.set_defaults(func=cmd_derivations)

    sp = sub.add_parser("wells", help="verify the derivation exact sequence")
    common(sp)
    sp.add_argument("--cocycle", required=True)
    sp.set_defaults(func=cmd_wells)

    sp = sub.add_parser("hs", help="verify the five-term exact sequence")
    common(sp)
    sp.add_argument("--algebra", default="M")
    sp.add_argument("--ideal", default="I")
    sp.add_argument("--coeff", default="A")
    sp.add_argument("--action", default="act")
    sp.add_argument("--variety", default="mlf")
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(func=cmd_hs)

    sp = sub.add_parser("expand", help="emit 2-cocycle identities for a variety")
    sp.add_argument("--fixture", default=None)
    sp.add_argument("--variety", required=True)
    sp.add_argument("--emit", choices=["general", "action", "strict"], required=True)
    sp.add_argument("--notation", choices=["functional", "infix"], default="infix")
    sp.add_argument("--no-cancel", action="store_true")
    sp.add_argument("--sexp", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("decompose", help="solvable/nilpotent tower decomposition")
    common(sp)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--kind", choices=["solvable", "nilpotent"], required=True)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("series", help="derived or lower central series")
    common(sp)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--kind", choices=["derived", "lower_central"], required=True)
    sp.set_defaults(func=cmd_series)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as e:
        return _fail(str(e), USAGE_ERROR)
    except MlexError as e:
        return _fail(str(e), PROPERTY_ERROR)


if __name__ == "__main__":
    sys.exit(main())
