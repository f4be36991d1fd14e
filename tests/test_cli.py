import collections
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from mlex.cli import COMMANDS, build_parser, main
from fixture_lib import (
    AFFINE_M4_FILE,
    COBOUNDARY_FILE,
    COSET_FILE,
    F2_FILE,
    GCD_FILE,
    HS_B_FILE,
    HS_FILE,
    HS_M_FILE,
    HS_TWIST_FILE,
    LEIBNIZ_FILE,
    PAIR_CUT_FILE,
    ROTA_FILE,
    S3_FILE,
    TABLE_ORDER_FILE,
)


@pytest.fixture
def f2(tmp_path):
    p = tmp_path / "f2.mlex"
    p.write_text(F2_FILE)
    return str(p)


@pytest.fixture
def hs1(tmp_path):
    p = tmp_path / "hs1.mlex"
    p.write_text(HS_FILE)
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_ok(f2, capsys):
    code, out = run(["check", "--fixture", f2], capsys)
    assert code == 0
    assert "check OK" in out
    assert "cocycle T vs leibniz: compatible" in out


def test_load_errors(tmp_path, capsys):
    bad = tmp_path / "bad.mlex"
    bad.write_text(
        "[ring] modulus = 2\n[module Z] factors = 2\n"
        "[algebra Q] module = Z; op f/2\n[algebra I] module = Z; op f/2\n"
        "[action t0] Q = Q; I = I\n"
        "[cocycle B] action = t0; Tplus: ((0),(1)) -> (1)\n"
    )
    code, out = run(["check", "--fixture", str(bad)], capsys)
    assert code == 2
    assert "T1 violated" in out
    missing = tmp_path / "missing.mlex"
    missing.write_text("[ring] modulus = 2\n[module Z] factors = 3\n")
    code, out = run(["check", "--fixture", str(missing)], capsys)
    assert code == 2
    assert "does not divide" in out


def test_syntax_error_position(tmp_path, capsys):
    bad = tmp_path / "syntax.mlex"
    bad.write_text("[ring] modulus = 2\n[wat x] stuff = 1\n")
    code, out = run(["check", "--fixture", str(bad)], capsys)
    assert code == 2
    assert "line 2" in out


ILLEGAL_FILE = (
    "[ring] modulus = 2\n[module Z] factors = 2\n"
    "[algebra Q] module = Z; op f/2\n[algebra I] module = Z; op f/2\n"
    "[action t0] Q = Q; I = I\n"
    "[cocycle G] action = t0; Tplus: ((1),(1)) -> (1)\n"
)


def test_check_reports_illegal_semidirect(tmp_path, capsys):
    """A cocycle that passes normalization but builds an illegal table is
    reported as raw-only, not rejected at load."""
    fx = tmp_path / "raw.mlex"
    fx.write_text(ILLEGAL_FILE)
    code, out = run(["check", "--fixture", str(fx)], capsys)
    assert code == 0
    assert "semidirect raw only" in out
    assert "annihilated" in out
    code, out = run(["semidirect", "--fixture", str(fx), "--cocycle", "G"], capsys)
    assert code == 0
    assert "legal: False" in out


def test_h2_commands(f2, capsys):
    code, out = run(
        ["h2", "--datum", f2, "--variety", "mlf", "--action", "t0"], capsys
    )
    assert code == 0
    assert "2 classes" in out
    code, out2 = run(
        ["h2", "--datum", f2, "--variety", "mlf", "--action", "t0", "--affine"],
        capsys,
    )
    assert code == 0
    assert "invariant factors: 2" in out2
    code, out3 = run(
        ["h2", "--datum", f2, "--variety", "leibniz", "--action", "t0"], capsys
    )
    assert code == 0 and "classes" in out3


def test_h2_budget_flag(f2, capsys):
    code, out = run(
        ["h2", "--datum", f2, "--variety", "mlf", "--budget", "3"], capsys
    )
    assert code == 1
    assert "budget" in out


def test_equivalent_command(f2, capsys):
    code, out = run(
        ["equivalent", "--fixture", f2, "--left", "T", "--right", "Z0"], capsys
    )
    assert code == 0
    assert "NOT EQUIVALENT" in out
    code, out = run(
        ["equivalent", "--fixture", f2, "--left", "T", "--right", "T"], capsys
    )
    assert code == 0
    assert "EQUIVALENT" in out


def test_equivalent_morphism_flag(f2, capsys):
    code, out = run(
        [
            "equivalent",
            "--fixture",
            f2,
            "--left",
            "T",
            "--right",
            "T",
            "--morphism",
            "--emend",
        ],
        capsys,
    )
    assert code == 0
    assert "morphism conditions (emended): ok" in out


def test_literal_morphism_error_names_the_flag(tmp_path, capsys):
    """Over Q != I the literal reading does not type; the message names
    the command-line flag of the corrected one."""
    fx = tmp_path / "paircut.mlex"
    fx.write_text(PAIR_CUT_FILE)
    code, out = run(
        ["equivalent", "--fixture", str(fx), "--left", "C", "--right", "C", "--morphism"],
        capsys,
    )
    assert code == 1
    assert "--emend" in out


def test_extract_command(f2, capsys):
    code, out = run(["extract", "--fixture", f2, "--algebra", "M", "--ideal", "K"], capsys)
    assert code == 0
    assert "Tf: ((1),(1)) -> (1)" in out
    assert "kernel abelian: True; central: True" in out


def test_wells_command(f2, capsys):
    code, out = run(["wells", "--fixture", f2, "--cocycle", "T"], capsys)
    assert code == 0
    assert "wells PASS" in out


def test_hs_command(hs1, capsys):
    code, out = run(["hs", "--fixture", hs1], capsys)
    assert code == 0
    assert "hs PASS" in out
    assert "H2(Q)=2" in out


def test_expand_commands(tmp_path, capsys):
    leib = tmp_path / "leibniz.mlex"
    leib.write_text(LEIBNIZ_FILE)
    code, out = run(["expand", "--variety", str(leib), "--emit", "strict"], capsys)
    assert code == 0
    assert "T+([[x, y], z], [y, [x, z]])" in out
    rota = tmp_path / "rota.mlex"
    rota.write_text(ROTA_FILE)
    code, out = run(["expand", "--variety", str(rota), "--emit", "action"], capsys)
    assert code == 0
    assert "P(a) o P(y) + P(x) * P(b)" in out
    code, out = run(
        ["expand", "--variety", str(rota), "--emit", "general", "--sexp"], capsys
    )
    assert code == 0
    assert "(= (sum" in out


def test_decompose_and_series(tmp_path, capsys, f2):
    s3 = tmp_path / "s3.mlex"
    s3.write_text(S3_FILE)
    code, out = run(
        ["decompose", "--fixture", str(s3), "--algebra", "S3", "--kind", "solvable"],
        capsys,
    )
    assert code == 0
    assert "reconstruction isomorphic: True" in out
    code, out = run(
        ["series", "--fixture", str(s3), "--algebra", "S3", "--kind", "derived"],
        capsys,
    )
    assert code == 0
    assert "solvable: yes (3 steps)" in out
    code, out = run(
        ["decompose", "--fixture", f2, "--algebra", "M", "--kind", "nilpotent"],
        capsys,
    )
    assert code == 0


def test_decompose_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mlex"
    bad.write_text(
        "[ring] modulus = 2\n[module Z] factors = 2\n"
        "[algebra B] module = Z; op f/2: (1,1) -> (1)\n"
    )
    code, out = run(
        ["decompose", "--fixture", str(bad), "--algebra", "B", "--kind", "solvable"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_seed_is_an_option_of_check_alone(f2, capsys):
    """check draws its random terms from --seed; no other command reads
    one, so passing it elsewhere is a usage error."""
    with pytest.raises(SystemExit) as err:
        main(["h1", "--fixture", f2, "--action", "t0", "--seed", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    code, out = run(["check", "--fixture", f2, "--seed", "1"], capsys)
    assert code == 0 and out.endswith("check OK\n")


def test_wells_has_no_depth_option(f2, capsys):
    """verify_wells has no depth bound to set, so --depth is a usage
    error rather than a value that changes nothing."""
    with pytest.raises(SystemExit) as err:
        main(["wells", "--fixture", f2, "--cocycle", "T", "--depth", "3"])
    assert err.value.code == 2
    capsys.readouterr()


def outcome(call, capsys):
    """(exit code, stdout, stderr) of a call that may exit."""
    try:
        code = call()
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_CASES = [[], ["--help"], ["bogus"]] + [
    argv for name in COMMANDS for argv in ([name, "--help"], [name], [name, "--bogus"])
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_subparser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    """main builds the named command's parser alone; its help, its error
    for a missing required argument or an unknown option, and the top
    level's answers give the full parser's output and exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    full = outcome(lambda: build_parser().parse_args(argv), capsys)
    assert outcome(lambda: main(argv), capsys) == full
    assert full[0] == (0 if "--help" in argv else 2)


def test_json_reports(f2, capsys):
    code, out = run(
        ["h2", "--datum", f2, "--variety", "mlf", "--action", "t0", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 2


# Every command's report; {name} stands for the fixture file of that name.
REPORT_COMMANDS = [
    ["check", "--fixture", "{f2}"],
    ["semidirect", "--fixture", "{f2}", "--cocycle", "T"],
    ["extract", "--fixture", "{f2}", "--algebra", "M", "--ideal", "K"],
    ["equivalent", "--fixture", "{f2}", "--left", "T", "--right", "Z0"],
    ["h2", "--datum", "{f2}", "--variety", "mlf", "--action", "t0"],
    ["h2", "--datum", "{f2}", "--variety", "mlf", "--action", "t0", "--affine"],
    ["h1", "--fixture", "{f2}", "--q", "Q", "--i", "I", "--action", "t0"],
    ["derivations", "--fixture", "{f2}", "--algebra", "M"],
    ["derivations", "--fixture", "{f2}", "--q", "Q", "--i", "I", "--action", "t0"],
    ["wells", "--fixture", "{f2}", "--cocycle", "T"],
    ["hs", "--fixture", "{hs1}"],
    ["expand", "--variety", "{leibniz}", "--emit", "strict"],
    ["expand", "--variety", "{leibniz}", "--emit", "action"],
    ["expand", "--variety", "{leibniz}", "--emit", "general"],
    ["decompose", "--fixture", "{f2}", "--algebra", "M", "--kind", "nilpotent"],
    ["decompose", "--fixture", "{s3}", "--algebra", "S3", "--kind", "solvable"],
    ["series", "--fixture", "{f2}", "--algebra", "M", "--kind", "lower_central"],
]

# The golden reports add check on a cocycle whose semidirect table is
# illegal; hs on two data with a nontrivial action and a proper null
# submodule, the second also with a nontrivial induced action; equivalent
# where every map of a coset is a witness, so the printed one is the
# lexicographic minimum; wells on a cocycle whose group factor set is a
# nonzero coboundary; derivations of an algebra over Z4 x Z2, whose maps
# send the order-2 generator to multiples of 2; wells on a datum whose
# action leaves only some of the derivation pairs compatible; and the
# affine h2 over m = 4 with a nontrivial action in both slots and an
# identity with a scalar and a negation.
GOLDEN_COMMANDS = REPORT_COMMANDS + [
    ["check", "--fixture", "{raw}"],
    ["hs", "--fixture", "{hsb}"],
    ["hs", "--fixture", "{hstwist}"],
    ["equivalent", "--fixture", "{coset}", "--left", "Z", "--right", "B"],
    ["wells", "--fixture", "{coboundary}", "--cocycle", "C"],
    ["derivations", "--fixture", "{gcd}", "--algebra", "D"],
    ["wells", "--fixture", "{paircut}", "--cocycle", "C"],
    ["h2", "--datum", "{affm4}", "--variety", "sc", "--action", "t", "--affine"],
    ["equivalent", "--fixture", "{coset}", "--left", "Z", "--right", "B",
     "--morphism", "--emend"],
    ["equivalent", "--fixture", "{f2}", "--left", "T", "--right", "T", "--morphism"],
    ["h2", "--datum", "{f2}", "--variety", "mlf"],
    ["expand", "--variety", "{rota}", "--emit", "general", "--sexp"],
    ["extract", "--fixture", "{order}", "--algebra", "M", "--ideal", "K"],
    ["extract", "--fixture", "{order}", "--algebra", "N", "--ideal", "L"],
    ["h2", "--datum", "{order}", "--variety", "mlf", "--action", "t0"],
    ["h2", "--datum", "{order}", "--variety", "mlf", "--action", "t0", "--affine"],
    ["hs", "--fixture", "{hsm}", "--ideal", "K"],
]

FIXTURE_FILES = {
    "f2": F2_FILE,
    "hs1": HS_FILE,
    "leibniz": LEIBNIZ_FILE,
    "s3": S3_FILE,
    "raw": ILLEGAL_FILE,
    "hsb": HS_B_FILE,
    "hstwist": HS_TWIST_FILE,
    "coset": COSET_FILE,
    "coboundary": COBOUNDARY_FILE,
    "gcd": GCD_FILE,
    "paircut": PAIR_CUT_FILE,
    "affm4": AFFINE_M4_FILE,
    "rota": ROTA_FILE,
    "order": TABLE_ORDER_FILE,
    "hsm": HS_M_FILE,
}

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def write_fixtures(directory):
    """Write every fixture file into directory; name -> path."""
    paths = {}
    for name, text in FIXTURE_FILES.items():
        path = Path(directory) / f"{name}.mlex"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def fill(argv, paths):
    return [a.format(**paths) for a in argv]


def golden_name(k, argv):
    return f"{k:02d}-{argv[0]}.txt"


def golden_record(argv, paths):
    """The exit code line followed by the exact stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(fill(argv, paths))
    return f"exit {code}\n{out.getvalue()}"


def test_determinism_all_commands(tmp_path, capsys):
    paths = write_fixtures(tmp_path)
    for argv in REPORT_COMMANDS:
        argv = fill(argv, paths)
        code1, out1 = run(argv, capsys)
        code2, out2 = run(argv, capsys)
        assert code1 == code2
        assert out1 == out2, argv


def test_golden_reports(tmp_path, monkeypatch):
    """Reports and exit codes are byte-identical to the stored goldens;
    fixtures are named relative to the working directory so no path in a
    report depends on where the test runs."""
    monkeypatch.chdir(tmp_path)
    paths = {name: f"{name}.mlex" for name in write_fixtures(tmp_path)}
    for k, argv in enumerate(GOLDEN_COMMANDS):
        golden = (GOLDEN_DIR / golden_name(k, argv)).read_bytes()
        assert golden_record(argv, paths).encode() == golden, argv


# perfbench compares per-layer call counts between passes in one process,
# so work saved for a later main() call shows there as a failure.  These
# jobs reach the Smith form through the congruence solver, the quotient
# presentation and class_of, the strict identities through AffineH2,
# identity checks on generator tuples of a legal table through check and
# wells, and the split's atom memo through check.  The exhaustive h2, h1
# and datum derivations jobs of the classify workload reach the lifting
# changes: their realization checks and the listing of Hom(Q, I), and for
# h2 the factored group factor set.  Each job names the counters it must
# reach.
# (argv, counters that must be positive, counters that must be zero)
REPEATED_COMMANDS = [
    (["h2", "--datum", "{affm4}", "--variety", "sc", "--action", "t", "--affine"],
     ("smith", "strict"), ("relifted", "affine relift")),
    (["equivalent", "--fixture", "{f2}", "--left", "T", "--right", "Z0"], ("smith",), ()),
    (["hs", "--fixture", "{hs1}"], ("smith", "strict", "affine"), ("affine relift",)),
    (["check", "--fixture", "{f2}"], ("holds", "atom"), ()),
    (["wells", "--fixture", "{f2}", "--cocycle", "T"], ("smith", "holds"), ()),
    (["h2", "--datum", "{f2}", "--variety", "mlf", "--action", "t0"], ("smith", "relifted"), ()),
    (["h2", "--datum", "{f2}", "--variety", "mlf"], ("smith", "relifted"), ()),
    (["h1", "--fixture", "{f2}", "--q", "Q", "--i", "I", "--action", "t0"],
     ("relifted", "homs"), ()),
    (["derivations", "--fixture", "{f2}", "--q", "Q", "--i", "I", "--action", "t0"],
     ("relifted", "homs"), ()),
]


def test_repeated_calls_do_the_same_work(tmp_path, monkeypatch, capsys):
    """mlex is imported afresh, so the first call is the first of the
    process; the modules of the other tests come back afterwards.
    ``SemidirectProduct.relifted`` does the work of every relift, and a
    call inside ``h2_affine`` also counts as "affine relift": the affine
    route reads its coboundaries in closed form, while ``hs`` relifts in
    its first cohomology and derivations."""
    for name in [n for n in sys.modules if n == "mlex" or n.startswith("mlex.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh_main = importlib.import_module("mlex.cli").main
    modcore = importlib.import_module("mlex.modcore")
    cohomology = importlib.import_module("mlex.cohomology")
    termlang = importlib.import_module("mlex.termlang")
    expander = importlib.import_module("mlex.expander")
    cocycle = importlib.import_module("mlex.cocycle")
    counts = collections.Counter()
    inside_affine = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "relifted" and inside_affine:
                counts["affine relift"] += 1
            return func(*args, **kwargs)
        return wrapper

    def affine(func):
        def wrapper(*args, **kwargs):
            counts["affine"] += 1
            inside_affine.append(True)
            try:
                return func(*args, **kwargs)
            finally:
                inside_affine.pop()
        return wrapper

    monkeypatch.setattr(modcore, "smith_normal_form", counted("smith", modcore.smith_normal_form))
    monkeypatch.setattr(cohomology, "strict_identity", counted("strict", cohomology.strict_identity))
    monkeypatch.setattr(termlang, "holds", counted("holds", termlang.holds))
    monkeypatch.setattr(expander, "eval_atom", counted("atom", expander.eval_atom))
    product = cocycle.SemidirectProduct
    monkeypatch.setattr(product, "relifted", counted("relifted", product.relifted))
    monkeypatch.setattr(cocycle, "iter_homs", counted("homs", cocycle.iter_homs))
    for module in (importlib.import_module("mlex.cli"), importlib.import_module("mlex.hs")):
        monkeypatch.setattr(module, "h2_affine", affine(module.h2_affine))
    paths = write_fixtures(tmp_path)
    for argv, reached, absent in REPEATED_COMMANDS:
        runs = []
        for _ in range(2):
            counts.clear()
            fresh_main(fill(argv, paths))
            capsys.readouterr()
            runs.append(dict(counts))
        assert runs[0] == runs[1], argv
        for name in reached:
            assert runs[0].get(name, 0) > 0, (argv, name)
        for name in absent:
            assert runs[0].get(name, 0) == 0, (argv, name)


if __name__ == "__main__":
    # Rewrite the golden reports from the current code:
    #   PYTHONPATH=src python tests/test_cli.py
    import os
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        paths = {name: f"{name}.mlex" for name in write_fixtures(tmp)}
        for k, argv in enumerate(GOLDEN_COMMANDS):
            record = golden_record(argv, paths).encode()
            (GOLDEN_DIR / golden_name(k, argv)).write_bytes(record)
