"""Exit codes, output shapes, and determinism of the command line."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altbase import cli, errors
from altbase.cli import main
from altbase.coding import Directive, sadic_limit
from altbase.numerics import IntPoly
from test_numerics import eval_fraction

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_bytes  # noqa: E402  (tools/ is not a package)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "certificate.schema.json")
    .read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def dyadic_fraction(blob: dict) -> Fraction:
    return Fraction(blob["mantissa"]) * Fraction(2) ** blob["exponent"]


def test_validate_ok_pair(capsys):
    code, out, _ = run(capsys, "validate", "-p", "2", "(21)", "(12)")
    assert code == 0
    assert "parry: ok" in out


def test_validate_violation(capsys):
    code, out, _ = run(capsys, "validate", "-p", "1", "120(0)")
    assert code == 1
    assert "suffix shift 1" in out


def test_validate_parse_error(capsys):
    code, _, err = run(capsys, "validate", "-p", "1", "(2x)")
    assert code == 2
    assert "error" in err


def test_validate_trailing_comma_makes_one_digit(capsys):
    # "[10](0)" is 1 0 0^w; the trailing comma makes 10 a single digit
    code, out, _ = run(capsys, "validate", "-p", "1", "[10,](0)")
    assert code == 0
    assert "parry: ok" in out
    code, out, _ = run(capsys, "synthesize", "-p", "1", "(10,)")
    assert code == 0
    assert "beta_0 = [11, 11]" in out


def test_validate_word_count_mismatch(capsys):
    code, _, err = run(capsys, "validate", "-p", "2", "(21)")
    assert code == 2
    assert "expected 2 words" in err


def test_validate_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(21) (12)\n"))
    code, out, _ = run(capsys, "validate", "-p", "2", "-")
    assert code == 0
    assert "parry: ok" in out


def test_validate_json_payload(capsys):
    code, out, _ = run(capsys, "validate", "-p", "1", "120(0)", "--format", "json")
    blob = json.loads(out)
    assert code == 1
    assert blob["ok"] is False
    assert blob["violations"] == [{"entry": 0, "shift": 1, "position": 1}]


def test_synthesize_pair_json(capsys):
    code, out, _ = run(
        capsys, "synthesize", "-p", "2", "(21)", "(12)", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, SCHEMA)
    assert blob["p"] == 2
    assert blob["uniqueness"] == "UniqueByUP"
    # display order is (beta_1, beta_0) = (3, 2)
    for target, enc in zip((3, 2), blob["betas"]):
        lo, hi = dyadic_fraction(enc["lo"]), dyadic_fraction(enc["hi"])
        assert lo <= target <= hi
        assert hi - lo <= Fraction(1, 2**64)
    for r in blob["residuals"]:
        assert dyadic_fraction(r["lo"]) <= 0 <= dyadic_fraction(r["hi"])


def test_synthesize_pair_text(capsys):
    code, out, _ = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 0
    # display order, beta_{p-1} first, as in the JSON
    assert out.splitlines()[:3] == ["p = 2", "beta_1 = [3, 3]", "beta_0 = [2, 2]"]


def test_synthesize_tol_80(capsys):
    code, out, _ = run(
        capsys, "synthesize", "-p", "1", "(21)", "--tol", "80", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    jsonschema.validate(blob, SCHEMA)
    enc = blob["betas"][0]
    lo, hi = dyadic_fraction(enc["lo"]), dyadic_fraction(enc["hi"])
    poly = IntPoly([-2, -2, 1])
    assert eval_fraction(poly, lo) * eval_fraction(poly, hi) < 0
    assert hi - lo <= Fraction(1, 2**80)


def test_synthesize_trivial_base_two(capsys):
    code, out, _ = run(capsys, "synthesize", "-p", "1", "(1)", "--format", "json")
    assert code == 0
    enc = json.loads(out)["betas"][0]
    assert dyadic_fraction(enc["lo"]) <= 2 <= dyadic_fraction(enc["hi"])


def test_synthesize_rejects_invalid_list(capsys):
    code, out, _ = run(capsys, "synthesize", "-p", "1", "120(0)")
    assert code == 1
    assert "parry: FAIL" in out


def test_synthesize_skip_parry(capsys):
    code, out, _ = run(
        capsys, "synthesize", "-p", "1", "120(0)", "--skip-parry", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["parry"] == [False]


def test_tol_floor(capsys):
    code, _, err = run(capsys, "synthesize", "-p", "1", "(21)", "--tol", "4")
    assert code == 2
    assert "--tol" in err


@pytest.mark.parametrize("cmd", ["validate", "synthesize"])
@pytest.mark.parametrize("p", ["0", "-1"])
def test_nonpositive_period_exits_two(capsys, cmd, p):
    code, out, err = run(capsys, cmd, "-p", p, "(21)")
    assert code == 2
    assert out == ""
    assert err == "error: -p must be at least 1\n"


def test_code_fibonacci(capsys):
    code, out, _ = run(capsys, "code", "--directive", "1,1", "--len", "13")
    assert code == 0
    assert out == "0100101001001\n"


def test_code_tribonacci_checked(capsys):
    code, out, _ = run(
        capsys, "code", "--directive", "1,1,1", "--len", "7", "--check"
    )
    assert code == 0
    assert out == "0102010\ncheck: ok\n"


def test_code_base_two(capsys):
    code, out, _ = run(capsys, "code", "--base", "(2)", "--len", "5")
    assert code == 0
    assert out == "00000\n"


def test_code_base_rejects_inadmissible_list(capsys):
    code, out, err = run(capsys, "code", "--base", "(3)", "(1)", "--len", "20")
    assert code == 1
    assert "parry: FAIL" in out and "violation:" in out
    assert err == ""


def test_code_two_block_directive(capsys):
    code, out, _ = run(capsys, "code", "--directive", "2,2;1,1", "--len", "20")
    assert code == 0
    expect = "".join(map(str, sadic_limit(Directive(((2, 2), (1, 1))), 20)))
    assert out == expect + "\n"


def test_code_json(capsys):
    code, out, _ = run(
        capsys, "code", "--directive", "1,1", "--len", "5", "--format", "json",
        "--check",
    )
    blob = json.loads(out)
    assert code == 0
    assert blob == {"check": "ok", "length": 5, "word": [0, 1, 0, 0, 1]}


@pytest.mark.parametrize("depth", ["1", "2"])
def test_code_shallow_table_exits_depth(capsys, depth):
    # depth 1 misses a gap value, depth 2 misses a row the alphabet needs
    code, out, err = run(
        capsys, "code", "--directive", "1,1", "--len", "50", "--depth", depth,
        "--check",
    )
    assert code == 3
    assert out == ""
    assert "--depth" in err


@pytest.mark.parametrize(
    "source", [("--directive", "1,1", "--check"), ("--directive", "1,1"), ("--base", "(2)")]
)
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_code_nonpositive_depth_exits_two(capsys, source, depth):
    code, out, err = run(capsys, "code", *source, "--len", "5", "--depth", depth)
    assert (code, out) == (2, "")
    assert err == "error: --depth must be at least 1\n"


@pytest.mark.parametrize("cmd", ["validate", "synthesize"])
@pytest.mark.parametrize("depth", ["0", "-5"])
def test_word_list_nonpositive_depth_exits_two(capsys, cmd, depth):
    code, out, err = run(capsys, cmd, "-p", "1", "(21)", "--depth", depth)
    assert (code, out) == (2, "")
    assert err == "error: --depth must be at least 1\n"


SOURCES = (
    ("--directive", "1,1"),
    ("--directive", "2,2;1,1"),
    ("--directive", "1,1,1"),
    ("--directive", "1,2"),
    ("--base", "(2)"),
    ("--base", "(21)", "(12)"),
    ("--base", "(12)"),
)


@settings(max_examples=50, deadline=None)
@given(
    source=st.sampled_from(SOURCES),
    depth=st.integers(-2, 20),
    length=st.integers(0, 40),
    tol=st.integers(8, 128),
    check=st.booleans(),
)
def test_code_argv_fuzz(source, depth, length, tol, check):
    argv = ["code", *source, "--len", str(length), "--depth", str(depth), "--tol", str(tol)]
    if check:
        argv.append("--check")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()


# well-formed words, plus short strings over the word alphabet (mostly malformed)
FUZZ_WORDS = st.sampled_from(
    ["(1)", "(2)", "(21)", "(12)", "(211)", "3(1)", "2(21)", "31(1)", "(22)", "10(0)", "2(0)"]
) | st.text(alphabet="0123(),x", max_size=7)


@settings(max_examples=80, deadline=None)
@given(
    cmd=st.sampled_from(["validate", "synthesize"]),
    p=st.integers(-2, 6),
    words=st.lists(FUZZ_WORDS, min_size=1, max_size=6),
    match=st.booleans(),
    tol=st.integers(0, 160),
    depth=st.none() | st.integers(-2, 20),
    skip_parry=st.booleans(),
)
def test_validate_synthesize_argv_fuzz(cmd, p, words, match, tol, depth, skip_parry):
    if match and p >= 1:
        words = (words * p)[:p]  # as many words as the period asks for
    argv = [cmd, "-p", str(p), *words, "--tol", str(tol)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    if skip_parry and cmd == "synthesize":
        argv.append("--skip-parry")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()


def test_code_requires_one_source(capsys):
    code, _, err = run(capsys, "code", "--len", "5")
    assert code == 2
    code, _, err = run(
        capsys, "code", "--directive", "1,1", "--base", "(2)", "--len", "5"
    )
    assert code == 2


def test_code_bad_directive(capsys):
    assert run(capsys, "code", "--directive", "1,2", "--len", "5")[0] == 2
    assert run(capsys, "code", "--directive", "2,x", "--len", "5")[0] == 2


def test_unknown_flag_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    code, out, err = run(capsys, "validate", "--bogus")
    assert (code, out) == (2, "")
    assert err == (
        "usage: altbase validate [-h] -p P [--format {json,text}] [--tol Q]\n"
        "                        [--depth DEPTH]\n"
        "                        words [words ...]\n"
        "altbase validate: error: the following arguments are required: -p, words\n"
    )


# help, usage errors and abbreviations, recorded through cli.main at 80 columns
PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) or "(none)" for p in PINS])
def test_parser_output_is_pinned(capsys, monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *pin["argv"]) == (pin["exit"], pin["stdout"], pin["stderr"])


FULL_TREE = ["altbase", "altbase validate", "altbase synthesize", "altbase code"]


@pytest.mark.parametrize("argv, code, parsers", [
    (("validate", "-p", "2", "(21)", "(12)"), 0, []),
    (("synthesize", "-p", "1", "(21)", "--format", "json"), 0, []),
    (("code", "--directive", "1,1", "--len", "13"), 0, []),
    # outside the reader's subset: an abbreviation, --opt=value, split words
    (("validate", "-p", "2", "(21)", "(12)", "--form", "json"), 0, FULL_TREE),
    (("synthesize", "-p", "1", "(21)", "--tol=64"), 0, FULL_TREE),
    (("validate", "-p", "2", "(21)", "--format", "json", "(12)"), 2, FULL_TREE),
], ids=["validate", "synthesize", "code", "abbreviation", "equals", "split-words"])
def test_a_command_builds_its_parser_alone_and_anew(capsys, monkeypatch, argv, code, parsers):
    # a well-formed line builds no parser; any other builds the full tree,
    # and the next call builds it again: no cache
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        built.clear()
        assert run(capsys, *argv)[0] == code
        assert built == parsers


def _standalone_parse(argv):
    parser = argparse.ArgumentParser(prog="altbase " + argv[0])
    cli._add_arguments(parser, argv[0])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return parser.parse_known_args(argv[1:])


def _typed(ns):
    return {key: (type(value), value) for key, value in vars(ns).items()}


def _assert_reader_matches_argparse(argv_list):
    """The reader's Namespace, where it gives one, is argparse's; returns how many."""
    accepted = 0
    for argv in argv_list:
        ns = cli._read(argv)
        if ns is not None:
            accepted += 1
            parsed, rest = _standalone_parse(argv)
            assert (rest, _typed(ns)) == ([], _typed(parsed)), argv
    return accepted


def test_reader_reads_every_benchmark_argv_as_argparse_does():
    argv_list = cli_bytes.benchmark_argv()
    assert _assert_reader_matches_argparse(argv_list) == len(argv_list)


def test_reader_matches_argparse_on_the_pins():
    argv_list = [argv for argv in cli_bytes.pin_argv() if argv and argv[0] in cli.COMMANDS]
    assert _assert_reader_matches_argparse(argv_list) >= 1


def test_reader_matches_argparse_on_near_misses():
    argv_list = cli_bytes.near_miss_argv(1, 8000)
    accepted = _assert_reader_matches_argparse(argv_list)
    assert 0 < accepted < len(argv_list)  # both paths are exercised


@pytest.mark.parametrize("argv", [
    ("validate", "-p", "١", "(21)"),  # Arabic-Indic one: int() takes it
    ("validate", "-p", "+1", "(21)", "--tol", " 64"),
    ("synthesize", "-p", "1", "(21)", "--tol", "6_4"),
    ("code", "--directive", "1,1", "--base", "--len", "5"),
])
def test_reader_takes_what_int_takes(argv):
    assert _assert_reader_matches_argparse([argv]) == 1


@pytest.mark.parametrize("argv", [
    ("validate", "-p", "7" * 4301, "(21)"),  # int() refuses over 4,300 digits
    ("validate", "-p", "2", "(21)", "--", "(12)"),
    ("validate", "-p", "-3", "(21)"),
    ("validate", "-p2", "(21)"),
    ("validate", "-p", "1", "(21)", "--format", "JSON"),
    ("validate", "-p", "1", "(21)", "--depth", "3", "--depth", "4"),
    ("synthesize", "-p", "1", "(21)", "--skip-parry", "--skip-parry"),
    ("code", "--directive", "1,1", "--len", "5", "x"),
    ("code", "--directive", "1,1"),  # --len is required
    ("validate", "-h"),
])
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read(argv) is None


def test_entry_point_matches_in_process(capsys, monkeypatch):
    # python -m altbase.cli reads sys.argv[1:], as the console script does
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in (("validate", "-p", "2", "(21)", "(12)"), ("validate", "--foo")):
        proc = subprocess.run(
            [sys.executable, "-m", "altbase.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def test_byte_identical_output(capsys):
    argv = ("synthesize", "-p", "2", "(21)", "(12)", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_outputs_match_the_benchmark_references(capsys):
    # every job recorded in perfbench/refs replays to its exit code and to
    # the sha256 of its stdout and stderr, so a moved output byte fails here
    refs = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
    replayed, moved = 0, []
    for path in sorted(refs.glob("*.json")):
        for jid, ref in json.loads(path.read_text())["jobs"].items():
            code, out, err = run(capsys, *ref["argv"])
            digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
            if [code, *digests] != [ref["exit"], ref["stdout"], ref["stderr"]]:
                moved.append(f"{path.stem}: {jid}")
            replayed += 1
    assert replayed > 0
    assert moved == []


def test_optimized_interpreter_matches(capsys):
    # python -O strips assert statements; no answer may depend on them
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (
        ("synthesize", "-p", "2", "(21)", "(12)", "--format", "json"),
        ("code", "--directive", "1,1", "--len", "200", "--check"),
        ("code", "--base", "(21)", "(12)", "--len", "100"),
        ("code", "--directive", "2,2;1,1", "--len", "300", "--check"),
        ("code", "--base", "(21)", "2(12)", "--len", "200"),
        ("synthesize", "-p", "1", "(21)", "--format", "json", "--tol", "4096"),
        ("synthesize", "-p", "5", "3(12)", "2(211)", "(2111)", "31(1)", "(22)",
         "--skip-parry", "--format", "json"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "altbase.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out)


def test_acceptance_criteria_pass_under_optimized_interpreter():
    # pytest still checks the asserts it rewrites in test modules under -O,
    # while the library's own asserts are gone, so every criterion must hold
    # on the library's explicit checks alone
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_acceptance.py")],
        capture_output=True, text=True, timeout=600, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_run_binds_every_required_site():
    # the benchmark's --trace 1 run wraps functions at the modules that bind
    # them by name; a rename in src/ must fail here, not in a traced run.
    # install() rebinds modules globally, so it runs in its own interpreter
    root = Path(__file__).resolve().parent.parent
    script = "\n".join((
        "import sys",
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]",
        "import altbase.cli as cli",
        "import tracing",
        "rec = tracing.install()",
        "assert tracing.missing_sites(rec) == [], tracing.missing_sites(rec)",
        "code = cli.main(['code', '--directive', '1,1', '--len', '20', '--check'])",
        "assert code == 0, code",
        "assert rec.counts['coding.b_integers'] > 0, rec.counts",
        # the charpoly span that the period workload requires
        "code = cli.main(['synthesize', '-p', '1', '(21)'])",
        "assert code == 0, code",
        "nid = rec.name_ids['polynomials.faddeev_leverrier']",
        "assert nid in rec.span_name, 'no charpoly span'",
        "assert rec.maxima['polynomials.charpoly_degree_max'] > 0, rec.maxima",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_coding_run_covers_every_required_metric(tmp_path):
    # the benchmark's traced run reports a problem for each PER_LAYER metric
    # of its workload that recorded no call, so a change that makes a layer
    # idle on the coding jobs (int_poly_gcd, say) must fail here too.  It
    # runs perfbench/run.py's own traced check on the seed-1 job list, with
    # the spans written under tmp_path; the workers are fresh interpreters
    root = Path(__file__).resolve().parent.parent
    script = "\n".join((
        "import json, sys",
        f"sys.path.insert(0, {str(root / 'perfbench')!r})",
        "import run",
        f"run.OUT = {str(tmp_path)!r}",
        "job_list = run.jobs.build('coding', 1)",
        "refs = run.load_refs('coding', 1)",
        "_, detail, _, _, _ = run.run_traced(run.Runner('coding', 1), job_list, refs)",
        "print(json.dumps(detail['problems']))",
        "print(json.dumps([m for m, _, needed in run.PER_LAYER if 'coding' in needed]))",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    problems, required = map(json.loads, proc.stdout.splitlines()[-2:])
    assert "polynomials.int_poly_gcd.calls" in required
    assert "coverage" not in problems, problems["coverage"]


def test_src_has_no_assert_statement():
    # python -O strips assert statements, so no check in the package may be one
    src = Path(__file__).resolve().parent.parent / "src"
    files = sorted(src.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.relative_to(src)}: assert on lines {lines}"


def test_src_has_no_unused_import():
    # an import counts as used when its name is read somewhere or is in __all__
    src = Path(__file__).resolve().parent.parent / "src"
    files = sorted(src.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused = [
            (node.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
        assert not unused, f"{path.relative_to(src)}: unused imports {unused}"


def test_src_has_no_function_level_import():
    # every module imports at its top, so the import graph is read off the file heads
    src = Path(__file__).resolve().parent.parent / "src"
    files = sorted(src.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        nested = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
        assert not nested, f"{path.relative_to(src)}: imports below the top level on lines {nested}"


def test_polynomials_imports_nothing_from_fractions():
    # root isolation runs on dyadic points, so L1 has no Fraction
    path = Path(__file__).resolve().parent.parent / "src/altbase/numerics/polynomials.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]
    assert not imported, f"polynomials.py imports fractions at lines {imported}"


def test_src_has_no_unread_private_definition():
    # a private function, method or class (one leading underscore) is dead
    # unless some file in src reads its name, as a name, an attribute or an import
    src = Path(__file__).resolve().parent.parent / "src"
    trees = {
        path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.rglob("*.py"))
    }
    assert trees
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = [
        (str(path.relative_to(src)), node.lineno, node.name)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]
    assert not unread, f"private definitions that nothing in src reads: {unread}"


def _corrupt_c(monkeypatch, corrupt):
    """Make the fixed point start from corrupted cofactors c, the first t entries of its start."""
    import altbase.perron as perron

    real = perron.faddeev_leverrier

    def corrupted(m):
        chi, c = real(m)
        corrupt(c)
        return chi, c

    monkeypatch.setattr(perron, "faddeev_leverrier", corrupted)


def test_invariant_violation_exits_five(capsys, monkeypatch):
    def off_by_one(c):
        c[1] = [c[1][0] + 1, *c[1][1:]]  # the start no longer solves E(lambda) c = 0

    _corrupt_c(monkeypatch, off_by_one)
    # the product of (21) (12) has t = 2, so the start is (E[1][1], -E[1][0]) at lambda
    code, out, err = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 5
    assert out == ""
    assert err.startswith("error: invariant violated: fixed point failed to close")


def test_negated_c_gives_the_clean_bytes(capsys, monkeypatch):
    # -c is still in the kernel of E(lambda), so the start only changes
    # scale, and gamma, lambda and f = u / u[0] do not depend on it, sign included
    clean = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")

    def negate_all(c):
        c[:] = [[-v for v in g] for g in c]

    _corrupt_c(monkeypatch, negate_all)
    assert run(capsys, "synthesize", "-p", "2", "(21)", "(12)") == clean
    assert clean[0] == 0


def test_one_negated_entry_of_c_exits_five(capsys, monkeypatch):
    def negate_one(c):
        c[1] = [-v for v in c[1]]

    _corrupt_c(monkeypatch, negate_one)
    code, out, err = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 5
    assert out == ""
    assert err.startswith("error: invariant violated: ")


def test_synthesize_twenty_entry_list_in_polynomial_time(capsys):
    # t = p = 20: the start's cofactors are an O(t^3) elimination in Z[x],
    # where an expansion over column subsets would take 2^t minors
    lst = ("3(2) 3(22) 321(2) 3(21) 322(1) 31(1) 312(2) 311(21) 31(2) 31(11) "
           "321(21) 32(21) 31(21) 32(2) 311(22) 312(2) 321(1) 3(1) 32(22) 312(1)").split()
    start = time.perf_counter()
    code, out, err = run(capsys, "synthesize", "-p", "20", *lst)
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    assert out.startswith("p = 20\n")


def test_zero_c_exits_five(capsys, monkeypatch):
    def zero_all(c):
        c[:] = [[] for _ in c]

    _corrupt_c(monkeypatch, zero_all)
    # a zero start is refused by the first inverse, not by a traceback
    code, out, err = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 5
    assert out == ""
    assert err.startswith("error: invariant violated: a propagated first entry is zero")


def test_wrong_inverse_trips_the_gamma_product_check(capsys, monkeypatch):
    # the closure check uses no inverse, so a wrong first inverse passes it
    from altbase.numerics.algebraic import RealAlgebraicField

    real, calls = RealAlgebraicField.inv, []

    def twice_once(self, a):
        calls.append(a)
        inv = real(self, a)
        return self.scalar_mul(2, inv) if len(calls) == 1 else inv

    monkeypatch.setattr(RealAlgebraicField, "inv", twice_once)
    code, out, err = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 5 and out == ""
    assert err.startswith("error: invariant violated: gamma product must equal lambda")


def test_gamma_not_above_one_trips_the_parry_shape_check(capsys, monkeypatch):
    from altbase.numerics.algebraic import RealAlgebraicField

    monkeypatch.setattr(RealAlgebraicField, "compare_int", lambda self, a, n: 0)
    code, out, err = run(capsys, "synthesize", "-p", "2", "(21)", "(12)")
    assert code == 5 and out == ""
    assert err.startswith("error: invariant violated: parry shapes force every gamma > 1")


@pytest.mark.parametrize("extra", [(), ("--skip-parry",), ("--depth", "3")])
def test_synthesize_checks_parry_once(capsys, monkeypatch, extra):
    # the CLI's report goes to certify; --skip-parry leaves the check to certify
    import altbase.synthesis as synthesis
    from altbase import words

    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return words.check_parry(*args, **kwargs)

    monkeypatch.setattr(cli, "check_parry", counting)
    monkeypatch.setattr(synthesis, "check_parry", counting)
    code, out, _ = run(capsys, "synthesize", "-p", "2", "(21)", "(12)", "--format", "json", *extra)
    assert code == 0 and json.loads(out)["parry"] == [True, True]
    assert len(seen) == 1


@pytest.mark.parametrize("texts, calls", [(("(21)", "(12)"), 1), (("2(0)", "3(1)"), 2)])
def test_code_base_checks_parry_once_on_its_own_words(capsys, monkeypatch, texts, calls):
    # the CLI's report goes down to the B-integers when the base's quasi-greedy
    # words are the list's own; the transformed words of a zero-tail list are
    # checked again
    import altbase.coding as coding
    from altbase import words

    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return words.check_parry(*args, **kwargs)

    monkeypatch.setattr(cli, "check_parry", counting)
    monkeypatch.setattr(coding, "check_parry", counting)
    code, out, _ = run(capsys, "code", "--base", *texts, "--len", "40", "--check")
    assert code == 0 and out.endswith("check: ok\n")
    assert len(seen) == calls


def test_json_validate_builds_no_throwaway_words_or_lines(capsys, monkeypatch):
    # the first-digit test reads the digits, and the text report is built only
    # when it is printed
    from altbase import words

    built, reported = [], []
    real_init, real_lines = words.UPWord.__init__, cli._report_lines
    monkeypatch.setattr(words.UPWord, "__init__",
                        lambda self, *a, **kw: built.append(a) or real_init(self, *a, **kw))
    monkeypatch.setattr(cli, "_report_lines",
                        lambda report: reported.append(report) or real_lines(report))
    argv = ("validate", "-p", "2", "1(2)", "12(0)")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1 and json.loads(out)["ok"] is False
    assert (len(built), reported) == (2, [])
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1 and out.startswith("p = 2\n") and out.endswith("parry: FAIL\n")
    assert len(reported) == 1


def test_fixed_point_signs_one_entry(monkeypatch):
    # one sign for the starting vector, plus one per gamma against 1
    from altbase.numerics import RealAlgebraicField
    from altbase.perron import build_parry_matrices, periodic_fixed_point
    from altbase.words import ExpansionList, parse_word

    calls = []
    real = RealAlgebraicField.sign

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(RealAlgebraicField, "sign", counting)
    row = ["3(12)", "2(211)", "(2111)", "31(1)", "(22)"]
    ms, _, _ = build_parry_matrices(ExpansionList(tuple(parse_word(w) for w in row)))
    assert ms.k == 65
    periodic_fixed_point(ms)
    assert 0 < len(calls) <= ms.q + 1


# the exit status of every error the package raises
EXIT_CODES = {
    "AltBaseError": 1,
    "ParseError": 2,
    "DigitRangeError": 2,
    "FailsIfAllZeroTail": 2,
    "DivisionByEnclosedZero": 1,
    "NoSignChange": 1,
    "NotPrimitive": 1,
    "ZeroLeadDigit": 2,
    "NoSecondNonzero": 1,
    "DepthExhausted": 3,
    "Undecidable": 4,
    "FloorUndecidable": 4,
    "CeilUndecidable": 4,
    "InvariantViolation": 5,
    "CodingMismatch": 1,
    "NoLimit": 3,
    "DLessThanN": 2,
}


def _documented_codes(text: str) -> set[int]:
    listing = re.search(r"Exit codes: (.*?)\.(?:\s|$)", text, re.S).group(1)
    return {int(c) for c in re.findall(r"(?:^|,\s)(\d) ", listing)}


def test_every_error_exits_with_its_documented_code(capsys, monkeypatch):
    import altbase.cli as cli

    classes = [errors.AltBaseError]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:
        def fail(ns, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_validate", fail)
        code, out, err = run(capsys, "validate", "-p", "1", "(1)")
        assert code == EXIT_CODES[cls.__name__], cls
        prefix = "invariant violated: " if cls is errors.InvariantViolation else ""
        assert (out, err) == ("", f"error: {prefix}boom\n"), cls
    in_use = set(EXIT_CODES.values())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert in_use <= _documented_codes(cli.__doc__)
    assert in_use <= _documented_codes(readme)


def test_refinement_sign_evaluation_count(capsys, monkeypatch):
    # a Newton guess snapped to the bisection grid: a few dozen exact signs, not
    # one per bit; the exact count pins the halving at which the guess starts.
    # Six of them are isolate_dominant's integer test, which bisects lambda's
    # bracket to its unit cell with refine_root_bisect; that cell is lambda's
    # bracket, so no second rounding and Sturm count follow.  Each of the two
    # refinements then costs its two ends, the halvings down to a 2**-8
    # bracket (none for the second, already narrower) and a snap of at most
    # three signs: 22 in all, 59 when the first guess came at 2**-40
    calls = []
    real = IntPoly.eval_dyadic_sign
    monkeypatch.setattr(IntPoly, "eval_dyadic_sign", lambda self, x: calls.append(x) or real(self, x))
    code, _, _ = run(capsys, "synthesize", "-p", "1", "(21)", "--format", "json", "--tol", "4096")
    assert code == 0
    assert len(calls) == 22
