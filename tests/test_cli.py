import codecs
import io
import random
import subprocess
import sys
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multiworld import cli
from multiworld.cli import main
from multiworld.errors import ModalError
from multiworld.lang import parse, render_program
from multiworld.modal_eval import eval_modal
from generators import random_bindings, random_program
from test_bindings import BINDINGS_TOKENS
from test_lang import PROGRAM_TOKENS

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
# the shipped examples: each program with bindings of the same name
EXAMPLES = tuple(sorted(p.stem for p in PROGRAMS.glob("*.mdl") if p.with_suffix(".mb").exists()))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "multiworld", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_example(name, *extra):
    return run_cli(
        "run",
        "-p",
        str(PROGRAMS / f"{name}.mdl"),
        "-b",
        str(PROGRAMS / f"{name}.mb"),
        *extra,
    )


def test_div_example_deep_output():
    code, out, err = run_example("feature_div", "--mode", "deep")
    assert code == 0, err
    assert out == "2 @ !FB\n9 @ (FA & FB)\nerror:DivByZero @ (!FA & FB)\n"


def test_sharing_counters_deep_vs_shallow():
    code, out, _ = run_example("sharing", "--mode", "deep", "--stats")
    assert code == 0
    assert "applications.baz=1" in out.splitlines()
    code, out, _ = run_example("sharing", "--mode", "shallow", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert "applications.baz=4" in lines
    assert "tuples=8" in lines
    assert "pruned=4" in lines


def test_output_is_deterministic():
    first = run_example("sharing", "--mode", "deep", "--stats")
    second = run_example("sharing", "--mode", "deep", "--stats")
    assert first == second


def test_deep_matches_oracle_rendering():
    _, deep, _ = run_example("feature_div", "--mode", "deep")
    _, oracle, _ = run_example("feature_div", "--mode", "oracle")
    assert deep == oracle


def test_check_mode():
    code, out, err = run_example("feature_div", "--mode", "check")
    assert code == 0, err
    assert "check: deep == oracle" in out.splitlines()


def test_probability_example():
    code, out, _ = run_example("prob_sum", "--mode", "deep")
    assert code == 0
    assert out.splitlines() == [
        "8 @ 0.100000000",
        "9 @ 0.100000000",
        "10 @ 0.400000000",
        "11 @ 0.400000000",
    ]


def test_interval_example():
    code, out, _ = run_example("interval_abs", "--mode", "deep")
    assert code == 0
    assert out == "[3 .. 9]\n"


def test_plain_mode_with_config():
    code, out, _ = run_example("feature_div", "--mode", "plain", "--config", "FA=0,FB=1")
    assert code == 0
    assert out == "error:DivByZero\n"
    code, out, _ = run_example("feature_div", "--mode", "plain", "--config", "FA=1,FB=1")
    assert out == "9\n"


def test_plain_mode_interval_config():
    code, out, _ = run_example("interval_abs", "--mode", "plain", "--config", "MAX")
    assert code == 0
    assert out == "9\n"


def test_plain_mode_requires_full_config():
    code, _, err = run_example("feature_div", "--mode", "plain", "--config", "FA=1")
    assert code == 1
    assert "FB" in err


def test_plain_mode_rejects_a_feature_named_twice():
    # the last entry used to win, so this ran at FA=0
    code, out, err = run_example("feature_div", "--mode", "plain", "--config", "FA=1,FB=1,FA=0")
    assert (code, out, err) == (1, "", "error: configuration assigns feature 'FA' twice\n")


def test_invariant_violation_exit_code():
    code, _, err = run_cli(
        "run",
        "-p",
        str(PROGRAMS / "ident.mdl"),
        "-b",
        str(PROGRAMS / "bad_totality.mb"),
        "--check-invariants",
    )
    assert code == 2
    assert "totality" in err
    # bindings are validated whatever the flags
    code, out, err2 = run_cli(
        "run", "-p", str(PROGRAMS / "ident.mdl"), "-b", str(PROGRAMS / "bad_totality.mb")
    )
    assert code == 2
    assert out == ""
    assert err2 == err


def _run_wide(tmp_path, k, *flags):
    """A run of ``x`` over one constant binding under ``k`` declared features."""
    names = [f"F{i:02d}" for i in range(k)]
    binds = tmp_path / "wide.mb"
    binds.write_text(f"modality feature({', '.join(names)});\nbind x = {{ 1 @ true }};\n")
    prog = tmp_path / "x.mdl"
    prog.write_text("x")
    return run_cli("run", "-p", str(prog), "-b", str(binds), *flags)


def test_budget_exit_code(tmp_path):
    # the size of a label is the one limit on declared features
    assert _run_wide(tmp_path, 24) == (0, "1 @ true\n", "")
    assert _run_wide(tmp_path, 25) == (
        3, "", "error: 25 features declared, at most 24 fit in a label (a set of 2^k configurations)\n"
    )


@pytest.mark.parametrize("name", ["sharing", "prob_sum", "interval_abs"])
def test_negative_feature_limit_is_a_usage_error(name):
    # there is no feature-limit flag, so any value of it is a usage error
    code, out, err = run_example(name, "--feature-limit", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --feature-limit -1\n"


def test_feature_limit_cannot_lift_the_label_size_cap(tmp_path):
    code, out, err = _run_wide(tmp_path, 40)
    assert (code, out) == (3, "")
    assert err == "error: 40 features declared, at most 24 fit in a label (a set of 2^k configurations)\n"
    assert _run_wide(tmp_path, 40, "--feature-limit", "40") == (
        1, "", "error: unrecognized arguments: --feature-limit 40\n"
    )


def test_usage_exit_codes():
    code, _, _ = run_cli("run", "-p", "no_such_file.mdl", "-b", str(PROGRAMS / "sharing.mb"))
    assert code == 1
    code, _, _ = run_cli("run", "--mode", "deep")
    assert code == 1


# Every package error's exit code; a new error class must be added here.
EXIT_CODES = {
    "ParseError": 1,
    "BindingsError": 1,
    "ScopeError": 1,
    "CyclicCallError": 1,
    "MissingBinding": 1,
    "MissingConfig": 1,
    "UndeclaredFeature": 1,
    "ModalityMismatch": 1,
    "ArityMismatch": 1,
    "ProjectionUnsupported": 1,
    "EvalError": 1,
    "EmptyModalValue": 2,
    "ProbabilityOverflow": 2,
    "InvariantViolation": 2,
    "TooManyFeatures": 3,
    "BudgetExceeded": 3,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_ends_a_run_with_its_exit_code(monkeypatch, capsys):
    classes = {cls.__name__: cls for cls in _subclasses(ModalError)}
    assert classes.keys() == EXIT_CODES.keys()
    for name, cls in classes.items():
        def raise_it(cfg, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "run", raise_it)
        assert main(["run", "-p", "p.mdl", "-b", "b.mb"]) == EXIT_CODES[name], name
        assert capsys.readouterr() == ("", "error: boom\n"), name


def _undecodable_run(tmp_path, capsys, undecodable, content):
    files = {"program": tmp_path / "p.mdl", "bindings": tmp_path / "b.mb"}
    files["program"].write_text("x")
    files["bindings"].write_text("modality interval;\nbind x = [1 .. 2];")
    files[undecodable].write_bytes(content)
    code = main(["run", "-p", str(files["program"]), "-b", str(files["bindings"])])
    return code, *capsys.readouterr(), files[undecodable]


@pytest.mark.parametrize("undecodable", ["program", "bindings"])
def test_undecodable_input_files_exit_1(tmp_path, capsys, undecodable):
    code, out, err, path = _undecodable_run(tmp_path, capsys, undecodable, b"x \xff")
    assert (code, out, err) == (1, "", f"error: {path}: not valid UTF-8 (byte 0xff at offset 2)\n")


@pytest.mark.parametrize("undecodable", ["program", "bindings"])
def test_a_byte_order_mark_counts_in_a_bad_byte_offset(tmp_path, capsys, undecodable):
    # the offset is the bad byte's in the file, as a hex dump shows it
    content = codecs.BOM_UTF8 + b"x \xff"
    code, out, err, path = _undecodable_run(tmp_path, capsys, undecodable, content)
    assert (code, out, err) == (1, "", f"error: {path}: not valid UTF-8 (byte 0xff at offset 5)\n")


@pytest.mark.parametrize("name", EXAMPLES)
def test_files_may_start_with_a_byte_order_mark(tmp_path, capsys, name):
    for suffix in (".mdl", ".mb"):
        source = PROGRAMS / f"{name}{suffix}"
        (tmp_path / source.name).write_bytes(codecs.BOM_UTF8 + source.read_bytes())
    for mode in ("plain", "shallow", "deep", "oracle", "check"):
        answers = []
        for folder in (PROGRAMS, tmp_path):
            code = main(["run", "-p", str(folder / f"{name}.mdl"), "-b", str(folder / f"{name}.mb"),
                         "--mode", mode, "--stats"])
            answers.append((code, *capsys.readouterr()))
        assert answers[1] == answers[0], mode


def _run_files(tmp_path, program, bindings, *flags):
    (tmp_path / "p.mdl").write_text(program)
    (tmp_path / "b.mb").write_text(bindings)
    return main(["run", "-p", str(tmp_path / "p.mdl"), "-b", str(tmp_path / "b.mb"), *flags])


# (bindings, --config of a plain run, the error line of every mode)
FEATURE_MISUSE = (
    ("modality feature(FA);\nbind x = { 1 @ FA, 2 @ !FA };", "FA=1",
     "error: program tests undeclared feature(s): ['FZ']"),
    ("modality probability;\nbind x = { 1 @ 1.0 };", None,
     "error: the program tests features but the modality is 'probability'"),
    ("modality interval;\nbind x = [1 .. 2];", "MIN",
     "error: the program tests features but the modality is 'interval'"),
)


@pytest.mark.parametrize("mode", ("plain", "shallow", "deep", "oracle", "check"))
@pytest.mark.parametrize("bindings, config, line", FEATURE_MISUSE,
                         ids=("undeclared", "probability", "interval"))
def test_every_mode_rejects_feature_tests_the_modality_cannot_decide(
    tmp_path, capsys, mode, bindings, config, line
):
    flags = ["--config", config] if mode == "plain" and config else []
    code = _run_files(tmp_path, 'if feature("FZ") then x else 0', bindings, "--mode", mode, *flags)
    assert (code, *capsys.readouterr()) == (1, "", line + "\n")


@pytest.mark.parametrize("bindings, line", [
    ("modality probability;\nbind x = { 1 @ 0.6, 1 @ 0.6 };",
     "error: binding 'x': joined weights sum to 1.2 > 1.0"),
    ("modality feature(FA);\nbind x = { 1 @ FA & !FA };",
     "error: binding 'x': normalization dropped every pair"),
], ids=("overflow", "empty"))
def test_bindings_errors_name_their_binding(tmp_path, capsys, bindings, line):
    assert _run_files(tmp_path, "x", bindings) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_oracle_crosses_only_the_bindings_main_reads(tmp_path, capsys):
    # all 15 bindings have 2 * 3^13 joint draws, over the oracle's budget
    unused = "".join(f"bind u{i} = {{ 1 @ 0.2, 2 @ 0.3, 3 @ 0.5 }};\n" for i in range(13))
    bindings = "modality probability;\nbind c = { 7 @ 1.0 };\nbind x = { 1 @ 0.5, 2 @ 0.5 };\n" + unused
    answer = "2 @ 0.500000000\n3 @ 0.500000000\n"
    for mode, out in (("deep", answer), ("shallow", answer), ("oracle", answer),
                      ("check", answer + "check: deep == oracle\n")):
        code = _run_files(tmp_path, "x + 1", bindings, "--mode", mode)
        assert (code, *capsys.readouterr()) == (0, out, ""), mode
    # a plain run needs constant inputs, but only of the bindings main reads
    code = _run_files(tmp_path, "c + 1", bindings, "--mode", "plain")
    assert (code, *capsys.readouterr()) == (0, "8\n", "")
    code = _run_files(tmp_path, "c + x", bindings, "--mode", "plain")
    assert (code, *capsys.readouterr()) == (
        1, "", "error: plain mode needs constant probability bindings\n")


@pytest.mark.parametrize("mode", ("deep", "shallow", "oracle", "check"))
def test_joint_draws_over_the_budget_exit_3(tmp_path, capsys, mode):
    # 21 two-point inputs have 2^21 joint draws, over the budget that every
    # lifted mode and the oracle share; it is checked before any draw is built
    names = [f"x{i}" for i in range(21)]
    bindings = "modality probability;\n" + "".join(f"bind {n} = {{ 0 @ 0.5, 1 @ 0.5 }};\n" for n in names)
    code = _run_files(tmp_path, " + ".join(names), bindings, "--mode", mode)
    assert (code, *capsys.readouterr()) == (3, "", "error: joint support exceeds 1000000 entries\n")


def test_check_mode_reports_where_deep_and_oracle_disagree(tmp_path, capsys, monkeypatch):
    def off_by_one(program, env, stats=None):
        result = eval_modal(program, env, stats)
        return replace(result, values=tuple((v + 1, label) for v, label in result.values))

    monkeypatch.setattr(cli, "eval_modal", off_by_one)
    code = _run_files(tmp_path, "x + 1", "modality feature(FA);\nbind x = { 1 @ FA, 2 @ !FA };",
                      "--mode", "check")
    assert (code, *capsys.readouterr()) == (
        2, "3 @ FA\n4 @ !FA\n", "check failed: diverges at {FA=0}: ('value', 4) vs ('value', 3)\n")


@pytest.mark.parametrize("name", EXAMPLES)
def test_oracle_makes_no_emptiness_check(name):
    # sat_calls counts the run's emptiness checks, not the bindings load's,
    # and the oracle runs every world plainly
    config = cli.build_parser().parse_args(
        ["run", "-p", str(PROGRAMS / f"{name}.mdl"), "-b", str(PROGRAMS / f"{name}.mb"),
         "--mode", "oracle", "--stats"])
    code, out, err = cli.run(config)
    assert (code, out[-1], err) == (0, "sat_calls=0", [])


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mdl"
    bad.write_text("1 +")
    code, _, err = run_cli("run", "-p", str(bad), "-b", str(PROGRAMS / "sharing.mb"))
    assert code == 1
    assert "error:" in err


# (program, its line under --interval-empty swap, and under reject)
RANGE_PROGRAMS = (("0 - x", "[-9 .. -4]", "[-4 .. -9]"), ("(0 - x) + x", "[0 .. 0]", "[0 .. 0]"))


@pytest.mark.parametrize("mode", ("deep", "shallow", "oracle", "check"))
@pytest.mark.parametrize("program, swapped, rejected", RANGE_PROGRAMS, ids=("neg", "cancel"))
def test_swap_policy_flag(tmp_path, capsys, mode, program, swapped, rejected):
    # every mode holds each endpoint's own value; swap only prints it in order
    bindings = "modality interval;\nbind x = [4 .. 9];"
    tail = "check: deep == oracle\n" if mode == "check" else ""
    code = _run_files(tmp_path, program, bindings, "--mode", mode, "--interval-empty", "swap")
    assert (code, *capsys.readouterr()) == (0, swapped + "\n" + tail, "")
    _run_files(tmp_path, program, bindings, "--mode", mode)
    assert capsys.readouterr().out.startswith(rejected + "\n")  # flagged only by validation


# (program, range of x, its line under --interval-empty swap, check's exit code under reject)
CHECKED_RANGES = (
    ("x < 5", "[1 .. 9]", "[true .. false]", 0),
    ("if x < 5 then true else 3", "[1 .. 9]", "[true .. 3]", 0),
    ("0 - x", "[4 .. 9]", "[-9 .. -4]", 2),
)


@pytest.mark.parametrize("program, span, swapped, rejected_code", CHECKED_RANGES,
                         ids=("cmp", "mixed", "neg"))
def test_only_ints_form_an_inverted_range(tmp_path, capsys, program, span, swapped, rejected_code):
    # the language orders no bool, so a bool endpoint is never out of order
    bindings = f"modality interval;\nbind x = {span};"
    code = _run_files(tmp_path, program, bindings, "--mode", "check", "--interval-empty", "swap")
    assert (code, capsys.readouterr().out) == (0, swapped + "\ncheck: deep == oracle\n")
    code = _run_files(tmp_path, program, bindings, "--mode", "check")
    capsys.readouterr()
    assert code == rejected_code


@pytest.mark.parametrize("mode", ("plain", "shallow", "deep", "oracle", "check"))
def test_unbound_inputs_fail_only_where_they_are_read(tmp_path, capsys, mode):
    bindings = "modality feature(FA);\nbind y = { 1 @ FA, 2 @ !FA };"
    flags = ["--mode", mode] + (["--config", "FA=1"] if mode == "plain" else [])
    answer = {"plain": "1\n", "check": "1 @ true\ncheck: deep == oracle\n"}.get(mode, "1 @ true\n")
    code = _run_files(tmp_path, "if true then 1 else x", bindings, *flags)
    assert (code, *capsys.readouterr()) == (0, answer, "")
    code = _run_files(tmp_path, "x + 1", bindings, *flags)
    assert (code, *capsys.readouterr()) == (1, "", "error: no value bound for 'x'\n")


def test_stats_include_sat_calls():
    code, out, _ = run_example("sharing", "--mode", "deep", "--stats")
    sat_lines = [l for l in out.splitlines() if l.startswith("sat_calls=")]
    assert len(sat_lines) == 1
    assert int(sat_lines[0].split("=")[1]) > 0


def test_display_labels_depend_only_on_meaning():
    import random

    from functools import reduce

    from multiworld.cli import display_label
    from multiworld.labels import FAnd, FNot, FOr, FVar, FeatureAlgebra
    from reference import build, satisfies

    alg = FeatureAlgebra(("FA", "FB"))
    fmt = display_label(alg)
    fa, fb = FVar("FA"), FVar("FB")

    def show(expr):
        return fmt(build(alg, expr))

    assert show(FOr(FAnd(fa, FNot(fb)), FAnd(FNot(fa), FNot(fb)))) == "!FB"
    assert show(FNot(fb)) == "!FB"
    assert show(FAnd(fa, fb)) == "(FA & FB)"
    assert show(FOr(fa, FNot(fa))) == "true"
    assert show(FAnd(fa, FNot(fa))) == "false"

    # any label displays exactly like the join of its satisfying minterms
    rng = random.Random(3)
    leaves = [fa, fb, FNot(fa), FNot(fb)]
    for _ in range(80):
        expr = rng.choice(leaves)
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.4:
                expr = FAnd(expr, rng.choice(leaves))
            elif kind < 0.8:
                expr = FOr(expr, rng.choice(leaves))
            else:
                expr = FNot(expr)
        minterms = [alg.minterm(c) for c in alg.iter_configs() if satisfies(expr, c)]
        if not minterms:
            assert show(expr) == "false"
        else:
            assert show(expr) == fmt(reduce(alg.join, minterms))


def test_deep_nesting_exits_with_budget_code(tmp_path):
    prog = tmp_path / "deep.mdl"
    prog.write_text(" + ".join(["x"] * 3000))
    code, out, err = run_cli("run", "-p", str(prog), "-b", str(PROGRAMS / "sharing.mb"))
    assert code == 3
    assert out == ""
    assert err == "error: program nested too deeply to evaluate\n"


@pytest.mark.parametrize("program, bindings", [
    ('if feature("true") then 1 else 2', "modality feature(true); bind y = { 1 @ true };"),
    ("x", "modality feature(true, FA); bind x = { 1 @ !true, 2 @ true };"),
], ids=("tested", "labelled"))
def test_label_literals_cannot_be_declared_as_features(tmp_path, capsys, program, bindings):
    # true in a label is every world, so a feature named true would be unreadable
    assert _run_files(tmp_path, program, bindings) == 1
    assert capsys.readouterr() == (
        "", "error: expected a feature name, not a label literal (found 'true') (line 1, col 18)\n")


SCRIPT_PROGRAM = 'if feature("Fé") then café * 10 else café'
SCRIPT_BINDINGS = "modality feature(Fé);\nbind café = { 1 @ Fé, 2 @ !Fé };"


def _script_answer(mode):
    answer = "2 @ !Fé\n10 @ Fé\n"
    return 0, {"plain": "10\n", "check": answer + "check: deep == oracle\n"}.get(mode, answer), ""


@pytest.mark.parametrize("mode", ("plain", "shallow", "deep", "oracle", "check"))
def test_names_in_any_script_in_every_mode(tmp_path, capsys, mode):
    # the bindings reader names what a program reads and tests by the
    # program's own identifier rule
    flags = ["--config", "Fé=1"] if mode == "plain" else []
    code = _run_files(tmp_path, SCRIPT_PROGRAM, SCRIPT_BINDINGS, "--mode", mode, *flags)
    assert (code, *capsys.readouterr()) == _script_answer(mode)


@pytest.mark.parametrize("bindings_form", ("NFC", "NFD"))
@pytest.mark.parametrize("program_form", ("NFC", "NFD"))
@pytest.mark.parametrize("mode", ("plain", "shallow", "deep", "oracle", "check"))
def test_names_typed_decomposed_are_their_composed_names(
    tmp_path, capsys, mode, program_form, bindings_form
):
    # either front end, and --config, read a name typed with combining
    # marks (NFD, as cafe + U+0301) as its composed form (NFC)
    flags = ["--config", unicodedata.normalize(program_form, "Fé=1")] if mode == "plain" else []
    code = _run_files(tmp_path, unicodedata.normalize(program_form, SCRIPT_PROGRAM),
                      unicodedata.normalize(bindings_form, SCRIPT_BINDINGS), "--mode", mode, *flags)
    assert (code, *capsys.readouterr()) == _script_answer(mode)


# --- nesting depth: one Python frame a level in every walker --------------------

DEPTH_BINDINGS = "modality feature(FA);\nbind x = { -7 @ FA, 3 @ !FA };\n"
DEPTH_MODES = {
    "plain": ("--mode", "plain", "--config", "FA=1"),
    "shallow": ("--mode", "shallow"),
    "oracle": ("--mode", "oracle"),
    "deep": ("--mode", "deep"),
    "check": ("--mode", "check"),
}
DEEP_CHECKED = ("--mode", "deep", "--check-invariants")


# each shape's innermost term, then the forms that its levels wrap around it in turn
NESTINGS = {
    "let": ("x", ("let a = {} in a", "let a = x in {}")),
    "if": ("x", ('if feature("FA") then {} else x', "if true then {} else 0")),
    "minus": ("x", ("- {}",)),
    "not": ("(x < 0)", ("!{}",)),
    "and": ("x < 0", ("{} && true",)),
    # a guard that varies at every level, and the right operand of &&
    "logic": ("(x < 0)", ("if {} then true else false", "true && {}")),
    "plus": ("x", ("{} + 1",)),
    "calls": ("x", ("f({})",)),
}


def nested(shape, n):
    """A program and bindings nested ``n`` levels deep (``n`` even), and
    the answer's text where FA holds and where it does not."""
    if shape == "label":
        return "x", DEPTH_BINDINGS.replace("@ FA", "@ " + "(" * n + "FA" + ")" * n), "-7", "3"
    if shape == "chain":  # n / 2 functions, each a call and an addition deep
        funs = "".join(f"fun f{i}(a) = f{i - 1}(a) + 1;\n" for i in range(1, n // 2))
        program = f"fun f0(a) = a + 1;\n{funs}f{n // 2 - 1}(x)"
        return program, DEPTH_BINDINGS, str(-7 + n // 2), str(3 + n // 2)
    program, forms = NESTINGS[shape]
    for i in range(n):
        program = forms[i % len(forms)].format(program)
    if shape in ("not", "and", "logic"):
        return program, DEPTH_BINDINGS, "true", "false"
    offset = n if shape in ("plus", "calls") else 0
    return "fun f(a) = a + 1;\n" + program, DEPTH_BINDINGS, str(-7 + offset), str(3 + offset)


DEPTH_SHAPES = (*NESTINGS, "label", "chain")


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_every_mode_answers_the_same_nesting(tmp_path, capsys, shape):
    # at 850 levels, under the default recursion limit of 1000, every mode
    # answers, deep too, and the program renders; checked deep, at two
    # frames a level, answers 400
    for n, modes in ((850, DEPTH_MODES), (400, {"deep-checked": DEEP_CHECKED})):
        program, bindings, at_fa, off_fa = nested(shape, n)
        render_program(parse(program))
        answer = {f"{at_fa} @ FA", f"{off_fa} @ !FA"}
        for mode, flags in modes.items():
            want = {"plain": {at_fa}, "check": answer | {"check: deep == oracle"}}.get(mode, answer)
            code = _run_files(tmp_path, program, bindings, *flags)
            out, err = capsys.readouterr()
            assert (code, set(out.splitlines()), err) == (0, want, ""), (n, mode)


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_every_mode_exits_3_past_the_recursion_limit(tmp_path, capsys, shape):
    program, bindings, *_ = nested(shape, 3000)
    # a chain of operators parses as a loop, and a chain of functions one
    # function at a time, so only their evaluation runs out of frames
    stage = "evaluate" if shape in ("plus", "and", "chain") else "parse"
    message = f"{'bindings' if shape == 'label' else 'program'} nested too deeply to {stage}"
    for flags in (*DEPTH_MODES.values(), DEEP_CHECKED):
        code = _run_files(tmp_path, program, bindings, *flags)
        assert (code, *capsys.readouterr()) == (3, "", f"error: {message}\n"), flags


def test_bindings_are_validated_without_flags(tmp_path):
    prog = tmp_path / "x.mdl"
    prog.write_text("x + 1")
    overlap = tmp_path / "overlap.mb"
    overlap.write_text("modality feature(FA); bind x = { 1 @ FA, 2 @ FA };")
    code, out, err = run_cli("run", "-p", str(prog), "-b", str(overlap))
    assert (code, out) == (2, "")
    assert err == "error: binding 'x': labels overlap: FA and FA; configuration {FA=0} is uncovered\n"

    # an inverted range is an invariant violation only under --check-invariants
    inverted = tmp_path / "inverted.mb"
    inverted.write_text("modality interval;\nbind x = [5 .. 3];")
    assert run_cli("run", "-p", str(prog), "-b", str(inverted)) == (0, "[6 .. 4]\n", "")
    code, out, err = run_cli("run", "-p", str(prog), "-b", str(inverted), "--check-invariants")
    assert (code, out) == (2, "")
    assert err == "error: binding 'x': empty range: MAX value 3 < MIN value 5\n"


def test_inputs_nested_too_deeply_to_parse_exit_with_budget_code(tmp_path):
    prog = tmp_path / "deep.mdl"
    prog.write_text("(" * 3000 + "x" + ")" * 3000)
    code, out, err = run_cli("run", "-p", str(prog), "-b", str(PROGRAMS / "sharing.mb"))
    assert (code, out, err) == (3, "", "error: program nested too deeply to parse\n")
    binds = tmp_path / "deep.mb"
    binds.write_text("modality feature(FA);\nbind x = { 1 @ " + "(" * 3000 + "FA" + ")" * 3000 + ", 2 @ !FA };")
    prog.write_text("x")
    code, out, err = run_cli("run", "-p", str(prog), "-b", str(binds))
    assert (code, out, err) == (3, "", "error: bindings nested too deeply to parse\n")


# --- fuzzed command lines ------------------------------------------------------

def _bindings_text(alg, binds) -> str:
    head = {
        "feature": f"modality feature({', '.join(alg.features)});",
        "probability": "modality probability;",
        "interval": "modality interval;",
    }[alg.kind]
    lines = [head]
    for name, mv in binds.items():
        if alg.kind == "interval":
            lo, hi = (v for v, _ in mv.pairs)
            lines.append(f"bind {name} = [{lo} .. {hi}];")
        else:
            text = alg.canonical_text if alg.kind == "feature" else repr
            pairs = ", ".join(f"{v} @ {text(label)}" for v, label in mv.pairs)
            lines.append(f"bind {name} = {{ {pairs} }};")
    return "\n".join(lines)


@st.composite
def _inputs(draw):
    """(program bytes, bindings bytes): rendered random programs over random
    bindings of at most 4 features, mutated or not, or token soup, encoded
    as UTF-8; some draws insert a byte that makes the file undecodable."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    alg, binds = random_bindings(rng, draw(st.sampled_from(["feature", "interval", "probability"])))
    texts = [
        render_program(random_program(rng, alg, binds, linear=draw(st.booleans()), max_depth=4)),
        _bindings_text(alg, binds),
    ]
    soups = (PROGRAM_TOKENS, BINDINGS_TOKENS)
    for i in range(2):
        how = draw(st.sampled_from(["valid", "valid", "valid", "mutated", "soup"]))
        if how == "mutated":
            at = draw(st.integers(0, len(texts[i])))
            cut = draw(st.integers(0, 6))
            texts[i] = texts[i][:at] + draw(st.sampled_from(soups[i])) + texts[i][at + cut:]
        elif how == "soup":
            texts[i] = " ".join(draw(st.lists(st.sampled_from(soups[i]), max_size=30)))
    files = [text.encode("utf-8") for text in texts]
    for i in range(2):
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(files[i])))
            bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"]))
            files[i] = files[i][:at] + bad + files[i][at:]
    return files


@st.composite
def _flags(draw):
    flags = ["--mode", draw(st.sampled_from(["plain", "shallow", "deep", "oracle", "check"]))]
    for flag in ("--check-invariants", "--stats"):
        if draw(st.booleans()):
            flags.append(flag)
    if draw(st.booleans()):
        flags += ["--interval-empty", draw(st.sampled_from(["reject", "swap"]))]
    if draw(st.booleans()):
        flags += ["--config", draw(st.sampled_from(
            ["FA=1", "FA=0,FB=1", "FA=1,FB=0,FC=1,FD=0", "MIN", "max", "FA=2", "", "x"]
        ))]
    return flags


@settings(max_examples=150)
@given(_inputs(), _flags())
def test_fuzzed_command_lines_end_in_a_documented_exit_code(tmp_path_factory, files, flags):
    where = tmp_path_factory.mktemp("fuzz")
    program, binds = where / "p.mdl", where / "b.mb"
    program.write_bytes(files[0])
    binds.write_bytes(files[1])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["run", "-p", str(program), "-b", str(binds), *flags])
    assert code in (0, 1, 2, 3)
