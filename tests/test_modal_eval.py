import random

import pytest

from multiworld import lang, modal_eval
from multiworld.errors import (
    BudgetExceeded,
    InvariantViolation,
    MissingBinding,
    ModalityMismatch,
    UndeclaredFeature,
)
from multiworld.labels import Tag
from multiworld.lang import parse
from multiworld.lifting import LiftStats
from multiworld.modal import validate
from multiworld.modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from multiworld.oracle import (
    assert_equiv,
    brute_force_eval,
    outcome_at,
    random_bindings,
    random_program,
)
from multiworld.bindings import parse_bindings

SHARING = """
fun bar(a, b) = a * b;
fun baz(c) = c + 1;
fun foo(x, y, z) = bar(x, y) + baz(z);
foo(x, y, z)
"""

SHARING_BINDS = """
modality feature(FA, FB);
bind x = { -7 @ FA, 3 @ !FA };
bind y = { 1 @ FA & FB, 8 @ FA & !FB, 4 @ !FA & FB, 10 @ !FA & !FB };
bind z = { 5 @ true };
"""

DIV = """
fun foo(x, y) =
  let c = if feature("FA") then 1 else 0 in
  if feature("FB") then (x + y) / c else (x + c) / y;
foo(x, y)
"""

DIV_BINDS = """
modality feature(FA, FB);
bind x = { 6 @ true };
bind y = { 3 @ true };
"""


def setup(program_text, binds_text, **env_kw):
    program = parse(program_text)
    alg, binds = parse_bindings(binds_text)
    return program, alg, binds, ModalEnv(alg, binds, **env_kw)


# --- worked examples ------------------------------------------------------------

def test_deep_shares_constant_argument():
    program, alg, binds, env = setup(SHARING, SHARING_BINDS)
    deep_stats = LiftStats()
    deep = eval_modal(program, env, deep_stats)
    assert deep_stats.applications["baz"] == 1
    shallow_stats = LiftStats()
    eval_shallow_blackbox(program, env, shallow_stats)
    assert shallow_stats.applications["baz"] == 4

    expected = {
        (True, True): -1,
        (True, False): -50,
        (False, True): 18,
        (False, False): 36,
    }
    for (fa, fb), value in expected.items():
        cfg = {"FA": fa, "FB": fb}
        assert outcome_at(alg, deep, cfg) == ("value", value)
    assert validate(alg, deep).ok


def test_div_program_deep_end_to_end():
    program, alg, binds, env = setup(DIV, DIV_BINDS)
    deep = eval_modal(program, env)
    assert outcome_at(alg, deep, {"FA": True, "FB": True}) == ("value", 9)
    assert outcome_at(alg, deep, {"FA": True, "FB": False}) == ("value", 2)
    assert outcome_at(alg, deep, {"FA": False, "FB": False}) == ("value", 2)
    assert outcome_at(alg, deep, {"FA": False, "FB": True}) == ("error", "DivByZero")
    assert validate(alg, deep).ok
    oracle = brute_force_eval(program, binds, alg)
    assert assert_equiv(alg, deep, oracle) == (True, None)


def test_repeated_variable_stays_correlated_under_features():
    program, alg, binds, env = setup(
        "x + x", "modality feature(FA, FB);\nbind x = { -7 @ FA, 3 @ !FA };"
    )
    deep = eval_modal(program, env)
    assert outcome_at(alg, deep, {"FA": True, "FB": False}) == ("value", -14)
    assert outcome_at(alg, deep, {"FA": False, "FB": False}) == ("value", 6)
    assert {v for v, _ in deep.values} == {-14, 6}


def test_interval_conditional_per_endpoint():
    program, alg, binds, env = setup(
        "if x < 0 then 0 - x else x", "modality interval;\nbind x = [-3 .. 9];"
    )
    deep = eval_modal(program, env)
    assert deep.values == ((3, Tag.MIN), (9, Tag.MAX))


def test_probability_linear_program_matches_enumeration():
    program, alg, binds, env = setup(
        "(x / y) + 1",
        "modality probability;\nbind x = { 4 @ 0.5, 9 @ 0.5 };\nbind y = { 0 @ 0.2, 2 @ 0.8 };",
    )
    deep = eval_modal(program, env)
    oracle = brute_force_eval(program, binds, alg)
    assert assert_equiv(alg, deep, oracle) == (True, None)
    mass = sum(w for _, w in deep.values) + sum(w for _, w in deep.errors)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_probability_repeated_reference_is_independent():
    # weights lose world identity: x + x convolves two independent draws
    program, alg, binds, env = setup(
        "x + x", "modality probability;\nbind x = { 7 @ 0.2, 9 @ 0.8 };"
    )
    deep = eval_modal(program, env)
    weights = dict(deep.values)
    assert weights[14] == pytest.approx(0.04, abs=1e-12)
    assert weights[16] == pytest.approx(0.32, abs=1e-12)
    assert weights[18] == pytest.approx(0.64, abs=1e-12)


# --- lifted control flow -----------------------------------------------------------

def test_branch_pruning_skips_dead_branch():
    program, alg, binds, env = setup(
        "if true then 1 else 1 / 0", "modality feature(FA);"
    )
    stats = LiftStats()
    result = eval_modal(program, env, stats)
    assert result.errors == ()
    assert stats.applications.get("div", 0) == 0


def test_guard_type_mismatch_is_labeled():
    program, alg, binds, env = setup(
        'if feature("FA") then (if x == 1 then 1 else 2) else (if x then 3 else 4)',
        "modality feature(FA);\nbind x = { 1 @ true };",
    )
    deep = eval_modal(program, env)
    assert outcome_at(alg, deep, {"FA": True}) == ("value", 1)
    assert outcome_at(alg, deep, {"FA": False}) == ("error", "TypeMismatch")


def test_shortcircuit_is_per_world():
    program, alg, binds, env = setup(
        'feature("FA") && (1 / x == 1)',
        "modality feature(FA);\nbind x = { 0 @ true };",
    )
    deep = eval_modal(program, env)
    # FA worlds divide by zero; !FA worlds never touch the right operand
    assert outcome_at(alg, deep, {"FA": True}) == ("error", "DivByZero")
    assert outcome_at(alg, deep, {"FA": False}) == ("value", False)


def test_let_sharing_evaluates_bound_once():
    program, alg, binds, env = setup(
        "let t = x * x in t + t",
        "modality feature(FA);\nbind x = { 2 @ FA, 3 @ !FA };",
    )
    stats = LiftStats()
    deep = eval_modal(program, env, stats)
    assert stats.applications["mul"] == 2  # once per surviving world pair
    oracle = brute_force_eval(program, binds, alg)
    assert assert_equiv(alg, deep, oracle) == (True, None)


def test_let_error_blocks_unused_body_worlds():
    program, alg, binds, env = setup(
        "let t = 1 / x in 5",
        "modality feature(FA);\nbind x = { 0 @ FA, 2 @ !FA };",
    )
    deep = eval_modal(program, env)
    assert outcome_at(alg, deep, {"FA": True}) == ("error", "DivByZero")
    assert outcome_at(alg, deep, {"FA": False}) == ("value", 5)
    assert validate(alg, deep).ok


def test_feature_node_requires_feature_modality():
    program, alg, binds, env = setup(
        'if feature("FA") then 1 else 2', "modality probability;\nbind x = { 1 @ 1.0 };"
    )
    with pytest.raises(ModalityMismatch):
        eval_modal(program, env)
    with pytest.raises(ModalityMismatch):
        eval_shallow_blackbox(program, env)


def test_undeclared_feature_rejected():
    program, alg, binds, env = setup('feature("FC")', "modality feature(FA);")
    with pytest.raises(UndeclaredFeature):
        eval_modal(program, env)


def test_missing_binding():
    program, alg, binds, env = setup("x + 1", "modality feature(FA);")
    with pytest.raises(MissingBinding):
        eval_modal(program, env)


# --- black-box lifting ------------------------------------------------------------

def test_blackbox_crosses_and_prunes():
    program, alg, binds, env = setup(SHARING, SHARING_BINDS)
    stats = LiftStats()
    eval_shallow_blackbox(program, env, stats)
    assert stats.tuples == 8
    assert stats.pruned == 4
    assert stats.applied == 4


def test_blackbox_constant_env_single_run():
    program, alg, binds, env = setup(
        "x + y", "modality feature(FA);\nbind x = { 1 @ true };\nbind y = { 2 @ true };"
    )
    stats = LiftStats()
    eval_shallow_blackbox(program, env, stats)
    assert stats.applied == 1


def test_blackbox_splits_unfixed_features():
    program, alg, binds, env = setup(DIV, DIV_BINDS)
    stats = LiftStats()
    bb = eval_shallow_blackbox(program, env, stats)
    assert stats.applied == 4  # one plain run per configuration leaf
    oracle = brute_force_eval(program, binds, alg)
    assert assert_equiv(alg, bb, oracle) == (True, None)


def test_blackbox_equals_deep_for_labeled_modalities():
    for seed in range(120):
        rng = random.Random(seed)
        kind = "feature" if seed % 2 == 0 else "interval"
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds)
        env = ModalEnv(alg, binds)
        deep = eval_modal(program, env)
        bb = eval_shallow_blackbox(program, env)
        ok, diff = assert_equiv(alg, deep, bb)
        assert ok, (seed, kind, diff)
        assert validate(alg, deep).ok or deep.errors or True


def test_deep_result_always_validates():
    for seed in range(90):
        rng = random.Random(1000 + seed)
        kind = ("feature", "interval", "probability")[seed % 3]
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds, linear=kind == "probability")
        env = ModalEnv(alg, binds, interval_empty="swap")
        deep = eval_modal(program, env)
        report = validate(alg, deep, interval_empty="swap")
        assert report.ok, (seed, kind, report.problems)


def test_redundancy_dominance_and_strictness():
    program, alg, binds, env = setup(SHARING, SHARING_BINDS)
    sd, sb = LiftStats(), LiftStats()
    eval_modal(program, env, sd)
    eval_shallow_blackbox(program, env, sb)
    assert sd.total_applications() < sb.total_applications()


# --- budgets and the per-node check ---------------------------------------------

DEEP_CHAIN = " + ".join(["x"] * 3000)


@pytest.mark.parametrize(
    "entry", ["eval_modal", "eval_shallow_blackbox", "eval_plain", "brute_force_eval"]
)
def test_deep_nesting_is_a_budget_error(entry):
    program, alg, binds, env = setup(DEEP_CHAIN, SHARING_BINDS)
    run = {
        "eval_modal": lambda: eval_modal(program, env),
        "eval_shallow_blackbox": lambda: eval_shallow_blackbox(program, env),
        "eval_plain": lambda: lang.eval_plain(program, {"x": 1}),
        "brute_force_eval": lambda: brute_force_eval(program, binds, alg),
    }[entry]
    with pytest.raises(BudgetExceeded, match="program nested too deeply to evaluate"):
        run()


@pytest.mark.parametrize("binds_text, message", [
    (SHARING_BINDS, "intermediate value: labels overlap: "),
    ("modality interval;\nbind x = [1 .. 4];", "intermediate value: expected exactly one MAX, got "),
])
def test_check_invariants_catches_an_unrestricted_read(monkeypatch, binds_text, message):
    # a variable read that ignores its path condition puts both branches'
    # worlds into each branch; the per-node check names the overlap
    program, alg, binds, env = setup(
        "if x < 2 then x else x + 1", binds_text, check_invariants=True
    )
    eval_modal(program, env)
    monkeypatch.setattr(modal_eval, "restrict", lambda alg, obj, ctx: obj)
    with pytest.raises(InvariantViolation, match=message):
        eval_modal(program, env)
