import random
import re
import sys

import pytest

from multiworld import cli, labels, lang, lifting, modal, modal_eval
from multiworld.errors import (
    BudgetExceeded,
    CyclicCallError,
    InvariantViolation,
    MissingBinding,
    ModalityMismatch,
    ScopeError,
    UndeclaredFeature,
)
from multiworld.labels import FeatureAlgebra, ProbabilityAlgebra, Tag
from multiworld.lang import parse
from multiworld.lifting import LiftStats
from multiworld.modal import ModalValue, validate
from multiworld.modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from multiworld.oracle import (
    assert_equiv,
    brute_force_eval,
    outcome_at,
    random_bindings,
    random_program,
)
from multiworld.bindings import parse_bindings
from reference import EveryNodeCheckedEval

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


def test_modes_count_the_same_applications():
    # a negation counts once its operand has a value, in every mode: in the
    # FA world the division fails, so that world's ! never runs
    program, alg, binds, env = setup(
        "!(1 / x == 1)", "modality feature(FA);\nbind x = { 0 @ FA, 1 @ !FA };"
    )
    counts = []
    for run in (eval_modal, eval_shallow_blackbox,
                lambda program, env, stats: brute_force_eval(program, binds, alg, stats)):
        stats = LiftStats()
        run(program, env, stats)
        counts.append(stats.applications)
    assert counts[0] == counts[1] == counts[2] == {"div": 2, "eq": 1, "not": 1}


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


def test_probability_repeated_reference_reads_one_draw():
    # a world is one draw of x, so x + x doubles it and never mixes draws
    program, alg, binds, env = setup(
        "x + x", "modality probability;\nbind x = { 7 @ 0.2, 9 @ 0.8 };"
    )
    deep = eval_modal(program, env)
    assert deep.values == ((14, 0.2), (18, 0.8))
    assert deep.errors == ()


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


def test_each_program_is_analysed_once(monkeypatch):
    analysed = []
    analyse = lang._analyse
    monkeypatch.setattr(lang, "_analyse", lambda program: analysed.append(program) or analyse(program))
    program, alg, binds, env = setup(DIV, DIV_BINDS)
    eval_modal(program, env)
    eval_shallow_blackbox(program, env)
    brute_force_eval(program, binds, alg)
    lang.eval_plain(program, {"x": 6, "y": 3}, {"FA": True, "FB": False})
    assert analysed == [program]


def _call(fn, *args):
    return lang.Call(fn, tuple(args))


# programs no parser made, with what parse says of their text
HAND_BUILT = (
    (lang.Program((), _call("g", lang.IntLit(1))),
     ScopeError, "call to undefined function 'g'"),
    (lang.Program((lang.FunDef("f", ("a",), lang.Var("b")),), _call("f", lang.Var("x"))),
     ScopeError, "unbound variable 'b'"),
    (lang.Program((lang.FunDef("f", ("a",), _call("g", lang.Var("a"))),
                   lang.FunDef("g", ("a",), _call("f", lang.Var("a")))), _call("f", lang.Var("x"))),
     CyclicCallError, "call cycle: f -> g -> f"),
)


@pytest.mark.parametrize("program, error, message", HAND_BUILT)
def test_hand_built_programs_are_load_checked_on_first_use(program, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        parse(lang.render_program(program))
    alg, binds = parse_bindings("modality feature(FA);\nbind x = { 1 @ FA, 2 @ !FA };")
    env = ModalEnv(alg, binds)
    runs = (
        lambda: eval_modal(program, env),
        lambda: eval_shallow_blackbox(program, env),
        lambda: brute_force_eval(program, binds, alg),
        lambda: lang.eval_plain(program, {"x": 1}, {"FA": True}),
    )
    for run in runs:
        with pytest.raises(error, match=f"^{message}$"):
            run()


def test_missing_binding():
    program, alg, binds, env = setup("x + 1", "modality feature(FA);")
    with pytest.raises(MissingBinding):
        eval_modal(program, env)


# --- black-box lifting ------------------------------------------------------------

@pytest.mark.parametrize("program_text, binds_text, tuples, pruned, applied", [
    (SHARING, SHARING_BINDS, 8, 4, 4),
    # the tested feature is crossed with x: x's FA pair meets !FA too
    ('if feature("FA") then x else 0', "modality feature(FA);\nbind x = { 1 @ FA, 2 @ !FA };",
     4, 2, 2),
], ids=["sharing", "tested-feature"])
def test_blackbox_crosses_and_prunes(program_text, binds_text, tuples, pruned, applied):
    program, alg, binds, env = setup(program_text, binds_text)
    stats = LiftStats()
    eval_shallow_blackbox(program, env, stats)
    assert stats.tuples == tuples
    assert stats.pruned == pruned
    assert stats.applied == applied


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
        oracle = brute_force_eval(program, binds, alg)
        # the range policy changes no value: deep under swap is the oracle too
        for policy in ("reject", "swap") if kind == "interval" else ("reject",):
            env = ModalEnv(alg, binds, interval_empty=policy)
            deep = eval_modal(program, env)
            for other in (eval_shallow_blackbox(program, env), oracle):
                ok, diff = assert_equiv(alg, deep, other)
                assert ok, (seed, kind, policy, diff)


def test_deep_result_always_validates():
    for seed in range(90):
        rng = random.Random(1000 + seed)
        kind = ("feature", "interval", "probability")[seed % 3]
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds)
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
    "entry",
    ["eval_modal", "eval_shallow_blackbox", "eval_plain", "brute_force_eval", "render_program"],
)
def test_deep_nesting_is_a_budget_error(entry):
    program, alg, binds, env = setup(DEEP_CHAIN, SHARING_BINDS)
    run, verb = {
        "eval_modal": (lambda: eval_modal(program, env), "evaluate"),
        "eval_shallow_blackbox": (lambda: eval_shallow_blackbox(program, env), "evaluate"),
        "eval_plain": (lambda: lang.eval_plain(program, {"x": 1}), "evaluate"),
        "brute_force_eval": (lambda: brute_force_eval(program, binds, alg), "evaluate"),
        "render_program": (lambda: lang.render_program(program), "render"),
    }[entry]
    with pytest.raises(BudgetExceeded, match=f"program nested too deeply to {verb}"):
        run()


@pytest.mark.parametrize("binds_text, message", [
    (SHARING_BINDS, r"intermediate value: configuration \{FA=1, FB=0\} is outside the context$"),
    ("modality interval;\nbind x = [1 .. 4];",
     "intermediate value: configuration MIN is outside the context$"),
])
def test_check_invariants_catches_an_unrestricted_read(monkeypatch, binds_text, message):
    # a variable read that ignores its path condition holds worlds outside
    # its branch; the per-node check names the first at the read itself
    program, alg, binds, env = setup(
        "if x < 2 then x else x + 1", binds_text, check_invariants=True
    )
    eval_modal(program, env)
    monkeypatch.setattr(modal_eval, "restrict", lambda alg, obj, ctx: obj)
    with pytest.raises(InvariantViolation, match=message):
        eval_modal(program, env)


def _checked_outcome(alg, run) -> tuple:
    """What a checked run returns or raises, its counters and its
    emptiness checks."""
    stats, before = LiftStats(), alg.sat_calls
    try:
        outcome = run(stats)
    except InvariantViolation as ex:
        outcome = f"InvariantViolation: {ex}"
    counters = (stats.tuples, stats.pruned, dict(stats.applications))
    return outcome, counters, alg.sat_calls - before


@pytest.mark.parametrize("unrestricted", [False, True], ids=["restricted", "unrestricted"])
@pytest.mark.parametrize("kind", ["feature", "interval", "probability"])
def test_checked_run_skips_only_nodes_that_cannot_fail(monkeypatch, kind, unrestricted):
    # the shipped check skips a one-pair answer at its path condition, the
    # reference tests every node: the same results, the same first
    # violation and the same emptiness checks over the deep-golden corpus;
    # reads that ignore their path condition make violations occur
    if unrestricted:
        monkeypatch.setattr(modal_eval, "restrict", lambda alg, obj, ctx: obj)
    violations = 0
    for seed in range(100):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds, linear=seed % 2 == 0)
        for policy in ("reject", "swap"):
            env = ModalEnv(alg, binds, check_invariants=True, interval_empty=policy)
            shipped = _checked_outcome(alg, lambda stats: eval_modal(program, env, stats))
            reference = _checked_outcome(alg, lambda stats: EveryNodeCheckedEval(program, env, stats).run())
            assert shipped == reference, (seed, policy)
            violations += str(shipped[0]).startswith("InvariantViolation: intermediate value")
    assert bool(violations) == unrestricted


def test_checked_run_tests_the_label_not_the_node_type(monkeypatch):
    # a constant that claims every world under a narrowed branch is
    # caught: the skip looks at the label a node answers with
    program, alg, binds, env = setup(
        'if feature("FA") then 1 else 2', "modality feature(FA);", check_invariants=True
    )
    monkeypatch.setitem(modal_eval._CheckedDeepEval._node, lang.IntLit, modal_eval._checked(
        lambda self, expr, scope, ctx: (((expr.value, self.alg.top),), ())))
    with pytest.raises(InvariantViolation,
                       match=r"^intermediate value: configuration \{FA=1\} is outside the context$"):
        eval_modal(program, env)


def test_all_constant_checked_run_tests_only_its_result(monkeypatch):
    # every node of a program that reads no input answers one pair at its
    # path condition, so only validate tests a partition
    program, alg, binds, env = setup(
        "let a = 1 + 2 in if a < 4 then !(a == 3) else a * 2", "modality feature(FA);",
        check_invariants=True,
    )
    callers = []
    problems = labels.WorldSetAlgebra.problems
    monkeypatch.setattr(labels.WorldSetAlgebra, "problems", lambda self, *args, **kw: callers.append(
        sys._getframe(1).f_code.co_name) or problems(self, *args, **kw))
    assert eval_modal(program, env).values == ((False, alg.top),)
    assert callers == ["validate"]


def test_deep_calls_apply_pairs_by_its_lifting_name():
    # a tracer that wraps lifting.apply_pairs replaces this reference too
    assert modal_eval.apply_pairs is lifting.apply_pairs
    # black-box lifting crosses through the same kernel
    assert modal_eval.cross is lifting.cross


def _wide_bindings():
    """Probability and feature bindings whose product crosses 400 and 1024
    surviving tuples."""
    weights = ", ".join(f"{i} @ {1 / 20!r}" for i in range(20))
    probability = parse_bindings(
        f"modality probability;\nbind x = {{ {weights} }};\nbind y = {{ {weights} }};"
    )
    alg = FeatureAlgebra([f"F{i}" for i in range(10)])

    def spread(part):  # value i on the configurations p with part(p) == i
        return ModalValue(
            tuple((i, sum(1 << p for p in range(1024) if part(p) == i)) for i in range(32)),
            "feature",
        )

    return probability, (alg, {"x": spread(lambda p: p & 31), "y": spread(lambda p: p >> 5)})


@pytest.mark.parametrize("evaluate", [eval_modal, eval_shallow_blackbox])
def test_evaluators_merge_tuples_as_they_go(evaluate):
    for alg, binds in _wide_bindings():
        # weights of independent draws multiply; feature sets intersect
        meet = (lambda a, b: a * b) if alg.kind == "probability" else alg.meet
        outcomes = [
            (vx * vy, meet(lx, ly))
            for vx, lx in binds["x"].pairs
            for vy, ly in binds["y"].pairs
        ]
        result = evaluate(parse("x * y"), ModalEnv(alg, binds))
        # each tuple merged as it arrives is one merge of them all, to the
        # last bit of every weight
        assert result.values == modal.merge_value_pairs(alg, outcomes)
        assert result.errors == ()


# --- merging: normalized parts pass through, only unions merge ---------------------

MERGE_BINDINGS = [
    "modality feature(FA);\nbind x = { 1 @ FA, 4 @ !FA };\nbind y = { 2 @ true };",
    "modality interval;\nbind x = [1 .. 4];\nbind y = [2 .. 3];",
    "modality probability;\nbind x = { 1 @ 0.5, 4 @ 0.5 };\nbind y = { 2 @ 0.3, 3 @ 0.7 };",
]


@pytest.mark.parametrize("binds_text", MERGE_BINDINGS)
@pytest.mark.parametrize("text, value_merges", [
    ("x + y", 0),
    ("if x < y then x else y", 1),
])
def test_deep_merges_only_unions(monkeypatch, binds_text, text, value_merges):
    # merges inside apply_pairs go through modal's own references, so
    # the spy on modal_eval's counts only the deep evaluator's merges;
    # each program applies one operator through apply_pairs
    program, alg, binds, env = setup(text, binds_text)
    expected = eval_modal(program, env)
    merged = []
    applied = []
    original = modal_eval.merge_value_pairs
    monkeypatch.setattr(
        modal_eval, "merge_value_pairs",
        lambda a, pairs: merged.append("merge_value_pairs") or original(a, pairs),
    )
    apply = modal_eval.apply_pairs
    monkeypatch.setattr(
        modal_eval, "apply_pairs", lambda *a, **kw: applied.append(1) or apply(*a, **kw)
    )
    assert eval_modal(program, env) == expected
    assert merged == ["merge_value_pairs"] * value_merges
    assert applied == [1]


POINT = "modality interval;\nbind x = [1 .. 1];"


def test_deep_shares_equal_endpoints():
    # inside a lifted run [1 .. 1] is one pair holding both endpoints, so
    # x + 5 is one application, deep and black-box alike; against [1 .. 2]
    # it crosses two tuples, neither pruned
    cases = [("x + 5", POINT, ["[6 .. 6]"], (1, 1, 0)),
             ("x + y", "modality interval;\nbind x = [3 .. 3];\nbind y = [1 .. 2];", ["[4 .. 5]"], (2, 2, 0))]
    for text, binds_text, lines, counters in cases:
        program, alg, binds, env = setup(text, binds_text)
        for evaluate in (eval_modal, eval_shallow_blackbox):
            stats = LiftStats()
            assert modal.render_result(alg, evaluate(program, env, stats)) == lines
            assert (stats.applications["add"], stats.tuples, stats.pruned) == counters


def test_endpoints_keep_one_pair_each_outside_a_run():
    program, alg, binds, env = setup("x", "modality interval;\nbind x = [5 .. 5];")
    both = ((5, Tag.MAX), (5, Tag.MIN))
    assert binds["x"].pairs == both
    assert modal.normalize(alg, ModalValue(((5, Tag.MIN), (5, Tag.MAX)), "interval")).pairs == both
    assert modal.make_const(alg, 5).pairs == both
    zero = modal.make_const(alg, 0)
    assert lifting.shallow_apply(alg, lang.PRIMITIVES["+"], [binds["x"], zero]).values == both
    assert eval_modal(program, env).values == both
    assert eval_shallow_blackbox(program, env).values == both
    assert brute_force_eval(program, binds, alg).values == both


def test_shared_error_splits_per_endpoint():
    # x - x is 0 at both endpoints, so the division runs once and fails at both
    program, alg, binds, env = setup("1 / (x - x)", "modality interval;\nbind x = [4 .. 9];")
    stats = LiftStats()
    result = eval_modal(program, env, stats)
    assert modal.render_result(alg, result) == ["error:DivByZero @ MAX", "error:DivByZero @ MIN"]
    assert stats.applications["div"] == 1


@pytest.mark.parametrize("kind", ["feature", "interval", "probability"])
def test_every_deep_node_returns_normalized_pairs(monkeypatch, kind):
    # a node that passes its parts through unmerged must already hold what
    # a merge of them would give
    def normalized(method):
        def checked(self, *args):
            values, errors = method(self, *args)
            assert tuple(values) == modal.merge_value_pairs(self.alg, values)
            assert tuple(errors) == modal.merge_value_pairs(self.alg, errors)
            return values, errors
        return checked

    for cls, method in list(modal_eval._DeepEval._node.items()):
        monkeypatch.setitem(modal_eval._DeepEval._node, cls, normalized(method))
    for seed in range(40):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds, linear=seed % 2 == 0)
        for policy in ("reject", "swap"):
            eval_modal(program, ModalEnv(alg, binds, interval_empty=policy))


TINY_WEIGHTS = """modality probability;
bind x = { 0 @ 0.9999999, 1 @ 0.0000001 };
bind y = { 5 @ 0.0000001, 6 @ 0.9999999 };
"""


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("text", [
    "(let a = 1 / x in y) + 0",
    "fun f(a, b) = b; f(1 / x, y) + 0",
])
def test_probability_frame_drops_empty_weights(text, check):
    # the draw x = 1, y = 5 weighs 1e-14, below empty_eps: it is no world,
    # so it never reaches the + as a tuple to prune
    program, alg, binds, env = setup(text, TINY_WEIGHTS, check_invariants=check)
    stats = LiftStats()
    result = eval_modal(program, env, stats)
    assert result.values == ((6, 0.9999999 * 0.0000001),)
    assert result.errors == (("DivByZero", 0.9999999),)
    assert (stats.tuples, stats.pruned) == (3, 0)


# --- lifting only where values vary ------------------------------------------------

VARYING_BINDINGS = {
    "feature": "modality feature(FA, FB);\nbind x = { 1 @ FA, 2 @ !FA };\n"
               "bind b = { true @ FA, false @ !FA };",
    "interval": "modality interval;\nbind x = [1 .. 2];",  # a range holds no bool
    "probability": "modality probability;\nbind x = { 1 @ 0.5, 2 @ 0.5 };\n"
                   "bind b = { true @ 0.25, false @ 0.75 };",
}


@pytest.mark.parametrize("kind, text, checks", [
    *((kind, text, 0) for kind in VARYING_BINDINGS for text in ("x + 1", "1 + x")),
    ("feature", "!b", 0),
    ("probability", "!b", 0),
    # x's two pairs are restricted to the FB arm; the constants are not
    ("feature", 'if feature("FB") then x + 1 else 0', 2),
])
def test_no_label_work_where_nothing_varies(monkeypatch, kind, text, checks):
    # a constant holds the whole context, so the operator maps over x's
    # (or b's) two pairs: two tuples applied, with no meet and no
    # emptiness test but those of the reads themselves
    program, alg, binds, env = setup(text, VARYING_BINDINGS[kind])
    meets = []
    meet = labels.WorldSetAlgebra.meet
    monkeypatch.setattr(labels.WorldSetAlgebra, "meet",
                        lambda self, a, b: meets.append(1) or meet(self, a, b))
    stats, before = LiftStats(), alg.sat_calls  # draws count their checks in alg
    result = eval_modal(program, env, stats)
    assert (stats.tuples, stats.applied, stats.pruned) == (2, 2, 0)
    assert (len(meets), alg.sat_calls - before) == (checks, checks)
    assert assert_equiv(alg, result, brute_force_eval(program, binds, alg)) == (True, None)


def test_inputs_must_partition_every_world():
    # a variable that holds one pair is read as that value at the whole
    # context, so an input with a gap is rejected before any read: it
    # would give 6 at FB, where FA is false too
    program, alg, binds, env = setup(
        'if feature("FB") then x + 1 else 0', "modality feature(FA, FB);\nbind x = { 5 @ FA };"
    )
    message = "binding 'x': configuration {FA=0, FB=0} is uncovered"
    for evaluate in (eval_modal, eval_shallow_blackbox):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            evaluate(program, env)
    # the same text the command line prints for these bindings
    assert modal.validate(alg, binds["x"]).problems == (message.partition(": ")[2],)


def _plain(program, alg, binds):
    cfg = cli.RunConfig("p.mdl", "b.mb", mode="plain", config="FA=1" if alg.features else None)
    return cli._run_plain(program, alg, binds, cfg, LiftStats())


ENTRY_POINTS = {
    "deep": lambda program, alg, binds: eval_modal(program, ModalEnv(alg, binds)),
    "deep-checked": lambda program, alg, binds: eval_modal(
        program, ModalEnv(alg, binds, check_invariants=True)),
    "shallow": lambda program, alg, binds: eval_shallow_blackbox(program, ModalEnv(alg, binds)),
    "oracle": lambda program, alg, binds: brute_force_eval(program, binds, alg),
    "plain": _plain,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind, message", [
    ("probability", "binding 'x': totality gap +0.5"),
    ("feature", "binding 'x': configuration {FA=0} is uncovered"),
], ids=("probability", "feature"))
def test_every_entry_point_rejects_the_same_bad_inputs(entry, kind, message):
    # every mode reads its inputs through ``modal.bound_inputs``, which
    # rejects a hand-built input that does not partition every world with
    # the text ``modal run`` prints for it: weights that miss 1, and a
    # gap, even where a plain run's world is covered
    if kind == "probability":
        alg = ProbabilityAlgebra()
        x = ModalValue(((1, 0.5),), alg.kind)
    else:
        alg = FeatureAlgebra(("FA",))
        x = ModalValue(((5, alg.var("FA")),), alg.kind)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](parse("x + 1"), alg, {"x": x})
    assert validate(alg, x).problems == (message.partition(": ")[2],)


@pytest.mark.parametrize("check", [False, True])
def test_deep_nesting_capacity(check):
    # one frame per nesting level, two checked: 400 levels fit in the
    # default recursion limit of 1000 either way
    program, alg, binds, env = setup(" + ".join(["x"] * 400), SHARING_BINDS, check_invariants=check)
    result = eval_modal(program, env)
    assert {v for v, _ in result.values} == {-7 * 400, 3 * 400}


def test_arms_under_a_split_guard_cost_one_frame_a_level():
    # 850 nested conditionals over x's 256 values, one a configuration:
    # the outer 255 each split one configuration off and evaluate the rest
    # in their else arm, and the inner ones, which test those values again,
    # find one pair; configuration 255 reaches x, and every world answers x
    features = [f"F{i}" for i in range(8)]
    minterms = [" & ".join(f if w >> i & 1 else "!" + f for i, f in enumerate(features)) for w in range(256)]
    program, alg, binds, env = setup(
        "".join(f"if x == {i % 255} then {i % 255} else " for i in range(850)) + "x",
        f"modality feature({', '.join(features)});\n"
        f"bind x = {{ {', '.join(f'{w} @ {m}' for w, m in enumerate(minterms))} }};",
    )
    result = eval_modal(program, env)
    assert (result.values, result.errors) == (binds["x"].pairs, ())
    assert assert_equiv(alg, result, brute_force_eval(program, binds, alg)) == (True, None)


@pytest.mark.parametrize("kind", ["feature", "interval", "probability"])
def test_checking_adds_only_the_result_label_tests(kind):
    # the partition test at every node counts no emptiness check, so a
    # checked run makes the unchecked run's checks plus validate's one
    # per pair of the result (the seeded corpus of the deep goldens)
    for seed in range(100):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds, linear=seed % 2 == 0)
        calls = []
        for check in (False, True):
            before = alg.sat_calls
            result = eval_modal(program, ModalEnv(alg, binds, check_invariants=check, interval_empty="swap"))
            calls.append(alg.sat_calls - before)
        assert calls[1] == calls[0] + len(result.values) + len(result.errors), seed


def test_checking_nested_let_at_scale():
    # every node of the scaling program at k = 10, n = 30 is checked on
    # bits: 34,516 emptiness checks unchecked, plus one per result pair
    # (testing every pair of labels made 33,935,096)
    features = ", ".join(f"F{i}" for i in range(10))
    lines = ["let v0 = x in"]
    for i in range(1, 30):
        lines.append(f'let v{i} = if feature("F{i % 10}") then v{i - 1} + {i} else v{i - 1} * 2 in')
    program, alg, binds, env = setup(
        "\n".join(lines + ["v29"]),
        f"modality feature({features}); bind x = {{ 1 @ F0, 2 @ !F0 }};",
        check_invariants=True,
    )
    before = alg.sat_calls
    result = eval_modal(program, env)
    assert (len(result.values) + len(result.errors), alg.sat_calls - before) == (1024, 35540)
