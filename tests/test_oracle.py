import random
import re

import pytest

from multiworld.errors import BudgetExceeded, EvalError
from multiworld.labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
)
from multiworld.lang import eval_plain, parse, render_program
from multiworld.modal import ModalResult, ModalValue, merge_value_pairs, validate
from multiworld.modal_eval import ModalEnv, eval_modal
from multiworld.oracle import (
    assert_equiv,
    brute_force_eval,
    enumerate_worlds,
    random_bindings,
    random_program,
)
from multiworld.bindings import parse_bindings

DIV = """
fun foo(x, y) =
  let c = if feature("FA") then 1 else 0 in
  if feature("FB") then (x + y) / c else (x + c) / y;
foo(x, y)
"""


def test_enumerate_feature_configurations():
    alg = FeatureAlgebra(("FA", "FB"))
    worlds = list(enumerate_worlds(alg, {}))
    assert len(worlds) == 4
    # each world is labeled by its own minterm, and the labels partition
    assert [label for _, _, label in worlds] == [alg.minterm(c) for c in alg.iter_configs()]
    assert alg.problems([label for _, _, label in worlds]) == []
    assert [config for _, config, _ in worlds] == list(alg.iter_configs())


def test_enumerate_interval_endpoints():
    worlds = list(enumerate_worlds(IntervalAlgebra(), {}))
    assert [label for _, _, label in worlds] == [Tag.MIN, Tag.MAX]
    assert all(config is None for _, config, _ in worlds)


def test_enumerate_probability_joint():
    alg, binds = parse_bindings(
        "modality probability;\nbind x = { 7 @ 0.2, 9 @ 0.8 };\nbind y = { 1 @ 0.5, 2 @ 0.5 };"
    )
    worlds = list(enumerate_worlds(alg, binds))
    assert len(worlds) == 4
    assert sorted(round(w, 10) for _, _, w in worlds) == [0.1, 0.1, 0.4, 0.4]
    assert {(env["x"], env["y"]) for env, _, _ in worlds} == {(7, 1), (7, 2), (9, 1), (9, 2)}


def test_worlds_stream():
    # a 20-feature world space is walked lazily, not built up front
    alg = FeatureAlgebra([f"F{i:02d}" for i in range(20)])
    worlds = enumerate_worlds(alg, {})
    env, config, label = next(worlds)
    assert env == {} and label == 1 and not any(config.values())
    assert next(worlds)[1] == {**config, "F19": True}


def test_feature_budget():
    alg = FeatureAlgebra([f"F{i:02d}" for i in range(21)])
    with pytest.raises(BudgetExceeded):
        enumerate_worlds(alg, {})


def test_joint_budget():
    alg = ProbabilityAlgebra()
    big = ModalValue(tuple((i, 1.0 / 150) for i in range(150)), "probability")
    binds = {f"x{i}": big for i in range(4)}
    with pytest.raises(BudgetExceeded):
        enumerate_worlds(alg, binds)


def test_oracle_merges_worlds_as_it_goes():
    names = ["FA", "FB"] + [f"F{i}" for i in range(8)]
    feature = parse_bindings(
        f"modality feature({', '.join(names)});\n"
        "bind x = { 6 @ F0 & F5, 2 @ !(F0 & F5) };\nbind y = { 3 @ F7, 0 @ !F7 };"
    )
    weights = ", ".join(f"{i} @ {1 / 20!r}" for i in range(20))
    probability = parse_bindings(
        f"modality probability;\nbind x = {{ {weights} }};\nbind y = {{ {weights} }};"
    )
    cases = ((DIV, feature, True), ("x * y - x", probability, False))
    for text, (alg, binds), divides_by_zero in cases:
        program = parse(text)
        values, errors = [], []
        for env, config, label in enumerate_worlds(alg, binds):  # 1024 and 400 worlds
            try:
                values.append((eval_plain(program, env, config), label))
            except EvalError as ex:
                errors.append((ex.kind, label))
        result = brute_force_eval(program, binds, alg)
        # each world merged as it arrives is one merge of them all, to the
        # last bit of every weight
        assert result.values == merge_value_pairs(alg, values)
        assert result.errors == merge_value_pairs(alg, errors)
        assert bool(errors) == divides_by_zero


def test_brute_force_div_program():
    program = parse(DIV)
    alg, binds = parse_bindings(
        "modality feature(FA, FB);\nbind x = { 6 @ true };\nbind y = { 3 @ true };"
    )
    result = brute_force_eval(program, binds, alg)
    assert {v for v, _ in result.values} == {9, 2}
    assert [k for k, _ in result.errors] == ["DivByZero"]
    err_label = result.errors[0][1]
    want = alg.minterm({"FA": False, "FB": True})
    assert err_label == want
    assert validate(alg, result).ok


def test_brute_force_constant_program():
    program = parse("1 + 2")
    for kind in ("feature", "probability", "interval"):
        alg, binds = random_bindings(random.Random(0), kind)
        result = brute_force_eval(program, binds, alg)
        assert {v for v, _ in result.values} == {3}
        assert validate(alg, result).ok


def test_assert_equiv_is_denotational():
    alg = FeatureAlgebra(("FA", "FB"))
    fa = alg.var("FA")
    a = ModalResult(((2, alg.join(fa, alg.complement(fa))),), (), "feature")
    b = ModalResult(((2, alg.top),), (), "feature")
    assert assert_equiv(alg, a, b) == (True, None)


def test_assert_equiv_reports_diverging_world():
    alg = FeatureAlgebra(("FA",))
    fa = alg.var("FA")
    a = ModalResult(((2, fa), (3, alg.complement(fa))), (), "feature")
    b = ModalResult(((3, fa), (2, alg.complement(fa))), (), "feature")
    ok, diff = assert_equiv(alg, a, b)
    assert not ok
    assert "FA=" in diff
    intv = IntervalAlgebra()
    doubled = ModalResult(((1, Tag.MIN), (2, Tag.MIN), (3, Tag.MAX)), (), "interval")
    rng = ModalResult(((1, Tag.MIN), (3, Tag.MAX)), (), "interval")
    assert assert_equiv(intv, doubled, rng) == (
        False, "diverges at MIN: ('invalid', '2 outcomes at MIN') vs ('value', 1)"
    )


def test_assert_equiv_probability_tolerance():
    alg = ProbabilityAlgebra()
    a = ModalResult(((1, 0.5), (2, 0.5)), (), "probability")
    b = ModalResult(((1, 0.5 + 1e-12), (2, 0.5 - 1e-12)), (), "probability")
    assert assert_equiv(alg, a, b) == (True, None)
    c = ModalResult(((1, 0.6), (2, 0.4)), (), "probability")
    ok, diff = assert_equiv(alg, a, c)
    assert not ok and "weight" in diff


def test_assert_equiv_spot_check_equivalence_relation():
    rng = random.Random(5)
    for _ in range(25):
        alg, binds = random_bindings(rng, "feature")
        program = random_program(rng, alg, binds)
        deep = eval_modal(program, ModalEnv(alg, binds))
        oracle = brute_force_eval(program, binds, alg)
        # reflexive, symmetric, and transitive through the oracle
        assert assert_equiv(alg, deep, deep) == (True, None)
        assert assert_equiv(alg, deep, oracle) == assert_equiv(alg, oracle, deep)
        assert assert_equiv(alg, oracle, oracle) == (True, None)


def test_brute_force_output_always_validates():
    for seed in range(60):
        rng = random.Random(seed)
        kind = ("feature", "interval", "probability")[seed % 3]
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds)
        result = brute_force_eval(program, binds, alg)
        report = validate(alg, result, interval_empty="swap")
        assert report.ok, (seed, kind, report.problems)


def test_generator_respects_linearity():
    # every modal variable appears at most once in linear mode; the
    # generator names no let, parameter or function like a binding
    for seed in range(120):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, "probability")
        program = random_program(rng, alg, binds, linear=True)
        words = re.findall(r"\w+", render_program(program))
        uses = [word for word in words if word in binds]
        assert len(uses) == len(set(uses)), (seed, uses)
