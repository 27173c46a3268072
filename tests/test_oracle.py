import random

import pytest

from multiworld.errors import BudgetExceeded
from multiworld.labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
)
from multiworld.lang import parse
from multiworld.modal import ModalResult, ModalValue, validate
from multiworld.modal_eval import ModalEnv, eval_modal
from multiworld import oracle
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


def test_oracle_merges_worlds_as_it_goes(monkeypatch):
    names = ["FA", "FB"] + [f"F{i}" for i in range(8)]
    feature = parse_bindings(
        f"modality feature({', '.join(names)});\n"
        "bind x = { 6 @ F0 & F5, 2 @ !(F0 & F5) };\nbind y = { 3 @ F7, 0 @ !F7 };"
    )
    weights = ", ".join(f"{i} @ {1 / 20!r}" for i in range(20))
    probability = parse_bindings(
        f"modality probability;\nbind x = {{ {weights} }};\nbind y = {{ {weights} }};"
    )
    for program, (alg, binds) in ((DIV, feature), ("x * y - x", probability)):
        seen = []
        merge = oracle.merge_value_pairs
        monkeypatch.setattr(
            oracle, "merge_value_pairs", lambda a, pairs: seen.append(len(pairs)) or merge(a, pairs)
        )
        result = brute_force_eval(parse(program), binds, alg)
        # 1024 and 400 worlds; never more than MERGE_EVERY of them unmerged
        assert len(seen) > 1 and max(seen) <= oracle.MERGE_EVERY + len(result.values)
        monkeypatch.setattr(oracle, "merge_value_pairs", merge)
        monkeypatch.setattr(oracle, "MERGE_EVERY", 1 << 11)  # one merge, at the end
        assert brute_force_eval(parse(program), binds, alg) == result
        monkeypatch.undo()


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
    # every modal variable appears at most once in linear mode
    from multiworld.lang import Var, _scoped_nodes

    for seed in range(120):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, "probability")
        program = random_program(rng, alg, binds, linear=True)
        roots = [fd.body for fd in program.fundefs] + [program.main]
        uses = [
            node.name
            for root in roots
            for node, _ in _scoped_nodes(root)
            if isinstance(node, Var) and node.name in binds
        ]
        assert len(uses) == len(set(uses)), (seed, uses)
