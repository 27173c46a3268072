import random

import pytest

from multiworld.errors import ArityMismatch, EvalError, ModalityMismatch
from multiworld.labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
)
from multiworld.lang import apply_op
from multiworld.lifting import LiftStats, PrimitiveFn, restrict, shallow_apply
from multiworld.modal import (
    ModalResult,
    ModalValue,
    make_const,
    normalize_result,
    project,
    validate,
)
from multiworld.oracle import assert_equiv, outcome_at

FEAT = FeatureAlgebra(("FA", "FB"))
PROB = ProbabilityAlgebra()
INTV = IntervalAlgebra()
FA, FB = FEAT.var("FA"), FEAT.var("FB")
AND, NOT, TOP = FEAT.meet, FEAT.complement, FEAT.top

ADD = PrimitiveFn("add", 2, lambda a, b: apply_op("+", a, b))
DIV = PrimitiveFn("div", 2, lambda a, b: apply_op("/", a, b))


def three_arg_inputs():
    x = ModalValue(((-7, FA), (3, NOT(FA))), "feature")
    y = ModalValue(
        (
            (1, AND(FA, FB)),
            (8, AND(FA, NOT(FB))),
            (4, AND(NOT(FA), FB)),
            (10, AND(NOT(FA), NOT(FB))),
        ),
        "feature",
    )
    z = ModalValue(((5, TOP),), "feature")
    return x, y, z


def test_cross_product_prunes_contradictions():
    x, y, z = three_arg_inputs()
    f = PrimitiveFn("combine", 3, lambda a, b, c: a * b + (c + 1))
    stats = LiftStats()
    result = shallow_apply(FEAT, f, [x, y, z], stats)
    assert stats.tuples == 8
    assert stats.pruned == 4
    assert stats.applied == 4
    # survivors cover exactly the four configurations, one minterm each
    survivors = [label for _, label in result.values]
    minterms = [FEAT.minterm(cfg) for cfg in FEAT.iter_configs()]
    for m in minterms:
        assert sum(m == s for s in survivors) == 1
    assert validate(FEAT, result).ok


def test_feature_addition_matches_per_configuration_oracle():
    x, y, _ = three_arg_inputs()
    result = shallow_apply(FEAT, ADD, [x, y])
    for cfg in FEAT.iter_configs():
        expected = project(FEAT, x, cfg) + project(FEAT, y, cfg)
        assert outcome_at(FEAT, result, cfg) == ("value", expected)
    expected_values = {(-6): "11", 1: "10", 7: "01", 13: "00"}
    assert {v for v, _ in result.values} == set(expected_values)


def test_probability_addition_joint_enumeration():
    x = ModalValue(((7, 0.2), (9, 0.8)), "probability")
    y = ModalValue(((1, 0.5), (2, 0.5)), "probability")
    result = shallow_apply(PROB, ADD, [x, y])
    weights = dict(result.values)
    assert weights[8] == pytest.approx(0.1, abs=1e-12)
    assert weights[9] == pytest.approx(0.1, abs=1e-12)
    assert weights[10] == pytest.approx(0.4, abs=1e-12)
    assert weights[11] == pytest.approx(0.4, abs=1e-12)


def test_interval_addition_prunes_mixed_tags():
    x = ModalValue(((4, Tag.MIN), (9, Tag.MAX)), "interval")
    y = ModalValue(((1, Tag.MIN), (2, Tag.MAX)), "interval")
    stats = LiftStats()
    result = shallow_apply(INTV, ADD, [x, y], stats)
    assert result.values == ((5, Tag.MIN), (11, Tag.MAX))
    assert stats.tuples == 4 and stats.pruned == 2


def test_division_errors_are_per_world():
    num = ModalValue(((9, FB), (9, NOT(FB))), "feature")
    den = ModalValue(((0, NOT(FA)), (1, FA)), "feature")
    result = shallow_apply(FEAT, DIV, [num, den])
    assert len(result.values) == 1 and result.values[0][0] == 9
    assert result.values[0][1] == FA
    assert len(result.errors) == 1 and result.errors[0][0] == "DivByZero"
    assert result.errors[0][1] == NOT(FA)
    assert validate(FEAT, result).ok


def test_arity_and_modality_mismatch():
    x, _, _ = three_arg_inputs()
    with pytest.raises(ArityMismatch):
        shallow_apply(FEAT, ADD, [x])
    with pytest.raises(ModalityMismatch):
        shallow_apply(FEAT, ADD, [x, make_const(PROB, 1)])


def test_constant_args_apply_once():
    stats = LiftStats()
    shallow_apply(FEAT, ADD, [make_const(FEAT, 1), make_const(FEAT, 2)], stats)
    assert stats.applied == 1
    stats = LiftStats()
    shallow_apply(INTV, ADD, [make_const(INTV, 1), make_const(INTV, 2)], stats)
    assert stats.applied == 2  # one per endpoint tag


def test_counter_identity_random():
    rng = random.Random(7)
    for _ in range(50):
        pairs = tuple(
            (rng.randint(-5, 5), FEAT.minterm(cfg)) for cfg in FEAT.iter_configs()
        )
        x = ModalValue(pairs, "feature")
        stats = LiftStats()
        shallow_apply(FEAT, ADD, [x, x], stats)
        assert stats.applied + stats.pruned == stats.tuples


def test_probability_mass_conservation_with_errors():
    num = make_const(PROB, 10)
    den = ModalValue(((0, 0.25), (2, 0.75)), "probability")
    result = shallow_apply(PROB, DIV, [num, den])
    mass = sum(w for _, w in result.values) + sum(w for _, w in result.errors)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert dict(result.errors)["DivByZero"] == pytest.approx(0.25, abs=1e-12)


def test_projection_homomorphism_random():
    rng = random.Random(11)
    for _ in range(60):
        xs = []
        for _ in range(2):
            pairs = tuple(
                (rng.randint(-4, 4), FEAT.minterm(cfg)) for cfg in FEAT.iter_configs()
            )
            xs.append(ModalValue(pairs, "feature"))
        op = rng.choice(("+", "-", "*", "/"))
        prim = PrimitiveFn(op, 2, lambda a, b, op=op: apply_op(op, a, b))
        result = shallow_apply(FEAT, prim, xs)
        for cfg in FEAT.iter_configs():
            args = [project(FEAT, mv, cfg) for mv in xs]
            try:
                expected = ("value", apply_op(op, *args))
            except EvalError as ex:
                expected = ("error", ex.kind)
            assert outcome_at(FEAT, result, cfg) == expected
        assert validate(FEAT, result).ok


# --- restrict -----------------------------------------------------------------

def test_restrict_feature():
    x = ModalValue(((-7, FA), (3, NOT(FA))), "feature")
    out = restrict(FEAT, x, FB)
    for v, label in out.pairs:
        want = AND(FA, FB) if v == -7 else AND(NOT(FA), FB)
        assert label == want


def test_restrict_probability_multiplies():
    x = ModalValue(((7, 0.2), (9, 0.8)), "probability")
    out = restrict(PROB, x, 0.5)
    assert dict(out.pairs)[7] == pytest.approx(0.1, abs=1e-12)
    assert dict(out.pairs)[9] == pytest.approx(0.4, abs=1e-12)


def test_restrict_by_top_is_identity():
    x = ModalValue(((-7, FA), (3, NOT(FA))), "feature")
    out = restrict(FEAT, x, TOP)
    assert assert_equiv(FEAT, out, x) == (True, None)
    assert restrict(FEAT, x, None) is x


def test_restrict_can_empty_out():
    x = ModalValue(((1, FA),), "feature")
    out = restrict(FEAT, x, NOT(FA))
    assert out.pairs == ()


def test_restrict_keeps_order_of_results_and_bare_pairs():
    x = ModalValue(((-7, FA), (1, AND(NOT(FA), FB)), (3, AND(NOT(FA), NOT(FB)))), "feature")
    assert restrict(FEAT, x.pairs, NOT(FA)) == x.pairs[1:]
    r = restrict(FEAT, ModalResult(x.pairs[1:], (("DivByZero", FA),), "feature"), FA)
    assert r == ModalResult((), (("DivByZero", FA),), "feature")


# --- union: results over disjoint worlds, concatenated and normalized -------------

def union(alg, a, b):
    def parts(obj):
        return (obj.values, obj.errors) if isinstance(obj, ModalResult) else (obj.pairs, ())

    (av, ae), (bv, be) = parts(a), parts(b)
    return normalize_result(alg, ModalResult(av + bv, ae + be, alg.kind))


def test_split_then_union_is_identity():
    x = ModalValue(((-7, FA), (3, NOT(FA))), "feature")
    rejoined = union(FEAT, restrict(FEAT, x, FB), restrict(FEAT, x, NOT(FB)))
    assert assert_equiv(FEAT, rejoined, x) == (True, None)


def test_union_restores_joint_totality():
    a = ModalResult(((9, AND(FA, FB)),), (), "feature")
    b = ModalResult(((2, NOT(FB)),), (("DivByZero", AND(NOT(FA), FB)),), "feature")
    merged = union(FEAT, a, b)
    assert validate(FEAT, merged).ok


def test_union_with_empty_branch():
    m = ModalResult(((1, TOP),), (), "feature")
    empty = ModalResult((), (), "feature")
    assert union(FEAT, empty, m) == m


def test_union_checks_disjointness_when_asked():
    a = ModalResult(((1, FA),), (), "feature")
    b = ModalResult(((2, TOP),), (), "feature")
    report = validate(FEAT, union(FEAT, a, b))
    assert report.problems == ("labels overlap: FA and true",)
