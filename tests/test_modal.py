import tracemalloc

import pytest
from hypothesis import given, strategies as st

from multiworld.errors import EmptyModalValue, InvariantViolation, ProjectionUnsupported
from multiworld.labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
)
from multiworld.modal import (
    ModalResult,
    ModalValue,
    collect_outcomes,
    merge_value_pairs,
    normalize,
    project,
    render_result,
    validate,
    value_key,
)
from generators import make_const

FEAT = FeatureAlgebra(("FA", "FB"))
PROB = ProbabilityAlgebra()
INTV = IntervalAlgebra()

FA, FB = FEAT.var("FA"), FEAT.var("FB")
AND, NOT, TOP = FEAT.meet, FEAT.complement, FEAT.top


def fval(pairs):
    return ModalValue(tuple(pairs), "feature")


# --- normalize ----------------------------------------------------------------

def test_normalize_merges_equal_values():
    raw = fval([(2, AND(FA, NOT(FB))), (2, AND(NOT(FA), NOT(FB))), (9, AND(FA, FB))])
    normal = normalize(FEAT, raw)
    assert len(normal.pairs) == 2
    # projection at every configuration of {FA, FB} is unchanged
    for cfg in FEAT.iter_configs():
        raw_hits = [v for v, l in raw.pairs if FEAT.covers(l, cfg)]
        new_hits = [v for v, l in normal.pairs if FEAT.covers(l, cfg)]
        assert raw_hits == new_hits or (not raw_hits and not new_hits)


def test_normalize_probability_merges_cross_terms():
    # the 16-valued cross terms of x + x with x = {(7,.2),(9,.8)}: the two
    # (7,9)/(9,7) orderings each weigh .16 in the exhaustive joint table
    joint = [(a + b, wa * wb) for a, wa in ((7, 0.2), (9, 0.8)) for b, wb in ((7, 0.2), (9, 0.8))]
    sixteens = [(v, w) for v, w in joint if v == 16]
    assert [w for _, w in sixteens] == pytest.approx([0.16, 0.16])
    mv = normalize(PROB, ModalValue(tuple(sixteens) + ((14, 0.04), (18, 0.64)), "probability"))
    weights = dict((v, w) for v, w in mv.pairs)
    assert weights[16] == pytest.approx(0.32, abs=1e-12)


def test_normalize_noop_on_normal_value():
    mv = fval([(5, TOP)])
    assert normalize(FEAT, mv) == mv


def test_normalize_drops_empty_and_raises_when_nothing_left():
    mv = fval([(1, AND(FA, NOT(FA)))])
    with pytest.raises(EmptyModalValue):
        normalize(FEAT, mv)


def test_normalize_is_idempotent_and_orders_pairs():
    raw = fval([(9, AND(FA, FB)), (2, NOT(FB)), (2, AND(FB, NOT(FA)))])
    n1 = normalize(FEAT, raw)
    assert normalize(FEAT, n1) == n1
    assert [v for v, _ in n1.pairs] == sorted(v for v, _ in n1.pairs)


def test_value_ordering_bools_after_ints():
    assert value_key(False) > value_key(10**9)
    assert value_key(False) < value_key(True)
    assert value_key(1) != value_key(True)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), min_size=1, max_size=8))
def test_normalize_preserves_projection(assignments):
    # build a value by assigning each configuration of {FA, FB} one of the
    # candidate (value, dup-group) pairs; projections must survive normalize
    configs = list(FEAT.iter_configs())
    pairs = []
    for cfg, (v, _) in zip(configs, assignments * 4):
        pairs.append((v, FEAT.minterm(cfg)))
    mv = fval(pairs)
    normal = normalize(FEAT, mv)
    assert normalize(FEAT, normal) == normal
    for cfg in configs:
        assert project(FEAT, normal, cfg) == project(FEAT, mv, cfg)
    values = [v for v, _ in normal.pairs]
    assert len(values) == len(set(values))


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_normalize_preserves_probability_mass(weights):
    total = sum(weights)
    pairs = tuple((i % 3, w / total) for i, w in enumerate(weights))
    mv = ModalValue(pairs, "probability")
    normal = normalize(PROB, mv)
    assert sum(w for _, w in normal.pairs) == pytest.approx(1.0, abs=1e-9)


def test_collect_outcomes_holds_one_pair_per_distinct_outcome():
    # 65,536 one-configuration runs at 16 features, 3 distinct values; a
    # label takes 8 KB, so holding even 64 runs unmerged would pass 0.5 MB
    alg = FeatureAlgebra([f"F{i}" for i in range(16)])
    runs = ((1 << p, int.__mod__, (p, 3)) for p in range(1 << 16))
    tracemalloc.start()
    try:
        values, errors = collect_outcomes(alg, runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20
    assert [v for v, _ in values] == [0, 1, 2] and errors == ()
    assert [bin(label).count("1") for _, label in values] == [21846, 21845, 21845]
    assert values[0][1] | values[1][1] | values[2][1] == alg.top


# --- validate -----------------------------------------------------------------

def test_validate_accepts_wellformed_feature_value():
    assert validate(FEAT, fval([(-7, FA), (3, NOT(FA))])).ok


def test_validate_reports_totality_gap():
    report = validate(PROB, ModalValue(((7, 0.2), (9, 0.7)), "probability"))
    assert not report.ok
    assert any("0.1" in p for p in report.problems)


def test_validate_rejects_inverted_interval_by_default():
    mv = ModalValue(((9, Tag.MIN), (4, Tag.MAX)), "interval")
    report = validate(INTV, mv)
    assert not report.ok
    assert any("empty range" in p for p in report.problems)


def test_swap_policy_accepts_and_prints_inverted_interval():
    # the values stay each endpoint's own; swap changes only validation and display
    result = ModalResult(((9, Tag.MIN), (4, Tag.MAX)), (), "interval")
    assert validate(INTV, result, interval_empty="swap").ok
    assert render_result(INTV, result, interval_empty="swap") == ["[4 .. 9]"]
    assert render_result(INTV, result) == ["[9 .. 4]"]
    # only two ints form an inverted range: the language orders no bool
    for ends, text in (((True, 3), "[true .. 3]"), ((True, False), "[true .. false]")):
        mixed = ModalResult(((ends[0], Tag.MIN), (ends[1], Tag.MAX)), (), "interval")
        assert render_result(INTV, mixed, interval_empty="swap") == [text]
        assert validate(INTV, mixed).ok


def test_validate_rejects_overlap():
    report = validate(FEAT, fval([(1, FA), (2, TOP)]))
    assert not report.ok
    assert any("overlap" in p for p in report.problems)


def test_validate_names_first_uncovered_configuration():
    report = validate(FEAT, fval([(1, AND(FA, FB)), (2, NOT(FA))]))
    assert report.problems == ("configuration {FA=1, FB=0} is uncovered",)
    # beyond 16 features too, in iter_configs order
    wide = FeatureAlgebra([f"G{i}" for i in range(20)])
    g0, g19 = wide.var("G0"), wide.var("G19")
    report = validate(wide, ModalValue(((1, g0), (2, wide.meet(wide.complement(g0), g19))), "feature"))
    missed = ", ".join(f"G{i}=0" for i in range(20))
    assert report.problems == (f"configuration {{{missed}}} is uncovered",)


def test_validate_rejects_label_outside_declared_configurations():
    report = validate(FEAT, fval([(1, FEAT.top << 1)]))
    assert not report.ok
    assert "label is not a set of the declared configurations" in report.problems


def test_validate_interval_needs_exactly_two_tags():
    assert not validate(INTV, ModalValue(((1, Tag.MIN),), "interval")).ok
    assert not validate(
        INTV, ModalValue(((1, Tag.MIN), (2, Tag.MIN)), "interval")
    ).ok


def test_validate_result_jointly_total():
    result = ModalResult(
        values=((9, AND(FA, FB)), (2, NOT(FB))),
        errors=(("DivByZero", AND(NOT(FA), FB)),),
        modality="feature",
    )
    assert validate(FEAT, result).ok
    # dropping the error pair opens a gap
    assert not validate(FEAT, ModalResult(result.values, (), "feature")).ok


def test_validate_all_consts():
    for alg in (FEAT, PROB, INTV):
        for v in (-3, 0, 7, True, False):
            assert validate(alg, make_const(alg, v)).ok


# --- project ------------------------------------------------------------------

def test_project_examples():
    x = fval([(-7, FA), (3, NOT(FA))])
    assert project(FEAT, x, {"FA": True, "FB": False}) == -7
    assert project(FEAT, x, {"FA": False, "FB": True}) == 3
    const = make_const(FEAT, 5)
    for cfg in FEAT.iter_configs():
        assert project(FEAT, const, cfg) == 5
    rng = ModalValue(((4, Tag.MIN), (9, Tag.MAX)), "interval")
    assert project(INTV, rng, Tag.MAX) == 9
    assert project(INTV, rng, Tag.MIN) == 4


def test_project_probability_unsupported():
    # a value with no pairs matches none, and still names no world
    for mv in (make_const(PROB, 5), ModalValue((), "probability")):
        with pytest.raises(ProjectionUnsupported):
            project(PROB, mv, None)


def test_project_requires_total_config():
    x = fval([(1, TOP)])
    with pytest.raises(ValueError):
        project(FEAT, x, {"FA": True})


def test_project_detects_bad_value():
    broken = fval([(1, FA), (2, FA)])
    with pytest.raises(InvariantViolation):
        project(FEAT, broken, {"FA": True, "FB": True})
    half = ModalValue(((1, Tag.MIN),), "interval")
    with pytest.raises(InvariantViolation, match=r"^world MAX matched 0 pairs \(expected exactly 1\)$"):
        project(INTV, half, Tag.MAX)


# --- rendering ------------------------------------------------------------------

def test_render_feature_value():
    x = ModalResult(((-7, FA), (3, NOT(FA))), (), "feature")
    assert render_result(FEAT, x) == ["-7 @ FA", "3 @ !FA"]


def test_render_interval_forms():
    rng = ModalResult(((4, Tag.MIN), (9, Tag.MAX)), (), "interval")
    assert render_result(INTV, rng) == ["[4 .. 9]"]
    partial = ModalResult(((0, Tag.MAX),), (("DivByZero", Tag.MIN),), "interval")
    assert render_result(INTV, partial) == ["0 @ MAX", "error:DivByZero @ MIN"]


def test_render_bools_and_errors():
    result = ModalResult(merge_value_pairs(FEAT, ((True, FA), (False, NOT(FA)))), (), "feature")
    assert render_result(FEAT, result) == ["false @ !FA", "true @ FA"]
