import random

import pytest
from hypothesis import given, settings, strategies as st

from multiworld import lifting
from multiworld.errors import ArityMismatch, EvalError, ModalityMismatch
from multiworld.labels import (
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
)
from multiworld.lang import PRIMITIVES
from multiworld.lifting import LiftStats, PrimitiveFn, apply_pairs, restrict, shallow_apply
from multiworld.modal import (
    ModalResult,
    ModalValue,
    collect_outcomes,
    make_const,
    merge_value_pairs,
    project,
    validate,
)
from multiworld.oracle import assert_equiv, outcome_at

FEAT = FeatureAlgebra(("FA", "FB"))
PROB = ProbabilityAlgebra()
INTV = IntervalAlgebra()
FA, FB = FEAT.var("FA"), FEAT.var("FB")
AND, NOT, TOP = FEAT.meet, FEAT.complement, FEAT.top

ADD, DIV = PRIMITIVES["+"], PRIMITIVES["/"]


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
    assert stats.applied == 1  # lifted, a constant holds both endpoints in one pair


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
        prim = PRIMITIVES[op]
        result = shallow_apply(FEAT, prim, xs)
        for cfg in FEAT.iter_configs():
            args = [project(FEAT, mv, cfg) for mv in xs]
            try:
                expected = ("value", prim.fn(*args))
            except EvalError as ex:
                expected = ("error", ex.kind)
            assert outcome_at(FEAT, result, cfg) == expected
        assert validate(FEAT, result).ok


# --- lifting only where values vary ----------------------------------------------

PRIMS = list(PRIMITIVES.values())  # what every evaluator applies
# the four joint draws of two independent inputs, as a lifted run labels them
DRAWS, DRAWN = PROB.lift({
    "x": ModalValue(((0, 0.5), (1, 0.5)), "probability"),
    "y": ModalValue(((0, 0.75), (1, 0.25)), "probability"),
})
LIFTED = [FEAT, INTV, DRAWS]  # a world-set algebra of each modality


def crossed(alg, f, pair_lists, stats, ctx=None):
    """The cross product through ``collect_outcomes``, whatever the context."""
    return collect_outcomes(alg, lifting._runs(alg, f, pair_lists, stats))


def outcome(run, alg, prim, pair_lists, ctx):
    """The pairs, every counter and the emptiness checks of one application."""
    counter = PROB if alg is DRAWS else alg  # draws count their checks in PROB
    stats, before = LiftStats(), counter.sat_calls
    pairs = run(alg, prim, pair_lists, stats, ctx)
    # a dict, since a Counter compares a zero count equal to a missing one
    counters = (stats.tuples, stats.pruned, stats.applied, dict(stats.applications))
    return pairs, counters, counter.sat_calls - before


@st.composite
def inside(draw, alg, ctx):
    """Pairs whose labels partition a non-empty part of ``ctx``: an
    operand evaluated under ``ctx``, its other worlds errors."""
    part = draw(st.integers(1, alg.top)) & ctx or ctx
    groups: dict = {}
    for world in range(part.bit_length()):
        if part >> world & 1:
            groups.setdefault(draw(st.integers(0, 2)), []).append(world)
    values = draw(st.lists(st.integers(-3, 3) | st.booleans(), min_size=3, max_size=3))
    return tuple((values[g], sum(1 << w for w in worlds)) for g, worlds in groups.items())


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alg=st.sampled_from(LIFTED), prim=st.sampled_from(PRIMS))
def test_operands_at_the_context_add_no_dimension(data, alg, prim):
    # an operand holding one pair at ctx, on either side, changes no pair
    # and no counter of the cross product, and saves its emptiness checks
    ctx = data.draw(st.integers(1, alg.top))
    value = st.integers(-3, 3) | st.booleans()
    at_ctx = st.builds(lambda v: ((v, ctx),), value)
    pair_lists = [data.draw(at_ctx | inside(alg, ctx)) for _ in range(prim.arity)]
    pairs, counters, checks = outcome(apply_pairs, alg, prim, pair_lists, ctx)
    want_pairs, want_counters, want_checks = outcome(crossed, alg, prim, pair_lists, ctx)
    assert (pairs, counters) == (want_pairs, want_counters)
    assert checks <= want_checks
    if sum(operand != ((operand[0][0], ctx),) for operand in pair_lists) <= 1:
        assert checks == 0  # at most one operand varies: nothing is crossed


@pytest.mark.parametrize("alg, left, right", [
    (FEAT, FA, NOT(FA)),
    (INTV, Tag.MIN, Tag.MAX),
    (DRAWS, *(label for _, label in DRAWN["x"])),
])
def test_single_pairs_off_the_context_cross_prune_and_fail(alg, left, right):
    # one pair each, neither at the context: 9 / 0 in no world, 9 / 0 in
    # some, 9 / 3 in some
    cases = [[((9, left),), ((d, label),)] for d, label in ((0, right), (0, left), (3, left))]
    got = [outcome(apply_pairs, alg, DIV, pair_lists, alg.top) for pair_lists in cases]
    assert got == [outcome(crossed, alg, DIV, pair_lists, alg.top) for pair_lists in cases]
    (pruned, pruned_counters, _), (failed, _, _), (applied, _, checks) = got
    assert pruned == ((), ()) and pruned_counters[:3] == (1, 1, 0)
    assert failed[0] == () and failed[1][0][0] == "DivByZero"
    assert applied[0][0][0] == 3 and applied[1] == () and checks == 1


# --- restrict -----------------------------------------------------------------

def test_restrict_feature():
    out = restrict(FEAT, ((-7, FA), (3, NOT(FA))), FB)
    assert out == ((-7, AND(FA, FB)), (3, AND(NOT(FA), FB)))


def test_restrict_by_top_is_identity():
    pairs = ((-7, FA), (3, NOT(FA)))
    assert restrict(FEAT, pairs, TOP) is pairs


def test_restrict_can_empty_out():
    assert restrict(FEAT, ((1, FA),), NOT(FA)) == ()


def test_restrict_keeps_pair_order():
    pairs = ((-7, FA), (1, AND(NOT(FA), FB)), (3, AND(NOT(FA), NOT(FB))))
    assert restrict(FEAT, pairs, NOT(FA)) == pairs[1:]
    errors = (("DivByZero", FA), ("Overflow", NOT(FA)))
    assert restrict(FEAT, errors, FA) == errors[:1]


# --- union: results over disjoint worlds, concatenated and normalized -------------

def union(alg, a, b):
    def parts(obj):
        return (obj.values, obj.errors) if isinstance(obj, ModalResult) else (obj.pairs, ())

    (av, ae), (bv, be) = parts(a), parts(b)
    return ModalResult(
        merge_value_pairs(alg, av + bv), merge_value_pairs(alg, ae + be), alg.kind
    )


def test_split_then_union_is_identity():
    x = ModalValue(((-7, FA), (3, NOT(FA))), "feature")
    a, b = (ModalValue(restrict(FEAT, x.pairs, c), "feature") for c in (FB, NOT(FB)))
    rejoined = union(FEAT, a, b)
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
