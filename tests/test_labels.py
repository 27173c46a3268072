import functools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from multiworld.errors import (
    IntervalJoinMismatch,
    ProbabilityOverflow,
    TooManyFeatures,
    UndeclaredFeature,
)
from multiworld.cli import display_label
from multiworld.labels import (
    FALSE,
    TRUE,
    FAnd,
    FNot,
    FOr,
    FVar,
    FeatureAlgebra,
    IntervalAlgebra,
    ProbabilityAlgebra,
    Tag,
    and_all,
    feature_text,
    or_all,
)
from reference import build, satisfies, world_set

NAMES = ("FA", "FB", "FC", "FD", "FE", "FF")


def fresh_alg():
    return FeatureAlgebra(NAMES)


def brute_sat(alg, expr):
    return any(satisfies(expr, cfg) for cfg in alg.iter_configs())


def formulas(names=NAMES):
    leaves = st.sampled_from([TRUE, FALSE]) | st.builds(FVar, st.sampled_from(names))
    return st.recursive(
        leaves,
        lambda sub: st.builds(FNot, sub)
        | st.builds(FAnd, sub, sub)
        | st.builds(FOr, sub, sub),
        max_leaves=20,
    )


# --- feature algebra --------------------------------------------------------

def test_meet_is_conjunction():
    alg = fresh_alg()
    fa, fb = alg.var("FA"), alg.var("FB")
    met = alg.meet(fa, fb)
    assert alg.canonical_text(met) == "(FA & FB)"
    for cfg in alg.iter_configs():
        assert alg.holds(met, cfg) == (cfg["FA"] and cfg["FB"])


def test_meet_with_top_is_identity():
    alg = fresh_alg()
    label = alg.join(alg.var("FA"), alg.complement(alg.var("FB")))
    assert alg.meet(label, alg.top) == label


def test_join_is_disjunction_denotationally():
    alg = fresh_alg()
    fa, fb = alg.var("FA"), alg.var("FB")
    joined = alg.join(alg.meet(fa, alg.complement(fb)),
                      alg.meet(alg.complement(fa), alg.complement(fb)))
    # truth table over {FA, FB}: equivalent to !FB
    for cfg in alg.iter_configs():
        assert alg.holds(joined, cfg) == (not cfg["FB"])
    assert joined == alg.complement(fb)


def test_is_empty_contradiction():
    alg = fresh_alg()
    fa = alg.var("FA")
    assert alg.is_empty(alg.meet(fa, alg.complement(fa)))
    assert not alg.is_empty(alg.top)


def test_sat_examples():
    alg = fresh_alg()
    fa, fb = FVar("FA"), FVar("FB")
    assert not alg.is_empty(build(alg, FAnd(fa, fb)))
    assert alg.is_empty(build(alg, FAnd(fa, FNot(fa))))
    # 4-row truth table over {FA, FB} says this is unsatisfiable
    expr = FAnd(FAnd(FOr(fa, fb), FNot(fa)), FNot(fb))
    assert not any(
        satisfies(expr, {"FA": a, "FB": b, "FC": False, "FD": False, "FE": False, "FF": False})
        for a in (False, True)
        for b in (False, True)
    )
    assert alg.is_empty(build(alg, expr))


def test_undeclared_feature_rejected():
    alg = FeatureAlgebra(("FA",))
    with pytest.raises(UndeclaredFeature):
        alg.var("NOPE")


def test_feature_limit():
    with pytest.raises(TooManyFeatures):
        FeatureAlgebra([f"F{i}" for i in range(25)])
    with pytest.raises(TooManyFeatures):
        FeatureAlgebra(("FA", "FB"), feature_limit=1)
    # a raised limit does not lift the cap on the size of a label
    assert len(FeatureAlgebra([f"F{i}" for i in range(25)], feature_limit=25).features) == 25
    with pytest.raises(TooManyFeatures):
        FeatureAlgebra([f"F{i}" for i in range(26)], feature_limit=40)


def test_check_disjoint_minterms():
    alg = FeatureAlgebra(("FA", "FB"))
    minterms = [alg.minterm(cfg) for cfg in alg.iter_configs()]
    assert alg.check_disjoint(minterms)
    assert alg.check_total(minterms)


def test_check_total_examples():
    alg = fresh_alg()
    fa, fb = alg.var("FA"), alg.var("FB")
    assert alg.check_total([fa, alg.complement(fa)])
    # configuration {FA=1, FB=0} is uncovered
    assert not alg.check_total([alg.meet(fa, fb), alg.complement(fa)])


@settings(max_examples=1000)
@given(formulas())
def test_sat_matches_truth_table(expr):
    alg = fresh_alg()
    label = build(alg, expr)
    assert label == world_set(alg, expr)
    assert alg.is_empty(label) == (not brute_sat(alg, expr))


@given(formulas(), formulas())
def test_meet_join_homomorphism(a, b):
    alg = fresh_alg()
    la, lb = build(alg, a), build(alg, b)
    met, joined = alg.meet(la, lb), alg.join(la, lb)
    for cfg in alg.iter_configs():
        assert alg.holds(met, cfg) == (satisfies(a, cfg) and satisfies(b, cfg))
        assert alg.holds(joined, cfg) == (satisfies(a, cfg) or satisfies(b, cfg))


@given(formulas(), formulas())
def test_meet_join_commute_denotationally(a, b):
    alg = fresh_alg()
    la, lb = build(alg, a), build(alg, b)
    assert alg.meet(la, lb) == alg.meet(lb, la)
    assert alg.join(la, lb) == alg.join(lb, la)


@given(formulas())
def test_complement_meet_is_empty(expr):
    alg = fresh_alg()
    label = build(alg, expr)
    assert alg.is_empty(alg.meet(label, alg.complement(label)))


@given(formulas())
def test_meet_with_top_preserves_emptiness(expr):
    alg = fresh_alg()
    label = build(alg, expr)
    assert alg.is_empty(alg.meet(label, alg.top)) == alg.is_empty(label)


@given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_partition_covers_each_config_once(groups):
    # labels built by grouping the minterms of {FA, FB} are disjoint and
    # total, and every configuration lies in exactly one of them
    alg = FeatureAlgebra(("FA", "FB"))
    configs = list(alg.iter_configs())
    by_group = {}
    for cfg, g in zip(configs, groups):
        by_group.setdefault(g, []).append(alg.minterm(cfg))
    labels = [functools.reduce(alg.join, ms) for ms in by_group.values()]
    assert alg.check_disjoint(labels)
    assert alg.check_total(labels)
    for cfg in configs:
        assert sum(alg.holds(l, cfg) for l in labels) == 1


def test_canonical_text_shapes():
    fa, fb = FVar("FA"), FVar("FB")
    assert feature_text(FNot(fb)) == "!FB"
    assert feature_text(FNot(FAnd(fa, fb))) == "!(FA & FB)"
    assert feature_text(FOr(fa, FNot(fb))) == "(FA | !FB)"
    assert feature_text(and_all([])) == "true"
    assert feature_text(or_all([])) == "false"


@given(formulas(), formulas())
def test_meet_commutes_and_complement_covers(a, b):
    alg = fresh_alg()
    la, lb = build(alg, a), build(alg, b)
    assert alg.meet(la, lb) == alg.meet(lb, la)
    assert alg.join(la, alg.complement(la)) == alg.top


def test_no_per_label_state():
    alg = fresh_alg()
    lits = [alg.var(n) for n in NAMES]
    config = dict.fromkeys(NAMES, True)

    def sizes():
        return {k: len(v) for k, v in vars(alg).items() if hasattr(v, "__len__")}

    before = sizes()
    for i in range(10_000):
        label = alg.join(alg.meet(lits[i % 6], lits[i * 5 % 6]), lits[i * 7 % 6])
        alg.is_empty(label)
        alg.holds(label, config)
    assert sizes() == before


def test_display_of_512_minterm_label_is_fast():
    alg = FeatureAlgebra([f"F{i}" for i in range(10)])
    start = time.perf_counter()
    text = display_label(alg)(alg.var("F0"))
    assert time.perf_counter() - start < 0.25
    assert text == "F0"


def test_wide_labels_print_as_shannon_cubes():
    alg = FeatureAlgebra([f"G{i}" for i in range(16)])
    g = {name: alg.var(name) for name in alg.features}
    one = alg.join(alg.meet(g["G0"], alg.complement(g["G3"])), alg.meet(g["G5"], g["G15"]))
    other = alg.complement(alg.meet(
        alg.join(alg.complement(g["G15"]), alg.complement(g["G5"])),
        alg.join(alg.complement(g["G0"]), g["G3"]),
    ))
    assert one == other
    want = "((((!G0 & G5) & G15) | (G0 & !G3)) | (((G0 & G3) & G5) & G15))"
    assert alg.canonical_text(one) == alg.canonical_text(other) == want
    assert alg.canonical_text(alg.complement(g["G7"])) == "!G7"
    assert alg.canonical_text(alg.top) == "true"
    assert alg.canonical_text(alg.complement(alg.top)) == "false"


def test_wide_label_display_is_fast_and_exact():
    alg = FeatureAlgebra([f"F{i:02d}" for i in range(20)])
    rng = random.Random(3)
    label = functools.reduce(alg.join, (1 << rng.randrange(1 << 20) for _ in range(300)))
    start = time.perf_counter()
    text = alg.canonical_text(label)
    # 1.1-1.5 s when every split step masked the whole 2^20-bit table
    assert time.perf_counter() - start < 0.25
    decoded = 0
    for cube_text in text.split(" | "):
        cube = alg.top
        for lit in cube_text.replace("(", "").replace(")", "").split(" & "):
            var = alg.var(lit.lstrip("!"))
            cube = alg.meet(cube, alg.complement(var) if lit.startswith("!") else var)
        assert alg.is_empty(alg.meet(decoded, cube))  # the cubes are disjoint
        decoded = alg.join(decoded, cube)
    assert decoded == label


# --- probability algebra ----------------------------------------------------

def test_probability_meet_matches_joint_enumeration():
    alg = ProbabilityAlgebra()
    # two independent two-point distributions; P(pick a AND pick c) from the
    # exhaustive joint table must equal meet of the marginals
    xs = [("a", 0.2), ("b", 0.8)]
    ys = [("c", 0.5), ("d", 0.5)]
    joint = {(x, y): wx * wy for x, wx in xs for y, wy in ys}
    assert alg.meet(0.2, 0.5) == pytest.approx(joint[("a", "c")], abs=1e-15)
    assert alg.meet(0.2, 0.5) == pytest.approx(0.1, abs=1e-12)


def test_probability_join_and_overflow():
    alg = ProbabilityAlgebra()
    assert alg.join(0.1, 0.4) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ProbabilityOverflow):
        alg.join(0.7, 0.7)
    # tiny float drift above 1.0 clamps instead of failing
    assert alg.join(0.5, 0.5 + 1e-12) == 1.0


def test_probability_empty_disjoint_total():
    alg = ProbabilityAlgebra()
    assert alg.is_empty(0.0)
    assert not alg.is_empty(0.2)
    assert not alg.check_disjoint([0.6, 0.6])
    assert alg.check_disjoint([0.6, 0.4])
    assert alg.check_total([0.2, 0.8])
    assert not alg.check_total([0.2, 0.7])
    assert alg.canonical_text(0.2) == "0.200000000"


@given(st.floats(0, 1), st.floats(0, 1))
def test_probability_meet_is_product(a, b):
    alg = ProbabilityAlgebra()
    assert alg.meet(a, b) == pytest.approx(a * b, rel=1e-12, abs=1e-300)


@given(st.floats(0, 0.5), st.floats(0, 0.5))
def test_probability_join_is_sum(a, b):
    alg = ProbabilityAlgebra()
    assert alg.join(a, b) == pytest.approx(a + b, rel=1e-12, abs=1e-300)


# --- interval algebra -------------------------------------------------------

def test_interval_meet_table():
    alg = IntervalAlgebra()
    assert alg.meet(Tag.MIN, Tag.MIN) is Tag.MIN
    assert alg.meet(Tag.MAX, Tag.MAX) is Tag.MAX
    assert alg.meet(Tag.MIN, Tag.MAX) is Tag.EMPTY
    assert alg.meet(Tag.EMPTY, Tag.MIN) is Tag.EMPTY


def test_interval_join_table():
    alg = IntervalAlgebra()
    assert alg.join(Tag.MIN, Tag.MIN) is Tag.MIN
    assert alg.join(Tag.EMPTY, Tag.MAX) is Tag.MAX
    with pytest.raises(IntervalJoinMismatch):
        alg.join(Tag.MIN, Tag.MAX)


def test_interval_empty_disjoint_total():
    alg = IntervalAlgebra()
    assert alg.is_empty(Tag.EMPTY)
    assert not alg.is_empty(Tag.MIN)
    assert alg.check_disjoint([Tag.MIN, Tag.MAX])
    assert alg.check_total([Tag.MAX, Tag.MIN])
    assert not alg.check_disjoint([Tag.MIN, Tag.MIN])
    assert not alg.check_total([Tag.MIN])
    assert alg.canonical_text(Tag.MIN) == "MIN"
    assert alg.top_labels() == (Tag.MIN, Tag.MAX)


def test_sat_calls_count_emptiness_checks():
    alg = FeatureAlgebra(("FA",))
    label = alg.meet(alg.var("FA"), alg.complement(alg.var("FA")))
    before = alg.sat_calls
    alg.is_empty(label)
    alg.is_empty(label)
    assert alg.sat_calls == before + 2  # every emptiness check counts
