import functools
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from multiworld.errors import ProbabilityOverflow, TooManyFeatures, UndeclaredFeature
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
from multiworld.modal import ModalValue
from reference import (
    build,
    pairwise_problems,
    prime_and_greedy_text,
    prime_cubes,
    recursive_feature_text,
    satisfies,
    world_set,
)

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


def world_set_algebras():
    """Each algebra whose labels are world sets, with every label it has:
    the 16 sets of configurations of two features, and the 4 sets of the
    endpoints MIN and MAX."""
    for alg in (FeatureAlgebra(("FA", "FB")), IntervalAlgebra()):
        yield alg, range(alg.top + 1)


# --- feature algebra --------------------------------------------------------

def test_meet_is_conjunction():
    alg = fresh_alg()
    fa, fb = alg.var("FA"), alg.var("FB")
    met = alg.meet(fa, fb)
    assert alg.canonical_text(met) == "(FA & FB)"
    for cfg in alg.iter_configs():
        assert alg.covers(met, cfg) == (cfg["FA"] and cfg["FB"])


def test_meet_with_top_is_identity():
    for alg, labels in world_set_algebras():
        for label in labels:
            assert alg.meet(label, alg.top) == label


def test_join_is_disjunction_denotationally():
    # a meet (join) holds at a world where both (either) of its labels do
    for alg, labels in world_set_algebras():
        for a, b in itertools.product(labels, repeat=2):
            for world in alg.worlds():
                in_a, in_b = alg.covers(a, world), alg.covers(b, world)
                assert alg.covers(alg.join(a, b), world) == (in_a or in_b)
                assert alg.covers(alg.meet(a, b), world) == (in_a and in_b)


def test_is_empty_contradiction():
    for alg, labels in world_set_algebras():
        for label in labels:
            assert alg.is_empty(alg.meet(label, alg.complement(label)))
            assert alg.join(label, alg.complement(label)) == alg.top
            assert alg.is_empty(label) == (not any(alg.covers(label, w) for w in alg.worlds()))
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
    # the size of a label, 2^k bits, is the one limit on declared features
    assert len(FeatureAlgebra([f"F{i}" for i in range(24)]).features) == 24
    for k in (25, 40):
        message = f"{k} features declared, at most 24 fit in a label (a set of 2^k configurations)"
        with pytest.raises(TooManyFeatures, match=f"^{re.escape(message)}$"):
            FeatureAlgebra([f"F{i}" for i in range(k)])


def test_check_disjoint_minterms():
    # the minterms partition the worlds; repeating one overlaps, dropping
    # one leaves a gap
    expected = {
        "feature": (
            ["labels overlap: (!FA & !FB) and (!FA & !FB)"],
            ["configuration {FA=0, FB=0} is uncovered"],
        ),
        "interval": (
            ["labels overlap: MIN and MIN"],
            ["configuration MIN is uncovered"],
        ),
    }
    for alg, _ in world_set_algebras():
        minterms = [alg.minterm(world) for world in alg.worlds()]
        overlap, gap = expected[alg.kind]
        assert alg.problems(minterms) == []
        assert alg.problems(minterms + minterms[:1]) == overlap
        assert alg.problems(minterms[1:]) == gap


def test_check_total_examples():
    alg = fresh_alg()
    fa, fb = alg.var("FA"), alg.var("FB")
    assert alg.problems([fa, alg.complement(fa)]) == []
    assert alg.problems([alg.meet(fa, fb), alg.complement(fa)]) == [
        "configuration {FA=1, FB=0, FC=0, FD=0, FE=0, FF=0} is uncovered"
    ]


def test_feature_problems_within_a_context():
    alg = FeatureAlgebra(("FA", "FB"))
    fa, fb = alg.var("FA"), alg.var("FB")
    ctx = alg.complement(fa)
    # a partition of !FA: complete under that context, not under true
    parts = [alg.meet(ctx, fb), alg.meet(ctx, alg.complement(fb))]
    assert alg.problems(parts, within=ctx) == []
    assert alg.problems(parts) == ["configuration {FA=1, FB=0} is uncovered"]
    # a gap under the context names its first uncovered configuration
    assert alg.problems(parts[:1], within=ctx) == [
        "configuration {FA=0, FB=0} is uncovered"
    ]
    # an overlap is reported once, before any gap; a label reaching outside
    # the context is reported last
    assert alg.problems([ctx, fb], within=ctx) == [
        "labels overlap: !FA and FB",
        "configuration {FA=1, FB=1} is outside the context",
    ]
    assert alg.problems([alg.meet(ctx, fb), fb], within=ctx) == [
        "labels overlap: (!FA & FB) and FB",
        "configuration {FA=0, FB=0} is uncovered",
        "configuration {FA=1, FB=1} is outside the context",
    ]
    # every world in the labels, a context of one feature
    assert alg.problems([alg.top], within=fa) == ["configuration {FA=0, FB=0} is outside the context"]


def test_problems_makes_no_emptiness_check():
    # the partition test is on bits: a passing check, and a failing one,
    # adds nothing to the sat_calls that --stats reports
    alg = FeatureAlgebra(("FA", "FB"))
    minterms = [alg.minterm(cfg) for cfg in alg.iter_configs()]
    before = alg.sat_calls
    assert alg.problems(minterms) == []
    assert alg.sat_calls == before
    assert alg.problems(minterms[1:] + minterms[-1:]) != []
    assert alg.sat_calls == before


def _partition_algebras() -> list:
    """World-set algebras of every shape: features (1-4), the endpoints,
    and the joint draws of two probability inputs."""
    draws, _ = ProbabilityAlgebra().lift({
        "x": ModalValue(((1, 0.25), (2, 0.75)), "probability"),
        "y": ModalValue(((0, 0.5), (1, 0.25), (2, 0.25)), "probability"),
    })
    features = [FeatureAlgebra(NAMES[:k]) for k in range(1, 5)]
    return [*features, IntervalAlgebra(), draws]


PARTITION_ALGEBRAS = _partition_algebras()


@st.composite
def partition_cases(draw):
    """An algebra, labels and a context (``None``: every world): a
    partition of the context into one to five labels, some possibly
    empty, then with worlds added to or removed from some of them, which
    makes overlaps, gaps and worlds outside the context."""
    alg = draw(st.sampled_from(PARTITION_ALGEBRAS))
    worlds = st.integers(0, alg.top)
    within = draw(st.one_of(st.none(), worlds))
    labels = [0] * draw(st.integers(1, 5))
    for p in range(alg.top.bit_length()):
        if (alg.top if within is None else within) >> p & 1:
            labels[draw(st.integers(0, len(labels) - 1))] |= 1 << p
    edits = st.tuples(st.integers(0, len(labels) - 1), worlds, st.booleans())
    for i, bits, add in draw(st.lists(edits, max_size=3)):
        labels[i] = labels[i] | bits if add else labels[i] & ~bits
    return alg, labels, within


@settings(max_examples=500)
@given(partition_cases())
def test_problems_match_the_pairwise_reference(case):
    # the same texts in the same order as testing every pair of labels
    alg, labels, within = case
    assert alg.problems(labels, within) == pairwise_problems(alg, labels, within)
    assert alg.problems([], within) == pairwise_problems(alg, [], within)


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
        assert alg.covers(met, cfg) == (satisfies(a, cfg) and satisfies(b, cfg))
        assert alg.covers(joined, cfg) == (satisfies(a, cfg) or satisfies(b, cfg))


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
    assert alg.problems(labels) == []
    for cfg in configs:
        assert sum(alg.covers(l, cfg) for l in labels) == 1


def test_canonical_text_shapes():
    fa, fb = FVar("FA"), FVar("FB")
    assert feature_text(FNot(fb)) == "!FB"
    assert feature_text(FNot(FAnd(fa, fb))) == "!(FA & FB)"
    assert feature_text(FOr(fa, FNot(fb))) == "(FA | !FB)"
    assert feature_text(and_all([])) == "true"
    assert feature_text(or_all([])) == "false"


def _random_formula(rng, size):
    """A formula of about ``size`` nodes, every shape ``feature_text`` prints."""
    if size <= 1:
        return rng.choice([TRUE, FALSE, *map(FVar, NAMES)])
    shape = rng.choice([FNot, FAnd, FOr])
    if shape is FNot:
        return FNot(_random_formula(rng, size - 1))
    left = rng.randrange(1, size)
    return shape(_random_formula(rng, left), _random_formula(rng, size - left))


@pytest.mark.parametrize("seed", range(20))
def test_feature_text_prints_as_the_recursive_printer(seed):
    rng = random.Random(seed)
    for _ in range(50):
        expr = _random_formula(rng, rng.randrange(1, 60))
        assert feature_text(expr) == recursive_feature_text(expr)


def test_feature_text_prints_at_any_depth():
    # 3000 levels, three times the default recursion limit
    assert feature_text(functools.reduce(lambda e, _: FNot(e), range(3000), FVar("FA"))) == (
        "!" * 3000 + "FA"
    )
    assert feature_text(and_all([FVar("FA")] * 3000)) == "(" * 2999 + "FA" + " & FA)" * 2999
    right = functools.reduce(lambda e, _: FOr(FVar("FB"), e), range(2999), FVar("FA"))
    assert feature_text(right) == "(FB | " * 2999 + "FA" + ")" * 2999
    with pytest.raises(TypeError, match="not a feature expression: 'FA'"):
        feature_text(FNot(FAnd(FVar("FB"), "FA")))


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
        alg.covers(label, config)
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


def decode_cubes(alg, text) -> list:
    """The world set of each product of a displayed sum of products."""
    cubes = []
    for cube_text in text.split(" | "):
        cube = alg.top
        for lit in cube_text.replace("(", "").replace(")", "").split(" & "):
            var = alg.var(lit.lstrip("!"))
            cube = alg.meet(cube, alg.complement(var) if lit.startswith("!") else var)
        cubes.append(cube)
    return cubes


def test_wide_label_display_is_fast_and_exact():
    alg = FeatureAlgebra([f"F{i:02d}" for i in range(20)])
    rng = random.Random(3)
    label = functools.reduce(alg.join, (1 << rng.randrange(1 << 20) for _ in range(300)))
    start = time.perf_counter()
    text = alg.canonical_text(label)
    # 1.1-1.5 s when every split step masked the whole 2^20-bit table
    assert time.perf_counter() - start < 0.25
    decoded = 0
    for cube in decode_cubes(alg, text):
        assert alg.is_empty(alg.meet(decoded, cube))  # the cubes are disjoint
        decoded = alg.join(decoded, cube)
    assert decoded == label


def test_prime_cubes_match_their_definition():
    rng = random.Random(8)
    for _ in range(60):
        k = rng.randint(1, 7)
        alg = FeatureAlgebra([f"F{i}" for i in range(k)])
        density = rng.choice((0.1, 0.5, 0.9, rng.random()))
        label = sum(1 << p for p in range(1 << k) if rng.random() < density)
        assert alg._prime_cubes(label) == prime_cubes(label, k), (k, hex(label))


@st.composite
def display_cases(draw):
    """A feature algebra of 1-10 features and a label of one of the shapes
    display treats apart: one configuration, one cube, a union of 2-4
    cubes or its complement, or a uniform random table."""
    k = draw(st.integers(1, 10))
    alg = FeatureAlgebra([f"F{i}" for i in range(k)])

    def cube():
        label = alg.top
        for i, lit in enumerate(draw(st.lists(st.sampled_from("01-"), min_size=k, max_size=k))):
            if lit != "-":
                label &= alg.var(f"F{i}") if lit == "1" else alg.complement(alg.var(f"F{i}"))
        return label

    shape = draw(st.sampled_from(("config", "cube", "union", "complement", "table")))
    if shape == "config":
        return alg, 1 << draw(st.integers(0, (1 << k) - 1))
    if shape == "cube":
        return alg, cube()
    if shape == "table":
        return alg, draw(st.integers(0, alg.top))
    union = functools.reduce(alg.join, [cube() for _ in range(draw(st.integers(2, 4)))])
    return alg, alg.complement(union) if shape == "complement" else union


@settings(max_examples=300, deadline=None)
@given(display_cases())
def test_display_matches_the_prime_and_greedy_printer(case):
    alg, label = case
    assert alg.canonical_text(label) == prime_and_greedy_text(alg, label)


def test_half_dense_minimal_dnf_display_is_fast_and_exact():
    alg = FeatureAlgebra([f"F{i:02d}" for i in range(12)])
    rng = random.Random(1)
    label = sum(1 << p for p in range(1 << 12) if rng.random() < 0.5)
    start = time.perf_counter()
    text = alg.canonical_text(label)
    # 0.8-2.9 s when the primes came from all 2^k truth-table entries and
    # each greedy pick rescanned every prime
    assert time.perf_counter() - start < 1.0
    assert functools.reduce(alg.join, decode_cubes(alg, text)) == label


# --- probability algebra ----------------------------------------------------

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
    # mass above 1 is both an overlap and a gap; below 1, only a gap
    assert alg.problems([0.6, 0.6]) == ["weights sum to 1.2 > 1", "totality gap -0.2"]
    assert alg.problems([0.6, 0.4]) == []
    assert alg.problems([0.25, 0.75 + 1e-12]) == []  # within tolerance
    assert alg.problems([0.2, 0.7]) == ["totality gap +0.1"]
    assert alg.canonical_text(0.2) == "0.200000000"


@given(st.floats(0, 0.5), st.floats(0, 0.5))
def test_probability_join_is_sum(a, b):
    alg = ProbabilityAlgebra()
    assert alg.join(a, b) == pytest.approx(a + b, rel=1e-12, abs=1e-300)


# --- interval algebra -------------------------------------------------------

def test_interval_empty_disjoint_total():
    alg = IntervalAlgebra()
    assert alg.is_empty(alg.meet(Tag.MIN, Tag.MAX))
    assert alg.problems([Tag.MIN, Tag.MAX]) == []
    assert alg.problems([Tag.MAX, Tag.MIN]) == []
    assert alg.problems([Tag.MIN, Tag.MIN]) == [
        "labels overlap: MIN and MIN", "configuration MAX is uncovered"
    ]
    assert alg.problems([Tag.MIN]) == ["configuration MAX is uncovered"]
    # inside a run one label may hold both endpoints
    assert alg.problems([alg.top]) == []
    assert [alg.canonical_text(label) for label in range(4)] == ["none", "MIN", "MAX", "MIN|MAX"]
    assert alg.top == Tag.MIN | Tag.MAX


def test_interval_problems_within_a_tag():
    alg = IntervalAlgebra()
    assert alg.problems([Tag.MAX], within=Tag.MAX) == []
    assert alg.problems([Tag.MAX, Tag.MIN], within=alg.top) == []
    assert alg.problems([Tag.MIN], within=alg.top) == ["configuration MAX is uncovered"]
    # the context's tag missing, doubled, or joined by the other tag
    assert alg.problems([], within=Tag.MAX) == ["configuration MAX is uncovered"]
    assert alg.problems([Tag.MIN, Tag.MIN], within=Tag.MIN) == ["labels overlap: MIN and MIN"]
    assert alg.problems([Tag.MAX, Tag.MIN], within=Tag.MIN) == [
        "configuration MAX is outside the context"
    ]
    assert alg.problems([alg.top, Tag.MIN], within=Tag.MIN) == [
        "labels overlap: MIN|MAX and MIN", "configuration MAX is outside the context"
    ]


def test_minus_removes_worlds_from_a_context():
    # narrow: the worlds of the context that no error label holds, the
    # empty label when none is left; no error keeps the context, and
    # narrowing makes no emptiness check
    for alg, labels in world_set_algebras():
        before = alg.sat_calls
        for ctx in (alg.top, *labels):
            assert alg.narrow(ctx, ()) == ctx
            for a, b in itertools.product(labels, repeat=2):
                left = alg.narrow(ctx, [("DivByZero", a), ("Overflow", b)])
                kept = [world for world in alg.worlds()
                        if alg.covers(ctx, world)
                        and not (alg.covers(a, world) or alg.covers(b, world))]
                assert [world for world in alg.worlds() if alg.covers(left, world)] == kept
                assert (left == 0) == (not kept)
        assert alg.sat_calls == before


def test_enumerated_configurations_know_their_position():
    alg = FeatureAlgebra(("FA", "FB", "FC"))
    rng = random.Random(3)
    labels = [rng.getrandbits(8) for _ in range(20)]
    for cfg in alg.iter_configs():
        plain = dict(cfg)
        assert alg.minterm(cfg) == alg.minterm(plain)
        for label in labels:
            assert alg.covers(label, cfg) == alg.covers(label, plain)
    with pytest.raises(ValueError):
        alg.covers(1, {"FA": True})


def test_sat_calls_count_emptiness_checks():
    # every emptiness check counts, in every modality
    for alg, label in ((FeatureAlgebra(("FA",)), 0), (IntervalAlgebra(), Tag.MIN),
                       (ProbabilityAlgebra(), 0.0)):
        before = alg.sat_calls
        alg.is_empty(label)
        alg.is_empty(label)
        assert alg.sat_calls == before + 2


def test_lifted_draws_report_the_checks_of_the_run():
    # the joint draws count their emptiness checks in the weight algebra,
    # and read them back from it
    alg = ProbabilityAlgebra()
    draws, scope = alg.lift({"x": ModalValue(((1, 0.5), (2, 0.5)), "probability")})
    (_, low), (_, high) = scope["x"]
    draws.is_empty(low & high)
    draws.is_empty(low)
    assert (draws.sat_calls, alg.sat_calls) == (2, 2)
