"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run tiny versions of every workload in-process: a handful of ops,
one pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from multiworld import bindings, lang, lifting, modal, modal_eval  # noqa: E402
from multiworld.labels import Tag  # noqa: E402
from multiworld.modal import ModalResult  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


def tiny_ops(workload, seed, every_group):
    if workload in gen.SHARED_ALGEBRA:
        # a k = 10 display costs up to 2 s, and 4x that under tracemalloc
        groups = run.Run.groups(gen.WORKLOADS[workload](seed))
        return groups[0][:2] + (groups[1][:1] if every_group else [])
    return gen.WORKLOADS[workload](seed, count=8)


def tiny_run(workload, seed, trace=False, cli=False):
    r = run.Run(workload, seed, 0, trace, tiny_ops(workload, seed, every_group=cli),
                probes=2)
    r.setup()
    r.measure()
    if cli:
        r.cli_check()
    return r


# -- inputs ------------------------------------------------------------------

def texts(ops):
    return [(op.program_text, op.bindings_text) for op in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    build = gen.WORKLOADS[workload]
    assert texts(build(3)) == texts(build(3))
    assert texts(build(3)) != texts(build(4))
    assert gen.inputs_digest(build(3)) == gen.inputs_digest(build(3))
    assert gen.inputs_digest(build(3)) != gen.inputs_digest(build(4))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_texts_round_trip(workload):
    for op in gen.WORKLOADS[workload](5)[:120]:
        assert lang.parse(lang.render_program(op.program)) == op.program
        assert lang.parse(op.program_text) == op.program
        alg, binds = bindings.parse_bindings(op.bindings_text)
        assert list(binds) == list(op.expected)
        for name, want in op.expected.items():
            mv = binds[name]
            if op.modality == "feature":
                assert alg.features == op.features
                for bits, value in want.items():
                    got = modal.project(alg, mv, dict(zip(op.features, bits)))
                    assert (type(got), got) == (type(value), value)
            elif op.modality == "probability":
                assert sorted(mv.pairs) == sorted(want)
                assert math.isclose(sum(w for _, w in mv.pairs), 1.0, abs_tol=1e-9)
            else:
                assert {tag: v for v, tag in mv.pairs} == {Tag.MIN: want[0], Tag.MAX: want[1]}


# -- runs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_and_matches_the_cli(workload):
    r = tiny_run(workload, 1, cli=True)
    result = r.result()
    assert r.failures == []
    assert result["correct"] and result["failed"] == 0
    assert len(r.cli_ops) == run.CLI_CHECKS
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


COUNTERS = ("lifting.applications.deep", "lifting.applications.blackbox",
            "lifting.tuples", "lifting.pruned", "labels.sat_calls",
            "labels.is_empty.calls", "labels.is_empty.distinct", "oracle.worlds")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counters(workload):
    first = tiny_run(workload, 2, trace=True).per_layer()
    second = tiny_run(workload, 2, trace=True).per_layer()
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert first["lifting.applications.deep"] > 0
    # the traced pass put every original function back
    assert modal_eval.shallow_apply is lifting.shallow_apply
    assert not hasattr(modal_eval.eval_modal, "__wrapped__")


def self_times_from_spans(tracer, kinds):
    """Self time of every span under ``kinds``, recomputed from the raw spans."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = list(dur)
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            own[parent] -= dur[i]
    return sum(t for t, k in zip(own, tracer.kind_id) if tracer.names[k] in kinds)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_op_wall_within_coverage(workload):
    r = tiny_run(workload, 3, trace=True)
    layers = r.per_layer()
    op_wall = sum(ans.seconds for p in r.of_kind("traced") for ans in p.answers)
    self_total = self_times_from_spans(r.tracer, run.OP_KINDS)
    assert self_total / op_wall == pytest.approx(layers["trace.coverage"], rel=1e-6)
    assert 0.5 < layers["trace.coverage"] <= 1.0
    assert layers["trace.overhead"] > 0


def test_tracer_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    calls, total, own = tracer.total(("none",), "outer")
    children = tracer.total(("none",), "inner")
    assert (calls, children[0]) == (1, 2)
    assert own == pytest.approx(total - children[1], abs=1e-12)
    assert tracer.total(("none",))[2] == pytest.approx(total, abs=1e-12)


def test_wrong_answer_is_a_failed_op(monkeypatch):
    real = modal_eval.eval_modal

    def off_by_one(program, env, stats=None):
        r = real(program, env, stats)
        values = tuple((v + 1 if type(v) is int else v, label) for v, label in r.values)
        return ModalResult(values, r.errors, r.modality)

    monkeypatch.setattr(modal_eval, "eval_modal", off_by_one)
    r = tiny_run("feature-corpus", 1)
    result = r.result()
    runs = {m: sum(len(p.seconds[m]) for p in r.passes) for m in run.OP_KINDS}
    assert not result["correct"]
    assert 0 < result["failed"] <= runs["deep"] + runs["checked"]
    assert result["attempted"] == sum(runs.values())
    assert all(f.startswith(("deep", "checked")) for f in r.failures)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "feature-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
