#!/usr/bin/env python3
"""The multiworld benchmark: deep, black-box and checked runs of seeded
workloads, timed end to end and, in a traced run, per module.

    python3 perfbench/run.py --workload feature-corpus --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One process, one thread, one client in a closed loop: the next op starts
when the previous one returns.  A run repeats passes over the workload's
ops until ``--seconds`` have gone by, comparing every answer with the
brute-force oracle outside the timed region.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up is timed in this many fresh processes per untraced run: one before
# the first pass, the rest spread over the measured window, and ``setup_s``
# is their median.  One probe is a 0.1-0.4 s window, so on a shared machine
# probes made back to back all land in the same fast or slow spell
SETUP_PROBES = 15
# set-up as a fresh process sees it, up to the first timed op: import the
# package (every module ``modal run`` uses), generate the inputs and load
# any shared bindings; prints the three parts' seconds
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import multiworld.cli
imported = time.perf_counter()
import gen
ops = gen.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
generated = time.perf_counter()
gen.load_shared(sys.argv[3], ops)
print(imported - start, generated - imported, time.perf_counter() - generated)
"""
SETUP_PARTS = ("import_s", "generate_s", "load_s")
CLI_CHECKS = 2  # ops per workload (per sweep for nested-let) re-run through the CLI

END_TO_END = {
    "setup_s": "s",
    "deep_ops_per_s": "ops/s",
    "deep_ms_p50": "ms",
    "deep_ms_p90": "ms",
    "shallow_ops_per_s": "ops/s",
    "checked_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "labels.is_empty.calls": "count",
    "labels.is_empty.s": "s",
    "labels.is_empty.distinct": "count",
    "labels.sat_calls": "count",
    "labels.meet.calls": "count",
    "labels.meet.s": "s",
    "labels.join.calls": "count",
    "labels.join.s": "s",
    "labels.holds.calls": "count",
    "labels.holds.s": "s",
    "labels.result_label_nodes_max": "count",
    "cli.display.calls": "count",
    "cli.display.s": "s",
    "lifting.shallow_apply.calls": "count",
    "lifting.shallow_apply.self_s": "s",
    "lifting.tuples": "count",
    "lifting.pruned": "count",
    "lifting.prune_ratio": "ratio",
    "lifting.pairs_in_max": "count",
    "lifting.pairs_out_max": "count",
    "lifting.applications.deep": "count",
    "lifting.applications.blackbox": "count",
    "modal.merge.calls": "count",
    "modal.merge.self_s": "s",
    "modal.validate.calls": "count",
    "modal.validate.s": "s",
    "modal.render.self_s": "s",
    "modal_eval.deep.self_s": "s",
    "modal_eval.blackbox.self_s": "s",
    "modal_eval.check_overhead": "ratio",
    "lang.parse.calls": "count",
    "lang.parse.s": "s",
    "lang.parse.nodes_per_s": "1/s",
    "lang.eval_plain.calls": "count",
    "lang.eval_plain.s": "s",
    "bindings.parse.calls": "count",
    "bindings.parse.s": "s",
    "oracle.brute_force.s": "s",
    "oracle.worlds": "count",
    "oracle.assert_equiv.s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "mem.tracemalloc_peak_mb": "MB",
    "src.lines": "count",
}
# self times also reported per modality, for interval-prob-corpus
SPLIT = ("modal_eval.deep", "lifting.shallow_apply", "modal.merge")
SPLIT_MODALITIES = ("interval", "probability")
for _name in SPLIT:
    for _m in SPLIT_MODALITIES:
        PER_LAYER[f"{_name}.self_s.{_m}"] = "s"

OP_KINDS = ("deep", "shallow", "checked")
LAYER_KINDS = OP_KINDS + ("load",)  # load: a nested-let sweep's shared bindings


def src_files():
    return sorted((SRC / "multiworld").rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files())


def src_digest() -> str:
    h = hashlib.sha256()
    for p in src_files():
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass
class Pass:
    kind: str  # plain, traced, or memory (untraced, under tracemalloc)
    # mode -> latency of each op run in that mode, in workload order
    seconds: dict = field(default_factory=lambda: {m: array("d") for m in OP_KINDS})
    answers: list = field(default_factory=list)  # traced passes only


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, ops=None,
                 probes=SETUP_PROBES):
        from gen import SHARED_ALGEBRA

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.shared = workload in SHARED_ALGEBRA
        self.fixed_ops = ops
        self.passes: list = []
        self.attempted = 0
        self.failures: list = []
        self.cli_lines: dict = {}  # op index -> rendered deep lines
        self.tracer = None
        self.tracemalloc_peak = 0.0
        self.probes = 0 if trace else probes  # a traced run reports no setup_s
        self.setup_parts: list = []  # (import, generate, load) seconds per probe
        self.probe_s = 0.0  # wall time spent in probes during the window
        self.window_start = None

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        """Prepare the inputs here, and time the same set-up in a fresh
        process; an untraced run times it again during its window."""
        from gen import prepare

        self.ops = self.fixed_ops if self.fixed_ops is not None else prepare(
            self.workload, self.seed)
        # the first op of each of the first groups (of each nested-let sweep)
        self.cli_ops = [group[0].index for group in self.groups(self.ops)[:CLI_CHECKS]]
        if self.probes:
            self.probe_setup()

    def probe_setup(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
             self.workload, str(self.seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        self.setup_parts.append(tuple(float(x) for x in proc.stdout.split()[-3:]))
        self.probe_s += time.perf_counter() - start

    def elapsed(self) -> float:
        """Seconds of the measured window so far, probes excluded."""
        return time.perf_counter() - self.window_start - self.probe_s

    def maybe_probe(self):
        """Between ops: the next set-up probe, once its share of the window
        has gone by (probe k is due at k / probes of it)."""
        due = len(self.setup_parts)
        if due < self.probes and self.elapsed() >= self.seconds * due / self.probes:
            self.probe_setup()

    @property
    def setup_s(self) -> float:
        return statistics.median(sum(parts) for parts in self.setup_parts)

    @staticmethod
    def groups(ops):
        out: list = []
        for op in ops:
            if out and out[-1][0].group == op.group:
                out[-1].append(op)
            else:
                out.append([op])
        return out

    # -- passes ---------------------------------------------------------------

    def run_pass(self, kind, tracer=None, ops=None) -> Pass:
        """Every op of the workload in every mode, each answer checked.

        Each op runs its modes back to back, so every mode samples the
        machine's speed across the whole pass.  On a shared-algebra
        workload each mode keeps its own algebra for the group.
        """
        import ops as timed
        from multiworld import bindings

        result = Pass(kind)
        for group in self.groups(self.ops if ops is None else ops):
            shared = {}
            if self.shared:
                for mode in timed.MODES:
                    if mode != "checked" or any(op.checked for op in group):
                        if tracer:
                            tracer.kind, tracer.modality = "load", group[0].modality
                        shared[mode] = bindings.parse_bindings(group[0].bindings_text)
            answers = []
            for op in group:
                for mode in timed.MODES:
                    if mode == "checked" and not op.checked:
                        continue
                    if tracer:
                        tracer.op, tracer.kind, tracer.modality = op.index, mode, op.modality
                    ans = timed.run_op(mode, op, shared.get(mode))
                    if tracer:
                        tracer.kind = "none"
                        ans.distinct = tracer.take_empty_checked()
                    answers.append(ans)
                if kind == "plain":
                    self.maybe_probe()
            # checked after the group's timed ops: on a shared algebra the
            # reference would otherwise warm caches the next op uses
            for ans in answers:
                self.check(ans, tracer)
                result.seconds[ans.mode].append(ans.seconds)
                if ans.mode == "deep" and ans.op.index in self.cli_ops:
                    self.cli_lines[ans.op.index] = ans.lines
                if tracer:
                    if ans.mode == "deep" and ans.result is not None:
                        ans.label_nodes = label_nodes(ans.result)
                    ans.alg = ans.binds = ans.program = ans.result = ans.lines = None
                    result.answers.append(ans)
        return result

    def check(self, ans, tracer):
        import ops as timed

        self.attempted += 1
        if tracer:
            tracer.op, tracer.kind = ans.op.index, "reference"
        try:
            ok, why = timed.reference_check(ans, tracer, per_world=self.shared)
        except Exception as ex:  # noqa: BLE001 -- counted as a failed op
            ok, why = False, f"reference check raised {ex!r}"
        if tracer:
            tracer.kind = "none"
        if not ok:
            self.failures.append(f"{ans.mode} op {ans.op.index}: {why}")

    def measure(self):
        """Passes until ``seconds`` have gone by; a traced run alternates
        untraced and traced passes, in pairs, then adds a tracemalloc pass
        over half the ops."""
        import spans

        self.window_start = time.perf_counter()
        self.probe_s = 0.0
        while True:
            if self.trace and len(self.passes) % 2 == 1:
                self.tracer = self.tracer or spans.Tracer()
                self.tracer.install()
                try:
                    self.passes.append(self.run_pass("traced", self.tracer))
                finally:
                    self.tracer.restore()
            else:
                self.passes.append(self.run_pass("plain"))
            if len(self.passes) == 1:
                # later passes reuse the memory the first one needed; read
                # the high-water mark now, so it does not depend on how many
                # passes the time allows
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            done = self.elapsed() >= self.seconds
            if done and (not self.trace or len(self.passes) % 2 == 0):
                break
        while len(self.setup_parts) < self.probes:  # the window ended first
            self.probe_setup()
        if self.trace:
            # tracemalloc slows ops 4-5x, so it watches half of them, both
            # modalities of interval-prob-corpus and both nested-let sweeps
            half = [op for op in self.ops if op.index % 4 < 2]
            tracemalloc.start()
            try:
                self.passes.append(self.run_pass("memory", ops=half))
                self.tracemalloc_peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    # -- CLI cross-check ------------------------------------------------------

    def cli_check(self):
        """Write every op's files and run a few through ``modal run --mode
        deep``; its stdout must equal the benchmark's rendered deep lines."""
        work = OUT / "work" / f"{self.workload}-{self.seed}"
        work.mkdir(parents=True, exist_ok=True)
        for op in self.ops:
            (work / f"op{op.index}.mdl").write_text(op.program_text + "\n", encoding="utf-8")
            (work / f"op{op.index}.mb").write_text(op.bindings_text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for index in self.cli_ops:
            cmd = [sys.executable, "-m", "multiworld", "run", "--mode", "deep",
                   "-p", str(work / f"op{index}.mdl"), "-b", str(work / f"op{index}.mb")]
            self.attempted += 1
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                      cwd=ROOT, timeout=150)
            except subprocess.TimeoutExpired:
                self.failures.append(f"cli op {index}: timed out")
                continue
            if proc.returncode != 0 or proc.stdout.splitlines() != self.cli_lines[index]:
                self.failures.append(
                    f"cli op {index}: exit {proc.returncode}, stdout {proc.stdout!r} "
                    f"vs benchmark {self.cli_lines[index]!r}")

    # -- metrics --------------------------------------------------------------

    def of_kind(self, kind):
        return [p for p in self.passes if p.kind == kind]

    def latencies(self, mode, kind="plain") -> list:
        return [t for p in self.of_kind(kind) for t in p.seconds[mode]]

    def throughput(self, mode) -> float:
        """Median over untraced passes of ops per second of op time."""
        return statistics.median(
            len(p.seconds[mode]) / sum(p.seconds[mode]) for p in self.of_kind("plain"))

    def end_to_end(self) -> dict:
        deep_ms = [1000 * t for t in self.latencies("deep")]
        return {
            "setup_s": self.setup_s,
            "deep_ops_per_s": self.throughput("deep"),
            "deep_ms_p50": statistics.median(deep_ms),
            "deep_ms_p90": statistics.quantiles(deep_ms, n=10)[8],
            "shallow_ops_per_s": self.throughput("shallow"),
            "checked_ops_per_s": self.throughput("checked"),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def check_overhead(self) -> float:
        """Checked ÷ deep op time on the checked subset, untraced passes."""
        on_subset = [op.checked for op in self.ops]
        deep = sum(t for p in self.of_kind("plain")
                   for t, chk in zip(p.seconds["deep"], on_subset) if chk)
        return sum(self.latencies("checked")) / deep

    def per_layer(self) -> dict:
        tr = self.tracer
        n = len(self.of_kind("traced"))
        traced = [ans for p in self.of_kind("traced") for ans in p.answers]

        def calls(name, kinds=LAYER_KINDS):
            return tr.total(kinds, name)[0] / n

        def secs(name, kinds=LAYER_KINDS):
            return tr.total(kinds, name)[1] / n

        def self_secs(name, modality=None):
            return tr.total(LAYER_KINDS, name, modality)[2] / n

        def total(field_name, modes=OP_KINDS):
            return sum(getattr(a, field_name) for a in traced if a.mode in modes) / n

        tuples = total("tuples", ("deep", "shallow"))
        pruned = total("pruned", ("deep", "shallow"))
        op_wall = sum(a.seconds for a in traced)
        untraced_wall = sum(sum(p.seconds[m]) for p in self.of_kind("plain") for m in OP_KINDS)
        parse_s = tr.total(OP_KINDS, "lang.parse")[1]
        out = {
            "labels.is_empty.calls": calls("labels.is_empty"),
            "labels.is_empty.s": secs("labels.is_empty"),
            "labels.is_empty.distinct": total("distinct"),
            "labels.sat_calls": total("sat_calls"),
            "labels.meet.calls": calls("labels.meet"),
            "labels.meet.s": secs("labels.meet"),
            "labels.join.calls": calls("labels.join"),
            "labels.join.s": secs("labels.join"),
            "labels.holds.calls": calls("labels.holds"),
            "labels.holds.s": secs("labels.holds"),
            "labels.result_label_nodes_max": max((a.label_nodes for a in traced), default=0),
            "cli.display.calls": calls("cli.display"),
            "cli.display.s": secs("cli.display"),
            "lifting.shallow_apply.calls": calls("lifting.shallow_apply"),
            "lifting.shallow_apply.self_s": self_secs("lifting.shallow_apply"),
            "lifting.tuples": tuples,
            "lifting.pruned": pruned,
            "lifting.prune_ratio": pruned / tuples if tuples else 0.0,
            "lifting.pairs_in_max": tr.shallow_pairs_in,
            "lifting.pairs_out_max": tr.shallow_pairs_out,
            "lifting.applications.deep": total("applications", ("deep",)),
            "lifting.applications.blackbox": total("applications", ("shallow",)),
            "modal.merge.calls": calls("modal.merge"),
            "modal.merge.self_s": self_secs("modal.merge"),
            "modal.validate.calls": calls("modal.validate"),
            "modal.validate.s": secs("modal.validate"),
            "modal.render.self_s": self_secs("modal.render"),
            "modal_eval.deep.self_s": self_secs("modal_eval.deep"),
            "modal_eval.blackbox.self_s": self_secs("modal_eval.blackbox"),
            "modal_eval.check_overhead": self.check_overhead(),
            "lang.parse.calls": calls("lang.parse"),
            "lang.parse.s": secs("lang.parse"),
            "lang.parse.nodes_per_s": sum(a.op.nodes for a in traced) / parse_s,
            "lang.eval_plain.calls": calls("lang.eval_plain"),
            "lang.eval_plain.s": secs("lang.eval_plain"),
            "bindings.parse.calls": calls("bindings.parse"),
            "bindings.parse.s": secs("bindings.parse"),
            "oracle.brute_force.s": secs("oracle.brute_force", ("reference",)),
            "oracle.worlds": calls("lang.eval_plain", ("reference",)),
            "oracle.assert_equiv.s": secs("oracle.assert_equiv", ("reference",)),
            "trace.overhead": op_wall / untraced_wall,
            "trace.coverage": tr.total(OP_KINDS)[2] / op_wall,
            "mem.tracemalloc_peak_mb": self.tracemalloc_peak,
            "src.lines": src_lines(),
        }
        for name in SPLIT:
            for m in SPLIT_MODALITIES:
                out[f"{name}.self_s.{m}"] = self_secs(name, m)
        return out

    def result(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def meta(self) -> dict:
        from gen import inputs_digest

        plain = self.of_kind("plain")
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "commit": commit(),
            "src_sha256": src_digest(),
            "src_lines": src_lines(),
            "inputs_sha256": inputs_digest(self.ops),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "ops": len(self.ops),
            "checked_ops": sum(op.checked for op in self.ops),
            "passes": [p.kind for p in self.passes],
            "deep_ms_samples": len(self.latencies("deep")),
            "ops_per_s_by_pass": {
                m: [round(len(p.seconds[m]) / sum(p.seconds[m]), 3) for p in plain]
                for m in OP_KINDS},
            **({"setup_s_probes": [round(sum(p), 4) for p in self.setup_parts],
                "setup_s_parts": {
                    name: round(statistics.median(p[i] for p in self.setup_parts), 4)
                    for i, name in enumerate(SETUP_PARTS)}}
               if self.setup_parts else {}),
            "attempted": self.attempted,
            "failures": self.failures[:20],
            **({"self_s_by_mode": self.self_s_by_mode()} if self.tracer else {}),
        }

    def op_ms(self) -> dict:
        """Median latency of each op over the untraced passes, per mode."""
        out = {}
        for mode in OP_KINDS:
            ops = [op for op in self.ops if mode != "checked" or op.checked]
            runs = zip(*(p.seconds[mode] for p in self.of_kind("plain")))
            out[mode] = {op.index: round(1000 * statistics.median(ts), 4)
                         for op, ts in zip(ops, runs)}
        return out

    def self_s_by_mode(self) -> dict:
        """Self seconds per layer within each mode's ops, per traced pass."""
        n = len(self.of_kind("traced"))
        out: dict = {}
        for (name, kind, _), (_, _, own) in self.tracer.totals.items():
            if kind in OP_KINDS:
                out.setdefault(kind, {}).setdefault(name, 0.0)
                out[kind][name] += own / n
        return {k: dict(sorted(v.items(), key=lambda kv: -kv[1])) for k, v in out.items()}


def label_nodes(result) -> int:
    from gen import count_nodes

    labels = [label for _, label in result.values] + [label for _, label in result.errors]
    return max((count_nodes(label) for label in labels), default=0)


def execute(workload, seed, seconds, trace):
    """Set up, measure and check one run, and write its record (and a traced
    run's spans) under ``.perfbench/``; returns (result, meta)."""
    run = Run(workload, seed, seconds, trace)
    run.setup()
    run.measure()
    run.cli_check()
    result = run.result()
    meta = run.meta()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result, "op_ms": run.op_ms()}, indent=1) + "\n",
        encoding="utf-8")
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        run.tracer.write(OUT / "spans" / f"{workload}-{seed}.tsv")
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "multiworld" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gen import WORKLOADS

    if ns.workload not in WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result, meta = execute(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    for reason in meta["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print("# meta " + json.dumps(meta))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
