"""Command-line driver.

    modal run -p program.mdl -b bindings.mb [--mode deep] [--stats]
              [--check-invariants] [--interval-empty reject|swap]
              [--feature-limit N] [--config FA=1,FB=0]

Modes: ``plain`` (one world, needs a configuration when features are
tested), ``shallow`` (black-box cross product), ``deep`` (lifted
interpreter), ``oracle`` (per-world brute force), and ``check`` (deep and
oracle, compared world by world).

Output is deterministic: value pairs one per line as ``value @ label`` in
normalized order, then ``error:KIND @ label`` lines.  Feature labels are
world sets, displayed as a minimal sum of products (as disjoint cubes
above 12 features).  Exit codes: 0 success (labeled per-world errors are
answers, not failures), 1 usage or parse problems, 2 invariant violations
(bindings that are not disjoint and total are rejected on every run),
3 exceeded budgets (including inputs nested too deeply to parse or
evaluate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import lang
from .bindings import load_bindings
from .errors import (
    BudgetExceeded,
    CyclicCallError,
    EmptyModalValue,
    EvalError,
    IntervalJoinMismatch,
    InvariantViolation,
    MissingBinding,
    MissingConfig,
    ModalityMismatch,
    ParseError,
    ProbabilityOverflow,
    ProjectionUnsupported,
    ScopeError,
    TooManyFeatures,
    UndeclaredFeature,
)
from .lifting import LiftStats
from .modal import project, render_result, validate, value_text
from .modal_eval import ModalEnv, eval_modal, eval_shallow_blackbox
from .oracle import assert_equiv, brute_force_eval

_USAGE_ERRORS = (
    ParseError,
    ScopeError,
    CyclicCallError,
    MissingBinding,
    MissingConfig,
    UndeclaredFeature,
    ModalityMismatch,
    ProjectionUnsupported,
    OSError,
)
_INVARIANT_ERRORS = (
    InvariantViolation,
    EmptyModalValue,
    ProbabilityOverflow,
    IntervalJoinMismatch,
)
_BUDGET_ERRORS = (TooManyFeatures, BudgetExceeded)


@dataclass
class RunConfig:
    program: str
    bindings: str
    mode: str = "deep"
    config: str | None = None
    stats: bool = False
    check_invariants: bool = False
    interval_empty: str = "reject"
    feature_limit: int = 24


def display_label(alg):
    """The label-to-text function reports use: the algebra's own."""
    return alg.canonical_text


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def _run_plain(program, alg, bindings, cfg, stats):
    if alg.worlds() is None:
        # weights name no world: only constant bindings have one plain run
        if any(len(mv.pairs) != 1 for mv in bindings.values()):
            raise ProjectionUnsupported("plain mode needs constant probability bindings")
        env = {name: mv.pairs[0][0] for name, mv in bindings.items()}
        config = None
    else:
        world = alg.parse_world(cfg.config)
        env = {name: project(alg, mv, world) for name, mv in bindings.items()}
        config = world if alg.features else None
    try:
        out = lang.eval_plain(program, env, config, stats)
        return [value_text(out)]
    except EvalError as ex:
        return [f"error:{ex.kind}"]


def run(cfg: RunConfig):
    """Execute one run; returns (exit_code, stdout lines, stderr lines)."""
    out: list = []
    err: list = []
    with open(cfg.program, "r", encoding="utf-8") as handle:
        text = handle.read()
    program = lang.parse(text)
    alg, bindings = load_bindings(cfg.bindings, feature_limit=cfg.feature_limit)

    # Every run rejects bindings that are not disjoint, total and well
    # labeled.  Only --check-invariants also rejects an inverted interval
    # range (validate skips that rule under the swap policy) and counts the
    # emptiness tests of this check in sat_calls.
    loaded_sat_calls = alg.sat_calls
    range_policy = cfg.interval_empty if cfg.check_invariants else "swap"
    for name, mv in bindings.items():
        report = validate(alg, mv, interval_empty=range_policy)
        if not report:
            raise InvariantViolation(f"binding {name!r}: " + "; ".join(report.problems))
    uncounted = 0 if cfg.check_invariants else alg.sat_calls - loaded_sat_calls

    stats = LiftStats()
    env = ModalEnv(
        alg,
        bindings,
        check_invariants=cfg.check_invariants,
        interval_empty=cfg.interval_empty,
    )

    exit_code = 0
    if cfg.mode == "plain":
        out.extend(_run_plain(program, alg, bindings, cfg, stats))
    elif cfg.mode == "shallow":
        out.extend(render_result(alg, eval_shallow_blackbox(program, env, stats)))
    elif cfg.mode == "deep":
        out.extend(render_result(alg, eval_modal(program, env, stats)))
    elif cfg.mode == "oracle":
        out.extend(render_result(alg, brute_force_eval(program, bindings, alg, stats)))
    elif cfg.mode == "check":
        deep = eval_modal(program, env, stats)
        oracle = brute_force_eval(program, bindings, alg)
        out.extend(render_result(alg, deep))
        for label, result in (("deep", deep), ("oracle", oracle)):
            report = validate(alg, result, interval_empty=cfg.interval_empty)
            if not report:
                err.append(f"{label} result invalid: " + "; ".join(report.problems))
                exit_code = 2
        ok, diff = assert_equiv(alg, deep, oracle)
        if ok:
            out.append("check: deep == oracle")
        else:
            err.append(f"check failed: {diff}")
            exit_code = 2
    else:
        raise ParseError(f"unknown mode {cfg.mode!r}")

    if cfg.stats:
        stats.sat_calls = alg.sat_calls - uncounted
        for name in sorted(stats.applications):
            out.append(f"applications.{name}={stats.applications[name]}")
        out.append(f"tuples={stats.tuples}")
        out.append(f"pruned={stats.pruned}")
        out.append(f"sat_calls={stats.sat_calls}")
    return exit_code, out, err


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modal", description="Evaluate programs over many worlds at once.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="evaluate a program over bindings")
    runp.add_argument("-p", "--program", required=True, help="program file (.mdl)")
    runp.add_argument("-b", "--bindings", required=True, help="bindings file (.mb)")
    runp.add_argument(
        "--mode",
        choices=("plain", "shallow", "deep", "oracle", "check"),
        default="deep",
    )
    runp.add_argument("--config", help="feature assignment FA=1,FB=0 (or MIN/MAX)")
    runp.add_argument("--stats", action="store_true", help="print lifting counters")
    runp.add_argument(
        "--check-invariants",
        action="store_true",
        help="validate every intermediate modal value",
    )
    runp.add_argument("--interval-empty", choices=("reject", "swap"), default="reject")
    runp.add_argument("--feature-limit", type=int, default=24)
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = RunConfig(
            program=ns.program,
            bindings=ns.bindings,
            mode=ns.mode,
            config=ns.config,
            stats=ns.stats,
            check_invariants=ns.check_invariants,
            interval_empty=ns.interval_empty,
            feature_limit=ns.feature_limit,
        )
        code, out, err = run(cfg)
    except _BUDGET_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    except _INVARIANT_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    for line in out:
        print(line)
    for line in err:
        print(line, file=sys.stderr)
    return code
