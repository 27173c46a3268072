"""The three timed ways to run an op, and the untimed reference check.

Every call goes through a module attribute of the public API
(``lang.parse``, ``modal_eval.eval_modal``, ...) so that a traced run sees
it.  The calls and their order are those of ``modal run``:

* deep: ``lang.parse`` -> ``bindings.parse_bindings`` ->
  ``modal_eval.eval_modal`` -> ``modal.render_result`` with
  ``cli.display_label``;
* shallow: the same with ``modal_eval.eval_shallow_blackbox``;
* checked: ``modal.validate`` of each binding, then the deep op with
  ``check_invariants=True`` (``modal run --check-invariants``).

Ops that share an algebra (``shared``) skip the bindings parse.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from multiworld import bindings, cli, lang, modal, modal_eval, oracle
from multiworld.errors import EvalError, InvariantViolation
from multiworld.lifting import LiftStats

MODES = ("deep", "shallow", "checked")


@dataclass
class Answer:
    mode: str
    op: object
    seconds: float
    tuples: int  # LiftStats counters of this op
    pruned: int
    applications: int
    sat_calls: int  # the algebra's counter, over this op
    alg: object = None
    binds: dict = None
    program: object = None
    result: object = None
    lines: list = None
    error: Exception = None
    distinct: int = 0  # label objects is_empty saw (traced passes)
    label_nodes: int = 0  # largest result label (traced deep ops)


def run_op(mode: str, op, shared=None) -> Answer:
    """One timed op.  An exception that escapes is kept as the answer."""
    stats = LiftStats()
    alg = binds = program = result = lines = error = None
    sat_before = getattr(shared[0], "sat_calls", 0) if shared else 0
    t0 = time.perf_counter()
    try:
        program = lang.parse(op.program_text)
        alg, binds = shared if shared else bindings.parse_bindings(op.bindings_text)
        check = mode == "checked"
        if check:
            for name, mv in binds.items():
                report = modal.validate(alg, mv)
                if not report:
                    raise InvariantViolation(f"binding {name!r}: " + "; ".join(report.problems))
        env = modal_eval.ModalEnv(alg, binds, check_invariants=check)
        fmt = cli.display_label(alg)
        if mode == "shallow":
            result = modal_eval.eval_shallow_blackbox(program, env, stats)
        else:
            result = modal_eval.eval_modal(program, env, stats)
        lines = modal.render_result(alg, result, fmt)
    except Exception as ex:  # noqa: BLE001 -- the reference judges it
        error = ex
    seconds = time.perf_counter() - t0
    sat_calls = getattr(alg, "sat_calls", 0) - sat_before
    return Answer(mode, op, seconds, stats.tuples, stats.pruned, stats.total_applications(),
                  sat_calls, alg, binds, program, result, lines, error)


def _raised(ex) -> str:
    where = traceback.extract_tb(ex.__traceback__)[-1] if ex.__traceback__ else None
    at = f" at {where.filename.rsplit('/', 1)[-1]}:{where.lineno}" if where else ""
    return f"raised {ex!r}{at}"


def _outcome(kind, v):
    # 1 == True in Python; the type keeps int and bool answers apart
    return (kind, type(v).__name__, v)


def per_world_equiv(alg, program, binds, result):
    """``brute_force_eval`` + ``assert_equiv`` world by world, for feature
    algebras whose oracle labels (one minterm per world, 2^k of them)
    would be too large to compare."""
    for config in alg.iter_configs():
        env = {name: modal.project(alg, mv, config) for name, mv in binds.items()}
        try:
            want = _outcome("value", lang.eval_plain(program, env, config))
        except EvalError as ex:
            want = _outcome("error", ex.kind)
        got = oracle.outcome_at(alg, result, config)
        got = _outcome(*got)
        if got != want:
            shown = ", ".join(f"{n}={int(v)}" for n, v in config.items())
            return False, f"diverges at {{{shown}}}: {got!r} vs {want!r}"
    return True, None


def reference_check(ans: Answer, tracer=None, per_world=False):
    """Compare one answer with the brute-force oracle; (ok, reason).

    A checked run must raise ``InvariantViolation`` exactly when the
    oracle's result fails ``modal.validate`` (``modal run
    --check-invariants`` exits 2 then, e.g. on an interval whose MAX lies
    below its MIN); otherwise every answer must equal the oracle's.
    """
    if ans.program is None or ans.alg is None:
        return False, f"op did not load: {_raised(ans.error)}"
    if per_world:
        if ans.error is not None:
            return False, _raised(ans.error)
        if tracer is not None:
            return tracer.span("oracle.brute_force", per_world_equiv,
                               ans.alg, ans.program, ans.binds, ans.result)
        return per_world_equiv(ans.alg, ans.program, ans.binds, ans.result)
    try:
        want = oracle.brute_force_eval(ans.program, ans.binds, ans.alg)
    except Exception as ex:  # noqa: BLE001
        return False, f"oracle {_raised(ex)}"
    if ans.mode == "checked" and not modal.validate(ans.alg, want):
        if isinstance(ans.error, InvariantViolation):
            return True, None
        got = _raised(ans.error) if ans.error else f"answer {ans.lines!r}"
        return False, f"expected InvariantViolation, {got}"
    if ans.error is not None:
        return False, _raised(ans.error)
    return oracle.assert_equiv(ans.alg, ans.result, want)
