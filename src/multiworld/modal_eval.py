"""Deep lifting: a lifted interpreter over modal environments.

Instead of crossing whole-program inputs, evaluation recurses down the call
tree and applies ``lifting.apply_pairs`` to the operands' pair lists at
each primitive (plainly, if each holds one pair), so cross products are
computed at the leaves and shared sub-results (let bindings, constant
arguments) are evaluated once no matter how many worlds flow through them.

Conditionals split the current path condition by the guard's labels: each
branch is evaluated only under the worlds that take it, and the partial
results are unioned back together.  Errors are confined to their worlds and
excluded from every downstream context; within one world the first error
(left-to-right evaluation order) wins.

One code path serves every modality: a path condition is a label of the
world-set algebra the run lifts its inputs into (``labels.Algebra.lift``;
a probability run lifts to the joint draws of its inputs, an interval run
merges each range's equal endpoints into one pair, and each lowers its
result back to the public form), a constant is one pair at that
algebra's ``top``, and variables and constants are read through
``lifting.restrict``.  Every node returns normalized pairs: normalized
parts pass through, and only a union of two or more non-empty parts is
merged, so the answer is never merged again.  Under ``check_invariants``
the evaluator is ``_CheckedDeepEval``, whose ``eval`` checks that each
node's labels partition its path condition.

``eval_shallow_blackbox`` is the contrast case: shallow lifting of the
whole program.  It crosses ``main``'s bound inputs, lifted as a deep run
lifts them, and the truth values of its tested features up front
(``lifting.cross``) and runs the plain evaluator once per surviving tuple,
duplicating whatever work the program shares internally.  Its outcomes
merge once, as they arrive (``modal.collect_outcomes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .errors import (
    TYPE_MISMATCH,
    BudgetExceeded,
    InvariantViolation,
    MissingBinding,
)
from .labels import NOWHERE
from .lifting import LiftStats, apply_pairs, cross, restrict
from .lifting import shallow_apply  # noqa: F401 -- not called; perfbench's tracer test reads it
from .modal import (
    ModalResult,
    bound_inputs,
    collect_outcomes,
    merge_value_pairs,
    validate,
)


@dataclass
class ModalEnv:
    """Evaluation context: algebra, normalized bindings, the run's policies.

    The range policy changes no value: it only decides whether
    ``check_invariants`` rejects an inverted final range.
    """

    alg: object
    bindings: dict
    check_invariants: bool = False
    interval_empty: str = "reject"


def _feature_pairs(alg, name) -> tuple:
    """``feature(name)`` as a modal boolean: false off the feature, true on it."""
    v = alg.var(name)
    return ((False, alg.complement(v)), (True, v))


class _DeepEval:
    def __init__(self, program: lang.Program, env: ModalEnv, stats: LiftStats):
        self.program = program
        self.env = env
        self.stats = stats
        self.fundefs = program.analysis.fundefs

    def _union(self, parts):
        """The union of normalized parts: a merge only if two or more are non-empty."""
        parts = [part for part in parts if part]
        if len(parts) > 1:
            return merge_value_pairs(self.alg, [pair for part in parts for pair in part])
        return parts[0] if parts else ()

    # -- expression dispatch -------------------------------------------------

    def eval(self, expr, scope, ctx):
        """Returns (value_pairs, error_pairs) jointly covering ``ctx``."""
        if isinstance(expr, (lang.IntLit, lang.BoolLit)):
            pairs = ((expr.value, self.alg.top),)
        elif isinstance(expr, lang.Var):
            try:
                pairs = scope[expr.name]
            except KeyError:
                raise MissingBinding(f"no value bound for {expr.name!r}") from None
        elif isinstance(expr, lang.Feature):
            pairs = _feature_pairs(self.alg, expr.name)
        elif isinstance(expr, lang.Not):
            av, ae = self.eval(expr.arg, scope, ctx)
            return self._apply(lang.PRIMITIVES["!"], [av], [ae])
        elif isinstance(expr, lang.BinOp):
            if expr.op == "&&":
                # a && b  ==  if a then bool(b) else false; dually for ||
                return self._branch(expr.lhs, expr.rhs, False, scope, ctx, want_bool=True)
            if expr.op == "||":
                return self._branch(expr.lhs, True, expr.rhs, scope, ctx, want_bool=True)
            return self._binop(expr, scope, ctx)
        elif isinstance(expr, lang.If):
            return self._branch(expr.guard, expr.then, expr.orelse, scope, ctx)
        elif isinstance(expr, lang.Let):
            return self._bind(dict(scope), (expr.name,), (expr.bound,), expr.body, scope, ctx)
        elif isinstance(expr, lang.Call):
            fd = self.fundefs[expr.fn]
            return self._bind({}, fd.params, expr.args, fd.body, scope, ctx, expr.fn)
        else:
            raise TypeError(f"not an expression: {expr!r}")
        return restrict(self.alg, pairs, ctx), ()

    def _apply(self, prim, arg_pair_lists, error_parts):
        """A primitive's node: ``apply_pairs``' values, after the operands' errors."""
        values, errors = apply_pairs(self.alg, prim, arg_pair_lists, self.stats)
        return values, self._union((*error_parts, errors))

    def _binop(self, expr, scope, ctx):
        lv, le = self.eval(expr.lhs, scope, ctx)
        ctx = self.alg.narrow(ctx, le)
        if ctx is NOWHERE:
            return (), le
        rv, re_ = self.eval(expr.rhs, scope, ctx)
        return self._apply(lang.PRIMITIVES[expr.op], [lv, rv], [le, re_])

    def _branch(self, guard, then, orelse, scope, ctx, want_bool=False):
        """Evaluate each arm only under the guard labels that select it.

        An arm is an expression or a decided bool.  Guard worlds holding a
        non-boolean become TypeMismatch errors, and so do the worlds where
        an arm gives a non-boolean under ``want_bool`` (the right operand
        of ``&&``/``||``).  An arm no world selects is never evaluated.
        """
        gv, ge = self.eval(guard, scope, ctx)
        values: list = []
        errors: list = [ge]
        for val, label in gv:
            if not isinstance(val, bool):
                errors.append([(TYPE_MISMATCH, label)])
                continue
            arm = then if val else orelse
            if isinstance(arm, bool):
                values.append([(arm, label)])
                continue
            av, ae = self.eval(arm, scope, label)
            if want_bool:
                errors.extend([(TYPE_MISMATCH, l)] for v, l in av if not isinstance(v, bool))
                av = [(v, l) for v, l in av if isinstance(v, bool)]
            values.append(av)
            errors.append(ae)
        return self._union(values), self._union(errors)

    def _bind(self, inner, names, args, body, scope, ctx, fn=None):
        """A ``let``, or a call of ``fn``, which counts as applied only once
        its body runs, as in the plain evaluator."""
        errors: list = []
        for name, arg in zip(names, args):
            av, ae = self.eval(arg, scope, ctx)
            errors.append(ae)
            ctx = self.alg.narrow(ctx, ae)
            if ctx is NOWHERE:
                return (), self._union(errors)
            inner[name] = av
        if fn is not None:
            self.stats.applications[fn] += 1
        xv, xe = self.eval(body, inner, ctx)
        errors.append(xe)
        return xv, self._union(errors)

    # -- entry point ---------------------------------------------------------

    def run(self) -> ModalResult:
        inputs = bound_inputs(self.program, self.env.alg, self.env.bindings)
        self.alg, scope = self.env.alg.lift(inputs)
        return _finish_result(self.env, self.alg, *self.eval(self.program.main, scope, None))


class _CheckedDeepEval(_DeepEval):
    """The deep evaluator that checks that each node's labels partition
    its path condition (``check_invariants``)."""

    def eval(self, expr, scope, ctx):
        values, errors = super().eval(expr, scope, ctx)
        labels_ = [label for _, label in values] + [label for _, label in errors]
        problems = self.alg.problems(labels_, within=ctx)
        if problems:
            raise InvariantViolation("intermediate value: " + "; ".join(problems))
        return values, errors


def eval_modal(program: lang.Program, env: ModalEnv, stats: LiftStats | None = None) -> ModalResult:
    """Deep-lifted evaluation of a program over modal bindings."""
    evaluator = _CheckedDeepEval if env.check_invariants else _DeepEval
    try:
        return evaluator(program, env, stats if stats is not None else LiftStats()).run()
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to evaluate") from None


# --------------------------------------------------------------------------
# Shallow black-box lifting of a whole program
# --------------------------------------------------------------------------

def eval_shallow_blackbox(program: lang.Program, env: ModalEnv,
                          stats: LiftStats | None = None) -> ModalResult:
    """Cross the program's lifted inputs and run it plainly per tuple.

    The operands are the pairs of ``main``'s bound inputs
    (``modal.bound_inputs``; a run that reads an unbound one fails there,
    as in the oracle) in the algebra a deep run lifts them into, then, for
    the feature modality, every tested feature's modal boolean in declared
    order, so the plain evaluator always sees a concrete configuration.
    A program with no operand runs once, at the top label.
    """
    if stats is None:
        stats = LiftStats()
    alg, scope = env.alg.lift(bound_inputs(program, env.alg, env.bindings))
    names = list(scope)
    tested = [n for n in alg.features if n in program.analysis.features]
    operands = list(scope.values()) + [_feature_pairs(alg, n) for n in tested]
    if not operands:
        operands = [[(None, alg.top)]]

    def runs():
        for label, values in cross(alg, operands, stats):
            config = dict(zip(tested, values[len(names):])) if tested else None
            yield label, lang.eval_plain, (program, dict(zip(names, values)), config, stats)

    return _finish_result(env, alg, *collect_outcomes(alg, runs()))


def _finish_result(env: ModalEnv, alg, values, errors) -> ModalResult:
    """The result of a run from its normalized pairs in ``alg``, lowered
    to their public form and validated under ``check_invariants``."""
    result = ModalResult(alg.lower(values), alg.lower(errors), env.alg.kind)
    if env.check_invariants:
        report = validate(env.alg, result, interval_empty=env.interval_empty)
        if not report:
            raise InvariantViolation("; ".join(report.problems))
    return result
