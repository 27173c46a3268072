"""Deep lifting: a lifted interpreter over modal environments.

Instead of crossing whole-program inputs, evaluation recurses down the call
tree and applies ``lifting.apply_pairs`` to the operands' pair lists at
each primitive, so cross products are computed at the leaves and shared
sub-results (let bindings, constant arguments) are evaluated once no
matter how many worlds flow through them.

Conditionals split the current path condition by the guard's labels: each
branch is evaluated only under the worlds that take it, and the partial
results are unioned back together.  Errors are confined to their worlds and
excluded from every downstream context; within one world the first error
(left-to-right evaluation order) wins.

One code path serves every modality: a path condition is a label of the
world-set algebra the run lifts its inputs into (``labels.Algebra.lift``;
a probability run lifts to the joint draws of its inputs, an interval run
merges each range's equal endpoints into one pair, and each lowers its
result back to the public form), and a run starts at its ``top``.  Each
node's pairs partition its path condition, and every value in scope
covers it, since every input must partition every world
(``modal.bound_inputs`` rejects one that does not).  So label work
is paid only where values vary: a constant, or a variable that holds one
pair, is that value at the path condition, a variable holding more is
read through ``lifting.restrict``, and ``apply_pairs`` maps an operator
over its one varying operand instead of crossing.  Every node returns
normalized pairs: normalized parts pass through, and only a union of two
or more non-empty parts is merged, so the answer is never merged again.
Each node type has one method, found by ``type`` in one table through
which every method reads its children, so a nesting level costs one
Python frame.  Under ``check_invariants`` the table is
``_CheckedDeepEval``'s, whose entries check that each node's labels
partition its path condition, at two frames a level; one value pair
labelled with the path condition is a partition of it by construction.

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
from .errors import TYPE_MISMATCH, BudgetExceeded, InvariantViolation, MissingBinding
from .lifting import LiftStats, apply_pairs, cross, restrict
from .lifting import shallow_apply  # noqa: F401 -- not called; perfbench's tracer test reads it
from .modal import ModalResult, bound_inputs, collect_outcomes, merge_value_pairs, validate


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

    # -- one method per node type: (value_pairs, error_pairs) covering ctx ---

    def _const(self, expr, scope, ctx):
        return ((expr.value, ctx),), ()

    def _var(self, expr, scope, ctx):
        try:
            pairs = scope[expr.name]
        except KeyError:
            raise MissingBinding(f"no value bound for {expr.name!r}") from None
        if len(pairs) == 1:  # it covers ``ctx``, as every value in scope does
            return ((pairs[0][0], ctx),), ()
        return restrict(self.alg, pairs, ctx), ()

    def _feature(self, expr, scope, ctx):
        return restrict(self.alg, _feature_pairs(self.alg, expr.name), ctx), ()

    def _not(self, expr, scope, ctx):
        av, ae = self._node[type(expr.arg)](self, expr.arg, scope, ctx)
        values, errors = apply_pairs(self.alg, lang.PRIMITIVES["!"], (av,), self.stats, ctx)
        return values, self._union((ae, errors)) if ae else errors

    def _binop(self, expr, scope, ctx):
        """An operator; ``a && b`` is ``if a then bool(b) else false``, and
        dually for ``||``: worlds where an operand it reads holds a
        non-boolean become TypeMismatch errors."""
        op, lhs, rhs = expr.op, expr.lhs, expr.rhs
        lv, le = self._node[type(lhs)](self, lhs, scope, ctx)
        if op == "&&" or op == "||":
            values, errors = [], [le]
            for val, label in lv:
                if val is (op == "&&"):  # the right operand decides
                    rv, re_ = self._node[type(rhs)](self, rhs, scope, label)
                    values.append([(v, l) for v, l in rv if isinstance(v, bool)])
                    errors.extend([(TYPE_MISMATCH, l)] for v, l in rv if not isinstance(v, bool))
                    errors.append(re_)
                elif isinstance(val, bool):
                    values.append(((val, label),))
                else:
                    errors.append(((TYPE_MISMATCH, label),))
            return self._union(values), self._union(errors)
        if le:
            ctx = self.alg.narrow(ctx, le)
            if self.alg.is_empty(ctx):
                return (), le
        rv, re_ = self._node[type(rhs)](self, rhs, scope, ctx)
        values, errors = apply_pairs(self.alg, lang.PRIMITIVES[op], (lv, rv), self.stats, ctx)
        return values, self._union((le, re_, errors)) if le or re_ else errors

    def _if(self, expr, scope, ctx):
        """Evaluate each arm only under the guard labels that select it.

        Guard worlds holding a non-boolean become TypeMismatch errors.  An
        arm no world selects is never evaluated, and an arm that every
        world selects is the node's answer as it stands.
        """
        gv, ge = self._node[type(expr.guard)](self, expr.guard, scope, ctx)
        if len(gv) == 1 and not ge and isinstance(gv[0][0], bool):
            arm = expr.then if gv[0][0] else expr.orelse
            return self._node[type(arm)](self, arm, scope, ctx)
        values: list = []
        errors: list = [ge]
        for val, label in gv:
            if isinstance(val, bool):
                arm = expr.then if val else expr.orelse
                av, ae = self._node[type(arm)](self, arm, scope, label)
                values.append(av)
                errors.append(ae)
            else:
                errors.append(((TYPE_MISMATCH, label),))
        return self._union(values), self._union(errors)

    def _let(self, expr, scope, ctx):
        bv, be = self._node[type(expr.bound)](self, expr.bound, scope, ctx)
        if be:
            ctx = self.alg.narrow(ctx, be)
            if self.alg.is_empty(ctx):
                return (), be
        xv, xe = self._node[type(expr.body)](self, expr.body, {**scope, expr.name: bv}, ctx)
        return xv, self._union((be, xe)) if be else xe

    def _call(self, expr, scope, ctx):
        """A call, which counts as applied only once its body runs, as in
        the plain evaluator."""
        fd = self.fundefs[expr.fn]
        inner, errors = {}, []
        for name, arg in zip(fd.params, expr.args):
            av, ae = self._node[type(arg)](self, arg, scope, ctx)
            if ae:
                errors.append(ae)
                ctx = self.alg.narrow(ctx, ae)
                if self.alg.is_empty(ctx):
                    return (), self._union(errors)
            inner[name] = av
        self.stats.applications[expr.fn] += 1
        xv, xe = self._node[type(fd.body)](self, fd.body, inner, ctx)
        return xv, self._union((*errors, xe)) if errors else xe

    _node = lang._Nodes({
        lang.IntLit: _const, lang.BoolLit: _const, lang.Var: _var, lang.Feature: _feature,
        lang.Not: _not, lang.BinOp: _binop, lang.If: _if, lang.Let: _let, lang.Call: _call,
    })

    # -- entry point ---------------------------------------------------------

    def run(self) -> ModalResult:
        self.alg, scope = self.env.alg.lift(bound_inputs(self.program, self.env.alg, self.env.bindings))
        main = self.program.main
        return _finish_result(self.env, self.alg, *self._node[type(main)](self, main, scope, self.alg.top))


def _checked(method):
    """A node method that then checks that its answer's labels partition its path condition."""
    def checked(self, expr, scope, ctx):
        values, errors = method(self, expr, scope, ctx)
        if errors or len(values) != 1 or values[0][1] != ctx:  # else a partition by construction
            problems = self.alg.problems([label for _, label in (*values, *errors)], within=ctx)
            if problems:
                raise InvariantViolation("intermediate value: " + "; ".join(problems))
        return values, errors
    return checked


class _CheckedDeepEval(_DeepEval):
    """The deep evaluator of ``check_invariants``: each node method is checked."""

    _node = lang._Nodes({cls: _checked(method) for cls, method in _DeepEval._node.items()})


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
