"""Deep lifting: a lifted interpreter over modal environments.

Instead of crossing whole-program inputs, evaluation recurses down the call
tree and applies ``shallow_apply`` at each primitive, so cross products are
computed at the leaves and shared sub-results (let bindings, constant
arguments) are evaluated once no matter how many worlds flow through them.

Conditionals split the current path condition by the guard's labels: each
branch is evaluated only under the worlds that take it, and the partial
results are unioned back together.  Errors are confined to their worlds and
excluded from every downstream context (the algebra's ``minus``); within
one world the first error (left-to-right evaluation order) wins.

The feature and interval modalities thread the path condition as a label
(their meets are idempotent, so re-restricting at every leaf is harmless):
variables and constants are read through ``lifting.restrict``.  Every node
ends in one merge of its pairs (``_finish``), which is the union of its
parts and, under ``check_invariants``, where the algebra's ``problems``
checks that the node's labels partition its path condition.

Probability labels multiply under meet, so the same trick would double-count
mass; the probabilistic path keeps every sub-evaluation in a mass-1 frame
and scales once at each binding or branch point instead.  Repeated uses of
one probabilistic variable are therefore treated as independent draws --
weights lose world identity -- which is why the brute-force oracle is only
matched on programs that reference each modal variable at most once.

``eval_shallow_blackbox`` is the contrast case: it crosses the bindings of
the whole program up front and runs the plain evaluator once per surviving
tuple, duplicating whatever work the program shares internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import lang
from .errors import (
    TYPE_MISMATCH,
    BudgetExceeded,
    EvalError,
    InvariantViolation,
    MissingBinding,
    ModalityMismatch,
    UndeclaredFeature,
)
from .lifting import LiftStats, PrimitiveFn, restrict, shallow_apply
from .modal import (
    ModalResult,
    ModalValue,
    merge_error_pairs,
    merge_value_pairs,
    normalize_result,
    validate,
)

# context sentinel: evaluation reached a world-less point
_DEAD = object()

_MASS_EPS = 1e-12


@dataclass
class ModalEnv:
    """Evaluation context: algebra, bindings, and the run's policies."""

    alg: object
    bindings: dict
    check_invariants: bool = False
    interval_empty: str = "reject"


def _primitive(op: str) -> PrimitiveFn:
    if op == "!":
        return PrimitiveFn("not", 1, lang.apply_not)
    return PrimitiveFn(lang.OP_NAMES[op], 2, lambda a, b: lang.apply_op(op, a, b))


class _DeepEval:
    def __init__(self, program: lang.Program, env: ModalEnv, stats: LiftStats):
        self.program = program
        self.env = env
        self.alg = env.alg
        self.quant = env.alg.kind == "probability"
        self.stats = stats
        self.fundefs = {fd.name: fd for fd in program.fundefs}

    # -- context helpers ---------------------------------------------------

    def _narrow(self, ctx, error_pairs):
        """Remove the error worlds from a path condition."""
        if not error_pairs:
            return ctx
        ctx = self.alg.minus(ctx, [label for _, label in error_pairs])
        return _DEAD if self.alg.is_empty(ctx) else ctx

    @staticmethod
    def _scaled(pairs, factor):
        return [(x, w * factor) for x, w in pairs]

    def _finish(self, values, errors, ctx):
        values = merge_value_pairs(self.alg, values)
        errors = merge_error_pairs(self.alg, errors)
        if self.env.check_invariants:
            labels_ = [label for _, label in values] + [label for _, label in errors]
            problems = self.alg.problems(labels_, within=ctx)
            if problems:
                raise InvariantViolation("intermediate value: " + "; ".join(problems))
        return values, errors

    # -- expression dispatch -------------------------------------------------

    def eval(self, expr, scope, ctx):
        """Returns (value_pairs, error_pairs) jointly covering ``ctx``."""
        if isinstance(expr, lang.IntLit):
            return self._const(expr.value, ctx)
        if isinstance(expr, lang.BoolLit):
            return self._const(expr.value, ctx)
        if isinstance(expr, lang.Var):
            try:
                pairs = scope[expr.name]
            except KeyError:
                raise MissingBinding(f"no value bound for {expr.name!r}") from None
            return self._finish(restrict(self.alg, pairs, ctx), [], ctx)
        if isinstance(expr, lang.Feature):
            v = self.alg.var(expr.name)
            pairs = ((False, self.alg.complement(v)), (True, v))
            return self._finish(restrict(self.alg, pairs, ctx), [], ctx)
        if isinstance(expr, lang.Not):
            av, ae = self.eval(expr.arg, scope, ctx)
            res = self._apply(_primitive("!"), [av])
            return self._finish(list(res.values), list(ae) + list(res.errors), ctx)
        if isinstance(expr, lang.BinOp):
            if expr.op in ("&&", "||"):
                return self._shortcircuit(expr, scope, ctx)
            return self._binop(expr, scope, ctx)
        if isinstance(expr, lang.If):
            return self._branch(
                expr.guard,
                {
                    True: lambda c: self.eval(expr.then, scope, c),
                    False: lambda c: self.eval(expr.orelse, scope, c),
                },
                scope,
                ctx,
            )
        if isinstance(expr, lang.Let):
            return self._let(expr, scope, ctx)
        if isinstance(expr, lang.Call):
            return self._call(expr, scope, ctx)
        raise TypeError(f"not an expression: {expr!r}")

    def _const(self, v, ctx):
        pairs = [(v, label) for label in self.alg.top_labels()]
        return self._finish(restrict(self.alg, pairs, ctx), [], ctx)

    def _apply(self, prim, arg_pair_lists):
        args = [ModalValue(tuple(pairs), self.alg.kind) for pairs in arg_pair_lists]
        return shallow_apply(
            self.alg, prim, args, self.stats, interval_empty=self.env.interval_empty
        )

    def _binop(self, expr, scope, ctx):
        lv, le = self.eval(expr.lhs, scope, ctx)
        if self.quant:
            mass = sum(w for _, w in lv)
            if mass <= _MASS_EPS:
                return self._finish([], le, ctx)
            rv, re_ = self.eval(expr.rhs, scope, None)
            res = self._apply(_primitive(expr.op), [lv, rv])
            errors = list(le) + self._scaled(re_, mass) + list(res.errors)
            return self._finish(list(res.values), errors, ctx)
        ctx2 = self._narrow(ctx, le)
        if ctx2 is _DEAD:
            return self._finish([], le, ctx)
        rv, re_ = self.eval(expr.rhs, scope, ctx2)
        res = self._apply(_primitive(expr.op), [lv, rv])
        errors = list(le) + list(re_) + list(res.errors)
        return self._finish(list(res.values), errors, ctx)

    def _branch(self, guard_expr, handlers, scope, ctx):
        """Evaluate each branch only under the guard labels that select it.

        Guard worlds holding a non-boolean become TypeMismatch errors; the
        remaining worlds proceed.  A branch no world selects is never
        evaluated at all.
        """
        gv, ge = self.eval(guard_expr, scope, ctx)
        values: list = []
        errors: list = list(ge)
        for val, label in gv:
            if not isinstance(val, bool):
                errors.append((TYPE_MISMATCH, label))
                continue
            handler = handlers[val]
            if self.quant:
                bv, be = handler(None)
                values.extend(self._scaled(bv, label))
                errors.extend(self._scaled(be, label))
            else:
                bv, be = handler(label)
                values.extend(bv)
                errors.extend(be)
        return self._finish(values, errors, ctx)

    def _shortcircuit(self, expr, scope, ctx):
        # a && b  ==  if a then bool(b) else false; dually for ||.
        # Worlds decided by the left operand never evaluate the right one.
        def rhs_branch(branch_ctx):
            bv, be = self.eval(expr.rhs, scope, branch_ctx)
            ok = [(v, label) for v, label in bv if isinstance(v, bool)]
            bad = [(TYPE_MISMATCH, label) for v, label in bv if not isinstance(v, bool)]
            return ok, list(be) + bad

        def const_branch(value):
            def handler(branch_ctx):
                if self.quant:
                    return [(value, 1.0)], []
                return [(value, branch_ctx)], []

            return handler

        if expr.op == "&&":
            handlers = {True: rhs_branch, False: const_branch(False)}
        else:
            handlers = {True: const_branch(True), False: rhs_branch}
        return self._branch(expr.lhs, handlers, scope, ctx)

    def _let(self, expr, scope, ctx):
        bv, be = self.eval(expr.bound, scope, ctx)
        if self.quant:
            mass = sum(w for _, w in bv)
            if mass <= _MASS_EPS:
                return self._finish([], be, ctx)
            inner = {**scope, expr.name: tuple(self._scaled(bv, 1.0 / mass))}
            xv, xe = self.eval(expr.body, inner, None)
            return self._finish(
                self._scaled(xv, mass), list(be) + self._scaled(xe, mass), ctx
            )
        ctx2 = self._narrow(ctx, be)
        if ctx2 is _DEAD:
            return self._finish([], be, ctx)
        inner = {**scope, expr.name: tuple(bv)}
        xv, xe = self.eval(expr.body, inner, ctx2)
        return self._finish(xv, list(be) + list(xe), ctx)

    def _call(self, expr, scope, ctx):
        # the call counts as applied only once its body runs, matching the
        # plain evaluator (argument errors abort before the call happens)
        fd = self.fundefs[expr.fn]
        if self.quant:
            scale = 1.0
            errors: list = []
            arg_pairs = []
            for arg in expr.args:
                av, ae = self.eval(arg, scope, None)
                errors.extend(self._scaled(ae, scale))
                mass = sum(w for _, w in av)
                if mass <= _MASS_EPS:
                    return self._finish([], errors, ctx)
                scale *= mass
                arg_pairs.append(tuple(self._scaled(av, 1.0 / mass)))
            inner = dict(zip(fd.params, arg_pairs))
            self.stats.applications[expr.fn] += 1
            xv, xe = self.eval(fd.body, inner, None)
            return self._finish(
                self._scaled(xv, scale), errors + self._scaled(xe, scale), ctx
            )
        ctx2 = ctx
        errors = []
        arg_pairs = []
        for arg in expr.args:
            av, ae = self.eval(arg, scope, ctx2)
            errors.extend(ae)
            ctx2 = self._narrow(ctx2, ae)
            if ctx2 is _DEAD:
                return self._finish([], errors, ctx)
            arg_pairs.append(tuple(av))
        inner = dict(zip(fd.params, arg_pairs))
        self.stats.applications[expr.fn] += 1
        xv, xe = self.eval(fd.body, inner, ctx2)
        return self._finish(xv, errors + list(xe), ctx)

    # -- entry point ---------------------------------------------------------

    def run(self) -> ModalResult:
        _preflight(self.program, self.alg)
        scope = {name: mv.pairs for name, mv in self.env.bindings.items()}
        values, errors = self.eval(self.program.main, scope, None)
        result = normalize_result(
            self.alg,
            ModalResult(tuple(values), tuple(errors), self.alg.kind),
            interval_empty=self.env.interval_empty,
        )
        if self.env.check_invariants:
            report = validate(
                self.alg, result, interval_empty=self.env.interval_empty
            )
            if not report:
                raise InvariantViolation("; ".join(report.problems))
        return result


def _preflight(program: lang.Program, alg) -> set:
    """The features the program tests, all declared by a feature modality."""
    names = lang.used_features(program)
    if not names:
        return names
    if alg.kind != "feature":
        raise ModalityMismatch(
            f"the program tests features but the modality is {alg.kind!r}"
        )
    undeclared = names - set(alg.features)
    if undeclared:
        raise UndeclaredFeature(
            f"program tests undeclared feature(s): {sorted(undeclared)}"
        )
    return names


def eval_modal(program: lang.Program, env: ModalEnv, stats: LiftStats | None = None) -> ModalResult:
    """Deep-lifted evaluation of a program over modal bindings."""
    try:
        return _DeepEval(program, env, stats if stats is not None else LiftStats()).run()
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to evaluate") from None


# --------------------------------------------------------------------------
# Shallow black-box lifting of a whole program
# --------------------------------------------------------------------------

def _split_by_features(alg, label, feature_list):
    """Split a tuple label until it entails a truth value for every feature
    the program tests; yields (sub-label, configuration) leaves."""
    leaves = [(label, {})]
    for name in feature_list:
        v = alg.var(name)
        nxt = []
        for lab, cfg in leaves:
            with_false = alg.meet(lab, alg.complement(v))
            with_true = alg.meet(lab, v)
            false_ok = not alg.is_empty(with_false)
            true_ok = not alg.is_empty(with_true)
            if false_ok and true_ok:
                nxt.append((with_false, {**cfg, name: False}))
                nxt.append((with_true, {**cfg, name: True}))
            elif true_ok:
                nxt.append((lab, {**cfg, name: True}))
            else:
                nxt.append((lab, {**cfg, name: False}))
        leaves = nxt
    return leaves


def eval_shallow_blackbox(program: lang.Program, env: ModalEnv,
                          stats: LiftStats | None = None) -> ModalResult:
    """Cross the program's modal bindings and run it plainly per tuple.

    Arguments are the free variables of ``main`` in first-use order.  For
    the feature modality, a surviving tuple whose label does not fix some
    tested feature is split per truth value first, so the plain evaluator
    always sees a concrete configuration.
    """
    alg = env.alg
    if stats is None:
        stats = LiftStats()
    used = _preflight(program, alg)

    names = lang.free_vars(program.main)
    for name in names:
        if name not in env.bindings:
            raise MissingBinding(f"no value bound for {name!r}")
    feature_list = tuple(n for n in alg.features if n in used)

    if names:
        space = (
            ([v for v, _ in combo], _meet_all(alg, [l for _, l in combo]))
            for combo in product(*[env.bindings[n].pairs for n in names])
        )
    else:
        space = (([], label) for label in alg.top_labels())

    out_values = []
    out_errors = []
    for tuple_values, label in space:
        if alg.is_empty(label):
            stats.tuples += 1
            stats.pruned += 1
            continue
        if feature_list:
            leaves = _split_by_features(alg, label, feature_list)
        else:
            leaves = [(label, None)]
        for leaf_label, config in leaves:
            stats.tuples += 1
            stats.applied += 1
            plain_env = dict(zip(names, tuple_values))
            try:
                out = lang.eval_plain(program, plain_env, config, stats)
                out_values.append((out, leaf_label))
            except EvalError as ex:
                out_errors.append((ex.kind, leaf_label))

    result = normalize_result(
        alg,
        ModalResult(tuple(out_values), tuple(out_errors), alg.kind),
        interval_empty=env.interval_empty,
    )
    if env.check_invariants:
        report = validate(alg, result, interval_empty=env.interval_empty)
        if not report:
            raise InvariantViolation("; ".join(report.problems))
    return result


def _meet_all(alg, labels_):
    label = labels_[0]
    for l in labels_[1:]:
        label = alg.meet(label, l)
    return label
