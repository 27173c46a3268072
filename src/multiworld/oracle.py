"""Brute-force ground truth: enumerate every world, evaluate plainly.

This is the independent route the lifted evaluators are checked against.
It never touches the lifting machinery: each world is materialized as a
concrete environment (projection of every binding ``main`` reads), the
plain evaluator runs once per world, and the per-world outcomes are
aggregated back into a modal result labeled by the minterm of each named
world (features, interval) or by summed weights (probability).

Also here: a seeded generator of small well-scoped programs and bindings,
used by the equivalence and invariant sweeps.
"""

from __future__ import annotations

import math
from itertools import product

from . import lang
from .errors import BudgetExceeded, ModalityMismatch
from .labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag, joint_support
from .modal import (
    ModalResult,
    ModalValue,
    bound_inputs,
    collect_outcomes,
    make_const,
    normalize,
    project,
    value_key,
    value_text,
)

FEATURE_BUDGET = 20


def _named_worlds(alg):
    k = len(alg.features)
    if k > FEATURE_BUDGET:
        raise BudgetExceeded(
            f"{2**k} configurations from {k} features exceeds the budget"
        )
    return alg.worlds()


def _joint_draws(bindings):
    """Each joint draw of independent bindings as (env, None, weight),
    leaving out draws whose weight is empty."""
    names = list(bindings)
    joint_support(len(mv.pairs) for mv in bindings.values())
    draws = (
        (dict(zip(names, [v for v, _ in combo])), None, math.prod([w for _, w in combo], start=1.0))
        for combo in product(*[bindings[n].pairs for n in names])
    )
    return (draw for draw in draws if draw[2] >= ProbabilityAlgebra.empty_eps)


def enumerate_worlds(alg, bindings):
    """Every world, lazily, as (env, config, label): the plain value of
    each binding there, the feature configuration the plain evaluator
    sees (``None`` when the modality declares no features), and the label
    of that world alone.

    Named worlds (configurations, endpoint tags) project every binding and
    are labeled by their minterm.  Weights name no world, so under
    probability the worlds are the joint draws of the bindings, assumed
    independent, labeled by their product weight.  An over-budget world
    count raises ``BudgetExceeded`` at the call.
    """
    worlds = _named_worlds(alg)
    if worlds is None:
        return _joint_draws(bindings)
    return (
        (
            {n: project(alg, mv, world) for n, mv in bindings.items()},
            world if alg.features else None,
            alg.minterm(world),
        )
        for world in worlds
    )


def brute_force_eval(program: lang.Program, bindings, alg, stats=None) -> ModalResult:
    """Per-world plain runs, aggregated into a modal result.  The worlds
    cross only the bindings that ``main`` reads."""
    inputs = bound_inputs(program, alg, bindings)
    values, errors = collect_outcomes(alg, (
        (label, lang.eval_plain, (program, env, config, stats))
        for env, config, label in enumerate_worlds(alg, inputs)
    ))
    return ModalResult(alg.lower(values), alg.lower(errors), alg.kind)


# --------------------------------------------------------------------------
# Equivalence
# --------------------------------------------------------------------------

def _as_result(obj) -> ModalResult:
    if isinstance(obj, ModalResult):
        return obj
    return ModalResult(obj.pairs, (), obj.modality)


def outcome_at(alg, result, world) -> tuple:
    """The single outcome a result takes at one world:
    ("value", v), ("error", kind), or ("invalid", diagnostic)."""
    result = _as_result(result)
    hits = [("value", v) for v, label in result.values if alg.covers(label, world)]
    hits += [("error", k) for k, label in result.errors if alg.covers(label, world)]
    if len(hits) != 1:
        return ("invalid", f"{len(hits)} outcomes at {alg.world_text(world)}")
    return hits[0]


def _weight_maps(result):
    values: dict = {}
    for v, w in result.values:
        key = value_key(v)
        values[key] = (v, values.get(key, (v, 0.0))[1] + w)
    errors: dict = {}
    for k, w in result.errors:
        errors[k] = errors.get(k, 0.0) + w
    return values, errors


def _equal_weights(a, b, tol) -> tuple:
    av, ae = _weight_maps(a)
    bv, be = _weight_maps(b)
    for key in sorted(set(av) | set(bv)):
        wa = av.get(key, (None, 0.0))[1]
        wb = bv.get(key, (None, 0.0))[1]
        if abs(wa - wb) > tol:
            shown = av.get(key, bv.get(key))[0]
            return False, f"value {value_text(shown)}: weight {wa!r} vs {wb!r}"
    for kind in sorted(set(ae) | set(be)):
        wa, wb = ae.get(kind, 0.0), be.get(kind, 0.0)
        if abs(wa - wb) > tol:
            return False, f"error {kind}: weight {wa!r} vs {wb!r}"
    return True, None


def assert_equiv(alg, a, b, tol: float = 1e-9) -> tuple:
    """Denotational equality of two results; (ok, first-divergence).

    Results agree at every named world, or, when labels are weights, give
    every outcome the same total weight within ``tol``.
    """
    a, b = _as_result(a), _as_result(b)
    if a.modality != b.modality:
        raise ModalityMismatch("cannot compare results of different modalities")
    worlds = _named_worlds(alg)
    if worlds is None:
        return _equal_weights(a, b, tol)
    for world in worlds:
        oa = outcome_at(alg, a, world)
        ob = outcome_at(alg, b, world)
        if oa != ob:
            return False, f"diverges at {alg.world_text(world)}: {oa!r} vs {ob!r}"
    return True, None


# --------------------------------------------------------------------------
# Random programs and bindings (seeded, for the verification sweeps)
# --------------------------------------------------------------------------

_FEATURE_POOL = ("FA", "FB", "FC", "FD")


def random_bindings(rng, kind: str, *, max_features: int = 4, max_vars: int = 4):
    """A fresh algebra plus well-formed random bindings for it."""
    if kind == "feature":
        alg = FeatureAlgebra(_FEATURE_POOL[: rng.randint(1, max_features)])
        configs = list(alg.iter_configs())
        bindings = {}
        for i in range(rng.randint(1, max_vars)):
            if rng.random() < 0.3:
                mv = make_const(alg, rng.randint(-8, 8))
            else:
                pool = [rng.randint(-8, 8) for _ in range(rng.randint(1, 3))]
                pairs = [(rng.choice(pool), alg.minterm(c)) for c in configs]
                mv = normalize(alg, ModalValue(tuple(pairs), alg.kind))
            bindings[f"x{i}"] = mv
        return alg, bindings
    if kind == "interval":
        alg = IntervalAlgebra()
        bindings = {}
        for i in range(rng.randint(1, max_vars)):
            lo = rng.randint(-8, 8)
            hi = rng.randint(lo, 8)
            bindings[f"x{i}"] = normalize(alg, ModalValue(((lo, Tag.MIN), (hi, Tag.MAX)), alg.kind))
        return alg, bindings
    alg = ProbabilityAlgebra()
    bindings = {}
    for i in range(rng.randint(1, max_vars)):
        support = rng.sample(range(-8, 9), rng.randint(1, 3))
        raw = [rng.randint(1, 5) for _ in support]
        total = sum(raw)
        pairs = tuple((v, w / total) for v, w in zip(support, raw))
        bindings[f"x{i}"] = normalize(alg, ModalValue(pairs, alg.kind))
    return alg, bindings


class _ProgramGen:
    """Small well-scoped programs; with ``linear`` every variable (modal,
    let-bound, or parameter) is referenced at most once."""

    def __init__(self, rng, alg, binding_names, *, linear: bool, max_depth: int):
        self.rng = rng
        self.features = alg.features
        self.linear = linear
        self.max_depth = max_depth
        self.pool = list(binding_names)
        self.fresh = 0
        self.fundefs: list = []

    def _take_var(self, scope):
        names = scope if scope is not None else self.pool
        if not names:
            return None
        name = self.rng.choice(names)
        if self.linear:
            names.remove(name)
        return name

    def _int_lit(self, lo, hi):
        # negative literals take the parser's shape (unary minus desugars
        # to 0 - n), so generated programs round-trip through render/parse
        v = self.rng.randint(lo, hi)
        if v < 0:
            return lang.BinOp("-", lang.IntLit(0), lang.IntLit(-v))
        return lang.IntLit(v)

    def gen_int(self, depth, scope=None):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.28:
            name = self._take_var(scope) if rng.random() < 0.6 else None
            if name is not None:
                return lang.Var(name)
            return self._int_lit(-9, 9)
        if roll < 0.62:
            op = rng.choice(("+", "-", "*", "/"))
            lhs = self.gen_int(depth - 1, scope)
            rhs = self.gen_int(depth - 1, scope)
            if op == "/" and rhs == lang.IntLit(0):
                rhs = lang.IntLit(rng.randint(1, 4))
            return lang.BinOp(op, lhs, rhs)
        if roll < 0.76:
            return lang.If(
                self.gen_bool(depth - 1, scope),
                self.gen_int(depth - 1, scope),
                self.gen_int(depth - 1, scope),
            )
        if roll < 0.88 and depth >= 2:
            name = f"t{self.fresh}"
            self.fresh += 1
            bound = self.gen_int(depth - 1, scope)
            if scope is not None:
                scope.append(name)
                body = self.gen_int(depth - 1, scope)
                if name in scope:
                    scope.remove(name)
            else:
                self.pool.append(name)
                body = self.gen_int(depth - 1, scope)
                if name in self.pool:
                    self.pool.remove(name)
            return lang.Let(name, bound, body)
        if self.fundefs:
            fd = self.rng.choice(self.fundefs)
            args = tuple(self.gen_int(depth - 1, scope) for _ in fd.params)
            return lang.Call(fd.name, args)
        return self._int_lit(-9, 9)

    def gen_bool(self, depth, scope=None):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.1:
            return lang.BoolLit(rng.random() < 0.5)
        if roll < 0.55:
            op = rng.choice(("<", "<=", "=="))
            return lang.BinOp(op, self.gen_int(depth - 1, scope), self.gen_int(depth - 1, scope))
        if roll < 0.7 and self.features:
            return lang.Feature(rng.choice(self.features))
        if roll < 0.8:
            return lang.Not(self.gen_bool(depth - 1, scope))
        op = rng.choice(("&&", "||"))
        return lang.BinOp(op, self.gen_bool(depth - 1, scope), self.gen_bool(depth - 1, scope))

    def gen_program(self) -> lang.Program:
        for i in range(self.rng.randint(0, 2)):
            params = [f"p{j}" for j in range(self.rng.randint(1, 2))]
            body = self.gen_int(3, scope=list(params))
            self.fundefs.append(lang.FunDef(f"f{i}", tuple(params), body))
        main = self.gen_int(self.max_depth, scope=None)
        return lang.Program(tuple(self.fundefs), main)


def random_program(rng, alg, bindings, *, linear: bool = False, max_depth: int = 6) -> lang.Program:
    """A random well-scoped, non-recursive program over the given bindings."""
    gen = _ProgramGen(rng, alg, list(bindings), linear=linear, max_depth=max_depth)
    return gen.gen_program()
