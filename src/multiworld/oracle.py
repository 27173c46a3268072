"""Brute-force ground truth: enumerate every world, evaluate plainly.

This is the independent route the lifted evaluators are checked against.
It never touches the lifting machinery: each world is materialized as a
concrete environment (projection of every binding ``main`` reads), the
plain evaluator runs once per world, and the per-world outcomes are
aggregated back into a modal result labeled by the minterm of each named
world (features, interval) or by summed weights (probability).
"""

from __future__ import annotations

import math
from itertools import product

from . import lang
from .errors import BudgetExceeded, ModalityMismatch
from .labels import ProbabilityAlgebra, joint_support
from .modal import ModalResult, bound_inputs, collect_outcomes, project, value_key, value_text

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


def _equal_weights(a, b) -> tuple:
    """Each outcome's total weight in ``a`` against ``b``, values by
    ``value_key`` and then errors by kind; (ok, first-divergence)."""
    table: dict = {}
    for side, result in enumerate((a, b)):
        outcomes = [((0, value_key(v)), f"value {value_text(v)}", w) for v, w in result.values]
        outcomes += [((1, kind), f"error {kind}", w) for kind, w in result.errors]
        for key, shown, w in outcomes:
            table.setdefault(key, [shown, 0.0, 0.0])[1 + side] += w
    for key in sorted(table):
        shown, wa, wb = table[key]
        if abs(wa - wb) > ProbabilityAlgebra.tol:
            return False, f"{shown}: weight {wa!r} vs {wb!r}"
    return True, None


def _typed_pairs(result) -> tuple:
    """A result's pairs with each value keyed by ``value_key``, so that
    ``1`` and ``true`` stay apart."""
    return [(value_key(v), label) for v, label in result.values], result.errors


def assert_equiv(alg, a, b) -> tuple:
    """Denotational equality of two results; (ok, first-divergence).

    Results agree at every named world, or, when labels are weights, give
    every outcome the same total weight within ``ProbabilityAlgebra.tol``.
    Results with the same pairs in the same order agree at once, with no
    world walked.
    """
    a, b = _as_result(a), _as_result(b)
    if a.modality != b.modality:
        raise ModalityMismatch("cannot compare results of different modalities")
    if _typed_pairs(a) == _typed_pairs(b):
        return True, None
    worlds = _named_worlds(alg)
    if worlds is None:
        return _equal_weights(a, b)
    for world in worlds:
        oa = outcome_at(alg, a, world)
        ob = outcome_at(alg, b, world)
        if oa != ob or type(oa[1]) is not type(ob[1]):  # 1 == True in Python
            return False, f"diverges at {alg.world_text(world)}: {oa!r} vs {ob!r}"
    return True, None
