"""Shallow lifting: apply an ordinary function across modal arguments.

The cross product of the argument pair-sets is enumerated lexicographically
by argument position.  Each tuple's labels are met together; tuples whose
combined label denotes no world are pruned, every surviving tuple gets one
real application of the function, and per-world failures become labeled
error pairs instead of aborting the whole call.  The result is normalized,
so equal outputs from different tuples share one pair.

``restrict`` narrows a value to a path condition; the deep evaluator
reads every variable and constant through it.  Results that cover
disjoint parts of the worlds are united by concatenating their pairs and
normalizing (``modal.normalize_result``), which is what the deep evaluator
does at every node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .errors import ArityMismatch, EvalError, ModalityMismatch
from .modal import ModalResult, ModalValue, normalize_result


@dataclass(frozen=True)
class PrimitiveFn:
    """A deterministic plain function of ``arity`` values.

    ``fn`` either returns a value or raises ``EvalError`` with a per-world
    error kind.
    """

    name: str
    arity: int
    fn: object


@dataclass
class LiftStats:
    """Counters for one evaluation context.

    ``applied + pruned == tuples`` always holds: ``applied`` counts only
    cross-product tuples that reached a real application, while
    ``applications`` also tallies named function calls made outside the
    cross-product machinery (user functions during deep evaluation, every
    operator during plain runs).  ``sat_calls`` is copied from the
    algebra's count of emptiness checks.
    """

    applications: Counter = field(default_factory=Counter)
    tuples: int = 0
    pruned: int = 0
    applied: int = 0
    sat_calls: int = 0

    def total_applications(self) -> int:
        return sum(self.applications.values())


def shallow_apply(alg, f: PrimitiveFn, args, stats: LiftStats | None = None,
                  *, interval_empty: str = "reject") -> ModalResult:
    """Apply ``f`` across the pruned cross product of modal arguments."""
    if len(args) != f.arity:
        raise ArityMismatch(f"{f.name} takes {f.arity} argument(s), got {len(args)}")
    for mv in args:
        if mv.modality != alg.kind:
            raise ModalityMismatch(
                f"argument of modality {mv.modality!r} under {alg.kind!r}"
            )
    if stats is None:
        stats = LiftStats()

    out_values = []
    out_errors = []
    for combo in product(*[mv.pairs for mv in args]):
        label = combo[0][1]
        for _, l in combo[1:]:
            label = alg.meet(label, l)
        stats.tuples += 1
        if alg.is_empty(label):
            stats.pruned += 1
            continue
        stats.applied += 1
        stats.applications[f.name] += 1
        try:
            out_values.append((f.fn(*[v for v, _ in combo]), label))
        except EvalError as ex:
            out_errors.append((ex.kind, label))

    return normalize_result(
        alg,
        ModalResult(tuple(out_values), tuple(out_errors), alg.kind),
        interval_empty=interval_empty,
    )


def _within(alg, pairs, context) -> tuple:
    out = []
    for item, label in pairs:
        met = alg.meet(label, context)
        if not alg.is_empty(met):
            out.append((item, met))
    return tuple(out)


def restrict(alg, obj, context):
    """Meet every label with ``context``; drop pairs that empty out.

    ``obj`` is a ModalValue, a ModalResult, or a bare sequence of
    (item, label) pairs, as the deep evaluator holds them.  The result is
    partial: it is total relative to ``context``, not to the full world
    set.  ``context=None`` means no restriction.  Pairs keep their order,
    so a normalized input stays normalized.
    """
    if context is None:
        return obj
    if isinstance(obj, ModalResult):
        return ModalResult(
            _within(alg, obj.values, context), _within(alg, obj.errors, context), obj.modality
        )
    if isinstance(obj, ModalValue):
        return ModalValue(_within(alg, obj.pairs, context), obj.modality)
    return _within(alg, obj, context)
