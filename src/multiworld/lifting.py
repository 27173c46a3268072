"""Shallow lifting: apply an ordinary function across modal arguments.

The cross product of the argument pair-sets is enumerated lexicographically
by argument position.  Each tuple's labels are met together; tuples whose
combined label denotes no world are pruned, every surviving tuple gets one
real application of the function, and per-world failures become labeled
error pairs instead of aborting the whole call.  The result is normalized,
so equal outputs from different tuples share one pair.

``restrict`` and ``partial_union`` are the two combinators the deep
evaluator builds conditionals from: restriction narrows a value to a path
condition, and union stitches complementary branch results back together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .errors import ArityMismatch, DisjointnessViolation, EvalError, ModalityMismatch
from .modal import (
    ModalResult,
    ModalValue,
    merge_error_pairs,
    merge_value_pairs,
    normalize_result,
)


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


def _parts(obj):
    if isinstance(obj, ModalResult):
        return obj.values, obj.errors, True
    return obj.pairs, (), False


def restrict(alg, obj, context):
    """Meet every label with ``context``; drop pairs that empty out.

    The result is partial: it is total relative to ``context``, not to the
    full world set.  ``context=None`` means no restriction.
    """
    if context is None:
        return obj
    values, errors, is_result = _parts(obj)
    new_values = merge_value_pairs(
        alg, [(v, alg.meet(label, context)) for v, label in values]
    )
    new_errors = merge_error_pairs(
        alg, [(k, alg.meet(label, context)) for k, label in errors]
    )
    if is_result:
        return ModalResult(new_values, new_errors, obj.modality)
    return ModalValue(new_values, obj.modality)


def partial_union(alg, a, b, *, check: bool = False, interval_empty: str = "reject"):
    """Concatenate two partial results covering disjoint world sets.

    With ``check`` on, every cross pairing of labels is verified to have an
    empty meet first.
    """
    av, ae, a_result = _parts(a)
    bv, be, b_result = _parts(b)
    if check:
        for _, l1 in list(av) + list(ae):
            for _, l2 in list(bv) + list(be):
                if not alg.is_empty(alg.meet(l1, l2)):
                    raise DisjointnessViolation(
                        f"overlap between {alg.canonical_text(l1)} "
                        f"and {alg.canonical_text(l2)}"
                    )
    merged = normalize_result(
        alg,
        ModalResult(tuple(av) + tuple(bv), tuple(ae) + tuple(be), alg.kind),
        interval_empty=interval_empty,
    )
    if not (a_result or b_result) and not merged.errors:
        return ModalValue(merged.values, alg.kind)
    return merged
