"""Shallow lifting: apply an ordinary function across modal arguments.

``apply_pairs`` takes one (value, label) pair list per argument and
enumerates their cross product lexicographically by argument position.
Each tuple's labels are met together; tuples whose combined label denotes no
world are pruned, every surviving tuple gets one real application of the
function, and per-world failures become labeled error pairs instead of
aborting the whole call.  Each output is merged once, as it arrives
(``modal.collect_outcomes``): equal outputs from different tuples share one
pair, the result is normalized with no second merge, and a wide cross
product holds one pair per distinct output, never every tuple's label.
When every list holds one pair, as in most deep applications, that tuple
is applied plainly, with no product or merge.  ``shallow_apply`` wraps
``apply_pairs`` for ``ModalValue`` arguments.

``restrict`` narrows (item, label) pairs to a path condition and keeps
normalized pairs normalized, so the deep evaluator reads every variable and
constant through it unmerged; it merges only where it unites two or more
parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .errors import ArityMismatch, EvalError, ModalityMismatch
from .modal import ModalResult, collect_outcomes


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


def _runs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats):
    """The ``collect_outcomes`` runs of ``f`` over the pruned cross product."""
    for combo in product(*pair_lists):
        label = combo[0][1]
        for _, l in combo[1:]:
            label = alg.meet(label, l)
        stats.tuples += 1
        if alg.is_empty(label):
            stats.pruned += 1
            continue
        stats.applied += 1
        stats.applications[f.name] += 1
        yield label, f.fn, [v for v, _ in combo]


def apply_pairs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats) -> tuple:
    """The merged (value pairs, error pairs) of ``f`` over the pruned cross product."""
    if all(len(pairs) == 1 for pairs in pair_lists):  # one tuple, met and tested once
        label = pair_lists[0][0][1]
        for pairs in pair_lists[1:]:
            label = alg.meet(label, pairs[0][1])
        stats.tuples += 1
        if alg.is_empty(label):
            stats.pruned += 1
            return (), ()
        stats.applied += 1
        stats.applications[f.name] += 1
        try:
            return ((f.fn(*[pairs[0][0] for pairs in pair_lists]), label),), ()
        except EvalError as ex:
            return (), ((ex.kind, label),)
    return collect_outcomes(alg, _runs(alg, f, pair_lists, stats))


def shallow_apply(alg, f: PrimitiveFn, args, stats: LiftStats | None = None) -> ModalResult:
    """Apply ``f`` across the pruned cross product of modal arguments."""
    if len(args) != f.arity:
        raise ArityMismatch(f"{f.name} takes {f.arity} argument(s), got {len(args)}")
    for mv in args:
        if mv.modality != alg.kind:
            raise ModalityMismatch(f"argument of modality {mv.modality!r} under {alg.kind!r}")
    stats = stats if stats is not None else LiftStats()
    return ModalResult(*apply_pairs(alg, f, [mv.pairs for mv in args], stats), alg.kind)


def restrict(alg, pairs, context) -> tuple:
    """Meet every label of ``pairs`` with ``context``; drop pairs that
    empty out.

    ``pairs`` is a sequence of (item, label) pairs, as the deep evaluator
    holds them.  The result is partial: it is total relative to ``context``,
    not to the full world set.  ``context=None`` means no restriction.
    Pairs keep their order, so a normalized input stays normalized.
    """
    if context is None:
        return pairs
    out = []
    for item, label in pairs:
        met = alg.meet(label, context)
        if not alg.is_empty(met):
            out.append((item, met))
    return tuple(out)
