"""Shallow lifting: apply an ordinary function across modal arguments.

``cross`` is the one pruned cross product of the package: it enumerates
the product of one (item, label) pair list per operand lexicographically
by operand position, meets each tuple's labels together, prunes the tuples
whose combined label denotes no world, and yields the (label, items) of
the rest.  Both lifted modes run over it: ``apply_pairs`` gives every
surviving tuple one real application of a primitive, and black-box lifting
(``modal_eval.eval_shallow_blackbox``) one plain run of the whole program.
Per-world failures become labeled error pairs instead of aborting the
whole call.  Each output is merged once, as it arrives
(``modal.collect_outcomes``): equal outputs from different tuples share one
pair, the result is normalized with no second merge, and a wide cross
product holds one pair per distinct output, never every tuple's label.
When every list holds one pair, as in most deep applications, that tuple
is applied plainly, with no merge.  ``shallow_apply`` wraps
``apply_pairs`` for ``ModalValue`` arguments: it lifts them as a deep run
lifts its inputs (``labels.Algebra.lift``) and lowers its result, so every
function here sees world-set labels only.

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
from .lang import PrimitiveFn
from .modal import ModalResult, collect_outcomes


@dataclass
class LiftStats:
    """Counters for one evaluation context.

    ``applied + pruned == tuples`` always holds: ``applied`` counts only
    cross-product tuples that reached a real application, while
    ``applications`` also tallies named function calls made outside the
    cross-product machinery (user functions during deep evaluation, every
    operator during plain runs).  The algebra counts emptiness checks
    itself (``sat_calls``).
    """

    applications: Counter = field(default_factory=Counter)
    tuples: int = 0
    pruned: int = 0
    applied: int = 0

    def total_applications(self) -> int:
        return sum(self.applications.values())


def cross(alg, pair_lists, stats: LiftStats):
    """The (label, items) of every tuple of the cross product of
    ``pair_lists`` whose met label is non-empty, counted in ``stats``."""
    for combo in product(*pair_lists):
        label = combo[0][1]
        for _, l in combo[1:]:
            label = alg.meet(label, l)
        stats.tuples += 1
        if alg.is_empty(label):
            stats.pruned += 1
            continue
        stats.applied += 1
        yield label, [item for item, _ in combo]


def _runs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats):
    """The ``collect_outcomes`` runs of ``f`` over the pruned cross product."""
    for label, args in cross(alg, pair_lists, stats):
        stats.applications[f.name] += 1
        yield label, f.fn, args


def apply_pairs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats) -> tuple:
    """The merged (value pairs, error pairs) of ``f`` over the pruned cross product."""
    if all(len(pairs) == 1 for pairs in pair_lists):  # one tuple: nothing to merge
        # the loop runs ``cross`` to its end: closing a suspended generator costs more
        outcome = (), ()
        for label, args in cross(alg, pair_lists, stats):
            stats.applications[f.name] += 1
            try:
                outcome = ((f.fn(*args), label),), ()
            except EvalError as ex:
                outcome = (), ((ex.kind, label),)
        return outcome
    return collect_outcomes(alg, _runs(alg, f, pair_lists, stats))


def shallow_apply(alg, f: PrimitiveFn, args, stats: LiftStats | None = None) -> ModalResult:
    """Apply ``f`` across the pruned cross product of modal arguments,
    lifted as independent inputs."""
    if len(args) != f.arity:
        raise ArityMismatch(f"{f.name} takes {f.arity} argument(s), got {len(args)}")
    for mv in args:
        if mv.modality != alg.kind:
            raise ModalityMismatch(f"argument of modality {mv.modality!r} under {alg.kind!r}")
    stats = stats if stats is not None else LiftStats()
    lifted, scope = alg.lift(dict(enumerate(args)))
    values, errors = apply_pairs(lifted, f, list(scope.values()), stats)
    return ModalResult(lifted.lower(values), lifted.lower(errors), alg.kind)


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
