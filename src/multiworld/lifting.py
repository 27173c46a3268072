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

``apply_pairs`` lifts only where values vary: an operand that holds one
pair at the path condition its operands were evaluated under adds no
dimension.  With no varying operand ``f`` applies once (``_apply_at``),
with one it maps over that operand's pairs, and only two or more are
crossed.  ``shallow_apply`` wraps ``apply_pairs`` for ``ModalValue``
arguments: it lifts them as a deep run lifts its inputs
(``labels.Algebra.lift``) and lowers its result, so every function here
sees world-set labels only.

``restrict`` narrows (item, label) pairs to a path condition and keeps
normalized pairs normalized, so the deep evaluator reads every variable
that holds two or more pairs through it unmerged; it merges only where it
unites two or more parts.
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

    ``applied`` is ``tuples - pruned``: it counts only cross-product tuples
    that reached a real application, while ``applications`` also tallies
    named function calls made outside the cross-product machinery (user
    functions during deep evaluation, every operator during plain runs).
    The algebra counts emptiness checks itself (``sat_calls``).
    """

    applications: Counter = field(default_factory=Counter)
    tuples: int = 0
    pruned: int = 0

    @property
    def applied(self) -> int:
        return self.tuples - self.pruned

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
        yield label, [item for item, _ in combo]


def _runs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats):
    """The ``collect_outcomes`` runs of ``f`` over the pruned cross product."""
    for label, args in cross(alg, pair_lists, stats):
        stats.applications[f.name] += 1
        yield label, f.fn, args


def _mapped(f: PrimitiveFn, pair_lists, i: int, stats: LiftStats):
    """The ``collect_outcomes`` runs of ``f`` over the pairs of operand
    ``i``, each other operand at its one value."""
    before = [pairs[0][0] for pairs in pair_lists[:i]]
    after = [pairs[0][0] for pairs in pair_lists[i + 1:]]
    varying = pair_lists[i]
    if varying:  # as in ``cross``, an empty operand counts nothing
        stats.tuples += len(varying)
        stats.applications[f.name] += len(varying)
    for item, label in varying:
        yield label, f.fn, (*before, item, *after)


def _apply_at(f: PrimitiveFn, args, label, stats: LiftStats) -> tuple:
    """The (value pairs, error pairs) of one application of ``f`` at
    ``label``, counted as one tuple applied."""
    stats.tuples += 1
    stats.applications[f.name] += 1
    try:
        return ((f.fn(*args), label),), ()
    except EvalError as ex:
        return (), ((ex.kind, label),)


def apply_pairs(alg, f: PrimitiveFn, pair_lists, stats: LiftStats, ctx) -> tuple:
    """The merged (value pairs, error pairs) of ``f`` over the pruned cross
    product of ``pair_lists``, whose labels lie inside the path condition
    ``ctx``.  An operand holding one pair at ``ctx`` prunes nothing, so
    it is not crossed."""
    varying = [i for i, pairs in enumerate(pair_lists) if len(pairs) != 1 or pairs[0][1] != ctx]
    if not varying:
        return _apply_at(f, [pairs[0][0] for pairs in pair_lists], ctx, stats)
    if len(varying) == 1:
        return collect_outcomes(alg, _mapped(f, pair_lists, varying[0], stats))
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
    values, errors = apply_pairs(lifted, f, list(scope.values()), stats, lifted.top)
    return ModalResult(lifted.lower(values), lifted.lower(errors), alg.kind)


def restrict(alg, pairs, context) -> tuple:
    """Meet every label of ``pairs`` with ``context``; drop pairs that
    empty out.

    ``pairs`` is a sequence of (item, label) pairs, as the deep evaluator
    holds them.  The result is total relative to the label ``context``, not
    to every world; a context of every world restricts nothing.  Pairs keep
    their order, so a normalized input stays normalized.
    """
    if context == alg.top:
        return pairs
    out = []
    for item, label in pairs:
        met = alg.meet(label, context)
        if not alg.is_empty(met):
            out.append((item, met))
    return tuple(out)
