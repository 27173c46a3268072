"""Modal values: finite sets of labeled variants, one value per world.

A ``ModalValue`` pairs plain values (64-bit ints or bools) with labels from
one algebra.  A well-formed modal value is *disjoint* (no world gets two
values) and *total* (every world gets one).  A ``ModalResult`` additionally
carries labeled runtime errors; values and errors are jointly disjoint and
total, so a division by zero in some worlds never poisons the rest.

Normalization is the sharing mechanism of the whole package: pairs carrying
the same value are merged by joining their labels, so results stay compact
no matter how many worlds produced them.  For the interval modality the
MIN- and MAX-tagged pairs are kept apart (a range is exactly two pairs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import EmptyModalValue, InvariantViolation, ProjectionUnsupported
from .labels import Tag

Value = int | bool


def value_key(v: Value):
    """Sort/merge key: ints first, then bools.

    bool is an int subtype in Python, so the bool test must come first or
    ``1`` and ``True`` would collapse into one variant.
    """
    if isinstance(v, bool):
        return (1, v)
    return (0, v)


def value_text(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


@dataclass(frozen=True)
class ModalValue:
    pairs: tuple
    modality: str


@dataclass(frozen=True)
class ModalResult:
    values: tuple
    errors: tuple
    modality: str


def make_const(alg, v: Value) -> ModalValue:
    """The modal value that is ``v`` in every world."""
    return ModalValue(tuple((v, label) for label in alg.top_labels()), alg.kind)


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------

def merge_pairs(alg, pairs, item_key) -> tuple:
    """Drop empty-label pairs, merge pairs with equal items by joining
    their labels in encounter order, and sort.

    Interval pairs merge per endpoint tag: ``(5, MIN)`` and ``(5, MAX)``
    stay distinct, because a range always keeps both endpoints.
    """
    per_tag = alg.kind == "interval"
    grouped: dict = {}
    for item, label in pairs:
        if alg.is_empty(label):
            continue
        key = item_key(item)
        if per_tag:
            key = (key, label)
        if key in grouped:
            prev_item, prev_label = grouped[key]
            grouped[key] = (prev_item, alg.join(prev_label, label))
        else:
            grouped[key] = (item, label)
    out = list(grouped.values())
    if per_tag:
        out.sort(key=lambda p: (item_key(p[0]), alg.canonical_text(p[1])))
    else:
        # items are unique after merging, so a tiebreak on label text would
        # never decide
        out.sort(key=lambda p: item_key(p[0]))
    return tuple(out)


def merge_value_pairs(alg, pairs) -> tuple:
    return merge_pairs(alg, pairs, value_key)


def merge_error_pairs(alg, pairs) -> tuple:
    return merge_pairs(alg, pairs, lambda kind: kind)


def _swap_inverted(alg, value_pairs, error_pairs) -> tuple:
    """Interval ``swap`` repair: if the MAX value sits below the MIN value,
    exchange the two values (the tags stay where they are)."""
    if alg.kind != "interval" or error_pairs or len(value_pairs) != 2:
        return value_pairs
    by_tag = {label: v for v, label in value_pairs}
    if set(by_tag) != {Tag.MIN, Tag.MAX}:
        return value_pairs
    if value_key(by_tag[Tag.MAX]) < value_key(by_tag[Tag.MIN]):
        repaired = [(by_tag[Tag.MAX], Tag.MIN), (by_tag[Tag.MIN], Tag.MAX)]
        repaired.sort(key=lambda p: (value_key(p[0]), alg.canonical_text(p[1])))
        return tuple(repaired)
    return value_pairs


def normalize(alg, mv: ModalValue, *, interval_empty: str = "reject") -> ModalValue:
    """Canonical form; the projection at every world is unchanged."""
    pairs = merge_value_pairs(alg, mv.pairs)
    if interval_empty == "swap":
        pairs = _swap_inverted(alg, pairs, ())
    if not pairs:
        raise EmptyModalValue("normalization dropped every pair")
    return ModalValue(pairs, mv.modality)


def normalize_result(alg, mr: ModalResult, *, interval_empty: str = "reject") -> ModalResult:
    values = merge_value_pairs(alg, mr.values)
    errors = merge_error_pairs(alg, mr.errors)
    if interval_empty == "swap":
        values = _swap_inverted(alg, values, errors)
    return ModalResult(values, errors, mr.modality)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple

    def __bool__(self) -> bool:
        return self.ok


def _label_problems(alg, labels_) -> list:
    problems = []
    for label in labels_:
        if alg.kind == "feature":
            if not isinstance(label, int) or label & ~alg.top:
                problems.append("label is not a set of the declared configurations")
        elif alg.kind == "probability":
            if not 0.0 <= label <= 1.0 + alg.tol:
                problems.append(f"weight {label!r} outside [0, 1]")
        elif alg.kind == "interval":
            if label is Tag.EMPTY:
                problems.append("EMPTY tag inside a modal value")
        if alg.is_empty(label):
            problems.append(f"empty label: {alg.canonical_text(label)}")
    return problems


def _disjoint_problems(alg, labels_) -> list:
    if alg.kind == "feature":
        out = []
        for i in range(len(labels_)):
            for j in range(i + 1, len(labels_)):
                if not alg.is_empty(alg.meet(labels_[i], labels_[j])):
                    out.append(
                        "labels overlap: "
                        f"{alg.canonical_text(labels_[i])} and "
                        f"{alg.canonical_text(labels_[j])}"
                    )
                    return out
        return out
    if alg.kind == "probability":
        total = sum(labels_)
        if total > 1.0 + alg.tol:
            return [f"weights sum to {total:.12g} > 1"]
        return []
    if not alg.check_disjoint(labels_):
        tags = [alg.canonical_text(l) for l in labels_]
        return [f"expected exactly one MIN and one MAX, got {tags}"]
    return []


def _total_problems(alg, labels_) -> list:
    if alg.check_total(labels_):
        return []
    if alg.kind == "feature":
        uncovered = alg.complement(functools.reduce(alg.join, labels_))
        first = alg.first_config(uncovered)
        missed = ", ".join(f"{n}={int(v)}" for n, v in first.items())
        return [f"configuration {{{missed}}} is uncovered"]
    if alg.kind == "probability":
        gap = 1.0 - sum(labels_)
        return [f"totality gap {gap:+.9g}"]
    tags = [alg.canonical_text(l) for l in labels_]
    return [f"expected exactly one MIN and one MAX, got {tags}"]


def validate(alg, obj, *, interval_empty: str = "reject") -> ValidationReport:
    """Check disjointness, totality, and the modality-specific shape rules.

    For a ModalResult the checks run over value labels and error labels
    jointly.  Interval values with the MAX value below the MIN value are
    rejected unless the ``swap`` policy is active (in which case
    normalization would already have repaired them).
    """
    if isinstance(obj, ModalResult):
        value_pairs, error_pairs = obj.values, obj.errors
    else:
        value_pairs, error_pairs = obj.pairs, ()

    problems = []
    if obj.modality != alg.kind:
        problems.append(f"modality {obj.modality!r} does not match {alg.kind!r}")
    all_pairs = list(value_pairs) + list(error_pairs)
    if not all_pairs:
        problems.append("no pairs at all")
        return ValidationReport(False, tuple(problems))

    labels_ = [label for _, label in all_pairs]
    problems.extend(_label_problems(alg, labels_))
    if not problems:
        problems.extend(_disjoint_problems(alg, labels_))
        problems.extend(_total_problems(alg, labels_))

    if alg.kind == "interval" and not problems and interval_empty == "reject":
        by_tag = {label: v for v, label in value_pairs}
        if set(by_tag) == {Tag.MIN, Tag.MAX}:
            if value_key(by_tag[Tag.MAX]) < value_key(by_tag[Tag.MIN]):
                problems.append(
                    f"empty range: MAX value {value_text(by_tag[Tag.MAX])} "
                    f"< MIN value {value_text(by_tag[Tag.MIN])}"
                )

    return ValidationReport(not problems, tuple(problems))


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------

def covers(alg, label, world) -> bool:
    """Does this label's world set contain the given world?"""
    if alg.kind == "feature":
        return alg.holds(label, world)
    if alg.kind == "interval":
        return label is world
    raise ProjectionUnsupported("probability labels do not name worlds")


def project(alg, mv: ModalValue, world) -> Value:
    """The unique value a modal value takes at one world."""
    if alg.kind == "probability":
        raise ProjectionUnsupported("probability labels do not name worlds")
    if alg.kind == "feature" and set(world) != set(alg.features):
        raise ValueError(f"configuration must assign every declared feature: {world}")
    matches = [v for v, label in mv.pairs if covers(alg, label, world)]
    if len(matches) != 1:
        raise InvariantViolation(
            f"world {world!r} matched {len(matches)} pairs (expected exactly 1)"
        )
    return matches[0]


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render_result(alg, result: ModalResult, label_text=None) -> list:
    """One line per pair: ``value @ label`` then ``error:KIND @ label``.

    A complete interval value renders as ``[min .. max]`` instead.
    """
    fmt = label_text or alg.canonical_text
    tags = [label for _, label in result.values]
    if (
        alg.kind == "interval"
        and not result.errors
        and len(result.values) == 2
        and set(tags) == {Tag.MIN, Tag.MAX}
    ):
        by_tag = {label: v for v, label in result.values}
        return [f"[{value_text(by_tag[Tag.MIN])} .. {value_text(by_tag[Tag.MAX])}]"]
    lines = [f"{value_text(v)} @ {fmt(label)}" for v, label in result.values]
    lines.extend(f"error:{kind} @ {fmt(label)}" for kind, label in result.errors)
    return lines


def render_value(alg, mv: ModalValue, label_text=None) -> list:
    return render_result(alg, ModalResult(mv.pairs, (), mv.modality), label_text)
