"""Modal values: finite sets of labeled variants, one value per world.

A ``ModalValue`` pairs plain values (64-bit ints or bools) with labels from
one algebra.  A well-formed modal value is *disjoint* (no world gets two
values) and *total* (every world gets one).  A ``ModalResult`` additionally
carries labeled runtime errors; values and errors are jointly disjoint and
total, so a division by zero in some worlds never poisons the rest.

Normalization is the sharing mechanism of the whole package: pairs carrying
the same value are merged by joining their labels, so results stay compact
no matter how many worlds produced them.  An algebra with
``merge_per_label`` (interval) keeps pairs with different labels apart: a
range is exactly two pairs.  Every per-modality rule here is a call into
the algebra (see ``labels.Algebra``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyModalValue, InvariantViolation
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

    Under ``alg.merge_per_label`` the key is (item, label): interval
    ``(5, MIN)`` and ``(5, MAX)`` stay distinct.
    """
    per_tag = alg.merge_per_label
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


def _inverted(alg, value_pairs, error_pairs):
    """The (MIN, MAX) values of a range whose MAX sits below its MIN."""
    ends = alg.endpoints(value_pairs, error_pairs)
    if ends and value_key(ends[1]) < value_key(ends[0]):
        return ends
    return None


def _swap_inverted(alg, value_pairs, error_pairs) -> tuple:
    """Interval ``swap`` repair: if the MAX value sits below the MIN value,
    exchange the two values (the tags stay where they are)."""
    ends = _inverted(alg, value_pairs, error_pairs)
    if ends:
        return ((ends[1], Tag.MIN), (ends[0], Tag.MAX))
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
        shape = alg.shape_problem(label)
        if shape:
            problems.append(shape)
        if alg.is_empty(label):
            problems.append(f"empty label: {alg.canonical_text(label)}")
    return problems


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
        problems.extend(alg.problems(labels_))

    if not problems and interval_empty == "reject":
        ends = _inverted(alg, value_pairs, error_pairs)
        if ends:
            problems.append(
                f"empty range: MAX value {value_text(ends[1])} "
                f"< MIN value {value_text(ends[0])}"
            )

    return ValidationReport(not problems, tuple(problems))


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------

def project(alg, mv: ModalValue, world) -> Value:
    """The unique value a modal value takes at one world."""
    matches = [v for v, label in mv.pairs if alg.covers(label, world)]
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
    ends = alg.endpoints(result.values, result.errors)
    if ends:
        return [f"[{value_text(ends[0])} .. {value_text(ends[1])}]"]
    lines = [f"{value_text(v)} @ {fmt(label)}" for v, label in result.values]
    lines.extend(f"error:{kind} @ {fmt(label)}" for kind, label in result.errors)
    return lines


def render_value(alg, mv: ModalValue, label_text=None) -> list:
    return render_result(alg, ModalResult(mv.pairs, (), mv.modality), label_text)
