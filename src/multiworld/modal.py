"""Modal values: finite sets of labeled variants, one value per world.

A ``ModalValue`` pairs plain values (64-bit ints or bools) with labels from
one algebra.  A well-formed modal value is *disjoint* (no world gets two
values) and *total* (every world gets one).  A ``ModalResult`` additionally
carries labeled runtime errors; values and errors are jointly disjoint and
total, so a division by zero in some worlds never poisons the rest.

Normalization is the sharing mechanism of the whole package: pairs carrying
the same value are merged by joining their labels, so results stay compact
no matter how many worlds produced them.  Error pairs merge by the same
rule, keyed on their kind.  Outcomes of runs merge once, as they arrive
(``collect_outcomes``), into normal form, and no caller merges them again.
What a caller hands out is lowered to the algebra's public form
(``labels.Algebra.lower``): an interval value keeps one pair per endpoint
there, though inside a run equal endpoints share one.  Every per-modality
rule here is a call into the algebra (see ``labels.Algebra``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyModalValue, EvalError, InvariantViolation, ModalityMismatch

Value = int | bool


def value_key(v: Value):
    """Sort/merge key: ints first, then bools; an error kind is keyed
    ``(0, kind)``, so error pairs sort by kind.

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


def bound_inputs(program, alg, bindings) -> dict:
    """The bindings that ``program``'s ``main`` reads, in first-use order,
    once ``alg`` has accepted the features the program tests.  Every
    evaluator reads only these; an unbound input fails where it is read.

    An input of another modality raises ``ModalityMismatch`` naming it.  An
    input whose labels do not partition every world (``alg.problems``: an
    overlap, a gap, weights that do not sum to 1) raises
    ``InvariantViolation`` naming it, with the text ``modal run`` prints
    for it; the test makes no emptiness check."""
    facts = program.analysis
    alg.check_features(facts.features)
    inputs = {name: bindings[name] for name in facts.inputs if name in bindings}
    for name, mv in inputs.items():
        if mv.modality != alg.kind:
            raise ModalityMismatch(
                f"binding {name!r}: modality {mv.modality!r} does not match {alg.kind!r}")
        problems = alg.problems([label for _, label in mv.pairs])
        if problems:
            raise InvariantViolation(f"binding {name!r}: " + "; ".join(problems))
    return inputs


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------

def _join_into(alg, grouped: dict, item, label) -> None:
    """Join ``label`` into ``grouped``'s entry for the item's key."""
    key = value_key(item)
    entry = grouped.get(key)
    grouped[key] = (item, label) if entry is None else (entry[0], alg.join(entry[1], label))


def _sorted_pairs(grouped: dict) -> tuple:
    """The entries of ``grouped`` by key."""
    return tuple(grouped[key] for key in sorted(grouped))


def merge_value_pairs(alg, pairs) -> tuple:
    """Merge pairs with equal items (values, or error kinds) by joining
    their labels in encounter order, and sort.  Every label must be
    non-empty: each is tested where it is made."""
    if len(pairs) < 2:  # nothing to unite
        return tuple(pairs)
    grouped: dict = {}
    for item, label in pairs:
        _join_into(alg, grouped, item, label)
    return _sorted_pairs(grouped)


def collect_outcomes(alg, runs) -> tuple:
    """The merged (value pairs, error pairs) of ``(label, fn, args)`` runs:
    what ``fn(*args)`` returns, or the kind of the ``EvalError`` it raises,
    at ``label``, which must be non-empty.

    Each outcome is merged once, as it arrives, so only one pair per
    distinct outcome is ever held; the pairs are what ``merge_value_pairs``
    gives for the value outcomes and for the error outcomes.
    """
    values: dict = {}
    errors: dict = {}
    for label, fn, args in runs:
        try:
            value = fn(*args)
        except EvalError as ex:
            _join_into(alg, errors, ex.kind, label)
        else:
            _join_into(alg, values, value, label)
    return _sorted_pairs(values), _sorted_pairs(errors)


def _inverted(ends) -> bool:
    """Does a range's MAX value sit below its MIN value?  Only ints are
    ordered: ``<`` on a bool is a TypeMismatch, so bools form no range."""
    return not any(isinstance(v, bool) for v in ends) and ends[1] < ends[0]


def normalize(alg, mv: ModalValue) -> ModalValue:
    """Canonical form; the projection at every world is unchanged.  Pairs
    may come from outside (bindings), so empty-label ones are dropped here."""
    pairs = merge_value_pairs(alg, [pair for pair in mv.pairs if not alg.is_empty(pair[1])])
    if not pairs:
        raise EmptyModalValue("normalization dropped every pair")
    return ModalValue(alg.lower(pairs), mv.modality)


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
    rejected unless the ``swap`` policy is active, which accepts them as
    they are.
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
        ends = alg.endpoints(value_pairs, error_pairs)
        if ends and _inverted(ends):
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
            f"world {alg.world_text(world)} matched {len(matches)} pairs (expected exactly 1)"
        )
    return matches[0]


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render_result(alg, result: ModalResult, label_text=None, *,
                  interval_empty: str = "reject") -> list:
    """One line per pair: ``value @ label`` then ``error:KIND @ label``.

    A complete interval value renders as ``[min .. max]`` instead; under
    the ``swap`` policy an inverted range prints its two values in order.
    Either way the result itself holds each endpoint's own value.
    """
    fmt = label_text or alg.canonical_text
    ends = alg.endpoints(result.values, result.errors)
    if ends:
        if interval_empty == "swap" and _inverted(ends):
            ends = ends[::-1]
        return [f"[{value_text(ends[0])} .. {value_text(ends[1])}]"]
    lines = [f"{value_text(v)} @ {fmt(label)}" for v, label in result.values]
    lines.extend(f"error:{kind} @ {fmt(label)}" for kind, label in result.errors)
    return lines
