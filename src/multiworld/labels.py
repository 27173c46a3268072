"""Label algebras: how sets of worlds intersect, union, and empty out.

A label annotates one variant inside a modal value and denotes the set of
worlds where that variant holds.  Three interchangeable algebras cover the
three supported modalities:

* ``FeatureAlgebra`` -- labels are sets of configurations of a declared,
  ordered set of feature names, held as 2^k-bit ints; a world is a total
  true/false configuration of those features.  Intersection, union and
  complement are bitwise operations and a label is empty when it is 0.
* ``ProbabilityAlgebra`` -- labels are weights in [0, 1].  Worlds are
  quantified rather than named; combining weights assumes independence
  (intersection multiplies, union of disjoint sets adds).
* ``IntervalAlgebra`` -- labels are the two endpoint tags MIN and MAX.
  The EMPTY tag only arises as the meet of mismatched tags; it never
  appears inside a valid modal value.

Labels are immutable values.  ``FeatureExpr`` formulas are output syntax
only: the bindings parser folds label text straight into world sets.

Besides meet, join and emptiness, every algebra answers the questions on
which the modalities differ (``Algebra`` lists them): the evaluators,
validation, the oracle and the command line ask the algebra instead of
testing which modality they run under.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

from .errors import (
    IntervalJoinMismatch,
    MissingConfig,
    ProbabilityOverflow,
    ProjectionUnsupported,
    TooManyFeatures,
    UndeclaredFeature,
)


# --------------------------------------------------------------------------
# Feature expressions
# --------------------------------------------------------------------------

class FeatureExpr:
    """A propositional formula over feature names, printed by
    ``feature_text``; labels themselves are world sets."""


@dataclass(frozen=True)
class FTrue(FeatureExpr):
    pass


@dataclass(frozen=True)
class FFalse(FeatureExpr):
    pass


@dataclass(frozen=True)
class FVar(FeatureExpr):
    name: str


@dataclass(frozen=True)
class FNot(FeatureExpr):
    arg: FeatureExpr


@dataclass(frozen=True)
class FAnd(FeatureExpr):
    lhs: FeatureExpr
    rhs: FeatureExpr


@dataclass(frozen=True)
class FOr(FeatureExpr):
    lhs: FeatureExpr
    rhs: FeatureExpr


TRUE = FTrue()
FALSE = FFalse()


def feature_text(expr: FeatureExpr) -> str:
    """Deterministic, fully parenthesized rendering: ``!``, ``&``, ``|``."""
    if isinstance(expr, FTrue):
        return "true"
    if isinstance(expr, FFalse):
        return "false"
    if isinstance(expr, FVar):
        return expr.name
    if isinstance(expr, FNot):
        return "!" + feature_text(expr.arg)
    if isinstance(expr, FAnd):
        return f"({feature_text(expr.lhs)} & {feature_text(expr.rhs)})"
    if isinstance(expr, FOr):
        return f"({feature_text(expr.lhs)} | {feature_text(expr.rhs)})"
    raise TypeError(f"not a feature expression: {expr!r}")


def and_all(exprs) -> FeatureExpr:
    """Left fold of conjunction; empty input means the full world set."""
    out = None
    for e in exprs:
        out = e if out is None else FAnd(out, e)
    return TRUE if out is None else out


def or_all(exprs) -> FeatureExpr:
    """Left fold of disjunction; empty input means the empty world set."""
    out = None
    for e in exprs:
        out = e if out is None else FOr(out, e)
    return FALSE if out is None else out


def _fold_text(op: str, texts) -> str:
    """``feature_text`` of the left fold (``and_all``/``or_all``) of
    non-empty operand texts, built without recursion."""
    return "(" * (len(texts) - 1) + texts[0] + "".join(f" {op} {t})" for t in texts[1:])


# a label takes 2^k bits, so no algebra declares more features than this,
# whatever its feature_limit (4 MB per label at the cap)
_BITSET_FEATURE_CAP = 25

# above this many features, display falls back from a minimal DNF, whose
# prime implicant table takes 4^k bits, to the cubes of a Shannon split
_DNF_FEATURE_CAP = 12


def _members(bits: int):
    """Positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# --------------------------------------------------------------------------
# The three algebras
# --------------------------------------------------------------------------

class Algebra:
    """What every algebra offers besides ``meet``/``join``/``is_empty``.

    * ``minus(ctx, labels)`` -- the path condition ``ctx`` (``None``: every
      world) without the worlds of ``labels``; empty when none are left.
    * ``covers(label, world)`` -- does the label hold at one named world?
    * ``worlds()`` -- the named worlds, lazily, or ``None`` when labels are
      weights that name no world; ``minterm(world)`` is the label holding
      exactly that world, ``world_text`` prints it, ``parse_world`` reads
      the ``--config`` text naming one.
    * ``problems(labels, within=ctx)`` -- why labels fail to partition
      ``ctx`` (default: every world): overlaps first, then gaps.
    * ``shape_problem(label)`` -- why a label is not one of this algebra.
    * ``endpoints(values, errors)`` -- the (MIN, MAX) values of a complete
      range, or ``None``.
    * ``merge_per_label`` -- pairs merge on (item, label) instead of item.
    * ``features`` -- the declared feature names (none but for features);
      ``sat_calls`` -- the emptiness checks made (only features count).
    """

    features = ()
    merge_per_label = False
    sat_calls = 0

    def endpoints(self, values, errors=()):
        return None


class _Config(dict):
    """A configuration that knows its position in a label's bits."""

    __slots__ = ("position",)


class FeatureAlgebra(Algebra):
    """Labels are world sets over a fixed, ordered set of feature names.

    A label is an int: bit ``p`` is set iff configuration ``p`` is in the
    set, where bit ``i`` of ``p`` is the value of ``features[i]``.  Equal
    world sets are equal ints.  A feature's mask is built on first use.
    No ``feature_limit`` admits more than ``_BITSET_FEATURE_CAP`` features.
    ``sat_calls`` counts emptiness checks.
    """

    kind = "feature"

    def __init__(self, features, feature_limit: int = 24):
        features = tuple(features)
        if len(set(features)) != len(features):
            raise ValueError(f"duplicate feature names: {features}")
        if len(features) > feature_limit:
            raise TooManyFeatures(
                f"{len(features)} features declared, limit is {feature_limit}"
            )
        if len(features) > _BITSET_FEATURE_CAP:
            raise TooManyFeatures(
                f"{len(features)} features declared, at most {_BITSET_FEATURE_CAP} "
                f"fit in a label (a set of 2^k configurations)"
            )
        self.features = features
        self._index = {name: i for i, name in enumerate(features)}
        self._masks: dict = {}
        self.top = (1 << (1 << len(features))) - 1
        self.sat_calls = 0

    def _mask(self, i: int) -> int:
        """The configurations where ``features[i]`` is true."""
        mask = self._masks.get(i)
        if mask is None:
            width = 1 << i  # runs of 2^i zeros, then 2^i ones, repeated
            mask = ((1 << width) - 1) << width
            width *= 2
            while width < 1 << len(self.features):
                mask |= mask << width
                width *= 2
            self._masks[i] = mask
        return mask

    def _position(self, config) -> int:
        if isinstance(config, _Config):
            return config.position
        return sum(1 << i for i, name in enumerate(self.features) if config[name])

    def var(self, name: str) -> int:
        if name not in self._index:
            known = ", ".join(self.features) or "none"
            raise UndeclaredFeature(f"feature {name!r} not declared (declared: {known})")
        return self._mask(self._index[name])

    def top_labels(self) -> tuple:
        return (self.top,)

    def meet(self, l1: int, l2: int) -> int:
        return l1 & l2

    def join(self, l1: int, l2: int) -> int:
        return l1 | l2

    def complement(self, label: int) -> int:
        return self.top ^ label

    def is_empty(self, label: int) -> bool:
        self.sat_calls += 1
        return label == 0

    def minus(self, ctx, labels) -> int:
        left = self.complement(functools.reduce(self.join, labels, 0))
        return left if ctx is None else ctx & left

    def holds(self, label: int, config) -> bool:
        return bool(label >> self._position(config) & 1)

    def covers(self, label: int, world) -> bool:
        if not isinstance(world, _Config) and set(world) != set(self.features):
            raise ValueError(f"configuration must assign every declared feature: {world}")
        return self.holds(label, world)

    def iter_configs(self):
        """All 2^k configurations, last declared feature varying fastest."""
        k = len(self.features)
        bits = itertools.product((False, True), repeat=k)
        positions = itertools.product(*[(0, 1 << i) for i in range(k)])
        for values, parts in zip(bits, positions):
            config = _Config(zip(self.features, values))
            config.position = sum(parts)
            yield config

    worlds = iter_configs

    def minterm(self, config) -> int:
        """The world set holding exactly one configuration."""
        return 1 << self._position(config)

    def first_config(self, label: int) -> dict:
        """The first configuration of a non-empty label in ``iter_configs``
        order: each feature false if the rest of the label allows it."""
        config = {}
        for i, name in enumerate(self.features):
            mask = self._mask(i)
            config[name] = not (label & ~mask)
            label &= mask if config[name] else ~mask
        return config

    def world_text(self, config) -> str:
        return "{" + ", ".join(f"{n}={int(config[n])}" for n in self.features) + "}"

    def parse_world(self, text):
        """A configuration from ``FA=1,FB=0`` text naming every feature."""
        config = {}
        for part in text.split(",") if text else ():
            name, _, raw = part.partition("=")
            raw = raw.strip().lower()
            if raw not in ("0", "1", "true", "false"):
                raise MissingConfig(f"bad configuration entry {part!r}")
            config[name.strip()] = raw in ("1", "true")
        missing = set(self.features) - set(config)
        extra = set(config) - set(self.features)
        if missing or extra:
            raise MissingConfig(
                f"configuration must assign exactly the declared features "
                f"(missing {sorted(missing)}, unknown {sorted(extra)})"
            )
        return config

    def shape_problem(self, label):
        if not isinstance(label, int) or label & ~self.top:
            return "label is not a set of the declared configurations"
        return None

    def problems(self, labels, within=None) -> list:
        out = []
        for a, b in itertools.combinations(labels, 2):
            if not self.is_empty(a & b):
                out.append(f"labels overlap: {self.canonical_text(a)} and {self.canonical_text(b)}")
                break
        gap = self.minus(within, labels)
        if not self.is_empty(gap):
            out.append(f"configuration {self.world_text(self.first_config(gap))} is uncovered")
        return out

    # -- display -----------------------------------------------------------

    def canonical_text(self, label: int) -> str:
        """A sum of products denoting the label's world set.

        Up to ``_DNF_FEATURE_CAP`` features it is a minimal one: the
        essential prime implicants plus a greedy cover of the rest, with
        the products sorted by text.  Above the cap it is the disjoint
        cubes of a Shannon split in declared-feature order.
        """
        if label == 0:
            return "false"
        if label == self.top:
            return "true"
        if len(self.features) > _DNF_FEATURE_CAP:
            return _fold_text("|", self._shannon_cubes(label))
        return _fold_text("|", sorted(self._minimal_cover(label)))

    def _cube_text(self, bits: int, dont_care: int) -> str:
        return _fold_text("&", [
            name if bits >> i & 1 else "!" + name
            for i, name in enumerate(self.features)
            if not dont_care >> i & 1
        ])

    def _prime_cubes(self, label: int) -> list:
        """Every prime implicant as (bits, dont_care), computed over the
        truth table.  ``table[dc]`` has bit ``p`` set iff the cube that
        fixes the features outside ``dc`` to their values in ``p`` (whose
        ``dc`` bits are 0) lies inside the label."""
        k = len(self.features)
        table = [label]
        for dc in range(1, 1 << k):
            low = dc & -dc
            half = table[dc ^ low]
            table.append(half & (half >> low) & ~self._mask(low.bit_length() - 1))
        primes = []
        for dc, cubes in enumerate(table):
            absorbed = 0
            for i in range(k):
                if not dc >> i & 1:
                    wider = table[dc | 1 << i]
                    absorbed |= wider | wider << (1 << i)
            primes.extend((bits, dc) for bits in _members(cubes & ~absorbed))
        return primes

    def _minimal_cover(self, label: int) -> list:
        """Texts of the products of a minimal-ish cover of the label."""
        width = len(self.features)
        primes = self._prime_cubes(label)
        text = {p: self._cube_text(*p) for p in primes}
        cover_of = {}
        for bits, dc in primes:
            cover = 1 << bits
            for i in _members(dc):
                cover |= cover << (1 << i)
            cover_of[bits, dc] = cover
        order = sorted(primes, key=lambda p: (width - p[1].bit_count(), text[p]))
        once = twice = 0
        for cover in cover_of.values():
            twice |= once & cover
            once |= cover
        # essential primes: those covering a minterm no other prime covers
        chosen = {p for p in primes if cover_of[p] & once & ~twice}
        uncovered = label
        for p in chosen:
            uncovered &= ~cover_of[p]
        while uncovered:
            # the first prime in order that covers the most uncovered minterms
            order = [p for p in order if cover_of[p] & uncovered]
            best = max(order, key=lambda p: (cover_of[p] & uncovered).bit_count())
            chosen.add(best)
            uncovered &= ~cover_of[best]
        return [text[p] for p in chosen]

    def _shannon_cubes(self, label: int) -> list:
        """Texts of the disjoint cubes that a Shannon split in declared
        order ends in, false branch first.  A feature the remaining part
        of the label does not depend on is not split on."""
        # the truth table as text, configuration p at index p: fixing the
        # lowest remaining feature keeps every other character, so each
        # step works on a table half the size of the one it splits
        table = format(label, "b").zfill(1 << len(self.features))[::-1]
        cubes = []
        stack = [(table, 0, [])]
        while stack:
            table, i, lits = stack.pop()
            if "0" not in table:
                cubes.append(_fold_text("&", lits))
            elif "1" in table:
                while table[0::2] == table[1::2]:
                    table, i = table[0::2], i + 1
                name = self.features[i]
                stack.append((table[1::2], i + 1, lits + [name]))
                stack.append((table[0::2], i + 1, lits + ["!" + name]))
        return cubes


class ProbabilityAlgebra(Algebra):
    """Labels are weights in [0, 1]; combination assumes independence."""

    kind = "probability"
    empty_eps = 1e-12
    tol = 1e-9

    def top_labels(self) -> tuple:
        return (1.0,)

    @property
    def top(self) -> float:
        return 1.0

    def meet(self, l1: float, l2: float) -> float:
        return l1 * l2

    def join(self, l1: float, l2: float) -> float:
        s = l1 + l2
        if s > 1.0 + self.tol:
            raise ProbabilityOverflow(f"joined weights sum to {s!r} > 1.0")
        return min(s, 1.0)

    def is_empty(self, label: float) -> bool:
        return label < self.empty_eps

    def covers(self, label: float, world) -> bool:
        raise ProjectionUnsupported("probability labels do not name worlds")

    def worlds(self):
        return None

    def shape_problem(self, label):
        if not 0.0 <= label <= 1.0 + self.tol:
            return f"weight {label!r} outside [0, 1]"
        return None

    def problems(self, labels, within=None) -> list:
        """Weights must add up to 1; every probabilistic evaluation runs in
        a mass-1 frame, so there is no narrower ``within``."""
        total = sum(labels)
        out = []
        if total > 1.0 + self.tol:
            out.append(f"weights sum to {total:.12g} > 1")
        if abs(1.0 - total) > self.tol:
            out.append(f"totality gap {1.0 - total:+.9g}")
        return out

    def canonical_text(self, label: float) -> str:
        return f"{label:.9f}"


class Tag(enum.Enum):
    MIN = "MIN"
    MAX = "MAX"
    EMPTY = "EMPTY"


_ENDPOINTS = (Tag.MIN, Tag.MAX)


class IntervalAlgebra(Algebra):
    """Labels are the MIN/MAX endpoint tags of a range.

    A path condition is one tag, or ``None`` for both; pairs merge per tag,
    since a range always keeps both endpoints.
    """

    kind = "interval"
    merge_per_label = True

    def top_labels(self) -> tuple:
        # no single label covers both endpoint worlds
        return _ENDPOINTS

    def meet(self, l1: Tag, l2: Tag) -> Tag:
        return l1 if l1 is l2 else Tag.EMPTY

    def join(self, l1: Tag, l2: Tag) -> Tag:
        if l1 is l2:
            return l1
        if l1 is Tag.EMPTY:
            return l2
        if l2 is Tag.EMPTY:
            return l1
        raise IntervalJoinMismatch(f"cannot join {l1.value} with {l2.value}")

    def is_empty(self, label: Tag) -> bool:
        return label is Tag.EMPTY

    def minus(self, ctx, labels):
        left = [t for t in (_ENDPOINTS if ctx is None else (ctx,)) if t not in labels]
        if len(left) == 2:
            return None
        return left[0] if left else Tag.EMPTY

    def covers(self, label: Tag, world: Tag) -> bool:
        return label is world

    def worlds(self):
        return _ENDPOINTS

    def minterm(self, world: Tag) -> Tag:
        return world

    def world_text(self, world: Tag) -> str:
        return world.value

    def parse_world(self, text) -> Tag:
        tag = (text or "").strip().upper()
        if tag not in ("MIN", "MAX"):
            raise MissingConfig("plain interval runs need --config MIN or MAX")
        return Tag(tag)

    def shape_problem(self, label):
        return "EMPTY tag inside a modal value" if label is Tag.EMPTY else None

    def problems(self, labels, within=None) -> list:
        want = _ENDPOINTS if within is None else (within,)
        if len(labels) == len(want) and set(labels) == set(want):
            return []
        ones = " and ".join(f"one {t.value}" for t in want)
        return [f"expected exactly {ones}, got {[self.canonical_text(l) for l in labels]}"]

    def endpoints(self, values, errors=()):
        if errors or len(values) != 2:
            return None
        by_tag = {label: v for v, label in values}
        if by_tag.keys() != set(_ENDPOINTS):
            return None
        return by_tag[Tag.MIN], by_tag[Tag.MAX]

    def canonical_text(self, label: Tag) -> str:
        return label.value


def algebra_for(kind: str, features=(), feature_limit: int = 24):
    """Construct the algebra named by a modality kind string."""
    if kind == "feature":
        return FeatureAlgebra(features, feature_limit=feature_limit)
    if kind == "probability":
        return ProbabilityAlgebra()
    if kind == "interval":
        return IntervalAlgebra()
    raise ValueError(f"unknown modality {kind!r}")
