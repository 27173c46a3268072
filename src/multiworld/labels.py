"""Label algebras: how sets of worlds intersect, union, and empty out.

A label annotates one variant inside a modal value and denotes the set of
worlds where that variant holds.  Three interchangeable algebras cover the
three supported modalities:

* ``FeatureAlgebra`` -- labels are sets of configurations of a declared,
  ordered set of feature names, held as 2^k-bit ints; a world is a total
  true/false configuration of those features.
* ``IntervalAlgebra`` -- labels are sets of the two endpoint worlds MIN
  and MAX, held as 2-bit ints; ``Tag`` names the endpoint worlds as ints,
  ``Tag.MIN`` (1) and ``Tag.MAX`` (2), which are also the labels holding
  one endpoint alone.  Inside a run, equal endpoints share one pair
  labelled ``MIN|MAX`` (``lift``); bindings and results hold one pair per
  endpoint (``lower``).
* ``ProbabilityAlgebra`` -- labels are weights in [0, 1].  A world is one
  joint draw of the independent inputs a program reads; a lifted run labels
  by sets of draws (``lift``) and weighs its result's labels at the end.

Feature, interval and draw labels share one set algebra
(``WorldSetAlgebra``): intersection, union and complement are bitwise
operations and a label is empty when it is 0.  Pairs of every algebra
merge by value alone.

Labels are immutable values.  ``FeatureExpr`` formulas are output syntax
only: the bindings parser folds label text straight into world sets.

Besides meet, join and emptiness, every algebra answers the questions on
which the modalities differ (``Algebra`` lists them): the evaluators,
validation, the oracle and the command line ask the algebra instead of
testing which modality they run under.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
import unicodedata
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    MissingConfig,
    ModalityMismatch,
    ProbabilityOverflow,
    ProjectionUnsupported,
    TooManyFeatures,
    UndeclaredFeature,
)
from .modal import merge_value_pairs


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
    """Deterministic, fully parenthesized rendering: ``!``, ``&``, ``|``, from
    an explicit stack of formulas, each with how many of its texts are out."""
    out, stack = [], [(expr, 0)]
    while stack:
        e, done = stack.pop()
        if isinstance(e, (FAnd, FOr)):  # "(", lhs, the operator, rhs, ")"
            out.append(("(", " & " if isinstance(e, FAnd) else " | ", ")")[done])
            stack += ((e, done + 1), (e.rhs if done else e.lhs, 0)) if done < 2 else ()
        elif isinstance(e, FNot):
            out.append("!")
            stack.append((e.arg, 0))
        elif isinstance(e, (FVar, FTrue, FFalse)):
            out.append(e.name if isinstance(e, FVar) else "true" if isinstance(e, FTrue) else "false")
        else:
            raise TypeError(f"not a feature expression: {e!r}")
    return "".join(out)


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


# a label takes 2^k bits, so no algebra declares more features than this
# (2 MB per label at the cap)
_BITSET_FEATURE_CAP = 24

# above this many features, display falls back from a cover by prime
# implicants, which can number about 3^k / k, to the cubes of a Shannon
# split; moving the cap changes the text of labels between the old and the
# new cap
_DNF_FEATURE_CAP = 12

# the most joint draws of probability inputs that a run enumerates
JOINT_BUDGET = 10**6


def _members(bits: int):
    """Positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def joint_support(sizes) -> int:
    """The number of joint draws of inputs of ``sizes`` values; ``BudgetExceeded`` over budget."""
    count = math.prod(sizes)
    if count > JOINT_BUDGET:
        raise BudgetExceeded(f"joint support exceeds {JOINT_BUDGET} entries")
    return count


# --------------------------------------------------------------------------
# The three algebras
# --------------------------------------------------------------------------

class Algebra:
    """What every algebra offers besides ``meet``/``join``/``is_empty``.

    * ``covers(label, world)`` -- does the label hold at one named world?
    * ``worlds()`` -- the named worlds, lazily, or ``None`` when labels are
      weights that name no world; ``minterm(world)`` is the label holding
      exactly that world, ``world_text`` prints it, ``parse_world`` reads
      the ``--config`` text naming one.
    * ``problems(labels, within=ctx)`` -- why labels fail to partition
      ``ctx`` (default: every world): overlaps first, then gaps, then
      worlds a label holds outside ``ctx``.  The one partition test; it
      counts no emptiness check, so a checked run adds to ``sat_calls`` only
      ``modal.validate``'s ``empty label`` test of each result pair.
    * ``shape_problem(label)`` -- why a label is not one of this algebra.
    * ``endpoints(values, errors)`` -- the (MIN, MAX) values of a complete
      range, or ``None``.
    * ``top`` -- the label holding every world, which a constant carries.
    * ``features`` -- the declared feature names (none but for features);
      ``sat_calls`` -- the emptiness checks made.
    * ``check_features(names)`` -- reject a program that tests ``names``
      unless every one is a declared feature.
    * ``lift(inputs)`` -- the world-set algebra (``WorldSetAlgebra``) that
      every lifted run combines labels in, and each input's pairs in it:
      probability lifts to an algebra of joint draws, and interval merges a
      range's equal endpoints into one pair.  Its ``lower(pairs)`` gives the
      public form back (weights, one pair per endpoint); every result,
      binding and constant is lowered.
    """

    features = ()
    sat_calls = 0

    def endpoints(self, values, errors=()):
        return None

    def check_features(self, names) -> None:
        if names:
            raise ModalityMismatch(f"the program tests features but the modality is {self.kind!r}")

    def lift(self, inputs) -> tuple:
        return self, {name: mv.pairs for name, mv in inputs.items()}

    def lower(self, pairs) -> tuple:
        return tuple(pairs)


class WorldSetAlgebra(Algebra):
    """Labels are sets of named worlds held as ints: bit ``p`` is set iff
    world ``p`` is in the set, and ``top`` holds every world.  Equal world
    sets are equal ints, intersection, union and complement are bitwise,
    and a label is empty when it is 0; ``sat_calls`` counts emptiness
    checks.  ``narrow(ctx, errors)``, the path condition after a sub-result,
    is the label ``ctx`` without the worlds of ``errors``; the caller tests
    whether any is left."""

    def meet(self, l1: int, l2: int) -> int:
        return l1 & l2

    def join(self, l1: int, l2: int) -> int:
        return l1 | l2

    def complement(self, label: int) -> int:
        return self.top ^ label

    def is_empty(self, label: int) -> bool:
        self.sat_calls += 1
        return label == 0

    def narrow(self, ctx, errors):
        return ctx & ~functools.reduce(operator.or_, [label for _, label in errors], 0)

    def covers(self, label: int, world) -> bool:
        return bool(label & self.minterm(world))

    def shape_problem(self, label):
        if not isinstance(label, int) or label & ~self.top:
            return "label is not a set of the declared configurations"
        return None

    def problems(self, labels, within=None) -> list:
        """A partition when the union is ``within`` and the sizes add up;
        only a failing check walks the pairs, to name the first overlap."""
        within = self.top if within is None else within
        held = functools.reduce(operator.or_, labels, 0)
        twice = sum(map(int.bit_count, labels)) != held.bit_count()  # a world in two labels
        if held == within and not twice:
            return []
        overlaps = (f"labels overlap: {self.canonical_text(a)} and {self.canonical_text(b)}"
                    for a, b in itertools.combinations(labels, 2) if a & b)
        out = [next(overlaps)] if twice else []
        stray = held ^ within  # worlds of ``within`` no label holds, and of a label outside it
        for part, where in ((stray & within, "is uncovered"), (stray & ~within, "is outside the context")):
            if part:
                out.append(f"configuration {self.world_text(self.first_world(part))} {where}")
        return out


class _Config(dict):
    """A configuration that knows its position in a label's bits."""

    __slots__ = ("position",)


class FeatureAlgebra(WorldSetAlgebra):
    """Labels are world sets over a fixed, ordered set of feature names.

    Bit ``p`` of a label stands for configuration ``p``, where bit ``i`` of
    ``p`` is the value of ``features[i]``.  A feature's mask is built on
    first use.  At most ``_BITSET_FEATURE_CAP`` features are declared.
    """

    kind = "feature"

    def __init__(self, features):
        features = tuple(features)
        if len(set(features)) != len(features):
            raise ValueError(f"duplicate feature names: {features}")
        if len(features) > _BITSET_FEATURE_CAP:
            raise TooManyFeatures(
                f"{len(features)} features declared, at most {_BITSET_FEATURE_CAP} "
                f"fit in a label (a set of 2^k configurations)"
            )
        self.features = features
        self._index = {name: i for i, name in enumerate(features)}
        self._masks: dict = {}
        self._literals = [("!" + name, name) for name in features]  # when false, when true
        self.top = (1 << (1 << len(features))) - 1

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
        if set(config) != set(self.features):
            raise ValueError(f"configuration must assign every declared feature: {config}")
        return sum(1 << i for i, name in enumerate(self.features) if config[name])

    def var(self, name: str) -> int:
        if name not in self._index:
            known = ", ".join(self.features) or "none"
            raise UndeclaredFeature(f"feature {name!r} not declared (declared: {known})")
        return self._mask(self._index[name])

    def check_features(self, names) -> None:
        undeclared = names.difference(self._index)
        if undeclared:
            raise UndeclaredFeature(f"program tests undeclared feature(s): {sorted(undeclared)}")

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

    def first_world(self, label: int) -> dict:
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
        """A configuration from ``FA=1,FB=0`` text naming every feature once,
        read in NFC as programs and bindings are."""
        config = {}
        for part in unicodedata.normalize("NFC", text).split(",") if text else ():
            name, _, raw = part.partition("=")
            name, raw = name.strip(), raw.strip().lower()
            if raw not in ("0", "1", "true", "false"):
                raise MissingConfig(f"bad configuration entry {part!r}")
            if name in config:
                raise MissingConfig(f"configuration assigns feature {name!r} twice")
            config[name] = raw in ("1", "true")
        missing = set(self.features) - set(config)
        extra = set(config) - set(self.features)
        if missing or extra:
            raise MissingConfig(
                f"configuration must assign exactly the declared features "
                f"(missing {sorted(missing)}, unknown {sorted(extra)})"
            )
        return config

    # -- display -----------------------------------------------------------

    def canonical_text(self, label: int) -> str:
        """A sum of products denoting the label's world set.

        Up to ``_DNF_FEATURE_CAP`` features it is the essential prime
        implicants plus a greedy cover of the rest (``_minimal_cover``),
        with the products sorted by text: short, though not always minimal.
        A one-cube label skips the prime search, and a label its essential
        primes cover skips the greedy pass.  Above the cap it is the
        disjoint cubes of a Shannon split in declared-feature order.
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
            pair[bits >> i & 1] for i, pair in enumerate(self._literals) if not dont_care >> i & 1
        ])

    def _prime_cubes(self, label: int) -> set:
        """Every prime implicant as (bits, dont_care), the ``dont_care``
        bits of ``bits`` 0.  Split a table on its top feature into halves
        ``f0`` (false) and ``f1`` (true): a prime of ``f`` is a prime of
        ``f0 & f1`` with the feature free, or a prime of ``f0`` (``f1``)
        that is not one of ``f0 & f1``, with the feature false (true).
        Subtables recur across branches, so each is solved once a call."""
        memo = {}

        def primes(f: int, m: int) -> set:  # f: a table over features[:m]
            half = 1 << m >> 1
            if f == (1 << (1 << m)) - 1:
                return {(0, (1 << m) - 1)}
            if f & (f - 1) == 0:  # no configuration or one
                return {(f.bit_length() - 1, 0)} if f else set()
            if (f, m) not in memo:
                f0, f1 = f & ((1 << half) - 1), f >> half
                both = primes(f0 & f1, m - 1)
                memo[f, m] = ({(bits, dc | half) for bits, dc in both} | (primes(f0, m - 1) - both)
                              | {(bits | half, dc) for bits, dc in primes(f1, m - 1) - both})
            return memo[f, m]

        return primes(label, len(self.features))

    def _minimal_cover(self, label: int) -> list:
        """Texts of the products of a short cover of a label that is neither
        empty nor every world.  A label equal to the smallest cube holding
        it is that cube, found with no prime search.  Otherwise the cover
        is the essential primes, and only when they leave minterms
        uncovered, a greedy cover of those (``_greedy_cover``)."""
        true = free = 0  # the features true, and those free, in the smallest cube holding it
        for i in range(len(self.features)):
            mask = self._mask(i)
            if not label & ~mask:
                true |= 1 << i
            elif label & mask:
                free |= 1 << i
        if label.bit_count() == 1 << free.bit_count():
            return [self._cube_text(true, free)]
        primes = self._prime_cubes(label)
        cover_of = {}
        for bits, dc in primes:
            cover = 1 << bits
            for i in _members(dc):
                cover |= cover << (1 << i)
            cover_of[bits, dc] = cover
        once = twice = 0
        for cover in cover_of.values():
            twice |= once & cover
            once |= cover
        # essential primes: those covering a minterm no other prime covers
        chosen = [p for p in primes if cover_of[p] & once & ~twice]
        uncovered = label
        for p in chosen:
            uncovered &= ~cover_of[p]
        texts = [self._cube_text(*p) for p in chosen]
        return texts + self._greedy_cover(cover_of, uncovered) if uncovered else texts

    def _greedy_cover(self, cover_of: dict, uncovered: int) -> list:
        """Texts of primes (the keys of ``cover_of``, each mapped to its
        minterms) that cover ``uncovered``, picked greedily: the first
        prime in (size, text) order that covers the most minterms still
        uncovered."""
        width = len(self.features)
        text = {p: self._cube_text(*p) for p in cover_of}
        # counts only fall, so a popped entry whose count is still its key
        # is the first prime in order with the most uncovered minterms
        order = sorted(cover_of, key=lambda p: (width - p[1].bit_count(), text[p]))
        heap = [(-(cover_of[p] & uncovered).bit_count(), rank, p) for rank, p in enumerate(order)]
        heapq.heapify(heap)
        chosen = []
        while uncovered:
            key, rank, p = heapq.heappop(heap)
            count = (cover_of[p] & uncovered).bit_count()
            if count == -key:
                chosen.append(text[p])
                uncovered &= ~cover_of[p]
            elif count:
                heapq.heappush(heap, (-count, rank, p))
        return chosen

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
    """Labels are weights in [0, 1], summed where bindings and outcomes merge.

    A weight names no worlds, so a lifted run names them (``lift``): each
    joint draw of the independent inputs it reads is a world and a label
    is a set of draws (``_Draws``), so a variable read twice reads one draw.
    """

    kind = "probability"
    top = 1.0
    empty_eps = 1e-12
    tol = 1e-9

    def join(self, l1: float, l2: float) -> float:
        s = l1 + l2
        if s > 1.0 + self.tol:
            raise ProbabilityOverflow(f"joined weights sum to {s!r} > 1.0")
        return min(s, 1.0)

    def is_empty(self, label: float) -> bool:
        self.sat_calls += 1
        return label < self.empty_eps

    def lift(self, inputs) -> tuple:
        draws = _Draws(self, inputs)
        return draws, draws.scope

    def covers(self, label: float, world) -> bool:
        raise ProjectionUnsupported("probability labels do not name worlds")

    def world_text(self, world) -> str:
        raise ProjectionUnsupported("probability labels do not name worlds")

    def worlds(self):
        return None

    def shape_problem(self, label):
        if not 0.0 <= label <= 1.0 + self.tol:
            return f"weight {label!r} outside [0, 1]"
        return None

    def problems(self, labels, within=None) -> list:
        """Weights must add up to 1; only whole results carry weights."""
        total = sum(labels)
        out = []
        if total > 1.0 + self.tol:
            out.append(f"weights sum to {total:.12g} > 1")
        if abs(1.0 - total) > self.tol:
            out.append(f"totality gap {1.0 - total:+.9g}")
        return out

    def canonical_text(self, label: float) -> str:
        return f"{label:.9f}"


class _Draws(WorldSetAlgebra):
    """The joint draws of a lifted run's probability inputs, as named worlds:
    draw ``p`` picks value ``p // stride % size`` of each input (the last
    varies fastest, as in the oracle) and weighs the product of their
    weights; a draw lighter than ``empty_eps`` is no world.  Emptiness
    checks count in the weight algebra's ``sat_calls``, which this
    algebra's ``sat_calls`` reads."""

    kind = ProbabilityAlgebra.kind

    def __init__(self, outer: ProbabilityAlgebra, inputs):
        self.outer = outer
        count = joint_support(len(mv.pairs) for mv in inputs.values())
        self.draw_weights = [1.0]
        for mv in inputs.values():
            self.draw_weights = [w * v for w in self.draw_weights for _, v in mv.pairs]
        self.top = int("".join("01"[w >= outer.empty_eps] for w in reversed(self.draw_weights)), 2)
        self.scope, stride = {}, count
        for name, mv in inputs.items():
            size, stride = len(mv.pairs), stride // len(mv.pairs)
            # one period of each value's label as binary text, highest draw first
            runs = ("0" * stride * (size - 1 - j) + "1" * stride + "0" * stride * j for j in range(size))
            labels = (int(run * (count // stride // size), 2) & self.top for run in runs)
            self.scope[name] = tuple((x, label) for (x, _), label in zip(mv.pairs, labels) if label)

    @property
    def sat_calls(self) -> int:
        return self.outer.sat_calls

    def is_empty(self, label: int) -> bool:
        self.outer.sat_calls += 1
        return label == 0

    def weight(self, label: int) -> float:
        """The sum of the label's draw weights, added in draw order."""
        total = 0.0
        for bit in re.finditer("1", format(label, "b")[::-1]):  # draw p at index p
            total += self.draw_weights[bit.start()]
        return min(total, 1.0)

    def lower(self, pairs) -> tuple:
        return tuple((x, self.weight(label)) for x, label in pairs)

    def canonical_text(self, label: int) -> str:
        return self.outer.canonical_text(self.weight(label))

    def first_world(self, label: int) -> int:
        return (label & -label).bit_length() - 1

    def world_text(self, p: int) -> str:
        picks = (f"{name}={next(x for x, l in pairs if l >> p & 1)}" for name, pairs in self.scope.items())
        return "{" + ", ".join(picks) + "}"


class Tag:
    """The endpoint worlds of a range, as plain ints; each is also the
    label holding that endpoint alone."""

    MIN = 1
    MAX = 2


_ENDPOINTS = (Tag.MIN, Tag.MAX)
# by label: the endpoints it holds, in the order of their text
_HELD = ((), (Tag.MIN,), (Tag.MAX,), (Tag.MAX, Tag.MIN))
_LABEL_TEXT = ("none", "MIN", "MAX", "MIN|MAX")


class IntervalAlgebra(WorldSetAlgebra):
    """Labels are sets of the endpoint worlds MIN and MAX of a range.

    A path condition is such a set.  A run shares what both endpoints
    share: ``lift`` merges a range's equal endpoints into one pair labelled
    ``MIN|MAX``, and ``lower`` splits such a pair back into one pair per
    endpoint, the form of bindings and results.
    """

    kind = "interval"
    top = Tag.MIN | Tag.MAX

    def worlds(self):
        return _ENDPOINTS

    def minterm(self, world: int) -> int:
        return world

    def first_world(self, label: int) -> int:
        return label & -label

    def parse_world(self, text) -> int:
        tag = (text or "").strip().upper()
        if tag not in ("MIN", "MAX"):
            raise MissingConfig("plain interval runs need --config MIN or MAX")
        return _LABEL_TEXT.index(tag)

    def lift(self, inputs) -> tuple:
        return self, {name: merge_value_pairs(self, mv.pairs) for name, mv in inputs.items()}

    def lower(self, pairs) -> tuple:
        """The pairs, each one holding both endpoints split into one pair per
        endpoint, ``MAX`` first as label text sorts."""
        return tuple((x, tag) for x, label in pairs for tag in _HELD[label])

    def endpoints(self, values, errors=()):
        if errors or len(values) != 2:
            return None
        by_tag = {label: v for v, label in values}
        if by_tag.keys() != set(_ENDPOINTS):
            return None
        return by_tag[Tag.MIN], by_tag[Tag.MAX]

    def canonical_text(self, label: int) -> str:
        return _LABEL_TEXT[label]

    world_text = canonical_text  # a world is the label holding it alone
