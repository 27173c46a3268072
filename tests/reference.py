"""Reference semantics to check the package against.

The feature algebra holds labels as world-set bitsets; the formula helpers
give the independent meaning of a ``FeatureExpr`` to check it against.
The two tokenizers are the front ends' earlier ``finditer`` loops, one
named group per token class, kept to check the shared scanner against.
``pairwise_problems`` is the earlier partition test, which tests every
pair of labels for overlap, kept to check the failure texts of
``WorldSetAlgebra.problems`` against.  ``EveryNodeCheckedEval`` is the
earlier checked deep evaluator, which tests the labels of every node,
kept to check that the shipped one skips only nodes that cannot fail.
``prime_and_greedy_text`` is the earlier display of a feature label, which
runs the prime search and the greedy pass's sort and heap on every label,
kept to check the shortcuts of ``FeatureAlgebra.canonical_text`` against.
``raise_call_cycle`` is the earlier hand-written search for call cycles,
kept to check the cycle that ``lang`` reports through ``graphlib``.
"""

import functools
import heapq
import itertools
import re

import pytest

from multiworld.errors import BindingsError, CyclicCallError, InvariantViolation, ParseError
from multiworld.labels import FAnd, FFalse, FNot, FOr, FTrue, FVar, _fold_text
from multiworld.modal_eval import _DeepEval, _Nodes

KEYWORDS = {"fun", "let", "in", "if", "then", "else", "true", "false", "feature"}

_PROGRAM_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    (?:(?P<op>&&|\|\||<=|==|[-+*/<!(),;=])
      |(?P<name>[A-Za-z_]\w*)
      |(?P<int>\d+)
      |(?P<string>"[^"\n]*")
      |(?P<eof>\Z)
      |(?P<other>[^\W\d]\w*|.))
    """,
    re.VERBOSE | re.DOTALL,
)

_BINDINGS_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    (?:(?P<float>\d+\.\d+)
      |(?P<int>\d+)
      |(?P<id>[A-Za-z_]\w*)
      |(?P<dots>\.\.)
      |(?P<punct>[{}\[\]()@,;=!&|+-])
      |(?P<eof>\Z)
      |(?P<other>[^\W\d]\w*|.))
    """,
    re.VERBOSE | re.DOTALL,
)


def line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def program_tokens(text: str) -> tuple:
    """Parallel lists of a program's token kinds, texts (a string's without
    its quotes) and start offsets, ending in ``eof``; a stray character
    raises ``ParseError``."""
    kinds, texts, starts = [], [], []
    for m in _PROGRAM_TOKEN_RE.finditer(text):
        kind = group = m.lastgroup
        word = m[group]
        if group == "op":
            kind = word
        elif group == "name":
            kind = word if word in KEYWORDS else "id"
        elif group == "string":
            word = word[1:-1]
        elif group == "other":
            if not word[0].isalpha():
                message = "unterminated string" if word == '"' else f"unexpected character {word[0]!r}"
                raise ParseError(message, *line_col(text, m.start(group)))
            kind = "id"
        kinds.append(kind)
        texts.append(word)
        starts.append(m.start(group))
    return kinds, texts, starts


def bindings_tokens(text: str) -> tuple:
    """The same lists for a bindings text; a punctuation mark's kind is the
    mark itself, and a stray character raises ``BindingsError``."""
    kinds, texts, starts = [], [], []
    for m in _BINDINGS_TOKEN_RE.finditer(text):
        kind = group = m.lastgroup
        word = m[group]
        if group == "punct":
            kind = word
        elif group == "other":
            if not word[0].isalpha():
                raise BindingsError(f"unexpected character {word[0]!r}", *line_col(text, m.start(group)))
            kind = "id"
        kinds.append(kind)
        texts.append(word)
        starts.append(m.start(group))
    return kinds, texts, starts


def raise_call_cycle(fundefs, edges):
    """Raise ``CyclicCallError`` for the first call cycle that a depth-first
    search meets, over the functions ``fundefs`` in definition order and
    ``edges``, each one's sorted callees."""
    # cycle detection over the call graph (recursion is out of scope): a
    # depth-first search whose trail is the chain of active calls
    done: set = set()
    for root in fundefs:
        if root in done:
            continue
        trail, pending = [root], [iter(edges[root])]
        while pending:
            callee = next(pending[-1], None)
            if callee is None:
                done.add(trail.pop())
                pending.pop()
            elif callee in trail:
                cycle = trail[trail.index(callee):] + [callee]
                raise CyclicCallError(f"call cycle: {' -> '.join(cycle)}")
            elif callee not in done:
                trail.append(callee)
                pending.append(iter(edges[callee]))


def pairwise_problems(alg, labels, within=None) -> list:
    """Why world-set ``labels`` fail to partition ``within`` (default:
    every world): the first overlapping pair in pair order, then the first
    uncovered world, then the first world a label holds outside ``within``."""
    out = []
    for a, b in itertools.combinations(labels, 2):
        if not alg.is_empty(a & b):
            out.append(f"labels overlap: {alg.canonical_text(a)} and {alg.canonical_text(b)}")
            break
    within = alg.top if within is None else within
    stray = functools.reduce(alg.join, labels, 0) ^ within
    if not alg.is_empty(stray):
        for part, where in ((stray & within, "is uncovered"),
                            (stray & ~within, "is outside the context")):
            if part:
                out.append(f"configuration {alg.world_text(alg.first_world(part))} {where}")
    return out


def _check_every_node(method):
    def checked(self, expr, scope, ctx):
        values, errors = method(self, expr, scope, ctx)
        labels_ = [label for _, label in values] + [label for _, label in errors]
        problems = self.alg.problems(labels_, within=ctx)
        if problems:
            raise InvariantViolation("intermediate value: " + "; ".join(problems))
        return values, errors
    return checked


class EveryNodeCheckedEval(_DeepEval):
    """The deep evaluator that checks that the labels of every node, a
    one-pair answer at its path condition too, partition its path condition:
    its node table wraps each of the unchecked evaluator's methods."""

    _node = _Nodes({cls: _check_every_node(method) for cls, method in _DeepEval._node.items()})


def satisfies(expr, config) -> bool:
    """Evaluate a formula under a total feature-to-bool configuration."""
    if isinstance(expr, FTrue):
        return True
    if isinstance(expr, FFalse):
        return False
    if isinstance(expr, FVar):
        return bool(config[expr.name])
    if isinstance(expr, FNot):
        return not satisfies(expr.arg, config)
    if isinstance(expr, FAnd):
        return satisfies(expr.lhs, config) and satisfies(expr.rhs, config)
    if isinstance(expr, FOr):
        return satisfies(expr.lhs, config) or satisfies(expr.rhs, config)
    raise TypeError(f"not a feature expression: {expr!r}")


def build(alg, expr) -> int:
    """The formula's label, folded with the algebra's own operations."""
    if isinstance(expr, FTrue):
        return alg.top
    if isinstance(expr, FFalse):
        return alg.complement(alg.top)
    if isinstance(expr, FVar):
        return alg.var(expr.name)
    if isinstance(expr, FNot):
        return alg.complement(build(alg, expr.arg))
    op = alg.meet if isinstance(expr, FAnd) else alg.join
    return op(build(alg, expr.lhs), build(alg, expr.rhs))


def world_set(alg, expr) -> int:
    """The formula's world set, evaluated at every configuration: bit p is
    set iff the formula holds where ``features[i]`` is bit i of p."""
    out = 0
    for p in range(1 << len(alg.features)):
        config = {name: bool(p >> i & 1) for i, name in enumerate(alg.features)}
        if satisfies(expr, config):
            out |= 1 << p
    return out


def inside(label: int, bits: int, dont_care: int) -> bool:
    """Whether every configuration of the cube lies in the label: the cube
    fixes the features outside ``dont_care`` to their bits in ``bits``."""
    free = dont_care
    while True:
        if not label >> (bits | free) & 1:
            return False
        if not free:
            return True
        free = (free - 1) & dont_care


def prime_cubes(label: int, k: int) -> set:
    """Every prime implicant of a label over ``k`` features as (bits,
    dont_care), by definition: a cube is prime iff it lies inside the label
    and no cube with one literal dropped does."""
    out = set()
    for dont_care in range(1 << k):
        for bits in range(1 << k):
            if bits & dont_care or not inside(label, bits, dont_care):
                continue
            fixed = [1 << i for i in range(k) if not dont_care >> i & 1]
            if not any(inside(label, bits & ~f, dont_care | f) for f in fixed):
                out.add((bits, dont_care))
    return out


def essential_primes(alg, label: int) -> tuple:
    """A feature label's primes, each mapped to the minterms it covers, and
    its essential primes: those covering a minterm no other prime covers."""
    cover_of = {}
    for bits, dont_care in alg._prime_cubes(label):
        cover = 1 << bits
        for i in range(dont_care.bit_length()):
            if dont_care >> i & 1:
                cover |= cover << (1 << i)
        cover_of[bits, dont_care] = cover
    once = twice = 0
    for cover in cover_of.values():
        twice |= once & cover
        once |= cover
    return cover_of, {p for p in cover_of if cover_of[p] & once & ~twice}


def prime_and_greedy_text(alg, label: int) -> str:
    """A feature label's display up to ``_DNF_FEATURE_CAP`` features: the
    essential primes, then greedily the first prime in (size, text) order
    that covers the most minterms still uncovered, sorted by text."""
    if label in (0, alg.top):
        return "true" if label else "false"
    width = len(alg.features)
    cover_of, chosen = essential_primes(alg, label)
    text = {
        (bits, dc): _fold_text("&", [name if bits >> i & 1 else "!" + name
                                     for i, name in enumerate(alg.features) if not dc >> i & 1])
        for bits, dc in cover_of
    }
    uncovered = label
    for p in chosen:
        uncovered &= ~cover_of[p]
    order = sorted(cover_of, key=lambda p: (width - p[1].bit_count(), text[p]))
    heap = [(-(cover_of[p] & uncovered).bit_count(), rank, p) for rank, p in enumerate(order)]
    heapq.heapify(heap)
    while uncovered:
        key, rank, p = heapq.heappop(heap)
        count = (cover_of[p] & uncovered).bit_count()
        if count == -key:
            chosen.add(p)
            uncovered &= ~cover_of[p]
        elif count:
            heapq.heappush(heap, (-count, rank, p))
    return _fold_text("|", sorted(text[p] for p in chosen))


def assert_scans_like(reference, scanner, text):
    """``scanner(text)`` tokenizes as ``reference(text)`` does: the same kinds
    and texts (a string token's without its quotes), or the same error text,
    line and column on a stray character; and ``error_at`` puts each token at
    its reference start.  Returns the starts, or ``None`` after an error."""
    try:
        kinds, texts, starts = reference(text)
    except (ParseError, BindingsError) as ex:
        with pytest.raises(type(ex)) as exc:
            scanner(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (str(ex), ex.line, ex.col)
        return None
    tokens = scanner(text)
    assert tokens.kinds == kinds
    assert [t[1:-1] if k == "string" else t for k, t in zip(tokens.kinds, tokens.texts)] == texts
    for pos, start in enumerate(starts):
        with pytest.raises(tokens.error) as exc:
            tokens.error_at(pos, "here")
        assert (exc.value.line, exc.value.col) == line_col(text, start)
    return starts
