"""Parser for modality/bindings files (``.mb``).

Line-oriented, ``//`` comments, one modality declaration first, then binds:

    modality feature(FA, FB);
    bind x = { -7 @ FA, 3 @ !FA };
    bind z = { 5 @ true };

    modality probability;
    bind p = { 7 @ 0.2, 9 @ 0.8 };

    modality interval;
    bind r = [4 .. 9];

Feature labels use ``!`` (tightest), ``&``, ``|`` (loosest), parentheses,
and the literals ``true``/``false``, which name no feature.  Names follow
``lang.is_identifier``, as a program's do.  Values are integer literals
(unary minus allowed) or ``true``/``false``.  The tokens come from
``lang.Scanner``, as a program's do: one ``findall`` and one kind lookup
per token, and a line and column only for an error.
"""

from __future__ import annotations

import re
import unicodedata

from .errors import BindingsError, BudgetExceeded, EmptyModalValue, ProbabilityOverflow
from .labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag
from .lang import INT64_MAX, INT64_MIN, Scanner, is_identifier, read_source
from .modal import ModalValue, normalize

# One match per token: the whitespace and comments before it, then the
# token, tried first as a punctuation mark, the commonest token of a label.
# A punctuation mark's kind is the mark itself.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    ([{}\[\]()@,;=!&|+-]|\d+\.\d+|\d+|[^\W\d]\w*|\.\.|\Z|.)
    """,
    re.VERBOSE | re.DOTALL,
)
_FIXED_KINDS = {**{c: c for c in "{}[]()@,;=!&|+-"}, "..": "dots", "": "eof"}


class _Reader(Scanner):
    pattern, fixed, error = _TOKEN_RE, _FIXED_KINDS, BindingsError

    def classify(self, word: str) -> str:
        if word[0].isdecimal():
            return "float" if "." in word else "int"
        if is_identifier(word):
            return "id"
        self.error_at(self.texts.index(word), f"unexpected character {word[0]!r}")

    def fail(self, message: str):
        found = self.texts[self.pos] or self.kinds[self.pos]
        self.error_at(self.pos, f"{message} (found {found!r})")

    def at(self, kind, text=None) -> bool:
        pos = self.pos
        return self.kinds[pos] == kind and (text is None or self.texts[pos] == text)

    def accept(self, kind, text=None) -> bool:
        """Consume the next token if it is of ``kind`` (and reads ``text``)."""
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    def expect(self, kind, text=None) -> str:
        """Consume one token of ``kind`` (reading ``text``); return its text."""
        if not self.at(kind, text):
            self.fail(f"expected {text or kind!r}")
        self.pos += 1
        return self.texts[self.pos - 1]

    # -- grammar -----------------------------------------------------------

    def file(self):
        self.expect("id", "modality")
        alg, value_pairs = self.modality()
        self.expect(";")
        bindings: dict = {}
        while self.accept("id", "bind"):
            name = self.expect("id")
            if name in bindings:
                self.fail(f"duplicate binding for {name!r}")
            self.expect("=")
            try:
                bindings[name] = normalize(alg, ModalValue(value_pairs(), alg.kind))
            except (EmptyModalValue, ProbabilityOverflow) as ex:
                raise type(ex)(f"binding {name!r}: {ex}") from None
            self.expect(";")
        if not self.at("eof"):
            self.fail("expected 'bind' or end of file")
        return alg, bindings

    def modality(self):
        """The declared algebra, and the reader of a binding's pairs in it."""
        kind = self.expect("id")
        if kind == "feature":
            self.expect("(")
            names = []
            while not names or self.accept(","):
                if self.texts[self.pos] in ("true", "false"):
                    self.fail("expected a feature name, not a label literal")
                names.append(self.expect("id"))
            self.expect(")")
            if len(set(names)) != len(names):
                self.fail("duplicate feature name")
            self.alg = FeatureAlgebra(names)  # feature_label reads it
            return self.alg, lambda: self.braced_pairs(self.feature_label)
        if kind == "probability":
            return ProbabilityAlgebra(), lambda: self.braced_pairs(self.weight)
        if kind == "interval":
            return IntervalAlgebra(), self.range_pairs
        self.fail("expected feature(...), probability, or interval")

    def range_pairs(self) -> tuple:
        if not self.at("["):
            self.fail("interval bindings use the [lo .. hi] form")
        self.pos += 1
        lo = self.int_value()
        self.expect("dots")
        hi = self.int_value()
        self.expect("]")
        return (lo, Tag.MIN), (hi, Tag.MAX)

    def braced_pairs(self, label) -> tuple:
        """``{ value @ label, ... }``, each label read by ``label()``."""
        if self.at("["):
            self.fail("range syntax needs the interval modality")
        self.expect("{")
        pairs = [self.pair(label)]
        while self.accept(","):
            pairs.append(self.pair(label))
        self.expect("}")
        return tuple(pairs)

    def pair(self, label):
        value = self.value()
        self.expect("@")
        return value, label()

    def value(self):
        if self.accept("id", "true"):
            return True
        if self.accept("id", "false"):
            return False
        return self.int_value()

    def int_value(self) -> int:
        sign = -1 if self.accept("-") else 1
        digits = self.expect("int")
        # int() refuses numerals of thousands of digits, and none fits
        value = sign * int(digits) if len(digits.lstrip("0")) <= 19 else INT64_MAX + 1
        if not INT64_MIN <= value <= INT64_MAX:
            self.fail("integer out of 64-bit range")
        return value

    def weight(self) -> float:
        text = self.texts[self.pos]
        if self.kinds[self.pos] in ("float", "int"):
            self.pos += 1
            weight = float(text)
            if not 0.0 <= weight <= 1.0:
                self.fail(f"weight {text} outside [0, 1]")
            return weight
        self.fail("expected a weight in [0, 1]")

    def feature_label(self, min_prec: int = 1):
        """A feature label whose binary operators bind at least as tightly as
        ``min_prec``.  As ``lang._Parser.expr`` does, it reads a chain of
        operators at one level as a loop, so a nesting level costs one frame."""
        alg, pos = self.alg, self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "!":
            node = alg.complement(self.feature_label(3))
        elif kind == "(":
            node = self.feature_label()
            self.expect(")")
        elif kind == "id":
            name = self.texts[pos]
            # ``false`` is the empty world set
            node = alg.top if name == "true" else 0 if name == "false" else alg.var(name)
        else:
            self.pos = pos
            self.fail("expected a feature expression")
        while True:
            op = self.kinds[self.pos]
            prec = 2 if op == "&" else 1 if op == "|" else 0  # and ``!`` binds at 3
            if prec < min_prec:
                return node
            self.pos += 1
            rhs = self.feature_label(prec + 1)
            node = alg.meet(node, rhs) if op == "&" else alg.join(node, rhs)


def parse_bindings(text: str):
    """Parse bindings text into (algebra, {name: ModalValue}).

    Names are compared, and error columns counted, in the text's NFC form.
    A label nested deeper than the parser's recursion allows raises
    ``BudgetExceeded``; a binding that normalizes to no pair, or whose
    weights join past 1, raises ``EmptyModalValue`` or
    ``ProbabilityOverflow`` naming the binding.
    """
    try:
        return _Reader(unicodedata.normalize("NFC", text)).file()
    except RecursionError:
        raise BudgetExceeded("bindings nested too deeply to parse") from None


def load_bindings(path: str):
    return parse_bindings(read_source(path))
