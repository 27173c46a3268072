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
and the literals ``true``/``false``.  Values are integer literals (unary
minus allowed) or ``true``/``false``.  The tokens come from
``lang.Scanner``, as a program's do: one ``findall`` and one kind lookup
per token, and a line and column only for an error.
"""

from __future__ import annotations

import re

from .errors import BindingsError, BudgetExceeded, EmptyModalValue, ProbabilityOverflow
from .labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag
from .lang import INT64_MAX, INT64_MIN, Scanner, read_source
from .modal import ModalValue, normalize

# One match per token: the whitespace and comments before it, then the
# token.  A punctuation mark's kind is the mark itself.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    (\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\.\.|[{}\[\]()@,;=!&|+-]|\Z|.)
    """,
    re.VERBOSE | re.DOTALL,
)
_FIXED_KINDS = {**{c: c for c in "{}[]()@,;=!&|+-"}, "..": "dots", "": "eof"}


class _Reader(Scanner):
    pattern, fixed, error = _TOKEN_RE, _FIXED_KINDS, BindingsError

    def classify(self, word: str) -> str:
        if word[0].isdecimal():
            return "float" if "." in word else "int"
        if word.isascii() and word.isidentifier():
            return "id"
        self.error_at(self.texts.index(word), f"unexpected character {word!r}")

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
        alg = self.modality()
        self._alg = alg  # the label sub-parser needs the declared features
        self.expect(";")
        bindings: dict = {}
        while self.accept("id", "bind"):
            name = self.expect("id")
            if name in bindings:
                self.fail(f"duplicate binding for {name!r}")
            self.expect("=")
            try:
                bindings[name] = self.modal_value(alg)
            except (EmptyModalValue, ProbabilityOverflow) as ex:
                raise type(ex)(f"binding {name!r}: {ex}") from None
            self.expect(";")
        if not self.at("eof"):
            self.fail("expected 'bind' or end of file")
        return alg, bindings

    def modality(self):
        kind = self.expect("id")
        if kind == "feature":
            self.expect("(")
            names = [self.expect("id")]
            while self.accept(","):
                names.append(self.expect("id"))
            self.expect(")")
            if len(set(names)) != len(names):
                self.fail("duplicate feature name")
            return FeatureAlgebra(names)
        if kind == "probability":
            return ProbabilityAlgebra()
        if kind == "interval":
            return IntervalAlgebra()
        self.fail("expected feature(...), probability, or interval")

    def modal_value(self, alg) -> ModalValue:
        if self.at("["):
            if alg.kind != "interval":
                self.fail("range syntax needs the interval modality")
            self.pos += 1
            lo = self.int_value()
            self.expect("dots")
            hi = self.int_value()
            self.expect("]")
            pairs = ((lo, Tag.MIN), (hi, Tag.MAX))
            return normalize(alg, ModalValue(pairs, alg.kind))
        if alg.kind == "interval":
            self.fail("interval bindings use the [lo .. hi] form")
        self.expect("{")
        pairs = [self.pair(alg)]
        while self.accept(","):
            pairs.append(self.pair(alg))
        self.expect("}")
        return normalize(alg, ModalValue(tuple(pairs), alg.kind))

    def pair(self, alg):
        value = self.value()
        self.expect("@")
        if alg.kind == "feature":
            return value, self.feature_or()
        return value, self.weight()

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

    def feature_or(self):
        node = self.feature_and()
        while self.kinds[self.pos] == "|":
            self.pos += 1
            node = self._alg.join(node, self.feature_and())
        return node

    def feature_and(self):
        node = self.feature_unary()
        while self.kinds[self.pos] == "&":
            self.pos += 1
            node = self._alg.meet(node, self.feature_unary())
        return node

    def feature_unary(self):
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "!":
            return self._alg.complement(self.feature_unary())
        if kind == "(":
            node = self.feature_or()
            self.expect(")")
            return node
        if kind == "id":
            name = self.texts[pos]
            if name == "true":
                return self._alg.top
            if name == "false":
                return 0  # the empty world set
            return self._alg.var(name)
        self.pos = pos
        self.fail("expected a feature expression")


def parse_bindings(text: str):
    """Parse bindings text into (algebra, {name: ModalValue}).

    A label nested deeper than the parser's recursion allows raises
    ``BudgetExceeded``; a binding that normalizes to no pair, or whose
    weights join past 1, raises ``EmptyModalValue`` or
    ``ProbabilityOverflow`` naming the binding.
    """
    try:
        return _Reader(text).file()
    except RecursionError:
        raise BudgetExceeded("bindings nested too deeply to parse") from None


def load_bindings(path: str):
    return parse_bindings(read_source(path))
