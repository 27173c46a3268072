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
minus allowed) or ``true``/``false``.
"""

from __future__ import annotations

import re

from .errors import BindingsError
from .labels import FeatureAlgebra, IntervalAlgebra, ProbabilityAlgebra, Tag
from .lang import INT64_MAX, INT64_MIN
from .modal import ModalValue, normalize

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<dots>\.\.)
  | (?P<punct>[{}\[\]()@,;=!&|+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise BindingsError(f"unexpected character {text[pos]!r}", line, None)
        line += text[pos : m.end()].count("\n")
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append((kind, m.group(), line))
    tokens.append(("eof", "", line))
    return tokens


class _Reader:
    def __init__(self, text: str, feature_limit: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.feature_limit = feature_limit

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        kind, text, line = self.peek()
        raise BindingsError(f"{message} (found {text or kind!r})", line, None)

    def expect(self, kind, text=None):
        got_kind, got_text, _ = self.peek()
        if got_kind != kind or (text is not None and got_text != text):
            self.fail(f"expected {text or kind!r}")
        return self.advance()

    def at(self, kind, text=None) -> bool:
        got_kind, got_text, _ = self.peek()
        return got_kind == kind and (text is None or got_text == text)

    # -- grammar -----------------------------------------------------------

    def file(self):
        self.expect("id", "modality")
        alg = self.modality()
        self._alg = alg  # the label sub-parser needs the declared features
        self.expect("punct", ";")
        bindings: dict = {}
        while self.at("id", "bind"):
            self.advance()
            name = self.expect("id")[1]
            if name in bindings:
                self.fail(f"duplicate binding for {name!r}")
            self.expect("punct", "=")
            bindings[name] = self.modal_value(alg)
            self.expect("punct", ";")
        if not self.at("eof"):
            self.fail("expected 'bind' or end of file")
        return alg, bindings

    def modality(self):
        kind = self.expect("id")[1]
        if kind == "feature":
            self.expect("punct", "(")
            names = [self.expect("id")[1]]
            while self.at("punct", ","):
                self.advance()
                names.append(self.expect("id")[1])
            self.expect("punct", ")")
            if len(set(names)) != len(names):
                self.fail("duplicate feature name")
            return FeatureAlgebra(names, feature_limit=self.feature_limit)
        if kind == "probability":
            return ProbabilityAlgebra()
        if kind == "interval":
            return IntervalAlgebra()
        self.fail("expected feature(...), probability, or interval")

    def modal_value(self, alg) -> ModalValue:
        if self.at("punct", "["):
            if alg.kind != "interval":
                self.fail("range syntax needs the interval modality")
            self.advance()
            lo = self.int_value()
            self.expect("dots")
            hi = self.int_value()
            self.expect("punct", "]")
            pairs = ((lo, Tag.MIN), (hi, Tag.MAX))
            return normalize(alg, ModalValue(pairs, alg.kind))
        if alg.kind == "interval":
            self.fail("interval bindings use the [lo .. hi] form")
        self.expect("punct", "{")
        pairs = [self.pair(alg)]
        while self.at("punct", ","):
            self.advance()
            pairs.append(self.pair(alg))
        self.expect("punct", "}")
        return normalize(alg, ModalValue(tuple(pairs), alg.kind))

    def pair(self, alg):
        value = self.value()
        self.expect("punct", "@")
        if alg.kind == "feature":
            return value, self.feature_or()
        return value, self.weight()

    def value(self):
        if self.at("id", "true"):
            self.advance()
            return True
        if self.at("id", "false"):
            self.advance()
            return False
        return self.int_value()

    def int_value(self) -> int:
        sign = 1
        if self.at("punct", "-"):
            self.advance()
            sign = -1
        tok = self.expect("int")
        value = sign * int(tok[1])
        if not INT64_MIN <= value <= INT64_MAX:
            self.fail("integer out of 64-bit range")
        return value

    def weight(self) -> float:
        kind, text, _ = self.peek()
        if kind in ("float", "int"):
            self.advance()
            weight = float(text)
            if not 0.0 <= weight <= 1.0:
                self.fail(f"weight {text} outside [0, 1]")
            return weight
        self.fail("expected a weight in [0, 1]")

    def feature_or(self):
        node = self.feature_and()
        while self.at("punct", "|"):
            self.advance()
            node = self._alg.join(node, self.feature_and())
        return node

    def feature_and(self):
        node = self.feature_unary()
        while self.at("punct", "&"):
            self.advance()
            node = self._alg.meet(node, self.feature_unary())
        return node

    def feature_unary(self):
        if self.at("punct", "!"):
            self.advance()
            return self._alg.complement(self.feature_unary())
        if self.at("punct", "("):
            self.advance()
            node = self.feature_or()
            self.expect("punct", ")")
            return node
        if self.at("id", "true"):
            self.advance()
            return self._alg.top
        if self.at("id", "false"):
            self.advance()
            return 0  # the empty world set
        if self.at("id"):
            return self._alg.var(self.advance()[1])
        self.fail("expected a feature expression")


def parse_bindings(text: str, feature_limit: int = 24):
    """Parse bindings text into (algebra, {name: ModalValue})."""
    return _Reader(text, feature_limit).file()


def load_bindings(path: str, feature_limit: int = 24):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_bindings(handle.read(), feature_limit=feature_limit)
