"""A small first-order expression language and its single-world evaluator.

The plain evaluator is the ground-truth semantics that every lifted mode
must agree with world by world.  Values are 64-bit signed integers and
booleans; division truncates toward zero; overflow and division by zero
are runtime errors; ``&&`` and ``||`` short-circuit.  ``feature("N")``
tests one feature of the active configuration.  Each primitive operator
is defined once, in ``PRIMITIVES``, the table every evaluator applies.

Program file grammar (``.mdl``, ``//`` comments):

    program  := fundef* expr
    fundef   := "fun" ID "(" ID ("," ID)* ")" "=" expr ";"
    expr     := INT | "true" | "false" | ID
              | "let" ID "=" expr "in" expr
              | "if" expr "then" expr "else" expr
              | "!" expr | "-" expr | expr OP expr | "(" expr ")"
              | ID "(" expr ("," expr)* ")"
              | "feature" "(" STRING ")"

Precedence, loosest to tightest: ``||``, ``&&``, comparisons
(``<`` ``<=`` ``==``), ``+ -``, ``* /``, unary ``! -``.  All binary
operators associate to the left; unary minus desugars to ``0 - e``.
Identifiers (by ``is_identifier``, every front end's rule) and numerals
may use letters and decimal digits of any script, and no other digit (``²``).

The front end makes one pass of each kind: one ``findall`` of a compiled
regular expression reads every token's text and one lookup gives each kind
(``Scanner``, which ``bindings`` shares), a precedence-climbing parser
reads a chain of operators at one level as a loop, and one walk with an
explicit stack makes the load checks (scopes, arities) and records what the
evaluators read of the program (``Program.analysis``) and the call graph,
in which ``graphlib`` finds call cycles.
Error positions are 1-based line and column, found by matching the text
again when an error is raised.  The parser, the renderer and the evaluator
spend one Python frame a nesting level; nesting past the recursion limit
raises ``BudgetExceeded``.  Syntax nodes are slotted dataclasses, compared
by class and fields with an explicit stack, so at any depth; they are
neither frozen nor hashable.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DIV_BY_ZERO,
    OVERFLOW,
    TYPE_MISMATCH,
    BudgetExceeded,
    CyclicCallError,
    EvalError,
    MissingBinding,
    MissingConfig,
    ParseError,
    ScopeError,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

KEYWORDS = {"fun", "let", "in", "if", "then", "else", "true", "false", "feature"}


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def __eq__(self, other):
        """Equal class and fields, compared with an explicit stack, so two
        deeply nested trees compare in one Python frame."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if isinstance(a, Expr):
                if a.__class__ is not b.__class__:
                    return False
                stack.extend((getattr(a, f), getattr(b, f)) for f in a.__slots__)
            elif isinstance(a, tuple):
                if not isinstance(b, tuple) or len(a) != len(b):
                    return False
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True


@dataclass(slots=True, eq=False)
class IntLit(Expr):
    value: int


@dataclass(slots=True, eq=False)
class BoolLit(Expr):
    value: bool


@dataclass(slots=True, eq=False)
class Var(Expr):
    name: str


@dataclass(slots=True, eq=False)
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@dataclass(slots=True, eq=False)
class If(Expr):
    guard: Expr
    then: Expr
    orelse: Expr


@dataclass(slots=True, eq=False)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(slots=True, eq=False)
class Not(Expr):
    arg: Expr


@dataclass(slots=True, eq=False)
class Call(Expr):
    fn: str
    args: tuple


@dataclass(slots=True, eq=False)
class Feature(Expr):
    name: str


@dataclass(slots=True)
class FunDef:
    name: str
    params: tuple
    body: Expr


@dataclass(frozen=True)
class Program:
    fundefs: tuple
    main: Expr

    @functools.cached_property
    def analysis(self) -> Analysis:
        """The program's facts, found by one load-checking walk on first use."""
        return _analyse(self)


class Analysis(NamedTuple):
    """What every evaluator needs to know of a program."""

    fundefs: dict  # name -> FunDef
    features: frozenset  # the features tested in any body
    inputs: tuple  # main's free variables, in first-use order


# --------------------------------------------------------------------------
# Scanner (shared with ``bindings``)
# --------------------------------------------------------------------------

def _line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Scanner:
    """One text's tokens, as parallel lists ``kinds`` and ``texts`` that end
    in an ``eof`` token with empty text; ``pos`` is the next token.

    A front end sets ``pattern`` (per match: whitespace and comments, then
    one token's text as its one group), ``fixed`` (the kinds known in
    advance by text), ``classify(word)`` (any other text's kind; raises on a
    stray) and ``error``.  A token's offset is found only when an error
    names it, by matching the text again.
    """

    def __init__(self, text: str):
        self.text = text
        self.texts = texts = self.pattern.findall(text)
        kind_of = dict(self.fixed)
        for word in dict.fromkeys(texts):  # in order: the first stray raises
            if word not in kind_of:
                kind_of[word] = self.classify(word)
        self.kinds = list(map(kind_of.__getitem__, texts))
        self.pos = 0

    def error_at(self, pos: int, message: str):
        """Raise ``error`` with ``message`` at the start of token ``pos``."""
        match = next(itertools.islice(self.pattern.finditer(self.text), pos, None))
        raise self.error(message, *_line_col(self.text, match.start(1)))


def is_identifier(word: str) -> bool:
    """Whether ``word`` is a name: a letter of any script or ``_``, then letters, digits, ``_``."""
    return word.replace("_", "a").isalnum() and (word[0].isalpha() or word[0] == "_")


# One match per token: the whitespace and comments before it, then the
# token.  ``\s``, ``\d`` and ``\w`` mean ``str.isspace``, ``isdecimal`` and
# ``isalnum``-or-underscore, so identifiers and numerals may come from any
# script; a word that is no identifier (``²``) is a stray.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*
    (&&|\|\||<=|==|[-+*/<!(),;=]|[^\W\d]\w*|\d+|"[^"\n]*"|\Z|.)
    """,
    re.VERBOSE | re.DOTALL,
)

# An operator's or a keyword's kind is its own text; the other kinds are
# ``int``, ``id``, ``string`` (whose text keeps its quotes) and ``eof``.
_FIXED_KINDS = {**{w: w for w in (*KEYWORDS, "&&", "||", "<=", "==", *"-+*/<!(),;=")}, "": "eof"}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# How tightly each binary operator binds; all associate to the left.  The
# prefix operators ``!`` and ``-`` bind tighter than any of them.
_PREC = {"||": 1, "&&": 2, "<": 3, "<=": 3, "==": 3, "+": 4, "-": 4, "*": 5, "/": 5}
_PREFIX_PREC = 6


class _Parser(Scanner):
    pattern, fixed, error = _TOKEN_RE, _FIXED_KINDS, ParseError

    def classify(self, word: str) -> str:
        head = word[0]
        if head.isdecimal():
            return "int"
        if is_identifier(word):
            return "id"
        if head == '"' and word != '"':
            return "string"
        message = "unterminated string" if word == '"' else f"unexpected character {head!r}"
        self.error_at(self.texts.index(word), message)

    def fail(self, message: str, pos: int | None = None):
        self.error_at(self.pos if pos is None else pos, message)

    def word(self, pos: int) -> str:
        """Token ``pos``'s text as an error shows it: a string's without quotes."""
        text = self.texts[pos]
        return text[1:-1] if self.kinds[pos] == "string" else text

    def expect(self, kind: str) -> str:
        """Consume one token of ``kind`` and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, found {self.word(pos) or self.kinds[pos]!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def program(self) -> Program:
        fundefs = []
        while self.kinds[self.pos] == "fun":
            fundefs.append(self.fundef())
        main = self.expr()
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected trailing {self.word(self.pos)!r}")
        return Program(tuple(fundefs), main)

    def fundef(self) -> FunDef:
        self.pos += 1  # "fun"
        name = self.expect("id")
        self.expect("(")
        params = [self.expect("id")]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            params.append(self.expect("id"))
        self.expect(")")
        self.expect("=")
        body = self.expr()
        self.expect(";")
        return FunDef(name, tuple(params), body)

    def expr(self, min_prec: int = 1) -> Expr:
        """An expression whose binary operators all bind at least as tightly
        as ``min_prec``.  Precedence climbing: the first operand is read
        here, a chain of operators at one level is a loop, and each later
        operand recurses one level tighter."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        kind = kinds[pos]
        self.pos = pos + 1
        if kind == "id":
            if kinds[pos + 1] != "(":
                node = Var(texts[pos])
            else:
                self.pos += 1
                args = [self.expr()]  # each argument in a loop here: one frame a level
                while kinds[self.pos] == ",":
                    self.pos += 1
                    args.append(self.expr())
                self.expect(")")
                node = Call(texts[pos], tuple(args))
        elif kind == "int":
            digits = texts[pos]
            # int() refuses numerals of thousands of digits, and none fits
            value = int(digits) if len(digits.lstrip("0")) <= 19 else INT64_MAX + 1
            if value > INT64_MAX:
                self.fail("integer literal out of range", pos)
            node = IntLit(value)
        elif kind == "(":
            node = self.expr()
            self.expect(")")
        elif kind == "!" or kind == "-":
            arg = self.expr(_PREFIX_PREC)
            node = Not(arg) if kind == "!" else BinOp("-", IntLit(0), arg)
        elif kind == "let":
            name = self.expect("id")
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            node = Let(name, bound, self.expr())
        elif kind == "if":
            guard = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            node = If(guard, then, self.expr())
        elif kind == "true" or kind == "false":
            node = BoolLit(kind == "true")
        elif kind == "feature":
            self.expect("(")
            name = self.expect("string")[1:-1]
            if not is_identifier(name):
                self.fail(f"feature name must be an identifier, got {name!r}", self.pos - 1)
            self.expect(")")
            node = Feature(name)
        else:
            self.pos = pos
            if kind in KEYWORDS:
                self.fail(f"unexpected keyword {kind!r}")
            self.fail(f"unexpected {self.word(pos) or kind!r}")
        while True:
            op = kinds[self.pos]
            prec = _PREC.get(op, 0)
            if prec < min_prec:
                return node
            self.pos += 1
            node = BinOp(op, node, self.expr(prec + 1))


def parse(text: str) -> Program:
    """Parse and load-check a program (scoping, arities, acyclic calls).

    Names are compared, and error columns counted, in the text's NFC form.
    A program nested deeper than the parser's recursion allows raises
    ``BudgetExceeded``.
    """
    try:
        program = _Parser(unicodedata.normalize("NFC", text)).program()
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to parse") from None
    program.analysis  # the load checks raise here
    return program


def read_source(path: str) -> str:
    """The text of a program or bindings file, less one leading byte-order
    mark.  A file that is not UTF-8 raises ``ParseError`` naming the file and
    its first bad byte's offset in the file (``utf-8-sig`` would not count
    the mark)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as ex:  # read() decodes the whole file at once
        bad = f"byte 0x{ex.object[ex.start]:02x} at offset {ex.start}"
        raise ParseError(f"{path}: not valid UTF-8 ({bad})") from None


# --------------------------------------------------------------------------
# Load checks
# --------------------------------------------------------------------------

def _analyse(program: Program) -> Analysis:
    """Reject duplicate names, unbound variables in function bodies, calls
    to undefined functions or with the wrong arity, and call cycles; gather
    the ``Analysis`` facts in the same walk."""
    # Recursion is out of scope: graphlib rejects call cycles.  Every function
    # goes in before any edge, in definition order, then its sorted callees, so
    # it reports the first cycle that a depth-first search in that order meets.
    calls = graphlib.TopologicalSorter()
    fundefs: dict = {}
    for fd in program.fundefs:
        if fd.name in fundefs:
            raise ScopeError(f"duplicate function {fd.name!r}")
        if len(set(fd.params)) != len(fd.params):
            raise ScopeError(f"duplicate parameter in {fd.name!r}")
        fundefs[fd.name] = fd
        calls.add(fd.name)

    features: set = set()
    inputs: dict = {}  # ordered, without repeats
    # main's params are None: its free variables are left to the bindings
    bodies = [(fd.name, fd.params, fd.body) for fd in program.fundefs]
    for fn, params, body in bodies + [(None, None, program.main)]:
        callees = set()
        # every node in pre-order (left to right), with the names bound where
        # it occurs; an explicit stack, so nesting depth costs no recursion
        stack = [(body, frozenset(params or ()))]
        while stack:
            expr, bound = stack.pop()
            cls = type(expr)
            if cls is BinOp:
                stack += ((expr.rhs, bound), (expr.lhs, bound))
            elif cls is If:
                stack += ((expr.orelse, bound), (expr.then, bound), (expr.guard, bound))
            elif cls is Let:
                stack += ((expr.body, bound | {expr.name}), (expr.bound, bound))
            elif cls is Not:
                stack.append((expr.arg, bound))
            elif cls is Var and expr.name not in bound:
                if params is not None:
                    raise ScopeError(f"unbound variable {expr.name!r}")
                inputs[expr.name] = None
            elif cls is Call:
                callee = fundefs.get(expr.fn)
                if callee is None:
                    raise ScopeError(f"call to undefined function {expr.fn!r}")
                if len(expr.args) != len(callee.params):
                    raise ScopeError(
                        f"{expr.fn!r} takes {len(callee.params)} argument(s), got {len(expr.args)}"
                    )
                callees.add(expr.fn)
                stack += ((arg, bound) for arg in reversed(expr.args))
            elif cls is Feature:
                features.add(expr.name)
        for callee in sorted(callees):  # main (None) is a node too; nothing calls it
            calls.add(callee, fn)
    try:
        calls.prepare()
    except graphlib.CycleError as ex:
        raise CyclicCallError(f"call cycle: {' -> '.join(ex.args[1])}") from None
    return Analysis(fundefs, frozenset(features), tuple(inputs))


# --------------------------------------------------------------------------
# Renderer (round-trips through parse, to half the parser's nesting depth)
# --------------------------------------------------------------------------

def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Feature):
        return f'feature("{e.name}")'
    if isinstance(e, Not):
        return "!" + render_expr(e.arg)
    if isinstance(e, BinOp):
        return f"({render_expr(e.lhs)} {e.op} {render_expr(e.rhs)})"
    if isinstance(e, Let):
        return f"(let {e.name} = {render_expr(e.bound)} in {render_expr(e.body)})"
    if isinstance(e, If):
        return (
            f"(if {render_expr(e.guard)} then {render_expr(e.then)}"
            f" else {render_expr(e.orelse)})"
        )
    if isinstance(e, Call):
        args = []  # in a loop: a generator would cost a frame a level
        for arg in e.args:
            args.append(render_expr(arg))
        return f"{e.fn}({', '.join(args)})"
    raise TypeError(f"not an expression: {e!r}")


def render_program(p: Program) -> str:
    """The text of ``p``, which parses back to ``p``.  Every ``let``, ``if``
    and binary operator is parenthesized, and each parenthesis costs the
    parser one more frame: under the default recursion limit, nested
    ``let``s parse to about 990 levels but round-trip to about 495, and a
    chain ``x + 1 + …`` parses at any length but renders to about 990 terms.
    Deeper, rendering raises ``BudgetExceeded``, or parsing its text does."""
    try:
        lines = [
            f"fun {fd.name}({', '.join(fd.params)}) = {render_expr(fd.body)};"
            for fd in p.fundefs
        ]
        lines.append(render_expr(p.main))
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to render") from None
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Plain (single-world) evaluation
# --------------------------------------------------------------------------

def _as_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise EvalError(TYPE_MISMATCH, f"expected an integer, got {v!r}")
    return v


def _as_bool(v):
    if not isinstance(v, bool):
        raise EvalError(TYPE_MISMATCH, f"expected a boolean, got {v!r}")
    return v


def _checked(n: int) -> int:
    if n < INT64_MIN or n > INT64_MAX:
        raise EvalError(OVERFLOW, "64-bit integer overflow")
    return n


def _div(a, b):
    num, den = _as_int(a), _as_int(b)
    if den == 0:
        raise EvalError(DIV_BY_ZERO, "division by zero")
    quot = abs(num) // abs(den)
    return _checked(quot if (num >= 0) == (den >= 0) else -quot)


def _eq(a, b):
    if isinstance(a, bool) != isinstance(b, bool):
        raise EvalError(TYPE_MISMATCH, "== needs operands of one type")
    return a == b


@dataclass(frozen=True)
class PrimitiveFn:
    """A deterministic plain function of ``arity`` values, counted under
    ``name``.

    ``fn`` either returns a value or raises ``EvalError`` with a per-world
    error kind.
    """

    name: str
    arity: int
    fn: object


# Every primitive operator by its text, with its per-world semantics: the
# one table that the plain evaluator and the lifted evaluators apply.
PRIMITIVES = {
    "+": PrimitiveFn("add", 2, lambda a, b: _checked(_as_int(a) + _as_int(b))),
    "-": PrimitiveFn("sub", 2, lambda a, b: _checked(_as_int(a) - _as_int(b))),
    "*": PrimitiveFn("mul", 2, lambda a, b: _checked(_as_int(a) * _as_int(b))),
    "/": PrimitiveFn("div", 2, _div),
    "<": PrimitiveFn("lt", 2, lambda a, b: _as_int(a) < _as_int(b)),
    "<=": PrimitiveFn("le", 2, lambda a, b: _as_int(a) <= _as_int(b)),
    "==": PrimitiveFn("eq", 2, _eq),
    "!": PrimitiveFn("not", 1, lambda a: not _as_bool(a)),
}


def eval_plain(program: Program, env, config=None, stats=None):
    """Strict call-by-value evaluation in a single world.

    ``env`` binds the free variables of ``main`` to plain values; ``config``
    is a feature-to-bool map, required only when the program tests features.
    ``stats``, when given, counts function and operator applications.  A
    program nested deeper than the interpreter's stack is a budget overrun.
    """
    fundefs = program.analysis.fundefs

    def ev(e, scope):
        if isinstance(e, (IntLit, BoolLit)):
            return e.value
        if isinstance(e, Var):
            try:
                return scope[e.name]
            except KeyError:
                raise MissingBinding(f"no value bound for {e.name!r}") from None
        if isinstance(e, Let):
            bound = ev(e.bound, scope)
            return ev(e.body, {**scope, e.name: bound})
        if isinstance(e, If):
            guard = _as_bool(ev(e.guard, scope))
            return ev(e.then if guard else e.orelse, scope)
        if isinstance(e, Not):
            arg = ev(e.arg, scope)
            prim = PRIMITIVES["!"]
            if stats is not None:
                stats.applications[prim.name] += 1
            return prim.fn(arg)
        if isinstance(e, BinOp):
            if e.op == "&&" or e.op == "||":
                lhs = _as_bool(ev(e.lhs, scope))  # false decides &&, true decides ||
                return lhs if lhs == (e.op == "||") else _as_bool(ev(e.rhs, scope))
            lhs = ev(e.lhs, scope)
            rhs = ev(e.rhs, scope)
            prim = PRIMITIVES[e.op]
            if stats is not None:
                stats.applications[prim.name] += 1
            return prim.fn(lhs, rhs)
        if isinstance(e, Call):
            fd = fundefs[e.fn]
            inner = {}  # in a loop: a comprehension would cost a frame a level
            for name, arg in zip(fd.params, e.args):
                inner[name] = ev(arg, scope)
            if stats is not None:
                stats.applications[e.fn] += 1
            return ev(fd.body, inner)
        if isinstance(e, Feature):
            if config is None or e.name not in config:
                raise MissingConfig(f"no configuration value for feature {e.name!r}")
            return bool(config[e.name])
        raise TypeError(f"not an expression: {e!r}")

    try:
        return ev(program.main, dict(env))
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to evaluate") from None
