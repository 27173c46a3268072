"""A small first-order expression language and its single-world evaluator.

The plain evaluator is the ground-truth semantics that every lifted mode
must agree with world by world.  Values are 64-bit signed integers and
booleans; division truncates toward zero; overflow and division by zero
are runtime errors; ``&&`` and ``||`` short-circuit.  ``feature("N")``
tests one feature of the active configuration.

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
Identifiers and numerals may use letters and decimal digits of any
script; other digit characters (``²``) are not numerals.

The front end makes one pass of each kind: one compiled regular
expression splits the text into tokens, a precedence-climbing parser
reads a chain of operators at one level as a loop, and the load checks
(scopes, arities, call cycles) walk the tree with an explicit stack.
Error positions are 1-based line and column.  Nesting deeper than the
parser's recursion allows raises ``BudgetExceeded``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# lifted-counter names for the built-in operators
OP_NAMES = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "<": "lt",
    "<=": "le",
    "==": "eq",
    "!": "not",
}


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class If(Expr):
    guard: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple


@dataclass(frozen=True)
class Feature(Expr):
    name: str


@dataclass(frozen=True)
class FunDef:
    name: str
    params: tuple
    body: Expr


@dataclass(frozen=True)
class Program:
    fundefs: tuple
    main: Expr


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

# One match per token: the whitespace and comments before it, then one
# alternative per token class.  ``\s``, ``\d`` and ``\w`` mean
# ``str.isspace``, ``isdecimal`` and ``isalnum``-or-underscore, so identifiers
# and numerals may come from any script; ``other`` is an identifier that
# starts outside ASCII, or a stray character.
_TOKEN_RE = re.compile(
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


def _line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple:
    """Parallel lists of token kinds, texts and start offsets, ending in an
    ``eof`` token.

    An operator's or a keyword's kind is its own text; the other kinds are
    ``int``, ``id``, ``string`` (whose text leaves out the quotes) and
    ``eof``.
    """
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE.finditer(text):
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
                raise ParseError(message, *_line_col(text, m.start(group)))
            kind = "id"
        kinds.append(kind)
        texts.append(word)
        starts.append(m.start(group))
    return kinds, texts, starts


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# How tightly each binary operator binds; all associate to the left.  The
# prefix operators ``!`` and ``-`` bind tighter than any of them.
_PREC = {"||": 1, "&&": 2, "<": 3, "<=": 3, "==": 3, "+": 4, "-": 4, "*": 5, "/": 5}
_PREFIX_PREC = 6


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.starts = _tokenize(text)
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        offset = self.starts[self.pos if pos is None else pos]
        raise ParseError(message, *_line_col(self.text, offset))

    def expect(self, kind: str) -> str:
        """Consume one token of ``kind`` and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            got = self.texts[pos] or self.kinds[pos]
            self.fail(f"expected {kind!r}, found {got!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def comma_list(self, item) -> tuple:
        items = [item()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return tuple(items)

    def program(self) -> Program:
        fundefs = []
        while self.kinds[self.pos] == "fun":
            fundefs.append(self.fundef())
        main = self.expr()
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected trailing {self.texts[self.pos]!r}")
        return Program(tuple(fundefs), main)

    def fundef(self) -> FunDef:
        self.pos += 1  # "fun"
        name = self.expect("id")
        self.expect("(")
        params = self.comma_list(lambda: self.expect("id"))
        self.expect(")")
        self.expect("=")
        body = self.expr()
        self.expect(";")
        return FunDef(name, params, body)

    def expr(self, min_prec: int = 1) -> Expr:
        """An expression whose binary operators all bind at least as tightly
        as ``min_prec``.  Precedence climbing: a chain of operators at one
        level is a loop, and each operand recurses one level tighter."""
        kind = self.kinds[self.pos]
        if kind == "!" or kind == "-":
            self.pos += 1
            arg = self.expr(_PREFIX_PREC)
            node = Not(arg) if kind == "!" else BinOp("-", IntLit(0), arg)
        else:
            node = self.atom()
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            prec = _PREC.get(op, 0)
            if prec < min_prec:
                return node
            self.pos += 1
            node = BinOp(op, node, self.expr(prec + 1))

    def atom(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "id":
            if self.kinds[pos + 1] != "(":
                return Var(self.texts[pos])
            self.pos += 1
            args = self.comma_list(self.expr)
            self.expect(")")
            return Call(self.texts[pos], args)
        if kind == "int":
            digits = self.texts[pos]
            # int() refuses numerals of thousands of digits, and none fits
            value = int(digits) if len(digits.lstrip("0")) <= 19 else INT64_MAX + 1
            if value > INT64_MAX:
                self.fail("integer literal out of range", pos)
            return IntLit(value)
        if kind == "let":
            name = self.expect("id")
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(name, bound, self.expr())
        if kind == "if":
            guard = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(guard, then, self.expr())
        if kind == "true" or kind == "false":
            return BoolLit(kind == "true")
        if kind == "feature":
            self.expect("(")
            name = self.expect("string")
            if not name or not all(c.isalnum() or c == "_" for c in name) or name[0].isdigit():
                self.fail(f"feature name must be an identifier, got {name!r}", self.pos - 1)
            self.expect(")")
            return Feature(name)
        self.pos = pos
        if kind in KEYWORDS:
            self.fail(f"unexpected keyword {kind!r}")
        self.fail(f"unexpected {self.texts[pos] or kind!r}")


def parse(text: str) -> Program:
    """Parse and load-check a program (scoping, arities, acyclic calls).

    A program nested deeper than the parser's recursion allows raises
    ``BudgetExceeded``.
    """
    try:
        program = _Parser(text).program()
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to parse") from None
    load_check(program)
    return program


# --------------------------------------------------------------------------
# Load checks
# --------------------------------------------------------------------------

def _scoped_nodes(root: Expr, bound: frozenset = frozenset()):
    """Every node of ``root`` in pre-order (left to right), each with the
    names bound where it occurs.  Iterative, so nesting depth costs no
    stack."""
    stack = [(root, bound)]
    while stack:
        expr, bound = stack.pop()
        yield expr, bound
        cls = type(expr)
        if cls is BinOp:
            stack += ((expr.rhs, bound), (expr.lhs, bound))
        elif cls is If:
            stack += ((expr.orelse, bound), (expr.then, bound), (expr.guard, bound))
        elif cls is Let:
            stack += ((expr.body, bound | {expr.name}), (expr.bound, bound))
        elif cls is Not:
            stack.append((expr.arg, bound))
        elif cls is Call:
            stack += ((arg, bound) for arg in reversed(expr.args))


def _check_body(body: Expr, params, fundefs: dict) -> set:
    """Check the scopes and arities in one body; return the names of the
    functions it calls.  ``params`` is None for main, whose free variables
    are left to the bindings."""
    callees = set()
    for expr, bound in _scoped_nodes(body, frozenset(params or ())):
        cls = type(expr)
        if cls is Var:
            if params is not None and expr.name not in bound:
                raise ScopeError(f"unbound variable {expr.name!r}")
        elif cls is Call:
            callee = fundefs.get(expr.fn)
            if callee is None:
                raise ScopeError(f"call to undefined function {expr.fn!r}")
            if len(expr.args) != len(callee.params):
                raise ScopeError(
                    f"{expr.fn!r} takes {len(callee.params)} argument(s), got {len(expr.args)}"
                )
            callees.add(expr.fn)
    return callees


def load_check(program: Program):
    """Reject duplicate names, unbound variables in function bodies, calls
    to undefined functions or with the wrong arity, and call cycles."""
    fundefs: dict = {}
    for fd in program.fundefs:
        if fd.name in fundefs:
            raise ScopeError(f"duplicate function {fd.name!r}")
        if len(set(fd.params)) != len(fd.params):
            raise ScopeError(f"duplicate parameter in {fd.name!r}")
        fundefs[fd.name] = fd

    edges = {fd.name: sorted(_check_body(fd.body, fd.params, fundefs)) for fd in program.fundefs}
    _check_body(program.main, None, fundefs)

    # cycle detection over the call graph (recursion is out of scope): a
    # depth-first search whose trail is the chain of active calls
    done: set = set()
    for root in edges:
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


def free_vars(expr: Expr) -> list:
    """Free variables in first-use order (pre-order walk)."""
    out: dict = {}
    for e, bound in _scoped_nodes(expr):
        if type(e) is Var and e.name not in bound:
            out[e.name] = None
    return list(out)


def used_features(program: Program) -> set:
    roots = [fd.body for fd in program.fundefs] + [program.main]
    return {e.name for root in roots for e, _ in _scoped_nodes(root) if type(e) is Feature}


# --------------------------------------------------------------------------
# Renderer (round-trips through parse)
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
        return f"{e.fn}({', '.join(render_expr(a) for a in e.args)})"
    raise TypeError(f"not an expression: {e!r}")


def render_program(p: Program) -> str:
    lines = [
        f"fun {fd.name}({', '.join(fd.params)}) = {render_expr(fd.body)};"
        for fd in p.fundefs
    ]
    lines.append(render_expr(p.main))
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


def apply_op(op: str, a, b):
    """Apply one binary primitive to plain values, per-world semantics."""
    if op == "+":
        return _checked(_as_int(a) + _as_int(b))
    if op == "-":
        return _checked(_as_int(a) - _as_int(b))
    if op == "*":
        return _checked(_as_int(a) * _as_int(b))
    if op == "/":
        num, den = _as_int(a), _as_int(b)
        if den == 0:
            raise EvalError(DIV_BY_ZERO, "division by zero")
        quot = abs(num) // abs(den)
        if (num >= 0) != (den >= 0):
            quot = -quot
        return _checked(quot)
    if op == "<":
        return _as_int(a) < _as_int(b)
    if op == "<=":
        return _as_int(a) <= _as_int(b)
    if op == "==":
        if isinstance(a, bool) != isinstance(b, bool):
            raise EvalError(TYPE_MISMATCH, "== needs operands of one type")
        return a == b
    raise ValueError(f"unknown operator {op!r}")


def apply_not(a):
    return not _as_bool(a)


def eval_plain(program: Program, env, config=None, stats=None):
    """Strict call-by-value evaluation in a single world.

    ``env`` binds the free variables of ``main`` to plain values; ``config``
    is a feature-to-bool map, required only when the program tests features.
    ``stats``, when given, counts function and operator applications.  A
    program nested deeper than the interpreter's stack is a budget overrun.
    """
    fundefs = {fd.name: fd for fd in program.fundefs}

    def ev(e, scope):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
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
            if stats is not None:
                stats.applications["not"] += 1
            return apply_not(ev(e.arg, scope))
        if isinstance(e, BinOp):
            if e.op == "&&":
                if not _as_bool(ev(e.lhs, scope)):
                    return False
                return _as_bool(ev(e.rhs, scope))
            if e.op == "||":
                if _as_bool(ev(e.lhs, scope)):
                    return True
                return _as_bool(ev(e.rhs, scope))
            lhs = ev(e.lhs, scope)
            rhs = ev(e.rhs, scope)
            if stats is not None:
                stats.applications[OP_NAMES[e.op]] += 1
            return apply_op(e.op, lhs, rhs)
        if isinstance(e, Call):
            fd = fundefs[e.fn]
            args = [ev(a, scope) for a in e.args]
            if stats is not None:
                stats.applications[e.fn] += 1
            return ev(fd.body, dict(zip(fd.params, args)))
        if isinstance(e, Feature):
            if config is None or e.name not in config:
                raise MissingConfig(f"no configuration value for feature {e.name!r}")
            return bool(config[e.name])
        raise TypeError(f"not an expression: {e!r}")

    try:
        return ev(program.main, dict(env))
    except RecursionError:
        raise BudgetExceeded("program nested too deeply to evaluate") from None
