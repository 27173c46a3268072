import dataclasses
import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multiworld.errors import (
    BudgetExceeded,
    CyclicCallError,
    EvalError,
    MissingBinding,
    MissingConfig,
    ParseError,
    ScopeError,
)
from multiworld.lang import (
    BinOp,
    BoolLit,
    Call,
    Feature,
    FunDef,
    If,
    IntLit,
    Let,
    Not,
    Var,
    _Parser,
    eval_plain,
    parse,
    read_source,
    render_program,
)
from multiworld.lifting import LiftStats
from multiworld.oracle import random_bindings, random_program
from reference import assert_scans_like, line_col, program_tokens

DIV_PROGRAM = """
fun foo(x, y) =
  let c = if feature("FA") then 1 else 0 in
  if feature("FB") then (x + y) / c else (x + c) / y;
foo(x, y)
"""


# --- parsing ------------------------------------------------------------------

def test_parse_fundefs_and_call():
    p = parse("fun bar(a, b) = a * b; fun baz(c) = c + 1; fun foo(x, y, z) = bar(x, y) + baz(z); foo(a, b, c)")
    assert [fd.name for fd in p.fundefs] == ["bar", "baz", "foo"]
    assert p.main == Call("foo", (Var("a"), Var("b"), Var("c")))
    assert p.fundefs[2].body == BinOp(
        "+", Call("bar", (Var("x"), Var("y"))), Call("baz", (Var("z"),))
    )


def test_parse_feature_guard():
    p = parse('if feature("FB") then (x + y) / c else (x + c) / y')
    assert isinstance(p.main, If)
    assert p.main.guard == Feature("FB")


def test_precedence_and_associativity():
    assert parse("1 + 2 * 3").main == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))
    assert parse("1 - 2 - 3").main == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))
    assert parse("1 < 2 == true").main == BinOp("==", BinOp("<", IntLit(1), IntLit(2)), BoolLit(True))
    assert parse("!a && b").main == BinOp("&&", Not(Var("a")), Var("b"))
    assert parse("a || b && c").main == BinOp("||", Var("a"), BinOp("&&", Var("b"), Var("c")))


def test_unary_minus_desugars():
    assert parse("-7").main == BinOp("-", IntLit(0), IntLit(7))
    assert eval_plain(parse("0 - 7"), {}) == -7
    assert eval_plain(parse("-x * 2"), {"x": 3}) == -6


def test_comments_and_let():
    p = parse("// a comment\nlet x = 1 in // mid\n x + 1")
    assert p.main == Let("x", IntLit(1), BinOp("+", Var("x"), IntLit(1)))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("let x = (1 +\n2")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("let x = 1 in\n  x +\n    * 2", "unexpected '*' (line 3, col 5)"),
        ('x + feature(\n "FA)', "unterminated string (line 2, col 2)"),
        ("x + // c", "unexpected 'eof' (line 1, col 9)"),
        ("// c\nx +\n// d", "unexpected 'eof' (line 3, col 5)"),
        ("x ²", "unexpected character '²' (line 1, col 3)"),
        ('feature("2a")', "feature name must be an identifier, got '2a' (line 1, col 9)"),
    ],
)
def test_error_positions(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_integer_literal_range():
    parse(str(2**63 - 1))
    assert parse("0" * 30 + "7").main == IntLit(7)
    for text in (str(2**63), "9" * 5000):
        with pytest.raises(ParseError, match="integer literal out of range"):
            parse(text)


def test_long_operator_chain_parses():
    program = parse("+".join(["x"] * 3000))
    node, depth = program.main, 0
    while isinstance(node, BinOp):
        assert node.op == "+" and node.rhs == Var("x")
        node, depth = node.lhs, depth + 1
    assert (node, depth) == (Var("x"), 2999)


def test_deep_nesting_is_a_budget_error():
    with pytest.raises(BudgetExceeded, match="nested too deeply to parse"):
        parse("(" * 3000 + "x" + ")" * 3000)


def test_scope_and_cycle_errors():
    with pytest.raises(ScopeError):
        parse("fun f(x) = y; f(1)")
    with pytest.raises(ScopeError):
        parse("fun f(x) = x; f(1, 2)")
    with pytest.raises(ScopeError):
        parse("g(1)")
    with pytest.raises(ScopeError):
        parse("fun f(x, x) = x; f(1, 2)")
    with pytest.raises(CyclicCallError):
        parse("fun f(x) = f(x); f(1)")
    with pytest.raises(CyclicCallError):
        parse("fun f(x) = g(x); fun g(x) = f(x); f(1)")


def test_analysis_records_functions_features_and_inputs():
    program = parse(
        'fun f(a) = if feature("FB") then a else 0;\n'
        'let t = y in if feature("FA") then f(x) + t else let w = y in w + z'
    )
    facts = program.analysis
    assert facts.fundefs == {"f": program.fundefs[0]}
    assert facts.features == {"FA", "FB"}
    assert facts.inputs == ("y", "x", "z")
    assert program.analysis is facts


def test_reserved_words_not_identifiers():
    with pytest.raises(ParseError):
        parse("let let = 1 in 2")


def test_render_round_trip_on_random_corpus():
    for seed in range(150):
        rng = random.Random(seed)
        kind = ("feature", "interval", "probability")[seed % 3]
        alg, binds = random_bindings(rng, kind)
        program = random_program(rng, alg, binds)
        assert parse(render_program(program)) == program


@settings(max_examples=200)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["feature", "interval", "probability"]),
    st.integers(1, 8),
)
def test_render_round_trip_fuzzed(seed, kind, max_depth):
    rng = random.Random(seed)
    alg, binds = random_bindings(rng, kind)
    program = random_program(rng, alg, binds, linear=kind == "probability", max_depth=max_depth)
    assert parse(render_program(program)) == program


PROGRAM_TOKENS = [
    "fun", "let", "in", "if", "then", "else", "true", "false", "feature",
    "x", "f", "_a1", "é", "0", "7", "٣", "9223372036854775808", '"FA"', '"2"', '""', '"',
    "(", ")", ",", ";", "=", "+", "-", "*", "/", "<", "<=", "==", "&&", "||", "!",
    " ", "\n", "// c\n", "// c", "&", "|", "@", "$", "²",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(PROGRAM_TOKENS), max_size=40), st.sampled_from(["", " "]))
def test_token_soup_raises_only_documented_errors(tokens, sep):
    text = sep.join(tokens)
    starts = assert_scans_like(program_tokens, _Parser, text)
    try:
        parse(text)
    except ParseError as ex:
        assert ex.line is not None and ex.col is not None
        if starts is not None:  # a parse error names a token's start
            assert (ex.line, ex.col) in {line_col(text, start) for start in starts}
    except (ScopeError, CyclicCallError):
        pass


def test_error_positions_name_the_token():
    for text, message in [
        ('1 +\n  "FA"', 'unexpected \'FA\' (line 2, col 3)'),
        ('1 ""', "unexpected trailing '' (line 1, col 3)"),
        ('feature(\n x)', "expected 'string', found 'x' (line 2, col 2)"),
        ('let x = 1 in\n"', "unterminated string (line 2, col 1)"),
        ('let x = ² in x', "unexpected character '²' (line 1, col 9)"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_nodes_are_slotted_dataclasses_compared_by_class_and_fields():
    for cls in (IntLit, BoolLit, Var, Let, If, BinOp, Not, Call, Feature, FunDef):
        assert dataclasses.is_dataclass(cls) and "__slots__" in vars(cls)
        node = cls(*(None for _ in dataclasses.fields(cls)))
        assert not hasattr(node, "__dict__")
    assert IntLit(0) != BoolLit(False)
    assert Var("x") != Feature("x")
    assert BinOp("+", Var("x"), IntLit(1)) == BinOp("+", Var("x"), IntLit(1))


def test_count_nodes_walks_the_slotted_fields(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    # the program, a FunDef over a 3-node body, and 8 nodes in main
    text = 'fun f(a) = a + 1;\nlet x = f(2) in if feature("FA") then x else !true'
    assert gen.count_nodes(parse(text)) == 1 + 4 + 8


def test_render_round_trip_shapes():
    text = 'fun f(a) = (if feature("FA") then a else -a);\nlet x = f(2) in x <= 3 && !false'
    program = parse(text)
    assert parse(render_program(program)) == program


# --- plain evaluation -----------------------------------------------------------

def test_div_program_per_configuration():
    p = parse(DIV_PROGRAM)
    env = {"x": 6, "y": 3}
    with pytest.raises(EvalError) as exc:
        eval_plain(p, env, {"FA": False, "FB": True})
    assert exc.value.kind == "DivByZero"
    assert eval_plain(p, env, {"FA": True, "FB": True}) == 9
    assert eval_plain(p, env, {"FA": True, "FB": False}) == 2
    assert eval_plain(p, env, {"FA": False, "FB": False}) == 2


def test_truncating_division():
    assert eval_plain(parse("7 / 2"), {}) == 3
    assert eval_plain(parse("-7 / 2"), {}) == -3
    assert eval_plain(parse("7 / -2"), {}) == -3
    assert eval_plain(parse("-7 / -2"), {}) == 3


def test_short_circuit():
    assert eval_plain(parse("false && (1 / 0 == 0)"), {}) is False
    assert eval_plain(parse("true || (1 / 0 == 0)"), {}) is True
    with pytest.raises(EvalError):
        eval_plain(parse("true && (1 / 0 == 0)"), {})


def test_overflow_is_an_error():
    big = str(2**62)
    with pytest.raises(EvalError) as exc:
        eval_plain(parse(f"{big} + {big}"), {})
    assert exc.value.kind == "Overflow"
    with pytest.raises(EvalError):
        eval_plain(parse(f"(0 - {2**63 - 1} - 1) / -1"), {})


def test_type_errors():
    with pytest.raises(EvalError) as exc:
        eval_plain(parse("1 + true"), {})
    assert exc.value.kind == "TypeMismatch"
    with pytest.raises(EvalError):
        eval_plain(parse("if 3 then 1 else 2"), {})
    with pytest.raises(EvalError):
        eval_plain(parse("1 == true"), {})
    assert eval_plain(parse("true == true"), {}) is True


def test_missing_binding_and_config():
    with pytest.raises(MissingBinding):
        eval_plain(parse("x + 1"), {})
    with pytest.raises(MissingConfig):
        eval_plain(parse('feature("FA")'), {})


def test_let_shadowing_and_strictness():
    assert eval_plain(parse("let x = 1 in let x = 2 in x"), {}) == 2
    # strict: the bound expression runs even when unused
    with pytest.raises(EvalError):
        eval_plain(parse("let t = 1 / 0 in 5"), {})


def test_eval_is_deterministic():
    p = parse(DIV_PROGRAM)
    outs = {eval_plain(p, {"x": 6, "y": 3}, {"FA": True, "FB": True}) for _ in range(5)}
    assert outs == {9}


def test_stats_count_functions_and_operators():
    p = parse("fun inc(a) = a + 1; inc(1) + inc(2)")
    stats = LiftStats()
    eval_plain(p, {}, stats=stats)
    assert stats.applications["inc"] == 2
    assert stats.applications["add"] == 3


def test_call_arguments_evaluate_before_entry():
    p = parse("fun f(a) = 1; f(1 / 0)")
    stats = LiftStats()
    with pytest.raises(EvalError):
        eval_plain(p, {}, stats=stats)
    assert stats.applications["f"] == 0


def test_read_source_names_a_bad_byte_by_its_file_offset(tmp_path):
    path = tmp_path / "p.mdl"
    path.write_bytes(b"1 +\r\n" * 4000 + b"\x80")  # past the first 8 KB
    with pytest.raises(ParseError) as info:
        read_source(str(path))
    assert str(info.value) == f"{path}: not valid UTF-8 (byte 0x80 at offset 20000)"
