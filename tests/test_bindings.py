import pytest
from hypothesis import given, settings, strategies as st

from multiworld.bindings import _Reader, parse_bindings
from multiworld.errors import (
    BindingsError,
    BudgetExceeded,
    EmptyModalValue,
    ParseError,
    ProbabilityOverflow,
    TooManyFeatures,
    UndeclaredFeature,
)
from multiworld.labels import Tag
from multiworld.lang import is_identifier, parse
from multiworld.modal import validate
from reference import assert_scans_like, bindings_tokens, line_col


def test_feature_bindings():
    alg, binds = parse_bindings(
        """
        // the worked three-argument example
        modality feature(FA, FB);
        bind x = { -7 @ FA, 3 @ !FA };
        bind y = { 1 @ FA & FB, 8 @ FA & !FB, 4 @ !FA & FB, 10 @ !FA & !FB };
        bind z = { 5 @ true };
        """
    )
    assert alg.kind == "feature"
    assert alg.features == ("FA", "FB")
    assert set(binds) == {"x", "y", "z"}
    assert [v for v, _ in binds["x"].pairs] == [-7, 3]
    for mv in binds.values():
        assert validate(alg, mv).ok


def test_label_precedence_and_parens():
    alg, binds = parse_bindings(
        "modality feature(FA, FB);\nbind v = { 1 @ !FA & FB | FA, 2 @ !(FA | (!FA & FB)) };"
    )
    one = dict((v, l) for v, l in binds["v"].pairs)
    # ! binds tightest, & next, | loosest
    for cfg in alg.iter_configs():
        want_one = (not cfg["FA"]) and cfg["FB"] or cfg["FA"]
        assert alg.covers(one[1], cfg) == want_one
        assert alg.covers(one[2], cfg) == (not want_one)
    assert validate(alg, binds["v"]).ok


def test_probability_bindings():
    alg, binds = parse_bindings("modality probability;\nbind p = { 7 @ 0.2, 9 @ 0.8 };")
    assert alg.kind == "probability"
    assert binds["p"].pairs == ((7, 0.2), (9, 0.8))


def test_interval_bindings():
    alg, binds = parse_bindings("modality interval;\nbind r = [4 .. 9];\nbind s = [-3 .. 9];")
    assert binds["r"].pairs == ((4, Tag.MIN), (9, Tag.MAX))
    assert binds["s"].pairs == ((-3, Tag.MIN), (9, Tag.MAX))


def test_boolean_values():
    alg, binds = parse_bindings("modality feature(FA);\nbind b = { true @ FA, false @ !FA };")
    assert [v for v, _ in binds["b"].pairs] == [False, True]


def test_false_feature_label():
    # false joins as the empty world set, and a pair labeled false denotes
    # no world, so normalization drops it
    alg, binds = parse_bindings(
        "modality feature(FA);\nbind v = { 1 @ FA | false, 2 @ !FA, 3 @ false & FA, 4 @ false };"
    )
    assert binds["v"].pairs == ((1, alg.var("FA")), (2, alg.complement(alg.var("FA"))))


def test_bindings_normalize_merges_duplicates():
    alg, binds = parse_bindings("modality feature(FA);\nbind v = { 2 @ FA, 2 @ !FA };")
    assert len(binds["v"].pairs) == 1


def test_bindings_errors():
    with pytest.raises(BindingsError):
        parse_bindings("bind x = { 1 @ true };")  # modality must come first
    with pytest.raises(BindingsError):
        parse_bindings("modality feature(FA);\nbind x = { 1 @ FA };\nbind x = { 2 @ !FA };")
    with pytest.raises(UndeclaredFeature):
        parse_bindings("modality feature(FA);\nbind x = { 1 @ FB };")
    with pytest.raises(BindingsError):
        parse_bindings("modality probability;\nbind x = { 1 @ 1.5 };")
    with pytest.raises(BindingsError):
        parse_bindings("modality probability;\nbind x = [1 .. 2];")
    with pytest.raises(BindingsError):
        parse_bindings("modality interval;\nbind x = { 1 @ MIN };")
    with pytest.raises(BindingsError):
        parse_bindings("modality feature(FA, FA);\nbind x = { 1 @ FA };")


def test_feature_limit_flows_through():
    def declare(k):
        return "modality feature(" + ", ".join(f"F{i:02d}" for i in range(k)) + ");"

    assert len(parse_bindings(declare(24))[0].features) == 24
    with pytest.raises(TooManyFeatures, match="^25 features declared, at most 24 fit in a label"):
        parse_bindings(declare(25))


@pytest.mark.parametrize(
    "text, message",
    [
        ("modality interval;\n// c\nbind x = [1 ..\n\n x];",
         "expected 'int' (found 'x') (line 5, col 2)"),
        ("modality probability; bind // c", "expected 'id' (found 'eof') (line 1, col 32)"),
        ("modality feature(FA);\n\nbind x = { 1 @ FA $ };", "unexpected character '$' (line 3, col 19)"),
        ("modality interval;\nbind x = [1 .. " + "9" * 5000 + "];",
         "integer out of 64-bit range (found ']') (line 2, col 5016)"),
        ("modality probability;\nbind x = [1 .. 2];",
         "range syntax needs the interval modality (found '[') (line 2, col 10)"),
        ("modality interval;\nbind x = { 1 @ MIN };",
         "interval bindings use the [lo .. hi] form (found '{') (line 2, col 10)"),
        # true is every world in a label and false none, so no feature takes their names
        ("modality feature(true);",
         "expected a feature name, not a label literal (found 'true') (line 1, col 18)"),
        ("modality feature(FA, false);",
         "expected a feature name, not a label literal (found 'false') (line 1, col 22)"),
    ],
    ids=["multi-line", "after-comment", "stray-character", "huge-integer", "range-syntax", "pair-syntax",
         "true-feature", "false-feature"],
)
def test_error_messages_and_lines(text, message):
    with pytest.raises(BindingsError) as exc:
        parse_bindings(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("word, ok", [
    *((word, True) for word in ("café", "Fé", "é", "_", "_1", "a²", "x½")),
    *((word, False) for word in ("²", "½x", "1a")),
])
def test_one_identifier_rule_for_every_front_end(word, ok):
    # a program's variables, its feature("...") names and the names of a
    # bindings file are read by one rule: a letter of any script or _ first
    assert is_identifier(word) == ok
    for read in (parse, lambda w: parse(f'feature("{w}")'),
                 lambda w: parse_bindings(f"modality feature({w});\nbind {w} = {{ 1 @ true }};")):
        try:
            read(word)
        except (ParseError, BindingsError) as ex:
            assert not ok, ex
        else:
            assert ok


def test_deeply_nested_label_is_a_budget_error():
    with pytest.raises(BudgetExceeded, match="nested too deeply to parse"):
        parse_bindings("modality feature(FA);\nbind x = { 1 @ " + "(" * 3000 + "FA" + ")" * 3000 + " };")


def test_non_ascii_digits_and_tight_ranges():
    # \d is any decimal digit, as int() and float() read them
    _, binds = parse_bindings("modality probability;\nbind x = { ٣ @ ٠.٥, 4 @ 0.5 };")
    assert binds["x"].pairs == ((3, 0.5), (4, 0.5))
    _, binds = parse_bindings("modality interval;\nbind r = [4..9]; // the end")
    assert binds["r"].pairs == ((4, Tag.MIN), (9, Tag.MAX))


BINDINGS_TOKENS = [
    "modality", "feature", "probability", "interval", "bind", "true", "false",
    "x", "FA", "FB", "0", "7", "٣", "0.5", "٠.٥", "1.5", "9223372036854775808", "[4..9]",
    "(", ")", "{", "}", "[", "]", "..", "@", ",", ";", "=", "!", "&", "|", "-", "+",
    " ", "\n", "// c\n", "// c", ".", "$", "é", "²", '"',
]
HEADS = ["", "modality feature(FA, FB);", "modality probability;", "modality interval;"]


@settings(max_examples=500)
@given(st.sampled_from(HEADS), st.lists(st.sampled_from(BINDINGS_TOKENS), max_size=40))
def test_token_soup_raises_only_documented_errors(head, tokens):
    text = head + " ".join(tokens)
    starts = assert_scans_like(bindings_tokens, _Reader, text)
    try:
        parse_bindings(text)
    except BindingsError as ex:
        assert ex.line is not None
        if starts is not None:  # a parse error names a token's start
            assert (ex.line, ex.col) in {line_col(text, start) for start in starts}
    # a well-formed file can still name an undeclared feature, declare too
    # many, bind a value whose every label is empty, or join weights past 1
    except (UndeclaredFeature, TooManyFeatures, EmptyModalValue, ProbabilityOverflow):
        pass


def test_token_soup_can_overflow_a_weight():
    # the soup's own tokens, as it joins them after the probability head
    text = HEADS[2] + " ".join(["bind", "x", "=", "{", "0", "@", "0.5", ",", "0", "@", "0.5",
                                ",", "0", "@", "0.5", "}", ";"])
    with pytest.raises(ProbabilityOverflow) as exc:
        parse_bindings(text)
    assert str(exc.value) == "binding 'x': joined weights sum to 1.5 > 1.0"
