import pytest

from multiworld.bindings import parse_bindings
from multiworld.errors import BindingsError, TooManyFeatures, UndeclaredFeature
from multiworld.labels import Tag
from multiworld.modal import validate


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
        assert alg.holds(one[1], cfg) == want_one
        assert alg.holds(one[2], cfg) == (not want_one)
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
    text = "modality feature(" + ", ".join(f"F{i:02d}" for i in range(25)) + ");"
    with pytest.raises(TooManyFeatures):
        parse_bindings(text)
    parse_bindings(text.replace(");", ");"), feature_limit=25)
