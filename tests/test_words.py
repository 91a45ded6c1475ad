from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate_word
from mixedsurf import words
from mixedsurf.errors import ValidationError, WordSyntaxError
from mixedsurf.perm import Permutation
from mixedsurf.words import (Presentation, Word, evaluate_word_index, normalize_word,
                             parse_word, word_power)

ABC = ("x", "y")


def print_word(word: Word) -> str:
    """The word's text, which ``parse_word`` reads back: the round-trip oracle."""
    if not word:
        return "1"
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in word)


def test_parse_simple():
    assert parse_word("g1*g2^-1", {"g1", "g2"}) == (("g1", 1), ("g2", -1))
    assert parse_word(" g1 * g2^-1 \n", {"g1", "g2"}) == (("g1", 1), ("g2", -1))


def test_parse_grouped_power_expands_and_cancels():
    # x^2 * (y*x)^-3 = x^2 * (x^-1 y^-1)^3; the leading x^2 x^-1 merges to x.
    word = parse_word("x^2*(y*x)^-3", ABC)
    assert word == (("x", 1), ("y", -1), ("x", -1), ("y", -1), ("x", -1), ("y", -1))
    # Independent sanity check: both expressions evaluate equally in S3.
    x = Permutation.from_cycles(3, [(1, 2)])
    y = Permutation.from_cycles(3, [(1, 2, 3)])
    yx_inv = (y * x).inverse()
    manual = x * x * yx_inv * yx_inv * yx_inv
    assert evaluate_word(word, {"x": x, "y": y}).images == manual.images


def test_unknown_symbol_has_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("g7", {"g1", "g2", "g3"})
    assert err.value.position == 0


@pytest.mark.parametrize("bad", ["x**y", "x^", "(x", "x)", "", "^2", "x^y"])
def test_syntax_errors(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad, ABC)


@pytest.mark.parametrize("text", ["x^\u0663", "x^-\u0663", "x^\uff13", "x^1\u0663"])
def test_exponents_are_ascii_digits(text):
    # int() reads any Unicode decimal digit; the grammar, like its symbols,
    # takes ASCII only.
    with pytest.raises(WordSyntaxError, match="unexpected character"):
        parse_word(text, ABC)


def test_zero_exponent_cancels():
    assert parse_word("x^0*y", ABC) == (("y", 1),)
    assert parse_word("x*x^-1", ABC) == ()
    assert print_word(()) == "1"


def test_normalize_word_drops_zero_exponents():
    # The parser never passes a zero exponent on; a caller that builds
    # relators by hand can.
    assert normalize_word([("x", 0), ("y", 2), ("y", 0), ("y", -2), ("x", 1)]) == (("x", 1),)
    assert normalize_word([("x", 0)]) == ()


def test_inverse_of_product_reverses():
    assert word_power((("x", 1), ("y", 1)), -1) == (("y", -1), ("x", -1))


def test_letter_budget_covers_the_whole_text(monkeypatch):
    # A power of one letter is one pair however large its exponent, and
    # adjacent powers merge.
    assert parse_word("*".join(["x^1000000"] * 100), ABC) == (("x", 10**8),)
    with pytest.raises(ValidationError, match="letter budget"):
        parse_word("x^1000001", ABC)
    # Powers of longer words are copied: each one here is within the
    # budget, the hundred of them are not.
    monkeypatch.setattr(words, "_MAX_LETTERS", 100)
    assert parse_word("(x*y)^50", ABC) == (("x", 1), ("y", 1)) * 50
    with pytest.raises(ValidationError, match="letter budget"):
        parse_word("*".join(["(x*y)^30"] * 100), ABC)


def test_print_parse_fixed_point_examples():
    for text in ["x*y^-1*x^-1", "x^3", "y^-2*x", "x"]:
        word = parse_word(text, ABC)
        assert parse_word(print_word(word), ABC) == word


@st.composite
def normalized_words(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(ABC),
                                    st.integers(-5, 5).filter(lambda e: e != 0)),
                          max_size=8))
    return normalize_word(pairs)


@settings(max_examples=200, deadline=None)
@given(normalized_words())
def test_print_parse_round_trip(word):
    assert parse_word(print_word(word), ABC) == word


def test_evaluate_empty_word_is_identity():
    x = Permutation.from_cycles(3, [(1, 2)])
    assert evaluate_word((), {"x": x}).images == (1, 2, 3)


def test_evaluate_transpositions_give_three_cycle():
    x = Permutation.from_cycles(3, [(1, 2)])
    y = Permutation.from_cycles(3, [(2, 3)])
    prod = evaluate_word(parse_word("x*y", ABC), {"x": x, "y": y})
    assert prod.order() == 3


def test_relator_evaluates_to_identity_in_d285():
    from oracles import semidirect_z8_z2_r5
    g = semidirect_z8_z2_r5()
    x, y = g.generators
    relator = parse_word("x*y*x^-1*y^-5", ABC)
    assert evaluate_word(relator, {"x": x, "y": y}).images == tuple(range(1, g.degree + 1))


def test_evaluate_missing_assignment(s3):
    with pytest.raises(ValidationError):
        evaluate_word((("x", 1),), {})
    with pytest.raises(ValidationError):
        evaluate_word_index(s3, (("x", 1),), {})


def test_presentation_checks_symbols():
    with pytest.raises(ValidationError):
        Presentation(("x",), ((("y", 1),),))
    pres = Presentation.parse(("x", "y"), ["x^2", "y^3", "(x*y)^2"])
    assert len(pres.relators) == 3


@pytest.mark.parametrize("generators, message", [((), "at least one generator"),
                                                 (("x", "y", "x"), "duplicate generator")])
def test_presentation_checks_generators(generators, message):
    with pytest.raises(ValidationError, match=message):
        Presentation(generators, ())


def test_nesting_is_bounded_before_the_recursion_limit():
    # The parser recurses once per level; 600 levels used to raise
    # RecursionError.
    deep = words.MAX_NESTING
    assert parse_word("(" * deep + "x" + ")" * deep, ABC) == (("x", 1),)
    for depth in (deep + 1, 600, 5000):
        with pytest.raises(WordSyntaxError, match="nest deeper than") as err:
            parse_word("(" * depth + "x" + ")" * depth, ABC)
        assert err.value.position == deep
