import io
import math
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from respeval.align_metrics import meteor, ribes
from respeval.ngram_metrics import NgramConfig, segment_stats
from respeval.stats import DataTable, backward_eliminate, ols_fit
from respeval.textcore import (
    RespevalInputError,
    TokenizerConfig,
    check_aligned,
    ngram_table,
    read_number,
    read_segments,
    read_table,
    read_text,
    tokenize,
)

import oracles
from helpers import SEED, make_rng

TOKENIZER_MODES = [
    TokenizerConfig(lowercase=lowercase, split_punctuation=mode == "split", strip_punctuation=mode == "strip")
    for mode in ("split", "strip", "keep")
    for lowercase in (True, False)
]


def test_tokenize_defaults():
    assert tokenize("this is a exam") == ["this", "is", "a", "exam"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t ") == []


def test_tokenize_lowercase_and_split_punctuation():
    assert tokenize("Hello, world.") == ["hello", ",", "world", "."]


def test_tokenize_strip_punctuation():
    config = TokenizerConfig(lowercase=True, split_punctuation=False, strip_punctuation=True)
    assert tokenize("Hello, world.", config) == ["hello", "world"]
    assert tokenize("...", config) == []


def test_tokenize_keep():
    config = TokenizerConfig(lowercase=False, split_punctuation=False, strip_punctuation=False)
    assert tokenize("Hello, World.", config) == ["Hello,", "World."]


def test_tokenize_nfc_normalization():
    composed = "zażółć"  # żółć-ish, precomposed
    decomposed = "zażółć"  # ó as o + combining acute
    assert tokenize(composed) == tokenize(decomposed)


def test_config_rejects_split_and_strip():
    with pytest.raises(ValueError):
        TokenizerConfig(split_punctuation=True, strip_punctuation=True)


@pytest.mark.parametrize(
    "config",
    [
        TokenizerConfig(),
        TokenizerConfig(lowercase=False),
        TokenizerConfig(split_punctuation=False, strip_punctuation=True),
        TokenizerConfig(split_punctuation=False, strip_punctuation=False),
    ],
)
def test_tokenize_idempotent_on_rejoined_output(config):
    rng = make_rng(1)
    words = ["Ala", "ma", "kota,", "really?!", "x.y", "koń", "..." , "A1"]
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 8)))
        once = tokenize(text, config)
        assert tokenize(" ".join(once), config) == once


def test_no_alphanumeric_character_is_punctuation():
    # tokenize keeps a word for which str.isalnum() holds whole in every mode
    alphanumeric_punctuation = [
        code
        for code in range(sys.maxunicode + 1)
        if chr(code).isalnum() and unicodedata.category(chr(code)).startswith("P")
    ]
    assert alphanumeric_punctuation == []


_tokenizer_text = st.lists(
    st.one_of(
        st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u3000"]),
        st.sampled_from(["a", "Z", "ż", "Ł", "ß", "İ", "ǅ", "7", "²", "٣", "Ⅻ", "x1"]),
        st.sampled_from([".", ",", "!", "?", "'", "-", "«", "»", "…", "¿", "_", "\u2019", "(", ")", "@", "$", "+"]),
        st.sampled_from(["\u0301", "\u0307", "\u0328", "\u0308", "o\u0301", "z\u0307", "e\u0328", "A\u030a"]),
        st.characters(categories=["L", "N", "P", "M", "S", "Zs"]),
    ),
    max_size=24,
).map("".join)


@seed(SEED)
@settings(database=None, max_examples=400)
@given(_tokenizer_text, st.sampled_from(TOKENIZER_MODES))
def test_tokenize_equals_the_character_by_character_oracle(text, config):
    expected = oracles.tokenize_oracle(
        text, config.lowercase, config.split_punctuation, config.strip_punctuation
    )
    assert tokenize(text, config) == expected


def order_of(seq, n):
    """The n-grams of order ``n`` in ``ngram_table(seq, n)``, in table order."""
    return {gram: count for gram, count in ngram_table(seq, n).items() if len(gram) == n}


def test_ngram_unigrams():
    assert ngram_table(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}


def test_ngram_bigrams():
    assert order_of(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}
    assert ngram_table(["a", "b", "a"], 2) == {("a",): 2, ("b",): 1, ("a", "b"): 1, ("b", "a"): 1}


def test_ngram_order_beyond_length():
    assert order_of(["a"], 2) == {}
    assert ngram_table(["a"], 2) == {("a",): 1}
    for seq, n in (([], 1), (["a", "b"], 3), (("a",) * 5, 10**9)):
        table = ngram_table(seq, n)
        assert isinstance(table, Counter) and sum(table.values()) == len(seq) * (len(seq) + 1) // 2
        assert not order_of(seq, n)


def test_ngram_counts_keep_first_occurrence_order_random_sequences():
    rng = make_rng(3)
    for _ in range(200):
        seq = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        for n in range(1, 8):
            expected = Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))
            assert list(order_of(seq, n).items()) == list(expected.items())
        # one table across orders 1 to 7, inserted order by order
        orders = [item for n in range(1, 8) for item in oracles.count_ngrams(seq, n).items()]
        assert list(ngram_table(seq, 7).items()) == orders


def test_ngram_rejects_zero_order():
    for max_n in (0, -1):
        with pytest.raises(ValueError):
            ngram_table(["a"], max_n)


def test_ngram_table_zero_order_is_an_input_error():
    with pytest.raises(RespevalInputError, match="^n-gram order must be >= 1, got 0$"):
        ngram_table(("a",), 0)


def test_ngram_total_counts_random_sequences():
    rng = make_rng(2)
    for _ in range(100):
        length = rng.randint(0, 30)
        seq = [rng.choice("abcde") for _ in range(length)]
        for n in range(1, 6):
            assert sum(order_of(seq, n).values()) == max(0, length - n + 1)


# Clipped matches at order n: the sum over the n-grams of ``segment_stats(...).clipped``,
# each hypothesis n-gram counted at most as often as in one reference; the
# record's per-order total ``matches[n - 1]`` holds the same sum.


def clipped_matches(hyp, refs, n):
    record = segment_stats(hyp, refs, NgramConfig(max_n=n))
    total = sum(matched for gram, matched in record.clipped.items() if len(gram) == n)
    assert record.matches[n - 1] == total
    return total


def test_clipped_matches_clipping():
    assert clipped_matches(["the"] * 3, [["the"]], 1) == 1


def test_clipped_matches_identity():
    assert clipped_matches(["a", "b"], [["a", "b"]], 1) == 2


def test_clipped_matches_max_over_references():
    assert clipped_matches(["a", "a"], [["a"], ["a", "a"]], 1) == 2


def test_clipped_matches_self_is_total():
    rng = make_rng(3)
    for _ in range(50):
        seq = [rng.choice("abc") for _ in range(rng.randint(1, 12))]
        for n in (1, 2, 3):
            assert clipped_matches(seq, [seq], n) == sum(order_of(seq, n).values())


def test_read_segments_skips_blank_lines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("first line\n\n  \nsecond line\n", encoding="utf-8")
    assert read_segments(path) == [["first", "line"], ["second", "line"]]


def test_read_text_counts_cr_lf_and_crlf_as_line_breaks(tmp_path):
    # every reader splits lines on CR LF, CR and LF alike
    path = tmp_path / "t.txt"
    for newline in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(newline.join([b"first", b"second", b"th\xffird", b"fourth"]))
        with pytest.raises(RespevalInputError, match="t.txt: line 3: not valid UTF-8"):
            read_text(path)
    path.write_bytes(b"one\r\ntwo\rthree\n\n\xff")
    with pytest.raises(RespevalInputError, match="t.txt: line 5: not valid UTF-8"):
        read_text(path)


def test_read_text_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfone\ntwo\n")
    assert read_text(path) == "\ufeffone\ntwo\n"
    path.write_bytes(b"\xef\xbb\xbfone\ntw\xffo\n")
    with pytest.raises(RespevalInputError, match="t.txt: line 2: not valid UTF-8"):
        read_text(path)


def test_check_aligned():
    check_aligned(3, 3)
    with pytest.raises(RespevalInputError, match="hypothesis has 3, reference has 2"):
        check_aligned(3, 2)


def test_read_table_rows_with_line_numbers():
    rows = read_table(io.StringIO("\n A , b\n1,2\n , \n3,4\n"))
    assert rows == [(2, ["A", "b"]), (3, ["1", "2"]), (5, ["3", "4"])]


@pytest.mark.parametrize(
    "text, required, message",
    [
        ("", (), "^line 1: missing header row$"),
        ("\n \n", (), "^line 1: missing header row$"),
        ("\nx,y\n1,2\n", ("y",), "^line 2: header must start with y, got x,y$"),
        ("a,b,a\n1,2,3\n", (), "^line 1: duplicate column 'a'$"),
        ("a,b\n1,2\n3\n", (), "^line 3: expected 2 fields, got 1$"),
    ],
)
def test_read_table_rejects(text, required, message):
    with pytest.raises(RespevalInputError, match=message):
        read_table(io.StringIO(text), required)


@pytest.mark.parametrize(
    "text, value",
    [("1", 1.0), (" -2.5 ", -2.5), ("+.5", 0.5), ("3.", 3.0), ("1e3", 1000.0), ("2E-2", 0.02), ("0", 0.0)],
)
def test_read_number_examples(text, value):
    assert read_number(text, "x") == value


@pytest.mark.parametrize(
    "text", ["", " ", "1_0", "١٠", "٠.٠٥", "nan", "inf", "-Infinity", "1e999", "0x10", ".", "e3", "1e", "1 2", "--1"]
)
def test_read_number_rejects(text):
    with pytest.raises(RespevalInputError, match=f"^cell must be a number, got {text!r}$"):
        read_number(text, "cell")


@pytest.mark.parametrize("text", ["1.0", "1e2", "1_0", "٥", "", "9" * 5000])
def test_read_number_integer_rejects(text):
    with pytest.raises(RespevalInputError, match="^N must be an integer, got "):
        read_number(text, "N", integer=True)


def test_read_number_integer_keeps_int():
    assert (read_number(" -007 ", "N", integer=True), read_number("+5", "N", integer=True)) == (-7, 5)
    assert type(read_number("5", "N", integer=True)) is int


def test_read_number_integer_lies_within_a_float():
    # every reader computes in floats, so an integer a float cannot hold is bad input, not an overflow
    largest = int(sys.float_info.max)
    for value in (largest, -largest):
        assert read_number(str(value), "N", integer=True) == value
    for value in (largest + 1, -largest - 1, 10**400):
        with pytest.raises(RespevalInputError, match="^N must be an integer, got "):
            read_number(str(value), "N", integer=True)


_TABLE = DataTable(["x", "y"], [[1.0, 2.0], [2.0, 3.9], [3.0, 6.2], [4.0, 7.8]], response="y")


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda: NgramConfig(max_n=0), id="ngram-order"),
        pytest.param(lambda: NgramConfig(synonym_score=0.0), id="ngram-synonym-score"),
        pytest.param(lambda: NgramConfig(rare_words_percent=1.5), id="ngram-rare-words-percent"),
        pytest.param(lambda: NgramConfig(rare_words_score=0.5), id="ngram-rare-words-score"),
        pytest.param(lambda: meteor(["a"], ["a"], function_word_weight=1.5), id="function-word-weight"),
        pytest.param(lambda: meteor(["a"], ["a"], penalty_exponent=0.0), id="meteor-penalty-exponent"),
        pytest.param(lambda: ribes(["a"], ["a"], alpha=1.0), id="ribes-alpha"),
        pytest.param(lambda: ribes(["a"], ["a"], variant="tau"), id="ribes-variant"),
        pytest.param(lambda: backward_eliminate(_TABLE, ["x"], alpha=0.0), id="elimination-alpha"),
        pytest.param(lambda: ols_fit(DataTable(_TABLE.columns, _TABLE.rows), ["x"]), id="ols-no-response"),
        pytest.param(
            lambda: TokenizerConfig(split_punctuation=True, strip_punctuation=True), id="tokenizer-exclusive-modes"
        ),
    ],
)
def test_setting_checks_raise_the_input_error(check):
    # one error type for bad input; it stays a ValueError for callers that catch that
    with pytest.raises(RespevalInputError):
        check()


_space = st.sampled_from(["", " ", "\t", "  "])
_sign = st.sampled_from(["", "+", "-"])
_digits = st.text("0123456789", min_size=1, max_size=12)
_mantissa = st.one_of(
    _digits,
    st.builds("{}.".format, _digits),
    st.builds("{}.{}".format, _digits, _digits),
    st.builds(".{}".format, _digits),
)
_exponent = st.one_of(
    st.just(""),
    st.builds("{}{}{}".format, st.sampled_from("eE"), _sign, st.text("0123456789", min_size=1, max_size=3)),
)
_decimal = st.builds("{}{}{}{}{}".format, _space, _sign, _mantissa, _exponent, _space)
_integer = st.builds("{}{}{}{}".format, _space, _sign, _digits, _space)


@seed(SEED)
@settings(database=None, max_examples=300)
@given(_decimal)
def test_read_number_equals_float_on_ascii_decimals(text):
    value = float(text)
    if math.isfinite(value):
        assert read_number(text, "x") == value
    else:  # an exponent past the float range
        with pytest.raises(RespevalInputError):
            read_number(text, "x")


@seed(SEED)
@settings(database=None, max_examples=300)
@given(_integer)
def test_read_number_integer_equals_int_on_ascii_integers(text):
    assert read_number(text, "x", integer=True) == int(text)


@seed(SEED)
@settings(database=None, max_examples=300)
@given(
    st.one_of(_decimal, st.just("")),
    st.one_of(st.just("_"), st.characters(categories=["Nd"], min_codepoint=128)),
    st.one_of(_decimal, st.just("")),
    st.booleans(),
)
def test_read_number_rejects_underscore_and_non_ascii_digits(before, bad, after, integer):
    with pytest.raises(RespevalInputError):
        read_number(before + bad + after, "x", integer)
