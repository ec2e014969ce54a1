import pytest

from respeval.ngram_metrics import NgramConfig, segment_stats
from respeval.textcore import (
    RespevalInputError,
    TokenizerConfig,
    check_aligned,
    ngrams,
    read_segments,
    read_text,
    tokenize,
)

from helpers import make_rng


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


def test_ngram_unigrams():
    assert ngrams(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}


def test_ngram_bigrams():
    assert ngrams(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}


def test_ngram_order_beyond_length():
    assert ngrams(["a"], 2) == {}


def test_ngram_rejects_zero_order():
    with pytest.raises(ValueError):
        ngrams(["a"], 0)


def test_ngram_total_counts_random_sequences():
    rng = make_rng(2)
    for _ in range(100):
        length = rng.randint(0, 30)
        seq = [rng.choice("abcde") for _ in range(length)]
        for n in range(1, 6):
            assert sum(ngrams(seq, n).values()) == max(0, length - n + 1)


# Clipped matches at order n: the sum over ``segment_stats(...).clipped[n - 1]``,
# each hypothesis n-gram counted at most as often as in one reference.


def clipped_matches(hyp, refs, n):
    return sum(segment_stats(hyp, refs, NgramConfig(max_n=n)).clipped[n - 1].values())


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
            assert clipped_matches(seq, [seq], n) == sum(ngrams(seq, n).values())


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


def test_check_aligned():
    check_aligned(3, 3)
    with pytest.raises(RespevalInputError, match="hypothesis has 3, reference has 2"):
        check_aligned(3, 2)
