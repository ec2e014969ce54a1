"""Tokenization, n-gram extraction and counting primitives shared by every metric.

All functions are pure and operate on immutable-ish inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

import io
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

TokenSequence = list[str]
NGramCounts = Counter  # Counter[tuple[str, ...]]


class TranscriptError(ValueError):
    """Raised for malformed transcript input (e.g. misaligned files)."""


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer switches.

    ``split_punctuation`` makes every punctuation character a standalone
    token; ``strip_punctuation`` removes punctuation characters instead.
    The two are mutually exclusive.
    """

    lowercase: bool = True
    split_punctuation: bool = True
    strip_punctuation: bool = False

    def __post_init__(self) -> None:
        if self.split_punctuation and self.strip_punctuation:
            raise ValueError("split_punctuation and strip_punctuation are mutually exclusive")


DEFAULT_TOKENIZER = TokenizerConfig()


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split_punct(word: str) -> list[str]:
    out: list[str] = []
    buf: list[str] = []
    for ch in word:
        if _is_punct(ch):
            if buf:
                out.append("".join(buf))
                buf = []
            out.append(ch)
        else:
            buf.append(ch)
    if buf:
        out.append("".join(buf))
    return out


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> TokenSequence:
    """Split ``text`` into tokens on whitespace, applying the config transforms.

    Text is NFC-normalized first so that composed/decomposed diacritics
    (Polish included) compare consistently. Empty input yields an empty
    sequence; no token is ever the empty string.
    """
    text = unicodedata.normalize("NFC", text)
    if config.lowercase:
        text = text.lower()
    tokens: TokenSequence = []
    for word in text.split():
        if config.split_punctuation:
            tokens.extend(_split_punct(word))
        elif config.strip_punctuation:
            stripped = "".join(ch for ch in word if not _is_punct(ch))
            if stripped:
                tokens.append(stripped)
        else:
            tokens.append(word)
    return tokens


def ngrams(seq: TokenSequence, n: int) -> NGramCounts:
    """Count all contiguous n-grams of ``seq`` with multiplicity.

    ``n`` beyond the sequence length yields empty counts; n-grams never
    cross segment boundaries because a segment is the unit passed in.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def clipped_matches(hyp: NGramCounts, refs: Iterable[NGramCounts]) -> int:
    """Sum over hypothesis n-grams of min(hyp count, max reference count)."""
    refs = list(refs)
    total = 0
    for gram, count in hyp.items():
        best = max((ref.get(gram, 0) for ref in refs), default=0)
        total += min(count, best)
    return total


def read_segments(path: str | Path, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[TokenSequence]:
    """Read a transcript file: UTF-8, one segment per line, blank lines skipped."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TranscriptError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None
    return [tokenize(line, config) for line in io.StringIO(text, newline=None) if line.strip()]


def check_aligned(hyp_count: int, ref_count: int) -> None:
    """Hypothesis and reference files must align line-by-line after blank removal."""
    if hyp_count != ref_count:
        raise TranscriptError(
            f"segment count mismatch: hypothesis has {hyp_count}, reference has {ref_count}"
        )
