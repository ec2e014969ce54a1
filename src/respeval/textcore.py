"""Tokenization and n-gram extraction shared by every metric,
plus what every module shares for outside input: the one error type for bad
input and the UTF-8 file readers.

All functions apart from the readers are pure and operate on immutable-ish
inputs; they are safe to call concurrently.
"""

from __future__ import annotations

import csv
import io
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

TokenSequence = list[str]
NGramCounts = Counter  # Counter[tuple[str, ...]]


class RespevalInputError(ValueError):
    """Bad input from outside the program: a file's contents, a flag or an argument.

    Every message reads ``PATH: line N: message``, with the path and the line
    left out where they are not known.
    """

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.message, self.path, self.line = message, path, line
        location = "" if path is None else f"{path}: "
        if line is not None:
            location += f"line {line}: "
        super().__init__(location + message)


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


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 file; bytes that do not decode are a ``RespevalInputError``
    naming the line they are on; CR LF, CR and LF each end a line, as in
    every reader."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise RespevalInputError(f"not valid UTF-8 ({exc.reason})", path, line) from None


def read_csv(source: str | Path | Iterable[str]) -> list[list[str]]:
    """The rows of a CSV file (decoded by ``read_text``) or of an iterable of lines."""
    path = source if isinstance(source, (str, Path)) else None
    reader = csv.reader(source if path is None else io.StringIO(read_text(path), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise RespevalInputError(str(exc), path, reader.line_num) from None


def read_segments(path: str | Path, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[TokenSequence]:
    """Read a transcript file: UTF-8, one segment per line, blank lines skipped."""
    lines = io.StringIO(read_text(path), newline=None)
    return [tokenize(line, config) for line in lines if line.strip()]


def check_aligned(hyp_count: int, ref_count: int, ref_path: str | Path | None = None) -> None:
    """Hypothesis and reference files must align line-by-line after blank removal."""
    if hyp_count != ref_count:
        raise RespevalInputError(
            f"segment count mismatch: hypothesis has {hyp_count}, reference has {ref_count}", ref_path
        )
