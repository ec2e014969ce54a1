"""Tokenization and n-gram extraction shared by every metric,
plus what every module shares for outside input: the one error type for bad
input, the UTF-8 file readers, the CSV table reader and the number reader.

All functions apart from the readers are pure and operate on immutable-ish
inputs; they are safe to call concurrently.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
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
            raise RespevalInputError("split_punctuation and strip_punctuation are mutually exclusive")


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
        if word.isalnum():  # no letter or digit is punctuation: the word stays whole in every mode
            tokens.append(word)
        elif config.split_punctuation:
            tokens.extend(_split_punct(word))
        elif config.strip_punctuation:
            stripped = "".join(ch for ch in word if not _is_punct(ch))
            if stripped:
                tokens.append(stripped)
        else:
            tokens.append(word)
    return tokens


def ngram_table(seq: TokenSequence, max_n: int) -> NGramCounts:
    """Count the n-grams of ``seq`` of every order from 1 to ``max_n`` into one
    table, in one ``Counter`` pass over a list that holds them order by order;
    a gram's order is its length."""
    if max_n < 1:
        raise RespevalInputError(f"n-gram order must be >= 1, got {max_n}")
    orders = range(1, min(max_n, len(seq)) + 1)
    return Counter([gram for n in orders for gram in zip(*[seq[i:] for i in range(n)])])


def line_at(text: str, pos: int) -> int:
    """The 1-based line of offset ``pos`` in ``text``; CR LF, CR and LF each
    end a line, as in every reader."""
    before = text[:pos]
    return before.count("\n") + before.count("\r") - before.count("\r\n") + 1


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 file, less one leading byte-order mark; bytes that do
    not decode are a ``RespevalInputError`` naming the line they are on."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = line_at(before, len(before))
        raise RespevalInputError(f"not valid UTF-8 ({exc.reason})", path, line) from None


def read_table(
    source: str | Path | Iterable[str], required: tuple[str, ...] = ()
) -> list[tuple[int, list[str]]]:
    """The non-blank rows of a CSV file (decoded by ``read_text``) or of an
    iterable of lines, each with the 1-based number of the line it starts on
    (a quoted cell may span lines); the header comes first, its cells stripped.

    A file with no header, a header that does not start with the ``required``
    columns, a column name given twice and a row whose width differs from the
    header's are each a ``RespevalInputError`` naming the line."""
    path = source if isinstance(source, (str, Path)) else None
    reader = csv.reader(source if path is None else io.StringIO(read_text(path), newline=""))
    rows, start = [], 1
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise RespevalInputError(str(exc), path, reader.line_num) from None
    if not rows:
        raise RespevalInputError("missing header row", path, 1)
    header_line, header = rows[0][0], [cell.strip() for cell in rows[0][1]]
    if tuple(header[: len(required)]) != required:
        raise RespevalInputError(
            f"header must start with {','.join(required)}, got {','.join(header)}", path, header_line
        )
    for i, name in enumerate(header):
        if name in header[:i]:
            raise RespevalInputError(f"duplicate column {name!r}", path, header_line)
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise RespevalInputError(f"expected {len(header)} fields, got {len(row)}", path, line)
    return [(header_line, header), *rows[1:]]


_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def read_number(text: str, what: str, integer: bool = False) -> int | float:
    """The finite number in ``text``: an optional sign, ASCII digits and (unless
    ``integer``) an optional decimal point and exponent, whitespace around it
    allowed; an integer must lie within a float's range. Anything else, such as
    ``1_0``, ``١٠``, ``nan`` or ``inf``, is a ``RespevalInputError``: "WHAT must
    be a number (an integer), got TEXT"."""
    body = text.strip()
    if integer and _INTEGER.fullmatch(body):
        try:
            if abs(value := int(body)) <= sys.float_info.max:  # every reader computes in floats
                return value
        except ValueError:  # more digits than the interpreter converts
            pass
    elif not integer and _NUMBER.fullmatch(body) and math.isfinite(value := float(body)):
        return value
    raise RespevalInputError(f"{what} must be {'an integer' if integer else 'a number'}, got {text!r}")


def read_segments(
    path: str | Path, config: TokenizerConfig = DEFAULT_TOKENIZER, role: str | None = None
) -> list[TokenSequence]:
    """Read a transcript file: UTF-8, one segment per line, blank lines skipped.

    With a ``role`` such as ``"reference"``, a segment left with no tokens is a
    ``RespevalInputError`` naming its line, counted as ``line_at`` counts."""
    segments = []
    for number, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if line.strip():
            segments.append(tokenize(line, config))
            if role and not segments[-1]:
                raise RespevalInputError(f"{role} segment is empty", path, number)
    return segments


def check_aligned(hyp_count: int, ref_count: int, ref_path: str | Path | None = None) -> None:
    """Hypothesis and reference files must align line-by-line after blank removal."""
    if hyp_count != ref_count:
        raise RespevalInputError(
            f"segment count mismatch: hypothesis has {hyp_count}, reference has {ref_count}", ref_path
        )
