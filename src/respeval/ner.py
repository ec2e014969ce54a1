"""NER subtitle accuracy from annotated error counts, plus the reduction rate.

Accuracy is (N - E - R) / N * 100 where N counts tokens (punctuation
included), E is the weighted sum of re-speaker edition errors and R the
recognition errors charged to the ASR system. Classifying an error's severity
is a human judgment and stays outside this module; R arrives pre-weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .textcore import RespevalInputError, read_csv


class ErrorSeverity(Enum):
    MINOR = "minor"
    STANDARD = "standard"
    SERIOUS = "serious"

    @property
    def weight(self) -> float:
        return _SEVERITY_WEIGHTS[self]


_SEVERITY_WEIGHTS = {
    ErrorSeverity.MINOR: 0.25,
    ErrorSeverity.STANDARD: 0.5,
    ErrorSeverity.SERIOUS: 1.0,
}


@dataclass(frozen=True)
class NerRecord:
    """One annotated transcript: token count, edition errors by severity and
    pre-weighted recognition errors.

    ``original_length``/``subtitle_length`` are optional source/subtitle sizes
    (token or character counts) that feed the reduction rate when present.
    """

    tokens: int
    edition_errors: tuple[tuple[ErrorSeverity, int], ...] = ()
    recognition_errors: float = 0.0
    original_length: int | None = None
    subtitle_length: int | None = None

    @property
    def weighted_edition_errors(self) -> float:
        return sum(severity.weight * count for severity, count in self.edition_errors)

    def validate(self) -> None:
        if self.tokens <= 0:
            raise RespevalInputError(f"token count must be positive, got {self.tokens}")
        if any(count < 0 for _, count in self.edition_errors):
            raise RespevalInputError("edition error counts must be non-negative")
        if not (math.isfinite(self.recognition_errors) and self.recognition_errors >= 0):
            raise RespevalInputError(
                f"recognition errors must be a finite number >= 0, got {self.recognition_errors}"
            )
        if self.original_length is not None and self.original_length <= 0:
            raise RespevalInputError(f"original length must be positive, got {self.original_length}")
        total = self.weighted_edition_errors + self.recognition_errors
        if total > self.tokens:
            raise RespevalInputError(
                f"errors exceed token count: E + R = {total} > N = {self.tokens}"
            )


def ner_accuracy(record: NerRecord) -> float:
    """Accuracy percentage (N - E - R) / N * 100, in [0, 100]."""
    record.validate()
    e = record.weighted_edition_errors
    return (record.tokens - e - record.recognition_errors) / record.tokens * 100.0


def reduction_rate(original_tokens: int, subtitle_tokens: int) -> float:
    """Relative shortening of the subtitle versus the original, in percent.

    Negative output is legal: a subtitle longer than its source.
    """
    if original_tokens <= 0:
        raise RespevalInputError(f"original length must be positive, got {original_tokens}")
    return (original_tokens - subtitle_tokens) / original_tokens * 100.0


ANNOTATION_COLUMNS = ("N", "minor_count", "standard_count", "serious_count", "R_weighted")
# Optional trailing columns enabling the per-row reduction-rate report.
OPTIONAL_COLUMNS = ("original_tokens", "subtitle_tokens", "original_chars", "subtitle_chars")


def _parse_int(value: str, column: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise RespevalInputError(f"column {column!r} must be an integer, got {value!r}") from None


def _parse_float(value: str, column: str) -> float:
    try:
        return float(value.strip())
    except ValueError:
        raise RespevalInputError(f"column {column!r} must be a number, got {value!r}") from None


def parse_ner_annotations(
    source: str | Path | Iterable[str], use_chars: bool = False
) -> list[NerRecord]:
    """Parse an annotation CSV into validated records.

    Required header: ``N,minor_count,standard_count,serious_count,R_weighted``.
    The optional ``original_tokens,subtitle_tokens`` (or, with ``use_chars``,
    ``original_chars,subtitle_chars``) columns feed the reduction rate.
    """
    path = source if isinstance(source, (str, Path)) else None
    rows = read_csv(source)
    if not rows:
        raise RespevalInputError("missing header row", path, 1)
    header = [cell.strip() for cell in rows[0]]
    if tuple(header[: len(ANNOTATION_COLUMNS)]) != ANNOTATION_COLUMNS:
        raise RespevalInputError(
            f"header must start with {','.join(ANNOTATION_COLUMNS)}, got {','.join(header)}", path, 1
        )
    extras = header[len(ANNOTATION_COLUMNS) :]
    for name in extras:
        if name not in OPTIONAL_COLUMNS:
            raise RespevalInputError(f"unknown column {name!r}", path, 1)
    unit = "chars" if use_chars else "tokens"

    records: list[NerRecord] = []
    for line, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            records.append(_parse_record(row, header, extras, unit))
        except RespevalInputError as exc:
            raise RespevalInputError(exc.message, path, line) from None
    return records


def _parse_record(row: list[str], header: list[str], extras: list[str], unit: str) -> NerRecord:
    if len(row) != len(header):
        raise RespevalInputError(f"expected {len(header)} fields, got {len(row)}")
    tokens = _parse_int(row[0], "N")
    edition_errors = tuple(
        (severity, _parse_int(cell, column))
        for severity, cell, column in zip(ErrorSeverity, row[1:4], ANNOTATION_COLUMNS[1:4])
    )
    recognition_errors = _parse_float(row[4], "R_weighted")
    named = {
        name: _parse_int(row[len(ANNOTATION_COLUMNS) + k], name) for k, name in enumerate(extras)
    }
    record = NerRecord(
        tokens,
        edition_errors,
        recognition_errors,
        original_length=named.get(f"original_{unit}"),
        subtitle_length=named.get(f"subtitle_{unit}"),
    )
    record.validate()
    return record
