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

from .textcore import RespevalInputError, read_number, read_table


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
        if self.subtitle_length is not None and self.subtitle_length < 0:
            raise RespevalInputError(f"subtitle length must be >= 0, got {self.subtitle_length}")
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
    if subtitle_tokens < 0:
        raise RespevalInputError(f"subtitle length must be >= 0, got {subtitle_tokens}")
    return (original_tokens - subtitle_tokens) / original_tokens * 100.0


ANNOTATION_COLUMNS = ("N", "minor_count", "standard_count", "serious_count", "R_weighted")
# Optional trailing columns enabling the per-row reduction-rate report.
OPTIONAL_COLUMNS = ("original_tokens", "subtitle_tokens", "original_chars", "subtitle_chars")


def parse_ner_annotations(
    source: str | Path | Iterable[str], use_chars: bool = False
) -> list[NerRecord]:
    """Parse an annotation CSV into validated records.

    Required header: ``N,minor_count,standard_count,serious_count,R_weighted``.
    The optional ``original_tokens,subtitle_tokens`` (or, with ``use_chars``,
    ``original_chars,subtitle_chars``) columns feed the reduction rate.
    """
    path = source if isinstance(source, (str, Path)) else None
    (header_line, header), *body = read_table(source, ANNOTATION_COLUMNS)
    for name in header[len(ANNOTATION_COLUMNS) :]:
        if name not in OPTIONAL_COLUMNS:
            raise RespevalInputError(f"unknown column {name!r}", path, header_line)
    unit = "chars" if use_chars else "tokens"

    records: list[NerRecord] = []
    for line, row in body:
        try:
            cells = {
                name: read_number(cell, f"column {name!r}", integer=name != "R_weighted")
                for name, cell in zip(header, row)
            }
            record = NerRecord(
                cells["N"],
                tuple(zip(ErrorSeverity, (cells[column] for column in ANNOTATION_COLUMNS[1:4]))),
                cells["R_weighted"],
                original_length=cells.get(f"original_{unit}"),
                subtitle_length=cells.get(f"subtitle_{unit}"),
            )
            record.validate()
        except RespevalInputError as exc:
            raise RespevalInputError(exc.message, path, line) from None
        records.append(record)
    return records
