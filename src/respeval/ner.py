"""NER subtitle accuracy from annotated error counts, plus the reduction rate.

Accuracy is (N - E - R) / N * 100 where N counts tokens (punctuation
included), E is the weighted sum of re-speaker edition errors and R the
recognition errors charged to the ASR system. Classifying an error's severity
is a human judgment and stays outside this module; R arrives pre-weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .textcore import RespevalInputError, read_number, read_table


@dataclass(frozen=True)
class NerRecord:
    """One annotated transcript: token count, edition error counts by severity
    and pre-weighted recognition errors, checked when built.

    ``original_length``/``subtitle_length`` are optional source/subtitle sizes
    (token or character counts) that feed the reduction rate when present.
    """

    tokens: int
    minor: int = 0
    standard: int = 0
    serious: int = 0
    recognition_errors: float = 0.0
    original_length: int | None = None
    subtitle_length: int | None = None

    def __post_init__(self) -> None:
        if self.tokens <= 0:
            raise RespevalInputError(f"token count must be positive, got {self.tokens}")
        if min(self.minor, self.standard, self.serious) < 0:
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

    @property
    def weighted_edition_errors(self) -> float:
        return 0.25 * self.minor + 0.5 * self.standard + self.serious

    @property
    def reduction_rate(self) -> float | None:
        """Relative shortening of the subtitle versus the original, in percent,
        or ``None`` unless both lengths are present. Negative output is legal:
        a subtitle longer than its source."""
        if self.original_length is None or self.subtitle_length is None:
            return None
        return (self.original_length - self.subtitle_length) / self.original_length * 100.0


def ner_accuracy(record: NerRecord) -> float:
    """Accuracy percentage (N - E - R) / N * 100, in [0, 100]."""
    e = record.weighted_edition_errors
    return (record.tokens - e - record.recognition_errors) / record.tokens * 100.0


# NerRecord's first five fields, in order: parse_ner_annotations passes them positionally.
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
                *(cells[name] for name in ANNOTATION_COLUMNS),
                original_length=cells.get(f"original_{unit}"),
                subtitle_length=cells.get(f"subtitle_{unit}"),
            )
        except RespevalInputError as exc:
            raise RespevalInputError(exc.message, path, line) from None
        records.append(record)
    return records
