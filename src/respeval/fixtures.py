"""Bundled benchmark tables.

``table1`` holds 57 rows scoring human-made re-speaking transcriptions
against the original texts; ``table2`` holds 20 rows scoring ASR output
against the originals. Columns: speaker id, the seven automatic metric scores
(scaled x100), the human-judged NER accuracy and the reduction rate. The
source transcripts themselves are not distributed, so these serve as frozen
numeric data, e.g. as input for the NER regression.
"""

from __future__ import annotations

from importlib import resources as importlib_resources

from .stats import DataTable
from .textcore import RespevalInputError

FIXTURE_NAMES = ("table1", "table2")
METRIC_COLUMNS = ("BLEU", "NIST", "TER", "METEOR", "METEOR-PL", "EBLEU", "RIBES")
RESPONSE_COLUMN = "NER"


def fixture_csv(name: str) -> str:
    """Raw CSV text of a bundled table."""
    if name not in FIXTURE_NAMES:
        raise RespevalInputError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return (
        importlib_resources.files("respeval.data").joinpath(f"{name}.csv").read_text("utf-8")
    )


def load_fixture(name: str) -> DataTable:
    """Bundled table parsed into a DataTable with NER as the response."""
    return DataTable.from_csv(fixture_csv(name).splitlines(), response=RESPONSE_COLUMN)
