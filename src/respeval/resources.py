"""Language resource bundle: synonyms, stems and function words.

These drive the synonym credit in EBLEU and the stem/synonym/function-word
stages of METEOR (the Polish-adapted variant simply loads Polish files).

File formats (all UTF-8, ``#``-prefixed lines are comments):

* synonyms:       ``word<TAB>syn1 syn2 ...``  (symmetric closure applied on load)
* stems:          ``word<TAB>stem1 stem2 ...``  (multiple stems per word allowed)
* function words: one word per line
"""

from __future__ import annotations

import io
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .textcore import RespevalInputError, read_text


@dataclass
class LanguageResources:
    """Immutable-after-load resource bundle; shareable across threads.

    Words not present in the stem table implicitly stem to themselves, so a
    listed inflection (``dogs -> dog``) still matches an unlisted base form.
    """

    synonyms: dict[str, frozenset[str]] = field(default_factory=dict)
    stems: dict[str, frozenset[str]] = field(default_factory=dict)
    function_words: frozenset[str] = frozenset()
    function_word_weight: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.function_word_weight <= 1.0:
            raise ValueError("function_word_weight must lie in [0, 1]")

    def is_empty(self) -> bool:
        return not (self.synonyms or self.stems or self.function_words)

    def synonyms_of(self, word: str) -> frozenset[str]:
        return self.synonyms.get(word, frozenset())

    def stems_of(self, word: str) -> frozenset[str]:
        return self.stems.get(word, frozenset((word,)))

    def token_weight(self, word: str) -> float:
        """Weight used by METEOR precision/recall: function words count less."""
        return self.function_word_weight if word in self.function_words else 1.0


def _data_lines(path: str | Path):
    """The stripped, NFC-normalized data lines of ``path`` with their numbers.

    The text is normalized whole: whitespace and line ends stay whitespace and
    line ends and never compose with a neighbour, so every word comes out as
    if normalized on its own."""
    text = unicodedata.normalize("NFC", read_text(path))
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _load_tab_table(path: str | Path, kind: str) -> dict[str, set[str]]:
    table: dict[str, set[str]] = {}
    for lineno, line in _data_lines(path):
        if "\t" not in line:
            raise RespevalInputError(f"expected 'word<TAB>{kind}...'", path, lineno)
        word, _, rest = line.partition("\t")
        table.setdefault(word.strip(), set()).update(rest.split())
    return table


def load_synonyms(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a synonym table and apply the symmetric closure."""
    table = _load_tab_table(path, "synonym")
    closed: dict[str, set[str]] = {}
    for word, syns in table.items():
        for syn in syns:
            closed.setdefault(word, set()).add(syn)
            closed.setdefault(syn, set()).add(word)
    return {w: frozenset(s) for w, s in closed.items()}


def load_stems(path: str | Path) -> dict[str, frozenset[str]]:
    return {w: frozenset(s) for w, s in _load_tab_table(path, "stem").items()}


def load_function_words(path: str | Path) -> frozenset[str]:
    return frozenset(line for _, line in _data_lines(path))


def load_resources(
    synonyms: str | Path | None = None,
    stems: str | Path | None = None,
    function_words: str | Path | None = None,
    function_word_weight: float = 0.2,
) -> LanguageResources:
    """Assemble a bundle from any subset of the three resource files."""
    return LanguageResources(
        synonyms=load_synonyms(synonyms) if synonyms else {},
        stems=load_stems(stems) if stems else {},
        function_words=load_function_words(function_words) if function_words else frozenset(),
        function_word_weight=function_word_weight,
    )
