"""Language resource bundle: synonyms, stems and function words.

These drive the synonym credit in EBLEU and the stem/synonym/function-word
stages of METEOR (the Polish-adapted variant simply loads Polish files).

File formats (all UTF-8, ``#``-prefixed lines are comments):

* synonyms:       ``word<TAB>syn1 syn2 ...``  (symmetric closure applied on load)
* stems:          ``word<TAB>stem1 stem2 ...``  (multiple stems per word allowed)
* function words: one word per line
"""

from __future__ import annotations

import unicodedata
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .textcore import RespevalInputError, read_text


@dataclass(frozen=True)
class LanguageResources:
    """Resource bundle, frozen once built, so it may be shared across threads:
    the synonym and stem tables are read-only views of copies of the tables
    it is built from.

    Words not present in the stem table implicitly stem to themselves, so a
    listed inflection (``dogs -> dog``) still matches an unlisted base form.
    """

    synonyms: Mapping[str, frozenset[str]] = field(default_factory=dict)
    stems: Mapping[str, frozenset[str]] = field(default_factory=dict)
    function_words: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("synonyms", "stems"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # A read-only view cannot be pickled; pickles and deep copies rebuild from plain copies.
        return LanguageResources, (dict(self.synonyms), dict(self.stems), self.function_words)

    def is_empty(self) -> bool:
        return not (self.synonyms or self.stems or self.function_words)

    def synonyms_of(self, word: str) -> frozenset[str]:
        return self.synonyms.get(word, frozenset())

    def stems_of(self, word: str) -> frozenset[str]:
        stems = self.stems.get(word)  # a default for get would be built on every call
        return frozenset((word,)) if stems is None else stems


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """The stripped, NFC-normalized data lines of ``path`` with their numbers.

    The text is normalized whole: whitespace and line ends stay whitespace and
    line ends and never compose with a neighbour, so every word comes out as
    if normalized on its own. CR LF, CR and LF each end a line."""
    text = unicodedata.normalize("NFC", read_text(path)).replace("\r\n", "\n").replace("\r", "\n")
    lines = [raw.strip() for raw in text.split("\n")]
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line and line[0] != "#"]


def _load_tab_table(
    path: str | Path, kind: str, vocabulary: Set[str] | None = None, symmetric: bool = False
) -> dict[str, set[str]]:
    """The ``word<TAB>value...`` table of ``path``; every line is checked.

    With a ``vocabulary``, a line is built only when its word is in it or,
    in a ``symmetric`` table, one of its values is; the first data line is
    always built, so the table is empty exactly when the file holds no entry."""
    table: dict[str, set[str]] = {}
    for lineno, line in _data_lines(path):
        word, tab, rest = line.partition("\t")
        if not tab:
            raise RespevalInputError(f"expected 'word<TAB>{kind}...'", path, lineno)
        word = word.strip()
        if (
            vocabulary is None
            or not table
            or word in vocabulary
            or (symmetric and not vocabulary.isdisjoint(rest.split()))
        ):
            table.setdefault(word, set()).update(rest.split())
    return table


def load_synonyms(path: str | Path, vocabulary: Set[str] | None = None) -> dict[str, frozenset[str]]:
    """Load a synonym table and apply the symmetric closure.

    With a ``vocabulary``, only the lines that name one of its words are
    built; each vocabulary word still gets the synonyms of a full load."""
    closed: dict[str, set[str]] = {}
    for word, syns in _load_tab_table(path, "synonym", vocabulary, symmetric=True).items():
        for syn in syns:
            closed.setdefault(word, set()).add(syn)
            closed.setdefault(syn, set()).add(word)
    return {w: frozenset(s) for w, s in closed.items()}


def load_stems(path: str | Path, vocabulary: Set[str] | None = None) -> dict[str, frozenset[str]]:
    """Load a stem table; with a ``vocabulary``, only the lines whose word is
    one of its words are built."""
    return {w: frozenset(s) for w, s in _load_tab_table(path, "stem", vocabulary).items()}


def load_function_words(path: str | Path, vocabulary: Set[str] | None = None) -> frozenset[str]:
    """Load a function-word list; with a ``vocabulary``, only its words are
    kept, and the first listed word, so the list is empty exactly when the
    file is."""
    words = [word for _, word in _data_lines(path)]
    if vocabulary is not None:
        words = words[:1] + [word for word in words if word in vocabulary]
    return frozenset(words)


def load_resources(
    synonyms: str | Path | None = None,
    stems: str | Path | None = None,
    function_words: str | Path | None = None,
    vocabulary: Set[str] | None = None,
) -> LanguageResources:
    """Assemble a bundle from any subset of the three resource files.

    Every line of every file is read and checked. With a ``vocabulary``, only
    the entries that a lookup of one of its words can reach are built:
    ``synonyms_of`` and ``stems_of`` of those words, whether each is a
    function word, ``is_empty()`` and the truth of each table answer as after
    a full load. Without one, every entry is kept. METEOR's function-word
    weight is a setting of ``meteor``, not part of the bundle."""
    return LanguageResources(
        synonyms=load_synonyms(synonyms, vocabulary) if synonyms else {},
        stems=load_stems(stems, vocabulary) if stems else {},
        function_words=load_function_words(function_words, vocabulary) if function_words else frozenset(),
    )
