import copy
import pickle
import unicodedata

import pytest

from respeval import resources
from respeval.textcore import RespevalInputError

from helpers import make_rng
import oracles

# Pieces of resource lines: decomposed and composed Polish letters, combining
# marks that follow a space or a tab, the quads U+2000 and U+2001 (NFC maps
# them to other spaces), comment marks and every line end.
PIECES = (
    "ala", "kot", "\u017c", "z\u0307", "\u00f3", "o\u0301", "n\u0301", "l\u0301",
    "\u0301", "\u0307", " ", " \u0301", "\t", "\t\u0307", "\u2000", "\u2001", "#",
)
LINE_ENDS = ("\n", "\r", "\r\n")


def _random_file(rng) -> str:
    text = "\ufeff" if rng.random() < 0.2 else ""
    for _ in range(rng.randint(0, 8)):
        line = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 7)))
        text += line + rng.choice(LINE_ENDS)
    return text


def _load(path, tab_separated):
    """The package's reading of ``path`` in the oracle's shape."""
    try:
        if tab_separated:
            return resources._load_tab_table(path, "synonym")
        return resources.load_function_words(path)
    except RespevalInputError as exc:
        assert exc.path == path
        return exc.line


def test_resource_files_read_as_if_each_word_were_normalized(tmp_path):
    rng = make_rng(41)
    changed = outcomes = 0
    for trial in range(600):
        text = _random_file(rng)
        path = tmp_path / f"{trial}.txt"
        path.write_bytes(text.encode("utf-8"))
        changed += unicodedata.normalize("NFC", text) != text
        for tab_separated in (True, False):
            expected = oracles.resource_lines_per_word(path, tab_separated)
            got = _load(path, tab_separated)
            assert got == expected, (text, tab_separated)
            if isinstance(expected, dict):
                assert list(got.items()) == list(expected.items())
                outcomes += 1
    assert changed > 300 and outcomes > 50


@pytest.mark.parametrize(
    "text, table",
    [
        ("z\u0307aba\tz\u0307o\u0301\u0142w\r\n", {"\u017caba": {"\u017c\u00f3\u0142w"}}),
        ("kot\t\u0301pies\n", {"kot": {"\u0301pies"}}),
        ("kot \u0301\tpies\u2000lis\n", {"kot \u0301": {"pies", "lis"}}),
        ("\ufeff# komentarz\rkot\tpies\n", {"kot": {"pies"}}),
        ("a \t b\n", {"a": {"b"}}),
    ],
)
def test_resource_table_examples(tmp_path, text, table):
    path = tmp_path / "table.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert resources._load_tab_table(path, "synonym") == table


def test_resource_error_keeps_its_line_after_normalization(tmp_path):
    path = tmp_path / "stems.tsv"
    path.write_bytes("# a\r\nz\u0307\tz\u0307\rz\u0307 o\u0301\n".encode("utf-8"))
    with pytest.raises(RespevalInputError) as exc:
        resources.load_stems(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("line", ["word\t", "\tstem", "word\t \t"])
def test_resource_line_whose_only_tab_is_at_an_end(tmp_path, line):
    # stripping the line removes the tab, so no line reads as an empty word or list
    path = tmp_path / "stems.tsv"
    path.write_text("kot\tkot\n" + line + "\n", encoding="utf-8")
    with pytest.raises(RespevalInputError, match="expected 'word<TAB>stem...'") as exc:
        resources.load_stems(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("vocabulary", [None, {"w7", "s9"}])
@pytest.mark.parametrize("loader", [resources.load_stems, resources.load_synonyms])
def test_resource_error_after_many_good_lines_names_its_own_line(tmp_path, loader, vocabulary):
    """With a byte-order mark and CR LF line ends, an indented comment after
    1,000 good lines is skipped, and the line with no tab after it is
    reported at its own number, whether or not a vocabulary is given."""
    good = [f"w{i}\ts{i}" for i in range(1000)] + ["  # bez tabulatora", ""]
    path = tmp_path / "table.tsv"
    path.write_bytes(("\ufeff" + "\r\n".join(good) + "\r\n").encode("utf-8"))
    full, table = loader(path), loader(path, vocabulary)
    assert len(full) == (2000 if loader is resources.load_synonyms else 1000)
    assert all(table.get(word) == full.get(word) for word in vocabulary or full)
    path.write_bytes(("\ufeff" + "\r\n".join(good + ["bez tabulatora", "w\ts"]) + "\r\n").encode("utf-8"))
    with pytest.raises(RespevalInputError, match="expected 'word<TAB>") as exc:
        loader(path, vocabulary)
    assert (exc.value.path, exc.value.line) == (path, 1003)


# Words of the random bundles: heads, a word found only as a synonym or stem,
# composed and decomposed spellings of one word, and tokens found in no file.
HEADS = ("kot", "pies", "\u017caba", "z\u0307aba", "dom")
VALUES_ONLY = ("lis", "o\u0301wka")
ABSENT = ("brak", "\u017c\u00f3\u0142w")


def _random_resource_file(rng, tab_separated) -> str:
    lines = []
    for _ in range(rng.randint(0, 6)):
        head = rng.choice(HEADS)
        if rng.random() < 0.15:
            lines.append(rng.choice(("", "# " + head)))
        elif tab_separated:
            lines.append(head + "\t" + " ".join(rng.sample(HEADS + VALUES_ONLY, rng.randint(1, 3))))
        else:
            lines.append(head)
    if tab_separated and rng.random() < 0.15:
        # malformed, and touching no vocabulary word
        lines.insert(rng.randint(0, len(lines)), "bez tabulatora")
    return "\n".join(lines) + "\n"


def test_vocabulary_load_answers_every_lookup_as_the_full_load(tmp_path):
    rng = make_rng(43)
    tokens = HEADS + VALUES_ONLY + ABSENT
    tokens += tuple(unicodedata.normalize(form, tok) for form in ("NFC", "NFD") for tok in tokens)
    errors = restricted = 0
    for trial in range(400):
        paths = {}
        for name in ("synonyms", "stems", "function_words"):
            if rng.random() < 0.8:
                paths[name] = tmp_path / f"{trial}-{name}.txt"
                paths[name].write_text(_random_resource_file(rng, name != "function_words"), encoding="utf-8")
        vocabulary = set(rng.sample(tokens, rng.randint(0, 4)))
        expected = oracles.resource_bundle(**paths)
        try:
            got = resources.load_resources(**paths, vocabulary=vocabulary)
        except RespevalInputError as exc:
            assert (exc.path, exc.line) == expected
            errors += 1
            continue
        assert resources.load_resources(**paths) == expected
        for tok in vocabulary:
            assert got.synonyms_of(tok) == expected.synonyms_of(tok)
            assert got.stems_of(tok) == expected.stems_of(tok)
            assert (tok in got.function_words) == (tok in expected.function_words)
        assert got.is_empty() == expected.is_empty()
        assert (bool(got.stems), bool(got.synonyms)) == (bool(expected.stems), bool(expected.synonyms))
        restricted += got != expected
    assert errors > 20 and restricted > 100


def test_stems_of_a_listed_word_is_its_entry_and_of_any_other_word_the_word_alone():
    dog = frozenset({"dog"})
    bundle = resources.LanguageResources(stems={"dogs": dog})
    assert bundle.stems_of("dogs") is dog
    assert bundle.stems_of("cat") == frozenset({"cat"})


def test_bundle_tables_are_read_only_copies(tmp_path):
    """A bundle's synonym and stem tables refuse item assignment, and the
    dicts a bundle was built from can change without changing it."""
    stems = {"cats": frozenset({"cat"})}
    built = resources.LanguageResources(synonyms={"cat": frozenset({"kitty"})}, stems=stems)
    (tmp_path / "stems.tsv").write_text("cats\tcat\n", encoding="utf-8")
    (tmp_path / "synonyms.tsv").write_text("cat\tkitty\n", encoding="utf-8")
    loaded = resources.load_resources(synonyms=tmp_path / "synonyms.tsv", stems=tmp_path / "stems.tsv")
    for bundle in (built, loaded, resources.LanguageResources()):
        for table in (bundle.synonyms, bundle.stems):
            with pytest.raises(TypeError):
                table["cats"] = frozenset({"dog"})
    stems["cats"] = frozenset({"dog"})
    assert built.stems_of("cats") == loaded.stems_of("cats") == frozenset({"cat"})
    assert built.synonyms_of("cat") == loaded.synonyms_of("cat") == frozenset({"kitty"})
    # Pickles and deep copies, as for a process pool, still work and stay read-only.
    for copied in (pickle.loads(pickle.dumps(loaded)), copy.deepcopy(loaded)):
        assert copied == loaded
        with pytest.raises(TypeError):
            copied.stems["cats"] = frozenset({"dog"})
