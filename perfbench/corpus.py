"""Seeded synthetic corpora for the respeval benchmark.

A run scores one study, again and again. A study is a fixed number of
transcripts, each a hypothesis file plus one or two reference files, and an
NER annotation CSV whose rows count the edits made to each transcript. The
workload fixes the shape of a study (segment lengths, vocabulary size,
references per segment, block moves, edit rates); the seed picks the words,
the edited positions and the transcript order, so studies from different
seeds have the same shape and about the same cost.

References are drawn from a Zipfian vocabulary; hypotheses perturb them by
substitutions (a synonym or another inflection of the same stem where
resource files exist, otherwise an unrelated word), deletions, insertions
and block moves.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

ONSETS = ("b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "w", "z", "ch", "sz", "pr")
VOWELS = ("a", "e", "i", "o", "u", "y")
SUFFIXES = ("", "a", "em", "ami", "owi")
NER_HEADER = "N,minor_count,standard_count,serious_count,R_weighted,original_tokens,subtitle_tokens"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lengths: tuple[int, int]  # reference tokens per segment, inclusive range
    vocab: int  # distinct surface words
    refs: int  # references per segment
    segments: int  # segments per transcript
    transcripts: int  # transcripts per study
    resources: bool  # write synonym, stem and function-word files
    moves: tuple[int, int]  # block moves per segment, inclusive range
    move_block: tuple[int, int]  # tokens per moved block, inclusive range
    clean_moves: bool  # substitutions only, and no moved block holds one
    # Word ranks and edits are the same for every seed; the seed only names
    # the words and orders the transcripts.
    kept_patterns: bool
    tail_pct: int  # score-call percentile reported as transcript_tail_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="subtitle-lines",
            why="short live-subtitle lines with synonym, stem and function-word files: "
            "tokenizer, n-gram metrics, resource loading, reports and stats have a visible share",
            lengths=(3, 9),
            vocab=2000,
            refs=1,
            segments=28,
            transcripts=14,
            resources=True,
            moves=(0, 1),
            move_block=(2, 3),
            clean_moves=False,
            kept_patterns=False,
            tail_pct=95,
        ),
        Workload(
            name="respeak-long",
            why="two-sentence re-spoken transcripts, 18-30 tokens a sentence, with clause-sized "
            "block moves: TER's shift search is nearly all of the time",
            lengths=(18, 30),
            vocab=2000,
            refs=1,
            segments=2,
            transcripts=12,
            resources=False,
            moves=(1, 2),
            move_block=(3, 6),
            # Re-speakers reword and reorder whole clauses. With clean moves
            # TER's cost follows segment length and move count; messy edits,
            # whose extra greedy shifts make the cost swing, are exercised by
            # the other workloads. TER's cost still depends steeply on where
            # the moves fall, and twelve transcripts cannot average that out,
            # so the patterns are kept and every seed does the same work.
            clean_moves=True,
            kept_patterns=True,
            tail_pct=50,
        ),
        Workload(
            name="lowvocab-repeat",
            why="14-20 tokens from a 3-word vocabulary, two references: METEOR's "
            "node-capped search and near-universal TER shift candidates",
            lengths=(14, 20),
            vocab=3,
            refs=2,
            segments=1,
            transcripts=7,
            resources=False,
            moves=(1, 1),
            move_block=(2, 4),
            clean_moves=False,
            # The kept worst case: a segment's cost swings with whether
            # METEOR's search is cut short, and seven segments cannot average
            # that out; fixed patterns keep seeds comparable.
            kept_patterns=True,
            tail_pct=50,
        ),
    )
}

# Per-transcript edit intensity, cycled over the transcripts of a study so
# NER and the metric scores vary enough for the regression to be defined.
QUALITY_LEVELS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)


@dataclass
class Transcript:
    hyp: list[list[str]]
    refs: list[list[list[str]]]  # refs[k][i]: reference file k, segment i
    minor: int = 0  # paraphrase substitutions (synonym or inflection)
    standard: int = 0  # deletions and insertions
    serious: int = 0  # block moves
    recognition: int = 0  # substitutions by an unrelated word


@dataclass
class Study:
    """One pass of a workload: its transcripts, scored one by one."""

    workload: Workload
    transcripts: list[Transcript]
    moved_segments: int  # segments with at least one block move

    def facts(self) -> dict:
        segs = [seg for t in self.transcripts for seg in t.refs[0]]
        return {
            "transcripts": len(self.transcripts),
            "segments": len(segs),
            "reference_tokens": sum(len(s) for s in segs),
            "hypothesis_tokens": sum(len(s) for t in self.transcripts for s in t.hyp),
            "vocabulary": len({tok for s in segs for tok in s}),
            "references_per_segment": self.workload.refs,
            "block_move_segment_share": self.moved_segments / len(segs),
        }


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    syllables = [o + v for o in ONSETS for v in VOWELS]
    words: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((1, 2, 2, 3))))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


class _Vocabulary:
    """Zipfian surface words grouped into inflection families."""

    def __init__(self, rng: random.Random, size: int, resources: bool):
        if not resources:
            self.words = _pseudo_words(rng, size)
            self.family = {w: [w] for w in self.words}
            self.lemma = {w: w for w in self.words}
        else:
            self.words, self.family, self.lemma = [], {}, {}
            for base in _pseudo_words(rng, size):
                if len(self.words) >= size:
                    break
                forms = [base + s for s in SUFFIXES[: rng.randint(1, 3)]]
                forms = [f for f in forms if f not in self.lemma][: size - len(self.words)]
                for form in forms:
                    self.words.append(form)
                    self.lemma[form] = base
                self.family[base] = forms
            rng.shuffle(self.words)
        weights = [1.0 / rank for rank in range(1, len(self.words) + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> str:
        x = rng.random() * self.cumulative[-1]
        return self.words[min(bisect.bisect_left(self.cumulative, x), len(self.words) - 1)]

    def draw_outside(self, rng: random.Random, taken: set[str]) -> str:
        """A word not in ``taken`` where the vocabulary has one: a misrecognised
        or inserted word rarely repeats a word of the same sentence."""
        if taken.issuperset(self.words):
            return self.draw(rng)
        while (word := self.draw(rng)) in taken:
            pass
        return word


def _synonym_table(rng: random.Random, vocab: _Vocabulary) -> dict[str, list[str]]:
    """Pairs up about a fifth of the words with a synonym from another family."""
    words = list(vocab.words)
    rng.shuffle(words)
    table: dict[str, list[str]] = {}
    for a, b in zip(words[0 : len(words) // 5 : 2], words[1 : len(words) // 5 : 2]):
        if vocab.lemma[a] != vocab.lemma[b]:
            table[a] = [b]
    return table


def _move_block(
    rng: random.Random, seg: list[str], block: tuple[int, int], clean: list[bool] | None
) -> None:
    """Moves a block of ``seg`` elsewhere. With ``clean`` (one flag per token,
    True while the token is untouched) the block holds only untouched tokens
    and lands between untouched tokens, so moves neither split nor nest."""
    size = min(rng.randint(*block), len(seg) - 1)
    starts = range(len(seg) - size + 1)
    if clean is not None:
        starts = [s for s in starts if all(clean[s : s + size])] or starts
    start = rng.choice(starts)
    moved = seg[start : start + size]
    del seg[start : start + size]
    targets = [p for p in range(len(seg) + 1) if p != start]
    if clean is not None:
        del clean[start : start + size]
        targets = [p for p in targets if p in (0, len(seg)) or clean[p - 1] and clean[p]] or targets
    pos = rng.choice(targets)
    seg[pos:pos] = moved
    if clean is not None:
        clean[pos:pos] = [False] * size


def _perturb(
    rng: random.Random,
    ref: list[str],
    workload: Workload,
    moves: int,
    quality: float,
    vocab: _Vocabulary,
    synonyms: dict[str, list[str]],
    counts: Transcript,
) -> list[str]:
    """Hypothesis for ``ref``; adds the edits made to ``counts``."""
    hyp = list(ref)
    taken = set(ref)
    edits = max(1, round(quality * len(ref)))
    for _ in range(edits):
        op = 0.0 if workload.clean_moves else rng.random()
        if op < 0.6:
            i = rng.randrange(len(hyp))
            word = hyp[i]
            family = [f for f in vocab.family[vocab.lemma[word]] if f != word]
            if word in synonyms and rng.random() < 0.5:
                hyp[i] = synonyms[word][0]
                counts.minor += 1
            elif family and rng.random() < 0.5:
                hyp[i] = rng.choice(family)
                counts.minor += 1
            else:
                hyp[i] = vocab.draw_outside(rng, taken)
                counts.recognition += 1
        elif op < 0.8 and len(hyp) > 2:
            del hyp[rng.randrange(len(hyp))]
            counts.standard += 1
        else:
            hyp.insert(rng.randrange(len(hyp) + 1), vocab.draw_outside(rng, taken))
            counts.standard += 1
    clean = [tok in taken for tok in hyp] if workload.clean_moves else None
    for _ in range(moves):
        _move_block(rng, hyp, workload.move_block, clean)
    counts.serious += moves
    return hyp


def _shape(workload: Workload, k: int) -> tuple[int, int]:
    """(length, block moves) of segment ``k`` of a study. Lengths come in
    pairs from both ends of the range (lo, hi, lo + 1, hi - 1, ...) so that
    costs, which grow steeply with length, spread evenly; moves alternate."""
    lo, hi = workload.lengths
    mlo, mhi = workload.moves
    r = k // 2 % (hi - lo + 1)
    return (hi - r if k % 2 else lo + r), mlo + (r + k) % (mhi - mlo + 1)


class Language:
    """A seed's vocabulary with its synonym, stem and function-word tables."""

    def __init__(self, workload: Workload, seed: int):
        rng = random.Random(f"{workload.name}:{seed}")
        self.workload = workload
        self.vocab = _Vocabulary(rng, workload.vocab, workload.resources)
        words = self.vocab.words
        self.synonyms = _synonym_table(rng, self.vocab) if workload.resources else {}
        self.stems = {w: self.vocab.lemma[w] for w in words if self.vocab.lemma[w] != w}
        self.function_words = sorted(words[:40]) if workload.resources else []

    def perturb(self, rng: random.Random, ref: list[str], moves: int, quality: float,
                counts: Transcript) -> list[str]:
        return _perturb(rng, ref, self.workload, moves, quality, self.vocab, self.synonyms, counts)

    def study(self, seed: int) -> Study:
        """The study of ``seed``: equal seeds give equal studies.

        Segment shapes (length, block moves) and transcript qualities follow a
        fixed schedule covering each range evenly; the seed orders the
        transcripts and draws their words, so every study costs about the same.
        """
        workload = self.workload
        rng = random.Random(f"{workload.name}:{seed}:study")
        order = list(range(workload.transcripts))
        rng.shuffle(order)
        if workload.kept_patterns:
            rng = random.Random(workload.name)
        shapes = [_shape(workload, k) for k in range(workload.segments * workload.transcripts)]
        transcripts: list[Transcript] = []
        moved_segments = 0
        for t in range(workload.transcripts):
            quality = QUALITY_LEVELS[t % len(QUALITY_LEVELS)]
            transcript = Transcript(hyp=[], refs=[[] for _ in range(workload.refs)])
            for length, moves in shapes[t * workload.segments : (t + 1) * workload.segments]:
                ref = [self.vocab.draw(rng) for _ in range(length)]
                transcript.hyp.append(self.perturb(rng, ref, moves, quality, transcript))
                transcript.refs[0].append(ref)
                moved_segments += moves > 0
                for k in range(1, workload.refs):
                    # Further references are independent re-speakings of the first.
                    extra = self.perturb(rng, ref, moves, quality, Transcript([], []))
                    transcript.refs[k].append(extra)
            transcripts.append(transcript)
        return Study(workload, [transcripts[t] for t in order], moved_segments)

    def write(self, directory: Path) -> list[str]:
        """Writes the resource files; returns the matching ``score`` flags."""
        if not self.workload.resources:
            return []
        directory.mkdir(parents=True, exist_ok=True)
        syn = _write_lines(
            directory / "synonyms.tsv", [f"{w}\t{' '.join(s)}" for w, s in self.synonyms.items()]
        )
        stems = _write_lines(directory / "stems.tsv", [f"{w}\t{s}" for w, s in self.stems.items()])
        fw = _write_lines(directory / "function_words.txt", self.function_words)
        return ["--synonyms", str(syn), "--stems", str(stems), "--function-words", str(fw)]


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def write_study(study: Study, directory: Path) -> dict:
    """Writes the transcripts and the NER annotation CSV of ``study``.

    Returns ``transcripts``, one ``(hyp, [refs])`` path pair per transcript,
    and ``ner_csv``. An annotation row counts the transcript's edits: block
    moves as serious, paraphrases as minor, deletions and insertions as
    standard edition errors, unrelated substitutions as recognition errors.
    """
    directory.mkdir(parents=True, exist_ok=True)
    files: dict = {"transcripts": []}
    rows = [NER_HEADER]
    for i, t in enumerate(study.transcripts):
        hyp = _write_lines(directory / f"t{i:03d}.hyp", [" ".join(seg) for seg in t.hyp])
        refs = [
            _write_lines(directory / f"t{i:03d}.ref{k}", [" ".join(seg) for seg in ref_file])
            for k, ref_file in enumerate(t.refs)
        ]
        files["transcripts"].append((str(hyp), [str(r) for r in refs]))
        n = sum(len(seg) for seg in t.refs[0])
        rows.append(
            f"{n},{t.minor},{t.standard},{t.serious},{t.recognition},"
            f"{n},{sum(len(seg) for seg in t.hyp)}"
        )
    files["ner_csv"] = str(_write_lines(directory / "ner.csv", rows))
    return files


def probe_pair(seed: int, length: int) -> tuple[list[str], list[str]]:
    """(hypothesis, reference) shaped like ``respeak-long`` but ``length``
    tokens long, with two block moves: the input of the TER scaling probe."""
    language = Language(WORKLOADS["respeak-long"], seed)
    rng = random.Random(f"probe:{seed}:{length}")
    ref = [language.vocab.draw(rng) for _ in range(length)]
    return language.perturb(rng, ref, 2, 0.1, Transcript([], [])), ref
