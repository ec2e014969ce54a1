"""N-gram precision metrics: BLEU, NIST and the synonym/rare-word extension EBLEU.

One ``NgramConfig`` holds the settings of all three. Each segment's n-grams
are counted once into a ``SegmentStats`` record, one table across orders with
its clipped-match total per order. ``ngram_scores`` reduces a list of records
to all three scores in one pass, pooling clipped matches and totals before
dividing and pooling the reference counts once for NIST's information weights
and EBLEU's rare words; every score here is pooled, and a mean of segment
scores is the caller's to take. All scorers are pure; segments may be counted
in parallel as long as the reduction keeps segment order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .resources import LanguageResources
from .textcore import NGramCounts, RespevalInputError, TokenSequence, ngram_table

Gram = tuple[str, ...]


def brevity_penalty(c: int, r: float) -> float:
    """Length penalty: 1 when the hypothesis is longer than the reference,
    exp(1 - r/c) when it is shorter or equal."""
    if c < 0 or r < 0:
        raise RespevalInputError("lengths must be non-negative")
    if c == 0:
        if r == 0:
            return 1.0
        raise RespevalInputError("empty hypothesis against a non-empty reference")
    if c > r:
        return 1.0
    return math.exp(1.0 - r / c)


def closest_ref_length(c: int, ref_lengths: Sequence[int]) -> int:
    """Reference length nearest to ``c``; ties resolved to the shorter one."""
    if len(ref_lengths) == 1:
        return ref_lengths[0]
    return min(ref_lengths, key=lambda rl: (abs(rl - c), rl))


# The highest n-gram order ``NgramConfig`` accepts for ``max_n`` and
# ``nist_max_n``. Counting costs time in proportion to the order, so an
# unbounded order could keep one segment busy for minutes.
MAX_NGRAM_ORDER = 100

# Beta makes NIST's length factor exp(beta * ln^2(c/r)) equal 0.5 at ratio 2/3.
NIST_BETA = math.log(0.5) / math.log(1.5) ** 2


@dataclass(frozen=True)
class NgramConfig:
    """Settings of BLEU, NIST and EBLEU, read alike by counting and reducing.

    BLEU and EBLEU weigh orders 1 to ``max_n`` uniformly, NIST sums orders 1
    to ``nist_max_n``; both orders lie in [1, ``MAX_NGRAM_ORDER``].
    ``smooth`` applies add-one smoothing to every defined BLEU order.
    EBLEU credits a synonym match (from ``resources``) with
    ``synonym_score``, and an n-gram holding one of the trailing
    ``rare_words_percent`` reference words with ``rare_words_score``.

    ``respeval score`` sets each field except ``resources`` from the flag of
    the same name (``--max-n`` sets ``max_n``), and its ``config`` record
    echoes the field under that name.
    """

    max_n: int = 4
    nist_max_n: int = 5
    smooth: bool = False
    synonym_score: float = 0.9
    rare_words_percent: float = 0.05
    rare_words_score: float = 1.1
    resources: LanguageResources = field(default_factory=LanguageResources)

    def __post_init__(self) -> None:
        if not all(isinstance(n, int) and 1 <= n <= MAX_NGRAM_ORDER for n in (self.max_n, self.nist_max_n)):
            raise RespevalInputError(f"max_n and nist_max_n must be integers from 1 to {MAX_NGRAM_ORDER}")
        if not 0.0 < self.synonym_score <= 1.0:
            raise RespevalInputError("synonym_score must lie in (0, 1]")
        if not 0.0 <= self.rare_words_percent <= 1.0:
            raise RespevalInputError("rare_words_percent must lie in [0, 1]")
        if not self.rare_words_score >= 1.0:
            raise RespevalInputError("rare_words_score must be >= 1")


@dataclass(frozen=True)
class NgramScore:
    """A BLEU or EBLEU score with its per-order precisions (None where the
    hypotheses have no n-gram of that order), their running geometric means,
    the brevity penalty and the hypothesis and reference lengths behind it."""

    score: float
    precisions: tuple[float | None, ...]
    cumulative: tuple[float | None, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def bleu(
    hyp_corpus: Sequence[TokenSequence],
    ref_corpus: Sequence[Sequence[TokenSequence]],
    config: NgramConfig = NgramConfig(),
) -> NgramScore:
    """Corpus BLEU with brevity penalty; 0 when any defined order has no match."""
    return ngram_scores(corpus_stats(hyp_corpus, ref_corpus, config), config)[0]


def nist(
    hyp_corpus: Sequence[TokenSequence],
    ref_corpus: Sequence[Sequence[TokenSequence]],
    config: NgramConfig = NgramConfig(),
) -> float:
    """Information-weighted n-gram score.

    Matched n-grams are credited with their information weight
    ``log2(count(prefix) / count(ngram))`` estimated on the reference corpus,
    so rarer reference n-grams earn more. Per order the credit is divided by
    the raw hypothesis n-gram count, orders are summed arithmetically, and the
    total is scaled by the length factor ``exp(NIST_BETA * ln^2 min(c/r, 1))``.
    """
    return ngram_scores(corpus_stats(hyp_corpus, ref_corpus, config), config)[1]


def _annotate(
    hyp: TokenSequence, refs: Sequence[TokenSequence], resources: LanguageResources, synonym_score: float
) -> tuple[list[str], list[float]]:
    """The effective token and the credit factor of each hypothesis token.

    A token found in ``refs`` keeps factor 1, and an exact occurrence always
    wins over a synonym. A synonym is rewritten to the first matching
    reference word at ``synonym_score``. A miss keeps its token at factor 0:
    it can never take part in a match, so the zero is harmless.
    """
    ref_vocab: set[str] = set()
    for ref in refs:
        ref_vocab.update(ref)
    tokens: list[str] = []
    factors: list[float] = []
    for tok in hyp:
        if tok in ref_vocab:
            tokens.append(tok)
            factors.append(1.0)
            continue
        syns = resources.synonyms_of(tok)
        match = next((word for ref in refs for word in ref if word in syns), None) if syns else None
        tokens.append(tok if match is None else match)
        factors.append(0.0 if match is None else synonym_score)
    return tokens, factors


def rare_reference_words(counts: Mapping[Gram, int], percent: float) -> frozenset[str]:
    """Trailing ``percent`` of distinct reference words ranked by descending
    frequency (ties broken lexicographically) among the unigrams of the
    gram-keyed ``counts``, which may hold grams of any order."""
    unigrams = [gram for gram in counts if len(gram) == 1]
    k = int(len(unigrams) * percent)
    if k == 0:
        return frozenset()
    ranked = sorted(unigrams, key=lambda gram: (-counts[gram], gram))
    return frozenset(word for (word,) in ranked[len(ranked) - k :])


def ebleu(
    hyp_corpus: Sequence[TokenSequence],
    ref_corpus: Sequence[Sequence[TokenSequence]],
    config: NgramConfig = NgramConfig(),
) -> NgramScore:
    """BLEU extension: synonym matches earn ``synonym_score``, n-grams holding
    a rare reference word earn ``rare_words_score`` (once per n-gram), and the
    per-order bases combine through the running log-mean ``C_i = exp(s / i)``.

    Per-segment and per-order sums are clamped so no sentence contributes more
    than a perfect score; with empty resources and rare bonus 1 the result
    equals uniform-weight BLEU exactly. ``smooth`` does not apply.
    """
    return ngram_scores(corpus_stats(hyp_corpus, ref_corpus, config), config)[2]


@dataclass(frozen=True)
class SegmentStats:
    """One segment's n-gram counts, from which BLEU, NIST and EBLEU are all
    reduced. Each table holds every order, inserted order by order; a gram's
    order is its length. ``clipped`` maps each matching hypothesis n-gram to
    min(its count, its highest count in one reference), and index ``n - 1``
    of ``matches`` sums its values of order ``n``; ``ref_counts`` sums the
    references' n-grams (NIST's information weights and EBLEU's rare-word
    list). Only when a hypothesis token was rewritten to a synonym does
    ``ebleu_weights`` map each matching synonym-expanded n-gram to the
    discount products of its credited occurrences, highest first, before any
    rare-word bonus; otherwise it is None, and EBLEU credits ``clipped`` at
    factor 1."""

    hyp_len: int
    ref_lens: tuple[int, ...]
    clipped: dict[Gram, int]
    matches: tuple[int, ...]
    ref_counts: NGramCounts
    ebleu_weights: dict[Gram, tuple[float, ...]] | None


def segment_stats(
    hyp: TokenSequence, refs: Sequence[TokenSequence], config: NgramConfig = NgramConfig()
) -> SegmentStats:
    """Count the n-grams of ``hyp`` and of each of its (non-empty) ``refs``
    once, orders 1 to the higher of ``max_n`` and ``nist_max_n``, and weigh
    the synonym-expanded hypothesis n-grams of orders 1 to ``max_n`` when a
    token was rewritten.

    Hypothesis n-grams clip against one table of each n-gram's highest count
    in any single reference; one pass over each further reference table adds
    its counts to the first and raises those highest counts.
    """
    top = max(config.max_n, config.nist_max_n)
    ref_counts, *others = [ngram_table(ref, top) for ref in refs]
    most = dict(ref_counts) if others else ref_counts
    for table in others:
        for gram, count in table.items():
            ref_counts[gram] = ref_counts.get(gram, 0) + count
            if count > most.get(gram, 0):
                most[gram] = count
    get = most.get
    clipped: dict[Gram, int] = {}
    matches = [0] * top
    for gram, count in ngram_table(hyp, top).items():
        if most := get(gram):
            clipped[gram] = matched = count if count < most else most
            matches[len(gram) - 1] += matched
    weighted = None
    synonyms = config.resources.synonyms
    # A token is rewritten only when no reference holds it and one holds a synonym of it.
    if synonyms and any(
        tok in synonyms and not get((tok,)) and any(get((word,)) for word in synonyms[tok]) for tok in hyp
    ):
        effective, factors = _annotate(hyp, refs, config.resources, config.synonym_score)
        occurrences: dict[Gram, list[float]] = {}
        for n in range(1, config.max_n + 1):
            for i in range(len(hyp) - n + 1):
                occurrences.setdefault(tuple(effective[i : i + n]), []).append(math.prod(factors[i : i + n]))
        weighted = {
            gram: tuple(sorted(weights, reverse=True)[:matched])
            for gram, weights in occurrences.items()
            if (matched := min(len(weights), get(gram, 0)))
        }
    lens = tuple(len(ref) for ref in refs)
    return SegmentStats(len(hyp), lens, clipped, tuple(matches), ref_counts, weighted)


def corpus_stats(
    hyp_corpus: Sequence[TokenSequence],
    ref_corpus: Sequence[Sequence[TokenSequence]],
    config: NgramConfig = NgramConfig(),
) -> list[SegmentStats]:
    """``segment_stats`` of every segment, after checking the corpus shape."""
    if len(hyp_corpus) != len(ref_corpus):
        raise RespevalInputError(
            f"corpus length mismatch: {len(hyp_corpus)} hypotheses vs {len(ref_corpus)} reference sets"
        )
    if not hyp_corpus:
        raise RespevalInputError("empty corpus")
    if all(len(h) == 0 for h in hyp_corpus):
        raise RespevalInputError("every hypothesis segment is empty")
    if any(not refs for refs in ref_corpus):
        raise RespevalInputError("a segment has no reference")
    return [segment_stats(hyp, refs, config) for hyp, refs in zip(hyp_corpus, ref_corpus)]


def _pooled_ref_counts(stats: Sequence[SegmentStats], max_n: int) -> Mapping[Gram, int]:
    """Reference n-gram counts of orders 1 to ``max_n`` summed over ``stats``;
    a lone record's own table, which may hold higher orders too."""
    if len(stats) == 1:
        return stats[0].ref_counts
    pooled: dict[Gram, int] = {}
    get = pooled.get
    for rec in stats:
        for gram, count in rec.ref_counts.items():
            if len(gram) <= max_n:
                pooled[gram] = get(gram, 0) + count
    return pooled


def _combine(nums: Sequence[float], dens: Sequence[int], c: int, r: int) -> NgramScore:
    """The score of per-order credits ``nums`` over hypothesis n-gram totals
    ``dens``: the bases combine through the running log-mean ``C_i = exp(s / i)``
    and take the brevity penalty, which is 0 for an empty hypothesis."""
    bases: list[float | None] = []
    cumulative: list[float | None] = []
    log_sum = core = 0.0
    included = 0
    for num, den in zip(nums, dens):
        if den <= 0:
            bases.append(None)
            cumulative.append(None)
            continue
        base = min(num / den, 1.0)
        bases.append(base)
        log_sum += math.log(base) if base > 0 else -math.inf
        included += 1
        core = math.exp(log_sum / included) if log_sum > -math.inf else 0.0
        cumulative.append(core)
    bp = brevity_penalty(c, r) if c else 0.0
    return NgramScore(max(0.0, min(1.0, bp * core)), tuple(bases), tuple(cumulative), bp, c, r)


def ngram_scores(
    stats: Sequence[SegmentStats], config: NgramConfig = NgramConfig()
) -> tuple[NgramScore, float, NgramScore]:
    """BLEU, NIST and EBLEU of the segments behind ``stats``, which
    ``segment_stats`` / ``corpus_stats`` counted with the same ``config``.

    One pooled reference table gives NIST's information weights and EBLEU's
    rare-word list. BLEU and EBLEU clamp each record's credit per order to a
    perfect order before pooling; NIST is 0 for an empty hypothesis. Every
    field of each ``NgramScore`` follows from this one pooled reduction; the
    mean of segment scores is the mean of ``ngram_scores([rec], config)``
    over the records, which ``cli.score_transcript`` takes at sentence level.
    """
    max_n, nist_n, bonus = config.max_n, config.nist_max_n, config.rare_words_score
    ref_counts = _pooled_ref_counts(stats, nist_n)
    total_ref_tokens = sum(sum(rec.ref_lens) for rec in stats)
    # No more distinct reference words than tokens: no rare word if the tokens give none.
    percent = config.rare_words_percent
    rare = rare_reference_words(ref_counts, percent) if int(total_ref_tokens * percent) else frozenset()
    totals = [0] * max(max_n, nist_n)
    bleu_nums = [0.0] * max_n
    ebleu_nums = [0.0] * max_n
    credits = [0.0] * nist_n
    c = r = 0
    r_bar = 0.0
    for rec in stats:
        c += rec.hyp_len
        r += closest_ref_length(rec.hyp_len, rec.ref_lens)
        r_bar += sum(rec.ref_lens) / len(rec.ref_lens)
        earned = rec.matches
        if rec.ebleu_weights is not None or rare:
            # The bonus multiplies each weight before summing, once per n-gram; an
            # n-gram with no rare word sums its weights as they are (times 1.0).
            earned = [0] * max_n
            if rec.ebleu_weights is None:  # each n-gram's weights: its clipped count of 1.0s
                for gram, matched in rec.clipped.items():
                    if len(gram) <= max_n:
                        credit = matched if rare.isdisjoint(gram) else sum([bonus] * matched)
                        earned[len(gram) - 1] += credit
            else:
                for gram, weights in rec.ebleu_weights.items():
                    credit = sum(weights) if rare.isdisjoint(gram) else sum(w * bonus for w in weights)
                    earned[len(gram) - 1] += credit
        for i in range(min(rec.hyp_len, len(totals))):  # higher orders would add 0
            total = rec.hyp_len - i
            totals[i] += total
            if i < max_n:
                bleu_nums[i] += min(rec.matches[i], total)
                ebleu_nums[i] += min(earned[i], total)
        for gram, matched in rec.clipped.items():
            n = len(gram)
            if n <= nist_n:
                numer = ref_counts[gram[:-1]] if n > 1 else total_ref_tokens
                credits[n - 1] += matched * math.log2(numer / ref_counts[gram])

    dens = totals[:max_n]
    ebleu_score = _combine(ebleu_nums, dens, c, r)
    if config.smooth:  # BLEU only
        bleu_nums = [num + 1 if den > 0 else num for num, den in zip(bleu_nums, dens)]
        dens = [den + 1 if den > 0 else den for den in dens]
        bleu_score = _combine(bleu_nums, dens, c, r)
    else:  # equal credits over the same totals: BLEU's record is EBLEU's
        bleu_score = ebleu_score if bleu_nums == ebleu_nums else _combine(bleu_nums, dens, c, r)

    nist_score = 0.0
    if c and r_bar > 0:
        ratio = min(c / r_bar, 1.0)
        nist_score = sum(cr / tot for cr, tot in zip(credits, totals) if tot > 0)
        nist_score *= math.exp(NIST_BETA * math.log(ratio) ** 2)
    return bleu_score, nist_score, ebleu_score
