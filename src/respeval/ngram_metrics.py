"""N-gram precision metrics: BLEU, NIST and the synonym/rare-word extension EBLEU.

One ``NgramConfig`` holds the settings of all three. Each segment's n-grams
are counted once into a ``SegmentStats`` record; every score reduces a list of
records, pooling clipped matches and totals before dividing
(``sentence_level`` averages one-record scores instead). All scorers
are pure; segments may be counted in parallel as long as the reduction keeps
segment order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .resources import LanguageResources
from .textcore import NGramCounts, RespevalInputError, TokenSequence, ngrams

Gram = tuple[str, ...]


def brevity_penalty(c: int, r: float) -> float:
    """Length penalty: 1 when the hypothesis is longer than the reference,
    exp(1 - r/c) when it is shorter or equal."""
    if c < 0 or r < 0:
        raise ValueError("lengths must be non-negative")
    if c == 0:
        if r == 0:
            return 1.0
        raise RespevalInputError("empty hypothesis against a non-empty reference")
    if c > r:
        return 1.0
    return math.exp(1.0 - r / c)


def closest_ref_length(c: int, ref_lengths: Sequence[int]) -> int:
    """Reference length nearest to ``c``; ties resolved to the shorter one."""
    return min(ref_lengths, key=lambda rl: (abs(rl - c), rl))


# Beta makes NIST's length factor exp(beta * ln^2(c/r)) equal 0.5 at ratio 2/3.
NIST_BETA = math.log(0.5) / math.log(1.5) ** 2


@dataclass(frozen=True)
class NgramConfig:
    """Settings of BLEU, NIST and EBLEU, read alike by counting and reducing.

    BLEU and EBLEU weigh orders 1 to ``max_n`` uniformly, NIST sums orders 1
    to ``nist_max_n``. ``sentence_level`` averages per-segment BLEU and EBLEU
    scores instead of pooling; ``smooth`` applies add-one smoothing to every
    defined BLEU order. EBLEU credits a synonym match (from ``resources``)
    with ``synonym_score``, and an n-gram holding one of the trailing
    ``rare_words_percent`` reference words with ``rare_words_score``.
    """

    max_n: int = 4
    nist_max_n: int = 5
    sentence_level: bool = False
    smooth: bool = False
    synonym_score: float = 0.9
    rare_words_percent: float = 0.05
    rare_words_score: float = 1.1
    resources: LanguageResources = field(default_factory=LanguageResources)

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.nist_max_n < 1:
            raise ValueError("max_n and nist_max_n must be >= 1")
        if not 0.0 < self.synonym_score <= 1.0:
            raise ValueError("synonym_score must lie in (0, 1]")
        if not 0.0 <= self.rare_words_percent <= 1.0:
            raise ValueError("rare_words_percent must lie in [0, 1]")
        if self.rare_words_score < 1.0:
            raise ValueError("rare_words_score must be >= 1")


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
    return bleu_from_stats(corpus_stats(hyp_corpus, ref_corpus, config), config)


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
    return nist_from_stats(corpus_stats(hyp_corpus, ref_corpus, config), config)


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


def rare_reference_words(unigrams: NGramCounts, percent: float) -> frozenset[str]:
    """Trailing ``percent`` of distinct reference words ranked by descending
    frequency (ties broken lexicographically) in ``ngrams``-keyed ``unigrams``."""
    ranked = sorted(unigrams, key=lambda gram: (-unigrams[gram], gram))
    k = int(len(ranked) * percent)
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
    return ebleu_from_stats(corpus_stats(hyp_corpus, ref_corpus, config), config)


@dataclass(frozen=True)
class SegmentStats:
    """One segment's n-gram counts, from which BLEU, NIST and EBLEU are all
    reduced. Index ``n - 1`` of each tuple holds order ``n``: ``clipped`` maps
    each matching hypothesis n-gram to min(its count, its highest count in one
    reference); ``ref_counts`` sums the references' n-grams (NIST's
    information weights and EBLEU's rare-word list); ``ebleu_weights`` maps
    each matching synonym-expanded n-gram to the discount products of its
    credited occurrences, highest first, before any rare-word bonus."""

    hyp_len: int
    ref_lens: tuple[int, ...]
    clipped: tuple[dict[Gram, int], ...]
    ref_counts: tuple[NGramCounts, ...]
    ebleu_weights: tuple[dict[Gram, tuple[float, ...]], ...]


def segment_stats(
    hyp: TokenSequence, refs: Sequence[TokenSequence], config: NgramConfig = NgramConfig()
) -> SegmentStats:
    """Count the n-grams of ``hyp`` and its (non-empty) ``refs`` once, orders 1
    to the higher of ``max_n`` and ``nist_max_n``, and weigh the synonym-expanded
    hypothesis n-grams of orders 1 to ``max_n``."""
    effective, factors = _annotate(hyp, refs, config.resources, config.synonym_score)
    clipped, ref_counts, weighted = [], [], []
    for n in range(1, max(config.max_n, config.nist_max_n) + 1):
        ref_grams = [ngrams(ref, n) for ref in refs]
        ref_counts.append(ref_grams[0] if len(ref_grams) == 1 else sum(ref_grams, Counter()))
        clipped.append({
            gram: matched
            for gram, count in ngrams(hyp, n).items()
            if (matched := min(count, max(rg.get(gram, 0) for rg in ref_grams)))
        })
        if n <= config.max_n:
            occurrences: dict[Gram, list[float]] = {}
            for i in range(len(hyp) - n + 1):
                gram = tuple(effective[i : i + n])
                occurrences.setdefault(gram, []).append(math.prod(factors[i : i + n]))
            weighted.append({
                gram: tuple(sorted(weights, reverse=True)[:matched])
                for gram, weights in occurrences.items()
                if (matched := min(len(weights), max(rg.get(gram, 0) for rg in ref_grams)))
            })
    lens = tuple(len(ref) for ref in refs)
    return SegmentStats(len(hyp), lens, tuple(clipped), tuple(ref_counts), tuple(weighted))


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


# A metric's credit for one record at order n, given the records pooled.
Credit = Callable[[SegmentStats, int], float]
CreditFor = Callable[[Sequence[SegmentStats]], Credit]


def _pooled_ref_counts(stats: Sequence[SegmentStats], max_n: int) -> Sequence[NGramCounts]:
    """Reference n-gram counts of orders 1 to ``max_n`` summed over ``stats``."""
    if len(stats) == 1:
        return stats[0].ref_counts
    pooled: list[NGramCounts] = [Counter() for _ in range(max_n)]
    for rec in stats:
        for total, counts in zip(pooled, rec.ref_counts):
            total.update(counts)
    return pooled


def _pool(
    stats: Sequence[SegmentStats],
    max_n: int,
    credit_for: CreditFor,
    smooth: bool = False,
    sentence_level: bool = False,
) -> NgramScore:
    """Pool ``credit_for(stats)(record, n)`` over the hypothesis n-gram totals
    per order, clamped per segment to a perfect order, and combine the bases
    through the running log-mean ``C_i = exp(s / i)``. ``sentence_level`` takes
    the mean of the one-record scores instead, 0 for an empty hypothesis."""
    credit = credit_for(stats)
    nums = [0.0] * max_n
    dens = [0] * max_n
    c = r = 0
    for rec in stats:
        c += rec.hyp_len
        r += closest_ref_length(rec.hyp_len, rec.ref_lens)
        for n in range(1, max_n + 1):
            total = max(rec.hyp_len - n + 1, 0)
            dens[n - 1] += total
            nums[n - 1] += min(credit(rec, n), total)
    if smooth:
        nums = [num + 1 if den > 0 else num for num, den in zip(nums, dens)]
        dens = [den + 1 if den > 0 else den for den in dens]

    bases = tuple(min(num / den, 1.0) if den > 0 else None for num, den in zip(nums, dens))
    log_sum = 0.0
    included = 0
    cumulative: list[float | None] = []
    for base in bases:
        if base is None:
            cumulative.append(None)
            continue
        log_sum += math.log(base) if base > 0 else -math.inf
        included += 1
        cumulative.append(math.exp(log_sum / included) if log_sum > -math.inf else 0.0)
    core = next((cum for cum in reversed(cumulative) if cum is not None), 0.0)
    bp = brevity_penalty(c, r)
    score = max(0.0, min(1.0, bp * core))
    if sentence_level:
        score = sum(
            _pool([rec], max_n, credit_for, smooth).score if rec.hyp_len else 0.0 for rec in stats
        ) / len(stats)
    return NgramScore(score, bases, tuple(cumulative), bp, c, r)


def _bleu_credit(stats: Sequence[SegmentStats]) -> Credit:
    return lambda rec, n: sum(rec.clipped[n - 1].values())


def _ebleu_credit(stats: Sequence[SegmentStats], config: NgramConfig) -> Credit:
    rare = rare_reference_words(_pooled_ref_counts(stats, 1)[0], config.rare_words_percent)
    # The bonus multiplies each weight before summing, once per n-gram.
    return lambda rec, n: sum(
        sum(w * (1.0 if rare.isdisjoint(gram) else config.rare_words_score) for w in weights)
        for gram, weights in rec.ebleu_weights[n - 1].items()
    )


# The reductions take the records that ``segment_stats`` / ``corpus_stats``
# counted with the same ``config``.


def bleu_from_stats(stats: Sequence[SegmentStats], config: NgramConfig = NgramConfig()) -> NgramScore:
    """BLEU of the segments behind ``stats``: EBLEU with neutral factors."""
    return _pool(stats, config.max_n, _bleu_credit, config.smooth, config.sentence_level)


def ebleu_from_stats(stats: Sequence[SegmentStats], config: NgramConfig = NgramConfig()) -> NgramScore:
    """EBLEU of the segments behind ``stats``; see ``ebleu``."""
    credit_for = lambda records: _ebleu_credit(records, config)
    return _pool(stats, config.max_n, credit_for, sentence_level=config.sentence_level)


def nist_from_stats(stats: Sequence[SegmentStats], config: NgramConfig = NgramConfig()) -> float:
    """NIST of the segments behind ``stats``; see ``nist``."""
    max_n = config.nist_max_n
    ref_counts = _pooled_ref_counts(stats, max_n)
    total_ref_tokens = sum(sum(rec.ref_lens) for rec in stats)

    def info(gram: Gram) -> float:
        n = len(gram)
        denom = ref_counts[n - 1][gram]
        numer = ref_counts[n - 2][gram[:-1]] if n > 1 else total_ref_tokens
        return math.log2(numer / denom)

    c = 0
    r_bar = 0.0
    credits = [0.0] * max_n
    totals = [0] * max_n
    for rec in stats:
        c += rec.hyp_len
        r_bar += sum(rec.ref_lens) / len(rec.ref_lens)
        for n in range(1, max_n + 1):
            totals[n - 1] += max(rec.hyp_len - n + 1, 0)
            for gram, matched in rec.clipped[n - 1].items():
                credits[n - 1] += matched * info(gram)
    score = sum(cr / tot for cr, tot in zip(credits, totals) if tot > 0)

    if r_bar <= 0:
        return 0.0
    ratio = min(c / r_bar, 1.0)
    return score * math.exp(NIST_BETA * math.log(ratio) ** 2)
