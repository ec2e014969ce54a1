import dataclasses
import math
import random
from pathlib import Path

import pytest

from respeval import ngram_metrics
from respeval.cli import score_transcript
from respeval.ngram_metrics import (
    NIST_BETA,
    NgramConfig,
    bleu,
    brevity_penalty,
    closest_ref_length,
    corpus_stats,
    ebleu,
    ngram_scores,
    nist,
    rare_reference_words,
    segment_stats,
)
from respeval.resources import LanguageResources
from respeval.textcore import RespevalInputError, ngram_table

import oracles
from helpers import VOCAB, make_rng, random_corpus, random_segment

EXAM_QUIZ_SYNONYMS = LanguageResources(
    synonyms={"exam": frozenset({"quiz"}), "quiz": frozenset({"exam"})}
)
HYP_EXAM = ["this", "is", "a", "exam"]
REF_QUIZ = ["this", "is", "a", "quiz"]


# --- brevity penalty ----------------------------------------------------------


def test_brevity_penalty_longer_hypothesis():
    assert brevity_penalty(10, 5) == 1.0


def test_brevity_penalty_equal_lengths():
    assert brevity_penalty(5, 5) == 1.0


def test_brevity_penalty_shorter_hypothesis():
    assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1), abs=1e-12)


def test_brevity_penalty_empty_hypothesis():
    with pytest.raises(RespevalInputError, match="empty hypothesis against a non-empty reference"):
        brevity_penalty(0, 3)
    assert brevity_penalty(0, 0) == 1.0


def test_brevity_penalty_rejects_a_negative_length():
    with pytest.raises(RespevalInputError, match="^lengths must be non-negative$"):
        brevity_penalty(-1, 3)


def test_closest_ref_length_ties_to_shorter():
    assert closest_ref_length(4, [3, 5]) == 3
    assert closest_ref_length(4, [5, 3]) == 3
    assert closest_ref_length(4, [2, 5]) == 5


# --- modified precision: BLEU's per-order precisions -----------------------------


def precision(hyp, refs, n):
    return bleu([hyp], [refs], NgramConfig(max_n=n)).precisions[n - 1]


def test_modified_precision_worked_example():
    assert precision(HYP_EXAM, [REF_QUIZ], 1) == 0.75


def test_modified_precision_identity():
    seq = ["v", "w", "x", "y", "z"]
    for n in range(1, 6):
        assert precision(seq, [seq], n) == 1.0


def test_modified_precision_disjoint():
    assert precision(["x", "y"], [["a", "b"]], 1) == 0.0


def test_modified_precision_undefined_for_short_hypothesis():
    assert precision(["x"], [["x", "y"]], 2) is None


# --- BLEU ------------------------------------------------------------------------


def test_bleu_identity_corpus():
    corpus = [["the", "cat", "sat"], ["on", "the", "mat"]]
    result = bleu(corpus, [[seg] for seg in corpus])
    assert result.score == 1.0
    assert result.brevity_penalty == 1.0


def test_bleu_worked_example_unigram():
    result = bleu([HYP_EXAM], [[REF_QUIZ]], NgramConfig(max_n=1))
    assert result.score == pytest.approx(0.75, abs=1e-12)


def test_bleu_zero_precision_annihilates():
    result = bleu([["a", "b"]], [[["a", "c"]]], NgramConfig(max_n=2))
    assert result.precisions[0] == 0.5
    assert result.precisions[1] == 0.0
    assert result.score == 0.0


def test_bleu_smoothing_avoids_annihilation():
    result = bleu([["a", "b"]], [[["a", "c"]]], NgramConfig(max_n=2, smooth=True))
    assert result.score > 0.0


def test_bleu_short_hypothesis_excludes_order():
    # one-token corpus: order 2 undefined, order 1 carries all the weight
    result = bleu([["a"]], [[["a"]]], NgramConfig(max_n=2))
    assert result.precisions[1] is None
    assert result.score == 1.0


def test_bleu_corpus_errors():
    with pytest.raises(RespevalInputError, match="corpus length mismatch: 1 hypotheses vs 0"):
        bleu([["a"]], [])
    with pytest.raises(RespevalInputError, match="^empty corpus$"):
        bleu([], [])
    with pytest.raises(RespevalInputError, match="every hypothesis segment is empty"):
        bleu([[]], [[["a"]]])


def _transcript(hyp_corpus, ref_corpus, config, sentence_level):
    """``score_transcript``'s segment columns and its BLEU, NIST and EBLEU aggregate."""
    segments, aggregate = score_transcript(
        hyp_corpus, ref_corpus, config,
        sentence_level=sentence_level, meteor_penalty_exp=1.0, function_word_weight=0.2,
        ribes_alpha=0.25, ribes_variant="nkt",
    )
    return segments, (aggregate["bleu"], aggregate["nist"], aggregate["ebleu"])


def test_bleu_sentence_level_averages_segments():
    # sentence level is score_transcript's mean of the segment scores
    hyp = [["a", "b"], ["c", "d"]]
    refs = [[["a", "b"]], [["c", "x"]]]
    per_segment = [bleu([h], [r], NgramConfig(max_n=1)).score for h, r in zip(hyp, refs)]
    mean = oracles.bleu_oracle(hyp, refs, 1, sentence_level=True)
    assert mean == pytest.approx(sum(per_segment) / 2)
    assert _transcript(hyp, refs, NgramConfig(max_n=1), True)[1][0] == mean * 100.0


def test_bleu_range_and_identity_random():
    rng = make_rng(10)
    for _ in range(50):
        corpus = random_corpus(rng)
        refs = [[seg] for seg in corpus]
        assert bleu(corpus, refs).score == 1.0
        other = random_corpus(rng, max_segments=len(corpus))
        if len(other) == len(corpus):
            assert 0.0 <= bleu(other, refs[: len(other)]).score <= 1.0


def test_bleu_vocabulary_relabeling_invariance():
    rng = make_rng(11)
    for _ in range(20):
        hyp = random_corpus(rng, max_segments=6)
        ref = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        mapping = {w: f"w{i}" for i, w in enumerate(sorted({t for s in hyp for t in s} | {t for rs in ref for r in rs for t in r}))}
        hyp2 = [[mapping[t] for t in seg] for seg in hyp]
        ref2 = [[[mapping[t] for t in r] for r in rs] for rs in ref]
        assert bleu(hyp, ref).score == pytest.approx(bleu(hyp2, ref2).score, abs=1e-12)


# --- NIST ------------------------------------------------------------------------


def test_nist_identity_distinct_unigrams():
    # 4 distinct words, each with reference-corpus frequency 1 out of 4:
    # every matched unigram carries log2(4/1) = 2 bits, so the order-1 term
    # is the mean information 2.0 and the length factor is 1.
    seg = ["a", "b", "c", "d"]
    expected = sum(math.log2(4 / 1) for _ in seg) / 4
    assert nist([seg], [[seg]], NgramConfig(nist_max_n=1)) == pytest.approx(expected, abs=1e-12)


def test_nist_hand_evaluated_two_orders():
    # hyp = ref = "a b a": unigram counts a:2 b:1 of 3 total; bigrams ab, ba.
    seg = ["a", "b", "a"]
    info_a = math.log2(3 / 2)
    info_b = math.log2(3 / 1)
    info_ab = math.log2(2 / 1)  # count(a) / count(ab)
    info_ba = math.log2(1 / 1)  # count(b) / count(ba)
    expected = (2 * info_a + info_b) / 3 + (info_ab + info_ba) / 2
    assert nist([seg], [[seg]], NgramConfig(nist_max_n=2)) == pytest.approx(expected, abs=1e-12)


def test_nist_no_overlap_is_zero():
    assert nist([["x", "y"]], [[["a", "b"]]]) == 0.0


def test_nist_doubling_corpus_invariance():
    rng = make_rng(12)
    for _ in range(10):
        hyp = random_corpus(rng, max_segments=8)
        refs = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        once = nist(hyp, refs)
        doubled = nist(hyp + hyp, refs + refs)
        assert doubled == pytest.approx(once, abs=1e-9)


def test_nist_non_negative_random():
    rng = make_rng(13)
    for _ in range(30):
        hyp = random_corpus(rng, max_segments=10)
        refs = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        assert nist(hyp, refs) >= 0.0


def test_nist_brevity_factor_half_at_two_thirds():
    assert math.exp(NIST_BETA * math.log(2 / 3) ** 2) == pytest.approx(0.5, abs=1e-12)


# --- EBLEU -----------------------------------------------------------------------


# ``_annotate`` gives each hypothesis token its effective token and its credit
# factor: 1 for an exact match, the synonym score for a synonym, 0 for a miss.


def test_synonym_expand_worked_example():
    tokens, factors = ngram_metrics._annotate(HYP_EXAM, [REF_QUIZ], EXAM_QUIZ_SYNONYMS, 0.9)
    assert factors == [1.0, 1.0, 1.0, 0.9]
    assert tokens == ["this", "is", "a", "quiz"]


def test_synonym_expand_empty_dictionary():
    tokens, factors = ngram_metrics._annotate(HYP_EXAM, [REF_QUIZ], LanguageResources(), 0.9)
    assert factors == [1.0, 1.0, 1.0, 0.0]
    assert tokens == HYP_EXAM


def test_synonym_expand_exact_beats_synonym():
    resources = LanguageResources(synonyms={"quiz": frozenset({"exam"}), "exam": frozenset({"quiz"})})
    tokens, factors = ngram_metrics._annotate(["quiz"], [["quiz", "exam"]], resources, 0.9)
    assert factors == [1.0]
    assert tokens == ["quiz"]


def test_ebleu_worked_example():
    config = NgramConfig(synonym_score=0.9, max_n=1, resources=EXAM_QUIZ_SYNONYMS)
    result = ebleu([HYP_EXAM], [[REF_QUIZ]], config)
    assert result.precisions[0] == pytest.approx(3.9 / 4, abs=1e-12)
    assert result.score == pytest.approx(0.975, abs=1e-12)


def test_ebleu_without_synonyms_is_bleu_precision():
    result = ebleu([HYP_EXAM], [[REF_QUIZ]], NgramConfig(max_n=1))
    assert result.precisions[0] == pytest.approx(0.75, abs=1e-12)


def test_ebleu_identity_is_one():
    rng = make_rng(14)
    for _ in range(20):
        corpus = random_corpus(rng, max_segments=8)
        refs = [[seg] for seg in corpus]
        assert ebleu(corpus, refs).score == 1.0


def test_ebleu_equals_bleu_without_resources():
    rng = make_rng(15)
    for _ in range(50):
        hyp = random_corpus(rng, max_segments=8)
        refs = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        config = NgramConfig(rare_words_score=1.0, rare_words_percent=0.0, max_n=3)
        expected = bleu(hyp, refs, NgramConfig(max_n=3)).score
        assert ebleu(hyp, refs, config).score == expected


def test_ebleu_never_below_bleu():
    rng = make_rng(16)
    resources = LanguageResources(
        synonyms={"cat": frozenset({"dog"}), "dog": frozenset({"cat"})}
    )
    for _ in range(30):
        hyp = random_corpus(rng, max_segments=6)
        refs = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        base = bleu(hyp, refs, NgramConfig(max_n=3)).score
        enhanced = ebleu(hyp, refs, NgramConfig(max_n=3, resources=resources)).score
        assert enhanced >= base - 1e-12
        assert 0.0 <= enhanced <= 1.0


def test_ebleu_cumulative_is_geometric_mean():
    rng = make_rng(17)
    for _ in range(20):
        hyp = random_corpus(rng, max_segments=6, max_tokens=12)
        refs = [[random_corpus(rng, max_segments=1, max_tokens=12)[0]] for _ in hyp]
        result = ebleu(hyp, refs, NgramConfig(max_n=4))
        defined = [b for b in result.precisions if b is not None]
        cums = [c for c in result.cumulative if c is not None]
        if any(b == 0 for b in defined):
            continue
        for i, cum in enumerate(cums, start=1):
            geo = math.exp(sum(math.log(b) for b in defined[:i]) / i)
            assert cum == pytest.approx(geo, abs=1e-12)


def test_rare_reference_words_trailing_fraction():
    unigrams = oracles.count_ngrams(["common"] * 4 + ["rare"], 1)
    assert rare_reference_words(unigrams, 0.5) == frozenset({"rare"})
    assert rare_reference_words(unigrams, 0.0) == frozenset()
    # frequency tie broken lexicographically: the later-sorted word is rarer
    unigrams = oracles.count_ngrams(["alpha", "beta", "alpha", "beta", "zeta"], 1)
    assert rare_reference_words(unigrams, 1 / 3) == frozenset({"zeta"})
    assert rare_reference_words(unigrams, 2 / 3) == frozenset({"zeta", "beta"})
    # a table of every order: only its unigrams are words
    table = ngram_table(["alpha", "beta", "alpha", "beta", "zeta"], 3)
    assert rare_reference_words(table, 1 / 3) == frozenset({"zeta"})
    assert rare_reference_words(table, 2 / 3) == frozenset({"zeta", "beta"})


def test_rare_reference_words_none_when_the_share_rounds_to_zero():
    assert rare_reference_words(oracles.count_ngrams([], 1), 0.5) == frozenset()
    assert rare_reference_words(oracles.count_ngrams(["a", "b", "c"], 1), 0.3) == frozenset()
    # k == 0 returns before ranking: these keys cannot even be sorted
    assert rare_reference_words({("a",): 1, (1,): 1}, 0.4) == frozenset()


def test_ebleu_rare_word_bonus():
    # "rare" appears once among five reference tokens; 50% of the two
    # distinct words makes exactly it rare.
    hyp = [["common", "zzz"], ["zzz", "rare"]]
    refs = [[["common", "common", "common"]], [["common", "rare"]]]
    config = NgramConfig(rare_words_percent=0.5, rare_words_score=1.5, max_n=1)
    result = ebleu(hyp, refs, config)
    assert result.precisions[0] == pytest.approx((1.0 + 1.5) / 4, abs=1e-12)


def test_ebleu_rare_bonus_multiplies_each_weight():
    # three synonym matches of the rare "cat": summing 0.9 * 1.3 three times
    # differs in the last bit from 1.3 * (0.9 + 0.9 + 0.9)
    hyp = [["dog", "dog", "dog", "sat", "sat", "sat", "sat"]]
    refs = [[["cat", "cat", "cat", "a", "a", "a", "a", "mat"]]]
    resources = LanguageResources(synonyms={"dog": frozenset({"cat"}), "cat": frozenset({"dog"})})
    config = NgramConfig(
        synonym_score=0.9, rare_words_percent=0.67, rare_words_score=1.3, max_n=1, resources=resources
    )
    assert ebleu(hyp, refs, config).precisions[0] == (0.9 * 1.3 + 0.9 * 1.3 + 0.9 * 1.3) / 7


def test_ebleu_rare_bonus_in_unrewritten_segments_adds_each_weight():
    # No token is rewritten, so EBLEU credits the clipped counts at factor 1.
    # The rare "x" matches six times in the first segment: adding 1.1 six
    # times differs in the last bit from 6 * 1.1, and so from any shortcut
    # that scales a clipped count or a per-order total by the bonus.
    assert sum([1.1] * 6) != 6 * 1.1
    hyps = [["x"] * 6 + ["z", "a", "b", "z"], ["a", "x", "x", "x", "z", "b", "c"]]
    refss = [[["a"] * 8 + ["b"] * 8 + ["x"] * 6], [["c", "x", "a", "b"] * 3 + ["a", "b", "c"]]]
    for hyp, refs in zip(hyps, refss):  # "x" is rare in each segment and in the corpus
        assert "x" in rare_reference_words(segment_stats(hyp, refs).ref_counts, 0.5)
    for max_n in range(1, 5):  # the exp and log of the score can absorb a last bit at one order
        config = NgramConfig(max_n=max_n, rare_words_percent=0.5, rare_words_score=1.1)
        for h, r in [*zip([[hyp] for hyp in hyps], [[refs] for refs in refss]), (hyps, refss)]:
            assert ebleu(h, r, config).score == oracles.ebleu_oracle(h, r, max_n, {}, 0.9, 0.5, 1.1)


def test_ebleu_rare_bonus_keeps_sentence_within_one():
    # a perfect sentence full of rare words must still cap at 1.0
    hyp = [["rare", "word"]]
    refs = [[["rare", "word"]]]
    config = NgramConfig(rare_words_percent=1.0, rare_words_score=1.5, max_n=2)
    result = ebleu(hyp, refs, config)
    assert result.score == 1.0


def test_ebleu_sentence_level_averages_segments():
    hyp = [["a", "b"], ["c", "d"]]
    refs = [[["a", "b"]], [["c", "x"]]]
    per_segment = [ebleu([h], [r], NgramConfig(max_n=2)).score for h, r in zip(hyp, refs)]
    mean = oracles.ebleu_oracle(hyp, refs, 2, {}, 0.9, 0.05, 1.1, sentence_level=True)
    assert mean == pytest.approx(sum(per_segment) / 2)
    assert _transcript(hyp, refs, NgramConfig(max_n=2), True)[1][2] == mean * 100.0


def test_sentence_level_tolerates_empty_segment():
    hyp = [["a", "b"], []]
    refs = [[["a", "b"]], [["c"]]]
    bleu_mean, _, ebleu_mean = _transcript(hyp, refs, NgramConfig(max_n=1), True)[1]
    assert bleu_mean == oracles.bleu_oracle(hyp, refs, 1, sentence_level=True) * 100.0 == pytest.approx(50.0)
    ebleu_oracle = oracles.ebleu_oracle(hyp, refs, 1, {}, 0.9, 0.05, 1.1, sentence_level=True)
    assert ebleu_mean == ebleu_oracle * 100.0 == pytest.approx(50.0)


def test_reductions_of_an_empty_hypothesis_record_are_zero():
    # the record corpus_stats builds for an empty segment among others
    record = segment_stats([], [["a", "b"]])
    bleu_score, nist_score, ebleu_score = ngram_scores([record])
    assert (bleu_score.score, nist_score, ebleu_score.score) == (0.0, 0.0, 0.0)
    # and the columns score_transcript gives such a segment, pooled or averaged
    for sentence_level in (False, True):
        segments, _ = _transcript([[], ["a"]], [[["a", "b"]], [["a"]]], NgramConfig(), sentence_level)
        assert (segments[0]["bleu"], segments[0]["nist"], segments[0]["ebleu"]) == (0.0, 0.0, 0.0)


def test_ngram_orders_are_bounded():
    top = ngram_metrics.MAX_NGRAM_ORDER
    config = NgramConfig(max_n=top, nist_max_n=top)
    seq = [f"w{i}" for i in range(top)]
    record = segment_stats(seq, [seq], config)
    assert record.clipped[tuple(seq)] == 1
    assert len(record.matches) == top and record.matches[top - 1] == 1
    bad_orders = (
        {"max_n": top + 1}, {"nist_max_n": top + 1}, {"max_n": 0}, {"nist_max_n": 0},
        {"max_n": 2.0}, {"nist_max_n": 2.0},
    )
    for orders in bad_orders:
        with pytest.raises(ValueError):
            NgramConfig(**orders)


def test_ebleu_config_validation():
    with pytest.raises(ValueError):
        NgramConfig(synonym_score=0.0)
    with pytest.raises(ValueError):
        NgramConfig(rare_words_score=0.5)
    with pytest.raises(ValueError):
        NgramConfig(rare_words_score=math.nan)
    with pytest.raises(ValueError):
        NgramConfig(rare_words_percent=1.5)


# --- one statistics record per segment against per-metric oracles ---------------


def test_records_match_per_metric_oracles():
    synonyms = {"cat": {"dog"}, "dog": {"cat"}, "big": {"large"}, "large": {"big"}}
    resources = LanguageResources(synonyms={w: frozenset(s) for w, s in synonyms.items()})
    rng = make_rng(18)
    for _ in range(300):
        size = rng.randint(1, 6)
        n_refs = rng.randint(1, 3)
        # empty hypotheses and segments shorter than the highest order included
        hyps = [
            random_segment(rng, 7, VOCAB + ("large",)) if rng.random() > 0.15 else []
            for _ in range(size)
        ]
        if not any(hyps):
            hyps[0] = ["the"]
        refss = [[random_segment(rng, 7) for _ in range(n_refs)] for _ in range(size)]
        max_n, nist_n = rng.randint(1, 5), rng.randint(1, 5)
        smooth, sentence = rng.random() < 0.5, rng.random() < 0.5
        config = NgramConfig(
            max_n=max_n,
            nist_max_n=nist_n,
            smooth=smooth,
            synonym_score=rng.choice((0.5, 0.9, 1.0)),
            rare_words_percent=rng.choice((0.0, 0.15, 0.3)),
            rare_words_score=rng.choice((1.0, 1.3, 1.7)),
            resources=resources,
        )

        def expected(h, r, sentence_level=False):
            return (
                oracles.bleu_oracle(h, r, max_n, smooth, sentence_level),
                oracles.nist_oracle(h, r, nist_n),
                oracles.ebleu_oracle(
                    h,
                    r,
                    max_n,
                    synonyms,
                    config.synonym_score,
                    config.rare_words_percent,
                    config.rare_words_score,
                    sentence_level,
                ),
            )

        def reduced(records):
            bleu_score, nist_score, ebleu_score = ngram_scores(records, config)
            return bleu_score.score, nist_score, ebleu_score.score

        stats = corpus_stats(hyps, refss, config)
        assert reduced(stats) == expected(hyps, refss)
        public = (
            bleu(hyps, refss, config).score,
            nist(hyps, refss, config),
            ebleu(hyps, refss, config).score,
        )
        assert public == expected(hyps, refss)
        for hyp, refs, rec in zip(hyps, refss, stats):
            if hyp:  # a corpus of one empty hypothesis is an input error
                assert reduced([rec]) == expected([hyp], [refs])
                assert ngram_scores([rec], config) == ngram_scores(corpus_stats([hyp], [refs], config), config)
        # score_transcript averages BLEU and EBLEU at sentence level, and NIST always pools
        want = expected(hyps, refss, sentence)
        assert _transcript(hyps, refss, config, sentence)[1] == (want[0] * 100.0, want[1], want[2] * 100.0)


def _ordered(hyp_len, ref_lens, clipped, matches, ref_counts, ebleu_weights):
    """A record's fields with each table as its list of items, so that order counts."""
    weights = None if ebleu_weights is None else list(ebleu_weights.items())
    return hyp_len, ref_lens, list(clipped.items()), matches, list(ref_counts.items()), weights


def test_segment_records_equal_the_gram_by_gram_oracle():
    synonyms = {"cat": {"dog", "kitten"}, "dog": {"cat"}, "kitten": {"cat"}, "big": {"large"}, "large": {"big"}}
    resources = LanguageResources(synonyms={w: frozenset(s) for w, s in synonyms.items()})
    vocab = VOCAB + ("large", "kitten")
    rng = make_rng(19)
    rewritten = 0
    for _ in range(1500):
        refs = [random_segment(rng, 9, rng.choice((VOCAB[:4], VOCAB))) for _ in range(rng.randint(1, 3))]
        hyp = random_segment(rng, 9, rng.choice((vocab[:4], vocab))) if rng.random() > 0.1 else []
        config = NgramConfig(
            max_n=rng.randint(1, 6),
            nist_max_n=rng.randint(1, 6),
            synonym_score=rng.choice((0.5, 0.9, 1.0)),
            resources=resources if rng.random() < 0.7 else LanguageResources(),
        )
        record = segment_stats(hyp, refs, config)
        table = synonyms if config.resources.synonyms else {}
        expected = oracles.segment_record_oracle(
            hyp, refs, config.max_n, config.nist_max_n, table, config.synonym_score
        )
        fields = [getattr(record, field.name) for field in dataclasses.fields(record)]
        assert _ordered(*fields) == _ordered(*expected), (hyp, refs, config)
        rewritten += ngram_metrics._annotate(hyp, refs, config.resources, 0.9)[0] != hyp
    assert rewritten > 100


def test_segments_with_no_rewrite_keep_every_float():
    """``segment_stats`` annotates a segment only when a hypothesis token
    that no reference holds has a synonym that one does. Against records
    built gram by gram with every segment annotated
    (``oracles.segment_record_oracle``), on random synonym tables where many
    missing tokens have synonyms only outside the references, every BLEU,
    NIST and EBLEU float is the same, per segment and pooled."""
    rng = make_rng(57)
    words = [f"w{i}" for i in range(8)]
    skipped = rewritten = 0
    for _ in range(400):
        synonyms: dict[str, set[str]] = {}
        for a, b in (rng.sample(words, 2) for _ in range(rng.randint(1, 6))):
            synonyms.setdefault(a, set()).add(b)
            synonyms.setdefault(b, set()).add(a)
        hyps = [random_segment(rng, 9, words) for _ in range(rng.randint(1, 4))]
        refss = [[random_segment(rng, 9, words[: rng.randint(2, 8)]) for _ in range(rng.randint(1, 3))] for _ in hyps]
        config = NgramConfig(
            max_n=rng.randint(1, 5),
            nist_max_n=rng.randint(1, 5),
            smooth=rng.random() < 0.5,
            synonym_score=rng.choice((0.5, 0.9)),
            rare_words_percent=rng.choice((0.0, 0.3)),
            resources=LanguageResources(synonyms={w: frozenset(s) for w, s in synonyms.items()}),
        )
        stats = corpus_stats(hyps, refss, config)
        annotated = [
            ngram_metrics.SegmentStats(
                *oracles.segment_record_oracle(
                    hyp, refs, config.max_n, config.nist_max_n, synonyms, config.synonym_score
                )
            )
            for hyp, refs in zip(hyps, refss)
        ]
        assert repr(ngram_scores(stats, config)) == repr(ngram_scores(annotated, config))
        for hyp, refs, rec, want in zip(hyps, refss, stats, annotated):
            assert repr(ngram_scores([rec], config)) == repr(ngram_scores([want], config))
            assert rec.ebleu_weights == want.ebleu_weights
            missing = [tok for tok in hyp if all(tok not in ref for ref in refs)]
            skipped += rec.ebleu_weights is None and any(tok in synonyms for tok in missing)
            rewritten += rec.ebleu_weights is not None
    assert skipped > 100 and rewritten > 100


PINNED_REDUCTIONS = Path(__file__).parent / "data" / "ngram_scores_pinned.txt"


def _pinned_cases():
    """Forty corpora with their configs: smoothing on and off, synonym
    rewrites and none, rare-word shares that leave no rare word and that
    leave some, 1-3 references, an empty hypothesis among others, and
    ``max_n`` above and below ``nist_max_n``. The seed is fixed, not
    ``make_rng``'s, because the answers are pinned."""
    synonyms = {"cat": frozenset({"dog", "kitten"}), "dog": frozenset({"cat"}), "kitten": frozenset({"cat"})}
    synonyms |= {"big": frozenset({"large"}), "large": frozenset({"big"})}
    vocab = VOCAB + ("large", "kitten")
    rng = random.Random("pinned n-gram reductions")
    for i in range(40):
        size, n_refs = 1 + i % 4, 1 + i // 4 % 3
        hyps = [random_segment(rng, 12, vocab) for _ in range(size)]
        if i % 7 == 3:
            hyps.append([])
        refss = [[random_segment(rng, 12) for _ in range(n_refs)] for _ in hyps]
        max_n, nist_n = ((4, 5), (5, 3), (2, 2), (3, 6), (1, 4))[i % 5]
        config = NgramConfig(
            max_n=max_n,
            nist_max_n=nist_n,
            smooth=i % 2 == 1,
            rare_words_percent=(0.0, 0.05, 0.3)[i % 3],
            rare_words_score=(1.1, 1.5)[i // 3 % 2],
            resources=LanguageResources(synonyms=synonyms) if i // 2 % 2 == 0 else LanguageResources(),
        )
        yield hyps, refss, config


def test_ngram_scores_keep_their_recorded_floats():
    """Every field of BLEU's and EBLEU's ``NgramScore`` and the NIST float,
    as ``repr``, recorded before the reductions skipped work that cannot
    change an answer."""
    got, rewritten, rare = [], 0, 0
    for hyps, refss, config in _pinned_cases():
        stats = corpus_stats(hyps, refss, config)
        got.append(repr(ngram_scores(stats, config)))
        rewritten += any(rec.ebleu_weights is not None for rec in stats)
        pooled = ngram_metrics._pooled_ref_counts(stats, config.nist_max_n)
        rare += bool(rare_reference_words(pooled, config.rare_words_percent))
    assert got == PINNED_REDUCTIONS.read_text(encoding="utf-8").splitlines()
    assert rewritten >= 5 and rare >= 5
