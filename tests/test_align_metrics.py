import itertools
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from respeval import align_metrics
from respeval.align_metrics import (
    MAX_SHIFT_LENGTH,
    METEOR_NODE_CAP,
    _least_cut,
    _prefix_bounds,
    _ReferenceColumns,
    kendall_nkt,
    meteor,
    meteor_align,
    multiset_edit_bound,
    ribes,
    spearman_nsr,
    ter,
    word_rank_alignment,
)
from respeval.resources import LanguageResources
from respeval.textcore import RespevalInputError

from helpers import make_rng, random_corpus
import oracles

SYN_CAT_DOG = LanguageResources(synonyms={"cat": frozenset({"dog"}), "dog": frozenset({"cat"})})


# --- TER -----------------------------------------------------------------------


def test_ter_identity():
    seq = ["w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"]
    result = ter(seq, seq)
    assert result.edits == 0
    assert result.ter == 0.0


def test_ter_single_substitution():
    ref = [f"t{i}" for i in range(10)]
    hyp = ref.copy()
    hyp[4] = "oops"
    assert ter(hyp, ref).ter == pytest.approx(0.1)


def test_ter_adjacent_block_swap_is_one_shift():
    ref = ["a", "b", "c", "d", "e", "f", "g", "h"]
    hyp = ["c", "d", "a", "b", "e", "f", "g", "h"]
    result = ter(hyp, ref)
    assert result.shifts == 1
    assert result.edits == 1
    assert result.ter == pytest.approx(1 / 8)
    assert oracles.ter_exhaustive(hyp, ref) == 1


def test_ter_empty_reference():
    with pytest.raises(RespevalInputError, match="reference segment is empty"):
        ter(["a"], [])


def test_ter_empty_hypothesis_is_all_insertions():
    assert ter([], ["a", "b"]).ter == 1.0


def test_ter_never_below_exhaustive_oracle():
    rng = make_rng(20)
    agree = 0
    total = 200
    for _ in range(total):
        vocab = "abcde"[: rng.randint(2, 5)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        got = ter(hyp, ref).edits
        optimal = oracles.ter_exhaustive(hyp, ref)
        assert got >= optimal
        agree += got == optimal
    assert agree / total >= 0.9


def test_ter_at_most_plain_levenshtein():
    rng = make_rng(21)
    for _ in range(100):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 10))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 10))]
        assert ter(hyp, ref).edits <= oracles.lev(hyp, ref)


def test_ter_relabeling_invariance():
    rng = make_rng(22)
    for _ in range(30):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        mapping = {c: f"tok_{c}" for c in "abcd"}
        relabeled = ter([mapping[t] for t in hyp], [mapping[t] for t in ref])
        assert ter(hyp, ref).edits == relabeled.edits


def test_word_edit_distance_matches_oracle():
    rng = make_rng(23)
    pairs = [([], ["x"]), (["x", "y"], ["x"]), (["x"] * 5, ["x"] * 3), (["y"] * 70, ["x"] * 70)]
    for _ in range(300):
        vocab = "xyz"[: rng.randint(1, 3)]
        pairs.append(
            (
                [rng.choice(vocab) for _ in range(rng.randint(0, 9))],
                [rng.choice(vocab) for _ in range(rng.randint(1, 9))],
            )
        )
    # References longer than 64 tokens need masks wider than one machine word.
    for _ in range(30):
        ref = [rng.choice("abcdefgh") for _ in range(rng.randint(60, 140))]
        hyp = [tok if rng.random() < 0.8 else rng.choice("abcdefghij") for tok in ref]
        cut = rng.randrange(len(hyp))
        del hyp[cut : cut + rng.randint(0, 10)]
        pairs.append((hyp, ref))
    for hyp, ref in pairs:
        columns = _ReferenceColumns(ref)
        expected = oracles.lev(hyp, ref)
        assert columns.feed(columns.initial, hyp)[2] == expected
        cut = rng.randint(0, len(hyp))
        state = columns.feed(columns.initial, hyp[:cut])
        assert columns.feed(state, hyp[cut:])[2] == expected
        # A chain from a non-initial state holds the distance of every longer prefix.
        states = columns.prefix_states(hyp[cut:], state)
        assert states[0] == state
        for k, (_, _, distance) in enumerate(states, start=cut):
            assert distance == oracles.lev(hyp[:k], ref)


def test_feed_limit_stops_after_the_first_word_that_leaves_the_limit_out_of_reach():
    rng = make_rng(28)
    for _ in range(400):
        vocab = "abcdef"[: rng.randint(1, 6)]
        columns = _ReferenceColumns([rng.choice(vocab) for _ in range(rng.randint(1, 70))])
        start = columns.feed(columns.initial, [rng.choice(vocab) for _ in range(rng.randint(0, 10))])
        tokens = [rng.choice(vocab + "z") for _ in range(rng.randint(0, 30))]
        unlimited = columns.prefix_states(tokens, start)
        n = len(tokens)
        for limit in [unlimited[-1][2], unlimited[-1][2] + 1] + [rng.randint(0, start[2] + n + 1) for _ in range(4)]:
            got = columns.feed(start, tokens, limit=limit)
            if got[2] < limit:
                assert got == unlimited[-1]
            else:
                assert unlimited[-1][2] >= limit
            # The feed ends after the first word k with score - (n - k) >= limit.
            end = next((k for k in range(1, n + 1) if unlimited[k][2] - (n - k) >= limit), n)
            states = columns.prefix_states(tokens, start, limit)
            assert states == unlimited[: end + 1]
            assert states[-1] == got


def _pareto_word(rng):
    return f"w{min(int(rng.paretovariate(1.2)), 60)}"


def _move_block(rng, hyp):
    start = rng.randrange(len(hyp) - 3)
    block = hyp[start : start + rng.randint(3, 6)]
    del hyp[start : start + len(block)]
    pos = rng.randint(0, len(hyp))
    hyp[pos:pos] = block


def _moved_blocks_pair(rng, lengths=(16, 20), draw=_pareto_word):
    """A re-spoken sentence: 16-20 reference words unless ``lengths`` says
    otherwise, one or two clause-sized blocks moved and a substitution or
    two, as in the benchmark's long re-spoken segments."""
    ref = [draw(rng) for _ in range(rng.randint(*lengths))]
    hyp = ref.copy()
    for _ in range(rng.randint(1, 2)):
        _move_block(rng, hyp)
    for _ in range(rng.randint(0, 2)):
        hyp[rng.randrange(len(hyp))] = "sub"
    return hyp, ref


def _probe_shaped_pair(rng, length):
    """Shaped like the benchmark's TER probe pairs: ``length`` words of a
    Zipfian 2,000-word vocabulary, a tenth of them replaced by words the
    reference lacks, and two blocks moved."""
    ref = [f"v{min(int(rng.paretovariate(0.8)), 2000)}" for _ in range(length)]
    hyp = ref.copy()
    for i in rng.sample(range(length), round(length / 10)):
        hyp[i] = f"sub{i}"
    for _ in range(2):
        _move_block(rng, hyp)
    return hyp, ref


def _run_heavy_pair(rng, lengths, longest_run=12):
    """Words in runs of one word, each run up to ``longest_run`` long, over a
    2- or 3-word vocabulary; the hypothesis moves one or two blocks and
    substitutes up to three words. On such lines many shifts of one round
    build the same sentence."""
    vocab = "abc"[: rng.randint(2, 3)]
    length = rng.randint(*lengths)
    ref = []
    while len(ref) < length:
        ref += [rng.choice(vocab)] * rng.randint(1, longest_run)
    del ref[length:]
    hyp = ref.copy()
    for _ in range(rng.randint(1, 2)):
        _move_block(rng, hyp)
    for _ in range(rng.randint(0, 3)):
        hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
    return hyp, ref


def test_ter_matches_greedy_oracle():
    rng = make_rng(24)
    pairs = [([], ["a"]), ([], ["a", "b", "a"])]
    for vocab in ("ab", "abc"):
        for _ in range(700):
            pairs.append(
                (
                    [rng.choice(vocab) for _ in range(rng.randint(0, 8))],
                    [rng.choice(vocab) for _ in range(rng.randint(1, 8))],
                )
            )
    for _ in range(400):
        vocab = [f"t{i}" for i in range(rng.randint(2, 30))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        pairs.append((hyp, ref))
    for _ in range(200):
        ref = [rng.choice("abcdefgh") for _ in range(rng.randint(1, 10))]
        pairs.append((rng.sample(ref, len(ref)), ref))
    pairs.extend(_moved_blocks_pair(rng) for _ in range(4))
    for hyp, ref in pairs:
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_greedy(hyp, ref), (hyp, ref)


def test_ter_stops_after_a_shift_that_reaches_the_multiset_bound(monkeypatch):
    """No shift goes below the multiset bound, so a shift that reaches it
    ends the search: a pair whose one shift reaches the bound makes one
    ``_best_shift`` call, and ``ter`` still equals the greedy oracle on
    reorderings of the reference, with and without a substituted word."""
    best_shift, calls = align_metrics._best_shift, []

    def counted(current, columns, bound):
        calls.append(bound)
        return best_shift(current, columns, bound)

    monkeypatch.setattr(align_metrics, "_best_shift", counted)
    result = ter(["c", "d", "a", "b", "e", "f", "g", "h"], list("abcdefgh"))
    assert (result.edits, result.shifts, calls) == (1, 1, [0])
    rng = make_rng(54)
    at_bound = 0
    for _ in range(300):
        ref = [rng.choice("abcdef") for _ in range(rng.randint(1, 9))]
        hyp = rng.sample(ref, len(ref))
        if rng.random() < 0.5:
            hyp[rng.randrange(len(hyp))] = rng.choice("abcdefg")
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_greedy(hyp, ref), (hyp, ref)
        at_bound += result.shifts > 0 and result.edits - result.shifts == multiset_edit_bound(hyp, ref)
    assert at_bound > 100


def test_ter_bound_keeps_the_unpruned_answer():
    rng = make_rng(25)
    pairs = [_moved_blocks_pair(rng, (20, 60)) for _ in range(3)]
    pairs += [_moved_blocks_pair(rng, (20, 60), lambda r: r.choice("abc")) for _ in range(3)]
    pairs += [_probe_shaped_pair(rng, length) for length in (20, 40, 60)]
    for hyp, ref in pairs:
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_unpruned(hyp, ref), (hyp, ref)


def test_ter_chain_ends_keep_the_unpruned_answer():
    """Pairs whose best shifts start or end a block's chain of column states:
    a block moved to position 0 or to the very end, a block of
    ``MAX_SHIFT_LENGTH`` words, a move across the whole sequence, and
    3-word-vocabulary pairs, where nearly every block is a candidate."""
    rng = make_rng(27)
    pairs = []
    for _ in range(3):
        ref = [_pareto_word(rng) for _ in range(rng.randint(16, 24))]
        for length in (1, 3, MAX_SHIFT_LENGTH):
            start = rng.randrange(1, len(ref) - length)
            block, rest = ref[start : start + length], ref[:start] + ref[start + length :]
            pairs += [(block + rest, ref), (rest + block, ref)]
        for length in (2, MAX_SHIFT_LENGTH):
            pairs += [(ref[length:] + ref[:length], ref), (ref[-length:] + ref[:-length], ref)]
    for _ in range(8):
        ref = [rng.choice("abc") for _ in range(rng.randint(20, 30))]
        hyp = [rng.choice("abc") for _ in range(rng.randint(20, 30))]
        pairs += [(hyp, ref), (ref[5:] + ref[:5], ref)]
    for hyp, ref in pairs:
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_unpruned(hyp, ref), (hyp, ref)


def test_ter_on_long_runs_of_one_word_matches_the_oracles():
    """Lines made of long runs of one word against the greedy search on 6-12
    words and against the unpruned search on 20-60 words."""
    rng = make_rng(35)
    for _ in range(150):
        hyp, ref = _run_heavy_pair(rng, (6, 12), longest_run=6)
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_greedy(hyp, ref), (hyp, ref)
    for _ in range(6):
        hyp, ref = _run_heavy_pair(rng, (20, 60))
        result = ter(hyp, ref)
        assert (result.edits, result.shifts) == oracles.ter_unpruned(hyp, ref), (hyp, ref)


def _moves(current, start, length):
    """Every sentence built by moving ``current[start:start + length]`` to
    another position of the rest."""
    block, rest = current[start : start + length], current[:start] + current[start + length :]
    return {tuple(rest[:pos] + block + rest[pos:]) for pos in range(len(rest) + 1) if pos != start}


def _twin_lines():
    """1,500 seeded lines, half random 2-3-letter lines and half
    ``_run_heavy_pair`` lines, full of runs that sit right after their own
    word."""
    rng = make_rng(36)
    lines = []
    for trial in range(1500):
        if trial % 2:
            lines.append(_run_heavy_pair(rng, (5, 12), longest_run=5))
        else:
            vocab = "abc"[: rng.randint(2, 3)]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            lines.append((hyp, [rng.choice(vocab) for _ in range(rng.randint(1, 12))]))
    return lines


def test_skipped_moves_remake_an_earlier_moves_sentence():
    """The twin rule skips a block that is one word repeated, right after
    that same word: by brute force, every move of it builds a sentence that
    the same run from one word before builds by an earlier move (or
    ``current`` itself)."""
    lines = _twin_lines()
    twins = 0
    for current, _ in lines:
        for start in range(1, len(current)):
            for length in range(1, min(MAX_SHIFT_LENGTH, len(current) - start) + 1):
                if current[start - 1 : start + length] != [current[start]] * (length + 1):
                    break
                twins += 1
                earlier = _moves(current, start - 1, length) | {tuple(current)}
                assert _moves(current, start, length) <= earlier, (current, start, length)
    assert twins > len(lines)


def test_best_shift_passes_true_block_facts_to_the_twin_rules(monkeypatch):
    """``_best_shift`` applies the twin rule to the true block: ``ter``
    builds no chain for a run right after its own word, read from each
    chain's ``remainder`` (``keep`` and the block) in the round's frame,
    while it builds chains for other blocks of the same lines."""
    best_shift, prefix_states = align_metrics._best_shift, _ReferenceColumns.prefix_states
    round_ = {}
    chains = 0

    def recorded_round(current, columns, bound):
        round_.update(current=current, columns=columns)
        return best_shift(current, columns, bound)

    def checked_chain(self, tokens, state=None, limit=None, remainder=None):
        nonlocal chains
        if remainder is not None:
            chains += 1
            current, (keep, block) = round_["current"], remainder[:2]
            mirrored = self is not round_["columns"]
            start = len(current) - keep - len(block) if mirrored else keep
            assert current[start : start + len(block)] == (block[::-1] if mirrored else block)
            after_own_word = start and current[start - 1 : start + len(block)] == [block[0]] * (len(block) + 1)
            assert not after_own_word, (current, start, len(block))
        return prefix_states(self, tokens, state, limit, remainder)

    monkeypatch.setattr(align_metrics, "_best_shift", recorded_round)
    monkeypatch.setattr(_ReferenceColumns, "prefix_states", checked_chain)
    for hyp, ref in _twin_lines():
        ter(hyp, ref)
    assert chains


def _seed_lines():
    """Lines for the round seed: 2-3-word and Zipfian vocabularies, blocks
    moved to either end of the hypothesis and blocks that start or end the
    reference moved inward; and, apart, lines whose moved block's
    neighbours in the reference are missing from the hypothesis (no anchor
    word)."""
    rng = make_rng(37)
    lines = [_moved_blocks_pair(rng, (8, 14), lambda r: r.choice("abc"[: r.randint(2, 3)])) for _ in range(150)]
    lines += [_moved_blocks_pair(rng, (8, 16)) for _ in range(150)]
    for _ in range(100):
        ref = [_pareto_word(rng) for _ in range(rng.randint(8, 16))]
        length = rng.randint(2, 5)
        start = rng.choice([0, len(ref) - length, rng.randrange(1, len(ref) - length)])
        block, rest = ref[start : start + length], ref[:start] + ref[start + length :]
        pos = rng.choice([0, len(rest), rng.randint(0, len(rest))])
        lines.append((rest[:pos] + block + rest[pos:], ref))
    unanchored = []
    for trial in range(100):
        ref = [f"u{i}" for i in range(rng.randint(10, 16))]
        start = rng.randrange(1, len(ref) - 4)
        block, rest = ref[start : start + 3], ref[:start] + ref[start + 3 :]
        rest[start - 1 : start + 1] = ["x", "y"]  # the block's neighbours in the reference
        pos = len(rest) if trial % 2 else 0
        unanchored.append((rest[:pos] + block + rest[pos:], ref))
    return lines, unanchored


def _shift_sentences(current, ref):
    """Every sentence one shift of ``current`` builds, moving a block of at
    most ``MAX_SHIFT_LENGTH`` words that occurs in ``ref``."""
    sentences = set()
    for start in range(len(current)):
        for length in range(1, min(MAX_SHIFT_LENGTH, len(current) - start) + 1):
            block = current[start : start + length]
            if any(ref[j : j + length] == block for j in range(len(ref))):
                sentences |= _moves(current, start, length)
    return sentences


def _probe_sentences(current, ref):
    """The sentences the probes feed, in order, by brute force: of
    ``current``'s left-to-right tiling into the longest blocks of 1 to
    ``MAX_SHIFT_LENGTH`` words that occur in ``ref``, each block moved to
    start at its first occurrence ``ref[j:]``, or to the end when
    ``current`` is too short for that, unless that leaves ``current`` as it
    is; the blocks farthest from their first occurrence first, ties left to
    right."""
    n, start, tiles = len(current), 0, []
    while start < n:
        occurrences = [
            [j for j in range(len(ref)) if ref[j : j + length] == current[start : start + length]]
            for length in range(1, min(MAX_SHIFT_LENGTH, n - start) + 1)
        ]
        longest = sum(map(bool, occurrences))  # an occurring block's prefixes occur too
        if longest:
            tiles.append((start, longest, occurrences[longest - 1][0]))
        start += longest or 1
    tiles.sort(key=lambda tile: -abs(tile[2] - tile[0]))
    sentences = []
    for start, length, j in tiles:
        block, rest = current[start : start + length], current[:start] + current[start + length :]
        pos = min(j, n - length)
        if pos != start:
            sentences.append(rest[:pos] + block + rest[pos:])
    return sentences


def test_seed_scores_one_real_shift():
    """The probes feed the sentences ``_probe_sentences`` builds, in order,
    up to the first whose distance is the multiset bound, which is returned;
    with none there, every probe is fed. Each probe is one shift of a block
    that occurs in the reference and has at most ``MAX_SHIFT_LENGTH`` words.
    Each is fed with the running best: the round's distance, lowered to one
    above each probe distance below it; a score below its feed's limit is
    the distance by ``oracles.lev``. Without a hit, the last running best is
    returned. Lines already at the bound run no round and are skipped. Lines
    whose moved block has no neighbour of its reference occurrence in the
    hypothesis are seeded too."""
    lines, unanchored = _seed_lines()
    fired = fired_unanchored = hits = 0
    for current, ref in lines + unanchored:
        columns = _ReferenceColumns(ref)
        prefix = columns.prefix_states(current)
        limit, bound = prefix[-1][2], multiset_edit_bound(current, ref)
        if limit == bound:  # no shift lowers the distance: the round feeds no probe
            continue
        fed = []

        def recorded(state, tokens, feed=columns.feed, **kwargs):
            after = feed(state, tokens, **kwargs)
            fed.append((current[: len(current) - len(tokens)] + tokens, kwargs["limit"], after[2]))
            return after

        columns.feed = recorded
        distance, probed = align_metrics._seed_distance(current, columns, prefix, bound, limit)
        probes = _probe_sentences(current, ref)
        sentences = [sentence for sentence, _, _ in fed]
        assert sentences == probes[: len(fed)], (current, ref)
        at_bound = [oracles.lev(sentence, ref) == bound for sentence in probes]
        assert at_bound[: len(fed) - 1] == [False] * (len(fed) - 1), (current, ref)
        if probed is None:
            assert sentences == probes and not any(at_bound), (current, ref)
        else:
            hits += 1
            assert (distance, probed) == (bound, sentences[-1]) and at_bound[len(fed) - 1], (current, ref)
        shifts, best = _shift_sentences(current, ref), limit
        for sentence, fed_limit, score in fed:
            assert tuple(sentence) in shifts, (current, ref)
            assert fed_limit == best, (current, ref)
            exact = oracles.lev(sentence, ref)
            if score < fed_limit:
                assert score == exact, (current, ref)
            best = min(best, exact + 1)
        if probed is None:
            assert distance == best, (current, ref)
        assert distance <= limit
        fired += distance < limit
        fired_unanchored += (current, ref) in unanchored and distance < limit
    assert fired > len(lines) // 2
    assert fired_unanchored == len(unanchored)
    assert len(lines) // 4 < hits < len(lines + unanchored)


def test_probe_at_the_bound_is_found_below_the_seeds_old_limit():
    """A probe whose distance is the multiset bound ends the round, also when
    the bound is the distance less one: each probe is fed with a limit above
    the bound, as a feed stopped at the bound would score the limit, not
    telling a shift at the bound from one above it. The first and third
    hits are the farthest probe; the second is a 1-word probe, tied with
    the longer block's and left of it. Without a hit, the round starts at
    one above the least probe: ``b d c z c``, at distance 4 from ``c b c c
    d``, has no block of two words there and four probes that score 2, 2, 3
    and 3, so its loop starts at 3."""
    cases = [  # (current, ref, distance less bound, the probes' answer, the round's answer)
        (["b", "c", "d", "x"], list("abcd"), 1, (1, ["x", "b", "c", "d"]), None),
        (list("bacdefgh"), list("abcdefgh"), 2, (0, list("abcdefgh")), None),
        (["c", "d", "e", "a", "b"], list("abcdf"), 4, (1, ["a", "b", "c", "d", "e"]), None),
        (list("bdczc"), list("cbccd"), 3, (3, None), (2, list("bczcd"))),
    ]
    for current, ref, gap, probed, picked in cases:
        columns = _ReferenceColumns(ref)
        prefix = columns.prefix_states(current)
        distance, bound = prefix[-1][2], multiset_edit_bound(current, ref)
        assert distance - bound == gap
        assert align_metrics._seed_distance(current, columns, prefix, bound, distance) == probed
        assert align_metrics._best_shift(current, columns, bound) == (picked or probed)


def _probes_off(current, columns, prefix, bound, best):
    """``_seed_distance`` finding nothing: no probe at the bound or below ``best`` less one."""
    return best, None


def test_probe_hit_builds_no_bound_tables(monkeypatch):
    """A round that a probe ends builds neither bound table: the adjacent
    block swap calls ``_prefix_bounds`` zero times, and twice with the
    probes made to find nothing."""
    prefix_bounds, calls = align_metrics._prefix_bounds, []

    def counted(*args):
        calls.append(args)
        return prefix_bounds(*args)

    monkeypatch.setattr(align_metrics, "_prefix_bounds", counted)
    hyp, ref = ["c", "d", "a", "b", "e", "f", "g", "h"], list("abcdefgh")
    result = ter(hyp, ref)
    assert (result.edits, result.shifts, len(calls)) == (1, 1, 0)
    monkeypatch.setattr(align_metrics, "_seed_distance", _probes_off)
    result = ter(hyp, ref)
    assert (result.edits, result.shifts, len(calls)) == (1, 1, 2)


_PAIR_FAMILIES = {
    "moved-blocks": lambda rng: _moved_blocks_pair(rng, (16, 40)),
    "probe-shaped": lambda rng: _probe_shaped_pair(rng, rng.randint(20, 60)),
    "run-heavy": lambda rng: _run_heavy_pair(rng, (12, 40)),
}


@pytest.mark.parametrize("family", _PAIR_FAMILIES.values(), ids=_PAIR_FAMILIES.keys())
def test_ter_without_the_seed_keeps_every_answer(monkeypatch, family):
    """The probes only end a last round early and lower the round's first
    limit, so ``ter`` gives the same ``(edits, shifts)`` with the probes
    made to find nothing, as it does when none is at the bound or below the
    distance less one."""
    rng = make_rng(38)
    pairs = [family(rng) for _ in range(40)]
    seeded = [ter(hyp, ref) for hyp, ref in pairs]
    monkeypatch.setattr(align_metrics, "_seed_distance", _probes_off)
    assert [ter(hyp, ref) for hyp, ref in pairs] == seeded


def _short_random_pair(rng):
    return tuple([rng.choice("abcd") for _ in range(rng.randint(1, 12))] for _ in range(2))


@pytest.mark.parametrize(
    "family, count",
    [(family, 40) for family in _PAIR_FAMILIES.values()] + [(_short_random_pair, 300)],
    ids=[*_PAIR_FAMILIES, "random-short"],
)
def test_ter_without_probe_hits_keeps_every_answer(monkeypatch, family, count):
    """Whichever shift at the multiset bound a last round applies, ``ter``
    counts the same: with every probe hit turned off (a bound of -1, which
    no probe reaches, while the probes still lower the limit) the round
    runs its full search and gives the same ``(edits, shifts)``. Hits do
    end rounds on these pairs."""
    rng = make_rng(56)
    pairs = [family(rng) for _ in range(count)]
    seed_distance, hits = align_metrics._seed_distance, []

    def counted(current, columns, prefix, bound, best):
        found = seed_distance(current, columns, prefix, bound, best)
        hits.append(found[1] is not None)
        return found

    monkeypatch.setattr(align_metrics, "_seed_distance", counted)
    probed = [ter(hyp, ref) for hyp, ref in pairs]
    assert any(hits)
    monkeypatch.setattr(
        align_metrics,
        "_seed_distance",
        lambda current, columns, prefix, bound, best: seed_distance(current, columns, prefix, -1, best),
    )
    assert [ter(hyp, ref) for hyp, ref in pairs] == probed


def test_seed_below_every_shift_is_an_internal_error(monkeypatch):
    """A seeded start below the distance is one above the distance of a shift
    the round also scores, so every seeded round picks a shift below it; a
    start that no shift goes below raises instead of returning a wrong edit
    count."""
    monkeypatch.setattr(align_metrics, "_seed_distance", lambda current, columns, prefix, bound, best: (-1, None))
    with pytest.raises(RuntimeError, match="seed"):
        ter(["c", "d", "e", "a", "b"], ["a", "b", "c", "d", "f"])


def test_ter_pins_pairs_too_long_for_the_oracles():
    """(edits, shifts) recorded before feeds stopped at a limit, on the pairs
    where they stop most: re-spoken sentences of 60-100 words with moved
    blocks, probe-shaped pairs of 80 and 100 words, 60-word pairs over a
    3-word vocabulary, and 60-100-word pairs of long runs of one word; and,
    recorded before chains stopped at their remainder's bound, two
    probe-shaped pairs of 150 words; and, recorded before each round was
    seeded with one shift, two probe-shaped pairs of 200 words. The seed is
    fixed, not ``make_rng``'s, because the answers are pinned."""
    rng = random.Random("long TER pairs")
    pairs = [_moved_blocks_pair(rng, (60, 100)) for _ in range(4)]
    pairs += [_probe_shaped_pair(rng, length) for length in (80, 100)]
    pairs += [_moved_blocks_pair(rng, (60, 60), lambda r: r.choice("abc")) for _ in range(2)]
    pairs += [_run_heavy_pair(rng, (60, 100)) for _ in range(4)]
    pairs += [_probe_shaped_pair(rng, 150) for _ in range(2)]
    pairs += [_probe_shaped_pair(rng, 200) for _ in range(2)]
    results = [ter(hyp, ref) for hyp, ref in pairs]
    expected = [(2, 1), (1, 1), (2, 1), (4, 2), (11, 2), (12, 2), (2, 2), (4, 1), (3, 3), (2, 1), (2, 1), (3, 1)]
    expected += [(17, 2), (17, 2), (22, 2), (22, 2)]
    assert [(result.edits, result.shifts) for result in results] == expected


def test_ter_pins_independent_three_word_lines():
    """(edits, shifts) recorded before the round seed lost its anchor search,
    on four pairs of independent lines of 30-45 tokens over a 3-word
    vocabulary, where nearly every block occurs in the reference and the
    twin rule and the feed cut-off prune most. The seed is fixed, not
    ``make_rng``'s, because the answers are pinned."""
    rng = random.Random("independent 3-word TER lines")
    results = []
    for _ in range(4):
        hyp = [rng.choice("abc") for _ in range(rng.randint(30, 45))]
        ref = [rng.choice("abc") for _ in range(rng.randint(30, 45))]
        results.append(ter(hyp, ref))
    assert [(result.edits, result.shifts) for result in results] == [(9, 6), (10, 6), (13, 3), (12, 5)]


def test_shift_bounds_never_exceed_a_candidate_distance():
    rng = make_rng(26)
    for _ in range(300):
        vocab = "abcd"[: rng.randint(2, 4)]
        current = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        columns = _ReferenceColumns(ref)
        head = _prefix_bounds(columns, current, columns.prefix_states(current))[0]
        reverse = current[::-1]
        tail = _prefix_bounds(columns.reversed, reverse, columns.reversed.prefix_states(reverse))[0][::-1]
        n = len(current)
        # Keeping all of current leaves its own distance; keeping none, the multiset bound.
        assert head[n] == tail[0] == oracles.lev(current, ref)
        assert head[0] == tail[n] == oracles.multiset_bound(current, ref)
        for start in range(n):
            for length in range(1, n - start + 1):
                block = current[start : start + length]
                remainder = current[:start] + current[start + length :]
                for pos in range(len(remainder) + 1):
                    distance = oracles.lev(remainder[:pos] + block + remainder[pos:], ref)
                    assert head[min(start, pos)] <= distance, (current, ref, start, length, pos)
                    assert tail[max(start, pos) + length] <= distance, (current, ref, start, length, pos)


def _counted_mask(words, ref):
    """Bit ``j`` set when ``ref[j]`` is among the last ``c`` occurrences of
    its word in ``ref``, ``c`` its count in ``words``."""
    return sum(1 << j for j in range(len(ref)) if ref[j:].count(ref[j]) <= words.count(ref[j]))


def test_prefix_bounds_equal_the_full_scan():
    """The banded bound tables equal ``oracles.prefix_bounds_scan`` exactly,
    in both frames, and the masks and counts kept for the chains match their
    definitions. Pairs: 1-4-letter vocabularies, references shorter and
    longer than the hypothesis, empty hypotheses, and long runs of one word."""
    rng = make_rng(50)
    pairs = [([], ["a"]), ([], ["a", "b", "a"]), (["a"] * 12, ["a"] * 3), (["b"] * 3, ["a"] * 12 + ["b"])]
    for trial in range(500):
        vocab = "abcd"[: rng.randint(1, 4)]
        short, long = rng.randint(0, 9), rng.randint(10, 30)
        hyp_len, ref_len = (short, long) if trial % 2 else (long, max(short, 1))
        if trial % 10 == 0:
            hyp_len = 0
        pairs.append(([rng.choice(vocab) for _ in range(hyp_len)], [rng.choice(vocab) for _ in range(ref_len)]))
    pairs += [_run_heavy_pair(rng, (6, 40), longest_run=rng.randint(4, 16)) for _ in range(100)]
    for hyp, ref in pairs:
        for columns, tokens in ((_ReferenceColumns(ref), hyp), (_ReferenceColumns(ref).reversed, hyp[::-1])):
            states = columns.prefix_states(tokens)
            bounds, counted, remaining = _prefix_bounds(columns, tokens, states)
            assert bounds == oracles.prefix_bounds_scan(columns, tokens, states), (hyp, ref)
            assert counted == [_counted_mask(tokens[k:], columns.ref) for k in range(len(tokens) + 1)]
            assert remaining == [tokens[k:].count(tokens[k]) for k in range(len(tokens))]


def test_chain_bounds_never_exceed_a_later_candidate_distance():
    """For every block, both directions and every chain position ``p``, the
    bound ``_least_cut`` gives the chain state and the words not yet fed
    (the block among them) equals its definition over every reference cut,
    and is at most the distance of every candidate at ``p`` or later. A
    chain fed with that remainder and a limit stops just before the first
    position whose bound reaches the limit."""
    rng = make_rng(51)
    for _ in range(200):
        vocab = "abcd"[: rng.randint(2, 4)]
        current = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        # A move left is a move right of the reversed sentence against the reversed reference.
        for seq, frame_ref in ((current, ref), (current[::-1], ref[::-1])):
            columns = _ReferenceColumns(frame_ref)
            states = columns.prefix_states(seq)
            _, counted, remaining = _prefix_bounds(columns, seq, states)
            n, m = len(seq), len(frame_ref)
            for keep in range(n):
                for block_end in range(keep + 1, n + 1):
                    block, after = seq[keep:block_end], seq[block_end:]
                    bounds = []
                    for p, (pv, mv, score) in enumerate(columns.prefix_states(after, states[keep])):
                        kept, rest = seq[:keep] + after[:p], block + after[p:]
                        bound = _least_cut(pv, mv, score, _counted_mask(rest, frame_ref), len(kept), len(rest), m, n + m + 1)
                        assert bound == min(
                            oracles.lev(kept, frame_ref[:j]) + oracles.multiset_bound(rest, frame_ref[j:])
                            for j in range(m + 1)
                        ), (seq, frame_ref, keep, block_end, p)
                        for q in range(p, len(after) + 1):
                            candidate = seq[:keep] + after[:q] + block + after[q:]
                            assert bound <= oracles.lev(candidate, frame_ref), (seq, frame_ref, keep, block_end, q)
                        bounds.append(bound)
                    remainder = (keep, block, counted[keep], remaining[block_end:])
                    for limit in range(1, n + m + 1):
                        chain = columns.prefix_states(after, states[keep], limit, remainder)
                        expected = next((p for p in range(1, len(after) + 1) if bounds[p] >= limit), len(after) + 1)
                        assert len(chain) == expected, (seq, frame_ref, keep, block_end, limit)


def test_multiset_edit_bound_matches_oracle():
    rng = make_rng(32)
    for trial in range(2000):
        vocab = "abcdef"[: rng.randint(1, 6)]
        a = [] if trial % 10 == 0 else [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
        b = [] if trial % 10 == 1 else [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
        assert multiset_edit_bound(a, b) == oracles.multiset_bound(a, b), (a, b)


# --- METEOR alignment -------------------------------------------------------------


def test_align_identity_one_chunk():
    seq = ["the", "cat", "sat"]
    alignment = meteor_align(seq, seq)
    assert alignment.matches == ((0, 0, "exact"), (1, 1, "exact"), (2, 2, "exact"))
    assert alignment.chunks == 1


def test_align_swapped_two_chunks():
    alignment = meteor_align(["a", "b"], ["b", "a"])
    assert alignment.matched_unigrams == 2
    assert alignment.chunks == 2


def test_align_stem_stage():
    stems = LanguageResources(
        stems={
            "dogs": frozenset({"dog"}),
            "dog": frozenset({"dog"}),
            "run": frozenset({"run"}),
            "runs": frozenset({"run"}),
        }
    )
    alignment = meteor_align(["dogs", "run"], ["dog", "runs"], stems)
    assert [stage for _, _, stage in alignment.matches] == ["stem", "stem"]
    assert alignment.chunks == 1


def test_align_stage_order_exact_first():
    alignment = meteor_align(["cat"], ["cat"], SYN_CAT_DOG)
    assert alignment.matches[0][2] == "exact"


def test_align_multi_stem_counts_once():
    resources = LanguageResources(stems={"flying": frozenset({"fly", "flight"})})
    alignment = meteor_align(["flying"], ["fly", "flight"], resources)
    assert alignment.matched_unigrams == 1


def test_align_chunks_never_exceed_matches():
    rng = make_rng(24)
    for _ in range(100):
        hyp = random_corpus(rng, max_segments=1, max_tokens=10)[0]
        ref = random_corpus(rng, max_segments=1, max_tokens=10)[0]
        alignment = meteor_align(hyp, ref)
        assert alignment.chunks <= alignment.matched_unigrams
        hyp_sides = [h for h, _, _ in alignment.matches]
        ref_sides = [r for _, r, _ in alignment.matches]
        assert len(set(hyp_sides)) == len(hyp_sides)
        assert len(set(ref_sides)) == len(ref_sides)


def test_align_growing_synonyms_never_loses_matches():
    rng = make_rng(25)
    vocab = ("the", "cat", "dog", "sat", "mat")
    for _ in range(50):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        before = meteor_align(hyp, ref).matched_unigrams
        after = meteor_align(hyp, ref, SYN_CAT_DOG).matched_unigrams
        assert after >= before


def _symmetric_synonyms(pairs):
    synonyms: dict[str, set[str]] = {}
    for a, b in pairs:
        synonyms.setdefault(a, set()).add(b)
        synonyms.setdefault(b, set()).add(a)
    return {w: frozenset(s) for w, s in synonyms.items()}


def _random_resources(rng, vocab):
    """Stems from a three-stem pool for about half the words, and random synonym pairs."""
    stems = {w: frozenset(rng.sample("xyz", rng.randint(1, 2))) for w in vocab if rng.random() < 0.5}
    return stems, _symmetric_synonyms(p for p in itertools.combinations(vocab, 2) if rng.random() < 0.3)


def test_align_matches_brute_force_stage_oracle():
    rng = make_rng(28)
    words = ("a", "b", "c", "d", "e", "f")
    for trial in range(1500):
        vocab = words[: rng.randint(1, 6)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 7))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 7))]
        stems, synonyms = _random_resources(rng, vocab) if trial % 3 else ({}, {})
        resources = LanguageResources(synonyms=synonyms, stems=stems)
        expected = oracles.meteor_align_brute(hyp, ref, stems, synonyms)
        assert list(meteor_align(hyp, ref, resources).matches) == expected, (hyp, ref, stems, synonyms)


def _cut_short_synonym_pair():
    """A synonym stage whose crossing search runs out of nodes before it
    reaches a full leaf; taking each hyp word's first free candidate would
    match 21 words."""
    pairs = [("x", "p"), ("x", "q"), ("z", "p")]
    pairs += [(f"y{j}", f"{side}{j}") for j in range(20) for side in "ab"]
    resources = LanguageResources(synonyms=_symmetric_synonyms(pairs))
    hyp = ["x"] + [f"y{j}" for j in range(20)] + ["z"]
    ref = ["p", "q"] + [f"{side}{j}" for j in range(20) for side in "ab"]
    return hyp, ref, resources


def test_align_cut_short_stage_keeps_a_maximum_matching():
    hyp, ref, resources = _cut_short_synonym_pair()
    assert meteor_align(hyp, ref, resources).matched_unigrams == 22


def test_align_skips_the_later_stages_once_a_side_is_fully_matched(monkeypatch):
    """When the exact stage matches every word of the shorter side, no stem
    or synonym stage can add a match: neither runs, the alignment is the
    exact stage's, and it equals the brute-force stage oracle."""
    best_stage_matching, stages = align_metrics._best_stage_matching, []

    def counted(candidates, prior):
        stages.append(candidates)
        return best_stage_matching(candidates, prior)

    monkeypatch.setattr(align_metrics, "_best_stage_matching", counted)
    rng = make_rng(55)
    words = ("a", "b", "c", "d", "e", "f")
    for _ in range(400):
        vocab = words[: rng.randint(1, 6)]
        longer = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        shorter = rng.sample(longer, rng.randint(0, len(longer)))
        hyp, ref = (shorter, longer) if rng.random() < 0.5 else (longer, shorter)
        stems, synonyms = _random_resources(rng, vocab)
        resources = LanguageResources(synonyms=synonyms, stems=stems)
        alignment = meteor_align(hyp, ref, resources)
        assert list(alignment.matches) == oracles.meteor_align_brute(hyp, ref, stems, synonyms), (hyp, ref)
        assert alignment == meteor_align(hyp, ref)
    assert stages == []


def test_align_cut_short_stage_is_not_exhaustive():
    hyp, ref, resources = _cut_short_synonym_pair()
    assert not meteor_align(hyp, ref, resources).exhaustive
    assert meteor_align(hyp, ref).exhaustive


def _in_order_choices(hyp, ref):
    """How many in-order exact-stage matchings of the largest size there are."""
    return math.prod(
        math.comb(max(hyp.count(w), ref.count(w)), min(hyp.count(w), ref.count(w)))
        for w in set(hyp) & set(ref)
    )


def test_exact_stage_matches_choice_enumeration():
    rng = make_rng(29)
    words = ("a", "b", "c", "d")
    checked = 0
    while checked < 150:
        vocab = words[: rng.randint(2, 4)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(12, 22))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(12, 22))]
        if _in_order_choices(hyp, ref) > 5_000:
            continue
        checked += 1
        expected = [(h, r, "exact") for h, r in oracles.meteor_exact_stage_enum(hyp, ref)]
        alignment = meteor_align(hyp, ref)
        assert list(alignment.matches) == expected, (hyp, ref)
        assert alignment.exhaustive


def test_exact_stage_at_subtitle_length_matches_choice_enumeration():
    # Lines of distinct words take the direct matching; a copy of one shared
    # word sends the pair through the search.
    rng = make_rng(33)
    words = [f"w{i}" for i in range(40)]
    repeated_shared = Counter()
    for trial in range(600):
        hyp = rng.sample(words, rng.randint(8, 30))
        ref = rng.sample(words, rng.randint(8, 30))
        shared = sorted(set(hyp) & set(ref))
        if trial % 3 == 0 and shared:
            side = rng.choice((hyp, ref))
            side.insert(rng.randint(0, len(side)), rng.choice(shared))
        repeated_shared[sum(hyp.count(w) + ref.count(w) > 2 for w in shared)] += 1
        expected = [(h, r, "exact") for h, r in oracles.meteor_exact_stage_enum(hyp, ref)]
        alignment = meteor_align(hyp, ref)
        assert list(alignment.matches) == expected, (hyp, ref)
        assert alignment.exhaustive
    assert repeated_shared[0] > 300 and repeated_shared[1] > 150


def test_exact_stage_pins_cut_short_pair():
    # A depth-first search over every matching ran out of nodes on this pair
    # and kept 19 and 13 crossings.
    hyp = "a a a a b a c a a c c a c a c a a a a".split()
    refs = ["a a a c a a c c a a a c a a c a b".split(), "a a a c a a a c a c c a a b c a b".split()]
    crossings = []
    for ref in refs:
        alignment = meteor_align(hyp, ref)
        assert alignment.exhaustive
        crossings.append(oracles._crossings([(h, r) for h, r, _ in alignment.matches], []))
    assert crossings == [18, 12]
    scores = [meteor(hyp, ref).score for ref in refs]
    assert scores == [pytest.approx(0.6104651162790699, abs=1e-12)] * 2
    assert round(max(scores) * 100, 6) == 61.046512


def test_align_long_stem_stage_matches_every_word():
    # One candidate per hyp word: a search that recursed once per candidate
    # would overflow Python's recursion limit.
    n = 1_100
    stems = {w: frozenset({f"s{i}"}) for i in range(n) for w in (f"w{i}", f"v{i}")}
    hyp = [f"w{i}" for i in range(n)]
    ref = [f"v{i}" for i in range(n)]
    alignment = meteor_align(hyp, ref, LanguageResources(stems=stems))
    assert alignment.matched_unigrams == n
    assert {stage for _, _, stage in alignment.matches} == {"stem"}


# --- METEOR score ------------------------------------------------------------------


def test_meteor_identity_four_tokens():
    score = meteor(["w", "x", "y", "z"], ["w", "x", "y", "z"])
    assert score.precision == 1.0
    assert score.recall == 1.0
    assert score.fmean == 1.0
    assert score.penalty == pytest.approx(0.125)
    assert score.score == pytest.approx(0.875)


def test_meteor_disjoint_is_zero():
    assert meteor(["a", "b"], ["x", "y"]).score == 0.0


def test_meteor_hand_example():
    score = meteor(["a", "b", "c", "d"], ["a", "b", "x", "d"])
    assert score.precision == pytest.approx(0.75)
    assert score.recall == pytest.approx(0.75)
    assert score.fmean == pytest.approx(0.75)
    assert score.alignment.chunks == 2
    assert score.penalty == pytest.approx(0.5 * 2 / 3)
    assert score.score == pytest.approx(0.5)


def test_meteor_penalty_exponent():
    score = meteor(["a", "b", "c", "d"], ["a", "b", "x", "d"], penalty_exponent=3.0)
    assert score.penalty == pytest.approx(0.5 * (2 / 3) ** 3)
    # the range --meteor-penalty-exp states: a finite number > 0
    for exponent in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            meteor(["a", "b"], ["a", "b"], penalty_exponent=exponent)


def test_meteor_function_word_weighting():
    resources = LanguageResources(function_words=frozenset({"the"}))
    score = meteor(["the", "cat"], ["the", "dog"], resources, function_word_weight=0.2)
    p = 0.2 / 1.2
    assert score.precision == pytest.approx(p)
    assert score.recall == pytest.approx(p)
    expected_fmean = 10 * p * p / (p + 9 * p)
    assert score.fmean == pytest.approx(expected_fmean)
    assert score.score == pytest.approx(expected_fmean * 0.5)


def test_meteor_without_function_words_equals_function_words_of_weight_one():
    rng = make_rng(34)
    words = ("a", "b", "c", "d", "e", "f")
    for _ in range(500):
        vocab = words[: rng.randint(1, 6)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 14))]
        stems, synonyms = _random_resources(rng, vocab)
        function_words = frozenset(rng.sample(vocab, rng.randint(1, len(vocab))))
        unit = meteor(hyp, ref, LanguageResources(synonyms, stems))
        listed = meteor(hyp, ref, LanguageResources(synonyms, stems, function_words), function_word_weight=1.0)
        assert unit.alignment == listed.alignment
        for field in ("precision", "recall", "fmean", "score"):
            assert getattr(unit, field) == getattr(listed, field), (hyp, ref, field)


def test_meteor_bounded():
    rng = make_rng(26)
    for _ in range(100):
        hyp = random_corpus(rng, max_segments=1, max_tokens=12)[0]
        ref = random_corpus(rng, max_segments=1, max_tokens=12)[0]
        assert 0.0 <= meteor(hyp, ref).score <= 1.0


def test_meteor_pl_synonyms_strictly_increase_score():
    hyp = ["the", "cat", "sat"]
    ref = ["the", "dog", "sat"]
    bare = meteor(hyp, ref).score
    loaded = meteor(hyp, ref, SYN_CAT_DOG).score
    assert loaded > bare


def test_meteor_pl_identity_matches_meteor():
    seq = ["ala", "ma", "kota"]
    assert meteor(seq, seq, SYN_CAT_DOG).score == meteor(seq, seq).score


def _meteor_pair_from_one_alignment(hyp, ref, resources, exponent):
    """METEOR and METEOR-PL as ``respeval score`` computes them: the second
    extends the first's alignment."""
    plain = meteor(hyp, ref, penalty_exponent=exponent)
    return plain, meteor(hyp, ref, resources, exponent, exact=plain.alignment)


def test_meteor_pl_from_plain_alignment_equals_separate_calls(monkeypatch):
    rng = make_rng(31)
    words = ("a", "b", "c", "d", "e", "f")
    cut_short = {False: 0, True: 0}
    for cap in (30, 200, METEOR_NODE_CAP):
        monkeypatch.setattr(align_metrics, "METEOR_NODE_CAP", cap)
        for trial in range(300):
            vocab = words[: rng.randint(1, 6)]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
            stems, synonyms = _random_resources(rng, vocab)
            function_words = frozenset(rng.sample(vocab, rng.randint(0, len(vocab))))
            resources = LanguageResources(synonyms, stems, function_words)
            exponent = rng.choice((1.0, 2.0))
            plain, pl = _meteor_pair_from_one_alignment(hyp, ref, resources, exponent)
            assert plain == meteor(hyp, ref, penalty_exponent=exponent)
            assert pl == meteor(hyp, ref, resources, exponent)
            cut_short[plain.alignment.exhaustive] += 1
            cut_short[pl.alignment.exhaustive] += 1
    assert min(cut_short.values()) > 50


def test_meteor_pl_from_plain_alignment_keeps_each_stage_cut_off():
    # The synonym stage of this pair stops at the node cap, its exact stage does not.
    hyp, ref, resources = _cut_short_synonym_pair()
    plain, pl = _meteor_pair_from_one_alignment(hyp, ref, resources, 1.0)
    assert (plain, pl) == (meteor(hyp, ref), meteor(hyp, ref, resources))
    assert plain.alignment.exhaustive and not pl.alignment.exhaustive
    # The exact stage of this pair stops at the node cap: both are cut short.
    hyp = "a b c c a a b a c b b a c b a a b b a a a a b a a b c b b c a a a".split()
    ref = "b a b c a b c c b c a a a b c b c c c c c c a a a b".split()
    resources = LanguageResources(stems={"a": frozenset({"b"}), "b": frozenset({"b"})})
    plain, pl = _meteor_pair_from_one_alignment(hyp, ref, resources, 1.0)
    assert (plain, pl) == (meteor(hyp, ref), meteor(hyp, ref, resources))
    assert not plain.alignment.exhaustive and not pl.alignment.exhaustive


PINNED_ALIGNMENTS = Path(__file__).parent / "data" / "meteor_align_pinned.txt"


def _pinned_alignment_cases():
    """Five hundred pairs of 0-40 tokens over 1-6 letters, with random stems
    and synonyms. The seed is fixed, not ``make_rng``'s, because the answers
    are pinned."""
    rng = random.Random("pinned METEOR alignments")
    words = ("a", "b", "c", "d", "e", "f")
    for _ in range(500):
        vocab = words[: rng.randint(1, 6)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
        stems, synonyms = _random_resources(rng, vocab)
        yield hyp, ref, LanguageResources(synonyms=synonyms, stems=stems)


def _alignment_line(alignment):
    """The chunks, ``exhaustive`` as 1 or 0, then each match as
    ``h.r.xx``, with the first two letters of its stage."""
    matches = (f"{h}.{r}.{stage[:2]}" for h, r, stage in alignment.matches)
    return " ".join((str(alignment.chunks), str(int(alignment.exhaustive)), *matches))


def test_meteor_align_keeps_its_recorded_capped_alignments(monkeypatch):
    """Every alignment at node caps 30, 200 and 2,000, recorded before the
    searches linked each state to its parent's matches: the searches visit
    the same nodes in the same order, also where the cap cuts them short."""
    cases = list(_pinned_alignment_cases())
    got = []
    for cap in (30, 200, 2_000):
        monkeypatch.setattr(align_metrics, "METEOR_NODE_CAP", cap)
        got += [_alignment_line(meteor_align(hyp, ref, resources)) for hyp, ref, resources in cases]
    assert got == PINNED_ALIGNMENTS.read_text(encoding="utf-8").splitlines()
    cut_short = [line.split()[1] == "0" for line in got]
    assert sum(cut_short[:500]) > sum(cut_short[500:1000]) > sum(cut_short[1000:]) > 100


@pytest.mark.parametrize(
    "tokens, expected, peak_mib",
    [(2000, (1830, 1207, False), 16), (4000, (3603, 2651, False), 14)],
    ids=["2000-tokens", "4000-tokens"],
)
def test_meteor_align_memory_on_a_long_line(monkeypatch, tokens, expected, peak_mib):
    # One line of ordinary text, words weighted 1/rank, with 10 % of them
    # deleted, as a re-speaker omits words. A state that copies every match so
    # far peaks at 65.7 MiB at 2,000 tokens. One link a state, each pushed
    # sibling with its own n-bit ``used``, peaks at 4.3 and 18.9 MiB at 2,000
    # and 4,000 tokens; siblings that share their parent's ``used`` peak at 3.0
    # and 10.4 MiB (Python 3.11).
    monkeypatch.setattr(align_metrics, "METEOR_NODE_CAP", 2_000)
    rng = random.Random(5)
    ref = rng.choices([f"w{i}" for i in range(2000)], [1 / rank for rank in range(1, 2001)], k=tokens)
    hyp = [tok for tok in ref if rng.random() >= 0.1]
    tracemalloc.start()
    try:
        alignment = meteor_align(hyp, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (alignment.matched_unigrams, alignment.chunks, alignment.exhaustive) == expected
    assert peak < peak_mib * 2**20


# --- rank statistics ----------------------------------------------------------------


def test_kendall_examples():
    assert kendall_nkt([1, 2, 3, 4]) == 1.0
    assert kendall_nkt([4, 3, 2, 1]) == 0.0
    assert kendall_nkt([1, 2, 4, 3]) == pytest.approx(5 / 6)


def test_spearman_examples():
    assert spearman_nsr([1, 2, 3]) == 1.0
    assert spearman_nsr([3, 2, 1]) == 0.0
    assert spearman_nsr([1, 3, 2, 4]) == pytest.approx(0.9)


def test_rank_stats_undefined_inputs():
    for stat in (kendall_nkt, spearman_nsr):
        with pytest.raises(RespevalInputError, match="need >= 2 positions, got 1"):
            stat([1])
        with pytest.raises(RespevalInputError, match="positions must be distinct"):
            stat([2, 2])


def test_rank_stats_all_permutations_match_brute_force():
    for n in range(2, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            assert kendall_nkt(perm) == pytest.approx(oracles.kendall_nkt_brute(perm), abs=1e-12)
            assert spearman_nsr(perm) == pytest.approx(oracles.spearman_nsr_brute(perm), abs=1e-12)
            assert 0.0 <= kendall_nkt(perm) <= 1.0
            assert 0.0 <= spearman_nsr(perm) <= 1.0


def test_kendall_matches_brute_force_on_long_lists():
    # Distinct positions with gaps, as unaligned words leave them; the counts
    # are integers, so the floats agree exactly.
    rng = make_rng(53)
    for size in [2, 3, 2000] + [rng.randint(2, 2000) for _ in range(8)]:
        positions = rng.sample(range(3 * size), size)
        assert kendall_nkt(positions) == oracles.kendall_nkt_brute(positions), size


def test_spearman_handles_non_contiguous_positions():
    # rank-transformed: gaps in reference positions do not matter
    assert spearman_nsr([0, 5, 9]) == spearman_nsr([0, 1, 2])


# --- RIBES ----------------------------------------------------------------------------


def test_ribes_identity():
    for alpha in (0.1, 0.25, 0.9):
        assert ribes(["just", "one"], ["just", "one"], alpha=alpha).score == 1.0
    assert ribes(["solo"], ["solo"]).score == 1.0
    assert ribes(["a", "a", "a"], ["a", "a", "a"]).score == 1.0


def test_ribes_disjoint():
    assert ribes(["x", "y"], ["a", "b"]).score == 0.0


def test_ribes_one_swap_example():
    result = ribes(["a", "b", "d", "c"], ["a", "b", "c", "d"], alpha=0.25)
    assert result.nkt == pytest.approx(5 / 6)
    assert result.precision == 1.0
    assert result.score == pytest.approx(5 / 6)


def test_ribes_alpha_monotone_when_partial_precision():
    hyp = ["a", "b", "zzz"]
    ref = ["a", "b"]
    scores = [ribes(hyp, ref, alpha=a).score for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(s1 >= s2 for s1, s2 in zip(scores, scores[1:]))
    assert scores[0] > scores[-1]


def test_ribes_alpha_irrelevant_at_full_precision():
    hyp = ["b", "a", "c"]
    ref = ["a", "b", "c"]
    values = {ribes(hyp, ref, alpha=a).score for a in (0.1, 0.5, 0.9)}
    assert len(values) == 1


def test_ribes_nsr_variant():
    hyp = ["a", "c", "b", "d"]
    ref = ["a", "b", "c", "d"]
    result = ribes(hyp, ref, variant="nsr")
    assert result.score == pytest.approx(result.nsr * result.precision**0.25)
    assert result.nsr == spearman_nsr(word_rank_alignment(hyp, ref))


def test_ribes_parameter_validation():
    with pytest.raises(ValueError):
        ribes(["a"], ["a"], alpha=0.0)
    with pytest.raises(ValueError):
        ribes(["a"], ["a"], alpha=1.0)
    with pytest.raises(ValueError):
        ribes(["a"], ["a"], variant="rho")


def test_ribes_fewer_than_two_aligned_words():
    assert ribes(["a", "x"], ["a", "b"]).score == 0.0


def test_word_rank_alignment_context_disambiguation():
    # repeated word resolved through a unique bigram context
    hyp = ["the", "cat", "the", "dog"]
    ref = ["the", "cat", "the", "dog"]
    assert word_rank_alignment(hyp, ref) == [0, 1, 2, 3]
    hyp = ["the", "dog", "the", "cat"]
    ref = ["the", "cat", "the", "dog"]
    worder = word_rank_alignment(hyp, ref)
    assert len(worder) == len(set(worder))
    assert 1 in worder and 3 in worder


def test_word_rank_alignment_matches_table_oracle():
    rng = make_rng(29)
    words = ("a", "b", "c", "d", "e", "f")
    for trial in range(5000):
        vocab = words[: rng.randint(1, 6)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
        kind = trial % 4
        if kind == 0:
            ref = list(hyp)
        elif kind == 1:
            ref = list(hyp)
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(ref) + 1)
                if at == len(ref) or rng.random() < 0.4:
                    ref.insert(at, rng.choice(vocab))
                elif rng.random() < 0.5:
                    del ref[at]
                else:
                    ref[at] = rng.choice(vocab)
        elif kind == 2:
            ref = [rng.choice(("u", "v", "w")) for _ in range(rng.randint(0, 40))]
        else:
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
        assert word_rank_alignment(hyp, ref) == oracles.word_rank_alignment(hyp, ref), (hyp, ref)


def test_word_rank_alignment_of_unique_words_never_narrows(monkeypatch):
    calls = []
    narrow = align_metrics._narrow

    def counting(*args):
        calls.append(args)
        return narrow(*args)

    monkeypatch.setattr(align_metrics, "_narrow", counting)
    hyp = [f"w{i}" for i in range(30)]
    ref = hyp[7:] + ["x", "y"] + hyp[:5]  # w5 and w6 missing
    assert word_rank_alignment(hyp, ref) == list(range(25, 30)) + list(range(23))
    assert calls == []
    # A repeated word is still told apart by its context.
    hyp, ref = hyp + ["w0"], ref + ["w0"]
    assert word_rank_alignment(hyp, ref) == oracles.word_rank_alignment_scan(hyp, ref)
    assert calls


def test_word_rank_alignment_matches_scan_oracle_on_long_lines():
    rng = make_rng(35)
    for length in (300, 2000):
        hyp = [f"w{i}" for i in range(length)]
        rng.shuffle(hyp)
        cut = rng.randrange(1, length)
        ref = hyp[cut:] + hyp[:cut]
        # The same lines with copies of a few words, which need their context.
        hyp_copies, ref_copies = list(hyp), list(ref)
        for _ in range(10):
            word = rng.choice(hyp)
            for side in (hyp_copies, ref_copies):
                side.insert(rng.randint(0, len(side)), word)
        assert word_rank_alignment(hyp, ref) == [(i - cut) % length for i in range(length)]
        for h, r in ((hyp, ref), (hyp_copies, ref_copies)):
            expected = oracles.word_rank_alignment_scan(h, r)
            assert word_rank_alignment(h, r) == expected
            if length <= 300:  # the n-gram tables grow with the square of the length
                assert expected == oracles.word_rank_alignment(h, r)


def _three_word_lines(rng: random.Random, length: int) -> tuple[list[str], tuple[list[str], ...]]:
    """A hypothesis of ``length`` tokens over three words, with three
    references: an independent draw, a rotation and a copy with five edits."""
    hyp = [rng.choice("abc") for _ in range(length)]
    drawn = [rng.choice("abc") for _ in range(length)]
    cut = rng.randrange(1, length)
    edited = list(hyp)
    for _ in range(5):
        at = rng.randrange(len(edited))
        edited[at : at + rng.randint(0, 1)] = rng.choice(([], ["a"], ["b"], ["c"]))
    return hyp, (drawn, hyp[cut:] + hyp[:cut], edited)


def test_word_rank_alignment_on_long_repeated_word_lines():
    # Position masks of these lines span many machine words.
    rng = make_rng(52)
    for length in (60, 120, 300, 1000):
        hyp, refs = _three_word_lines(rng, length)
        for ref in refs:
            expected = oracles.word_rank_alignment_scan(hyp, ref)
            assert word_rank_alignment(hyp, ref) == expected, length
            if length <= 300:  # the n-gram tables grow with the square of the length
                assert expected == oracles.word_rank_alignment(hyp, ref), length


def test_ribes_on_long_repeated_word_lines_keeps_its_recorded_fields():
    # Recorded from the list-narrowing alignment and pairwise Kendall count;
    # a fixed generator keeps the lines the same at every test seed.
    hyp, refs = _three_word_lines(random.Random(3), 1000)
    recorded = [
        (0.47685235164993345, 0.46146778688724766, 0.3952477700882318),
        (0.955013013013013, 0.9325869325869326, 0.955013013013013),
        (1.0, 1.0, 0.9992491547703852),
    ]
    for ref, fields in zip(refs, recorded):
        result = ribes(hyp, ref)
        assert (result.nkt, result.nsr, result.score) == fields


def test_word_rank_alignment_memory_is_linear():
    # Tables of every n-gram of this pair peak at about 24 MiB.
    rng = make_rng(30)
    hyp = [rng.choice(("a", "b", "c")) for _ in range(200)]
    ref = hyp[100:] + hyp[:100]
    tracemalloc.start()
    try:
        word_rank_alignment(hyp, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ribes_in_unit_interval_random():
    rng = make_rng(27)
    for _ in range(100):
        hyp = random_corpus(rng, max_segments=1, max_tokens=10)[0]
        ref = random_corpus(rng, max_segments=1, max_tokens=10)[0]
        assert 0.0 <= ribes(hyp, ref).score <= 1.0
