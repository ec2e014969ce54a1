"""Independent oracles the implementation must agree with.

Everything here is deliberately brute force and shares no code path with the
package, except that ``ter_unpruned`` scores with the package's bit-parallel
columns (checked against ``lev`` on their own) to isolate TER's lower bound,
``prefix_bounds_scan`` reads those columns' states,
and ``resource_bundle`` hands its tables to the package's ``LanguageResources``
for their lookups. The oracles: the tokenizer character by character,
plain-Python Levenshtein, the greedy TER shift search scored with it, the
same search with no candidate skipped, breadth-first shift search, TER's
bound tables scanned over every reference cut,
per-metric BLEU / NIST / EBLEU that count n-grams afresh for every score,
the per-segment n-gram record built gram by gram,
resource tables normalized word by word and the full bundle built from them,
pairwise rank enumeration, RIBES word alignment from tables of every n-gram
and by rescanning both sentences for every word,
METEOR stage matchings by enumerating every matching, the METEOR exact stage
by enumerating every in-order choice per word, cofactor-inverted normal
equations, and adaptive Simpson quadrature of the t density.
"""

from __future__ import annotations

import io
import itertools
import math
import unicodedata
from collections import Counter
from pathlib import Path

from respeval.align_metrics import _ReferenceColumns
from respeval.resources import LanguageResources


# --- the tokenizer, character by character --------------------------------------


def tokenize_oracle(text, lowercase=True, split_punctuation=True, strip_punctuation=False):
    """NFC, optional lowercasing and whitespace words, each word's characters
    examined one by one: a punctuation character (Unicode category P*) is a
    token of its own, is dropped, or stays in its word."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    tokens = []
    for word in text.split():
        if not (split_punctuation or strip_punctuation):
            tokens.append(word)
            continue
        buf = ""
        for ch in word:
            if not unicodedata.category(ch).startswith("P"):
                buf += ch
                continue
            if split_punctuation:
                if buf:
                    tokens.append(buf)
                tokens.append(ch)
                buf = ""
        if buf:
            tokens.append(buf)
    return tokens


# --- word edit distance and exhaustive edit+shift search ---------------------


def lev(a, b) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def multiset_bound(a, b) -> int:
    counts = Counter(a)
    counts.subtract(Counter(b))
    surplus = sum(v for v in counts.values() if v > 0)
    deficit = -sum(v for v in counts.values() if v < 0)
    return max(surplus, deficit)


def _all_shifts(state: tuple, max_block: int):
    n = len(state)
    for start in range(n):
        for length in range(1, min(max_block, n - start) + 1):
            block = state[start : start + length]
            remainder = state[:start] + state[start + length :]
            for pos in range(len(remainder) + 1):
                if pos == start:
                    continue
                yield remainder[:pos] + block + remainder[pos:]


def ter_exhaustive(hyp, ref, max_block: int = 10) -> int:
    """Minimum (shifts + edit distance) over every sequence of block shifts.

    Shifts preserve the token multiset, so ``multiset_bound`` lower-bounds the
    edit distance of every reachable state; layers deeper than best - bound
    cannot win and the breadth-first expansion stops there.
    """
    ref_t = tuple(ref)
    start = tuple(hyp)
    best = lev(start, ref_t)
    bound = multiset_bound(start, ref_t)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and depth + 1 + bound < best:
        depth += 1
        nxt = []
        for state in frontier:
            for cand in _all_shifts(state, max_block):
                if cand in seen:
                    continue
                seen.add(cand)
                nxt.append(cand)
                best = min(best, depth + lev(cand, ref_t))
        frontier = nxt
    return best


def ter_greedy(hyp, ref, max_block: int = 10):
    """``(edits, shifts)`` of the greedy TER shift search, scoring every
    candidate with a full ``lev``.

    Each round tries every shift of a block (up to ``max_block`` words,
    occurring verbatim in the reference) in (start, length, position) order
    and applies the first one with the strictly lowest distance, as long as
    that distance is below the current one."""
    ref = list(ref)
    ref_blocks = set()
    for i in range(len(ref)):
        for j in range(i + 1, min(i + max_block, len(ref)) + 1):
            ref_blocks.add(tuple(ref[i:j]))
    current = list(hyp)
    distance = lev(current, ref)
    shifts = 0
    while True:
        best, best_state = distance, None
        for start in range(len(current)):
            for length in range(1, min(max_block, len(current) - start) + 1):
                block = current[start : start + length]
                if tuple(block) not in ref_blocks:
                    break
                remainder = current[:start] + current[start + length :]
                for pos in range(len(remainder) + 1):
                    if pos == start:
                        continue
                    cand = remainder[:pos] + block + remainder[pos:]
                    d = lev(cand, ref)
                    if d < best:
                        best, best_state = d, cand
        if best_state is None:
            return distance + shifts, shifts
        current, distance = best_state, best
        shifts += 1


def ter_unpruned(hyp, ref, max_block: int = 10):
    """``(edits, shifts)`` of ``ter_greedy``'s search, scoring each candidate
    with the package's bit-parallel columns resumed from the cached state of
    the prefix it keeps, and skipping no candidate.

    The package's search without its lower bound: ``ter`` must give the same
    answer on pairs too long for ``ter_greedy``. A round stops at the first
    candidate whose distance reaches the multiset bound, as ``ter``'s does."""
    columns = _ReferenceColumns(ref)
    ref_blocks = set()
    for i in range(len(ref)):
        for j in range(i + 1, min(i + max_block, len(ref)) + 1):
            ref_blocks.add(tuple(ref[i:j]))
    bound = multiset_bound(hyp, ref)

    def best_shift(current):
        prefix = [columns.initial]
        for tok in current:
            prefix.append(columns.feed(prefix[-1], (tok,)))
        best, best_state = prefix[-1][2], None
        if best <= bound:
            return best, None
        for start in range(len(current)):
            for length in range(1, min(max_block, len(current) - start) + 1):
                block = current[start : start + length]
                if tuple(block) not in ref_blocks:
                    break
                remainder = current[:start] + current[start + length :]
                for pos in range(len(remainder) + 1):
                    if pos == start:
                        continue
                    keep = min(start, pos)
                    cand = remainder[:pos] + block + remainder[pos:]
                    d = columns.feed(prefix[keep], cand[keep:])[2]
                    if d < best:
                        best, best_state = d, cand
                        if d == bound:
                            return best, best_state
        return best, best_state

    current = list(hyp)
    shifts = 0
    while True:
        distance, shifted = best_shift(current)
        if shifted is None:
            return distance + shifts, shifts
        current = shifted
        shifts += 1


def prefix_bounds_scan(columns, tokens, states):
    """For each ``k``, the least over every reference cut ``j`` of
    ``D(tokens[:k], ref[:j]) + multiset_bound(tokens[k:], ref[j:])``: the
    package's bound tables, read off the column ``states[k]`` (the state
    after ``tokens[:k]``) cell by cell from the bottom up, with no band.

    ``D(tokens[:k], ref[:j])`` for ``j = m, ..., 0`` comes from the column's
    vertical deltas. The tokens that ``tokens[k:]`` and ``ref[j:]`` have in
    common grow by one at ``ref[j]`` when ``tokens[k:]`` has at least as many
    of it as ``ref[j:]``; the multiset bound is ``max(n - k, m - j)`` less
    that count."""
    ref = columns.ref
    n, m = len(tokens), len(ref)
    seen = Counter()
    backward = []  # (j, ref[j], occurrences of ref[j] in ref[j:]) from the last j down
    for j in reversed(range(m)):
        seen[ref[j]] += 1
        backward.append((j, ref[j], seen[ref[j]]))
    rest = Counter(tokens)  # token counts of tokens[k:]
    bounds = []
    for k, (pv, mv, distance) in enumerate(states):
        left = n - k
        best = distance + left
        for j, tok, occurrences in backward:
            distance += (mv >> j & 1) - (pv >> j & 1)
            if rest[tok] >= occurrences:
                distance -= 1
            best = min(best, distance + max(left, m - j))
        bounds.append(best)
        if k < n:
            rest[tokens[k]] -= 1
    return bounds


# --- BLEU, NIST and EBLEU, each counting its own n-grams -----------------------
#
# Same float arithmetic, in the same order, as the package's reductions over
# per-segment records, so results compare with ==.


def count_ngrams(seq, n):
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def _clip(hyp_grams, ref_grams):
    return sum(min(c, max(rg.get(g, 0) for rg in ref_grams)) for g, c in hyp_grams.items())


def _closest(c, refs):
    return min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))


def _bp(c, r):
    if c == 0:
        return 1.0
    return 1.0 if c > r else math.exp(1.0 - r / c)


def _log_mean(bases):
    """Running log-mean of the defined bases; 0 when none is defined or any is 0."""
    defined = [b for b in bases if b is not None]
    if not defined or 0.0 in defined:
        return 0.0
    log_sum = 0.0
    for b in defined:
        log_sum += math.log(b)
    return math.exp(log_sum / len(defined))


def bleu_oracle(hyps, refss, max_n, smooth=False, sentence_level=False):
    if sentence_level:
        return sum(
            bleu_oracle([h], [refs], max_n, smooth) if h else 0.0 for h, refs in zip(hyps, refss)
        ) / len(hyps)
    nums = [0] * max_n
    dens = [0] * max_n
    c = r = 0
    for hyp, refs in zip(hyps, refss):
        c += len(hyp)
        r += _closest(len(hyp), refs)
        for n in range(1, max_n + 1):
            total = len(hyp) - n + 1
            if total > 0:
                dens[n - 1] += total
                nums[n - 1] += _clip(count_ngrams(hyp, n), [count_ngrams(ref, n) for ref in refs])
    if smooth:
        nums = [x + 1 if d > 0 else x for x, d in zip(nums, dens)]
        dens = [d + 1 if d > 0 else d for d in dens]
    return _bp(c, r) * _log_mean([x / d if d > 0 else None for x, d in zip(nums, dens)])


def nist_oracle(hyps, refss, max_n, beta=math.log(0.5) / math.log(1.5) ** 2):
    ref_counts = [Counter() for _ in range(max_n + 1)]
    ref_tokens = 0
    for refs in refss:
        for ref in refs:
            ref_tokens += len(ref)
            for n in range(1, max_n + 1):
                ref_counts[n].update(count_ngrams(ref, n))
    c = 0
    r_bar = 0.0
    credits = [0.0] * max_n
    totals = [0] * max_n
    for hyp, refs in zip(hyps, refss):
        c += len(hyp)
        r_bar += sum(len(ref) for ref in refs) / len(refs)
        for n in range(1, max_n + 1):
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            ref_grams = [count_ngrams(ref, n) for ref in refs]
            for g, count in count_ngrams(hyp, n).items():
                matched = min(count, max(rg.get(g, 0) for rg in ref_grams))
                if matched:
                    numer = ref_counts[n - 1][g[:-1]] if n > 1 else ref_tokens
                    credits[n - 1] += matched * math.log2(numer / ref_counts[n][g])
    score = sum(cr / tot for cr, tot in zip(credits, totals) if tot > 0)
    if r_bar <= 0:
        return 0.0
    return score * math.exp(beta * math.log(min(c / r_bar, 1.0)) ** 2)


def _synonym_expand(hyp, refs, synonyms, synonym_score):
    """Each hypothesis token's effective token and credit factor: itself at 1
    when a reference has it, else the first reference word among its
    synonyms at ``synonym_score``, else itself at 0."""
    vocab = {tok for ref in refs for tok in ref}
    effective, factors = [], []
    for tok in hyp:
        syns = synonyms.get(tok, set())
        match = next((w for ref in refs for w in ref if w in syns), None)
        if tok in vocab:
            effective.append(tok)
            factors.append(1.0)
        elif match is not None:
            effective.append(match)
            factors.append(synonym_score)
        else:
            effective.append(tok)
            factors.append(0.0)
    return effective, factors


def ebleu_oracle(
    hyps, refss, max_n, synonyms, synonym_score, rare_percent, rare_score, sentence_level=False
):
    """``synonyms`` maps a word to the set of its synonyms."""
    if sentence_level:
        return sum(
            ebleu_oracle([h], [refs], max_n, synonyms, synonym_score, rare_percent, rare_score)
            if h
            else 0.0
            for h, refs in zip(hyps, refss)
        ) / len(hyps)
    freq = Counter(tok for refs in refss for ref in refs for tok in ref)
    ranked = sorted(freq, key=lambda w: (-freq[w], w))
    rare = set(ranked[len(ranked) - int(len(ranked) * rare_percent) :])
    nums = [0.0] * max_n
    dens = [0] * max_n
    c = r = 0
    for hyp, refs in zip(hyps, refss):
        c += len(hyp)
        r += _closest(len(hyp), refs)
        effective, factors = _synonym_expand(hyp, refs, synonyms, synonym_score)
        for n in range(1, max_n + 1):
            total = len(hyp) - n + 1
            if total <= 0:
                continue
            dens[n - 1] += total
            occurrences = {}
            for i in range(total):
                g = tuple(effective[i : i + n])
                weight = math.prod(factors[i : i + n])
                if any(tok in rare for tok in g):
                    weight *= rare_score
                occurrences.setdefault(g, []).append(weight)
            ref_grams = [count_ngrams(ref, n) for ref in refs]
            seg = 0.0
            for g, weights in occurrences.items():
                matched = min(len(weights), max(rg.get(g, 0) for rg in ref_grams))
                seg += sum(sorted(weights, reverse=True)[:matched])
            nums[n - 1] += min(seg, total)
    bases = [min(x / d, 1.0) if d > 0 else None for x, d in zip(nums, dens)]
    return max(0.0, min(1.0, _bp(c, r) * _log_mean(bases)))


def segment_record_oracle(hyp, refs, max_n, nist_max_n, synonyms, synonym_score):
    """The fields of ``ngram_metrics.SegmentStats`` for one segment, built
    gram by gram, each table holding every order inserted order by order: a
    hypothesis n-gram clips against its highest count in any one reference,
    each order's clipped matches are summed, the references' tables are
    summed in reference order, and, only when a token was rewritten, EBLEU
    weighs every synonym-expanded occurrence."""
    top = max(max_n, nist_max_n)

    def table(seq):
        counts = Counter()
        for n in range(1, top + 1):
            for i in range(len(seq) - n + 1):
                counts[tuple(seq[i : i + n])] += 1
        return counts

    effective, factors = _synonym_expand(hyp, refs, synonyms, synonym_score)
    ref_tables = [table(ref) for ref in refs]
    ref_counts = ref_tables[0] if len(ref_tables) == 1 else sum(ref_tables, Counter())
    clipped = {
        g: matched
        for g, count in table(hyp).items()
        if (matched := min(count, max(rt.get(g, 0) for rt in ref_tables)))
    }
    matches = tuple(sum(m for g, m in clipped.items() if len(g) == n) for n in range(1, top + 1))
    weighted = None
    if effective != hyp:
        weighted = {}
        for n in range(1, max_n + 1):
            occurrences = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(effective[i : i + n])
                occurrences.setdefault(g, []).append(math.prod(factors[i : i + n]))
            for g, weights in occurrences.items():
                if matched := min(len(weights), max(rt.get(g, 0) for rt in ref_tables)):
                    weighted[g] = tuple(sorted(weights, reverse=True)[:matched])
    lens = tuple(len(ref) for ref in refs)
    return len(hyp), lens, clipped, matches, ref_counts, weighted


# --- resource files read word by word ------------------------------------------


def resource_lines_per_word(path, tab_separated):
    """The table or the word list a resource file holds, each word
    NFC-normalized on its own after the line is split, or the 1-based line
    of the first malformed line (no tab, or an empty word or value list)."""
    text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    table, words = {}, []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not tab_separated:
            words.append(unicodedata.normalize("NFC", line))
            continue
        if "\t" not in line:
            return lineno
        word, _, rest = line.partition("\t")
        word = unicodedata.normalize("NFC", word.strip())
        values = {unicodedata.normalize("NFC", v) for v in rest.split()}
        if not word or not values:
            return lineno
        table.setdefault(word, set()).update(values)
    return table if tab_separated else frozenset(words)


def resource_bundle(synonyms=None, stems=None, function_words=None):
    """The full ``LanguageResources`` of the given files, each read by
    ``resource_lines_per_word`` and the synonym table closed symmetrically;
    or ``(path, line)`` of the first malformed line, the files taken in the
    order synonyms, stems, function words."""
    tables = {}
    for name, path, tab_separated in (
        ("synonyms", synonyms, True), ("stems", stems, True), ("function_words", function_words, False)
    ):
        if path is None:
            continue
        table = resource_lines_per_word(path, tab_separated)
        if isinstance(table, int):
            return path, table
        tables[name] = table
    closed = {}
    for word, syns in tables.get("synonyms", {}).items():
        for syn in syns:
            closed.setdefault(word, set()).add(syn)
            closed.setdefault(syn, set()).add(word)
    return LanguageResources(
        synonyms={w: frozenset(s) for w, s in closed.items()},
        stems={w: frozenset(s) for w, s in tables.get("stems", {}).items()},
        function_words=tables.get("function_words", frozenset()),
    )


# --- rank statistics by direct pair enumeration -------------------------------


def kendall_nkt_brute(positions) -> float:
    n = len(positions)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if positions[j] > positions[i]:
                concordant += 1
            else:
                discordant += 1
    tau = (concordant - discordant) / (n * (n - 1) / 2)
    return (tau + 1) / 2


def spearman_nsr_brute(positions) -> float:
    n = len(positions)
    ranking = {value: rank for rank, value in enumerate(sorted(positions))}
    d2 = sum((ranking[value] - i) ** 2 for i, value in enumerate(positions))
    rho = 1 - 6 * d2 / (n * (n * n - 1))
    return (rho + 1) / 2


# --- METEOR alignment by enumerating every stage matching ---------------------


def _matchings(nodes, candidates, size, used=frozenset()):
    """Every matching of exactly ``size`` pairs over ``nodes``, in the order a
    depth-first search meets them: each candidate in list order, then the
    node left out."""
    if size == 0:
        yield []
        return
    if len(nodes) < size:
        return
    h, rest = nodes[0], nodes[1:]
    for r in candidates[h]:
        if r not in used:
            for tail in _matchings(rest, candidates, size - 1, used | {r}):
                yield [(h, r)] + tail
    yield from _matchings(rest, candidates, size, used)


def _crossings(pairs, prior):
    crossed = sum(
        1 for i, (h1, r1) in enumerate(pairs) for h2, r2 in pairs[i + 1 :] if (h1 - h2) * (r1 - r2) < 0
    )
    return crossed + sum(1 for h1, r1 in pairs for h2, r2 in prior if (h1 - h2) * (r1 - r2) < 0)


def meteor_align_brute(hyp, ref, stems=None, synonyms=None):
    """METEOR's staged alignment, (hyp index, ref index, stage) sorted.

    Exact, then stem, then synonym matches over the words still unmatched.
    Each stage takes, of its matchings of the largest size, one with the
    fewest crossings (with itself and with earlier stages), the first in
    depth-first order among equals. Words missing from ``stems`` stem to
    themselves."""
    stems, synonyms = stems or {}, synonyms or {}
    predicates = (
        ("exact", lambda a, b: a == b),
        ("stem", lambda a, b: bool(set(stems.get(a, {a})) & set(stems.get(b, {b})))),
        ("synonym", lambda a, b: b in synonyms.get(a, ())),
    )
    matches = []
    for stage, predicate in predicates:
        done_h = {h for h, _, _ in matches}
        done_r = {r for _, r, _ in matches}
        candidates = {}
        for h, a in enumerate(hyp):
            options = [r for r, b in enumerate(ref) if h not in done_h and r not in done_r and predicate(a, b)]
            if options:
                candidates[h] = options
        nodes = sorted(candidates)
        prior = [(h, r) for h, r, _ in matches]
        for size in range(len(nodes), 0, -1):
            found = list(_matchings(nodes, candidates, size))
            if found:
                best = min(found, key=lambda pairs: _crossings(pairs, prior))
                matches += [(h, r, stage) for h, r in best]
                break
    return sorted(matches)


# --- METEOR exact stage by enumerating in-order choices per word ------------


def meteor_exact_stage_enum(hyp, ref):
    """The exact stage's matching, (hyp index, ref index) sorted.

    Enumerates the product, over the words both sides share, of every choice
    of min(count in hyp, count in ref) occurrences on each side, paired in
    order. Keeps the least (crossings, assignment) key, where the assignment
    lists the ref index of each hyp position whose word the reference has,
    left to right, with unmatched sorting last."""
    shared = sorted(set(hyp) & set(ref))
    per_word = []
    for word in shared:
        hs = [i for i, tok in enumerate(hyp) if tok == word]
        rs = [j for j, tok in enumerate(ref) if tok == word]
        size = min(len(hs), len(rs))
        per_word.append(
            [
                list(zip(hc, rc))
                for hc in itertools.combinations(hs, size)
                for rc in itertools.combinations(rs, size)
            ]
        )
    positions = [i for i, tok in enumerate(hyp) if tok in shared]
    best_key, best = None, []
    for choice in itertools.product(*per_word):
        pairs = sorted(pair for word_pairs in choice for pair in word_pairs)
        ref_of = dict(pairs)
        key = (_crossings(pairs, []), [ref_of.get(i, math.inf) for i in positions])
        if best_key is None or key < best_key:
            best_key, best = key, pairs
    return best


# --- RIBES word-rank alignment from tables of every n-gram ------------------


def _ngram_positions(seq: Sequence[str], max_len: int) -> tuple[Counter, dict]:
    counts: Counter = Counter()
    first_pos: dict[tuple[str, ...], int] = {}
    for length in range(1, max_len + 1):
        for i in range(len(seq) - length + 1):
            gram = tuple(seq[i : i + length])
            counts[gram] += 1
            first_pos.setdefault(gram, i)
    return counts, first_pos


def word_rank_alignment(hyp: TokenSequence, ref: TokenSequence) -> list[int]:
    """Reference positions of hypothesis words, in hypothesis order.

    Words unique in both sides align directly; repeated words are
    disambiguated by growing left/right context n-grams until the context
    occurs exactly once in both sentences. Words whose ambiguity survives are
    left unaligned, and every reference position is used at most once.
    """
    if hyp == ref:
        return list(range(len(hyp)))
    max_len = max(len(hyp), len(ref))
    hyp_counts, _ = _ngram_positions(hyp, max_len)
    ref_counts, ref_first = _ngram_positions(ref, max_len)
    used: set[int] = set()
    worder: list[int] = []
    for i, word in enumerate(hyp):
        key = (word,)
        if ref_counts[key] == 0:
            continue
        position = None
        if hyp_counts[key] == 1 and ref_counts[key] == 1:
            position = ref_first[key]
        else:
            for window in range(1, max(i, len(hyp) - i) + 1):
                if i + window < len(hyp):
                    gram = tuple(hyp[i : i + window + 1])
                    if hyp_counts[gram] == 1 and ref_counts[gram] == 1:
                        position = ref_first[gram]
                        break
                if window <= i:
                    gram = tuple(hyp[i - window : i + 1])
                    if hyp_counts[gram] == 1 and ref_counts[gram] == 1:
                        position = ref_first[gram] + window
                        break
        if position is not None and position not in used:
            used.add(position)
            worder.append(position)
    return worder


# --- RIBES word-rank alignment by rescanning both sentences per word --------


def _narrow_scan(seq, positions, offset, token):
    return [j for j in positions if 0 <= j + offset < len(seq) and seq[j + offset] == token]


def word_rank_alignment_scan(hyp: TokenSequence, ref: TokenSequence) -> list[int]:
    """``word_rank_alignment`` by the same context growth, with no tables:
    each hypothesis word scans both whole sentences for its positions, and
    width 0 narrows them by the word itself like every other width.

    Time is quadratic in the sentence length but memory linear, so unlike
    the n-gram table oracle it can check long lines."""
    if hyp == ref:
        return list(range(len(hyp)))
    used: set[int] = set()
    worder: list[int] = []
    for i, word in enumerate(hyp):
        hyp_right = hyp_left = [j for j, tok in enumerate(hyp) if tok == word]
        ref_right = ref_left = [j for j, tok in enumerate(ref) if tok == word]
        position = None
        # Width 0 is the word itself; the left context starts at width 1.
        for width in range(max(i, len(hyp) - i) + 1):
            if not ref_right and not ref_left:
                break
            if i + width < len(hyp):
                hyp_right = _narrow_scan(hyp, hyp_right, width, hyp[i + width])
                ref_right = _narrow_scan(ref, ref_right, width, hyp[i + width])
                if len(hyp_right) == 1 and len(ref_right) == 1:
                    position = ref_right[0]
                    break
            if 0 < width <= i:
                hyp_left = _narrow_scan(hyp, hyp_left, -width, hyp[i - width])
                ref_left = _narrow_scan(ref, ref_left, -width, hyp[i - width])
                if len(hyp_left) == 1 and len(ref_left) == 1:
                    position = ref_left[0]
                    break
        if position is not None and position not in used:
            used.add(position)
            worder.append(position)
    return worder


# --- normal-equations OLS with cofactor inversion ------------------------------


def determinant(matrix) -> float:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0.0
    for col in range(n):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += ((-1) ** col) * matrix[0][col] * determinant(minor)
    return total


def cofactor_inverse(matrix):
    n = len(matrix)
    det = determinant(matrix)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for k, r in enumerate(matrix) if k != i]
            row.append(((-1) ** (i + j)) * determinant(minor))
        cof.append(row)
    # adjugate = transpose of the cofactor matrix
    return [[cof[j][i] / det for j in range(n)] for i in range(n)]


def normal_equations_fit(predictor_columns, y):
    """Coefficients (intercept first) solving (X'X) b = X'y explicitly."""
    n = len(y)
    x_rows = [[1.0] + [col[i] for col in predictor_columns] for i in range(n)]
    p = len(x_rows[0])
    xtx = [[sum(x_rows[r][i] * x_rows[r][j] for r in range(n)) for j in range(p)] for i in range(p)]
    xty = [sum(x_rows[r][i] * y[r] for r in range(n)) for i in range(p)]
    inv = cofactor_inverse(xtx)
    return [sum(inv[i][j] * xty[j] for j in range(p)) for i in range(p)]


# --- Student's t survival function by adaptive quadrature ----------------------


def t_density(x: float, df: float) -> float:
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(log_norm - (df + 1) / 2 * math.log1p(x * x / df))


def _simpson(f, a, fa, b, fb):
    m = (a + b) / 2
    fm = f(m)
    return m, fm, (b - a) / 6 * (fa + 4 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return _adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2, depth - 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, tol / 2, depth - 1
    )


def t_sf_quadrature(t: float, df: float, tol: float = 1e-10) -> float:
    """Two-sided p = 2 * (1/2 - integral of the t density from 0 to |t|)."""
    t = abs(t)
    if t == 0:
        return 1.0
    f = lambda x: t_density(x, df)
    fa, fb = f(0.0), f(t)
    m, fm, whole = _simpson(f, 0.0, fa, t, fb)
    integral = _adaptive(f, 0.0, fa, t, fb, m, fm, whole, tol, 50)
    return 2 * (0.5 - integral)
