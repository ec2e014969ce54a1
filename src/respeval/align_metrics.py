"""Alignment-based metrics: TER, METEOR (with pluggable language resources,
which is all the Polish-adapted variant needs) and the word-order metric
RIBES with its rank-correlation primitives."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .resources import LanguageResources
from .textcore import RespevalInputError, TokenSequence

_EMPTY_RESOURCES = LanguageResources()


# --- TER ----------------------------------------------------------------------

MAX_SHIFT_LENGTH = 10


@dataclass(frozen=True)
class TerScore:
    edits: int
    shifts: int
    ref_length: int
    ter: float


def multiset_edit_bound(a: Sequence[str], b: Sequence[str]) -> int:
    """Lower bound on edit distance from token-count differences alone.

    Block shifts preserve the multiset, so this bound also holds for every
    sequence reachable by shifting."""
    counts: dict[str, int] = {}
    for tok in a:
        counts[tok] = counts.get(tok, 0) + 1
    for tok in b:
        counts[tok] = counts.get(tok, 0) - 1
    surplus = sum(v for v in counts.values() if v > 0)
    # surplus - deficit == len(a) - len(b)
    return surplus + max(len(b) - len(a), 0)


def _masks(seq: Sequence[str]) -> dict[str, int]:
    """Each token of ``seq`` with the mask of its positions: bit ``j`` is set
    where ``seq[j]`` is that token."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(seq):
        masks[tok] = masks.get(tok, 0) | 1 << j
    return masks


class _ReferenceColumns:
    """Bit-parallel word edit distance against one fixed reference (Myers 1999,
    in Hyyrö's 2001 formulation for global distance).

    Bit ``i`` of a reference token's mask is set where ``ref[i]`` is that
    token. A state ``(Pv, Mv, score)`` encodes one DP column: the +1 / -1
    vertical deltas as bit vectors and the distance of the prefix fed so far
    to the whole reference. Each fed token costs a fixed number of big-int
    operations, whatever the reference length."""

    def __init__(self, ref: Sequence[str]):
        self.ref = ref
        self.masks = _masks(ref)
        self.high = 1 << (len(ref) - 1)
        self.full = (self.high << 1) - 1
        self.initial = (self.full, 0, len(ref))

    def feed(
        self,
        state: tuple[int, int, int],
        tokens: Sequence[str],
        states: list[tuple[int, int, int]] | None = None,
        limit: int | None = None,
        remainder: tuple[int, Sequence[str], int, Sequence[int]] | None = None,
    ) -> tuple[int, int, int]:
        """The state after ``tokens`` follow the prefix that gave ``state``.
        Given a list ``states``, appends the state after each word to it.

        Given a ``limit``, stops after the first word that leaves ``score -
        words left >= limit`` (Ukkonen 1985): deleting a word lowers the
        distance by at most one, so the rest of ``tokens`` could not bring it
        below ``limit``. The score returned is then already ``>= limit``; one
        below ``limit`` is the exact distance.

        Given also a ``remainder`` ``(kept, block, counted, remaining)``, the
        sequences to bound are the ``kept`` words that gave ``state``, then a
        prefix of ``tokens``, then the rest of ``tokens`` and ``block`` in any
        order. ``counted`` is ``_least_cut``'s mask of ``tokens`` and
        ``block``, and ``remaining[i]`` the occurrences of ``tokens[i]`` in
        ``tokens[i:]``. The feed then stops before appending the first state
        whose ``_least_cut`` reaches ``limit``: no such sequence that starts
        with its prefix is below ``limit``. That bound is at least ``score``
        less the words left, so the cut-off above never comes first."""
        masks, high, full = self.masks, self.high, self.full
        pv, mv, score = state
        if limit is None:
            limit = score + len(tokens) + 1  # out of reach: a word adds at most one
        stop = limit + len(tokens)
        if remainder is not None:
            kept, block, counted, remaining = remainder
            m, left, i = len(self.ref), len(tokens) + len(block), 0
            stop += len(block)  # the block is among the words left
        for tok in tokens:
            eq = masks.get(tok, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            # ``~`` leaves ph negative; ``& full`` and ``& xv`` drop its high bits.
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & high:
                score += 1
            elif mh & high:
                score -= 1
            ph = (ph << 1) | 1
            pv = ((mh << 1) | ~(xv | ph)) & full
            mv = ph & xv
            if remainder is not None:
                # tok leaves the remainder: while it held no more of tok than the
                # reference, the lowest of tok's counted occurrences goes.
                mine = counted & eq
                if mine.bit_count() == remaining[i] + block.count(tok):
                    counted ^= mine & -mine
                i += 1
                if _least_cut(pv, mv, score, counted, kept + i, left - i, m, limit, limit) >= limit:
                    break
            if states is not None:
                states.append((pv, mv, score))
            stop -= 1  # the limit plus the words left
            if score >= stop:
                break
        return pv, mv, score

    def prefix_states(
        self,
        tokens: Sequence[str],
        state: tuple[int, int, int] | None = None,
        limit: int | None = None,
        remainder: tuple[int, Sequence[str], int, Sequence[int]] | None = None,
    ) -> list[tuple[int, int, int]]:
        """The state after each prefix of ``tokens`` fed from ``state`` (by
        default the empty prefix's), shortest first, up to where ``feed``
        stops at ``limit`` and ``remainder``."""
        states = [state or self.initial]
        self.feed(states[0], tokens, states, limit, remainder)
        return states

    @cached_property
    def reversed(self) -> _ReferenceColumns:
        """The columns of the reversed reference."""
        return _ReferenceColumns(self.ref[::-1])


def _least_cut(
    pv: int, mv: int, score: int, counted: int, kept: int, left: int, m: int, limit: int, enough: int = 0
) -> int:
    """The least of ``limit`` and, over the reference cuts ``j``, of ``D(P,
    ref[:j]) + multiset_edit_bound(R, ref[j:])``: a lower bound on the
    distance of every sequence made of ``P`` and then ``R`` in any order.

    ``P`` is the ``kept`` words whose column state is ``(pv, mv, score)``;
    ``R`` holds ``left`` words. Bit ``j`` of ``counted`` is set when
    ``ref[j]`` is among the last ``c`` occurrences of its word, ``c`` its
    count in ``R``, so the bits from ``j`` on count the words ``R`` and
    ``ref[j:]`` have in common, and the multiset term is ``max(left, m - j)``
    less them.

    ``D(P, ref[:j]) >= |kept - j|`` and the multiset term is at least ``|left
    - (m - j)|``, so a cut whose sum of the two reaches the least so far
    cannot go below it. The cuts left form a band around the cut where that
    sum is least. That centre cut is read with three bit counts; the walks
    from there down and up the column, one cell at a time, end where the
    band, narrowing as the least falls, ends. A cut below ``enough`` is
    returned at once: a chain asks only whether some cut is below its limit."""
    mid = kept + m - left  # the band: the cuts j with |2j - mid| below the least so far
    j = mid >> 1
    if j > m:
        j = m
    elif j < 0:
        j = 0
    centre = distance = score - (pv >> j).bit_count() + (mv >> j).bit_count() - (counted >> j).bit_count()
    best = distance + (left if left > m - j else m - j)
    if best > limit:
        best = limit
    elif best < enough:
        return best
    top, bottom = j, (mid - best) // 2 + 1
    if bottom < 0:
        bottom = 0
    while j > bottom:
        j -= 1
        # distance: D(P, ref[:j]) less the words in common
        distance += (mv >> j & 1) - (pv >> j & 1) - (counted >> j & 1)
        bound = distance + (left if left > m - j else m - j)
        if bound < best:
            if bound < enough:
                return bound
            best = bound
            bottom = (mid - best) // 2 + 1
            if bottom < 0:
                bottom = 0
    j, distance, ceiling = top, centre, (mid + best - 1) // 2
    if ceiling > m:
        ceiling = m
    while j < ceiling:
        distance += (pv >> j & 1) - (mv >> j & 1) + (counted >> j & 1)
        j += 1
        bound = distance + (left if left > m - j else m - j)
        if bound < best:
            if bound < enough:
                return bound
            best = bound
            ceiling = (mid + best - 1) // 2
    return best


def _prefix_bounds(
    columns: _ReferenceColumns, tokens: Sequence[str], states: list[tuple[int, int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """For each ``k``, a lower bound on the distance to the reference of every
    sequence that starts with ``tokens[:k]`` and goes on with the rest of
    ``tokens`` in any order: ``_least_cut`` of ``states[k]``, the column
    state after ``tokens[:k]``, and ``tokens[k:]``, scanning only the band
    of cuts that can still go below the row's least, so the same as a scan
    of every cut.

    Also returns what a block's chain needs: for each ``k``, the mask of
    ``tokens[k:]`` (bit ``j`` set when ``ref[j]`` is among the last ``c``
    occurrences of its word, ``c`` its count in ``tokens[k:]``) and the
    occurrences of ``tokens[k]`` in ``tokens[k:]``. One pass from the end
    builds both: each word counts one more occurrence, its last one not yet
    counted."""
    masks, n, m = columns.masks, len(tokens), len(columns.ref)
    counted = [0] * (n + 1)
    remaining = [0] * n
    rest: dict[str, int] = {}  # token counts of tokens[k:]
    mask = 0
    for k in reversed(range(n)):
        tok = tokens[k]
        remaining[k] = rest[tok] = rest.get(tok, 0) + 1
        spare = masks.get(tok, 0) & ~mask
        if spare:
            mask |= 1 << (spare.bit_length() - 1)
        counted[k] = mask
    bounds = [
        _least_cut(pv, mv, distance, counted[k], k, n - k, m, distance + n - k)
        for k, (pv, mv, distance) in enumerate(states)
    ]
    return bounds, counted, remaining


def _seed_distance(
    current: list[str], columns: _ReferenceColumns, prefix: list[tuple[int, int, int]], bound: int, best: int
) -> tuple[int, list[str] | None]:
    """Probes a few shifts of ``current`` that ``_best_shift`` also scores:
    ``(bound, sequence)`` for the first probe whose distance is ``bound``,
    else ``(best, None)``, with ``best``, the round's distance when called,
    lowered to one above the least probe distance below it.

    ``current`` is tiled left to right into the longest blocks of 1 to
    ``MAX_SHIFT_LENGTH`` words that occur in the reference. A tile's probe
    moves it to start at its first occurrence ``ref[j:j + length]``, or to
    the end when ``current`` is too short for that; a tile already there
    gives none. The probes run farthest first, by ``|j - start|``, ties
    left to right. Each is fed with limit ``best``, so a score below it is
    exact, and ``best > bound`` catches a probe at the bound."""
    masks, n = columns.masks, len(current)
    moves, start = [], 0
    while start < n:
        occurs, longest = columns.full, 0  # bit i: current[start:start + longest] occurs from ref[i] on
        for length in range(1, min(MAX_SHIFT_LENGTH, n - start) + 1):
            occurs &= masks.get(current[start + length - 1], 0) >> (length - 1)
            if not occurs:
                break
            found, longest = occurs, length
        if not longest:
            start += 1
            continue
        j = (found & -found).bit_length() - 1
        end = start + longest
        # The block starts at p in the shifted sequence when it moves left, at p - length when it moves right.
        p = j if j < start else min(j + longest, n)
        if p != end:
            moves.append((-abs(j - start), start, end, p))
        start = end
    moves.sort()  # farthest first, ties left to right
    for _, start, end, p in moves:
        block = current[start:end]
        tokens = block + current[p:start] + current[end:] if p < start else current[end:p] + block + current[p:]
        keep = min(start, p)
        d = columns.feed(prefix[keep], tokens, limit=best)[2]
        if d == bound:
            return bound, current[:keep] + tokens
        if d < best:
            best = d + 1
    return best, None


def _best_shift(
    current: list[str],
    columns: _ReferenceColumns,
    bound: int,
) -> tuple[int, list[str] | None]:
    """The distance of ``current`` and the first shifted sequence, in (start,
    length, position) order, with a strictly smaller distance than every
    candidate before it; ``None`` if no shift lowers the distance. A round
    that reaches ``bound`` returns ``bound`` and some shift at it, which
    need not be the first: no shift goes below the multiset bound, so the
    round is the last, and ``ter``'s count is the same whichever it applies.

    Moves run in two frames ``(columns, sequence, prefix states, bound pass
    by kept prefix, bounds by kept suffix)``: ``current`` and the reversed
    ``current`` on the reversed columns, where a move left is a move right.
    A move right keeps ``sequence[:keep]``, and the positions of one block
    share a chain of column states fed from there over the words after the
    block; each position then feeds only the block and the rest. A
    candidate whose ``_prefix_bounds`` reach the best distance so far is
    skipped: it could not replace the first best. A block that is one word
    repeated, right after that same word, builds no chain: the same run
    from ``start - 1`` makes every one of its moves earlier.

    A chain stops before the first state whose prefix ``P`` rules out the
    rest: every position from there on is ``P`` followed by the block and
    the words after it in some order, so ``_least_cut`` of that state and
    those words, reaching the best distance so far, bounds them all. The
    chain's mask of those words starts from the bound pass's row ``keep``
    and loses at most one bit per word fed. A candidate's feed stops at the
    best distance by ``_ReferenceColumns.feed``'s cut-off. A cut feed's score
    already reaches the best distance, so it loses the strict ``<`` test as
    the full feed would, and every pick stays the same.

    Right after the prefix states, ``_seed_distance`` feeds its probes,
    shifts that the loop also scores. A probe at ``bound`` ends the round
    before the reversed states, the bound tables and the loop are built.
    Otherwise the best distance starts at what it returns, ``s + 1`` for
    the least probe distance ``s`` if below the distance less one: the
    first candidate at or below ``s`` is still the first best, since one at
    ``s`` exists, so no pick changes. The loop returns at the first candidate that
    reaches ``bound``. A seeded round that picks nothing is an internal
    error."""
    prefix = columns.prefix_states(current)
    distance = prefix[-1][2]
    if distance <= bound:
        return distance, None
    best_distance, probed = _seed_distance(current, columns, prefix, bound, distance)
    if probed is not None:
        return bound, probed
    n = len(current)
    reverse = current[::-1]
    suffix = columns.reversed.prefix_states(reverse)  # suffix[k]: the state after reverse[:k]
    head = _prefix_bounds(columns, current, prefix)
    tail = _prefix_bounds(columns.reversed, reverse, suffix)
    frames = (  # (mirrored, *frame): left moves first
        (True, columns.reversed, reverse, suffix, tail, head[0][::-1]),
        (False, columns, current, prefix, head, tail[0][::-1]),
    )
    best_sequence = None
    masks = columns.masks
    x = None  # the word before the block
    for start, first in enumerate(current):
        occurs = columns.full  # bit i: the block so far occurs in the reference from ref[i] on
        run = True
        for length in range(1, min(MAX_SHIFT_LENGTH, n - start) + 1):
            end = start + length
            tip = current[end - 1]
            occurs &= masks.get(tip, 0) >> (length - 1)
            # An extension of a block missing from the reference is missing too.
            if not occurs:
                break
            run = run and tip == first
            if run and x == tip:
                continue
            for mirrored, cols, seq, states, (lead, counted, remaining), trail in frames:
                keep = n - end if mirrored else start
                if lead[keep] >= best_distance:
                    continue
                block_end = keep + length
                block = seq[keep:block_end]
                remainder = (keep, block, counted[keep], remaining[block_end:])
                chain = cols.prefix_states(seq[block_end:], states[keep], best_distance, remainder)
                # Mirrored destinations run from the far end inward: positions ascend in current.
                last = block_end + len(chain) - 1
                destinations = range(last, block_end, -1) if mirrored else range(block_end + 1, last + 1)
                for rest in destinations:
                    if trail[rest] >= best_distance:
                        continue
                    d = cols.feed(chain[rest - block_end], block + seq[rest:], limit=best_distance)[2]
                    if d < best_distance:
                        best_distance = d
                        best_sequence = seq[:keep] + seq[block_end:rest] + block + seq[rest:]
                        if mirrored:
                            best_sequence.reverse()
                        if d == bound:
                            return best_distance, best_sequence
        x = first
    if best_sequence is None and best_distance < distance:
        raise RuntimeError(f"TER found no shift below its seed's limit {best_distance}")
    return best_distance, best_sequence


def ter(hyp: TokenSequence, ref: TokenSequence) -> TerScore:
    """Translation edit rate: edits / reference length.

    Edits are insertions, deletions, substitutions and block shifts at unit
    cost. Shifts are searched greedily: as long as some shift of a block (of
    up to ``MAX_SHIFT_LENGTH`` words, occurring verbatim in the reference)
    strictly reduces the word edit distance, the first best such shift in
    (start, length, position) order is applied and counted as one edit; the
    remaining edit distance is then added.

    No shift goes below ``multiset_edit_bound``, which shifts leave
    unchanged. So a round whose shift reaches it is the last, and its pick
    is free: every shift at the bound gives the same edits and shifts.
    ``_best_shift`` takes the first probe there, and no later round runs.
    """
    if not ref:
        raise RespevalInputError("reference segment is empty")
    columns = _ReferenceColumns(ref)
    current = list(hyp)
    bound = multiset_edit_bound(current, ref)
    shifts = 0
    while True:
        distance, shifted = _best_shift(current, columns, bound)
        if shifted is None:
            break
        current = shifted
        shifts += 1
        if distance == bound:  # no shift goes below the multiset bound
            break
    edits = shifts + distance
    return TerScore(edits=edits, shifts=shifts, ref_length=len(ref), ter=edits / len(ref))


# --- METEOR ---------------------------------------------------------------------

STAGE_EXACT = "exact"
STAGE_STEM = "stem"
STAGE_SYNONYM = "synonym"

# Nodes one stage's crossing-minimizing search may visit before it settles
# for the best maximum matching it has found (see ``_exact_stage_matching``
# and ``_best_stage_matching``).
METEOR_NODE_CAP = 200_000


@dataclass(frozen=True)
class MeteorAlignment:
    """One-to-one word matches (hyp index, ref index, stage), sorted by
    hypothesis position, with the chunk count over the final alignment.
    ``exhaustive`` is false when some stage's search stopped at
    ``METEOR_NODE_CAP``, so its matching may not have the fewest crossings."""

    matches: tuple[tuple[int, int, str], ...]
    chunks: int
    matched_unigrams: int
    exhaustive: bool


def _kuhn_max_matching(candidates: dict[int, list[int]]) -> list[tuple[int, int]]:
    """A maximum-cardinality matching (Kuhn's augmenting paths), sorted by hyp index.

    Each augmenting path is searched depth-first on an explicit stack of
    ``[hyp node, next candidate index]`` frames."""
    match_of_ref: dict[int, int] = {}
    for root in sorted(candidates):
        seen: set[int] = set()
        path = [[root, 0]]
        while path:
            frame = path[-1]
            h, i = frame
            options = candidates[h]
            while i < len(options) and options[i] in seen:
                i += 1
            if i == len(options):
                path.pop()
                continue
            r = options[i]
            frame[1] = i + 1
            seen.add(r)
            if r in match_of_ref:
                path.append([match_of_ref[r], 0])
                continue
            # Augment: every node on the path takes the candidate it tried last.
            for node, tried in path:
                match_of_ref[candidates[node][tried - 1]] = node
            break
    return sorted((h, r) for r, h in match_of_ref.items())


def _unwind(link: tuple) -> list[tuple[int, int]]:
    """The ``(h, r)`` pairs of a chain of ``(h, r, parent)`` links ending in ``()``, in hyp order."""
    pairs = []
    while link:
        h, r, link = link
        pairs.append((h, r))
    return pairs[::-1]


def _exact_stage_matching(
    hyp: TokenSequence, ref: TokenSequence
) -> tuple[list[tuple[int, int]], bool]:
    """The exact stage's maximum matching with the fewest crossings, and
    whether the search finished.

    Uncrossing two matches of one word always removes crossings, so every
    such matching pairs each word's occurrences in order, and it pairs
    min(count in hyp, count in ref) of them. The search walks the hypothesis
    positions whose word the reference has, left to right. At each it tries
    the word's next usable reference occurrences in ascending order, then
    leaving the position unmatched while the word has spare hypothesis
    occurrences: ``_best_stage_matching``'s depth-first order restricted to
    in-order matchings, so ties fall the same way. A branch is pruned when
    its crossings plus a lower bound on those every completion adds cannot
    beat the best found: a word's k remaining matches lie no further right
    than its last k reference occurrences, so each crosses at least the
    chosen matches to the right of those. The search stops after
    ``METEOR_NODE_CAP`` nodes once it has a matching.

    When every word found on both sides occurs once on each side, the
    matching that pairs those occurrences is the only maximum matching, and
    it is returned without a search.
    """
    occurrences: dict[str, list[int]] = {}  # each ref word's positions, ascending
    for j, tok in enumerate(ref):
        occurrences.setdefault(tok, []).append(j)
    nodes = [(h, tok) for h, tok in enumerate(hyp) if tok in occurrences]
    if len({tok for _, tok in nodes}) == len(nodes) and all(len(occurrences[tok]) == 1 for _, tok in nodes):
        return [(h, occurrences[tok][0]) for h, tok in nodes], True
    hyp_bits, bits = _masks(hyp), _masks(ref)
    needed = {tok: min(hyp_bits[tok].bit_count(), len(occurrences[tok])) for _, tok in nodes}
    # Bit j of ``used`` is set when ref[j] is matched, of ``tail`` when ref[j]
    # is among the last k occurrences of a word that still needs k matches
    # (at first every k is at least 1: the word occurs on both sides).
    tail = sum(1 << j for tok, k in needed.items() for j in occurrences[tok][-k:])
    best: tuple = ()
    best_crossings = math.inf
    visited = 0
    # A state: (depth, crossings, bound, its parent's ``used``, tail, link to its
    # last match); expanding it ORs in the link's match (a skip's is set already).
    stack: list[tuple] = [(0, 0, 0, 0, tail, ())]
    while stack:
        visited += 1
        if visited > METEOR_NODE_CAP and best_crossings < math.inf:
            return _unwind(best), False
        depth, crossings, bound, used, tail, link = stack.pop()
        if crossings + bound >= best_crossings:
            continue
        if depth == len(nodes):
            best, best_crossings = link, crossings
            continue
        if link:
            used |= 1 << link[1]
        h, tok = nodes[depth]
        occ = occurrences[tok]
        mine = used & bits[tok]
        missing = needed[tok] - mine.bit_count()
        # Pushed last-tried first: leaving h unmatched, then later occurrences.
        if (hyp_bits[tok] >> h).bit_count() > missing:
            stack.append((depth + 1, crossings, bound, used, tail, link))
        if missing:
            dropped = occ[len(occ) - missing]
            bound -= (used >> (dropped + 1)).bit_count()
            tail ^= 1 << dropped
            first = (bits[tok] & ((1 << mine.bit_length()) - 1)).bit_count()
            for r in reversed(occ[first : len(occ) - missing + 1]):
                stack.append(
                    (
                        depth + 1,
                        crossings + (used >> (r + 1)).bit_count(),
                        bound + (tail & ((1 << r) - 1)).bit_count(),
                        used,
                        tail,
                        (h, r, link),
                    )
                )
    return _unwind(best), True


def _best_stage_matching(
    candidates: dict[int, list[int]],
    prior: list[tuple[int, int]],
) -> tuple[list[tuple[int, int]], bool]:
    """Maximum-cardinality matching minimizing crossings with itself and with
    matches from earlier stages; ties fall to the lowest hyp/ref index pairs.
    Also returns whether the search finished.

    The depth-first search tries each hyp node's candidates in order, then
    leaving the node unmatched, from an explicit stack of states. Nodes come
    in hypothesis order, so a candidate ``r`` crosses exactly the chosen
    matches with a higher reference index: the set bits of ``used`` above
    ``r``. Its crossings with ``prior`` are counted once, before the search.
    It stops after ``METEOR_NODE_CAP`` nodes. It then keeps the best matching
    found so far, or Kuhn's maximum matching if it found none, so the size
    is always maximum.
    """
    hyp_nodes = sorted(candidates)
    if not hyp_nodes:
        return [], True
    fallback = _kuhn_max_matching(candidates)
    target = len(fallback)
    # Per node, its candidates ``(r, crossings with prior)``, last-tried first.
    options = [
        [(r, sum(1 for ph, pr in prior if (ph - h) * (pr - r) < 0)) for r in reversed(candidates[h])]
        for h in hyp_nodes
    ]
    best: tuple | None = None
    best_crossings = math.inf
    visited = 0
    # A state: (hyp node index, crossings, its parent's used ref indices as bits,
    # link to its last match); popping it ORs in the link's match, before the prune.
    stack: list[tuple] = [(0, 0, 0, ())]
    while stack:
        visited += 1
        if visited > METEOR_NODE_CAP:
            return (fallback if best is None else _unwind(best)), False
        idx, crossings, used, link = stack.pop()
        if link:
            used |= 1 << link[1]
        if used.bit_count() + (len(hyp_nodes) - idx) < target or crossings >= best_crossings:
            continue
        if idx == len(hyp_nodes):
            best, best_crossings = link, crossings
            continue
        h = hyp_nodes[idx]
        stack.append((idx + 1, crossings, used, link))
        for r, prior_crossings in options[idx]:
            if not used >> r & 1:
                delta = prior_crossings + (used >> (r + 1)).bit_count()
                stack.append((idx + 1, crossings + delta, used, (h, r, link)))
    return _unwind(best), True


def _count_chunks(matches: tuple[tuple[int, int, str], ...]) -> int:
    """The chunks of ``matches``, sorted by hypothesis index."""
    if not matches:
        return 0
    chunks = 1
    for (h1, r1, _), (h2, r2, _) in zip(matches, matches[1:]):
        if h2 != h1 + 1 or r2 != r1 + 1:
            chunks += 1
    return chunks


def _alignment(matches: list[tuple[int, int, str]], exhaustive: bool) -> MeteorAlignment:
    ordered = tuple(sorted(matches))
    return MeteorAlignment(ordered, _count_chunks(ordered), len(ordered), exhaustive)


def meteor_align(
    hyp: TokenSequence,
    ref: TokenSequence,
    resources: LanguageResources = _EMPTY_RESOURCES,
    exact: MeteorAlignment | None = None,
) -> MeteorAlignment:
    """Incremental alignment: exact matches first, then stem matches, then
    synonym matches; each stage only considers words left unmatched before it.

    ``exact``, when given, is ``meteor_align(hyp, ref)``: the exact stage
    alone, which the later stages then extend instead of searching it again."""
    if exact is None:
        pairs, exhaustive = _exact_stage_matching(hyp, ref)
        exact = _alignment([(h, r, STAGE_EXACT) for h, r in pairs], exhaustive)
    if not (resources.stems or resources.synonyms):
        return exact
    all_matches = list(exact.matches)
    exhaustive = exact.exhaustive
    # A hyp word and a ref word match at a stage when their keys meet: stems
    # for both, or the hyp word's synonyms and the ref word itself.
    for stage, hyp_keys, ref_keys, active in (
        (STAGE_STEM, resources.stems_of, resources.stems_of, resources.stems),
        (STAGE_SYNONYM, resources.synonyms_of, lambda tok: (tok,), resources.synonyms),
    ):
        if not active or len(all_matches) == min(len(hyp), len(ref)):  # a side is fully matched
            continue
        matched_hyp = {h for h, _, _ in all_matches}
        matched_ref = {r for _, r, _ in all_matches}
        positions: dict[str, list[int]] = {}  # key -> its unmatched ref positions, ascending
        for j, r_tok in enumerate(ref):
            if j not in matched_ref:
                for key in ref_keys(r_tok):
                    positions.setdefault(key, []).append(j)
        candidates: dict[int, list[int]] = {}
        for i, h_tok in enumerate(hyp):
            if i in matched_hyp:
                continue
            hits = [positions[key] for key in hyp_keys(h_tok) if key in positions]
            if hits:
                candidates[i] = sorted(set().union(*hits))
        prior = [(h, r) for h, r, _ in all_matches]
        pairs, finished = _best_stage_matching(candidates, prior)
        all_matches += [(h, r, stage) for h, r in pairs]
        exhaustive = exhaustive and finished
    return _alignment(all_matches, exhaustive)


@dataclass(frozen=True)
class MeteorScore:
    precision: float
    recall: float
    fmean: float
    penalty: float
    score: float
    penalty_exponent: float
    alignment: MeteorAlignment


def meteor(
    hyp: TokenSequence,
    ref: TokenSequence,
    resources: LanguageResources = _EMPTY_RESOURCES,
    penalty_exponent: float = 1.0,
    function_word_weight: float = 0.2,
    exact: MeteorAlignment | None = None,
) -> MeteorScore:
    """Harmonic mean 10PR/(R+9P) discounted by the fragmentation penalty
    0.5 * (chunks / matched)^exponent.

    When the bundle lists function words, precision and recall weight them
    ``function_word_weight``, in [0, 1], and other words 1. ``exact``, when
    given, is ``meteor_align(hyp, ref)``, such as plain METEOR's alignment of
    the pair; the alignment then reuses it as its exact stage (see
    ``meteor_align``). ``penalty_exponent`` is a finite number > 0.
    """
    if not 0.0 < penalty_exponent < math.inf:
        raise RespevalInputError("penalty_exponent must be a finite number > 0")
    if not 0.0 <= function_word_weight <= 1.0:
        raise RespevalInputError("function_word_weight must lie in [0, 1]")
    alignment = meteor_align(hyp, ref, resources, exact)
    matched = alignment.matched_unigrams
    if matched == 0:
        return MeteorScore(0.0, 0.0, 0.0, 0.0, 0.0, penalty_exponent, alignment)
    if resources.function_words:
        listed = resources.function_words
        hyp_weights = [function_word_weight if tok in listed else 1.0 for tok in hyp]
        ref_weights = [function_word_weight if tok in listed else 1.0 for tok in ref]
        matched_hyp_weight = sum(hyp_weights[h] for h, _, _ in alignment.matches)
        matched_ref_weight = sum(ref_weights[r] for _, r, _ in alignment.matches)
        total_hyp = sum(hyp_weights)
        total_ref = sum(ref_weights)
        precision = matched_hyp_weight / total_hyp if total_hyp > 0 else 0.0
        recall = matched_ref_weight / total_ref if total_ref > 0 else 0.0
    else:
        # Unit weights: the sums above would be these counts, exactly.
        precision = matched / len(hyp)
        recall = matched / len(ref)
    denom = recall + 9.0 * precision
    fmean = (10.0 * precision * recall / denom) if denom > 0 else 0.0
    penalty = 0.5 * (alignment.chunks / matched) ** penalty_exponent
    return MeteorScore(
        precision=precision,
        recall=recall,
        fmean=fmean,
        penalty=penalty,
        score=fmean * (1.0 - penalty),
        penalty_exponent=penalty_exponent,
        alignment=alignment,
    )


# --- rank statistics and RIBES -----------------------------------------------


def _check_rank_input(positions: Sequence[int]) -> None:
    if len(positions) < 2:
        raise RespevalInputError(f"need >= 2 positions, got {len(positions)}")
    if len(set(positions)) != len(positions):
        raise RespevalInputError("positions must be distinct")


def kendall_nkt(positions: Sequence[int]) -> float:
    """Kendall's tau over the position list, rescaled to [0, 1]. Each position
    is inserted into the sorted list of those before it, where ``bisect_left``
    counts the earlier, smaller ones: its concordant pairs."""
    _check_rank_input(positions)
    n = len(positions)
    pairs = n * (n - 1) // 2
    concordant = 0
    earlier: list[int] = []
    for p in positions:
        k = bisect_left(earlier, p)
        concordant += k
        earlier.insert(k, p)
    tau = (2 * concordant - pairs) / pairs
    return (tau + 1.0) / 2.0


def spearman_nsr(positions: Sequence[int]) -> float:
    """Spearman's rho over the position list, rescaled to [0, 1].

    Positions are rank-transformed first, so gaps (unaligned words skipped
    in between) do not distort the statistic.
    """
    _check_rank_input(positions)
    n = len(positions)
    order = sorted(range(n), key=lambda i: positions[i])
    rank = [0] * n
    for rnk, i in enumerate(order):
        rank[i] = rnk
    d2 = sum((rank[i] - i) ** 2 for i in range(n))
    rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    return (rho + 1.0) / 2.0


def _narrow(positions: int, mask: int, offset: int) -> int:
    """The positions ``j`` of the mask ``positions`` whose context has the word
    of ``mask`` at ``j + offset``."""
    return positions & (mask >> offset if offset > 0 else mask << -offset)


def word_rank_alignment(hyp: TokenSequence, ref: TokenSequence) -> list[int]:
    """Reference positions of hypothesis words, in hypothesis order.

    Words unique in both sides align directly; repeated words are
    disambiguated by growing the context one word at a time, right before
    left at each width, until the context occurs exactly once in both
    sentences. Each side's word -> position mask table is built once; from
    it, each side keeps one mask of the positions whose context still
    matches, narrowed by one shift and one ``&`` per step, so memory stays
    linear in the sentence length. Words whose ambiguity survives are left
    unaligned, and every reference position is used at most once.
    """
    if hyp == ref:
        return list(range(len(hyp)))
    hyp_masks, ref_masks = _masks(hyp), _masks(ref)
    used = 0
    worder: list[int] = []
    for i, word in enumerate(hyp):
        hyp_right = hyp_left = hyp_masks[word]
        ref_right = ref_left = ref_masks.get(word, 0)
        position = None
        # Width 0 is the word itself, whose positions the tables hold; the left
        # context starts at width 1.
        for width in range(max(i, len(hyp) - i) + 1):
            if not ref_right and not ref_left:
                break
            if i + width < len(hyp):
                if width:
                    tok = hyp[i + width]
                    hyp_right = _narrow(hyp_right, hyp_masks[tok], width)
                    ref_right = _narrow(ref_right, ref_masks.get(tok, 0), width)
                if hyp_right.bit_count() == 1 and ref_right.bit_count() == 1:
                    position = ref_right.bit_length() - 1
                    break
            if 0 < width <= i:
                tok = hyp[i - width]
                hyp_left = _narrow(hyp_left, hyp_masks[tok], -width)
                ref_left = _narrow(ref_left, ref_masks.get(tok, 0), -width)
                if hyp_left.bit_count() == 1 and ref_left.bit_count() == 1:
                    position = ref_left.bit_length() - 1
                    break
        if position is not None and not used >> position & 1:
            used |= 1 << position
            worder.append(position)
    return worder


RIBES_VARIANTS = ("nkt", "nsr")


@dataclass(frozen=True)
class RibesScore:
    nkt: float
    nsr: float
    precision: float
    alpha: float
    variant: str
    score: float


def ribes(
    hyp: TokenSequence,
    ref: TokenSequence,
    alpha: float = 0.25,
    variant: str = "nkt",
) -> RibesScore:
    """Word-order score: normalized rank correlation times P^alpha, where P is
    the fraction of hypothesis words that could be aligned.

    Fewer than two aligned words give score 0 (the correlation is undefined),
    except that identical sentences always score 1.
    """
    if not 0.0 < alpha < 1.0:
        raise RespevalInputError("alpha must lie strictly between 0 and 1")
    if variant not in RIBES_VARIANTS:
        raise RespevalInputError(f"variant must be one of {RIBES_VARIANTS}")
    if hyp and hyp == ref:
        return RibesScore(nkt=1.0, nsr=1.0, precision=1.0, alpha=alpha, variant=variant, score=1.0)
    worder = word_rank_alignment(hyp, ref)
    if len(worder) < 2:
        return RibesScore(nkt=0.0, nsr=0.0, precision=0.0, alpha=alpha, variant=variant, score=0.0)
    nkt = kendall_nkt(worder)
    nsr = spearman_nsr(worder)
    precision = len(worder) / len(hyp)
    statistic = nkt if variant == "nkt" else nsr
    return RibesScore(
        nkt=nkt,
        nsr=nsr,
        precision=precision,
        alpha=alpha,
        variant=variant,
        score=statistic * precision**alpha,
    )
