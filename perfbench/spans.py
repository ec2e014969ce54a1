"""Spans and counters around respeval's layer boundaries, kept in memory.

The tracer replaces module attributes that ``respeval.cli`` calls through
(``respeval.cli.ter``, ``respeval.align_metrics.word_levenshtein``, ...) with
wrappers and restores them on ``uninstall``; the package itself is untouched.
A span records its name, start, end and the span open when it started. The
functions called most often (``ngrams``, ``word_levenshtein``) get a counter
only, so tracing cost stays small next to the work they do.

A span's self time is its duration minus the durations of its child spans;
a layer's self time sums the self times of its spans, so the layer self
times of all spans under the ``cli.main`` roots add up to those roots' wall
time.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter

# Percentiles tried for a tail figure, highest first; the first with at
# least ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> float:
    """The highest percentile of ``TAIL_LADDER`` with at least ten samples
    beyond it, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n - rank(n, p) >= 10), 50.0)
    return percentile(ordered, pct)


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(n * pct / 100.0))


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[rank(len(ordered), pct) - 1]


class Tracer:
    """Installs the wrappers, records spans and counts, reduces them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Lists returned by read_segments: n-gram metric calls that receive
        # one of them score a whole transcript, the others a single segment.
        self._corpora: set[int] = set()

    # --- recording --------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """``fn`` recorded as a span; ``name`` may be a function of the call's
        arguments; ``on_result(args, result)`` records counts."""

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name if isinstance(name, str) else name(args))
            self.parents.append(self._open[-1] if self._open else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.starts[index] = start
                self.ends[index] = end
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counted(self, key: str, fn):
        """``fn`` with its calls counted under ``key``, no span."""

        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return  # a layer function that no longer exists is simply not traced
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        import respeval.align_metrics as am
        import respeval.cli as cli
        import respeval.ngram_metrics as nm
        import respeval.stats as st

        def read(args, segments):
            self._corpora.add(id(segments))
            self.counts["textcore.tokens"] += sum(len(seg) for seg in segments)

        def ngram_name(metric):
            return lambda args: (
                f"ngram_metrics.{metric}.corpus"
                if id(args[0]) in self._corpora
                else f"ngram_metrics.{metric}.segment"
            )

        def ter_done(args, score):
            self.counts["align_metrics.ter.shifts"] += score.shifts

        def meteor_done(args, score):
            self.counts["align_metrics.meteor.matches"] += score.alignment.matched_unigrams

        def aligned(args, worder):
            self.counts["align_metrics.ribes.unaligned_words"] += len(args[0]) - len(worder)

        self._patch(cli, "read_segments", lambda f: self.wrap("textcore.read_segments", f, read))
        self._patch(cli, "load_resources", lambda f: self.wrap("resources.load_resources", f))
        for metric in ("bleu", "nist", "ebleu"):
            self._patch(cli, metric, lambda f, m=metric: self.wrap(ngram_name(m), f))
        self._patch(cli, "ter", lambda f: self.wrap("align_metrics.ter", f, ter_done))
        # meteor_pl calls align_metrics.meteor, so its own span keeps only self time.
        for owner in (cli, am):
            self._patch(owner, "meteor", lambda f: self.wrap("align_metrics.meteor", f, meteor_done))
        self._patch(cli, "meteor_pl", lambda f: self.wrap("align_metrics.meteor_pl", f))
        self._patch(cli, "ribes", lambda f: self.wrap("align_metrics.ribes", f))
        self._patch(cli.MetricReport, "to_text", lambda f: self.wrap("cli.report", f))
        self._patch(cli.MetricReport, "to_jsonl", lambda f: self.wrap("cli.report", f))
        self._patch(cli, "parse_ner_annotations", lambda f: self.wrap("ner.parse_ner_annotations", f))
        self._patch(cli, "backward_eliminate", lambda f: self.wrap("stats.backward_eliminate", f))
        self._patch(cli, "load_fixture", lambda f: self.wrap("fixtures.load_fixture", f))
        self._patch(nm, "ngrams", lambda f: self.counted("ngram_metrics.ngrams.calls", f))
        self._patch(
            am, "word_levenshtein", lambda f: self.counted("align_metrics.word_levenshtein.calls", f)
        )
        self._patch(
            am,
            "_greedy_stage_matching",
            lambda f: self.counted("align_metrics.meteor.greedy_fallbacks", f),
        )
        self._patch(
            am, "word_rank_alignment", lambda f: self.wrap("align_metrics.word_rank_alignment", f, aligned)
        )
        self._patch(st, "ols_fit", lambda f: self.counted("stats.ols_fit.calls", f))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def end_call(self) -> None:
        """Forget the transcript lists of the ``cli.main`` call that ended."""
        self._corpora.clear()

    # --- reduction ----------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer figures per study pass: busy and self times, call counts,
        the TER call-time distribution and the counters."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        busy: Counter = Counter()
        calls: Counter = Counter()
        self_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        for i, name in enumerate(self.names):
            busy[name] += durations[i]
            calls[name] += 1
            self_by_name[name] += durations[i] - child[i]
            self_by_layer[name.split(".")[0]] += durations[i] - child[i]

        out: dict[str, float] = {}
        for layer in ("cli", "textcore", "resources", "ngram_metrics", "align_metrics", "ner", "stats", "fixtures"):
            out[f"{layer}.self_s"] = self_by_layer[layer] / passes
        for name in (
            "cli.report",
            "textcore.read_segments",
            "resources.load_resources",
            "align_metrics.ter",
            "align_metrics.meteor",
            "align_metrics.ribes",
            "ner.parse_ner_annotations",
            "stats.backward_eliminate",
            "fixtures.load_fixture",
        ):
            out[f"{name}.busy_s"] = busy[name] / passes
        out["align_metrics.meteor_pl.busy_s"] = self_by_name["align_metrics.meteor_pl"] / passes
        for metric in ("bleu", "nist", "ebleu"):
            for kind in ("segment", "corpus"):
                name = f"ngram_metrics.{metric}.{kind}"
                out[f"{name}.busy_s"] = busy[name] / passes
                out[f"{name}.calls"] = calls[name] / passes
        for name in ("align_metrics.ter", "align_metrics.meteor"):
            out[f"{name}.calls"] = calls[name] / passes
        ter_times = [durations[i] for i, name in enumerate(self.names) if name == "align_metrics.ter"]
        if ter_times:
            out["align_metrics.ter.p50_s"] = statistics.median(ter_times)
            out["align_metrics.ter.tail_s"] = tail(ter_times)
        for key in (
            "textcore.tokens",
            "ngram_metrics.ngrams.calls",
            "align_metrics.word_levenshtein.calls",
            "align_metrics.ter.shifts",
            "align_metrics.meteor.matches",
            "align_metrics.meteor.greedy_fallbacks",
            "align_metrics.ribes.unaligned_words",
            "stats.ols_fit.calls",
        ):
            out[key] = self.counts[key] / passes
        return out
