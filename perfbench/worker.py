"""One workload run in a fresh interpreter, started by ``run.py``:

    python3 perfbench/worker.py ROOT WORKDIR WORKLOAD SEED SECONDS TRACE

A single caller, no threads: a closed loop that issues each ``score`` call
through ``respeval.cli.main`` only after the previous one returned. The loop
runs whole studies, each a fresh set of transcripts, until the studies have
taken SECONDS; a study ends with ``ner`` on its annotation CSV, ``regress``
of NER on the per-transcript aggregates and ``regress --fixture table1``.
Outputs are checked after each study, outside its timing. Without tracing,
calls and passes are timed against the host speed sampled during them
(``hostspeed``) and reported scaled to its reference. With TRACE 1 the
layers are traced, the last study is replayed untraced for the tracing
overhead, and the TER scaling probe runs. The result goes to
WORKDIR/result.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpus  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, percentile, rank  # noqa: E402

PROBE_LENGTHS = (10, 20, 40, 60)
PROBE_BUDGET_S = 10.0  # per TER call; when the benchmark was defined 40 tokens fit, 60 did not
ORACLE_SAMPLES = 8
ORACLE_TOKENS = 7  # the exhaustive shift search is exponential in length
GOLDEN_TRANSCRIPTS = 2
AGGREGATE_COLUMNS = (
    ("BLEU", "bleu"),
    ("NIST", "nist"),
    ("TER", "ter"),
    ("METEOR", "meteor"),
    ("METEOR-PL", "meteor_pl"),
    ("EBLEU", "ebleu"),
    ("RIBES", "ribes"),
)


class ProbeTimeout(Exception):
    pass


class Runner:
    """Calls ``respeval.cli.main`` and counts operations and failures.

    An operation is one ``score``, ``ner`` or ``regress`` call, the golden
    digest comparison or one oracle sample; it fails on a non-zero exit or a
    failed output check. Call and pass times leave out the time spent
    sampling the host speed (``hostspeed``).
    """

    def __init__(self, main, workload: corpus.Workload, resource_args: list[str]):
        self.main = main
        self.workload = workload
        self.resource_args = resource_args
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.score_times: list[float] = []
        self.study_times: list[float] = []
        # (start, end) perf_counter readings of each score call and pass
        self.score_spans: list[tuple[float, float]] = []
        self.study_spans: list[tuple[float, float]] = []
        self.call_time = 0.0
        self.span = (0.0, 0.0)  # (start, end) of the last call
        self.segments = 0
        self.host = HostSpeed()
        self._out = io.StringIO()
        self._err = io.StringIO()

    def call(self, argv: list[str]) -> tuple[list[str], str, float]:
        """Runs one command; returns (problems, stdout, wall time)."""
        for stream in (self._out, self._err):
            stream.seek(0)
            stream.truncate()
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            begin = time.perf_counter()
            start = begin - self.host.spent
            try:
                code = self.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            end = time.perf_counter()
            elapsed = end - self.host.spent - start
        self.call_time += elapsed
        self.span = (begin, end)
        problems = [f"{argv[0]} exited {code}: {self._err.getvalue().strip()}"] if code else []
        return problems, self._out.getvalue(), elapsed

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def study(self, study: corpus.Study, files: dict, directory: Path) -> str:
        """Scores, annotates and regresses one pass over ``study``, then
        checks the outputs; returns the digest of the JSONL reports."""
        scored = []
        begin = time.perf_counter()
        start = begin - self.host.spent
        for i, (hyp, refs) in enumerate(files["transcripts"]):
            out = str(directory / f"t{i:03d}.jsonl")
            problems, _, elapsed = self.call(["score", hyp, *refs, *self.resource_args, "--json", out])
            self.score_times.append(elapsed)
            self.score_spans.append(self.span)
            self.segments += len(study.transcripts[i].hyp)
            scored.append((problems, out))
        ner_problems, ner_text, _ = self.call(["ner", files["ner_csv"]])
        table = directory / "regression.csv"
        regress_json = str(directory / "regression.json")
        if _write_regression_table(scored, ner_text, table):
            regress_problems = self.call(["regress", str(table), "--response", "NER", "--json", regress_json])[0]
        else:
            regress_problems = ["no regression table: a score or ner output is missing"]
        table1_json = str(directory / "table1.json")
        table1_problems = self.call(["regress", "--fixture", "table1", "--json", table1_json])[0]
        end = time.perf_counter()
        self.study_times.append(end - self.host.spent - start)
        self.study_spans.append((begin, end))

        pl = self.workload.resources
        for (problems, out), transcript in zip(scored, study.transcripts):
            self.record(problems or check.score_output(out, len(transcript.hyp), pl))
        rows = len(ner_text.splitlines()) - 1
        wrong_rows = [] if rows == len(study.transcripts) else [f"ner printed {rows} rows"]
        self.record(ner_problems or wrong_rows)
        self.record(regress_problems or check.regress_output(regress_json))
        self.record(table1_problems or check.table1_output(table1_json))
        return check.digest([out for _, out in scored if Path(out).is_file()])


def _write_regression_table(scored, ner_text: str, path: Path) -> bool:
    """CSV of the per-transcript aggregates with the NER accuracy that
    ``respeval ner`` printed; False when an input is missing."""
    if any(problems for problems, _ in scored):
        return False
    try:
        ner = [line.split()[4] for line in ner_text.splitlines()[1:]]
        aggregates = [
            json.loads(Path(out).read_text(encoding="utf-8").splitlines()[-1])
            for _, out in scored
        ]
        metric_columns = [
            (name, tuple(aggregate[key] for aggregate in aggregates))
            for name, key in AGGREGATE_COLUMNS
        ]
    except (OSError, ValueError, IndexError, KeyError):
        return False
    if len(ner) != len(aggregates):
        return False
    # Like any user of the regression, leave out a metric that is constant or
    # repeats an earlier one (EBLEU equals BLEU when no word is rare), since
    # the fit rejects a rank-deficient design.
    columns: dict[str, tuple] = {}
    for name, values in metric_columns:
        if None not in values and len(set(values)) > 1 and values not in columns.values():
            columns[name] = values
    lines = ["id," + ",".join(columns) + ",NER"]
    for i, accuracy in enumerate(ner):
        lines.append(f"t{i:03d}," + ",".join(str(v[i]) for v in columns.values()) + f",{accuracy}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return True


def run_passes(runner: Runner, study: corpus.Study, work: Path, seconds: float) -> int:
    """Scores ``study`` pass after pass until the passes have taken about
    ``seconds``: another pass starts only while it is expected to end within
    half a pass of ``seconds``. Every pass must write the same bytes as the
    first. Returns the number of passes, at least one."""
    directory = work / "study"
    files = corpus.write_study(study, directory)
    first = runner.study(study, files, directory)
    passes = 1
    while sum(runner.study_times) * (1 + 0.5 / passes) <= seconds:
        digest = runner.study(study, files, directory)
        runner.record([] if digest == first else [f"pass {passes + 1} output differs from pass 1"])
        passes += 1
    return passes


def golden_check(runner: Runner, workload: corpus.Workload, work: Path) -> str:
    """Scores the first transcripts of the seed-0 study and the table1
    regression; their bytes must hash to the digests in golden.json."""
    language = corpus.Language(workload, 0)
    study = language.study(0)
    study.transcripts = study.transcripts[:GOLDEN_TRANSCRIPTS]
    directory = work / "golden"
    files = corpus.write_study(study, directory)
    args = language.write(directory / "resources")
    paths = []
    problems = []
    for i, (hyp, refs) in enumerate(files["transcripts"]):
        paths.append(str(directory / f"t{i:03d}.jsonl"))
        problems += runner.call(["score", hyp, *refs, *args, "--json", paths[-1]])[0]
    paths.append(str(directory / "table1.json"))
    problems += runner.call(["regress", "--fixture", "table1", "--json", paths[-1]])[0]
    value = "failed" if problems else check.digest(paths)
    runner.record(problems or check.golden(workload.name, value))
    shutil.rmtree(directory)
    return value


def oracle_check(runner: Runner, study: corpus.Study, ter, oracles) -> None:
    for transcript in study.transcripts[:ORACLE_SAMPLES]:
        hyp = transcript.hyp[0][:ORACLE_TOKENS]
        ref = transcript.refs[0][0][:ORACLE_TOKENS]
        runner.record(check.ter_oracle(ter, oracles, hyp, ref))


def ter_probe(ter, seed: int) -> dict:
    """TER call time at each probe length; a call over budget is stopped
    and reported as exceeded with the time it ran."""

    def expire(signum, frame):
        raise ProbeTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    results = {}
    try:
        for length in PROBE_LENGTHS:
            hyp, ref = corpus.probe_pair(seed, length)
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, PROBE_BUDGET_S)
            try:
                ter(hyp, ref)
                status = "done"
            except ProbeTimeout:
                status = "exceeded"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results[length] = (time.perf_counter() - start, status)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results


def main(argv: list[str]) -> int:
    root, work = Path(argv[0]), Path(argv[1])
    name, seed, seconds, traced = argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import oracles
    import respeval.align_metrics as align_metrics
    import respeval.cli as cli

    workload = corpus.WORKLOADS[name]
    language = corpus.Language(workload, seed)
    study = language.study(seed)
    runner = Runner(cli.main, workload, language.write(work / "resources"))
    details: dict = {"corpus": study.facts()}
    metrics: dict[str, float] = {}

    if not traced:
        with runner.host:
            details["passes"] = run_passes(runner, study, work, seconds)
        times = sorted(runner.score_times)
        # Each call and pass scaled to the reference host speed by the
        # calibration chunks that ran during it (hostspeed).
        host = runner.host
        calls = sorted(
            t * host.scale_at(*span) for t, span in zip(runner.score_times, runner.score_spans)
        )
        passes = [
            t * host.scale_at(*span) for t, span in zip(runner.study_times, runner.study_spans)
        ]
        metrics["segments_per_s"] = runner.segments / sum(calls)
        metrics["transcript_p50_s"] = statistics.median(calls)
        metrics["transcript_tail_s"] = percentile(calls, workload.tail_pct)
        metrics["study_s"] = statistics.median(passes)
        details["wall"] = {
            "segments_per_s": runner.segments / sum(times),
            "transcript_p50_s": statistics.median(times),
            "transcript_tail_s": percentile(times, workload.tail_pct),
            "study_s": statistics.median(runner.study_times),
        }
        details["host_speed"] = host.facts()
        details["transcript_tail"] = {
            "percentile": workload.tail_pct,
            "calls": len(times),
            "beyond": len(times) - rank(len(times), workload.tail_pct),
        }
    else:
        tracer = Tracer()
        tracer.install()
        traced_cli_main = tracer.wrap("cli.main", cli.main)

        def traced_main(argv):
            try:
                return traced_cli_main(argv)
            finally:
                tracer.end_call()

        runner.main = traced_main
        passes = run_passes(runner, study, work, seconds)
        tracer.uninstall()
        runner.main = cli.main
        traced_study = runner.study_times[-1]
        metrics.update(tracer.summary(passes))
        # Layer self times against the wall time of the traced calls as the
        # caller saw it: the share the spans account for.
        layers = sum(v for k, v in metrics.items() if k.endswith(".self_s")) * passes
        metrics["trace.accounted_share"] = layers / runner.call_time
        # One more pass untraced: same inputs, same work.
        runner.study(study, corpus.write_study(study, work / "replay"), work / "replay")
        metrics["trace.overhead_ratio"] = traced_study / runner.study_times[-1]
        probe = ter_probe(align_metrics.ter, seed)
        for length, (elapsed, status) in probe.items():
            metrics[f"align_metrics.ter.len{length}_s"] = elapsed
        metrics["align_metrics.ter.probe_exceeded"] = sum(s == "exceeded" for _, s in probe.values())
        details["ter_probe"] = {
            f"len{length}": elapsed if status == "done" else "exceeded"
            for length, (elapsed, status) in probe.items()
        }
        details["ter_probe_budget_s"] = PROBE_BUDGET_S
        details["passes"] = passes

    details["golden_digest"] = golden_check(runner, workload, work)
    oracle_check(runner, study, align_metrics.ter, oracles)
    if not traced:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "metrics": metrics,
        "details": details,
    }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
