"""Command-line front end: score transcripts, compute NER accuracy, fit the
NER regression, apply a fitted model, and export the bundled tables.

Exit codes: 0 success, 1 internal/numeric failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .align_metrics import meteor, ribes, ter
from .fixtures import FIXTURE_NAMES, METRIC_COLUMNS, RESPONSE_COLUMN, fixture_csv, load_fixture
from .ngram_metrics import (
    MAX_NGRAM_ORDER,
    NgramConfig,
    bleu_from_stats,
    corpus_stats,
    ebleu_from_stats,
    nist_from_stats,
)
from .ner import ner_accuracy, parse_ner_annotations, reduction_rate
from .resources import load_resources
from .stats import DataTable, EliminationTrace, RegressionModel, backward_eliminate, predict
from .textcore import (
    RespevalInputError,
    TokenizerConfig,
    check_aligned,
    line_at,
    read_number,
    read_segments,
    read_text,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

METRIC_FIELDS = ("bleu", "nist", "ter", "meteor", "meteor_pl", "ebleu", "ribes")


def _rounded(columns: dict[str, float | None]) -> dict[str, float | None]:
    return {name: None if value is None else round(value, 6) for name, value in columns.items()}


def _sha256(path: str | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class MetricReport:
    """Per-segment scores (x100), corpus aggregates and a config echo."""

    config: dict
    segments: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"record": "config", **self.config}, sort_keys=True)]
        for seg in self.segments:
            lines.append(json.dumps({"record": "segment", **seg}, sort_keys=True))
        lines.append(json.dumps({"record": "aggregate", **self.aggregate}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        headers = ["SEG", *METRIC_COLUMNS]
        labelled = [(str(seg["index"]), seg) for seg in self.segments] + [("ALL", self.aggregate)]
        rows = [[label] + [_fmt_cell(record[name]) for name in METRIC_FIELDS] for label, record in labelled]
        widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
        out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for row in rows:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(out) + "\n"


def _fmt_cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def score_transcript(
    hyp_corpus, ref_corpus, config: NgramConfig, *, meteor_penalty_exp, ribes_alpha, ribes_variant
) -> tuple[list[dict[str, float | None]], dict[str, float | None]]:
    """The ``score`` columns of one transcript: one dict per segment and the
    aggregate, each keyed by ``METRIC_FIELDS``, unrounded and x100 except NIST.

    A segment keeps the best value over its references, and its METEOR-PL
    (``None`` when ``config.resources`` is empty) extends each pair's plain
    METEOR alignment. The aggregate reduces BLEU, NIST and EBLEU over every
    segment's counts, and averages TER, METEOR, METEOR-PL and RIBES.
    """
    stats = corpus_stats(hyp_corpus, ref_corpus, config)
    segments: list[dict[str, float | None]] = []
    for hyp, refs, seg_stats in zip(hyp_corpus, ref_corpus, stats):
        plain = [meteor(hyp, ref, penalty_exponent=meteor_penalty_exp) for ref in refs]
        meteor_pl = None
        if not config.resources.is_empty():
            # METEOR-PL extends each pair's exact stage: plain METEOR's whole alignment
            meteor_pl = max(
                meteor(hyp, ref, config.resources, meteor_penalty_exp, exact=score.alignment).score
                for ref, score in zip(refs, plain)
            ) * 100.0
        segments.append({
            "bleu": bleu_from_stats([seg_stats], config).score * 100.0,
            "nist": nist_from_stats([seg_stats], config),
            "ter": min(ter(hyp, ref).ter for ref in refs) * 100.0,
            "meteor": max(score.score for score in plain) * 100.0,
            "meteor_pl": meteor_pl,
            "ebleu": ebleu_from_stats([seg_stats], config).score * 100.0,
            "ribes": max(
                ribes(hyp, ref, alpha=ribes_alpha, variant=ribes_variant).score for ref in refs
            ) * 100.0,
        })
    aggregate: dict[str, float | None] = {
        "bleu": bleu_from_stats(stats, config).score * 100.0,
        "nist": nist_from_stats(stats, config),
        "ebleu": ebleu_from_stats(stats, config).score * 100.0,
    }
    for name in ("ter", "meteor", "meteor_pl", "ribes"):
        values = [seg[name] for seg in segments if seg[name] is not None]
        aggregate[name] = sum(values) / len(values) if values else None
    return segments, aggregate


def cmd_score(args: argparse.Namespace) -> int:
    tok_cfg = TokenizerConfig(
        lowercase=not args.no_lowercase,
        split_punctuation=args.punctuation == "split",
        strip_punctuation=args.punctuation == "strip",
    )
    hyp_corpus = read_segments(args.hypothesis, tok_cfg)
    ref_files = [read_segments(path, tok_cfg, "reference") for path in args.references]
    for path, segments in zip(args.references, ref_files):
        check_aligned(len(hyp_corpus), len(segments), path)
    ref_corpus = [list(refs) for refs in zip(*ref_files)]
    resource_files = {name: getattr(args, name) for name in ("synonyms", "stems", "function_words")}
    # every resource lookup is on a token of the transcripts, so only their entries are built
    vocabulary = None
    if any(resource_files.values()):
        vocabulary = {tok for segments in (hyp_corpus, *ref_files) for seg in segments for tok in seg}
    resources = load_resources(
        **resource_files, function_word_weight=args.function_word_weight, vocabulary=vocabulary
    )
    # score's flags share their dests with NgramConfig's fields and with
    # score_transcript's alignment settings; the report echoes them by name
    ngram_settings = {f.name: getattr(args, f.name) for f in fields(NgramConfig) if f.name != "resources"}
    alignment_settings = {
        name: getattr(args, name) for name in ("meteor_penalty_exp", "ribes_alpha", "ribes_variant")
    }
    try:
        segments, aggregate = score_transcript(
            hyp_corpus, ref_corpus, NgramConfig(**ngram_settings, resources=resources), **alignment_settings
        )
    except RespevalInputError as exc:  # the references are aligned to the hypothesis by now
        raise RespevalInputError(exc.message, args.hypothesis) from None
    report = MetricReport(
        config={
            "tokenizer": asdict(tok_cfg),
            **ngram_settings,
            **alignment_settings,
            "nist_scheme": (
                "info = log2(count(prefix)/count(ngram)) on the reference corpus; "
                "length factor 0.5 at hyp/ref ratio 2/3"
            ),
            "function_word_weight": args.function_word_weight,
            "resources": {f"{name}_sha256": _sha256(path) for name, path in resource_files.items()},
        },
        segments=[{"index": index, **_rounded(columns)} for index, columns in enumerate(segments, start=1)],
        aggregate={"segments": len(hyp_corpus), **_rounded(aggregate)},
    )
    sys.stdout.write(report.to_text())
    if args.json:
        Path(args.json).write_text(report.to_jsonl(), encoding="utf-8")
    return EXIT_OK


def cmd_ner(args: argparse.Namespace) -> int:
    records = parse_ner_annotations(args.annotations, use_chars=args.chars)
    header = f"{'ROW':>4}  {'N':>6}  {'E':>8}  {'R':>8}  {'NER%':>8}  {'RED%':>8}"
    lines = [header]
    for index, record in enumerate(records, start=1):
        accuracy = ner_accuracy(record)
        if record.original_length is not None and record.subtitle_length is not None:
            red = f"{reduction_rate(record.original_length, record.subtitle_length):8.2f}"
        else:
            red = f"{'-':>8}"
        lines.append(
            f"{index:>4}  {record.tokens:>6}  {record.weighted_edition_errors:8.2f}  "
            f"{record.recognition_errors:8.2f}  {accuracy:8.2f}  {red}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _format_model(model: RegressionModel, stage: int, removed: str | None, alpha: float) -> str:
    names = ("(constant)", *model.predictors)
    rows = zip(
        names,
        model.coefficients,
        model.std_errors,
        (None, *model.standardized_betas),
        model.t_stats,
        model.p_values,
    )
    width = max(len(name) for name in names)
    lines = [
        f"model {stage}  (adjusted R-square {model.adjusted_r2:.3f}, n = {model.n})",
        f"  {'predictor':<{width}}  {'B':>10}  {'Std. Error':>10}  {'Beta':>8}  {'t':>8}  {'Sig.':>6}",
    ]
    for name, b, se, beta, t, p in rows:
        beta_cell = f"{beta:8.3f}" if beta is not None else " " * 8
        lines.append(
            f"  {name:<{width}}  {b:10.3f}  {se:10.3f}  {beta_cell}  {t:8.3f}  {p:6.3f}"
        )
    if removed is not None:
        lines.append(f"  -> removed {removed} (highest p above alpha {alpha})")
    else:
        lines.append("  -> final model")
    return "\n".join(lines)


def _trace_to_dict(trace: EliminationTrace) -> dict:
    steps = [{**asdict(step), "model": step.model.to_dict()} for step in trace.steps]
    return {"alpha": trace.alpha, "steps": steps, "final_model": trace.final_model.to_dict()}


def cmd_regress(args: argparse.Namespace) -> int:
    if args.fixture and args.csv:
        raise RespevalInputError("give a CSV path or --fixture, not both")
    if args.fixture:
        table = load_fixture(args.fixture)
        response = args.response or RESPONSE_COLUMN
        candidates = args.candidates or list(METRIC_COLUMNS)
    else:
        if not args.csv:
            raise RespevalInputError("either a CSV path or --fixture is required")
        if not args.response:
            raise RespevalInputError("--response is required for CSV input")
        table = DataTable.from_csv(args.csv, response=args.response)
        response = args.response
        candidates = args.candidates or [c for c in table.columns if c != response]
    try:
        trace = backward_eliminate(table, candidates, alpha=args.alpha, response=response)
    except RespevalInputError as exc:
        if args.fixture or exc.path is not None:
            raise
        raise RespevalInputError(exc.message, args.csv) from None
    blocks = [
        _format_model(step.model, step.step, step.removed, trace.alpha) for step in trace.steps
    ]
    final = trace.final_model
    blocks.append(
        "surviving predictors: " + ", ".join(final.predictors)
    )
    sys.stdout.write("\n\n".join(blocks) + "\n")
    if args.json:
        Path(args.json).write_text(
            json.dumps(_trace_to_dict(trace), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    text = read_text(args.model)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RespevalInputError(f"not valid JSON ({exc.msg})", args.model, line_at(text, exc.pos)) from None
    model_dict = payload.get("final_model", payload) if isinstance(payload, dict) else payload
    try:
        model = RegressionModel.from_dict(model_dict)
    except RespevalInputError as exc:
        raise RespevalInputError(exc.message, args.model) from None
    scores: dict[str, float] = {}
    for item in args.scores:
        name, _, value = item.partition("=")  # no "=": the value is "", which read_number rejects
        if name in scores:
            raise RespevalInputError(f"score {name!r} given twice")
        try:
            scores[name] = read_number(value, name)
        except RespevalInputError:
            message = f"scores look like NAME=VALUE, VALUE a finite number; got {item!r}"
            raise RespevalInputError(message) from None
    value = predict(model, scores)
    sys.stdout.write(f"{value:.4f}\n")
    return EXIT_OK


def cmd_fixture(args: argparse.Namespace) -> int:
    text = fixture_csv(args.name)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _checked(accept, expected: str, integer: bool = False):
    """An argparse ``type`` on ``read_number``: bad text, or a value failing ``accept``, exits 2."""

    def parse(text: str):
        value = read_number(text, "value", integer)  # a ValueError: argparse reports "invalid float value"
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    parse.__name__ = "int" if integer else "float"
    return parse


ORDER = _checked(lambda v: 1 <= v <= MAX_NGRAM_ORDER, f"an integer from 1 to {MAX_NGRAM_ORDER}", True)
SYNONYM_SCORE = _checked(lambda v: 0.0 < v <= 1.0, "in (0, 1]")
UNIT_INTERVAL = _checked(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
OPEN_UNIT_INTERVAL = _checked(lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
RARE_WORDS_SCORE = _checked(lambda v: v >= 1.0, ">= 1")
POSITIVE = _checked(lambda v: v > 0.0, "a finite number > 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves
    it unchanged, and a ``cmd_*`` function looks up the names it calls when it
    runs."""
    parser = argparse.ArgumentParser(
        prog="respeval",
        description="Score re-speaking/subtitle transcripts and model NER accuracy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score hypothesis transcript(s) against reference(s)")
    p_score.add_argument("hypothesis", help="hypothesis transcript file (one segment per line)")
    p_score.add_argument("references", nargs="+", help="reference transcript file(s)")
    p_score.add_argument("--max-n", type=ORDER, default=4, help="n-gram order for BLEU/EBLEU")
    p_score.add_argument("--nist-max-n", type=ORDER, default=5, help="n-gram order for NIST")
    p_score.add_argument(
        "--sentence-level",
        action="store_true",
        help="average per-segment BLEU/EBLEU instead of pooling counts",
    )
    p_score.add_argument("--smooth", action="store_true", help="add-one smoothing for BLEU precisions")
    p_score.add_argument("--synonyms", help="synonym table: word<TAB>syn1 syn2 ...")
    p_score.add_argument("--stems", help="stem table: word<TAB>stem1 stem2 ...")
    p_score.add_argument("--function-words", help="function word list, one per line")
    p_score.add_argument("--synonym-score", type=SYNONYM_SCORE, default=0.9)
    p_score.add_argument("--rare-words-percent", type=UNIT_INTERVAL, default=0.05)
    p_score.add_argument("--rare-words-score", type=RARE_WORDS_SCORE, default=1.1)
    p_score.add_argument("--meteor-penalty-exp", type=POSITIVE, default=1.0)
    p_score.add_argument("--function-word-weight", type=UNIT_INTERVAL, default=0.2)
    p_score.add_argument("--ribes-alpha", type=OPEN_UNIT_INTERVAL, default=0.25)
    p_score.add_argument("--ribes-variant", choices=("nkt", "nsr"), default="nkt")
    p_score.add_argument("--no-lowercase", action="store_true", help="keep original casing")
    p_score.add_argument(
        "--punctuation",
        choices=("split", "strip", "keep"),
        default="split",
        help="split punctuation into tokens, strip it, or keep words intact",
    )
    p_score.add_argument("--json", help="write machine-readable JSONL report to this path")
    p_score.set_defaults(func=cmd_score)

    p_ner = sub.add_parser("ner", help="NER accuracy and reduction rate from an annotation CSV")
    p_ner.add_argument("annotations", help="CSV: N,minor_count,standard_count,serious_count,R_weighted")
    p_ner.add_argument(
        "--chars",
        action="store_true",
        help="reduction rate from original_chars/subtitle_chars columns instead of token columns",
    )
    p_ner.set_defaults(func=cmd_ner)

    p_regress = sub.add_parser("regress", help="backward-elimination OLS on a metrics table")
    p_regress.add_argument("csv", nargs="?", help="numeric CSV with header row (first column may be an id)")
    p_regress.add_argument("--fixture", choices=FIXTURE_NAMES, help="use a bundled table instead of a CSV")
    p_regress.add_argument("--response", help="response column name (default NER for fixtures)")
    p_regress.add_argument("--candidates", nargs="+", help="candidate predictor columns")
    p_regress.add_argument("--alpha", type=OPEN_UNIT_INTERVAL, default=0.05, help="significance threshold")
    p_regress.add_argument("--json", help="write models and elimination trace as JSON")
    p_regress.set_defaults(func=cmd_regress)

    p_predict = sub.add_parser("predict", help="apply a fitted model to metric scores")
    p_predict.add_argument("model", help="model JSON written by `regress --json`")
    p_predict.add_argument("scores", nargs="+", help="predictor values as NAME=VALUE")
    p_predict.set_defaults(func=cmd_predict)

    p_fixture = sub.add_parser("fixture", help="emit a bundled benchmark table as CSV")
    p_fixture.add_argument("name", choices=FIXTURE_NAMES)
    p_fixture.add_argument("--out", help="write to a file instead of stdout")
    p_fixture.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RespevalInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal/numeric failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
