import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import respeval.cli
import respeval.ngram_metrics
from respeval.align_metrics import ribes, ter
from respeval.cli import METRIC_FIELDS, main, score_transcript
from respeval.fixtures import METRIC_COLUMNS
from respeval.ner import parse_ner_annotations
from respeval.ngram_metrics import NgramConfig, bleu
from respeval.resources import LanguageResources, load_resources

import oracles
from helpers import VOCAB, make_rng, random_corpus, random_segment
from test_fixtures import TABLE1_SHA256


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def transcript_pair(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat\na dog ran home\n", encoding="utf-8")
    ref.write_text("the cat sat on the mat\na dog ran home\n", encoding="utf-8")
    return hyp, ref


def test_score_identity_corpus(transcript_pair, tmp_path, capsys):
    hyp, ref = transcript_pair
    out_json = tmp_path / "report.jsonl"
    code, out, err = run(capsys, "score", str(hyp), str(ref), "--json", str(out_json))
    assert code == 0, err
    records = [json.loads(line) for line in out_json.read_text().splitlines()]
    aggregate = next(r for r in records if r["record"] == "aggregate")
    assert aggregate["bleu"] == 100.0
    assert aggregate["ter"] == 0.0
    assert aggregate["ribes"] == 100.0
    assert aggregate["ebleu"] == 100.0
    assert aggregate["nist"] > 0.0
    assert aggregate["meteor_pl"] is None
    # identity METEOR per segment: 1 - 0.5 * (1/len)
    seg1 = next(r for r in records if r["record"] == "segment" and r["index"] == 1)
    assert seg1["meteor"] == pytest.approx((1 - 0.5 / 6) * 100, abs=1e-6)


def test_score_worked_example_with_synonyms(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    syn = tmp_path / "syn.tsv"
    hyp.write_text("this is a exam\n", encoding="utf-8")
    ref.write_text("this is a quiz\n", encoding="utf-8")
    syn.write_text("exam\tquiz\n", encoding="utf-8")
    out_json = tmp_path / "report.jsonl"
    code, out, err = run(
        capsys,
        "score",
        str(hyp),
        str(ref),
        "--max-n",
        "1",
        "--synonyms",
        str(syn),
        "--json",
        str(out_json),
    )
    assert code == 0, err
    records = [json.loads(line) for line in out_json.read_text().splitlines()]
    aggregate = next(r for r in records if r["record"] == "aggregate")
    assert aggregate["ebleu"] == pytest.approx(97.5, abs=1e-6)
    assert aggregate["bleu"] == pytest.approx(75.0, abs=1e-6)
    config = next(r for r in records if r["record"] == "config")
    assert config["resources"]["synonyms_sha256"] is not None


def test_score_missing_reference_file(transcript_pair, capsys):
    hyp, _ = transcript_pair
    code, out, err = run(capsys, "score", str(hyp), "/nonexistent/ref.txt")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize(
    ("exc", "message"),
    [(MemoryError(), "internal error: MemoryError"), (ArithmeticError("overflow"), "internal error: ArithmeticError: overflow")],
)
def test_score_internal_error_names_the_exception(transcript_pair, monkeypatch, capsys, exc, message):
    # A failure with no message, such as running out of memory on one very
    # long line, still says what went wrong; it exits 1, not 2.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(respeval.cli, "score_transcript", fail)
    hyp, ref = transcript_pair
    assert run(capsys, "score", str(hyp), str(ref)) == (1, "", message + "\n")


def test_score_misaligned_files(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("one line\n", encoding="utf-8")
    ref.write_text("first\nsecond\n", encoding="utf-8")
    code, out, err = run(capsys, "score", str(hyp), str(ref))
    assert code == 2
    assert "1" in err and "2" in err


def test_score_machine_output_is_byte_identical(transcript_pair, tmp_path, capsys):
    hyp, ref = transcript_pair
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(first))[0] == 0
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_one_parser_serves_every_call_of_a_process(transcript_pair, tmp_path, capsys):
    # main parses with one parser per process: flags from an earlier call
    # must not leak into a later one, and a usage error still exits 2
    hyp, ref = transcript_pair
    lone, after = tmp_path / "lone.jsonl", tmp_path / "after.jsonl"
    respeval.cli.build_parser.cache_clear()
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(lone))[0] == 0
    respeval.cli.build_parser.cache_clear()
    assert run(capsys, "score", str(hyp), str(ref), "--max-n", "2", "--smooth")[0] == 0
    parser = respeval.cli.build_parser()
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(after))[0] == 0
    assert after.read_bytes() == lone.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["score", str(hyp), "--max-n", "0"])
    assert exc.value.code == 2
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(after))[0] == 0
    assert after.read_bytes() == lone.read_bytes()
    assert respeval.cli.build_parser() is parser


def test_score_ignores_a_byte_order_mark(transcript_pair, tmp_path, capsys):
    hyp, ref = transcript_pair
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + hyp.read_bytes())
    plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    assert run(capsys, "score", str(hyp), str(ref), "--json", str(plain))[0] == 0
    assert run(capsys, "score", str(marked), str(ref), "--json", str(bom))[0] == 0
    assert bom.read_bytes() == plain.read_bytes()


def test_score_round_trips_at_six_decimals(transcript_pair, tmp_path, capsys):
    hyp, ref = transcript_pair
    out_json = tmp_path / "r.jsonl"
    run(capsys, "score", str(hyp), str(ref), "--json", str(out_json))
    for line in out_json.read_text().splitlines():
        record = json.loads(line)
        again = json.loads(json.dumps(record))
        assert again == record


def test_score_counts_each_segment_once(tmp_path, capsys, monkeypatch):
    hyp = tmp_path / "hyp.txt"
    refs = [tmp_path / "ref1.txt", tmp_path / "ref2.txt"]
    hyp.write_text("the cat sat on the mat\na dog ran home fast\none two three four five\n", encoding="utf-8")
    refs[0].write_text("the cat sat on a mat\na dog ran to home\none two three four six\n", encoding="utf-8")
    refs[1].write_text("a cat sat on the mat\nthe dog ran home\none two four three five\n", encoding="utf-8")
    calls = []
    counting = respeval.ngram_metrics.ngram_table
    monkeypatch.setattr(
        respeval.ngram_metrics, "ngram_table", lambda seq, n: calls.append(n) or counting(seq, n)
    )
    argv = ["score", str(hyp), *map(str, refs), "--max-n", "4", "--nist-max-n", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    # segments x (hypothesis + references), each counted once to the highest order
    assert calls == [5] * 3 * (1 + 2)


RESOURCE_FILES = {
    "synonyms": "cat\tdog\nmat\trug home\n",
    "stems": "ran\trun\nsat\tsit\n",
    "function_words": "the\na\non\n",
}


def _write_transcript(directory: Path, hyp_corpus, ref_corpus, resources: bool) -> list[str]:
    """Writes the transcript (and the resource bundle) as ``score`` reads
    them; returns the paths and flags that follow ``score``."""
    files = [directory / "hyp.txt", *(directory / f"ref{k}.txt" for k in range(len(ref_corpus[0])))]
    for path, corpus in zip(files, (hyp_corpus, *zip(*ref_corpus))):
        path.write_text("".join(" ".join(seg) + "\n" for seg in corpus), encoding="utf-8")
    argv = list(map(str, files))
    if resources:
        for name, text in RESOURCE_FILES.items():
            (directory / name).write_text(text, encoding="utf-8")
            argv += [f"--{name.replace('_', '-')}", str(directory / name)]
    return argv


@pytest.mark.parametrize("flags", [(), ("--sentence-level", "--smooth")], ids=["pooled", "sentence-level-smooth"])
@pytest.mark.parametrize("resources", [False, True], ids=["plain", "resources"])
@pytest.mark.parametrize("n_refs", [1, 2, 3])
def test_score_transcript_columns_are_the_score_records(n_refs, resources, flags, tmp_path, capsys):
    rng = make_rng(2200 + 10 * n_refs + resources + 2 * bool(flags))
    for trial in range(3):
        hyp_corpus = random_corpus(rng, max_segments=8, max_tokens=12)
        ref_corpus = [[random_segment(rng, 12) for _ in range(n_refs)] for _ in hyp_corpus]
        directory = tmp_path / f"t{trial}"
        directory.mkdir()
        out_json = directory / "r.jsonl"
        argv = _write_transcript(directory, hyp_corpus, ref_corpus, resources)
        weight = rng.random()
        code, out, err = run(
            capsys, "score", *argv, *flags, "--function-word-weight", repr(weight), "--json", str(out_json)
        )
        assert (code, err) == (0, "")
        *segment_records, aggregate_record = _scores(out_json)

        bundle = load_resources(**{name: directory / name for name in RESOURCE_FILES if resources})
        sentence_level = smooth = bool(flags)
        segments, aggregate = score_transcript(
            hyp_corpus, ref_corpus, NgramConfig(smooth=smooth, resources=bundle),
            sentence_level=sentence_level, meteor_penalty_exp=1.0, function_word_weight=weight,
            ribes_alpha=0.25, ribes_variant="nkt",
        )
        assert [set(seg) for seg in segments] == [set(METRIC_FIELDS)] * len(hyp_corpus)
        assert set(aggregate) == set(METRIC_FIELDS)
        assert (aggregate["meteor_pl"] is None) == (not resources)

        def rounded(columns):
            return {name: None if value is None else round(value, 6) for name, value in columns.items()}

        assert [rounded(seg) for seg in segments] == [
            {name: record[name] for name in METRIC_FIELDS} for record in segment_records
        ]
        assert rounded(aggregate) == {name: aggregate_record[name] for name in METRIC_FIELDS}
        for seg, hyp, refs in zip(segments, hyp_corpus, ref_corpus):
            assert seg["ter"] == min(ter(hyp, ref).ter for ref in refs) * 100
        # BLEU and EBLEU pool, or average the segment scores at sentence level; NIST always pools
        ebleu = oracles.ebleu_oracle(hyp_corpus, ref_corpus, 4, bundle.synonyms, 0.9, 0.05, 1.1, sentence_level)
        assert (aggregate["bleu"], aggregate["nist"], aggregate["ebleu"]) == (
            oracles.bleu_oracle(hyp_corpus, ref_corpus, 4, smooth, sentence_level) * 100.0,
            oracles.nist_oracle(hyp_corpus, ref_corpus, 5),
            ebleu * 100.0,
        )


def _transcript_columns(hyp_corpus, ref_corpus, config, sentence_level=False):
    return score_transcript(
        hyp_corpus, ref_corpus, config, sentence_level=sentence_level, meteor_penalty_exp=1.0,
        function_word_weight=0.3, ribes_alpha=0.25, ribes_variant="nkt",
    )


def test_score_transcript_ignores_reference_order_and_a_repeated_reference_list():
    """Reversing each segment's references, or listing all of them twice (as
    when every reference file is given twice), changes no unrounded column,
    pooled or sentence level, with stems and function words."""
    rng = make_rng(2300)
    for trial in range(60):
        stems = {word: frozenset(rng.sample(["st0", "st1", word], rng.randint(1, 2))) for word in rng.sample(VOCAB, 5)}
        function_words = frozenset(rng.sample(VOCAB, 3))
        config = NgramConfig(resources=LanguageResources(stems=stems, function_words=function_words))
        hyp_corpus = random_corpus(rng, max_segments=6, max_tokens=12)
        ref_corpus = [[random_segment(rng, 12) for _ in range(rng.randint(1, 3))] for _ in hyp_corpus]
        sentence_level = bool(trial % 2)
        columns = _transcript_columns(hyp_corpus, ref_corpus, config, sentence_level)
        for refs_of in (lambda refs: refs[::-1], lambda refs: refs * 2):
            other = [refs_of(refs) for refs in ref_corpus]
            assert _transcript_columns(hyp_corpus, other, config, sentence_level) == columns


@pytest.mark.xfail(strict=True, reason="EBLEU rewrites a synonym to a word of the first reference that has one")
def test_score_transcript_ignores_reference_order_with_synonyms():
    synonyms = {"x": frozenset({"b", "c"}), "b": frozenset({"x"}), "c": frozenset({"x"})}
    config = NgramConfig(max_n=2, resources=LanguageResources(synonyms=synonyms))
    hyp_corpus, refs = [["x", "z"]], [["b", "z"], ["y", "c"]]
    # EBLEU is 92.5 with these references and 0 with them swapped
    assert _transcript_columns(hyp_corpus, [refs], config) == _transcript_columns(hyp_corpus, [refs[::-1]], config)


@pytest.mark.parametrize("resources", [False, True], ids=["plain", "resources"])
def test_score_calls_the_alignment_metrics_through_the_cli_module(resources, tmp_path, capsys, monkeypatch):
    # perfbench's tracer times TER, METEOR and RIBES by wrapping these three
    # names on respeval.cli, so scoring must look them up there
    hyp_corpus = [["the", "cat", "sat"], ["a", "dog", "ran", "home"], ["on", "the", "mat"]]
    ref_corpus = [[seg, seg[::-1]] for seg in hyp_corpus]
    argv = _write_transcript(tmp_path, hyp_corpus, ref_corpus, resources)
    calls = {name: 0 for name in ("ter", "meteor", "ribes")}
    for name in calls:
        metric = getattr(respeval.cli, name)

        def counting(*args, name=name, metric=metric, **kwargs):
            calls[name] += 1
            return metric(*args, **kwargs)

        monkeypatch.setattr(respeval.cli, name, counting)
    code, out, err = run(capsys, "score", *argv)
    assert (code, err) == (0, "")
    pairs = 3 * 2  # segments x references
    assert calls == {"ter": pairs, "meteor": 2 * pairs if resources else pairs, "ribes": pairs}


def test_score_segment_columns_use_their_own_references(tmp_path, capsys):
    # A segment column scores the segment as a one-segment corpus: NIST
    # information weights and the EBLEU rare-word list come from its own
    # references. Only the aggregate uses the whole corpus.
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b x\na a c c y y\n", encoding="utf-8")
    ref.write_text("a b y\na a c c y y\n", encoding="utf-8")
    out_json = tmp_path / "r.jsonl"
    code, out, err = run(
        capsys,
        "score",
        str(hyp),
        str(ref),
        "--max-n", "1",
        "--nist-max-n", "1",
        "--rare-words-percent", "0.5",
        "--rare-words-score", "1.5",
        "--json", str(out_json),
    )
    assert code == 0, err
    records = [json.loads(line) for line in out_json.read_text().splitlines()]
    first = next(r for r in records if r["record"] == "segment" and r["index"] == 1)
    aggregate = next(r for r in records if r["record"] == "aggregate")
    # own reference "a b y": a and b carry log2(3/1) bits each; with the
    # corpus counts (9 tokens, a 3, b 1) they would carry log2(3) + log2(9)
    assert first["nist"] == round(2 * math.log2(3) / 3, 6)
    # own rare list is {y}, so a and b earn no bonus; the corpus list {b, c}
    # would have scored (1 + 1.5) / 3
    assert first["ebleu"] == round(200 / 3, 6)
    # the aggregate weighs by the corpus: 9 reference tokens, a 3, b 1, c 2, y 3
    a, b, c, y = (math.log2(9 / count) for count in (3, 1, 2, 3))
    assert aggregate["nist"] == pytest.approx((a + b + 2 * (a + c + y)) / 9, abs=1e-6)


REPORT_DATA = Path(__file__).parent / "data" / "report"
# sha256 of stdout and of the --json file for the committed corpus in
# tests/data/report; a change to any score, rounding or layout shows here.
REPORT_DIGESTS = {
    (): (
        "1b4eef80a57c1e20554ffb3c655e144f9143e982b753dc3a6715bb0fea94d856",
        "c3a8492d1360a12afb467c61d8c5ff26df40ab2c705a733ad20619bd53282dd9",
    ),
    ("--sentence-level", "--smooth"): (
        "e99c4d84b82d29d3ab96ee3bdafd140075ca5ec779bfcace23c060e13c761a15",
        "72a7e885cef8060087b25d9cafbee4fda3e5943876e2db00bc3bad391a93c983",
    ),
    ("--sentence-level",): (
        "5ff488a65df4d3402806cdb298f72666083435bde48c468487a877d47313ec5b",
        "d05999764591b505fe3ee6be8c4f89c20429947f0a55d0b5f9fdbf11ed0b29c7",
    ),
    ("--function-word-weight", "0.5"): (
        "12c3b6df500551699ca955071366332e2ccdae56735079e66ad5fef07ffc9a75",
        "a8d1122b86a81cade3ffc684ebbd0d92908eaec781e6f0320f263bbe77cc41a9",
    ),
}


@pytest.mark.parametrize(
    "flags", list(REPORT_DIGESTS), ids=["pooled", "sentence-level-smooth", "sentence-level", "function-word-weight"]
)
def test_score_report_bytes_are_pinned(flags, tmp_path, capsys):
    out_json = tmp_path / "r.jsonl"
    code, out, err = run(
        capsys,
        "score",
        *(str(REPORT_DATA / name) for name in ("hyp.txt", "ref1.txt", "ref2.txt")),
        "--synonyms", str(REPORT_DATA / "synonyms.tsv"),
        "--stems", str(REPORT_DATA / "stems.tsv"),
        "--function-words", str(REPORT_DATA / "function_words.txt"),
        *flags,
        "--json", str(out_json),
    )
    assert (code, err) == (0, "")
    digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(out_json.read_bytes()).hexdigest())
    assert digests == REPORT_DIGESTS[flags]


def _scores(report: Path) -> list[dict]:
    """The segment and aggregate records of a ``--json`` report."""
    records = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
    return [record for record in records if record["record"] != "config"]


@pytest.mark.parametrize("synonyms, meteor_pl", [("x\ty\n", 50.0), ("# x\ty\n", None)], ids=["entry", "comment"])
def test_score_resource_entries_off_the_corpus_score_as_a_full_load(
    synonyms, meteor_pl, tmp_path, capsys, monkeypatch
):
    # score builds only the entries of its tokens, yet a file whose one entry
    # touches none of them still turns METEOR-PL on, as a full load does
    paths = {name: tmp_path / name for name in ("hyp.txt", "ref.txt", "syn.tsv", "r.jsonl")}
    for name, text in (("hyp.txt", "a b c\n"), ("ref.txt", "a c b\n"), ("syn.tsv", synonyms)):
        paths[name].write_text(text, encoding="utf-8")
    argv = ["score", str(paths["hyp.txt"]), str(paths["ref.txt"]), "--synonyms", str(paths["syn.tsv"])]
    reports = []
    for full_load in (False, True):
        if full_load:
            loading = respeval.cli.load_resources
            monkeypatch.setattr(respeval.cli, "load_resources", lambda vocabulary, **files: loading(**files))
        code, out, err = run(capsys, *argv, "--json", str(paths["r.jsonl"]))
        assert (code, err) == (0, "")
        reports.append(_scores(paths["r.jsonl"]))
    assert reports[0] == reports[1]
    assert [record["meteor_pl"] for record in reports[0]] == [meteor_pl, meteor_pl]


def test_score_stems_padded_off_the_corpus_score_as_unpadded(tmp_path, capsys):
    padding = [f"w{i}\ts{i % 97}\n" for i in range(200_000)]
    padded = tmp_path / "stems.tsv"
    stems = (REPORT_DATA / "stems.tsv").read_text(encoding="utf-8")
    padded.write_text("".join(padding[:100_000]) + stems + "".join(padding[100_000:]), encoding="utf-8")
    reports = []
    for stems_path in (REPORT_DATA / "stems.tsv", padded):
        out_json = tmp_path / "r.jsonl"
        code, out, err = run(
            capsys,
            "score",
            *(str(REPORT_DATA / name) for name in ("hyp.txt", "ref1.txt", "ref2.txt")),
            "--synonyms", str(REPORT_DATA / "synonyms.tsv"),
            "--stems", str(stems_path),
            "--function-words", str(REPORT_DATA / "function_words.txt"),
            "--json", str(out_json),
        )
        assert (code, err) == (0, "")
        reports.append(_scores(out_json))
    assert reports[0] == reports[1]


# sha256 of `regress --fixture table1 --json` and `--fixture table2 --json`: the
# elimination trace and every model field, so a field left out of (or added to)
# the model JSON shows here.
TABLE1_TRACE_SHA256 = "3f2d0e21321bb108a6b26814a4494cb2dfa74daea4fcc2c2ddecbe94d1809642"
TABLE2_TRACE_SHA256 = "6a07e1f99da686a6f0748a19a49f63176a20cf407f585fcf61d75fbe6fb79f79"
# sha256 of the text tables: `regress --fixture table1` and `--fixture table2`
# stdout, and `ner` stdout on LENGTH_ANNOTATIONS, a file with the
# reduction-rate columns.
TABLE1_STDOUT_SHA256 = "95a1f7005514c6727c0aed19b937bc10cd025845955f95146bfeea36e113fb00"
TABLE2_STDOUT_SHA256 = "89cc8e26294dc48e8e4fde579e953f7bbf9cca59cf6e833279cf325069226b60"
NER_STDOUT_SHA256 = "4a19ad0daf3a18cbf1c6c0e0deaa1fc8a2c5a442a2ddb45eb637f98d6872e377"


def test_regress_trace_bytes_are_pinned(tmp_path, capsys):
    for fixture, trace_sha, stdout_sha in (
        ("table1", TABLE1_TRACE_SHA256, TABLE1_STDOUT_SHA256),
        ("table2", TABLE2_TRACE_SHA256, TABLE2_STDOUT_SHA256),
    ):
        trace_json = tmp_path / f"{fixture}.json"
        code, out, err = run(capsys, "regress", "--fixture", fixture, "--json", str(trace_json))
        assert (code, err) == (0, "")
        assert hashlib.sha256(trace_json.read_bytes()).hexdigest() == trace_sha
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


def test_ner_text_bytes_are_pinned(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_bytes(LENGTH_ANNOTATIONS)
    code, out, err = run(capsys, "ner", str(csv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == NER_STDOUT_SHA256


def test_score_hypothesis_empty_after_stripping(tmp_path, capsys):
    hyp, ref, out_json = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "r.jsonl"
    hyp.write_text("!!!\nthe dog ran\n", encoding="utf-8")
    ref.write_text("the dog ran\nthe dog ran\n", encoding="utf-8")
    code, out, err = run(capsys, "score", str(hyp), str(ref), "--punctuation", "strip", "--json", str(out_json))
    assert (code, err) == (0, "")
    first = json.loads(out_json.read_text(encoding="utf-8").splitlines()[1])
    assert first == {
        "record": "segment",
        "index": 1,
        "ter": 100.0,
        **dict.fromkeys(("bleu", "nist", "meteor", "ebleu", "ribes"), 0.0),
        "meteor_pl": None,
    }


def first_segment(capsys, tmp_path, hyp_line, ref_line, *flags):
    hyp, ref, out_json = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "r.jsonl"
    hyp.write_text(hyp_line + "\n", encoding="utf-8")
    ref.write_text(ref_line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "score", str(hyp), str(ref), *flags, "--json", str(out_json))
    assert (code, err) == (0, "")
    return json.loads(out_json.read_text(encoding="utf-8").splitlines()[1])


def test_score_ribes_variant_nsr_reaches_the_ribes_column(tmp_path, capsys):
    h, r = "d c b a e f".split(), "a b c d e f".split()
    nkt, nsr = ribes(h, r).score, ribes(h, r, variant="nsr").score
    assert nkt != nsr
    assert first_segment(capsys, tmp_path, " ".join(h), " ".join(r))["ribes"] == round(100 * nkt, 6)
    segment = first_segment(capsys, tmp_path, " ".join(h), " ".join(r), "--ribes-variant", "nsr")
    assert segment["ribes"] == round(100 * nsr, 6)


def test_score_no_lowercase_keeps_capitals(tmp_path, capsys):
    h, r = "The cat sat on the mat", "the cat sat on the mat"
    assert first_segment(capsys, tmp_path, h, r)["bleu"] == 100.0
    cased = round(100 * bleu([h.split()], [[r.split()]]).score, 6)
    assert cased < 100.0
    assert first_segment(capsys, tmp_path, h, r, "--no-lowercase")["bleu"] == cased


def test_score_punctuation_keep_leaves_it_on_the_word(tmp_path, capsys):
    # split: "sat." -> "sat", "." matches the reference; keep: one substitution and one insertion in 4
    assert first_segment(capsys, tmp_path, "the cat sat.", "the cat sat .")["ter"] == 0.0
    assert first_segment(capsys, tmp_path, "the cat sat.", "the cat sat .", "--punctuation", "keep")["ter"] == 50.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["score", "h", "r", "--synonym-score", "2"], "--synonym-score"),
        (["score", "h", "r", "--rare-words-score", "0.5"], "--rare-words-score"),
        (["score", "h", "r", "--rare-words-percent", "2"], "--rare-words-percent"),
        (["score", "h", "r", "--max-n", "0"], "--max-n"),
        (["score", "h", "r", "--nist-max-n", "0"], "--nist-max-n"),
        (["score", "h", "r", "--ribes-alpha", "1"], "--ribes-alpha"),
        (["score", "h", "r", "--function-word-weight", "1.5"], "--function-word-weight"),
        (["regress", "--fixture", "table1", "--alpha", "2"], "--alpha"),
        (["score", "h", "r", "--meteor-penalty-exp", "nan"], "--meteor-penalty-exp"),
        (["score", "h", "r", "--meteor-penalty-exp", "-5"], "--meteor-penalty-exp"),
        (["score", "h", "r", "--meteor-penalty-exp", "inf"], "--meteor-penalty-exp"),
        (["score", "h", "r", "--max-n", "101"], "--max-n"),
        (["score", "h", "r", "--nist-max-n", "100000"], "--nist-max-n"),
        (["score", "h", "r", "--max-n", "1_0"], "--max-n"),
        (["regress", "--fixture", "table1", "--alpha", "٠.٠٥"], "--alpha"),
    ],
)
def test_bad_numeric_flag_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_score_one_long_line_exits_0(tmp_path, capsys):
    # 1,100 distinct words: METEOR's exact stage decides 1,100 positions in a row.
    line = " ".join(f"w{i}" for i in range(1_100)) + "\n"
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text(line, encoding="utf-8")
    ref.write_text(line, encoding="utf-8")
    code, out, err = run(capsys, "score", str(hyp), str(ref))
    assert (code, err) == (0, "")


def test_score_non_utf8_transcript(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_bytes(b"first line\nsecond \xff line\n")
    ref.write_text("first line\nsecond line\n", encoding="utf-8")
    code, out, err = run(capsys, "score", str(hyp), str(ref))
    assert code == 2
    assert f"{hyp}: line 2: not valid UTF-8" in err


def test_ner_command(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_text(
        "N,minor_count,standard_count,serious_count,R_weighted,original_tokens,subtitle_tokens\n"
        "100,0,0,0,0,100,90\n"
        "200,2,1,0,1,100,100\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "ner", str(csv))
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 3
    assert "100.00" in lines[1] and "10.00" in lines[1]
    assert "99.00" in lines[2] and "0.00" in lines[2]


def test_ner_csv_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("N,minor_count,standard_count,serious_count,R_weighted\n100,2,1,0,1\n", encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out, err = run(capsys, "ner", str(marked))
    assert (code, err) == (0, "")
    assert out == run(capsys, "ner", str(plain))[1]
    assert "98.00" in out.splitlines()[1]


def test_ner_header_only(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_text("N,minor_count,standard_count,serious_count,R_weighted\n", encoding="utf-8")
    code, out, err = run(capsys, "ner", str(csv))
    assert code == 0
    assert len(out.splitlines()) == 1  # header only


def test_ner_blank_line_between_rows(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_text(
        "N,minor_count,standard_count,serious_count,R_weighted\n100,0,0,0,0\n\n200,2,1,0,1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "ner", str(csv))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "   1     100      0.00      0.00    100.00         -",
        "   2     200      1.00      1.00     99.00         -",
    ]


def test_ner_chars_reads_the_character_columns(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_text(
        "N,minor_count,standard_count,serious_count,R_weighted,"
        "original_tokens,subtitle_tokens,original_chars,subtitle_chars\n"
        "100,0,0,0,0,100,90,600,480\n",
        encoding="utf-8",
    )
    assert run(capsys, "ner", str(csv))[1].splitlines()[1] == (
        "   1     100      0.00      0.00    100.00     10.00"
    )
    code, out, err = run(capsys, "ner", str(csv), "--chars")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "   1     100      0.00      0.00    100.00     20.00"


def test_ner_prints_each_record_reduction_rate(tmp_path, capsys):
    rng = make_rng(41)
    # N and the error columns, then original and subtitle tokens, then original and subtitle chars
    rows = [
        [rng.randint(1, 50), 0, 0, 0, 0, rng.randint(1, 900), rng.randint(0, 900), rng.randint(1, 900), rng.randint(0, 900)]
        for _ in range(60)
    ]
    csv = tmp_path / "ann.csv"
    csv.write_text(
        "N,minor_count,standard_count,serious_count,R_weighted,"
        "original_tokens,subtitle_tokens,original_chars,subtitle_chars\n"
        + "".join(",".join(map(str, row)) + "\n" for row in rows),
        encoding="utf-8",
    )
    for flags, (original, subtitle) in (((), (5, 6)), (("--chars",), (7, 8))):
        records = parse_ner_annotations(csv, use_chars=bool(flags))
        code, out, err = run(capsys, "ner", str(csv), *flags)
        assert (code, err) == (0, "")
        for row, record, line in zip(rows, records, out.splitlines()[1:], strict=True):
            assert record.reduction_rate == (row[original] - row[subtitle]) / row[original] * 100.0
            assert line.split()[-1] == f"{record.reduction_rate:.2f}"


def test_ner_malformed_row(tmp_path, capsys):
    csv = tmp_path / "ann.csv"
    csv.write_text(
        "N,minor_count,standard_count,serious_count,R_weighted\n100,0,0,0,0\n0,0,0,0,0\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "ner", str(csv))
    assert code == 2
    assert "line 3" in err


def test_regress_fixture_final_set(tmp_path, capsys):
    trace_json = tmp_path / "trace.json"
    code, out, err = run(
        capsys, "regress", "--fixture", "table1", "--json", str(trace_json)
    )
    assert code == 0, err
    assert "surviving predictors: BLEU, NIST, EBLEU" in out
    payload = json.loads(trace_json.read_text())
    assert [s["removed"] for s in payload["steps"]] == [
        "TER",
        "RIBES",
        "METEOR-PL",
        "METEOR",
        None,
    ]
    assert payload["final_model"]["predictors"] == ["BLEU", "NIST", "EBLEU"]


@pytest.mark.parametrize("response", ["BLEU", "RIBES"])
def test_regress_fixture_leaves_the_response_out_of_the_default_candidates(response, tmp_path, capsys):
    # without --candidates, a fixture offers the seven metrics except the response, as a CSV offers its columns
    trace_json = tmp_path / "trace.json"
    code, out, err = run(capsys, "regress", "--fixture", "table1", "--response", response, "--json", str(trace_json))
    assert (code, err) == (0, "")
    payload = json.loads(trace_json.read_text(encoding="utf-8"))
    first = payload["steps"][0]["model"]
    assert (first["response"], first["predictors"]) == (response, [c for c in METRIC_COLUMNS if c != response])


def test_regress_single_predictor_csv(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    rows = "\n".join(f"{x},{2 * x + 0.1 * ((-1) ** x)}" for x in range(12))
    csv.write_text(f"x,y\n{rows}\n", encoding="utf-8")
    code, out, err = run(capsys, "regress", str(csv), "--response", "y")
    assert code == 0, err
    assert out.count("model 1") == 1
    assert "final model" in out


def test_regress_rank_deficient_csv(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    lines = ["a,b,y"] + [f"{i},{i},{i + 0.5}" for i in range(10)]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "regress", str(csv), "--response", "y")
    assert code == 2
    assert "rank deficient" in err


def test_regress_fit_errors_name_the_csv_but_no_fixture(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    lines = ["a,b,y"] + [f"{i},{i},{i + 0.5}" for i in range(10)]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "regress", str(csv), "--response", "y")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {csv}: design matrix is rank deficient")
    # no fixture column set is rank deficient, so a candidate named twice
    # stands in for an error raised inside backward_eliminate
    code, out, err = run(capsys, "regress", str(csv), "--response", "y", "--candidates", "a", "a")
    assert (code, out, err) == (2, "", f"error: {csv}: candidate predictors named twice: a\n")
    code, out, err = run(capsys, "regress", "--fixture", "table1", "--candidates", "BLEU", "BLEU")
    assert (code, out, err) == (2, "", "error: candidate predictors named twice: BLEU\n")


def test_regress_overflow_exits_2_without_warnings(tmp_path, capsys):
    # y near +-1e300 is finite, but its sum of squares is not
    csv = tmp_path / "big.csv"
    csv.write_text("x,y\n1,1e300\n2,-1e300\n3,1e300\n4,-1e300\n5,1e300\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would exit 1
        code, out, err = run(capsys, "regress", str(csv), "--response", "y")
    assert (code, out) == (2, "")
    assert err == f"error: {csv}: sums of squares or standard errors overflow fitting 'y' on ['x']; rescale the values\n"


def test_regress_requires_response_for_csv(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("a,y\n1,2\n2,4\n3,6\n4,8\n", encoding="utf-8")
    code, out, err = run(capsys, "regress", str(csv))
    assert code == 2


def test_predict_round_trip(tmp_path, capsys):
    trace_json = tmp_path / "trace.json"
    assert run(capsys, "regress", "--fixture", "table1", "--json", str(trace_json))[0] == 0
    code, out, err = run(
        capsys, "predict", str(trace_json), "BLEU=88.82", "NIST=8.66", "EBLEU=95.20"
    )
    assert code == 0, err
    value = float(out.strip())
    assert value == pytest.approx(96.07, abs=0.05)


def test_predict_missing_score(tmp_path, capsys):
    trace_json = tmp_path / "trace.json"
    run(capsys, "regress", "--fixture", "table1", "--json", str(trace_json))
    code, out, err = run(capsys, "predict", str(trace_json), "BLEU=88.82")
    assert code == 2
    assert "NIST" in err


def test_predict_rejects_malformed_pair(tmp_path, capsys):
    trace_json = tmp_path / "trace.json"
    run(capsys, "regress", "--fixture", "table1", "--json", str(trace_json))
    code, out, err = run(capsys, "predict", str(trace_json), "BLEU:88")
    assert code == 2


def test_predict_overflow_exits_2(tmp_path, capsys):
    model = {
        "response": "NER", "predictors": ["x"], "coefficients": [0.0, 2.0], "std_errors": [0.0, 0.0],
        "t_stats": [0.0, 0.0], "p_values": [0.0, 0.0], "standardized_betas": [0.0],
        "r2": 0.0, "adjusted_r2": 0.0, "n": 3, "df_resid": 1,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code, out, err = run(capsys, "predict", str(path), "x=1e308")
    assert (code, out) == (2, "")
    assert err == "error: the prediction is inf, not a finite number: the weighted sum overflows\n"


def test_fixture_command_digest(capsys):
    code, out, err = run(capsys, "fixture", "table1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE1_SHA256


def test_fixture_command_to_file(tmp_path, capsys):
    target = tmp_path / "t2.csv"
    code, out, err = run(capsys, "fixture", "table2", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("SPKR,BLEU,NIST")


MODEL = json.dumps(
    {
        "response": "NER",
        "predictors": ["BLEU"],
        "coefficients": [80.0, 0.2],
        "std_errors": [1.0, 0.1],
        "t_stats": [80.0, 2.0],
        "p_values": [0.0, 0.05],
        "standardized_betas": [0.5],
        "r2": 0.5,
        "adjusted_r2": 0.45,
        "n": 20,
        "df_resid": 18,
    }
).encode()
TABLE = b"x,z,y\n1,0,2.1\n2,1,3.9\n3,0,6.2\n4,1,8.1\n5,0,9.8\n"
ANNOTATIONS = b"N,minor_count,standard_count,serious_count,R_weighted\n100,1,0,0,0.5\n"
LENGTH_ANNOTATIONS = (
    b"N,minor_count,standard_count,serious_count,R_weighted,original_tokens,subtitle_tokens\n"
    b"100,1,0,0,0.5,120,100\n200,2,1,0,1,200,210\n"
)


@pytest.mark.parametrize(
    "files, argv, message",
    [
        pytest.param(
            {"table": b"x,y\n1,2\n\xff,3\n"},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 3: not valid UTF-8",
            id="regress-non-utf8",
        ),
        pytest.param(
            {"ann": ANNOTATIONS + b"50,0,\xc3,0,0\n"},
            ["ner", "{ann}"],
            "{ann}: line 3: not valid UTF-8",
            id="ner-non-utf8",
        ),
        pytest.param(
            {"hyp": b"a b\n", "syn": b"a\tb\nc\t\xe9d\n"},
            ["score", "{hyp}", "{hyp}", "--synonyms", "{syn}"],
            "{syn}: line 2: not valid UTF-8",
            id="synonyms-non-utf8",
        ),
        pytest.param(
            {"hyp": b"a b\n", "words": b"\xffthe\n"},
            ["score", "{hyp}", "{hyp}", "--function-words", "{words}"],
            "{words}: line 1: not valid UTF-8",
            id="function-words-non-utf8",
        ),
        pytest.param(
            {"table": TABLE},
            ["regress", "{table}", "--response", "zz"],
            "{table}: response column 'zz' not in ['x', 'z', 'y']",
            id="regress-unknown-response",
        ),
        pytest.param(
            {"table": TABLE},
            ["regress", "{table}", "--response", "y", "--candidates", "x", "zz"],
            "no column named 'zz'; the columns are x, z, y",
            id="regress-unknown-candidate",
        ),
        pytest.param(
            {},
            ["regress", "--fixture", "table1", "--response", "zz"],
            "no column named 'zz'; the columns are SPKR, BLEU,",
            id="fixture-unknown-response",
        ),
        pytest.param(
            {},
            ["regress", "--fixture", "table1", "--candidates", "BLEU", "zz"],
            "no column named 'zz'; the columns are SPKR, BLEU,",
            id="fixture-unknown-candidate",
        ),
        pytest.param(
            {"table": TABLE},
            ["regress", "{table}", "--response", "y", "--candidates", "y"],
            "{table}: the response 'y' is also a candidate predictor",
            id="regress-response-as-candidate",
        ),
        pytest.param(
            {},
            ["regress", "--fixture", "table1", "--candidates", "NER", "BLEU"],
            "error: the response 'NER' is also a candidate predictor",
            id="fixture-response-as-candidate",
        ),
        pytest.param(
            {},
            ["regress", "--fixture", "table1", "--candidates", "BLEU", "NIST", "BLEU"],
            "error: candidate predictors named twice: BLEU",
            id="fixture-candidate-named-twice",
        ),
        pytest.param(
            {"table": b"A,y,y\n1,2,3\n2,3,5\n3,5,7\n"},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 1: duplicate column 'y'",
            id="regress-duplicate-column",
        ),
        pytest.param(
            {"ann": LENGTH_ANNOTATIONS.replace(b"subtitle_tokens", b"original_tokens")},
            ["ner", "{ann}"],
            "{ann}: line 1: duplicate column 'original_tokens'",
            id="ner-duplicate-column",
        ),
        pytest.param(
            {"table": b"y\n1\n2\n3\n"},
            ["regress", "{table}", "--response", "y"],
            "need at least one predictor besides the response 'y'",
            id="regress-response-only",
        ),
        pytest.param(
            {"model": b'{"response": "NER",\n "predictors": [}'},
            ["predict", "{model}", "BLEU=1"],
            "{model}: line 2: not valid JSON (Expecting value)",
            id="predict-malformed-json",
        ),
        pytest.param(
            {"model": b'{"predictors": ["BLEU"]}'},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model has no 'response' entry",
            id="predict-model-lacks-keys",
        ),
        pytest.param(
            {"model": b"[" + MODEL + b"]"},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model must be a JSON object",
            id="predict-json-list",
        ),
        pytest.param(
            {"ann": ANNOTATIONS + b"50,0,0,0,nan\n"},
            ["ner", "{ann}"],
            "{ann}: line 3: column 'R_weighted' must be a number, got 'nan'",
            id="ner-nan",
        ),
        pytest.param(
            {"table": TABLE + b"\n6,1,nan\n"},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 8: column 'y' must be a number, got 'nan'",
            id="regress-nan-cell",
        ),
        pytest.param(
            {"table": TABLE.replace(b"3.9", b"-inf")},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 3: column 'y' must be a number, got '-inf'",
            id="regress-inf-cell",
        ),
        pytest.param(
            {"ann": ANNOTATIONS + b'50,0,0,0,"' + b"1" * 200_000 + b'"\n'},
            ["ner", "{ann}"],
            "{ann}: line 3: field larger than field limit",
            id="ner-field-too-large",
        ),
        pytest.param(
            {"model": MODEL},
            ["predict", "{model}", "BLEU=nan"],
            "got 'BLEU=nan'",
            id="predict-nan-score",
        ),
        pytest.param(
            {"ann": b"N,minor_count,standard_count,serious_count,R_weighted,original_tokens\n100,1,0,0,0.5,0\n"},
            ["ner", "{ann}"],
            "{ann}: line 2: original length must be positive, got 0",
            id="ner-zero-original-length",
        ),
        pytest.param(
            {"ann": LENGTH_ANNOTATIONS + b"50,0,0,0,0,-3,40\n"},
            ["ner", "{ann}"],
            "{ann}: line 4: original length must be positive, got -3",
            id="ner-negative-original-length-with-subtitle",
        ),
        pytest.param(
            {"hyp": b"a b\nc d\n", "ref1": b"a b\nc d\n", "ref2": b"a b\n\n"},
            ["score", "{hyp}", "{ref1}", "{ref2}"],
            "{ref2}: segment count mismatch: hypothesis has 2, reference has 1",
            id="score-reference-count-mismatch",
        ),
        pytest.param(
            {"model": MODEL.replace(b'["BLEU"]', b"5")},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model must be a JSON object of names, lists and numbers",
            id="predict-predictors-number",
        ),
        pytest.param(
            {"model": MODEL.replace(b"[80.0, 0.2]", b'"80.0, 0.2"')},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model needs one predictor name per coefficient",
            id="predict-coefficients-string",
        ),
        pytest.param(
            # JSON true is no number, though Python counts a bool as an int
            {"model": MODEL.replace(b"[80.0, 0.2]", b"[true, 0.2]")},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model needs one predictor name per coefficient",
            id="predict-coefficients-boolean",
        ),
        pytest.param(
            # a string is no list of names, though tuple() splits it into letters
            {"model": MODEL.replace(b'["BLEU"]', b'"BLEU"').replace(b"[80.0, 0.2]", b"[11, 1, 1, 1, 1]")},
            ["predict", "{model}", "B=1", "L=1", "E=1", "U=1"],
            "{model}: the model needs one predictor name per coefficient",
            id="predict-predictors-string",
        ),
        pytest.param(
            # regress never names a predictor twice; predict would apply both coefficients to one score
            {"model": MODEL.replace(b'["BLEU"]', b'["BLEU", "BLEU"]').replace(b"[80.0, 0.2]", b"[0.0, 1.0, 1.0]")},
            ["predict", "{model}", "BLEU=2"],
            "{model}: the model needs one predictor name per coefficient after the intercept, "
            "and finite coefficients; the names must be distinct",
            id="predict-predictor-named-twice",
        ),
        pytest.param(
            {"model": MODEL.replace(b"[80.0, 0.2]", b"[" + b"1" * 401 + b", 0.2]")},
            ["predict", "{model}", "BLEU=1"],
            "{model}: the model needs one predictor name per coefficient after the intercept, and finite",
            id="predict-coefficient-past-a-float",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b"100,1,", b"9" * 400 + b",1,")},
            ["ner", "{ann}"],
            "{ann}: line 2: column 'N' must be an integer, got '" + "9" * 400 + "'",
            id="ner-count-past-a-float",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b"100,1,", b"100," + b"9" * 400 + b",")},
            ["ner", "{ann}"],
            "{ann}: line 2: column 'minor_count' must be an integer, got '" + "9" * 400 + "'",
            id="ner-minor-count-past-a-float",
        ),
        pytest.param(
            {"hyp": b"!!!\nthe cat\n", "ref": b"?\nthe cat\n"},
            ["score", "{hyp}", "{ref}", "--punctuation", "strip"],
            "{ref}: line 1: reference segment is empty",
            id="score-empty-hypothesis-and-reference",
        ),
        pytest.param(
            {"hyp": b"a b\nc d\ne f\n", "ref": b"a b\n\n  \nc d\n?\ne f\n"},
            ["score", "{hyp}", "{ref}", "--punctuation", "strip"],
            "{ref}: line 5: reference segment is empty",
            id="score-empty-reference-after-blank-lines",
        ),
        pytest.param(
            {"hyp": b"a b\nc d\ne f\n", "ref": b"a b\r\rc d\r\n?\re f"},
            ["score", "{hyp}", "{ref}", "--punctuation", "strip"],
            "{ref}: line 4: reference segment is empty",
            id="score-empty-reference-cr-line-breaks",
        ),
        pytest.param(
            {"hyp": b"a b\nc d\n", "ref1": b"a b\nc d\n", "ref2": b"a b\n\n!\n"},
            ["score", "{hyp}", "{ref1}", "{ref2}", "--punctuation", "strip"],
            "{ref2}: line 3: reference segment is empty",
            id="score-empty-segment-in-second-reference",
        ),
        pytest.param(
            {"hyp": b"!\n\n?!\n", "ref": b"a b\nc d\n"},
            ["score", "{hyp}", "{ref}", "--punctuation", "strip"],
            "{hyp}: every hypothesis segment is empty",
            id="score-every-hypothesis-segment-empty",
        ),
        pytest.param(
            {"model": b'{"response": "NER",\r "predictors": [}'},
            ["predict", "{model}", "BLEU=1"],
            "{model}: line 2: not valid JSON (Expecting value)",
            id="predict-malformed-json-cr-line-breaks",
        ),
        pytest.param(
            {"table": TABLE},
            ["regress", "{table}", "--fixture", "table2"],
            "give a CSV path or --fixture, not both",
            id="regress-csv-and-fixture",
        ),
        pytest.param(
            {"model": MODEL},
            ["predict", "{model}", "BLEU=30", "NIST=6", "EBLEU=30", "BLEU=40"],
            "score 'BLEU' given twice",
            id="predict-repeated-name",
        ),
        pytest.param(
            {"ann": LENGTH_ANNOTATIONS + b"100,1,0,0,0.5,120,-5\n"},
            ["ner", "{ann}"],
            "{ann}: line 4: subtitle length must be >= 0, got -5",
            id="ner-negative-subtitle-length",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b"100,1,", b"100,-1,")},
            ["ner", "{ann}"],
            "{ann}: line 2: edition error counts must be non-negative",
            id="ner-negative-edition-count",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b",0.5\n", b",x\n")},
            ["ner", "{ann}"],
            "{ann}: line 2: column 'R_weighted' must be a number, got 'x'",
            id="ner-non-numeric-recognition-errors",
        ),
        pytest.param(
            {"ann": b""},
            ["ner", "{ann}"],
            "{ann}: line 1: missing header row",
            id="ner-empty-file",
        ),
        pytest.param(
            {"table": b""},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 1: missing header row",
            id="regress-empty-csv",
        ),
        pytest.param(
            {},
            ["regress"],
            "either a CSV path or --fixture is required",
            id="regress-no-input",
        ),
        pytest.param(
            {"model": MODEL},
            ["predict", "{model}", "BLEU=abc"],
            "scores look like NAME=VALUE, VALUE a finite number; got 'BLEU=abc'",
            id="predict-non-numeric-score",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b"100,1,", b"1_00,1,")},
            ["ner", "{ann}"],
            "{ann}: line 2: column 'N' must be an integer, got '1_00'",
            id="ner-underscore-in-count",
        ),
        pytest.param(
            {"ann": ANNOTATIONS.replace(b"100,1,", "١٠٠,1,".encode())},
            ["ner", "{ann}"],
            "{ann}: line 2: column 'N' must be an integer, got '١٠٠'",
            id="ner-arabic-indic-digits",
        ),
        pytest.param(
            {"table": TABLE.replace(b"3,0,6.2", b"3,1_0,6.2")},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 4: column 'z' must be a number, got '1_0'",
            id="regress-underscore-in-cell",
        ),
        pytest.param(
            {"model": MODEL},
            ["predict", "{model}", "BLEU=1_0"],
            "scores look like NAME=VALUE, VALUE a finite number; got 'BLEU=1_0'",
            id="predict-underscore-in-score",
        ),
        pytest.param(
            {"model": MODEL},
            ["predict", "{model}", "BLEU=٥"],
            "scores look like NAME=VALUE, VALUE a finite number; got 'BLEU=٥'",
            id="predict-arabic-indic-digit",
        ),
        pytest.param(
            {"table": b'name,A,y\n"first\nrow",1,2\nsecond,x,3\n'},
            ["regress", "{table}", "--response", "y"],
            "{table}: line 4: column 'A' must be a number, got 'x'",
            id="regress-row-after-a-cell-spanning-lines",
        ),
        pytest.param(
            {"ann": ANNOTATIONS + b'"100\r\n",1,0,0,0.5\r\n\r\n100,1,0,0,x\n'},
            ["ner", "{ann}"],
            "{ann}: line 6: column 'R_weighted' must be a number, got 'x'",
            id="ner-row-after-a-cell-spanning-lines",
        ),
    ],
)
def test_bad_input_exits_2_naming_where(files, argv, message, tmp_path, capsys):
    paths = {name: str(tmp_path / name) for name in files}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert message.format(**paths) in err


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(respeval.ngram_metrics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)


def test_import_does_not_load_numpy():
    done = _python("import sys, respeval.cli; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
    # a bare import of the package loads neither the command line nor argparse
    loaded = ("numpy", "argparse", "respeval.cli")
    done = _python(f"import sys, respeval; print([name for name in {loaded} if name in sys.modules])")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
import respeval
from respeval.cli import main
data, ann, model = sys.argv[1:]
commands = [
    ["score", f"{data}/hyp.txt", f"{data}/ref1.txt", f"{data}/ref2.txt", "--synonyms", f"{data}/synonyms.tsv",
     "--stems", f"{data}/stems.tsv", "--function-words", f"{data}/function_words.txt"],
    ["ner", ann],
    ["predict", model, "BLEU=30", "NIST=6", "EBLEU=30"],
    ["fixture", "table1"],
]
print([main(argv) for argv in commands], file=sys.stderr)
"""


def test_score_ner_predict_and_fixture_run_without_numpy(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(capsys, "regress", "--fixture", "table1", "--json", str(model))[0] == 0
    ann = tmp_path / "ann.csv"
    ann.write_bytes(LENGTH_ANNOTATIONS)
    done = _python(WITHOUT_NUMPY, str(REPORT_DATA), str(ann), str(model))
    assert (done.returncode, done.stderr) == (0, "[0, 0, 0, 0]\n")


def _mutate(rng, data: bytes) -> bytes:
    """One random corruption: a byte, a cut, bad UTF-8, or a CSV field."""
    kind = rng.randrange(6)
    pos = rng.randrange(len(data) + 1)
    if kind == 0:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos]
    if kind == 2:
        return data[:pos] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]) + data[pos:]
    lines = data.split(b"\n")
    line = rng.randrange(len(lines))
    cells = lines[line].split(b",")
    if kind == 3:
        del cells[rng.randrange(len(cells))]
    elif kind == 4:
        cells.insert(rng.randrange(len(cells) + 1), rng.choice([b"1", b"", b"x"]))
    else:
        cells[rng.randrange(len(cells))] = rng.choice([b"nan", b"inf", b"-inf", b"NaN", b"-Infinity"])
    lines[line] = b",".join(cells)
    return b"\n".join(lines)


FUZZ_INPUTS = {
    "hyp": b"the cat sat on the mat\na dog ran home fast\n",
    "ref": b"the cat sat on a mat\nthe dog ran home\n",
    "syn": b"dog\thound\ncat\tkitten\n",
    "stems": b"ran\trun\n",
    "words": b"the\na\non\n",
    "ann": LENGTH_ANNOTATIONS,
    "table": TABLE,
    "model": MODEL,
}
FUZZ_COMMANDS = (
    ["score", "{hyp}", "{ref}", "--synonyms", "{syn}", "--stems", "{stems}", "--function-words", "{words}"],
    ["ner", "{ann}"],
    ["regress", "{table}", "--response", "y"],
    ["predict", "{model}", "BLEU=40", "x=1"],
)


def test_cli_fuzz_exits_0_or_2(tmp_path, capsys):
    # Corrupted copies of valid inputs, or a path that names a directory:
    # each run succeeds or exits 2 with a message, never an internal error.
    rng = make_rng(404)
    for trial in range(400):
        argv = rng.choice(FUZZ_COMMANDS)
        used = [name for name in FUZZ_INPUTS if f"{{{name}}}" in argv]
        target = rng.choice(used)
        paths = {}
        for name in used:
            paths[name] = tmp_path / f"{trial}-{name}"
            data = FUZZ_INPUTS[name]
            if name == target:
                for _ in range(rng.randint(1, 3)):
                    data = _mutate(rng, data)
            paths[name].write_bytes(data)
        if rng.random() < 0.05:
            paths[target] = tmp_path
        if argv[0] == "predict" and rng.random() < 0.3:
            argv = argv[:-1] + [rng.choice(["x=nan", "x=inf", "x=", "x", "=1", "x=1e999"])]
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code in (0, 2), (argv, paths[target].read_bytes() if paths[target].is_file() else "dir", err)
        assert "internal error" not in err and "Traceback" not in err
