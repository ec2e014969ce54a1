"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to watch).
"""

import itertools

from respeval.align_metrics import kendall_nkt, meteor, ribes, spearman_nsr, ter
from respeval.fixtures import load_fixture
from respeval.ner import ErrorSeverity, NerRecord, ner_accuracy
from respeval.ngram_metrics import NgramConfig, bleu, ebleu, nist
from respeval.resources import LanguageResources
from respeval.stats import RegressionModel, backward_eliminate, ols_fit, predict, t_sf

from helpers import make_rng, random_corpus
import oracles


def report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_ebleu_worked_example():
    hyp = ["this", "is", "a", "exam"]
    ref = ["this", "is", "a", "quiz"]
    synonyms = LanguageResources(
        synonyms={"exam": frozenset({"quiz"}), "quiz": frozenset({"exam"})}
    )
    with_syn = ebleu([hyp], [[ref]], NgramConfig(synonym_score=0.9, max_n=1, resources=synonyms))
    without = ebleu([hyp], [[ref]], NgramConfig(max_n=1))
    ok = (
        abs(with_syn.precisions[0] - 0.975) <= 1e-12
        and abs(without.precisions[0] - 0.75) <= 1e-12
    )
    report(1, ok, "synonym-credit worked example: 0.975 with synonyms, 0.75 without")


EXPECTED_COEFFS = (86.556, 0.254, 0.924, -0.221)
EXPECTED_ADJ_R2 = 0.761


def test_criterion_2_regression_reproduction():
    table = load_fixture("table1")
    model = ols_fit(table, ["BLEU", "NIST", "EBLEU"])
    coeff_ok = all(
        abs(got - want) <= 0.15 * abs(want)
        for got, want in zip(model.coefficients, EXPECTED_COEFFS)
    )
    adj_ok = abs(model.adjusted_r2 - EXPECTED_ADJ_R2) <= 0.05
    detail = (
        "table1 fit vs reference coefficients "
        f"{tuple(round(c, 3) for c in model.coefficients)} ~ {EXPECTED_COEFFS}, "
        f"adj R2 {model.adjusted_r2:.4f} ~ {EXPECTED_ADJ_R2}"
    )
    report(2, coeff_ok and adj_ok, detail)


def test_criterion_3_ols_oracle_equivalence():
    rng = make_rng(103)
    ok = True
    for _ in range(100):
        n = rng.randint(6, 20)
        k = rng.randint(1, 3)
        columns = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(k)]
        y = [
            1.0
            + sum((j + 1) * columns[j][i] for j in range(k))
            + rng.gauss(0, 1)
            for i in range(n)
        ]
        from respeval.stats import DataTable

        table = DataTable(
            columns=[f"x{j}" for j in range(k)] + ["y"],
            rows=[[columns[j][i] for j in range(k)] + [y[i]] for i in range(n)],
            response="y",
        )
        names = [f"x{j}" for j in range(k)]
        model = ols_fit(table, names)
        expected = oracles.normal_equations_fit(columns, y)
        ok &= all(abs(a - b) <= 1e-8 for a, b in zip(model.coefficients, expected))
        fitted = [
            model.coefficients[0]
            + sum(model.coefficients[j + 1] * columns[j][i] for j in range(k))
            for i in range(n)
        ]
        resid = [yi - fi for yi, fi in zip(y, fitted)]
        ok &= abs(sum(resid)) <= 1e-8
        for j in range(k):
            ok &= abs(sum(r * x for r, x in zip(resid, columns[j]))) <= 1e-8
        my = sum(y) / n
        mf = sum(fitted) / n
        cov = sum((a - mf) * (b - my) for a, b in zip(fitted, y))
        var_f = sum((a - mf) ** 2 for a in fitted)
        var_y = sum((b - my) ** 2 for b in y)
        ok &= abs(model.r2 - cov * cov / (var_f * var_y)) <= 1e-10
        if not ok:
            break
    report(3, ok, "QR fit == cofactor normal equations (100 seeded instances)")


def test_criterion_4_backward_elimination_on_table1():
    table = load_fixture("table1")
    trace = backward_eliminate(
        table, ["BLEU", "NIST", "TER", "METEOR", "METEOR-PL", "EBLEU", "RIBES"], alpha=0.05
    )
    sizes = [len(s.model.predictors) for s in trace.steps]
    one_per_stage = all(a - b == 1 for a, b in zip(sizes, sizes[1:]))
    survivors_significant = all(p <= 0.05 for p in trace.final_model.p_values[1:])
    target = set(trace.final_model.predictors) == {"BLEU", "NIST", "EBLEU"}
    report(
        4,
        one_per_stage and survivors_significant and target,
        f"elimination trace {[s.removed for s in trace.steps]} -> {trace.final_model.predictors}",
    )


def test_criterion_5_t_distribution_vs_quadrature():
    worst = 0.0
    for df in (1, 5, 30, 55, 1000):
        for i in range(50):
            t = 6.0 * i / 49
            delta = abs(t_sf(t, df) - oracles.t_sf_quadrature(t, df))
            worst = max(worst, delta)
    report(5, worst <= 1e-6, f"t survival function vs adaptive Simpson, worst |delta| = {worst:.2e}")


def test_criterion_6_ter_minimality():
    rng = make_rng(106)
    agree = 0
    total = 200
    never_below = True
    for _ in range(total):
        vocab = "abcde"[: rng.randint(2, 5)]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        got = ter(hyp, ref).edits
        optimal = oracles.ter_exhaustive(hyp, ref)
        never_below &= got >= optimal
        agree += got == optimal
    identity_zero = all(
        ter(seq, seq).edits == 0
        for seq in ([rng.choice("abcde") for _ in range(rng.randint(1, 8))] for _ in range(20))
    )
    ok = never_below and agree / total >= 0.9 and identity_zero
    report(6, ok, f"greedy TER >= exhaustive oracle, equal on {agree}/{total} pairs")


def test_criterion_7_metric_identity_suite():
    rng = make_rng(107)
    ok = True
    for _ in range(50):
        corpus = random_corpus(rng, max_segments=8, max_tokens=12)
        refs = [[seg] for seg in corpus]
        other = random_corpus(rng, max_segments=len(corpus), max_tokens=12)
        if len(other) == len(corpus):
            plain = bleu(other, refs, NgramConfig(max_n=3)).score
            neutral = ebleu(
                other, refs, NgramConfig(max_n=3, rare_words_score=1.0, rare_words_percent=0.0)
            ).score
            ok &= plain == neutral
        ok &= bleu(corpus, refs).score == 1.0
        ok &= ebleu(corpus, refs).score == 1.0
        ok &= nist(corpus, refs, NgramConfig()) > 0.0
        for seg in corpus:
            ok &= ter(seg, seg).ter == 0.0
            ok &= ribes(seg, seg).score == 1.0
            for exponent in (1.0, 3.0):
                expected = 1.0 - 0.5 * (1.0 / len(seg)) ** exponent
                ok &= abs(meteor(seg, seg, penalty_exponent=exponent).score - expected) <= 1e-12
        if not ok:
            break
    report(7, ok, "identity suite over 50 random corpora (BLEU/EBLEU/NIST/TER/METEOR/RIBES)")


def test_criterion_8_rank_statistics():
    ok = abs(kendall_nkt([1, 2, 4, 3]) - 5 / 6) <= 1e-12
    for n in range(2, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            ok &= kendall_nkt(perm) == oracles.kendall_nkt_brute(perm)
            ok &= abs(spearman_nsr(perm) - oracles.spearman_nsr_brute(perm)) <= 1e-12
            if not ok:
                break
    report(8, ok, "NKT/NSR match brute-force enumeration on all permutations n <= 6")


def test_criterion_9_ner_formula():
    def record(n, minor=0, standard=0, serious=0, r=0.0):
        return NerRecord(
            tokens=n,
            edition_errors=(
                (ErrorSeverity.MINOR, minor),
                (ErrorSeverity.STANDARD, standard),
                (ErrorSeverity.SERIOUS, serious),
            ),
            recognition_errors=r,
        )

    ok = ner_accuracy(record(100)) == 100.0
    ok &= ner_accuracy(record(100, serious=1, r=1)) == 98.0
    ok &= ner_accuracy(record(200, minor=2, standard=1, r=1)) == 99.0
    rng = make_rng(109)
    for _ in range(100):
        n = rng.randint(20, 400)
        minor, standard, serious, r = (rng.randint(0, 4) for _ in range(4))
        scale = rng.randint(2, 7)
        base = ner_accuracy(record(n, minor, standard, serious, r))
        scaled = ner_accuracy(
            record(n * scale, minor * scale, standard * scale, serious * scale, r * scale)
        )
        ok &= abs(base - scaled) <= 1e-9
    report(9, ok, "NER accuracy worked examples and scale invariance (100 records)")


def test_criterion_10_prediction_spot_check():
    model = RegressionModel(
        response="NER",
        predictors=("BLEU", "NIST", "EBLEU"),
        coefficients=(86.55, 0.254, 0.924, -0.221),
        std_errors=(0.0,) * 4,
        t_stats=(0.0,) * 4,
        p_values=(0.0,) * 4,
        standardized_betas=(0.0,) * 3,
        r2=0.0,
        adjusted_r2=0.0,
        n=57,
        df_resid=53,
    )
    value = predict(model, {"BLEU": 88.82, "NIST": 8.66, "EBLEU": 95.20})
    ok = abs(value - 96.07) <= 0.01 and abs(value - 95.96) < 0.2
    report(10, ok, f"three-metric equation on row-16 inputs -> {value:.4f} (observed 95.96)")
