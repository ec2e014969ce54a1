import io
import math
import warnings

import pytest

from respeval import stats
from respeval.fixtures import load_fixture
from respeval.stats import (
    DataTable,
    RegressionModel,
    adjusted_r2,
    backward_eliminate,
    ols_fit,
    predict,
    regularized_incomplete_beta,
    t_sf,
)
from respeval.textcore import RespevalInputError

from helpers import make_rng
import oracles


def make_table(columns, rows, response):
    return DataTable(columns=list(columns), rows=[list(r) for r in rows], response=response)


def random_table(rng, n, k):
    columns = [f"x{j}" for j in range(k)] + ["y"]
    rows = []
    for _ in range(n):
        xs = [rng.uniform(-5, 5) for _ in range(k)]
        y = 1.5 + sum((j + 1) * x for j, x in enumerate(xs)) + rng.gauss(0, 1)
        rows.append(xs + [y])
    return make_table(columns, rows, "y")


# --- ols_fit -----------------------------------------------------------------


def test_exact_line_fit():
    table = make_table(["x", "y"], [[1, 2], [2, 4], [3, 6]], "y")
    model = ols_fit(table, ["x"])
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert model.coefficients[1] == pytest.approx(2.0, abs=1e-12)
    assert model.r2 == pytest.approx(1.0, abs=1e-12)


def test_exact_fit_has_zero_standard_errors():
    # Rounding leaves RSS ~1e-31 here; read as data it gave t = 2.8e15 for x
    # and p = 0.663 for a constant of -4e-16.
    table = make_table(["x", "y"], [[1, 1], [2, 2], [3, 3]], "y")
    model = ols_fit(table, ["x"])
    assert model.std_errors == (0.0, 0.0)
    assert (model.t_stats[0], model.p_values[0]) == (0.0, 1.0)
    assert (model.t_stats[1], model.p_values[1]) == (math.inf, 0.0)


def test_fit_matches_normal_equations_oracle():
    rng = make_rng(40)
    for _ in range(100):
        n = rng.randint(6, 20)
        k = rng.randint(1, 3)
        table = random_table(rng, n, k)
        predictors = [f"x{j}" for j in range(k)]
        model = ols_fit(table, predictors)
        expected = oracles.normal_equations_fit(
            [table.column(p) for p in predictors], table.column("y")
        )
        for got, want in zip(model.coefficients, expected):
            assert got == pytest.approx(want, abs=1e-8)


def test_residuals_orthogonal_and_centered():
    rng = make_rng(41)
    for _ in range(20):
        table = random_table(rng, rng.randint(8, 20), 2)
        model = ols_fit(table, ["x0", "x1"])
        y = table.column("y")
        fitted = [predict(model, {"x0": a, "x1": b}) for a, b in zip(table.column("x0"), table.column("x1"))]
        resid = [yi - fi for yi, fi in zip(y, fitted)]
        assert sum(resid) == pytest.approx(0.0, abs=1e-8)
        for name in ("x0", "x1"):
            dot = sum(r * x for r, x in zip(resid, table.column(name)))
            assert dot == pytest.approx(0.0, abs=1e-8)


def test_r2_equals_squared_fitted_correlation():
    rng = make_rng(42)
    for _ in range(20):
        table = random_table(rng, rng.randint(8, 20), 2)
        model = ols_fit(table, ["x0", "x1"])
        y = table.column("y")
        fitted = [
            predict(model, {"x0": a, "x1": b})
            for a, b in zip(table.column("x0"), table.column("x1"))
        ]
        my = sum(y) / len(y)
        mf = sum(fitted) / len(fitted)
        cov = sum((a - mf) * (b - my) for a, b in zip(fitted, y))
        var_f = sum((a - mf) ** 2 for a in fitted)
        var_y = sum((b - my) ** 2 for b in y)
        assert model.r2 == pytest.approx(cov * cov / (var_f * var_y), abs=1e-10)


def test_standardized_betas_invariant_under_rescaling():
    rng = make_rng(43)
    table = random_table(rng, 15, 2)
    model = ols_fit(table, ["x0", "x1"])
    scaled_rows = [[x0 * 1000.0, x1, y] for x0, x1, y in table.rows]
    scaled = make_table(table.columns, scaled_rows, "y")
    rescaled = ols_fit(scaled, ["x0", "x1"])
    assert rescaled.standardized_betas[0] == pytest.approx(model.standardized_betas[0], rel=1e-9)
    assert rescaled.coefficients[1] == pytest.approx(model.coefficients[1] / 1000.0, rel=1e-9)


def test_fit_rejects_too_few_rows():
    table = make_table(["x", "y"], [[1, 1], [2, 2]], "y")
    with pytest.raises(RespevalInputError, match="need more than 2 rows to fit 1 predictors, got 2"):
        ols_fit(table, ["x"])


def test_fit_rejects_rank_deficiency():
    rows = [[i, i, i + 0.5] for i in range(10)]
    table = make_table(["a", "b", "y"], rows, "y")
    with pytest.raises(RespevalInputError, match="rank deficient"):
        ols_fit(table, ["a", "b"])


def test_fit_rejects_overflowing_sums():
    # finite values whose squares overflow: no inf or nan may reach the model,
    # and numpy must not warn on the way
    rows = [[x, (-1) ** x * 1e300] for x in range(1, 6)]
    table = make_table(["x", "y"], rows, "y")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RespevalInputError, match="sums of squares or standard errors overflow"):
            ols_fit(table, ["x"])


def test_fit_t_and_p_columns():
    rng = make_rng(44)
    table = random_table(rng, 18, 2)
    model = ols_fit(table, ["x0", "x1"])
    for b, se, t, p in zip(model.coefficients, model.std_errors, model.t_stats, model.p_values):
        assert t == pytest.approx(b / se, rel=1e-12)
        assert p == pytest.approx(oracles.t_sf_quadrature(t, model.df_resid), abs=1e-8)


# --- t distribution -----------------------------------------------------------


def test_t_sf_at_zero():
    for df in (1, 5, 30, 1000):
        assert t_sf(0.0, df) == 1.0


def test_t_sf_tail_limit():
    assert t_sf(1e8, 5) < 1e-12


def test_t_sf_quantile_spot():
    assert t_sf(1.96, 1000) == pytest.approx(oracles.t_sf_quadrature(1.96, 1000), abs=1e-9)
    assert t_sf(1.96, 1000) == pytest.approx(0.0503, abs=5e-4)


def test_t_sf_grid_against_quadrature():
    for df in (1, 5, 30, 55, 1000):
        for i in range(13):
            t = 6.0 * i / 12
            assert t_sf(t, df) == pytest.approx(oracles.t_sf_quadrature(t, df), abs=1e-6)


def test_t_sf_rejects_bad_df():
    with pytest.raises(ValueError):
        t_sf(1.0, 0)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1,1) is the identity
    assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)


# --- adjusted R^2 ----------------------------------------------------------------


def test_adjusted_r2_perfect_fit():
    assert adjusted_r2(1.0, 57, 3) == 1.0


def test_adjusted_r2_worked_value():
    assert adjusted_r2(0.775, 57, 3) == pytest.approx(1 - 0.225 * 56 / 53, abs=1e-12)


def test_adjusted_r2_zero_fit_goes_negative():
    assert adjusted_r2(0.0, 10, 1) == pytest.approx(-0.125)


def test_adjusted_r2_degenerate_df():
    with pytest.raises(RespevalInputError, match="leaves no residual degrees of freedom"):
        adjusted_r2(0.5, 4, 3)


# --- backward elimination ----------------------------------------------------------


def test_elimination_stops_when_all_significant():
    rng = make_rng(45)
    rows = []
    for _ in range(40):
        x = rng.uniform(-3, 3)
        rows.append([x, 2.0 * x + rng.gauss(0, 0.1)])
    table = make_table(["x", "y"], rows, "y")
    trace = backward_eliminate(table, ["x"])
    assert len(trace.steps) == 1
    assert trace.steps[0].removed is None
    assert trace.final_model.predictors == ("x",)


def test_elimination_drops_noise_column_first():
    rng = make_rng(46)
    rows = []
    for _ in range(50):
        x = rng.uniform(-3, 3)
        noise = rng.uniform(-3, 3)
        rows.append([x, noise, 2.0 * x + rng.gauss(0, 0.2)])
    table = make_table(["signal", "noise", "y"], rows, "y")
    trace = backward_eliminate(table, ["signal", "noise"])
    assert trace.steps[0].removed == "noise"
    assert trace.final_model.predictors == ("signal",)


def test_elimination_trace_is_deterministic():
    table = load_fixture("table1")
    candidates = ["BLEU", "NIST", "TER", "METEOR", "METEOR-PL", "EBLEU", "RIBES"]
    first = backward_eliminate(table, candidates)
    second = backward_eliminate(table, candidates)
    assert [s.removed for s in first.steps] == [s.removed for s in second.steps]
    assert first.final_model == second.final_model


def test_elimination_keeps_last_predictor():
    rng = make_rng(47)
    rows = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(12)]
    table = make_table(["x", "y"], rows, "y")
    trace = backward_eliminate(table, ["x"])
    assert len(trace.steps) == 1
    assert trace.final_model.predictors == ("x",)


def test_elimination_tie_drops_the_later_listed_candidate(monkeypatch):
    def tied_fit(table, predictors, response):
        # every predictor insignificant at the same p-value
        k = len(predictors)
        return RegressionModel(
            "y", tuple(predictors), (0.0,) * (k + 1), (1.0,) * (k + 1), (0.0,) * (k + 1),
            (1.0,) + (0.5,) * k, (0.0,) * k, 0.0, 0.0, 10, 10 - k - 1,
        )

    monkeypatch.setattr(stats, "ols_fit", tied_fit)
    trace = backward_eliminate(make_table(["a", "b", "c", "y"], [], "y"), ["a", "b", "c"])
    assert [(step.step, step.removed) for step in trace.steps] == [(1, "c"), (2, "b"), (3, None)]
    assert trace.final_model.predictors == ("a",)


# --- predict ------------------------------------------------------------------------


def published_model():
    # headline three-metric model for the bundled table1 benchmark
    return RegressionModel(
        response="NER",
        predictors=("BLEU", "NIST", "EBLEU"),
        coefficients=(86.55, 0.254, 0.924, -0.221),
        std_errors=(0.0, 0.0, 0.0, 0.0),
        t_stats=(0.0, 0.0, 0.0, 0.0),
        p_values=(0.0, 0.0, 0.0, 0.0),
        standardized_betas=(0.0, 0.0, 0.0),
        r2=0.0,
        adjusted_r2=0.0,
        n=57,
        df_resid=53,
    )


def test_predict_zero_vector_gives_intercept():
    assert predict(published_model(), {"BLEU": 0, "NIST": 0, "EBLEU": 0}) == pytest.approx(86.55)


def test_predict_row16_spot_check():
    value = predict(published_model(), {"BLEU": 88.82, "NIST": 8.66, "EBLEU": 95.20})
    assert value == pytest.approx(96.07, abs=0.01)
    assert abs(value - 95.96) < 0.2


def test_predict_missing_predictor():
    with pytest.raises(RespevalInputError, match=r"missing predictor values: \['EBLEU'\]"):
        predict(published_model(), {"BLEU": 50.0, "NIST": 7.0})


@pytest.mark.parametrize(
    "scores",
    [{"BLEU": 1e308, "NIST": 1.9e308, "EBLEU": 0.0}, {"BLEU": 1.0, "NIST": math.nan, "EBLEU": 1.0}],
    ids=["overflow", "nan"],
)
def test_predict_non_finite_sum_is_an_input_error(scores):
    # every product is finite or the score itself is not: the sum is inf or nan
    with pytest.raises(RespevalInputError, match="not a finite number"):
        predict(published_model(), scores)


def test_model_round_trip_dict():
    table = load_fixture("table1")
    model = ols_fit(table, ["BLEU", "NIST", "EBLEU"])
    assert RegressionModel.from_dict(model.to_dict()) == model


# --- reference dataset fit -----------------------------------------------------------


def test_reference_fit_three_metrics():
    table = load_fixture("table1")
    model = ols_fit(table, ["BLEU", "NIST", "EBLEU"])
    assert model.n == 57
    assert model.coefficients[0] == pytest.approx(86.556, abs=5e-3)
    assert model.coefficients[1] == pytest.approx(0.254, abs=5e-3)
    assert model.coefficients[2] == pytest.approx(0.924, abs=5e-3)
    assert model.coefficients[3] == pytest.approx(-0.221, abs=5e-3)
    assert model.std_errors[0] == pytest.approx(0.913, abs=5e-3)
    assert model.std_errors[1] == pytest.approx(0.090, abs=5e-3)
    assert model.std_errors[2] == pytest.approx(0.404, abs=5e-3)
    assert model.std_errors[3] == pytest.approx(0.066, abs=5e-3)
    assert model.standardized_betas[0] == pytest.approx(1.531, abs=5e-3)
    assert model.standardized_betas[1] == pytest.approx(0.587, abs=5e-3)
    assert model.standardized_betas[2] == pytest.approx(-1.310, abs=5e-3)
    assert model.t_stats[0] == pytest.approx(94.814, abs=5e-2)
    assert model.adjusted_r2 == pytest.approx(0.761, abs=5e-4)
    assert all(p <= 0.05 for p in model.p_values[1:])


def test_reference_elimination_from_all_seven():
    table = load_fixture("table1")
    candidates = ["BLEU", "NIST", "TER", "METEOR", "METEOR-PL", "EBLEU", "RIBES"]
    trace = backward_eliminate(table, candidates, alpha=0.05)
    assert [s.removed for s in trace.steps] == ["TER", "RIBES", "METEOR-PL", "METEOR", None]
    assert set(trace.final_model.predictors) == {"BLEU", "NIST", "EBLEU"}
    assert all(p <= 0.05 for p in trace.final_model.p_values[1:])
    # one removal per stage: predictor count decreases by exactly one
    sizes = [len(s.model.predictors) for s in trace.steps]
    assert sizes == [7, 6, 5, 4, 3]


# --- DataTable ----------------------------------------------------------------------


def test_from_csv_numeric_id_stays_a_column():
    text = "SPKR,A,y\n1,2.0,3.0\n2,4.0,5.0\n"
    table = DataTable.from_csv(io.StringIO(text), response="y")
    assert table.columns == ["SPKR", "A", "y"]
    assert table.row_ids == []


def test_from_csv_non_numeric_first_column_becomes_ids():
    text = "name,A,y\nfirst,2.0,3.0\nsecond,4.0,5.0\n"
    table = DataTable.from_csv(io.StringIO(text))
    assert table.columns == ["A", "y"]
    assert table.row_ids == ["first", "second"]
    assert table.column("A") == [2.0, 4.0]


def test_from_csv_rejects_non_numeric_body():
    text = "A,B\n1.0,x\n"
    with pytest.raises(RespevalInputError, match="^line 2: column 'B' must be a number, got 'x'$"):
        DataTable.from_csv(io.StringIO(text))


def test_from_csv_typo_in_numeric_first_column_is_reported_not_an_id():
    # float() reads 1_0, so SPKR stays a data column; the number reader rejects the cell
    text = "SPKR,A,y\n1,2.0,3.0\n1_0,4.0,5.0\n3,1.0,2.0\n"
    with pytest.raises(RespevalInputError, match="^line 3: column 'SPKR' must be a number, got '1_0'$"):
        DataTable.from_csv(io.StringIO(text), response="y")


def test_from_csv_rejects_missing_response():
    with pytest.raises(RespevalInputError, match="response column 'C' not in"):
        DataTable.from_csv(io.StringIO("A,B\n1,2\n"), response="C")


def test_from_csv_rejects_ragged_rows():
    with pytest.raises(RespevalInputError, match="^line 2: expected 2 fields, got 3"):
        DataTable.from_csv(io.StringIO("A,B\n1,2,3\n"))
