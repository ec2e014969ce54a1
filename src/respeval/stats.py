"""Ordinary least squares with inference and backward elimination.

The solver goes through a Householder QR factorization: the metric columns
fed to it are highly collinear, so conditioning matters more than raw speed.
Normal-equation inversion exists only as an independent oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_origin, get_type_hints

from .textcore import RespevalInputError, read_number, read_table


RANK_PIVOT_THRESHOLD = 1e-10


# --- Student's t machinery ----------------------------------------------------


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete beta continued fraction.
    tiny = 1e-300
    eps = 1e-15
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for numerator in (even, odd):
            d = 1.0 + numerator * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """Two-sided p-value: probability(|T| >= |t|) under Student's t."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(1.0, regularized_incomplete_beta(df / 2.0, 0.5, x))


def adjusted_r2(r2: float, n: int, k: int) -> float:
    """1 - (1 - r2)(n - 1)/(n - k - 1); may legitimately go negative."""
    if n - k - 1 <= 0:
        raise RespevalInputError(f"n={n}, k={k} leaves no residual degrees of freedom")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


# --- data table ----------------------------------------------------------------


@dataclass
class DataTable:
    """Rectangular numeric table with named columns.

    ``row_ids`` holds a leading non-numeric id column when the source CSV had
    one; numeric id-like columns simply stay ordinary columns.
    """

    columns: list[str]
    rows: list[list[float]]
    response: str | None = None
    row_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RespevalInputError(f"row {i + 1} has {len(row)} fields, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[float]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise RespevalInputError(
                f"no column named {name!r}; the columns are {', '.join(self.columns)}"
            ) from None
        return [row[idx] for row in self.rows]

    @classmethod
    def from_csv(cls, source: str | Path | Iterable[str], response: str | None = None) -> "DataTable":
        path = source if isinstance(source, (str, Path)) else None
        (_, header), *body = read_table(source)

        def numeric(cell: str) -> bool:
            try:
                float(cell)
                return True
            except ValueError:
                return False

        # float()'s wider grammar decides only the id column: a typo such as
        # 1_0 in a numeric first column is reported below, never read as an id
        id_first = bool(body) and not all(numeric(row[0]) for _, row in body)
        columns = header[1:] if id_first else header
        row_ids = [row[0].strip() for _, row in body] if id_first else []
        rows: list[list[float]] = []
        for lineno, row in body:
            cells = row[1:] if id_first else row
            try:
                rows.append([read_number(cell, f"column {name!r}") for name, cell in zip(columns, cells)])
            except RespevalInputError as exc:
                raise RespevalInputError(exc.message, path, lineno) from None
        if response is not None and response not in columns:
            raise RespevalInputError(f"response column {response!r} not in {columns}", path)
        return cls(columns=columns, rows=rows, response=response, row_ids=row_ids)


# --- model ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionModel:
    """Fit summary: coefficients (intercept first), inference columns and fit
    statistics, mirroring the usual B / Std. Error / Beta / t / Sig. layout."""

    response: str
    predictors: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    standardized_betas: tuple[float, ...]
    r2: float
    adjusted_r2: float
    n: int
    df_resid: int

    def to_dict(self) -> dict:
        """The fields by name, tuples as lists: the JSON form of the model."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RegressionModel":
        """Inverse of ``to_dict``. Data ``predict`` could not apply, such as a
        missing entry, a number in place of a list or a non-finite
        coefficient, is a ``RespevalInputError``."""
        tuples = {name for name, hint in get_type_hints(cls).items() if get_origin(hint) is tuple}
        try:
            model = cls(**{f.name: tuple(data[f.name]) if f.name in tuples else data[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise RespevalInputError(f"the model has no {exc} entry") from None
        except TypeError:
            raise RespevalInputError("the model must be a JSON object of names, lists and numbers") from None
        if not (
            all(isinstance(name, str) for name in model.predictors)
            and len(model.coefficients) == len(model.predictors) + 1
            and all(isinstance(c, (int, float)) and math.isfinite(c) for c in model.coefficients)
        ):
            raise RespevalInputError(
                "the model needs one predictor name per coefficient after the intercept, "
                "and finite coefficients"
            )
        return model


def ols_fit(
    table: DataTable, predictors: Sequence[str], response: str | None = None
) -> RegressionModel:
    """Least squares fit of ``response`` on ``predictors`` plus an intercept.

    Standard errors come from s^2 (X'X)^-1 with s^2 = RSS / (n - k - 1);
    p-values are two-sided under Student's t; standardized betas rescale each
    coefficient by sd(x) / sd(y).
    """
    import numpy as np  # only fits need it; scoring starts without it

    response = response or table.response
    if response is None:
        raise ValueError("no response column specified")
    predictors = list(predictors)
    if not predictors:
        raise RespevalInputError(f"need at least one predictor besides the response {response!r}")
    y = np.asarray(table.column(response), dtype=float)
    n = len(y)
    k = len(predictors)
    if n <= k + 1:
        raise RespevalInputError(f"need more than {k + 1} rows to fit {k} predictors, got {n}")
    X = np.column_stack([np.ones(n)] + [table.column(name) for name in predictors])

    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() < RANK_PIVOT_THRESHOLD * max(diag.max(), 1.0):
        raise RespevalInputError(
            f"design matrix is rank deficient (predictors {predictors}); "
            "remove duplicated or constant columns"
        )
    df = n - k - 1
    # Finite values can still overflow when squared; such a table is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.linalg.solve(r, q.T @ y)
        resid = y - X @ beta
        rss = float(resid @ resid)
        tss = float(((y - y.mean()) ** 2).sum())
        r_inv = np.linalg.solve(r, np.eye(k + 1))
        se = np.sqrt(rss / df * (r_inv * r_inv).sum(axis=1))
        sd_y = float(np.std(y, ddof=1))
        sd_xs = [float(np.std(np.asarray(table.column(name)), ddof=1)) for name in predictors]
        # A term whose share of the fitted values is below the rounding
        # tolerance is zero relative to the data's scale.
        contributions = np.abs(beta) * np.linalg.norm(X, axis=0)
    if not np.isfinite([rss, tss, *se, sd_y, *sd_xs]).all():
        raise RespevalInputError(
            f"sums of squares or standard errors overflow fitting {response!r} on {predictors}; "
            "rescale the values"
        )
    # An exact fit up to rounding: its residuals and standard errors are 0.
    tolerance = 1e-12 * max(1.0, float(y @ y))
    exact = rss <= tolerance
    if exact:
        se = np.zeros(k + 1)
    if tss > 0:
        r2 = 1.0 - rss / tss
    else:
        r2 = 1.0 if exact else 0.0

    t_stats = []
    p_values = []
    for b, s, contribution in zip(beta, se, contributions):
        if s > 0:
            t = float(b / s)
        else:
            t = 0.0 if contribution <= math.sqrt(tolerance) else math.copysign(math.inf, b)
        t_stats.append(t)
        p_values.append(t_sf(t, df))

    betas_std = [float(b) * sd_x / sd_y if sd_y > 0 else 0.0 for b, sd_x in zip(beta[1:], sd_xs)]

    return RegressionModel(
        response=response,
        predictors=tuple(predictors),
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in se),
        t_stats=tuple(t_stats),
        p_values=tuple(p_values),
        standardized_betas=tuple(betas_std),
        r2=r2,
        adjusted_r2=adjusted_r2(r2, n, k),
        n=n,
        df_resid=df,
    )


@dataclass(frozen=True)
class EliminationStep:
    step: int
    model: RegressionModel
    removed: str | None


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...]
    alpha: float

    @property
    def final_model(self) -> RegressionModel:
        return self.steps[-1].model


def backward_eliminate(
    table: DataTable,
    candidates: Sequence[str],
    alpha: float = 0.05,
    response: str | None = None,
) -> EliminationTrace:
    """Refit repeatedly, dropping the least significant predictor.

    Each stage removes the predictor with the largest p-value above ``alpha``
    (p ties resolved by dropping the later-listed candidate); the trace keeps
    every intermediate model and stops once every survivor is significant or
    a single predictor remains. The response may not be a candidate.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    response = response or table.response
    if response in candidates:
        raise RespevalInputError(f"the response {response!r} is also a candidate predictor")
    remaining = list(candidates)
    steps: list[EliminationStep] = []
    while True:
        model = ols_fit(table, remaining, response)
        worst_idx: int | None = None
        worst_p = alpha
        for j, p in enumerate(model.p_values[1:]):
            if p > alpha and p >= worst_p:
                worst_idx = j
                worst_p = p
        removed = None if worst_idx is None or len(remaining) == 1 else remaining.pop(worst_idx)
        steps.append(EliminationStep(len(steps) + 1, model, removed))
        if removed is None:
            return EliminationTrace(steps=tuple(steps), alpha=alpha)


def predict(model: RegressionModel, scores: Mapping[str, float]) -> float:
    """Intercept plus the weighted sum of the supplied predictor values, which must be finite."""
    missing = [name for name in model.predictors if name not in scores]
    if missing:
        raise RespevalInputError(f"missing predictor values: {missing}")
    value = model.coefficients[0]
    for name, coef in zip(model.predictors, model.coefficients[1:]):
        value += coef * scores[name]
    if not math.isfinite(value):
        raise RespevalInputError(f"the prediction is {value}, not a finite number: the weighted sum overflows")
    return value
