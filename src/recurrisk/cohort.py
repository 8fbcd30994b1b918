"""Cohort representation, CSV ingestion, z-score normalization and the
synthetic Weibull proportional-hazards cohort generator.

The generator is the ground-truth oracle used throughout the test suite:
event times are drawn by inverse transform so that the hazard is exactly
h0(t) * exp(eta) with a Weibull baseline, and each subject's true linear
predictor eta is returned alongside the cohort.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    EmptyCohortError,
    InvalidParameterError,
    NoInformativeFeaturesError,
    RowParseError,
    SchemaError,
)

MISSING_TOKENS = {"", "na", "nan", "null", "none"}


class ConstantFeatureWarning(UserWarning):
    """Emitted when a zero-variance column is dropped during normalization."""


@dataclass(frozen=True, eq=False)
class Cohort:
    """Subjects as plain columns sharing one feature-name list.

    `ids`, `times` (months) and `events` (0/1) hold one entry per subject;
    `X` is the C-ordered n x d feature matrix, columns in `feature_names`
    order. The constructor validates them once and stores read-only copies,
    so a cohort is immutable and safe to share across threads.
    `normalization` maps feature name -> (mean, stddev) once z-scoring has
    been fit; it travels with the cohort so held-out data can be transformed
    with training statistics.
    """

    feature_names: tuple[str, ...]
    ids: np.ndarray
    times: np.ndarray
    events: np.ndarray
    X: np.ndarray
    normalization: dict[str, tuple[float, float]] | None = None

    def __post_init__(self):
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaError("feature names must be unique")
        ids = _read_only(self.ids, object)
        times = _read_only(self.times, float)
        events = _read_only(self.events, float)
        # C order: X[:, cols] is F-ordered, and X @ beta takes another BLAS
        # path on it, which moves Cox scores in the last bits
        X = _read_only(self.X, float)
        n = ids.size
        if n == 0:
            raise EmptyCohortError("a cohort needs at least one record")
        if (ids.shape, times.shape, events.shape, X.shape) != \
                ((n,), (n,), (n,), (n, len(self.feature_names))):
            raise SchemaError(f"shapes disagree: ids {ids.shape}, times {times.shape}, "
                              f"events {events.shape}, X {X.shape} for "
                              f"{len(self.feature_names)} features")
        if not np.all(times > 0):
            raise InvalidParameterError("times must be positive")
        if not np.all((events == 0) | (events == 1)):
            raise InvalidParameterError("events must be 0 or 1")
        if len(set(ids)) != n:
            dup = next(i for i, count in Counter(ids).items() if count > 1)
            raise SchemaError(f"duplicate subject id {dup!r}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", _read_only(events, int))
        object.__setattr__(self, "X", X)

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return (self.feature_names == other.feature_names
                and self.normalization == other.normalization
                and all(np.array_equal(a, b) for a, b in (
                    (self.ids, other.ids), (self.times, other.times),
                    (self.events, other.events), (self.X, other.X))))

    def __len__(self) -> int:
        return self.times.size

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def matrix(self) -> np.ndarray:
        """The read-only feature matrix `X`."""
        return self.X

    def subset_rows(self, indices) -> "Cohort":
        idx = np.asarray(indices, dtype=np.intp)
        return Cohort(self.feature_names, self.ids[idx], self.times[idx],
                      self.events[idx], self.X[idx], self.normalization)

    def subset_features(self, names) -> "Cohort":
        names = tuple(names)
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise SchemaError(f"unknown features: {missing}")
        cols = [self.feature_names.index(n) for n in names]
        norm = None
        if self.normalization is not None:
            norm = {n: self.normalization[n] for n in names if n in self.normalization}
        return Cohort(names, self.ids, self.times, self.events, self.X[:, cols], norm)


def _read_only(values, dtype) -> np.ndarray:
    """A C-ordered copy of `values` that refuses writes."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ColumnSchema:
    """Column-role mapping for CSV ingestion: every column that is not
    id/time/event is a feature, in file order."""

    time_column: str = "time"
    event_column: str = "event"
    id_column: str | None = "id"


def load_cohort(path, schema: ColumnSchema | None = None) -> Cohort:
    """Read a comma-separated cohort file (header row, '.' decimals, UTF-8).

    Row order is preserved; features are the non-role columns, in file order.
    Raises SchemaError for missing columns, RowParseError for bad cells
    (non-numeric feature, time <= 0, event not in {0,1}, missing value, a
    repeated subject id) and EmptyCohortError for a file without data rows.
    """
    schema = schema or ColumnSchema()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCohortError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        for required in (schema.time_column, schema.event_column):
            if required not in header:
                raise SchemaError(f"{path}: missing column {required!r}")
        if schema.id_column is not None and schema.id_column not in header:
            raise SchemaError(f"{path}: missing column {schema.id_column!r}")

        reserved = {schema.time_column, schema.event_column}
        if schema.id_column is not None:
            reserved.add(schema.id_column)
        feature_names = tuple(h for h in header if h not in reserved)
        if not feature_names:
            raise SchemaError(f"{path}: schema must name at least one feature column")

        col_index = {h: i for i, h in enumerate(header)}
        t_idx = col_index[schema.time_column]
        e_idx = col_index[schema.event_column]
        id_idx = col_index[schema.id_column] if schema.id_column is not None else None
        f_idx = [col_index[n] for n in feature_names]

        row_of_id, times, events, rows = {}, [], [], []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise RowParseError(row_no, "<row>",
                                    f"expected {len(header)} cells, got {len(row)}")
            time = _parse_number(row[t_idx], row_no, schema.time_column)
            if not time > 0:
                raise RowParseError(row_no, schema.time_column,
                                    f"time must be positive, got {time}")
            event_raw = _parse_number(row[e_idx], row_no, schema.event_column)
            if event_raw not in (0.0, 1.0):
                raise RowParseError(row_no, schema.event_column,
                                    f"event must be 0 or 1, got {row[e_idx].strip()}")
            rows.append([_parse_number(row[i], row_no, name)
                         for i, name in zip(f_idx, feature_names)])
            rid = row[id_idx].strip() if id_idx is not None else f"row{row_no}"
            if rid in row_of_id:
                raise RowParseError(row_no, schema.id_column,
                                    f"duplicate id {rid!r} (first on row {row_of_id[rid]})")
            row_of_id[rid] = row_no
            times.append(time)
            events.append(int(event_raw))

    if not row_of_id:
        raise EmptyCohortError(f"{path}: no data rows")
    return Cohort(feature_names, list(row_of_id), times, events, rows)


def _parse_number(cell: str, row_no: int, column: str) -> float:
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        raise RowParseError(row_no, column, "missing value (imputation not supported)")
    try:
        value = float(text)
    except ValueError:
        raise RowParseError(row_no, column, f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise RowParseError(row_no, column, f"non-finite value: {text!r}")
    return value


def write_cohort(cohort: Cohort, path, id_column: str = "id",
                 time_column: str = "time", event_column: str = "event") -> None:
    """Write a cohort back to CSV; inverse of load_cohort up to float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_column, time_column, event_column, *cohort.feature_names])
        for rid, time, event, feats in zip(cohort.ids, cohort.times.tolist(),
                                           cohort.events.tolist(), cohort.X.tolist()):
            writer.writerow([rid, repr(time), event, *map(repr, feats)])


def zscore_normalize(cohort: Cohort) -> Cohort:
    """Standardize every feature column to mean 0, stddev 1 (n-1 denominator).

    Constant columns are dropped with a ConstantFeatureWarning. The fitted
    (mean, stddev) pairs are stored on the returned cohort. Raises
    NoInformativeFeaturesError when every column is constant.
    """
    stats = {}
    for j, name in enumerate(cohort.feature_names):
        col = cohort.X[:, j]
        if np.all(col == col[0]):
            warnings.warn(f"dropping constant feature {name!r}", ConstantFeatureWarning,
                          stacklevel=2)
            continue
        mean = float(np.mean(col))
        std = float(np.std(col, ddof=1))
        stats[name] = (mean, std)
    if not stats:
        raise NoInformativeFeaturesError("all feature columns are constant")
    return apply_normalization(cohort, stats)


def apply_normalization(cohort: Cohort, stats: dict[str, tuple[float, float]]) -> Cohort:
    """Transform a cohort with previously fitted (mean, stddev) pairs.

    Used for held-out folds: features absent from `stats` (dropped as
    constant during fitting) are removed here as well.
    """
    names = tuple(n for n in cohort.feature_names if n in stats)
    if not names:
        raise NoInformativeFeaturesError("no overlap between cohort and normalization stats")
    cols = [cohort.feature_names.index(n) for n in names]
    mean = np.array([stats[n][0] for n in names])
    std = np.array([stats[n][1] for n in names])
    return Cohort(names, cohort.ids, cohort.times, cohort.events,
                  (cohort.X[:, cols] - mean) / std, dict(stats))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the Weibull proportional-hazards simulation.

    `true_coefficients` are the log-hazard weights; `nonlinear` adds a fixed
    quadratic-plus-interaction term to the linear predictor (used to give
    tree learners something a linear model cannot capture).
    """

    n: int
    true_coefficients: tuple[float, ...]
    weibull_shape: float = 1.5
    weibull_scale: float = 20.0
    censoring_rate_target: float = 0.3
    nonlinear: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("n must be >= 2")
        if not self.weibull_shape > 0 or not self.weibull_scale > 0:
            raise InvalidParameterError("Weibull shape and scale must be positive")
        if not 0 <= self.censoring_rate_target < 1:
            raise InvalidParameterError("censoring_rate_target must be in [0, 1)")
        object.__setattr__(self, "true_coefficients", tuple(float(b) for b in self.true_coefficients))

    @staticmethod
    def from_json(doc: str | dict) -> "SyntheticSpec":
        data = json.loads(doc) if isinstance(doc, str) else dict(doc)
        return SyntheticSpec(
            n=int(data["n"]),
            true_coefficients=tuple(data["true_coefficients"]),
            weibull_shape=float(data.get("weibull_shape", 1.5)),
            weibull_scale=float(data.get("weibull_scale", 20.0)),
            censoring_rate_target=float(data.get("censoring_rate_target", 0.3)),
            nonlinear=bool(data.get("nonlinear", False)),
            seed=int(data.get("seed", 0)),
        )


def _linear_predictor(X: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    eta = X @ np.asarray(spec.true_coefficients)
    if spec.nonlinear:
        # fixed quadratic + interaction term, centered so E[eta] stays ~0
        eta = eta + (X[:, 0] ** 2 - 1.0)
        if X.shape[1] >= 2:
            eta = eta + X[:, 0] * X[:, 1]
    return eta


def generate_synthetic(spec: SyntheticSpec) -> tuple[Cohort, np.ndarray]:
    """Simulate a cohort under h(t|x) = h0(t) * exp(eta) with Weibull h0.

    Event times come from the exact inverse transform
    T = scale * (-log U)^(1/shape) * exp(-eta/shape); independent exponential
    censoring is calibrated by bisection on its rate so that the realized
    censoring fraction lands within 0.05 of the target. Returns the cohort
    and each subject's true linear predictor. Identical spec (and seed)
    yields an identical cohort.
    """
    rng = np.random.default_rng(spec.seed)
    d = len(spec.true_coefficients)
    if d < 1:
        raise InvalidParameterError("need at least one coefficient")
    X = rng.standard_normal((spec.n, d))
    eta = _linear_predictor(X, spec)

    u_event = rng.uniform(size=spec.n)
    event_time = spec.weibull_scale * (-np.log(u_event)) ** (1.0 / spec.weibull_shape) \
        * np.exp(-eta / spec.weibull_shape)
    censor_unit = rng.exponential(size=spec.n)  # censor time = censor_unit / rate

    if spec.censoring_rate_target == 0.0:
        observed = event_time
        events = np.ones(spec.n, dtype=int)
    else:
        rate = _calibrate_censoring(event_time, censor_unit, spec.censoring_rate_target)
        censor_time = censor_unit / rate
        events = (event_time <= censor_time).astype(int)
        observed = np.minimum(event_time, censor_time)

    ids = [f"s{i + 1:05d}" for i in range(spec.n)]
    names = tuple(f"x{j}" for j in range(d))
    return Cohort(names, ids, observed, events, X), eta


def _calibrate_censoring(event_time: np.ndarray, censor_unit: np.ndarray,
                         target: float, tol: float = 0.05,
                         max_steps: int = 100) -> float:
    """Bisect the exponential censoring rate until the realized censoring
    fraction is within `tol` of `target`; CalibrationError otherwise."""

    def realized(rate: float) -> float:
        return float(np.mean(censor_unit / rate < event_time))

    lo = 1e-12 / float(np.median(event_time))
    hi = lo
    for _ in range(200):
        if realized(hi) >= target:
            break
        hi *= 4.0
    best_rate, best_gap = hi, abs(realized(hi) - target)
    for _ in range(max_steps):
        mid = np.sqrt(lo * hi)
        frac = realized(mid)
        gap = abs(frac - target)
        if gap < best_gap:
            best_rate, best_gap = mid, gap
        if gap <= tol:
            return mid
        if frac < target:
            lo = mid
        else:
            hi = mid
    if best_gap <= tol:
        return best_rate
    raise CalibrationError(
        f"censoring target {target} unreachable after {max_steps} bisection steps "
        f"(closest realized fraction: {realized(best_rate):.3f})")
