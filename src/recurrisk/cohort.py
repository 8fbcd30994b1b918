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
from itertools import islice

import numpy as np

from .errors import (
    CalibrationError,
    EmptyCohortError,
    InvalidParameterError,
    NoInformativeFeaturesError,
    RowParseError,
    SchemaError,
    checked,
    declared,
    reading,
)
from .nonparametric import RiskSets

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
    `risk_sets` is built from `times` and `events` on first use and cached,
    once per chain of `subset_features` calls; two threads racing on it only
    build two equal objects.
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
        object.__setattr__(self, "_risk_cache", [])   # risk_sets, once built

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

    @property
    def risk_sets(self) -> RiskSets:
        """The cohort's `nonparametric.RiskSets`, built once and shared
        with every cohort `subset_features` derives from it."""
        if not self._risk_cache:
            self._risk_cache.append(RiskSets(self.times, self.events))
        return self._risk_cache[0]

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
        sub = Cohort(names, self.ids, self.times, self.events, self.X[:, cols], norm)
        object.__setattr__(sub, "_risk_cache", self._risk_cache)   # same outcomes
        return sub


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
    id_column: str = "id"


def load_cohort(path, schema: ColumnSchema | None = None) -> Cohort:
    """Read a comma-separated cohort file (header row, '.' decimals, UTF-8).

    Row order is preserved; features are the non-role columns, in file order.
    Raises InvalidParameterError for a file that cannot be read, SchemaError
    for missing columns, RowParseError for bad cells (non-numeric feature,
    time <= 0, event not in {0,1}, missing value, a repeated subject id) and
    EmptyCohortError for a file without data rows.
    """
    schema = schema or ColumnSchema()
    with reading(f"cohort {path}"), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCohortError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        reserved = (schema.time_column, schema.event_column, schema.id_column)
        for required in reserved:
            if required not in header:
                raise SchemaError(f"{path}: missing column {required!r}")
        feature_names = tuple(h for h in header if h not in reserved)
        if not feature_names:
            raise SchemaError(f"{path}: schema must name at least one feature column")

        col_index = {h: i for i, h in enumerate(header)}
        id_idx = col_index[schema.id_column]
        cols = [col_index[n] for n in (schema.time_column, schema.event_column,
                                       *feature_names)]
        rows = ((row_no, row) for row_no, row in enumerate(reader, start=1)
                if row and any(c.strip() for c in row))
        row_of_id, blocks = {}, []
        while block := list(islice(rows, _BLOCK_ROWS)):
            values = _convert_block(block, header, cols, id_idx, row_of_id)
            if values is None:     # let the cell-by-cell parser name the first bad row
                values = np.array([_parse_row(row_no, row, header, cols, id_idx,
                                              schema, row_of_id) for row_no, row in block])
            blocks.append(values)

    if not row_of_id:
        raise EmptyCohortError(f"{path}: no data rows")
    values = np.concatenate(blocks)
    return Cohort(feature_names, list(row_of_id), values[:, 0], values[:, 1], values[:, 2:])


_BLOCK_ROWS = 2048  # rows load_cohort converts with one np.array call


def _convert_block(block, header, cols, id_idx, row_of_id) -> np.ndarray | None:
    """The (time, event, *features) values of a block of (row_no, cells)
    rows from one np.array call, with the block's ids added to `row_of_id`.

    None, with `row_of_id` untouched, if a row has the wrong length, a cell
    is not a finite number, a time is not positive, an event is not 0 or 1,
    or an id repeats.
    """
    if any(len(row) != len(header) for _, row in block):
        return None
    try:
        values = np.array([[row[i] for i in cols] for _, row in block], dtype=float)
    except ValueError:
        return None
    ids = [row[id_idx].strip() for _, row in block]
    if not (np.all(np.isfinite(values)) and np.all(values[:, 0] > 0)
            and np.all((values[:, 1] == 0) | (values[:, 1] == 1))
            and len(set(ids)) == len(ids) and row_of_id.keys().isdisjoint(ids)):
        return None
    row_of_id.update(zip(ids, (row_no for row_no, _ in block)))
    return values


def _parse_row(row_no: int, row, header, cols, id_idx, schema: ColumnSchema,
               row_of_id) -> list[float]:
    """(time, event, *features) of one row, or the RowParseError of its
    first bad cell; records its id in `row_of_id`, which holds the ids of
    the rows before it."""
    if len(row) != len(header):
        raise RowParseError(row_no, "<row>", f"expected {len(header)} cells, got {len(row)}")
    time, event = _parse_outcome(row[cols[0]], row[cols[1]], row_no,
                                 schema.time_column, schema.event_column)
    values = [time, event] + [_parse_number(row[i], row_no, header[i]) for i in cols[2:]]
    rid = row[id_idx].strip()
    if rid in row_of_id:
        raise RowParseError(row_no, schema.id_column,
                            f"duplicate id {rid!r} (first on row {row_of_id[rid]})")
    row_of_id[rid] = row_no
    return values


def _parse_outcome(time_cell: str, event_cell: str, row_no: int,
                   time_column: str, event_column: str) -> tuple[float, int]:
    """(time, event) of one row; the time must be positive, the event 0 or 1."""
    time = _parse_number(time_cell, row_no, time_column)
    if not time > 0:
        raise RowParseError(row_no, time_column, f"time must be positive, got {time}")
    event = _parse_number(event_cell, row_no, event_column)
    if event not in (0.0, 1.0):
        raise RowParseError(row_no, event_column,
                            f"event must be 0 or 1, got {event_cell.strip()}")
    return time, int(event)


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


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort back to CSV under the header id,time,event,<features>;
    inverse of load_cohort up to float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "event", *cohort.feature_names])
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
    def from_json(doc: str | dict, where: str = "spec") -> "SyntheticSpec":
        """A spec from a JSON object or its text. An unknown key, a missing
        `n` or `true_coefficients`, or a value not of its field's type
        raises InvalidParameterError naming `where`."""
        data = json.loads(doc) if isinstance(doc, str) else doc
        return SyntheticSpec(**checked(where, data, declared(SyntheticSpec)))


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
