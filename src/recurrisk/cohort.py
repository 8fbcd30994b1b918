"""Cohort representation, CSV ingestion, z-score normalization and the
synthetic Weibull proportional-hazards cohort generator.

The generator is the ground-truth oracle used throughout the test suite:
event times are drawn by inverse transform so that the hazard is exactly
h0(t) * exp(eta) with a Weibull baseline, and each subject's true linear
predictor eta is returned alongside the cohort.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, RowParseError, checked, declared, reading
from .nonparametric import RiskSets, median

MISSING_TOKENS = {"", "na", "nan", "null", "none"}
CSV_BLOCK_ROWS = 1024          # rows column_rows converts to Python values at once

# The most subjects a synthetic cohort may have: five times the n = 200,000
# of the scale measurements. A larger n asks numpy for draws that need not
# fit in memory, and ends in an allocation traceback instead of an error line.
MAX_SUBJECTS = 1_000_000


class ConstantFeatureWarning(UserWarning):
    """Emitted when a zero-variance column is dropped during normalization."""


@dataclass(frozen=True, eq=False)
class Cohort:
    """Subjects as plain columns sharing one feature-name list.

    `ids`, `times` (months) and `events` (0/1) hold one entry per subject;
    `X` is the C-ordered n x d feature matrix, columns in `feature_names`
    order. The constructor validates them once and stores read-only copies,
    so a cohort is immutable and safe to share across threads. A cohort
    derived from a checked one (`subset_rows`, `subset_features`,
    `apply_normalization`) skips those checks: it shares its source's
    read-only columns and holds read-only copies only of what it gathers or
    computes.
    `risk_sets` is built from `times` and `events` on first use and cached,
    once per chain of `subset_features` and `apply_normalization` calls; two
    threads racing on it only build two equal objects.
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
            raise InvalidParameterError("feature names must be unique")
        ids = _read_only(self.ids, object)
        times = _read_only(self.times, float)
        events = _read_only(self.events, float)
        # C order: X[:, cols] is F-ordered, and X @ beta takes another BLAS
        # path on it, which moves Cox scores in the last bits
        X = _read_only(self.X, float)
        n = ids.size
        if n == 0:
            raise InvalidParameterError("a cohort needs at least one record")
        if (ids.shape, times.shape, events.shape, X.shape) != \
                ((n,), (n,), (n,), (n, len(self.feature_names))):
            raise InvalidParameterError(
                f"shapes disagree: ids {ids.shape}, times {times.shape}, "
                f"events {events.shape}, X {X.shape} for {len(self.feature_names)} features")
        if not np.all(times > 0):
            raise InvalidParameterError("times must be positive")
        if not np.all((events == 0) | (events == 1)):
            raise InvalidParameterError("events must be 0 or 1")
        if len(set(ids)) != n:
            dup = next(i for i, count in Counter(ids).items() if count > 1)
            raise InvalidParameterError(f"duplicate subject id {dup!r}")
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
        """The cohort's `nonparametric.RiskSets`, built once and shared with
        every cohort `subset_features` or `apply_normalization` derives from it."""
        if not self._risk_cache:
            self._risk_cache.append(RiskSets(self.times, self.events))
        return self._risk_cache[0]

    def matrix(self) -> np.ndarray:
        """The read-only feature matrix `X`."""
        return self.X

    def subset_rows(self, indices) -> "Cohort":
        """The subjects at the 1-d integer `indices`, in that order.
        InvalidParameterError when there are none or one repeats."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise InvalidParameterError(f"row indices must be 1-d, got shape {idx.shape}")
        ids = self.ids[idx]
        if idx.size == 0:
            raise InvalidParameterError("a cohort needs at least one record")
        rows = idx % len(self)                 # in range: the gather checked it
        ordered = np.sort(rows)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            dup = ids[np.isin(rows, repeated)][0]    # the first repeat in `indices`
            raise InvalidParameterError(f"duplicate subject id {dup!r}")
        return _derived(self.feature_names, ids, self.times[idx], self.events[idx],
                        self.X[idx], self.normalization, [])

    def subset_features(self, names) -> "Cohort":
        names = tuple(names)
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise InvalidParameterError(f"unknown features: {missing}")
        if len(set(names)) != len(names):
            raise InvalidParameterError("feature names must be unique")
        cols = [self.feature_names.index(n) for n in names]
        norm = None
        if self.normalization is not None:
            norm = {n: self.normalization[n] for n in names if n in self.normalization}
        return _derived(names, self.ids, self.times, self.events,
                        np.take(self.X, cols, axis=1), norm, self._risk_cache)


def _derived(feature_names, ids, times, events, X, normalization, risk_cache) -> Cohort:
    """A cohort of columns taken from a checked cohort, so built without its
    checks or copies. Each array is made read-only; X is C-ordered, as
    fancy indexing on rows and np.take on columns both give."""
    for arr in (ids, times, events, X):
        arr.setflags(write=False)
    cohort = object.__new__(Cohort)
    cohort.__dict__.update(feature_names=feature_names, ids=ids, times=times, events=events,
                           X=X, normalization=normalization, _risk_cache=risk_cache)
    return cohort


def _read_only(values, dtype) -> np.ndarray:
    """A C-ordered copy of `values` that refuses writes."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def load_cohort(path, *, id_column: str = "id", time_column: str = "time",
                event_column: str = "event") -> Cohort:
    """Read a comma-separated cohort file (header row, '.' decimals, UTF-8,
    with or without a byte-order mark).

    Row order is preserved; features are the columns other than the id,
    time and event columns, in file order. Header names and ids are
    stripped; blank lines are skipped but counted in row numbers.
    Raises RowParseError for a bad cell (non-numeric feature, time <= 0,
    event not in {0,1}, missing value, a blank or repeated subject id) and
    InvalidParameterError for any other fault: a file that cannot be read,
    id, time and event roles that name one column twice, a missing or
    repeated column, or no data rows.
    """
    reserved = (time_column, event_column, id_column)
    if len(set(reserved)) != len(reserved):
        raise InvalidParameterError(f"the id, time and event columns must differ, got "
                                    f"{id_column!r}, {time_column!r} and {event_column!r}")
    with reading("cohort", path) as fh:
        header, rows = read_table(fh, path, reserved)
        feature_names = tuple(h for h in header if h not in reserved)
        if not feature_names:
            raise InvalidParameterError(f"{path}: needs at least one feature column")

        id_idx = header.index(id_column)
        cols = [header.index(n) for n in (time_column, event_column, *feature_names)]
        row_of_id = {}
        values = np.fromiter(chain.from_iterable(
            _unique_row(row_no, row, header, cols, id_idx, row_of_id) for row_no, row in rows),
            dtype=float).reshape(-1, len(cols))

    if not row_of_id:
        raise InvalidParameterError(f"{path}: no data rows")
    return Cohort(feature_names, list(row_of_id), values[:, 0], values[:, 1], values[:, 2:])


def read_table(fh, path, required):
    """The stripped header names of the CSV table in `fh`, and its lines
    that hold a non-blank cell as (row_no, cells), blank lines counted.
    InvalidParameterError without a header line, or for a header that repeats
    a name or lacks one in `required`, naming the first such name."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None:
        raise InvalidParameterError(f"{path}: file is empty")
    header = [h.strip() for h in first]
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise InvalidParameterError(f"{path}: header repeats column {repeated[0]!r}")
    missing = [c for c in required if c not in header]
    if missing:
        raise InvalidParameterError(f"{path}: missing column {missing[0]!r}")
    return header, ((row_no, row) for row_no, row in enumerate(reader, start=1)
                    if any(map(str.strip, row)))


def _unique_row(row_no: int, row, header, cols, id_idx, row_of_id) -> list[float]:
    """`parse_row`, then the row's id recorded in `row_of_id`, which holds
    the ids of the rows before it; a repeated id raises RowParseError."""
    values = parse_row(row_no, row, header, cols)
    rid = subject_id(row_no, row, header, id_idx)
    if rid in row_of_id:
        raise RowParseError(row_no, header[id_idx],
                            f"duplicate id {rid!r} (first on row {row_of_id[rid]})")
    row_of_id[rid] = row_no
    return values


def parse_row(row_no: int, row, header, cols) -> list[float]:
    """[time, event (an int), *features] of one CSV row whose cells `cols`
    hold them, or the RowParseError of its first bad cell: the wrong cell
    count, a cell that is not a finite number, a time <= 0 or an event not 0/1."""
    if len(row) != len(header):
        raise RowParseError(row_no, "<row>", f"expected {len(header)} cells, got {len(row)}")
    time_at, event_at, *feature_cols = cols
    time = _parse_number(row[time_at], row_no, header[time_at])
    if not time > 0:
        raise RowParseError(row_no, header[time_at], f"time must be positive, got {time}")
    event = _parse_number(row[event_at], row_no, header[event_at])
    if event not in (0.0, 1.0):
        raise RowParseError(row_no, header[event_at],
                            f"event must be 0 or 1, got {row[event_at].strip()}")
    return [time, int(event)] + [_parse_number(row[i], row_no, header[i]) for i in feature_cols]


def subject_id(row_no: int, row, header, id_at) -> str:
    """The stripped id in cell `id_at` of a parsed row; RowParseError if blank."""
    sid = row[id_at].strip()
    if not sid:
        raise RowParseError(row_no, header[id_at], "missing subject id")
    return sid


def _parse_number(cell: str, row_no: int, column: str) -> float:
    try:
        value = float(cell)   # float() ignores surrounding whitespace itself
    except ValueError:
        value = None
    if value is not None and math.isfinite(value):
        return value
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        raise RowParseError(row_no, column, "missing value (imputation not supported)")
    if value is None:
        raise RowParseError(row_no, column, f"not a number: {text!r}")
    raise RowParseError(row_no, column, f"non-finite value: {text!r}")


def write_csv(path, header, rows) -> None:
    """Write a header row and then the rows. A Python float cell is written
    as its repr, which reads back as the same double."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def column_rows(*columns):
    """The rows of equal-length columns (arrays or lists), for write_csv. An
    array column becomes Python values CSV_BLOCK_ROWS at a time, so no whole
    column is ever held as a list of Python numbers."""
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = (column[start:start + CSV_BLOCK_ROWS] for column in columns)
        yield from zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort back to CSV under the header id,time,event,<features>;
    inverse of load_cohort up to float formatting."""
    write_csv(path, ["id", "time", "event", *cohort.feature_names],
              column_rows(cohort.ids, cohort.times, cohort.events, *cohort.X.T))


def zscore_normalize(cohort: Cohort) -> Cohort:
    """Standardize every feature column to mean 0, stddev 1 (n-1 denominator).

    Constant columns are dropped with a ConstantFeatureWarning. The fitted
    (mean, stddev) pairs are stored on the returned cohort. Raises
    InvalidParameterError when every column is constant.
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
        raise InvalidParameterError("all feature columns are constant")
    return apply_normalization(cohort, stats)


def apply_normalization(cohort: Cohort, stats: dict[str, tuple[float, float]]) -> Cohort:
    """Transform a cohort with previously fitted (mean, stddev) pairs.

    Used for held-out folds: features absent from `stats` (dropped as
    constant during fitting) are removed here as well.
    """
    names = tuple(n for n in cohort.feature_names if n in stats)
    if not names:
        raise InvalidParameterError("no overlap between cohort and normalization stats")
    cols = [cohort.feature_names.index(n) for n in names]
    X = np.take(cohort.X, cols, axis=1)
    X -= np.array([stats[n][0] for n in names])
    X /= np.array([stats[n][1] for n in names])
    return _derived(names, cohort.ids, cohort.times, cohort.events, X, dict(stats),
                    cohort._risk_cache)


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
        if self.n > MAX_SUBJECTS:
            raise InvalidParameterError(f"n must be <= {MAX_SUBJECTS}, got {self.n}")
        if not self.weibull_shape > 0 or not self.weibull_scale > 0:
            raise InvalidParameterError("Weibull shape and scale must be positive")
        if not 0 <= self.censoring_rate_target < 1:
            raise InvalidParameterError("censoring_rate_target must be in [0, 1)")
        if not self.true_coefficients:
            raise InvalidParameterError("need at least one coefficient")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "true_coefficients", tuple(float(b) for b in self.true_coefficients))

    @staticmethod
    def from_json(doc: dict, where: str = "spec") -> "SyntheticSpec":
        """A spec from a decoded JSON object. An unknown key, a missing
        `n` or `true_coefficients`, or a value not of its field's type
        raises InvalidParameterError naming `where`."""
        return SyntheticSpec(**checked(where, doc, declared(SyntheticSpec)))


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
    fraction is within `tol` of `target`; InvalidParameterError otherwise."""

    def realized(rate: float) -> float:
        return float(np.mean(censor_unit / rate < event_time))

    lo = 1e-12 / float(median(event_time))
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
    raise InvalidParameterError(
        f"censoring target {target} unreachable after {max_steps} bisection steps "
        f"(closest realized fraction: {realized(best_rate):.3f})")
