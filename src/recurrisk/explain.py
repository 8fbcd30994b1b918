"""Feature importance for the run report: exact Shapley attributions by
subset enumeration, and permutation importance by Harrell's C as the
fallback above MAX_EXACT_FEATURES features (`feature_importance` picks).

A predictor here is a callable mapping an (m, d) matrix to m risk scores,
such as a fitted model's ``predict_risk`` (CoxModel, BoostedModel, Forest).
Exact attribution enumerates all 2^d feature coalitions, replacing absent
features with the background vector, so it is capped at d <= 14. The
coalition matrix, the mask tables and the one weight row depend only on d,
so they are built once per d and cached.

CELL_BUDGET bounds the memory an explained row takes. While the whole
(2^d, d) coalition matrix fits it (d <= 9), a row is one batched prediction
and one weighted sum over all features. Above it the coalitions are
predicted in blocks of at most CELL_BUDGET cells, and each feature's
weighted differences are formed in turn from two strided views of the 2^d
values. Block lengths must stay multiples of 8, so that a BLAS kernel that
takes rows in groups, as behind `X @ beta`, gives every row the bits it
gets in one full batch. Each feature's sum runs over the same 2^(d-1)
contiguous cells either way, so the attributions are bit-identical.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .cohort import Cohort
from .errors import InvalidParameterError
from .metrics import c_index
from .nonparametric import median

MAX_EXACT_FEATURES = 14
PERMUTATION_REPEATS = 10
CELL_BUDGET = 2 ** 13   # float cells in one prediction block, 64 KiB


@lru_cache(maxsize=None)
def _coalitions(d: int):
    """The tables every explained row of width d shares, built once per d.

    Returns (takes_x, rows, weights, tables):
    - takes_x, the (2^d, d) boolean matrix of which features each mask takes
      from x (masks indexed by bit pattern);
    - rows, the coalitions per prediction block: the largest power of two
      whose block fits CELL_BUDGET cells, 512 for every d from 10 to 14
      and so a multiple of 8;
    - weights, the one weight row: its r-th cell is |S|!(d-|S|-1)!/d! for
      the r-th ascending mask S without feature j. That S has the popcount
      of r whatever j is, so the row serves all d features;
    - tables, while takes_x fits CELL_BUDGET (d <= 9), the two (d, 2^(d-1))
      intp tables whose row j holds those masks S and the masks S + {j};
      else None. They are intp because np.take converts int32 indices on
      every call: a d = 4 row took 8.9 us that way and 5.6 us indexing intp
      tables (one Xeon core, numpy 2.4).
    Every table is filled through strided views, with no (2^d, d) integer
    temporary.
    """
    n = 2 ** d
    takes_x = np.zeros((n, d), dtype=bool)
    for j in range(d):
        takes_x.reshape(-1, 2, 2 ** j, d)[:, 1, :, j] = True   # the masks with bit j set
    weight_by_size = np.array(
        [factorial(s) * factorial(d - s - 1) / factorial(d) for s in range(d)])
    weights = weight_by_size[takes_x[:n // 2].sum(axis=1)]
    rows = 1 << (CELL_BUDGET // d).bit_length() - 1
    if n * d > CELL_BUDGET:
        return takes_x, rows, weights, None
    masks = np.arange(n)
    pairs = [masks.reshape(-1, 2, 2 ** j) for j in range(d)]   # [:, 0] without j, [:, 1] with
    m_wo = np.stack([p[:, 0].ravel() for p in pairs])
    m_with = np.stack([p[:, 1].ravel() for p in pairs])
    return takes_x, rows, weights, (m_wo, m_with)


def exact_shapley(predict, x, background) -> np.ndarray:
    """Exact Shapley attribution phi of f(x) - f(background) over all subsets.

    phi_j = sum over S not containing j of |S|!(d-|S|-1)!/d! *
    (f(x restricted to S+{j}) - f(x restricted to S)). The coalition
    tables come from the per-d cache. Up to d = 9 a row costs one batched
    prediction of 2^d inputs and one weighted sum over all features; above
    it, one prediction per block and one weighted sum per feature, with the
    same bits (see the module docstring). An `x` that is not one row, or a
    background of another length, raises InvalidParameterError.
    """
    x, background = np.asarray(x, dtype=float), np.asarray(background, dtype=float)
    if x.ndim != 1 or background.shape != x.shape:
        raise InvalidParameterError(f"x must be one row and the background as long; "
                                    f"got shapes {x.shape} and {background.shape}")
    d = x.size
    if d > MAX_EXACT_FEATURES:
        raise InvalidParameterError(
            f"{d} features exceeds the exact-enumeration cap of "
            f"{MAX_EXACT_FEATURES}; use permutation_importance instead")
    takes_x, rows, weights, tables = _coalitions(d)
    if tables is not None:
        m_wo, m_with = tables
        values = np.asarray(predict(np.where(takes_x, x[None, :], background[None, :])),
                            dtype=float).ravel()
        diff = values[m_with]
        diff -= values[m_wo]
        diff *= weights
        return diff.sum(axis=1)
    values = np.empty(len(takes_x))
    for start in range(0, len(values), rows):
        block = np.where(takes_x[start:start + rows], x[None, :], background[None, :])
        values[start:start + rows] = np.ravel(predict(block))
    phi, diff = np.empty(d), np.empty_like(weights)
    for j in range(d):
        pairs = values.reshape(-1, 2, 2 ** j)   # [:, 0] the masks without j, [:, 1] with it
        grid = diff.reshape(pairs.shape[0], -1)
        grid[...] = pairs[:, 1]     # copy, then subtract: numpy buffers one strided input, not two
        grid -= pairs[:, 0]
        diff *= weights
        phi[j] = diff.sum()
    return phi


def median_background(cohort: Cohort) -> np.ndarray:
    """Feature-wise cohort median, the default Shapley reference point."""
    return median(cohort.matrix())


def mean_abs_shapley(predict, sample: np.ndarray, background,
                     feature_names) -> list[tuple[str, float]]:
    """(name, mean |phi_j| over the sample rows), sorted descending. A row
    width other than the background's or the number of names raises
    InvalidParameterError."""
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if sample.shape[0] < 1:
        raise InvalidParameterError("sample must contain at least one row")
    if len(feature_names) != sample.shape[1]:
        raise InvalidParameterError(f"expected {sample.shape[1]} feature names, one per "
                                    f"sample column, got {len(feature_names)}")
    totals = np.zeros(sample.shape[1])
    for row in sample:
        totals += np.abs(exact_shapley(predict, row, background))
    means = totals / sample.shape[0]
    order = np.argsort(-means, kind="stable")
    return [(feature_names[j], float(means[j])) for j in order]


def permutation_importance(predict, cohort: Cohort,
                           seed: int = 0) -> list[tuple[str, float, float]]:
    """Per-feature drop in the concordance index of `predict` over
    PERMUTATION_REPEATS shuffles of that column.

    Returns (feature, mean_drop, std_drop) rows sorted stably by descending
    mean drop.
    """
    times, events = cohort.times, cohort.events
    X = cohort.matrix()
    baseline = c_index(times, events, predict(X)).c_index
    rng = np.random.default_rng(seed)
    rows = []
    for j, name in enumerate(cohort.feature_names):
        drops = []
        for _ in range(PERMUTATION_REPEATS):
            shuffled = X.copy()
            shuffled[:, j] = rng.permutation(shuffled[:, j])
            drops.append(baseline - c_index(times, events, predict(shuffled)).c_index)
        rows.append((name, float(np.mean(drops)), float(np.std(drops))))
    rows.sort(key=lambda row: -row[1])
    return rows


def feature_importance(predict, cohort: Cohort, seed: int) -> tuple[str, list[tuple]]:
    """Exact mean |Shapley| of `predict` against the median background for up
    to MAX_EXACT_FEATURES features, else permutation importance.

    Returns the method name and its rows, descending: (feature, value) for
    "mean_abs_shapley", (feature, mean_drop, std_drop) for
    "permutation_importance".
    """
    if cohort.n_features <= MAX_EXACT_FEATURES:
        return "mean_abs_shapley", mean_abs_shapley(
            predict, cohort.X, median_background(cohort), cohort.feature_names)
    return "permutation_importance", permutation_importance(predict, cohort, seed=seed)
