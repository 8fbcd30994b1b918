"""Model interpretability: exact Shapley attributions by subset enumeration
and permutation importance as the scalable fallback.

A "model" here is anything exposing batched risk prediction: either a
callable mapping an (m, d) matrix to m scores, or an object with a
``predict_risk`` method (CoxModel, BoostedModel, Forest).
Exact attribution enumerates all 2^d feature coalitions, replacing absent
features with the background vector, so it is capped at d <= 14. The
coalition matrix and the per-feature mask and weight tables depend only on
d, so they are built once per d and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .cohort import Cohort
from .errors import InvalidParameterError, UndefinedMetricError
from .metrics import c_index

MAX_EXACT_FEATURES = 14


def _as_predictor(model):
    if callable(model):
        return model
    if hasattr(model, "predict_risk"):
        return lambda X: np.asarray(model.predict_risk(X), dtype=float).ravel()
    raise InvalidParameterError("model must be callable or expose predict_risk")


@dataclass(frozen=True)
class AttributionVector:
    feature_names: tuple[str, ...]
    values: np.ndarray             # phi_j per feature
    baseline: float                # f(background)
    explained: float               # f(x)


@dataclass(frozen=True)
class ImportanceRow:
    feature: str
    mean_drop: float
    std_drop: float
    skipped: int = 0


@dataclass(frozen=True)
class ImportanceReport:
    rows: tuple[ImportanceRow, ...]    # descending mean drop
    repeats: int
    seed: int
    baseline_metric: float


@lru_cache(maxsize=None)
def _coalitions(d: int):
    """The tables every explained row of width d shares, built once per d.

    Returns the (2^d, d) boolean matrix of which features each mask takes
    from x (masks indexed by bit pattern), and three (d, 2^(d-1)) tables:
    row j holds the masks S without j, the masks S + {j}, and the weights
    |S|!(d-|S|-1)!/d!.
    """
    masks = np.arange(2 ** d, dtype=np.int32)
    takes_x = (masks[:, None] >> np.arange(d)) & 1 == 1
    sizes = takes_x.sum(axis=1)
    weight_by_size = np.array(
        [factorial(s) * factorial(d - s - 1) / factorial(d) for s in range(d)])
    bits = np.int32(1) << np.arange(d, dtype=np.int32)
    m_wo = np.stack([masks[masks & bit == 0] for bit in bits])
    return takes_x, m_wo, m_wo | bits[:, None], weight_by_size[sizes[m_wo]]


def exact_shapley(model, x, background, feature_names=None) -> AttributionVector:
    """Exact Shapley attribution of f(x) - f(background) over all subsets.

    phi_j = sum over S not containing j of |S|!(d-|S|-1)!/d! *
    (f(x restricted to S+{j}) - f(x restricted to S)). The coalition
    tables come from the per-d cache, so each row costs one batched
    prediction of 2^d inputs and one weighted sum over all features.
    """
    x = np.asarray(x, dtype=float).ravel()
    d = x.size
    if d > MAX_EXACT_FEATURES:
        raise InvalidParameterError(
            f"{d} features exceeds the exact-enumeration cap of "
            f"{MAX_EXACT_FEATURES}; use permutation_importance instead")
    predict = _as_predictor(model)
    takes_x, m_wo, m_with, weights = _coalitions(d)
    background = np.asarray(background, dtype=float).ravel()
    values = np.asarray(predict(np.where(takes_x, x[None, :], background[None, :])),
                        dtype=float).ravel()
    diff = np.take(values, m_with)   # values[m_with] measured ~2x slower on int32 indices
    diff -= np.take(values, m_wo)
    diff *= weights
    phi = diff.sum(axis=1)

    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{j}" for j in range(d))
    return AttributionVector(
        feature_names=names,
        values=phi,
        baseline=float(values[0]),
        explained=float(values[-1]),
    )


def median_background(cohort: Cohort) -> np.ndarray:
    """Feature-wise cohort median, the default Shapley reference point."""
    return np.median(cohort.matrix(), axis=0)


def mean_abs_shapley(model, sample: np.ndarray, background,
                     feature_names=None) -> list[tuple[str, float]]:
    """Mean |phi_j| over the sample rows, sorted descending."""
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if sample.shape[0] < 1:
        raise InvalidParameterError("sample must contain at least one row")
    totals = np.zeros(sample.shape[1])
    names = None
    for row in sample:
        attribution = exact_shapley(model, row, background, feature_names)
        totals += np.abs(attribution.values)
        names = attribution.feature_names
    means = totals / sample.shape[0]
    order = np.argsort(-means, kind="stable")
    return [(names[j], float(means[j])) for j in order]


def permutation_importance(model, cohort: Cohort, repeats: int = 10,
                           seed: int = 0, metric=None) -> ImportanceReport:
    """Per-feature metric drop when that column is shuffled.

    The metric defaults to the concordance index of the model's risk scores
    against the cohort outcomes. Repeats where the metric is undefined on
    the shuffled data are skipped and counted.
    """
    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    predict = _as_predictor(model)
    times, events = cohort.times, cohort.events
    X = cohort.matrix()

    if metric is None:
        def metric(scores):
            return c_index(times, events, scores).c_index

    baseline = metric(predict(X))
    rng = np.random.default_rng(seed)
    rows = []
    for j, name in enumerate(cohort.feature_names):
        drops, skipped = [], 0
        for _ in range(repeats):
            shuffled = X.copy()
            shuffled[:, j] = rng.permutation(shuffled[:, j])
            try:
                drops.append(baseline - metric(predict(shuffled)))
            except UndefinedMetricError:
                skipped += 1
        mean = float(np.mean(drops)) if drops else 0.0
        std = float(np.std(drops)) if drops else 0.0
        rows.append(ImportanceRow(name, mean, std, skipped))

    rows.sort(key=lambda r: -r.mean_drop)
    return ImportanceReport(rows=tuple(rows), repeats=repeats, seed=seed,
                            baseline_metric=float(baseline))


def feature_importance(model, cohort: Cohort, seed: int) -> tuple[str, list[tuple]]:
    """Exact mean |Shapley| against the median background for up to
    MAX_EXACT_FEATURES features, else permutation importance (10 repeats).

    Returns the method name and its rows, descending: (feature, value) for
    "mean_abs_shapley", (feature, mean_drop, std_drop) for
    "permutation_importance".
    """
    if cohort.n_features <= MAX_EXACT_FEATURES:
        return "mean_abs_shapley", mean_abs_shapley(
            model, cohort.X, median_background(cohort), cohort.feature_names)
    report = permutation_importance(model, cohort, repeats=10, seed=seed)
    return "permutation_importance", [(r.feature, r.mean_drop, r.std_drop)
                                      for r in report.rows]
