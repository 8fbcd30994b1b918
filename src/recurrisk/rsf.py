"""Random survival forest: bootstrap trees with log-rank split selection and
Nelson-Aalen terminal estimates; the ensemble averages cumulative hazards.

Determinism contract: tree b draws its bootstrap sample and per-node
feature subsets from ``default_rng(seed + b)``, so the fitted forest is
byte-identical across runs and independent of any parallel schedule.
Split search is exhaustive over midpoints of consecutive distinct feature
values; ties in the log-rank statistic break toward the lowest feature
index, then the lowest threshold. Each node takes its event times, death
counts and risk-set sizes from the risk-set kernel that also builds the
Nelson-Aalen leaves (``nonparametric.RiskSets``, read through
``_event_table``), and builds its subject-by-event-time at-risk matrix once
for all candidate features.

Growth order and batch routing come from ``tree.py``: every leaf reached
by a batch of rows evaluates its cumulative hazard once at the requested
times for all of them. Trees are accumulated one after another and the
sum is divided by the tree count, the same order of operations as
averaging the per-tree step functions, so batch and per-row predictions
agree exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import InvalidParameterError, ShapeError, TrainingError
from .nonparametric import _event_table, nelson_aalen
from .stepfun import StepFunction, average_step_functions
from .tree import TreeSplit, grow, route, to_dict


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    mtry: int | None = None          # None -> ceil(sqrt(d))
    min_node_events: int = 3
    max_depth: int | None = None     # None -> unlimited
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidParameterError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise InvalidParameterError("mtry must be >= 1")
        if self.min_node_events < 1:
            raise InvalidParameterError("min_node_events must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidParameterError("max_depth must be >= 0")


@dataclass(frozen=True)
class TreeLeaf:
    chf: StepFunction
    count: int


@dataclass(frozen=True)
class SurvivalTree:
    root: TreeSplit | TreeLeaf
    bootstrap_indices: np.ndarray
    oob_indices: np.ndarray


@dataclass(frozen=True)
class Forest:
    feature_names: tuple[str, ...]
    trees: tuple[SurvivalTree, ...]
    max_event_time: float
    params: ForestParams

    # The methods look the module functions up at call time, so a wrapper
    # bound to those names (as bench/tracer.py binds them) sees every call.
    def predict_risk(self, X) -> np.ndarray:
        return predict_risk_matrix(self, X)

    def predict(self, X, horizons):
        """(risk scores, S(h | x) per row and horizon) from one pass over the
        trees; the score is the ensemble CHF at the last training event time."""
        chf = predict_chf_at(self, X, [*horizons, self.max_event_time])
        # contiguous, so exp takes the same ufunc loop as StepFunction.exp_neg
        return chf[:, -1], np.exp(-np.ascontiguousarray(chf[:, :-1]))

    def to_json(self) -> str:
        return forest_to_json(self)


def _best_split(X, times, events, feat_indices, min_node_events):
    """Exhaustive log-rank split search over the given features.

    Returns (feature, threshold) or None. The statistic is (O-E)^2 / V with
    the hypergeometric variance, evaluated for every midpoint threshold via
    cumulative risk-set counts, all thresholds of one feature at once.
    """
    ets, d_tot, n_tot = _event_table(times, events)
    if ets.size == 0:
        return None
    d_tot, n_tot = d_tot.astype(float), n_tot.astype(float)
    total_events = float(np.sum(events))
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(n_tot > 1, d_tot * (n_tot - d_tot) / (n_tot - 1), 0.0)
    e_coef = d_tot / n_tot                 # E contribution per unit of n_A
    v1 = var_coef / n_tot                  # V = v1 . n_A - v2 . n_A^2
    v2 = var_coef / n_tot ** 2

    at_risk = (times[:, None] >= ets[None, :]).astype(float)

    best_stat, best = 0.0, None
    for j in sorted(int(f) for f in feat_indices):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        k = np.nonzero(cs[:-1] < cs[1:])[0]
        ev_left = np.cumsum(events[order])[k].astype(float)
        ev_right = total_events - ev_left
        valid = (ev_left >= min_node_events) & (ev_right >= min_node_events)
        if not np.any(valid):
            continue                       # skip the risk-set work: no legal split
        n_a = np.cumsum(at_risk[order], axis=0)
        expected = n_a @ e_coef
        variance = n_a @ v1 - (n_a ** 2) @ v2
        valid &= variance[k] > 1e-12
        if not np.any(valid):
            continue
        kv = k[valid]
        stats = (ev_left[valid] - expected[kv]) ** 2 / variance[kv]
        i = int(np.argmax(stats))          # first max -> lowest threshold on ties
        if stats[i] > best_stat:
            best_stat = float(stats[i])
            pos = kv[i]
            best = (j, float((cs[pos] + cs[pos + 1]) / 2.0))
    return best


def fit_rsf(cohort: Cohort, params: ForestParams) -> Forest:
    """Grow the forest; see the module docstring for the split rule."""
    X = cohort.matrix()
    times, events = cohort.times, cohort.events
    n, d = X.shape
    if int(np.sum(events)) < 1:
        raise TrainingError("cannot grow a survival forest on an all-censored cohort")
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(d)))
    mtry = min(mtry, d)

    def make_leaf(idx):
        return TreeLeaf(chf=nelson_aalen(times[idx], events[idx]), count=idx.size)

    trees = []
    for b in range(params.n_trees):
        rng = np.random.default_rng(params.seed + b)
        boot = rng.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), boot)

        def find_split(idx, depth):
            if (params.max_depth is not None and depth >= params.max_depth) or \
                    int(np.sum(events[idx])) < 2 * params.min_node_events:
                return None
            feats = rng.choice(d, size=mtry, replace=False)
            return _best_split(X[idx], times[idx], events[idx], feats,
                               params.min_node_events)

        trees.append(SurvivalTree(root=grow(X, boot, 0, find_split, make_leaf),
                                  bootstrap_indices=boot, oob_indices=oob))

    event_times = times[events == 1]
    return Forest(
        feature_names=cohort.feature_names,
        trees=tuple(trees),
        max_event_time=float(np.max(event_times)),
        params=params,
    )


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: mean of terminal CHFs over all trees."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != len(forest.feature_names):
        raise ShapeError(f"expected {len(forest.feature_names)} features, got {x.shape[1]}")
    return average_step_functions([leaf.chf for tree in forest.trees
                                   for leaf, _ in route(tree.root, x)])


def predict_survival(forest: Forest, x) -> StepFunction:
    """S(t | x) = exp(-H(t | x))."""
    return predict_chf(forest, x).exp_neg()


def predict_chf_at(forest: Forest, X, times) -> np.ndarray:
    """Ensemble cumulative hazard of every row of X at every time: (n, len(times)).

    Equals predict_chf(forest, X[i])(times) exactly, without building the
    union-knot average for each row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != len(forest.feature_names):
        raise ShapeError(f"expected rows of {len(forest.feature_names)} features, "
                         f"got shape {X.shape}")
    times = np.asarray(times, dtype=float).ravel()
    total = np.zeros((X.shape[0], times.size))
    tree_chf = np.empty_like(total)
    for tree in forest.trees:
        for leaf, idx in route(tree.root, X):
            tree_chf[idx] = leaf.chf(times)
        total += tree_chf
    return total / len(forest.trees)


def predict_risk_matrix(forest: Forest, X) -> np.ndarray:
    """Scalar risk per row of X: the ensemble CHF at the training cohort's
    last event time."""
    return predict_chf_at(forest, X, [forest.max_event_time])[:, 0]


# --- serialization ----------------------------------------------------------


def _leaf_to_dict(leaf: TreeLeaf) -> dict:
    return {"count": leaf.count, "knots": leaf.chf.knots.tolist(),
            "values": leaf.chf.values.tolist()}


def forest_to_json(forest: Forest) -> str:
    doc = {
        "model": "random_survival_forest",
        "feature_names": list(forest.feature_names),
        "max_event_time": forest.max_event_time,
        "params": {
            "n_trees": forest.params.n_trees,
            "mtry": forest.params.mtry,
            "min_node_events": forest.params.min_node_events,
            "max_depth": forest.params.max_depth,
            "seed": forest.params.seed,
        },
        "trees": [{
            "root": to_dict(t.root, _leaf_to_dict),
            "bootstrap_indices": t.bootstrap_indices.tolist(),
            "oob_indices": t.oob_indices.tolist(),
        } for t in forest.trees],
    }
    return json.dumps(doc, sort_keys=True)
