"""Random survival forest: bootstrap trees with log-rank split selection and
Nelson-Aalen terminal estimates; the ensemble averages cumulative hazards.

Determinism contract: tree b draws its bootstrap sample (n indices) and
then, depth first, each node's feature subset from ``default_rng(seed + b)``,
so the fitted forest is byte-identical across runs and independent of any
parallel schedule. A tree is grown on its bootstrap rows as drawn, so tied
values keep their bootstrap order. Split search is exhaustive over
midpoints of consecutive distinct feature values; ties in the log-rank
statistic break toward the lowest feature index, then the lowest
threshold. Each tree ranks its bootstrap times once; a node counts its
deaths and risk-set sizes per time rank with two ``bincount`` calls over
its rows' ranks, so no node sorts its times. It reads its rows in every
candidate feature's order from ``tree.grow``, given the tree's sample
sorted once (``tree.presort``), and scores all candidates in one pass over
a (candidate, row, event time) cube of cumulative at-risk counts. The
counts are exact integers, so the statistic equals the one computed from
the node's own event table.

Growth order and batch routing come from ``tree.py``: every leaf reached
by a batch of rows evaluates its cumulative hazard once at the requested
times for all of them. Trees are accumulated one after another and the
sum is divided by the tree count, the same order of operations as
averaging the per-tree step functions, so batch and per-row predictions
agree exactly.

``forest_to_json`` gives the forest's JSON as an iterator of pieces, one
tree at a time (``tree.dumps_listing``), so neither a document nor the
text of the whole forest is built. The node and leaf classes use slots, as
a fitted forest holds thousands of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cohort import Cohort
from .errors import InvalidParameterError, TrainingError, check_rows
from .nonparametric import nelson_aalen
from .stepfun import StepFunction, average_step_functions
from .tree import TreeSplit, dumps_listing, grow, presort, route, to_dict


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    mtry: int | None = None          # None -> ceil(sqrt(d))
    min_node_events: int = 5
    max_depth: int | None = 6        # None -> unlimited
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


@dataclass(frozen=True, slots=True)
class TreeLeaf:
    chf: StepFunction
    count: int


@dataclass(frozen=True, slots=True)
class SurvivalTree:
    root: TreeSplit | TreeLeaf


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

    def json_chunks(self):
        return forest_to_json(self)


def _best_split(X, rank, events, idx, order, feats, min_node_events, total_events):
    """Exhaustive log-rank split search of the rows idx over the features
    feats (ascending); row j of order holds idx sorted by X[:, j], rank
    holds each row's time rank in its tree and total_events the node's
    event count.

    Returns (feature, threshold) or None. The statistic is (O-E)^2 / V with
    the hypergeometric variance, evaluated for every midpoint threshold of
    every candidate at once from one cumulative (candidate, row, event time)
    at-risk count.
    """
    node_rank = rank[idx]
    deaths = np.bincount(node_rank, weights=events[idx])
    ev = deaths.nonzero()[0]               # ranks of the node's event times
    d_tot = deaths[ev]
    n_tot = np.bincount(node_rank)[::-1].cumsum()[::-1][ev].astype(float)
    # n == 1 only at the last time, with d == 1, where the variance is 0
    var_coef = d_tot * (n_tot - d_tot) / np.maximum(n_tot - 1, 1)
    e_coef = d_tot / n_tot                 # E contribution per unit of n_A
    v1 = var_coef / n_tot                  # V = v1 . n_A - v2 . n_A^2
    v2 = var_coef / n_tot ** 2

    rows = order[feats]                    # (candidate, row) in feature order
    cs = X[rows, feats[:, None]]
    # position k splits off the first k + 1 rows of a candidate
    ev_left = events[rows].cumsum(axis=1)[:, :-1]
    ev_right = total_events - ev_left
    n_a = (rank[rows][:, :, None] >= ev).astype(float)
    n_a.cumsum(axis=1, out=n_a)            # at risk among the first k + 1 rows
    expected = (n_a @ e_coef)[:, :-1]
    # n_a @ v1 is evaluated first, so n_a can then be squared in place
    variance = (n_a @ v1 - np.square(n_a, out=n_a) @ v2)[:, :-1]
    valid = ((cs[:, :-1] < cs[:, 1:]) & (ev_left >= min_node_events)
             & (ev_right >= min_node_events) & (variance > 1e-12))
    stats = np.divide((ev_left - expected) ** 2, variance,
                      out=np.zeros(variance.shape), where=valid)
    # first max of the flattened stats -> lowest feature, then lowest threshold
    c, k = divmod(int(stats.argmax()), stats.shape[1])
    if not stats[c, k] > 0.0:
        return None
    return int(feats[c]), float((cs[c, k] + cs[c, k + 1]) / 2.0)


def fit_rsf(cohort: Cohort, params: ForestParams) -> Forest:
    """Grow the forest; see the module docstring for the split rule."""
    X = cohort.matrix()
    times, events = cohort.times, cohort.events
    n, d = X.shape
    if int(np.sum(events)) < 1:
        raise TrainingError("cannot grow a survival forest on an all-censored cohort")
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(d)))
    mtry = min(mtry, d)

    trees = []
    for b in range(params.n_trees):
        rng = np.random.default_rng(params.seed + b)
        boot = rng.integers(0, n, size=n)
        Xb, tb, eb = X[boot], times[boot], events[boot]
        rank = np.unique(tb, return_inverse=True)[1]

        def find_split(idx, order, depth):
            if params.max_depth is not None and depth >= params.max_depth:
                return None
            total_events = eb[idx].sum()
            if total_events < 2 * params.min_node_events:
                return None
            feats = rng.choice(d, size=mtry, replace=False)
            feats.sort()
            return _best_split(Xb, rank, eb, idx, order, feats, params.min_node_events,
                               total_events)

        def make_leaf(idx):
            return TreeLeaf(chf=nelson_aalen(tb[idx], eb[idx]), count=idx.size)

        trees.append(SurvivalTree(root=grow(Xb, presort(Xb), find_split, make_leaf)))

    event_times = times[events == 1]
    return Forest(
        feature_names=cohort.feature_names,
        trees=tuple(trees),
        max_event_time=float(np.max(event_times)),
        params=params,
    )


def predict_chf(forest: Forest, x) -> StepFunction:
    """Ensemble cumulative hazard: mean of terminal CHFs over all trees."""
    x = check_rows(np.ravel(x), len(forest.feature_names))
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
    X = check_rows(X, len(forest.feature_names))
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


def forest_to_json(forest: Forest):
    """The forest's JSON as an iterator of text pieces; joined, they are one
    json.dumps of the whole forest document with sorted keys."""
    doc = {
        "model": "random_survival_forest",
        "feature_names": list(forest.feature_names),
        "max_event_time": forest.max_event_time,
        "params": asdict(forest.params),
    }
    return dumps_listing(doc, "trees", ({"root": to_dict(t.root, _leaf_to_dict)}
                                        for t in forest.trees))
