import json
import re

import numpy as np
import pytest

from recurrisk.errors import InvalidParameterError, TrainingError
from recurrisk.nonparametric import _event_table, log_rank, nelson_aalen
from recurrisk.stepfun import StepFunction, average_step_functions
from recurrisk.rsf import (
    Forest,
    ForestParams,
    SurvivalTree,
    TreeLeaf,
    TreeSplit,
    _best_split,
    fit_rsf,
    forest_to_json,
    predict_chf,
    predict_chf_at,
    predict_risk_matrix,
    predict_survival,
)

from conftest import make_cohort, random_censored_cohort


def from_dict(doc, leaf_from_dict):
    """Inverse of `tree.to_dict`; leaf_from_dict rebuilds a leaf from its dict."""
    if doc["kind"] == "leaf":
        return leaf_from_dict(doc)
    return TreeSplit(int(doc["feature"]), float(doc["threshold"]),
                     from_dict(doc["left"], leaf_from_dict),
                     from_dict(doc["right"], leaf_from_dict))


def forest_from_json(text: str) -> Forest:
    """Decoder of forest_to_json; only the round-trip test reads forests back."""
    doc = json.loads(text)
    p = doc["params"]

    def leaf_from_dict(leaf):
        return TreeLeaf(chf=StepFunction(np.array(leaf["knots"], dtype=float),
                                         np.array(leaf["values"], dtype=float), 0.0),
                        count=int(leaf["count"]))

    trees = tuple(SurvivalTree(root=from_dict(t["root"], leaf_from_dict))
                  for t in doc["trees"])
    return Forest(
        feature_names=tuple(doc["feature_names"]),
        trees=trees,
        max_event_time=float(doc["max_event_time"]),
        params=ForestParams(n_trees=int(p["n_trees"]), mtry=p["mtry"],
                            min_node_events=int(p["min_node_events"]),
                            max_depth=p["max_depth"], seed=int(p["seed"])),
    )


PARAMS = ForestParams(n_trees=12, min_node_events=3, max_depth=5, seed=11)


@pytest.fixture(scope="module")
def cohort():
    return random_censored_cohort(np.random.default_rng(5), 90, 3, tie_fraction=0.5)


@pytest.fixture(scope="module")
def forest(cohort):
    return fit_rsf(cohort, PARAMS)


def _query_times(forest, cohort):
    """Times before the first knot, on knots, between knots and past the last."""
    event_times = np.unique(cohort.times[cohort.events == 1])
    return np.concatenate([
        [1e-6, event_times[0] / 2],
        event_times,
        (event_times[:-1] + event_times[1:]) / 2,
        [forest.max_event_time, 10 * forest.max_event_time],
    ])


def _rows(forest, cohort):
    """Training rows, random rows, and rows sitting exactly on split thresholds."""
    rng = np.random.default_rng(17)
    on_threshold = []
    stack = [tree.root for tree in forest.trees]
    while stack:
        node = stack.pop()
        if isinstance(node, TreeSplit):
            row = cohort.matrix()[len(on_threshold) % len(cohort)].copy()
            row[node.feature] = node.threshold
            on_threshold.append(row)
            stack += [node.left, node.right]
    return np.vstack([cohort.matrix(), 2.0 * rng.standard_normal((40, cohort.n_features)),
                      *on_threshold])


def chf_for(root, x):
    """Per-row walk down one tree to its leaf CHF; the routing oracle."""
    node = root
    while isinstance(node, TreeSplit):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.chf


class TestBatchPrediction:
    def test_routing_matches_per_row_walk(self, forest, cohort):
        X, times = _rows(forest, cohort), _query_times(forest, cohort)
        expected = np.array([average_step_functions(
            [chf_for(tree.root, x) for tree in forest.trees])(times) for x in X])
        assert np.array_equal(predict_chf_at(forest, X, times), expected)

    def test_chf_matches_per_row_reference(self, forest, cohort):
        X, times = _rows(forest, cohort), _query_times(forest, cohort)
        expected = np.array([predict_chf(forest, x)(times) for x in X])
        assert np.array_equal(predict_chf_at(forest, X, times), expected)

    def test_survival_matches_per_row_reference(self, forest, cohort):
        X, times = _rows(forest, cohort), _query_times(forest, cohort)
        expected = np.array([predict_survival(forest, x)(times) for x in X])
        # drop a trailing column, as Forest.predict drops the risk-score column
        chf = predict_chf_at(forest, X, np.append(times, 1.0))[:, :-1]
        assert np.array_equal(np.exp(-np.ascontiguousarray(chf)), expected)

    def test_risk_matrix_is_chf_at_last_event_time(self, forest, cohort):
        X = _rows(forest, cohort)
        expected = np.array([predict_chf(forest, x)(forest.max_event_time) for x in X])
        assert np.array_equal(predict_risk_matrix(forest, X), expected)

    def test_single_row_and_width_check(self, forest, cohort):
        x = cohort.matrix()[0]
        assert predict_risk_matrix(forest, x).shape == (1,)
        d = cohort.n_features
        message = f"expected rows of {d} features, got shape (2, {d + 1})"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            predict_chf_at(forest, np.zeros((2, d + 1)), [1.0])


class TestDeterminism:
    def test_same_params_same_forest(self, forest, cohort):
        assert "".join(forest_to_json(fit_rsf(cohort, PARAMS))) == "".join(forest_to_json(forest))

    def test_other_seed_other_forest(self, forest, cohort):
        other = fit_rsf(cohort, ForestParams(n_trees=12, min_node_events=3,
                                             max_depth=5, seed=12))
        assert "".join(forest_to_json(other)) != "".join(forest_to_json(forest))

    def test_json_round_trip_predicts_identically(self, forest, cohort):
        back = forest_from_json("".join(forest_to_json(forest)))
        assert "".join(forest_to_json(back)) == "".join(forest_to_json(forest))
        X, times = _rows(forest, cohort), _query_times(forest, cohort)
        assert np.array_equal(predict_chf_at(back, X, times),
                              predict_chf_at(forest, X, times))


@pytest.mark.parametrize("seed", range(6))
def test_root_split_maximizes_log_rank(cohort, seed):
    """With every feature a candidate and one level, the root split is the
    midpoint threshold with the largest log-rank chi-square among those
    leaving min_node_events events on each side of the bootstrap sample."""
    m = 4
    forest = fit_rsf(cohort, ForestParams(n_trees=1, mtry=cohort.n_features,
                                          min_node_events=m, max_depth=1, seed=seed))
    tree = forest.trees[0]
    # tree b draws its bootstrap first from default_rng(seed + b)
    boot = np.random.default_rng(seed).integers(0, len(cohort), size=len(cohort))
    X, t, e = cohort.matrix()[boot], cohort.times[boot], cohort.events[boot]

    def chi_square(j, thr):
        left = X[:, j] <= thr
        return log_rank((t[left], e[left]), (t[~left], e[~left])).chi_square

    best = 0.0
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for thr in (values[:-1] + values[1:]) / 2:
            left = X[:, j] <= thr
            if e[left].sum() >= m and e[~left].sum() >= m:
                best = max(best, chi_square(j, thr))

    root = tree.root
    assert isinstance(root, TreeSplit)
    assert best > 0
    assert chi_square(root.feature, root.threshold) == pytest.approx(best, rel=1e-9)


# --- the former per-feature split search, kept as the oracle of the one-pass one ---


def best_split_per_feature(X, times, events, feat_indices, min_node_events):
    """Argsort, build the at-risk counts and score one feature at a time."""
    ets, d_tot, n_tot = _event_table(times, events)
    if ets.size == 0:
        return None
    d_tot, n_tot = d_tot.astype(float), n_tot.astype(float)
    total_events = float(np.sum(events))
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(n_tot > 1, d_tot * (n_tot - d_tot) / (n_tot - 1), 0.0)
    e_coef = d_tot / n_tot
    v1 = var_coef / n_tot
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
            continue
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


def forest_per_feature(cohort, params):
    """Each tree's root as `forest_to_json` writes it, grown on the per-feature
    search with the draws of the determinism contract."""
    X, times, events = cohort.matrix(), cohort.times, cohort.events
    n, d = X.shape
    mtry = min(params.mtry or int(np.ceil(np.sqrt(d))), d)
    roots = []
    for b in range(params.n_trees):
        rng = np.random.default_rng(params.seed + b)

        def build(idx, depth):
            split = None
            if (params.max_depth is None or depth < params.max_depth) and \
                    events[idx].sum() >= 2 * params.min_node_events:
                feats = rng.choice(d, size=mtry, replace=False)
                split = best_split_per_feature(X[idx], times[idx], events[idx], feats,
                                               params.min_node_events)
            if split is None:
                chf = nelson_aalen(times[idx], events[idx])
                return {"kind": "leaf", "count": int(idx.size),
                        "knots": chf.knots.tolist(), "values": chf.values.tolist()}
            j, thr = split
            go_left = X[idx, j] <= thr
            return {"kind": "split", "feature": j, "threshold": thr,
                    "left": build(idx[go_left], depth + 1),
                    "right": build(idx[~go_left], depth + 1)}

        roots.append(build(rng.integers(0, n, size=n), 0))
    return roots


@pytest.mark.parametrize("seed", range(8))
def test_one_pass_forest_equals_the_per_feature_forest(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(30, 160)), 2 + seed % 5
    base = random_censored_cohort(rng, n, d, tie_fraction=seed % 2)
    X = base.matrix().copy()
    if seed % 3:
        X = np.round(X, seed % 3 - 1)      # tied and rounded values
    if seed % 4 == 0:
        X[:, 1] = X[:, 0]                  # two candidates with equal statistics
    cohort = make_cohort(base.times, base.events, X)
    params = ForestParams(n_trees=6, mtry=max(1, d - 1 - seed % 2),
                          min_node_events=1 + seed % 4, max_depth=(None, 3)[seed % 2],
                          seed=seed)
    forest = fit_rsf(cohort, params)
    roots = [t["root"] for t in json.loads("".join(forest_to_json(forest)))["trees"]]
    expected = forest_per_feature(cohort, params)
    assert roots == expected
    assert sum(str(r).count("'split'") for r in expected) > 6


# --- the ranked node kernel against the per-feature search ---


def ranked_split(X, times, events, idx, feats, min_node_events):
    """rsf._best_split on the rows idx (ascending) of a tree's sample, with
    the sample's time ranks and the feature orders tree.grow would give."""
    rank = np.unique(times, return_inverse=True)[1]
    order = idx[np.argsort(X[idx], axis=0, kind="stable")].T
    return _best_split(X, rank, events, idx, order, np.asarray(feats), min_node_events,
                       events[idx].sum())


@pytest.mark.parametrize("seed", range(8))
def test_ranked_split_equals_the_per_feature_split_on_bootstrap_nodes(seed):
    rng = np.random.default_rng(300 + seed)
    n, d = int(rng.integers(20, 120)), 1 + seed % 5
    base = random_censored_cohort(rng, n, d, tie_fraction=seed % 2)
    boot = rng.integers(0, n, size=n)
    X = np.round(base.matrix(), seed % 3)[boot]
    times, events = base.times[boot], base.events[boot]
    splits = 0
    for _ in range(25):
        idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        m = int(rng.integers(1, 5))
        got = ranked_split(X, times, events, idx, feats, m)
        assert got == best_split_per_feature(X[idx], times[idx], events[idx], feats, m)
        splits += got is not None
    assert splits > 5


def edge_node(case):
    """(X, times, events) of one hand-built node of ten rows."""
    X = np.column_stack([[3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 8.0, 7.0],
                         np.arange(10.0)])
    times = np.arange(1.0, 11.0)
    events = np.array([1, 0, 1, 1, 0, 1, 0, 1, 1, 0])
    if case == "lone last event":          # n == 1 at the last event time
        events[-1] = 1
    elif case == "event and censoring tied":
        times[4] = times[3]
    elif case == "no events":
        events[:] = 0
    return X, times, events


@pytest.mark.parametrize("case", ["lone last event", "event and censoring tied", "no events"])
def test_ranked_split_on_edge_nodes(case):
    X, times, events = edge_node(case)
    got = ranked_split(X, times, events, np.arange(times.size), [0, 1], 2)
    assert got == best_split_per_feature(X, times, events, [0, 1], 2)
    assert (got is None) == (case == "no events")


def test_ranked_split_keeps_min_node_events_on_each_side():
    """Four events in time order: only a split with exactly two on each side
    is allowed at min_node_events 2, and none at 3."""
    X = np.arange(8.0)[:, None]
    times = np.arange(1.0, 9.0)
    events = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    idx = np.arange(8)
    feature, threshold = ranked_split(X, times, events, idx, [0], 2)
    assert (feature, threshold) == best_split_per_feature(X, times, events, [0], 2)
    assert events[X[:, 0] <= threshold].sum() == 2
    assert ranked_split(X, times, events, idx, [0], 3) is None
    assert best_split_per_feature(X, times, events, [0], 3) is None


def test_an_all_censored_cohort_grows_no_forest():
    rng = np.random.default_rng(5)
    cohort = make_cohort(rng.exponential(10.0, 20) + 0.1, np.zeros(20, dtype=int),
                         rng.standard_normal((20, 3)))
    with pytest.raises(TrainingError,
                       match="^cannot grow a survival forest on an all-censored cohort$"):
        fit_rsf(cohort, ForestParams(n_trees=2))
