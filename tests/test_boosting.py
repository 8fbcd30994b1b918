import itertools
import re

import numpy as np
import pytest

from recurrisk import boosting
from recurrisk.boosting import (
    BoostParams,
    Stump,
    _fit_tree,
    _StumpFitter,
    cox_gradients,
    cox_negloglik,
    fit_boosted,
)
from recurrisk.errors import InvalidParameterError, TrainingError
from recurrisk.nonparametric import RiskSets, canonical_order
from recurrisk.tree import presort

from conftest import make_cohort, random_censored_cohort

MODES = ("componentwise", "gbm", "xgboost")


def _params(mode, **overrides):
    return BoostParams(**{"rounds": 25, "learning_rate": 0.2, "tree_depth": 3,
                          "min_leaf": 4, "mode": mode, **overrides})


# --- the former least-squares tree of the gbm mode, kept as its oracle -------


def fit_tree_sse(X, residual, depth, min_leaf):
    """Least-squares regression tree on the residual; mean leaf values.

    Nodes are ("leaf", value) or (feature, threshold, left, right).
    """

    def build(node_idx, remaining_depth):
        y = residual[node_idx]
        if remaining_depth == 0 or node_idx.size < 2 * min_leaf:
            return ("leaf", float(np.mean(y)))
        split = best_split_sse(X, node_idx, y, min_leaf)
        if split is None:
            return ("leaf", float(np.mean(y)))
        j, thr = split
        go_left = X[node_idx, j] <= thr
        return (j, thr, build(node_idx[go_left], remaining_depth - 1),
                build(node_idx[~go_left], remaining_depth - 1))

    return build(np.arange(X.shape[0]), depth)


def best_split_sse(X, node_idx, y, min_leaf):
    total = float(np.sum(y))
    n = node_idx.size
    best = None
    for j in range(X.shape[1]):
        col = X[node_idx, j]
        order = np.argsort(col, kind="stable")
        cs, ys = col[order], y[order]
        prefix = np.cumsum(ys)
        counts = np.arange(1, n + 1)
        valid = np.nonzero(cs[:-1] < cs[1:])[0]
        valid = valid[(counts[valid] >= min_leaf) & (n - counts[valid] >= min_leaf)]
        if valid.size == 0:
            continue
        left_sum = prefix[valid]
        nl = counts[valid]
        gain = left_sum ** 2 / nl + (total - left_sum) ** 2 / (n - nl) - total ** 2 / n
        k = int(np.argmax(gain))
        if gain[k] > 1e-12 and (best is None or gain[k] > best[0] + 1e-15):
            best = (float(gain[k]), j, float((cs[valid[k]] + cs[valid[k] + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def predict_sse_tree(node, x):
    while node[0] != "leaf":
        j, thr, left, right = node
        node = left if x[j] <= thr else right
    return node[1]


def test_gbm_tree_is_the_least_squares_tree():
    # the Newton tree with h = 1 and lambda = 0 halves every gain, so two
    # candidate splits can only swap when they give the same training
    # partition; the training-row predictions must agree exactly
    for case in range(60):
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(8, 80)), int(rng.integers(1, 5))
        X = rng.standard_normal((n, d))
        if case % 2:
            X = np.round(X, 1)          # tied feature values
        g = rng.standard_normal(n)
        depth, min_leaf = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        oracle = fit_tree_sse(X, -g, depth, min_leaf)
        tree = _fit_tree(X, presort(X), g, np.ones(n), depth, min_leaf, 0.0)
        expected = np.array([predict_sse_tree(oracle, x) for x in X])
        assert np.array_equal(tree.predict(X), expected), f"case {case}"


# --- the former per-feature split search, kept as the oracle of the presort ---


def best_split_gain_per_feature(X, node_idx, g, h, min_leaf, lam):
    """Argsort, gather and cumsum one feature at a time."""
    gt = float(np.sum(g[node_idx]))
    ht = float(np.sum(h[node_idx]))
    n = node_idx.size
    best = None
    for j in range(X.shape[1]):
        col = X[node_idx, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        gp = np.cumsum(g[node_idx][order])
        hp = np.cumsum(h[node_idx][order])
        counts = np.arange(1, n + 1)
        valid = np.nonzero(cs[:-1] < cs[1:])[0]
        valid = valid[(counts[valid] >= min_leaf) & (n - counts[valid] >= min_leaf)]
        if valid.size == 0:
            continue
        gl, hl = gp[valid], hp[valid]
        gain = 0.5 * (gl ** 2 / (hl + lam) + (gt - gl) ** 2 / (ht - hl + lam)
                      - gt ** 2 / (ht + lam))
        k = int(np.argmax(gain))
        if gain[k] > 1e-12 and (best is None or gain[k] > best[0] + 1e-15):
            best = (float(gain[k]), j, float((cs[valid[k]] + cs[valid[k] + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def fit_tree_per_feature(X, g, h, depth, min_leaf, lam):
    """The Newton tree on the per-feature search, as `Tree.to_dict` gives it."""

    def build(node_idx, level):
        split = None
        if level < depth and node_idx.size >= 2 * min_leaf:
            split = best_split_gain_per_feature(X, node_idx, g, h, min_leaf, lam)
        if split is None:
            return {"kind": "leaf",
                    "value": float(-np.sum(g[node_idx]) / (np.sum(h[node_idx]) + lam))}
        j, thr = split
        go_left = X[node_idx, j] <= thr
        return {"kind": "split", "feature": j, "threshold": thr,
                "left": build(node_idx[go_left], level + 1),
                "right": build(node_idx[~go_left], level + 1)}

    return build(np.arange(X.shape[0]), 0)


@pytest.mark.parametrize("setting", ["xgboost", "gbm"])
def test_presorted_tree_equals_the_per_feature_tree(setting):
    splits = 0
    for case in range(120):
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(2, 70)), 1 + case % 5
        X = rng.standard_normal((n, d))
        if case % 3:
            X = np.round(X, case % 3 - 1)        # tied and rounded values
        if d > 1 and case % 4 == 0:
            X[:, int(rng.integers(d))] = 0.5     # a constant column
        g = rng.standard_normal(n)
        if setting == "xgboost":
            h, lam = rng.uniform(0.0, 0.3, n) * (rng.random(n) < 0.8), 1.0
        else:
            h, lam = np.ones(n), 0.0
        depth, min_leaf = int(rng.integers(1, 5)), 1 + case % 6
        expected = fit_tree_per_feature(X, g, h, depth, min_leaf, lam)
        assert _fit_tree(X, presort(X), g, h, depth, min_leaf, lam).to_dict() == expected, \
            f"case {case}"
        splits += str(expected).count("'split'")
    assert splits > 200


def test_presort_sums_tied_rows_in_the_per_feature_order():
    # column 1 can cut wherever column 0 can but orders each tied block of column 0
    # differently, so their gains tie up to rounding and the winner depends
    # on the order in which the cumulative sums add tied rows
    for case in range(100):
        rng = np.random.default_rng(case)
        x = np.round(rng.standard_normal(80), 0)
        X = np.column_stack([x, x + 1e-6 * rng.random(80)])
        g, h = 1000.0 * rng.standard_normal(80), np.ones(80)
        assert _fit_tree(X, presort(X), g, h, 2, 1, 0.0).to_dict() == \
            fit_tree_per_feature(X, g, h, 2, 1, 0.0), f"case {case}"


# --- the former per-feature stump search, kept as the oracle of the fitter ------


def fit_stump_per_feature(X, residual):
    """Least-squares one-feature stump; lowest-SSE feature wins, ties to the
    lowest index."""
    n, d = X.shape
    r_mean = float(np.mean(residual))
    best = None
    for j in range(d):
        col = X[:, j]
        cm = float(np.mean(col))
        var = float(np.sum((col - cm) ** 2))
        if var == 0.0:
            continue
        slope = float(np.sum((col - cm) * (residual - r_mean))) / var
        intercept = r_mean - slope * cm
        sse = float(np.sum((residual - slope * col - intercept) ** 2))
        if best is None or sse < best[0] - 1e-15:
            best = (sse, Stump(j, slope, intercept))
    if best is None:
        return None
    return best[1]


def test_stump_fitter_equals_the_per_feature_stump():
    for case in range(200):
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(1, 90)), 1 + case % 6
        X = rng.standard_normal((n, d)) * np.exp(rng.normal(0.0, 2.0, d))
        if case % 3:
            X = np.round(X, case % 3 - 1)          # tied and rounded values
        if d > 1 and case % 4 == 0:
            X[:, int(rng.integers(d))] = -1.25     # a zero-variance column
        if d > 2 and case % 5 == 0:
            X[:, d - 1] = X[:, 1]                   # an exact SSE tie
        if case % 7 == 0:
            X = np.asfortranarray(X)
        fitter = _StumpFitter(X)
        for scale in (1e-3, 1.0, 40.0):
            residual = scale * rng.standard_normal(n)
            assert fitter.fit(residual) == fit_stump_per_feature(X, residual), \
                f"case {case}, scale {scale}"


def test_stump_ties_go_to_the_lowest_feature():
    rng = np.random.default_rng(2)
    x, r = rng.standard_normal(50), rng.standard_normal(50)
    X = np.column_stack([np.full(50, 3.0), x, 0.5 * rng.standard_normal(50), x])
    stump = _StumpFitter(X).fit(r)
    assert stump == fit_stump_per_feature(X, r)
    assert stump.feature == 1


def test_all_constant_columns_give_no_stump():
    X = np.column_stack([np.full(12, 2.0), np.zeros(12)])
    residual = np.random.default_rng(0).standard_normal(12)
    assert _StumpFitter(X).fit(residual) is None
    assert fit_stump_per_feature(X, residual) is None
    assert _StumpFitter(X[:1]).fit(residual[:1]) is None     # one row


def test_all_constant_columns_stop_the_componentwise_fit_at_once():
    rng = np.random.default_rng(2)
    times = rng.exponential(10.0, 12) + 0.1
    cohort = make_cohort(times, np.ones(12, dtype=int),
                         np.column_stack([np.full(12, 2.0), np.zeros(12)]))
    model = fit_boosted(cohort, _params("componentwise"))
    assert model.early_stop_round == 0
    assert model.base_learners == ()
    assert len(model.training_loss_trace) == 1


@pytest.mark.parametrize("mode", MODES)
def test_a_cohort_without_events_cannot_be_boosted(mode):
    rng = np.random.default_rng(3)
    cohort = make_cohort(rng.exponential(10.0, 12) + 0.1, np.zeros(12, dtype=int),
                         rng.standard_normal((12, 2)))
    with pytest.raises(TrainingError, match="^cannot boost with zero events$"):
        fit_boosted(cohort, _params(mode))


def fit_boosted_reference(cohort, params):
    """(learners, loss trace) of the former training loop: sorted-key
    canonical order, the per-feature stump search or the Newton tree on a
    presort made each round, and for each halving a candidate learner scaled
    by 0.5 ** k and routed again. The loss is read through the module, so a
    test can patch it."""
    order = sorted(range(len(cohort)),
                   key=lambda i: (cohort.times[i], cohort.events[i], cohort.ids[i]))
    X, t, e = cohort.X[order], cohort.times[order], cohort.events[order]
    n = len(t)
    risk = RiskSets(t, e)
    lam = params.l2_lambda if params.mode == "xgboost" else 0.0
    f, learners, trace = np.zeros(n), [], [boosting.cox_negloglik(risk, np.zeros(n))]
    for _ in range(params.rounds):
        g, h = cox_gradients(risk, f)
        if params.mode == "gbm":
            h = np.ones(n)
        if params.mode == "componentwise":
            learner = fit_stump_per_feature(X, -g)
        else:
            learner = _fit_tree(X, presort(X), g, h, params.tree_depth, params.min_leaf, lam)
        if learner is None:
            break
        for halvings in range(31):
            cand = learner.scaled(0.5 ** halvings) if halvings else learner
            f_new = f + params.learning_rate * cand.predict(X)
            loss = boosting.cox_negloglik(risk, f_new)
            if loss <= trace[-1] + 1e-9:
                learners.append(cand)
                f = f_new
                trace.append(loss)
                break
        else:
            break
    return tuple(learners), tuple(trace)


def test_componentwise_fit_equals_the_per_feature_fit():
    rng = np.random.default_rng(6)
    cohort = random_censored_cohort(rng, 90, 4, tie_fraction=0.5)
    X = cohort.X.copy()
    X[3:, 3] = 0.0                    # nonzero on three rows only
    cohort = make_cohort(cohort.times, cohort.events, X, cohort.feature_names,
                         list(cohort.ids))
    params = _params("componentwise", rounds=40)
    model = fit_boosted(cohort, params)
    learners, trace = fit_boosted_reference(cohort, params)
    assert len(learners) == 40
    assert model.base_learners == learners and model.training_loss_trace == trace


def test_canonical_order_is_the_sorted_key_order():
    for case in range(40):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 120))
        times = rng.choice([0.5, 2.0, 3.0, 7.5], n) if case % 2 else \
            np.round(rng.exponential(4.0, n), 0) + 0.5
        events = rng.integers(0, 2, n)          # many tied (time, event) pairs
        ids = [f"s{k}" for k in rng.permutation(n) * 7]   # "s14" sorts before "s7"
        cohort = make_cohort(times, events, np.zeros((n, 1)), ids=ids)
        expected = sorted(range(n), key=lambda i: (cohort.times[i], cohort.events[i],
                                                    cohort.ids[i]))
        assert canonical_order(cohort.times, cohort.events, cohort.ids).tolist() == expected, \
            f"case {case}"


# --- loss derivatives ----------------------------------------------------------


def test_gradients_match_finite_differences_with_ties():
    rng = np.random.default_rng(4)
    n = 30
    times = rng.integers(1, 8, n).astype(float)       # many tied times
    events = rng.integers(0, 2, n)
    events[0] = 1
    f = 0.5 * rng.standard_normal(n)
    risk = RiskSets(times, events)
    g, h = cox_gradients(risk, f)
    eps = 1e-4
    base = cox_negloglik(risk, f)
    for i in range(n):
        step = np.zeros(n)
        step[i] = eps
        up = cox_negloglik(risk, f + step)
        down = cox_negloglik(risk, f - step)
        assert g[i] == pytest.approx((up - down) / (2 * eps), rel=1e-6, abs=1e-8)
        assert h[i] == pytest.approx((up - 2 * base + down) / eps ** 2, rel=1e-4, abs=1e-5)


def test_gradients_without_events_are_zero():
    risk = RiskSets([1.0, 2.0, 2.0], [0, 0, 0])
    g, h = cox_gradients(risk, [0.0, 0.3, -1.0])
    assert cox_negloglik(risk, [0.0, 0.3, -1.0]) == 0.0
    assert np.array_equal(g, np.zeros(3)) and np.array_equal(h, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gradients_of_a_nonfinite_score_are_rejected(bad):
    risk = RiskSets([1.0, 2.0, 3.0], [1, 0, 1])
    with pytest.raises(InvalidParameterError, match="^scores must be finite$"):
        cox_gradients(risk, [0.0, bad, 0.5])


def test_an_unknown_mode_is_rejected():
    message = "mode must be one of ('componentwise', 'gbm', 'xgboost')"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        BoostParams(mode="adaboost")


@pytest.mark.parametrize("min_leaf", [0, -2])
def test_min_leaf_below_one_is_rejected(min_leaf):
    with pytest.raises(InvalidParameterError, match="min_leaf must be >= 1"):
        BoostParams(min_leaf=min_leaf)


# the former per-call loss and derivatives, which sorted on every call, kept
# as the oracles of the risk-set versions


def negloglik_per_call(times, events, scores):
    times = np.asarray(times, float)
    events = np.asarray(events, int)
    scores = np.asarray(scores, float)
    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))
    order = np.argsort(times, kind="stable")
    t_s, e_s, w_s, f_s = times[order], events[order], w[order], scores[order]
    s0 = np.cumsum(w_s[::-1])[::-1]
    first = np.searchsorted(t_s, t_s, side="left")
    ev = e_s == 1
    return float(np.sum(np.log(s0[first[ev]]) + shift - f_s[ev]))


def gradients_per_call(scores, times, events):
    scores = np.asarray(scores, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    shift = float(np.max(scores))
    w = np.exp(np.maximum(scores - shift, -700.0))
    order = np.argsort(times, kind="stable")
    t_s, e_s, w_s = times[order], events[order], w[order]
    s0 = np.cumsum(w_s[::-1])[::-1]
    first = np.searchsorted(t_s, t_s, side="left")
    ev_idx = np.nonzero(e_s == 1)[0]
    phi = s0[first[ev_idx]]
    inv1 = np.cumsum(1.0 / phi)
    inv2 = np.cumsum(1.0 / phi ** 2)
    k = np.searchsorted(t_s[ev_idx], times, side="right")
    a = np.where(k > 0, inv1[np.maximum(k - 1, 0)], 0.0)
    b = np.where(k > 0, inv2[np.maximum(k - 1, 0)], 0.0)
    g = -events + w * a
    h = w * a - w ** 2 * b
    return g, np.maximum(h, 0.0)


def test_risk_set_loss_and_derivatives_equal_the_per_call_versions():
    for case in range(80):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 60))
        times = rng.choice([1.0, 2.0, 2.5, 4.0, 7.0], n) if case % 2 else \
            rng.exponential(5.0, n) + 0.1           # heavy ties or none, unsorted
        events = rng.integers(0, 2, n)
        events[times >= np.quantile(times, 0.7)] = 0  # all-censored tail
        events[int(rng.integers(n))] = 1
        scores = rng.normal(0.0, 1.0 + case % 4, n)
        risk = RiskSets(times, events)
        assert cox_negloglik(risk, scores) == negloglik_per_call(times, events, scores)
        g, h = cox_gradients(risk, scores)
        g_ref, h_ref = gradients_per_call(scores, times, events)
        assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref), f"case {case}"
        g_only, no_h = cox_gradients(risk, scores, hessian=False)
        assert np.array_equal(g_only, g) and no_h is None, f"case {case}"


# --- the fitted model ----------------------------------------------------------


@pytest.fixture(scope="module")
def cohort():
    return random_censored_cohort(np.random.default_rng(8), 70, 3, tie_fraction=0.5)


def test_gbm_mode_fits_the_least_squares_tree_to_the_gradient(cohort):
    order = sorted(range(len(cohort)),
                   key=lambda i: (cohort.times[i], cohort.events[i], cohort.ids[i]))
    X, t, e = cohort.X[order], cohort.times[order], cohort.events[order]
    g, _ = cox_gradients(RiskSets(t, e), np.zeros(len(t)))
    model = fit_boosted(cohort, _params("gbm", rounds=1, learning_rate=0.1))
    oracle = fit_tree_sse(X, -g, 3, 4)
    assert np.array_equal(model.base_learners[0].predict(X),
                          np.array([predict_sse_tree(oracle, x) for x in X]))


@pytest.mark.parametrize("mode", MODES)
def test_fit_is_invariant_to_row_order(cohort, mode):
    perm = np.random.default_rng(1).permutation(len(cohort))
    shuffled = make_cohort(cohort.times[perm], cohort.events[perm], cohort.X[perm],
                           cohort.feature_names, list(cohort.ids[perm]))
    params = _params(mode)
    assert ("".join(fit_boosted(shuffled, params).json_chunks())
            == "".join(fit_boosted(cohort, params).json_chunks()))


@pytest.mark.parametrize("mode", ["gbm", "xgboost"])
def test_scaled_tree_predicts_scaled_values(cohort, mode):
    learner = fit_boosted(cohort, _params(mode)).base_learners[0]
    X = np.vstack([cohort.X, np.random.default_rng(5).standard_normal((20, 3))])
    assert np.array_equal(learner.scaled(0.375).predict(X), 0.375 * learner.predict(X))


@pytest.mark.parametrize("mode", MODES)
def test_training_loss_never_rises(cohort, mode):
    trace = np.array(fit_boosted(cohort, _params(mode)).training_loss_trace)
    assert trace.size > 1
    assert np.all(np.diff(trace) <= 1e-9)


def rejecting(every=(2, 3, 5)):
    """The Cox loss, except inf on every call whose count a number in
    `every` divides: each round then halves its step 0 to 4 times."""
    calls = itertools.count(1)

    def loss(risk, scores):
        if any(next(calls) % k == 0 for k in every):
            return np.inf
        return cox_negloglik(risk, scores)

    return loss


@pytest.mark.parametrize("mode", MODES)
def test_halved_steps_equal_the_scaled_learners(monkeypatch, mode):
    cohort = random_censored_cohort(np.random.default_rng(4), 80, 3, tie_fraction=0.5)
    params = _params(mode, learning_rate=0.3)
    unhalved = fit_boosted(cohort, params)
    monkeypatch.setattr(boosting, "cox_negloglik", rejecting())
    model = fit_boosted(cohort, params)
    assert model.training_loss_trace != unhalved.training_loss_trace
    monkeypatch.setattr(boosting, "cox_negloglik", rejecting())
    learners, trace = fit_boosted_reference(cohort, params)
    assert len(learners) == 25 and model.early_stop_round is None
    assert model.training_loss_trace == trace
    assert [l.to_dict() for l in model.base_learners] == [l.to_dict() for l in learners]
    X = cohort.X
    assert np.array_equal(model.predict_risk(X),
                          sum(params.learning_rate * l.predict(X) for l in learners))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("give_up", [0, 6])
def test_a_round_no_halving_rescues_ends_the_fit(cohort, monkeypatch, mode, give_up):
    # the first loss and the first `give_up` rounds' steps pass; from then on
    # every candidate fails, and round `give_up` tries all 31 before stopping
    calls = []

    def loss(risk, scores):
        calls.append(None)
        return cox_negloglik(risk, scores) if len(calls) <= give_up + 1 else np.inf

    monkeypatch.setattr(boosting, "cox_negloglik", loss)
    model = fit_boosted(cohort, _params(mode))
    assert model.early_stop_round == give_up
    assert len(model.base_learners) == give_up
    assert len(model.training_loss_trace) == give_up + 1
    assert len(calls) == give_up + 1 + 31
