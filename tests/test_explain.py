import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from recurrisk.errors import InvalidParameterError
from recurrisk.explain import (
    MAX_EXACT_FEATURES,
    _coalitions,
    exact_shapley,
    feature_importance,
    mean_abs_shapley,
)
from recurrisk.pipeline import LEARNERS, MODEL_ORDER

from conftest import make_cohort


def shapley_permutation_oracle(model, x, background) -> np.ndarray:
    """Average marginal contribution over all d! orderings (d <= 6).

    Enumerates orderings directly instead of weighting subsets, and builds
    and scores each coalition's input row itself, one row per call.
    """
    x = np.asarray(x, dtype=float).ravel()
    background = np.asarray(background, dtype=float).ravel()
    d = x.size
    assert d <= 6, "the permutation oracle enumerates d! orderings"

    def value(taken):
        row = [x[j] if j in taken else background[j] for j in range(d)]
        return float(np.ravel(model(np.array([row])))[0])

    totals = np.zeros(d)
    orderings = list(permutations(range(d)))
    for ordering in orderings:
        taken = set()
        for j in ordering:
            before = value(taken)
            taken.add(j)
            totals[j] += value(taken) - before
    return totals / len(orderings)


def shapley_per_feature_loop(model, x, background) -> np.ndarray:
    """The subset-weighted sum one feature at a time: for each j, the masks
    S without j, their weights |S|!(d-|S|-1)!/d! and one np.sum, over the
    same batched predictions of all 2^d coalitions."""
    x = np.asarray(x, dtype=float).ravel()
    background = np.asarray(background, dtype=float).ravel()
    d = x.size
    masks = np.arange(2 ** d)
    takes_x = (masks[:, None] >> np.arange(d)) & 1 == 1
    sizes = takes_x.sum(axis=1)
    weight_by_size = np.array(
        [factorial(s) * factorial(d - s - 1) / factorial(d) for s in range(d)])
    values = np.asarray(model(np.where(takes_x, x[None, :], background[None, :])),
                        dtype=float).ravel()
    phi = np.empty(d)
    for j in range(d):
        m_wo = masks[(masks >> j) & 1 == 0]
        w = weight_by_size[sizes[m_wo]]
        phi[j] = float(np.sum(w * (values[m_wo | (1 << j)] - values[m_wo])))
    return phi


def shapley_one_batch(model, x, background) -> np.ndarray:
    """All 2^d coalitions in one prediction, then one weighted sum over
    (d, 2^(d-1)) tables of mask and weight rows: the single-batch form that
    blocked evaluation must reproduce bit for bit."""
    d = x.size
    masks = np.arange(2 ** d, dtype=np.int32)
    takes_x = (masks[:, None] >> np.arange(d)) & 1 == 1
    sizes = takes_x.sum(axis=1)
    weight_by_size = np.array(
        [factorial(s) * factorial(d - s - 1) / factorial(d) for s in range(d)])
    bits = np.int32(1) << np.arange(d, dtype=np.int32)
    m_wo = np.stack([masks[masks & bit == 0] for bit in bits])
    values = np.asarray(model(np.where(takes_x, x[None, :], background[None, :])),
                        dtype=float).ravel()
    diff = np.take(values, m_wo | bits[:, None])
    diff -= np.take(values, m_wo)
    diff *= weight_by_size[sizes[m_wo]]
    return diff.sum(axis=1)


def nonlinear(X):
    """Interactions, a threshold and a saturating term."""
    X = np.atleast_2d(X)
    out = np.tanh(X[:, 0]) + 0.3 * X[:, 0] ** 2
    for j in range(1, X.shape[1]):
        out = out + X[:, j - 1] * X[:, j] + (X[:, j] > 0.2) * (j + 1)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_exact_matches_permutation_oracle(d):
    rng = np.random.default_rng(d)
    x, background = rng.standard_normal(d), rng.standard_normal(d)
    phi = exact_shapley(nonlinear, x, background)
    np.testing.assert_allclose(phi, shapley_permutation_oracle(nonlinear, x, background),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 15))
def test_one_weighted_sum_equals_the_per_feature_loop(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(3):
        x, background = rng.standard_normal(d), rng.standard_normal(d)
        phi = exact_shapley(nonlinear, x, background)
        assert np.array_equal(phi, shapley_per_feature_loop(nonlinear, x, background))


@pytest.mark.parametrize("d", [1, 3, 6, 9])
def test_attributions_sum_to_the_explained_difference(d):
    rng = np.random.default_rng(10 + d)
    x, background = rng.standard_normal(d), rng.standard_normal(d)
    phi = exact_shapley(nonlinear, x, background)
    explained, baseline = nonlinear(x[None, :])[0], nonlinear(background[None, :])[0]
    assert np.sum(phi) == pytest.approx(explained - baseline, rel=1e-12, abs=1e-12)


def test_linear_model_attributions_are_weighted_differences():
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(7)
    x, background = rng.standard_normal(7), rng.standard_normal(7)

    class Linear:
        def predict_risk(self, X):
            return np.atleast_2d(X) @ beta

    phi = exact_shapley(Linear().predict_risk, x, background)
    np.testing.assert_allclose(phi, beta * (x - background), rtol=1e-12, atol=1e-13)


def test_more_than_fourteen_features_is_rejected():
    calls = []
    with pytest.raises(InvalidParameterError):
        exact_shapley(lambda X: calls.append(X) or X[:, 0], np.zeros(15), np.zeros(15))
    assert not calls


@pytest.mark.parametrize("x, background", [
    (np.zeros(3), np.zeros(4)),             # a background of another length
    (np.zeros((2, 2)), np.zeros(4)),        # a block of rows, not one row
    (np.zeros((1, 3)), np.zeros(3)),
], ids=["short-x", "square-x", "one-row-block"])
def test_mismatched_shapes_are_rejected(x, background):
    with pytest.raises(InvalidParameterError, match="x must be one row"):
        exact_shapley(nonlinear, x, background)


@pytest.mark.parametrize("background, names, message", [
    (np.zeros(4), ("a", "b", "c"), "x must be one row"),
    (np.zeros(3), ("a",), "expected 3 feature names, one per sample column, got 1"),
    (np.zeros(3), ("a", "b", "c", "d"), "expected 3 feature names, one per sample column, got 4"),
], ids=["wide-background", "short-names", "long-names"])
def test_sample_width_must_match_the_background(background, names, message):
    with pytest.raises(InvalidParameterError, match=message):
        mean_abs_shapley(nonlinear, np.zeros((5, 3)), background, names)


def test_an_empty_sample_is_rejected():
    with pytest.raises(InvalidParameterError, match="^sample must contain at least one row$"):
        mean_abs_shapley(nonlinear, np.zeros((0, 3)), np.zeros(3), ("a", "b", "c"))


def test_wide_cohorts_fall_back_to_permutation_importance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, MAX_EXACT_FEATURES + 1))
    # a higher x0 means an earlier event, so x0 ranks the subjects well
    cohort = make_cohort(rng.exponential(10.0, 120) * np.exp(-X[:, 0]),
                         rng.integers(0, 2, 120), X)

    def first_column(X):            # every other column is noise to this model
        return X[:, 0]

    method, rows = feature_importance(first_column, cohort, seed=5)
    assert method == "permutation_importance"
    assert [row[0] for row in rows] == ["x0", *cohort.feature_names[1:]]
    assert rows[0][1] > 0
    assert all(drop == 0.0 and std == 0.0 for _, drop, std in rows[1:])
    assert feature_importance(first_column, cohort, seed=5) == (method, rows)


# A few rounds or trees each: enough splits on enough columns to make every
# block's predictions differ, and quick to fit at d = 14.
WIDE_PARAMS = {"xgboost": {"rounds": 15}, "gbm": {"rounds": 15}, "coxboost": {"rounds": 30},
               "rsf": {"n_trees": 8}, "cox": {}}


@pytest.fixture(scope="module")
def wide_models():
    """Each learner fitted on a 120-subject cohort of 12, 13 and 14 columns."""
    rng = np.random.default_rng(12)
    models = {}
    for d in (12, 13, 14):
        X = rng.standard_normal((120, d))
        times = rng.exponential(10.0, 120) * np.exp(-X[:, 0] + 0.5 * X[:, 1] * X[:, 2])
        cohort = make_cohort(times, rng.integers(0, 2, 120), X)
        for name in MODEL_ORDER:
            models[name, d] = cohort, LEARNERS[name].fit(cohort, WIDE_PARAMS[name], 3, 0)
    return models


@pytest.mark.parametrize("d", [12, 13, 14])
@pytest.mark.parametrize("name", MODEL_ORDER)
def test_coalition_blocks_equal_the_one_batch_form(wide_models, name, d):
    cohort, model = wide_models[name, d]
    takes_x, rows, _, tables = _coalitions(d)
    assert tables is None and len(takes_x) // rows >= 8 and rows % 8 == 0   # several blocks
    background = np.median(cohort.X, axis=0)
    for x in cohort.X[:3]:
        phi = exact_shapley(model.predict_risk, x, background)
        assert np.array_equal(phi, shapley_one_batch(model.predict_risk, x, background))


def test_a_wide_row_is_explained_in_bounded_memory():
    d = MAX_EXACT_FEATURES
    rng = np.random.default_rng(14)
    beta, x, background = rng.standard_normal((3, d))

    def linear(X):
        return X @ beta

    _coalitions.cache_clear()
    tracemalloc.start()
    try:
        exact_shapley(linear, x, background)           # builds the width's tables
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        exact_shapley(linear, x, background)
        later = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert first < 1.5 * 2 ** 20
    assert later < 0.5 * 2 ** 20
