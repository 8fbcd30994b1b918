"""Every `LEARNERS` entry returns a model with one protocol: predict_risk,
predict(X, horizons) -> (scores, survival) and json_chunks. The fold digest
built from json_chunks is the leakage probe: it must see the training rows of
a fold and nothing else."""

import hashlib
import json
import re

import numpy as np
import pytest

from recurrisk.cohort import Cohort, SyntheticSpec, generate_synthetic
from recurrisk.errors import InvalidParameterError
from recurrisk.pipeline import (
    LEARNERS,
    MODEL_ORDER,
    PipelineConfig,
    assign_folds,
    fit_fold_models,
    fold_models_hash,
)

SMALL = {"xgboost": {"rounds": 10}, "rsf": {"n_trees": 4}, "coxboost": {"rounds": 10},
         "gbm": {"rounds": 10}, "cox": {}}


@pytest.fixture(scope="module")
def cohort():
    return generate_synthetic(SyntheticSpec(n=120, true_coefficients=(1.0, -0.8, 0.5),
                                            seed=3))[0]


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_every_learner_answers_the_model_protocol(cohort, name):
    model = LEARNERS[name].fit(cohort, SMALL[name], 0, 0)
    X = np.vstack([cohort.X, np.random.default_rng(1).standard_normal((10, 3))])
    horizons = np.quantile(cohort.times, [0.25, 0.5, 0.75]).tolist()
    scores, surv = model.predict(X, horizons)
    assert np.array_equal(scores, model.predict_risk(X))
    assert surv.shape == (X.shape[0], len(horizons))
    assert np.all((surv > 0) & (surv <= 1))
    assert np.all(np.diff(surv, axis=1) <= 0)
    assert isinstance(json.loads("".join(model.json_chunks())), dict)


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_a_matrix_of_the_wrong_width_raises_shape_error(cohort, name):
    model = LEARNERS[name].fit(cohort, SMALL[name], 0, 0)
    d = cohort.n_features
    for X in (np.hstack([cohort.X, cohort.X[:, :1]]), np.zeros((2, d, d))):
        message = f"expected rows of {d} features, got shape {X.shape}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            model.predict_risk(X)


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_an_empty_entry_fits_the_declared_defaults(cohort, name):
    learner = LEARNERS[name]
    written_out = {key: p.default for key, p in learner.params.items()}

    def digest(entry):  # a digest keeps a failure from diffing two large documents
        text = "".join(learner.fit(cohort, entry, 0, 0).json_chunks())
        return hashlib.sha256(text.encode()).hexdigest()
    assert digest({}) == digest(written_out)


def test_each_booster_accepts_only_the_settings_its_mode_reads():
    # only xgboost's Newton leaf reads l2_lambda; componentwise boosting grows no trees
    common = {"rounds", "learning_rate"}
    assert set(LEARNERS["xgboost"].params) == common | {"tree_depth", "min_leaf", "l2_lambda"}
    assert set(LEARNERS["gbm"].params) == common | {"tree_depth", "min_leaf"}
    assert set(LEARNERS["coxboost"].params) == common


def _with_rows(cohort, rows, times=None, events=None, X=None):
    """A copy of the cohort with the given rows' outcomes or features replaced."""
    new_times, new_events, new_X = cohort.times.copy(), cohort.events.copy(), cohort.X.copy()
    if times is not None:
        new_times[rows] = times
    if events is not None:
        new_events[rows] = events
    if X is not None:
        new_X[rows] = X
    return Cohort(cohort.feature_names, cohort.ids, new_times, new_events, new_X)


def test_fold_digest_sees_only_the_training_rows(cohort):
    config = PipelineConfig(cohort_csv="cohort.csv", model_params=SMALL)
    folds = assign_folds(cohort.events, 3, 0)
    train, held_out = np.nonzero(folds != 0)[0], np.nonzero(folds == 0)[0]

    def digest(c):
        fold_models = fit_fold_models(c.subset_rows(train), config, 0)
        assert fold_models.errors == {} and len(fold_models.models) == len(MODEL_ORDER)
        return fold_models_hash(fold_models)

    reference = digest(cohort)
    rng = np.random.default_rng(8)
    perturbed = _with_rows(cohort, held_out,
                           times=rng.uniform(0.5, 50.0, held_out.size),
                           events=1 - cohort.events[held_out],
                           X=rng.standard_normal((held_out.size, cohort.n_features)))
    assert digest(perturbed) == reference
    one = train[:1]
    assert digest(_with_rows(cohort, one, X=cohort.X[one] + 0.5)) != reference
