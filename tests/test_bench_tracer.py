"""The benchmark tracer wraps package functions and methods by name and
walks forest nodes through `.root`/`.left`/`.right`; a refactor that breaks
either would break every traced benchmark run, so the default test run
checks both, for the forest and for each boosting mode."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from recurrisk import boosting, pipeline, rsf
from recurrisk.boosting import BoostedModel, BoostParams
from recurrisk.cohort import SyntheticSpec, generate_synthetic
from recurrisk.rsf import Forest, ForestParams, SurvivalTree, TreeLeaf, TreeSplit
from recurrisk.stepfun import StepFunction

from conftest import random_censored_cohort

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_bindings(tracer_module):
    before = (rsf.fit_rsf, pipeline.fit_rsf, rsf.predict_risk_matrix,
              pipeline.fold_models_hash, rsf.forest_to_json, rsf.nelson_aalen)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert pipeline.fit_rsf is not before[1]
        assert rsf.nelson_aalen is not before[5]
        cohort = random_censored_cohort(np.random.default_rng(2), 40, 2)
        forest = pipeline.fit_rsf(cohort, ForestParams(n_trees=2, min_node_events=2))
    finally:
        tracer.uninstall()
    after = (rsf.fit_rsf, pipeline.fit_rsf, rsf.predict_risk_matrix,
             pipeline.fold_models_hash, rsf.forest_to_json, rsf.nelson_aalen)
    assert after == before
    metrics = tracer.layer_metrics()
    assert metrics["rsf.fit_s"] > 0
    assert metrics["rsf.nodes"] == tracer_module.forest_nodes(forest)
    assert metrics["nonparametric.nelson_aalen_calls"] > 0


def test_forest_nodes_counts_two_trees(tracer_module):
    leaf = TreeLeaf(chf=StepFunction(np.array([1.0]), np.array([0.5])), count=3)
    deep = SurvivalTree(root=TreeSplit(0, 0.0, leaf, TreeSplit(1, 1.0, leaf, leaf)),
                        bootstrap_indices=np.arange(3), oob_indices=np.arange(0))
    stump = SurvivalTree(root=leaf, bootstrap_indices=np.arange(3),
                         oob_indices=np.arange(0))
    forest = Forest(("a", "b"), (deep, stump), 1.0, ForestParams(n_trees=2))
    assert tracer_module.forest_nodes(forest) == 5 + 1


@pytest.mark.parametrize("mode", ["componentwise", "gbm", "xgboost"])
def test_tracer_follows_each_boosting_mode(tracer_module, mode):
    before = (boosting.fit_boosted, pipeline.fit_boosted,
              BoostedModel.__dict__["predict_risk"])
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert pipeline.fit_boosted is not before[1]
        assert BoostedModel.__dict__["predict_risk"] is not before[2]
        cohort = random_censored_cohort(np.random.default_rng(3), 40, 2)
        model = pipeline.fit_boosted(cohort, BoostParams(rounds=8, mode=mode))
        model.predict_risk(cohort.X)
    finally:
        tracer.uninstall()
    assert (boosting.fit_boosted, pipeline.fit_boosted,
            BoostedModel.__dict__["predict_risk"]) == before
    metrics = tracer.layer_metrics()
    assert metrics[f"boosting.fit_s.{mode}"] > 0
    assert metrics["boosting.rounds"] == len(model.base_learners) > 0
    assert metrics["boosting.negloglik_evals"] > 0
    assert metrics["boosting.predict_s"] > 0


def test_tracer_follows_the_calls_inside_fitted_models(tracer_module):
    # the forest serializes itself and the boosted model computes its own
    # Breslow baseline, so both must still be attributed to their layers
    cohort, _ = generate_synthetic(SyntheticSpec(n=80, true_coefficients=(1.0, -1.0), seed=5))
    config = pipeline.PipelineConfig(
        cohort_csv="cohort.csv", enabled_models=("xgboost", "rsf"),
        model_params={"xgboost": {"rounds": 5}, "rsf": {"n_trees": 3}})
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        fold_models = pipeline.fit_fold_models(cohort, config, 0)
        pipeline.fold_models_hash(fold_models)
    finally:
        tracer.uninstall()
    assert fold_models.errors == {}
    metrics = tracer.layer_metrics()
    for name in ("rsf.to_json_s", "coxph.breslow_s", "pipeline.fold_hash_s",
                 "boosting.fit_s.xgboost", "rsf.fit_s"):
        assert metrics[name] > 0, name
