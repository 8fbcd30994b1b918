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
              pipeline.predict_risk_matrix, rsf.forest_to_json, rsf.nelson_aalen)
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
             pipeline.predict_risk_matrix, rsf.forest_to_json, rsf.nelson_aalen)
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
