"""The tree ensembles yield their JSON one tree at a time, the Breslow
baselines one block of values at a time, and the fold digest escapes each
model's pieces as they come, never joining them. Each must give exactly the
bytes of the one-document encoder it replaced; those encoders are kept here
as oracles."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurrisk import tree
from recurrisk.boosting import BoostedModel, BoostParams, fit_boosted
from recurrisk.cohort import SyntheticSpec, generate_synthetic, load_cohort
from recurrisk.coxph import fit_cox
from recurrisk.pipeline import (
    FoldModels,
    PipelineConfig,
    assign_folds,
    fit_fold_models,
    fold_models_hash,
)
from recurrisk.rsf import Forest, ForestParams, _leaf_to_dict, fit_rsf

from conftest import make_cohort

DATA = Path(__file__).resolve().parent.parent / "data"


# --- the former one-document encoders ---------------------------------------


def forest_to_json_oracle(forest):
    return json.dumps({
        "model": "random_survival_forest",
        "feature_names": list(forest.feature_names),
        "max_event_time": forest.max_event_time,
        "params": asdict(forest.params),
        "trees": [{"root": tree.to_dict(t.root, _leaf_to_dict)} for t in forest.trees],
    }, sort_keys=True)


def boosted_to_json_oracle(model):
    return json.dumps({
        "model": "boosted_cox",
        "mode": model.mode,
        "learning_rate": model.learning_rate,
        "feature_names": list(model.feature_names),
        "learners": [l.to_dict() for l in model.base_learners],
        "training_loss_trace": list(model.training_loss_trace),
        "baseline_knots": model.baseline_chf.knots.tolist(),
        "baseline_values": model.baseline_chf.values.tolist(),
        "early_stop_round": model.early_stop_round,
    }, sort_keys=True)


def cox_to_json_oracle(model):
    return json.dumps({
        "model": "cox_ph",
        "feature_names": list(model.feature_names),
        "coefficients": model.coefficients.tolist(),
        "baseline_knots": model.baseline_chf.knots.tolist(),
        "baseline_values": model.baseline_chf.values.tolist(),
    }, sort_keys=True)


def model_json_oracle(model):
    if isinstance(model, Forest):
        return forest_to_json_oracle(model)
    if isinstance(model, BoostedModel):
        return boosted_to_json_oracle(model)
    return cox_to_json_oracle(model)


def fold_models_hash_oracle(fold_models):
    parts = {
        "normalization": {k: list(v) for k, v in sorted(fold_models.normalization.items())},
        "selected": list(fold_models.selected),
        "models": {name: None if model is None else model_json_oracle(model)
                   for name, model in sorted(fold_models.models.items())},
    }
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode("utf-8")).hexdigest()


# --- dumps_listing against json.dumps ----------------------------------------

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=6), values, max_size=5),
       key=st.text(max_size=6), items=st.lists(values, max_size=4))
@example(doc={"b": 1, "c": [2.5]}, key="", items=[{"z": 1, "a": None}])      # sorts first
@example(doc={"b": 1, "c": [2.5]}, key="zz", items=[[1, 2], "x"])            # sorts last
@example(doc={"b": 1, "c": [2.5]}, key="bb", items=[])                       # empty listing
@example(doc={"ключ": "é", "b": 1}, key="ñame", items=["日本", {"ü": 1}])     # non-ASCII
@example(doc={"b": 1, "c": [2.5]}, key="c", items=[3.0])                     # replaces a field
@example(doc={}, key="trees", items=[float("nan"), float("inf")])
def test_dumps_listing_equals_json_dumps(doc, key, items):
    want = json.dumps({**doc, key: list(items)}, sort_keys=True)
    assert "".join(tree.dumps_listing(doc, key, iter(items))) == want


@pytest.mark.parametrize("size", [0, 1, tree.ARRAY_BLOCK - 1, tree.ARRAY_BLOCK,
                                  tree.ARRAY_BLOCK + 1, 3 * tree.ARRAY_BLOCK + 5])
def test_an_array_field_is_written_as_its_list_a_block_at_a_time(size):
    floats = np.random.default_rng(size).standard_normal(size) * 1e3
    doc = {"values": floats, "count": size, "knots": np.arange(size)}
    plain = {"values": floats.tolist(), "count": size, "knots": list(range(size))}
    pieces = list(tree.dumps_listing(doc))
    assert "".join(pieces) == json.dumps(plain, sort_keys=True)
    assert max(map(len, pieces)) < 30 * tree.ARRAY_BLOCK
    listed = "".join(tree.dumps_listing(doc, "items", iter([{"b": 1}, 2.5])))
    assert listed == json.dumps({**plain, "items": [{"b": 1}, 2.5]}, sort_keys=True)


# --- every learner of every demo fold ----------------------------------------


@pytest.fixture(scope="module")
def demo_folds():
    config = PipelineConfig.from_json_file(DATA / "demo.json")
    cohort = load_cohort(config.cohort_csv)
    folds = assign_folds(cohort.events, config.cv_folds, config.seed)
    return [fit_fold_models(cohort.subset_rows(np.nonzero(folds != f)[0]), config, f)
            for f in range(config.cv_folds)]


def test_every_demo_model_writes_the_bytes_of_its_former_encoder(demo_folds):
    kinds = set()
    for fold_models in demo_folds:
        assert fold_models.errors == {}
        for name, model in fold_models.models.items():
            assert "".join(model.json_chunks()) == model_json_oracle(model), name
            kinds.add(type(model).__name__)
    assert {"Forest", "BoostedModel"} <= kinds


def test_fold_digest_equals_the_former_digest(demo_folds):
    for fold_models in demo_folds:
        assert fold_models_hash(fold_models) == fold_models_hash_oracle(fold_models)
    # a failed learner is written as null, wherever it sorts
    for name in ("coxboost", "xgboost", "cox"):
        failed = replace(fold_models, models={**fold_models.models, name: None})
        assert fold_models_hash(failed) == fold_models_hash_oracle(failed), name
    nothing = replace(fold_models, models={})
    assert fold_models_hash(nothing) == fold_models_hash_oracle(nothing)


def test_a_forest_is_written_without_a_document_of_every_tree():
    # the former encoder peaked at 9.5 times the text here: the nested dicts
    # and lists of all the trees outweigh their JSON
    cohort, _ = generate_synthetic(SyntheticSpec(n=186, true_coefficients=(0.9, -0.7, 0.5),
                                                 seed=2))
    forest = fit_rsf(cohort, ForestParams(n_trees=60, min_node_events=5, max_depth=6))
    tracemalloc.start()
    try:
        length = sum(map(len, forest.json_chunks()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * length


# --- the digest escapes each piece on its own ---------------------------------

ODD_NAMES = ('quote"d', "back\\slash", "tab\there", "caf\u00e9", "clef \U0001d11e")


def test_escaped_pieces_give_the_digest_of_the_whole_document():
    # feature names that JSON escapes: a quote, a backslash, a tab, a
    # non-ASCII and a non-BMP character
    base, _ = generate_synthetic(SyntheticSpec(n=80, true_coefficients=(0.9, -0.7, 0.5, 0.3,
                                                                        -0.4), seed=4))
    cohort = make_cohort(base.times, base.events, base.X, ODD_NAMES)
    models = {"rsf": fit_rsf(cohort, ForestParams(n_trees=5, min_node_events=3, max_depth=3)),
              "xgboost": fit_boosted(cohort, BoostParams(rounds=5, mode="xgboost")),
              "cox": fit_cox(cohort)}
    fold = FoldModels(normalization={name: (0.0, 1.0) for name in ODD_NAMES},
                      selected=ODD_NAMES, vif_removed=(), models=models, errors={})
    for name, model in models.items():
        assert json.loads("".join(model.json_chunks()))["feature_names"] == list(ODD_NAMES)
        alone = replace(fold, models={name: model})
        assert fold_models_hash(alone) == fold_models_hash_oracle(alone), name
    assert fold_models_hash(fold) == fold_models_hash_oracle(fold)
    failed = replace(fold, models={**models, "gbm": None})
    assert fold_models_hash(failed) == fold_models_hash_oracle(failed)


def test_the_digest_never_holds_the_text_of_a_forest():
    # the former digest held the text, its escaped copy and their bytes at once
    cohort, _ = generate_synthetic(SyntheticSpec(n=186, true_coefficients=(0.9, -0.7, 0.5),
                                                 seed=2))
    forest = fit_rsf(cohort, ForestParams(n_trees=150, min_node_events=5, max_depth=6))
    fold_models = FoldModels(normalization={}, selected=cohort.feature_names, vif_removed=(),
                             models={"rsf": forest}, errors={})
    length = sum(map(len, forest.json_chunks()))
    tracemalloc.start()
    try:
        fold_models_hash(fold_models)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < length / 10


def test_the_digest_never_holds_the_baselines_of_a_large_fold():
    # each Breslow baseline has about 7,000 knots here; the former encoders
    # made 2 x 7,000 Python floats per model and held their text three times
    # in the digest, 3.4 times the models' text in all
    cohort, _ = generate_synthetic(SyntheticSpec(n=10_000, true_coefficients=(0.8, -0.5, 0.3),
                                                 seed=3))
    models = {"cox": fit_cox(cohort),
              "coxboost": fit_boosted(cohort, BoostParams(rounds=20, mode="componentwise"))}
    fold = FoldModels(normalization={}, selected=cohort.feature_names, vif_removed=(),
                      models=models, errors={})
    length = sum(len(piece) for model in models.values() for piece in model.json_chunks())
    tracemalloc.start()
    try:
        digest = fold_models_hash(fold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < length / 10
    assert digest == fold_models_hash_oracle(fold)
