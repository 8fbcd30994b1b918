"""Self-test of the benchmark tracer on tiny versions of the three workloads.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default test collection;
name it on the command line to run it. Each case runs the pipeline in this
process with the tracer installed, then removes the tracer again.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_unit  # noqa: E402

COUNTS = tuple(m for m in LAYER_METRICS if layer_unit(m) == "count")

# tiny versions: same learners and lanes as the real workloads, less work
TINY = {
    "demo": (workloads.make_demo, {}, {
        "model_params": {"xgboost": {"rounds": 10}, "gbm": {"rounds": 10},
                         "coxboost": {"rounds": 10}, "rsf": {"n_trees": 4}}}),
    "cohort10k": (workloads.make_cohort10k, {"n": 400}, {
        "model_params": {"coxboost": {"rounds": 10}}}),
    "multimodal": (workloads.make_multimodal, {"n": 60}, {
        "model_params": {"xgboost": {"rounds": 10}},
        "temporal_params": {"epochs": 3}}),
}

# layers each workload must reach, and layers it must never touch
PRESENT = {
    "demo": ("rsf.fit_s", "rsf.nodes", "boosting.fit_s.xgboost", "boosting.fit_s.gbm",
             "boosting.fit_s.componentwise", "coxph.fit_cox_calls",
             "nonparametric.nelson_aalen_calls", "stepfun.average_s", "explain.predict_rows"),
    "cohort10k": ("coxph.loglik_evals", "coxph.breslow_s", "boosting.fit_s.componentwise",
                  "cohort.matrix_calls", "metrics.auc_summary_s", "explain.predict_rows"),
    "multimodal": ("radiomics.extract_s", "radiomics.voxels", "temporal.train_s",
                   "temporal.epochs", "temporal.risk_s", "boosting.fit_s.xgboost",
                   "coxph.vif_s", "explain.predict_rows"),
}
ABSENT = {
    "demo": ("radiomics.", "temporal."),
    "cohort10k": ("rsf.", "radiomics.", "temporal.", "boosting.fit_s.xgboost",
                  "boosting.fit_s.gbm", "stepfun.", "nonparametric.nelson_aalen"),
    "multimodal": ("rsf.", "boosting.fit_s.gbm", "boosting.fit_s.componentwise",
                   "stepfun.", "nonparametric.nelson_aalen"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    made = {}
    for name, (maker, kwargs, overrides) in TINY.items():
        dest = tmp_path_factory.mktemp(name)
        maker(ROOT, dest, **kwargs)
        config = json.loads((dest / "config.json").read_text(encoding="utf-8"))
        config.update(overrides)
        (dest / "config.json").write_text(json.dumps(config), encoding="utf-8")
        made[name] = dest
    return made


def traced_run(directory: Path, out: Path):
    """(tracer, run_s) for one pipeline run with the tracer installed."""
    tracer = Tracer()
    tracer.install()
    try:
        from recurrisk import pipeline
        config = pipeline.PipelineConfig.from_json_file(directory / "config.json")
        config = dataclasses.replace(config, out_dir=str(out))
        t0 = time.perf_counter()
        pipeline.run_pipeline(config)
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    shutil.rmtree(out, ignore_errors=True)
    return tracer, run_s


@pytest.fixture(scope="module")
def runs(inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {name: [traced_run(d, out / f"{name}{k}") for k in range(2)]
            for name, d in inputs.items()}


@pytest.mark.parametrize("name", list(TINY))
def test_spans_nest_and_self_times_add_up(runs, name):
    tracer, run_s = runs[name][0]
    spans = tracer.spans()
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["pipeline.self_s"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    own = tracer.self_times()
    assert min(own) >= -1e-9
    total = sum(own)
    root = roots[0]["end"] - roots[0]["start"]
    assert total == pytest.approx(root, rel=1e-9, abs=1e-9)
    # the only time outside the root span is one wrapper call and return
    assert 0.0 <= run_s - total < 0.01 + 0.02 * run_s


@pytest.mark.parametrize("name", list(TINY))
def test_counts_repeat_exactly(runs, name):
    (first, _), (second, _) = runs[name]
    a, b = first.layer_metrics(), second.layer_metrics()
    assert {m: a[m] for m in COUNTS} == {m: b[m] for m in COUNTS}


@pytest.mark.parametrize("name", list(TINY))
def test_layers_present_only_where_they_work(runs, name):
    metrics = runs[name][0][0].layer_metrics()
    assert set(metrics) == set(LAYER_METRICS)
    for metric in PRESENT[name]:
        assert metrics[metric] > 0, metric
    for metric, value in metrics.items():
        if metric.startswith(ABSENT[name]):
            assert value == 0, metric


def test_uninstall_restores_every_binding():
    from recurrisk import cli, coxph, pipeline, temporal
    before = (pipeline.fit_cox, cli.run_pipeline, temporal.cox_negloglik,
              coxph.Cohort.matrix)
    tracer = Tracer()
    tracer.install()
    assert pipeline.fit_cox is not before[0] and cli.run_pipeline is not before[1]
    tracer.uninstall()
    after = (pipeline.fit_cox, cli.run_pipeline, temporal.cox_negloglik,
             coxph.Cohort.matrix)
    assert after == before
