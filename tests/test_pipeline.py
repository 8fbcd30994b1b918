"""Golden test: the demo protocol reproduces the committed data/demo_out artifacts."""

import csv
import dataclasses
import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from recurrisk import pipeline
from recurrisk.cli import main
from recurrisk.cohort import SyntheticSpec, generate_synthetic, write_cohort
from recurrisk.errors import DegenerateStratificationError, TrainingError
from recurrisk.nonparametric import kaplan_meier, median_survival_time
from recurrisk.pipeline import PipelineConfig, run_pipeline
from recurrisk.stepfun import StepFunction
from recurrisk.svgplot import PALETTE, Series, render_plot

from conftest import write_grids
from test_temporal import generate_longitudinal, write_longitudinal

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"

_spec = importlib.util.spec_from_file_location("report_diff", REPO / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

# The Cox fits can differ from the committed run in the last bits. When the
# Cox likelihood moved to the score-space loss, the demo report moved by at
# most 9.8e-15 relative (features/screen/*/p_value) and every other
# workload report by at most 4.8e-13.
FLOAT_ABS_TOL = 1e-8

# config_hash hashes the absolute input paths, so it differs per checkout.
# fold_model_hashes hash the fitted Cox coefficients bit for bit, so the
# same last-bit drift changes them.
SKIPPED = {("provenance", "config_hash"), ("provenance", "fold_model_hashes")}


def _csv_cells(path):
    """The rows of a CSV file, each cell as an int, a float or a string."""
    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    with open(path, newline="", encoding="utf-8") as fh:
        return [[cell(text) for text in row] for row in csv.reader(fh)]


def test_demo_report_matches_committed_golden(tmp_path):
    config = dataclasses.replace(PipelineConfig.from_json_file(DATA / "demo.json"),
                                 out_dir=str(tmp_path))
    run_pipeline(config)
    golden = DATA / "demo_out"
    got = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    want = json.loads((golden / "report.json").read_text(encoding="utf-8"))
    assert list(report_diff.differences(got, want, FLOAT_ABS_TOL, SKIPPED)) == []
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert len([n for n in names if n.endswith(".svg")]) == 4
    for name in names:
        if name.endswith(".csv"):
            assert list(report_diff.differences(
                _csv_cells(tmp_path / name), _csv_cells(golden / name), FLOAT_ABS_TOL)) == [], name


def test_report_diff_walks_every_kind_of_difference(tmp_path, capsys):
    old = {"a": [1.0, 2.0, {"b": "x"}], "c": 3, "d": [1, 2], "e": {"f": 1},
           "skip": 1.0, "g": 1.0}
    new = {"a": [1.0, 2.5, {"b": "y"}], "c": 3.0, "d": [1], "e": {"h": 1},
           "skip": 5.0, "g": 1.0 + 2 ** -40}
    assert list(report_diff.differences(new, old, 1e-8, {("skip",)})) == [
        (("a", "1"), 2.5, 2.0), (("a", "2", "b"), "y", "x"), (("c",), 3.0, 3),
        (("d",), 1, 2), (("e",), ["h"], ["f"])]
    assert list(report_diff.differences(old, old)) == []

    rows, others = report_diff.summarize(old, new)
    assert rows == [("a/*", 0.2, 1), ("skip", 0.8, 1), ("g", 2 ** -40 / (1 + 2 ** -40), 1)]
    assert [path for path, _, _ in others] == [("a", "2", "b"), ("c",), ("d",), ("e",)]
    for name, doc in (("old", old), ("new", new)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert report_diff.main([str(tmp_path / "old"), str(tmp_path / "old")]) == 0
    assert report_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert "0.8\t1\tskip" in capsys.readouterr().out


def test_infinite_out_of_fold_score_fails_only_that_learner(tmp_path, monkeypatch):
    cohort, _ = generate_synthetic(
        SyntheticSpec(n=120, true_coefficients=(1.0, -0.7), seed=2))
    write_cohort(cohort, tmp_path / "cohort.csv")
    coxboost = pipeline.LEARNERS["coxboost"]

    class FirstRowInfinite:
        def __init__(self, model):
            self.model = model

        def predict(self, X, horizons):
            scores, surv = self.model.predict(X, horizons)
            return np.where(np.arange(scores.size) == 0, np.inf, scores), surv

        def json_chunks(self):
            return self.model.json_chunks()

    monkeypatch.setitem(pipeline.LEARNERS, "coxboost", coxboost._replace(
        fit=lambda *args: FirstRowInfinite(coxboost.fit(*args))))
    report = run_pipeline(PipelineConfig(
        cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(tmp_path / "out"),
        cv_folds=3, enabled_models=("cox", "coxboost"),
        model_params={"coxboost": {"rounds": 20}}))
    assert report["models"]["coxboost"] == {
        "status": "failed", "error": "incomplete or non-finite predictions"}
    assert report["models"]["cox"]["status"] == "ok"
    assert report["chosen_model"] == "cox"


def test_a_high_risk_group_left_empty_by_tied_scores_is_named(tmp_path, monkeypatch):
    cohort, _ = generate_synthetic(
        SyntheticSpec(n=120, true_coefficients=(1.0, -0.7), seed=2))
    write_cohort(cohort, tmp_path / "cohort.csv")
    cox = pipeline.LEARNERS["cox"]

    class TwoRowsInThreeAtTheTop:
        def __init__(self, model):
            self.model = model

        def predict(self, X, horizons):
            scores, surv = self.model.predict(X, horizons)
            return np.where(np.arange(scores.size) % 3, 1.0, np.minimum(scores, 0.0)), surv

        def json_chunks(self):
            return self.model.json_chunks()

    monkeypatch.setitem(pipeline.LEARNERS, "cox", cox._replace(
        fit=lambda *args: TwoRowsInThreeAtTheTop(cox.fit(*args))))
    with pytest.raises(DegenerateStratificationError, match="high-risk group is empty"):
        run_pipeline(PipelineConfig(
            cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(tmp_path / "out"),
            cv_folds=3, enabled_models=("cox",)))


def test_the_km_csvs_are_the_one_record_of_the_risk_group_curves(tmp_path):
    cohort, _ = generate_synthetic(
        SyntheticSpec(n=120, true_coefficients=(1.0, -0.7), seed=2))
    write_cohort(cohort, tmp_path / "cohort.csv")
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(
        cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(out), cv_folds=3,
        enabled_models=("cox", "coxboost"), model_params={"coxboost": {"rounds": 20}}))
    strat = report["stratification"]
    assert sorted(strat) == ["cutoff", "log_rank_chi_square", "log_rank_p",
                             "median_rfs_high", "median_rfs_low", "n_high", "n_low"]

    header, *rows = _csv_cells(out / "oof_scores.csv")
    columns = dict(zip(header[1:], np.array([row[1:] for row in rows], dtype=float).T))
    times, events = columns["time"], columns["event"]
    is_high = columns[report["chosen_model"]] > strat["cutoff"]
    assert (strat["n_high"], strat["n_low"]) == (is_high.sum(), (~is_high).sum())
    for group, members in (("high", is_high), ("low", ~is_high)):
        header, *rows = _csv_cells(out / f"km_{group}.csv")
        assert header == ["time", "survival"]
        curve = StepFunction(*np.array(rows, dtype=float).T, initial_value=1.0)
        km = kaplan_meier(times[members], events[members])
        assert curve.knots.tolist() == km.knots.tolist()
        assert curve.values.tolist() == km.values.tolist()
        assert strat[f"median_rfs_{group}"] is not None
        assert median_survival_time(curve) == strat[f"median_rfs_{group}"]


def test_outputs_are_the_same_bytes_with_and_without_the_worker(tmp_path, monkeypatch):
    spec = SyntheticSpec(n=90, true_coefficients=(1.0, -0.7, 0.4), seed=3)
    cohort, _ = generate_synthetic(spec)
    write_cohort(cohort, tmp_path / "cohort.csv")
    write_grids(tmp_path / "grids", cohort.ids, np.random.default_rng(8))
    write_longitudinal(generate_longitudinal(spec), tmp_path / "longitudinal.csv")
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def outputs(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"out_{len(cpus)}"
        run_pipeline(PipelineConfig(
            cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(out),
            voxel_grid_dir=str(tmp_path / "grids"), cv_folds=3, radiomics_levels=8, seed=7,
            longitudinal_csv=str(tmp_path / "longitudinal.csv"),
            model_params={"rsf": {"n_trees": 3}, "xgboost": {"rounds": 10},
                          "gbm": {"rounds": 10}, "coxboost": {"rounds": 10}}))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    two = outputs({0, 1})
    assert len(forks) == 2     # radiomics, then the folds
    assert outputs({0}) == two
    assert len(forks) == 2
    assert len(two) == 8       # report, scores, two KM curves, 4 SVGs
    assert json.loads(two["report.json"])["temporal"]["status"] == "ok"


def test_a_learner_failing_in_two_folds_reports_the_first(tmp_path, monkeypatch):
    cohort, _ = generate_synthetic(
        SyntheticSpec(n=120, true_coefficients=(1.0, -0.7), seed=2))
    write_cohort(cohort, tmp_path / "cohort.csv")
    coxboost = pipeline.LEARNERS["coxboost"]

    def fit(cohort, params, seed, fold):
        if fold > 0:     # fold 1 is the worker's
            raise TrainingError(f"fold {fold} failed")
        return coxboost.fit(cohort, params, seed, fold)

    monkeypatch.setitem(pipeline.LEARNERS, "coxboost", coxboost._replace(fit=fit))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    report = run_pipeline(PipelineConfig(
        cohort_csv=str(tmp_path / "cohort.csv"), out_dir=str(tmp_path / "out"),
        cv_folds=3, enabled_models=("cox", "coxboost"),
        model_params={"coxboost": {"rounds": 20}}))
    assert report["models"]["coxboost"] == {"status": "failed", "error": "fold 1 failed"}
    assert report["models"]["cox"]["status"] == "ok"


def test_a_booster_runs_with_the_default_seed(tmp_path):
    # the whole-cohort refit is fold -1, and it must run with the default seed 0
    cohort, _ = generate_synthetic(
        SyntheticSpec(n=90, true_coefficients=(1.0, -0.7, 0.4), seed=3))
    write_cohort(cohort, tmp_path / "cohort.csv")
    config = PipelineConfig(cohort_csv=str(tmp_path / "cohort.csv"),
                            out_dir=str(tmp_path / "out"), cv_folds=3,
                            enabled_models=("gbm",), model_params={"gbm": {"rounds": 10}})
    assert config.seed == 0
    run_pipeline(config)
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["chosen_model"] == "gbm"
    assert report["features"]["importance"]["method"] == "mean_abs_shapley"


def _cohort_csv(tmp_path, n=120):
    cohort, _ = generate_synthetic(SyntheticSpec(n=n, true_coefficients=(1.0, -0.7), seed=2))
    write_cohort(cohort, tmp_path / "cohort.csv")
    return cohort, str(tmp_path / "cohort.csv")


def test_a_run_in_which_every_model_fails_exits_1_and_leaves_no_folder(
        tmp_path, capsys, monkeypatch):
    _, path = _cohort_csv(tmp_path)
    for name in ("cox", "coxboost"):
        def fit(cohort, params, seed, fold, name=name):
            raise TrainingError(f"{name} failed in fold {fold}")
        monkeypatch.setitem(pipeline.LEARNERS, name, pipeline.LEARNERS[name]._replace(fit=fit))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cohort_csv": path, "out_dir": str(tmp_path / "out"),
                                  "cv_folds": 3, "enabled_models": ["cox", "coxboost"]}),
                      encoding="utf-8")
    assert main(["run", "--config", str(config), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: evaluation: every model failed\n"
    assert not (tmp_path / "out").exists()


def test_a_failed_whole_cohort_refit_leaves_only_the_importance_empty(tmp_path, monkeypatch):
    _, path = _cohort_csv(tmp_path)

    def outputs(name):
        out = tmp_path / name
        run_pipeline(PipelineConfig(cohort_csv=path, out_dir=str(out), cv_folds=3,
                                    enabled_models=("cox",)))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    plain = outputs("plain")
    cox = pipeline.LEARNERS["cox"]

    def fit(cohort, params, seed, fold):
        if fold == -1:
            raise TrainingError("the whole-cohort refit failed")
        return cox.fit(cohort, params, seed, fold)

    monkeypatch.setitem(pipeline.LEARNERS, "cox", cox._replace(fit=fit))
    refit_failed = outputs("refit_failed")
    assert sorted(refit_failed) == sorted(plain)
    report, plain_report = (json.loads(files.pop("report.json"))
                            for files in (refit_failed, plain))
    assert refit_failed == plain
    assert report["features"]["importance"] == {"method": None, "rows": []}
    assert plain_report["features"]["importance"]["method"] == "mean_abs_shapley"
    plain_report["features"]["importance"] = report["features"]["importance"]
    assert report == plain_report


def _demo_with_horizons(tmp_path, capsys, horizons):
    """Run the demo config with `horizons`; returns its report and the text of
    its auc_horizons.svg, after checking that every learner is ok."""
    demo = json.loads((DATA / "demo.json").read_text(encoding="utf-8"))
    demo.update(cohort_csv=str(DATA / "demo_cohort.csv"), out_dir=str(tmp_path / "out"),
                horizons=horizons)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(demo), encoding="utf-8")
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert sorted(report["models"]) == sorted(demo["enabled_models"])
    for name, model in report["models"].items():
        assert model["status"] == "ok", name
    return report, (tmp_path / "out" / "auc_horizons.svg").read_text(encoding="utf-8")


def _auc_vertices(svg):
    """Each series' path vertices in an AUC plot, as (x, y) pixels by learner."""
    return {name: [tuple(float(c) for c in v[1:].split(",")) for v in d.split()]
            for d, name in re.findall(r'<path d="([^"]*)"[^>]*data-series="([^"]*)"', svg)}


def _auc_plot(report, horizons):
    """The AUC plot of each learner's AUCs at `horizons`, in its palette colour."""
    names = sorted(report["models"])
    series = [Series(name, [float(h) for h in horizons],
                     [report["models"][name]["auc"][h] for h in horizons],
                     PALETTE[k % len(PALETTE)]) for k, name in enumerate(names)]
    return render_plot(series, "Time-dependent AUC", "horizon (months)", "AUC",
                       y_range=(0.4, 1.0))


def test_a_horizon_before_the_first_event_has_a_null_auc(tmp_path, capsys):
    report, svg = _demo_with_horizons(tmp_path, capsys, [0.1, 24])
    for name, model in report["models"].items():
        assert model["auc"]["0.1"] is None, name
        assert model["auc"]["24"] is not None, name
    # each learner is drawn at the one horizon where its AUC is defined
    assert {name: len(v) for name, v in _auc_vertices(svg).items()} == \
        {name: 1 for name in report["models"]}
    assert svg == _auc_plot(report, ["24"])


def test_a_null_auc_leaves_out_only_its_own_horizon(tmp_path, capsys):
    report, svg = _demo_with_horizons(tmp_path, capsys, [0.1, 12, 24])
    for name, model in report["models"].items():
        assert model["auc"]["0.1"] is None, name
        assert None not in (model["auc"]["12"], model["auc"]["24"]), name
    vertices = _auc_vertices(svg)
    assert sorted(vertices) == sorted(report["models"])
    for name, points in vertices.items():
        assert len(points) == 2 and points[0][0] < points[1][0], name
    assert svg == _auc_plot(report, ["12", "24"])


def test_a_huge_fold_count_fits_only_the_folds_that_exist(tmp_path):
    # 10**9 fold indices, of which at most n are dealt a subject
    cohort, path = _cohort_csv(tmp_path, n=40)
    config = PipelineConfig(cohort_csv=path, out_dir=str(tmp_path / "out"), cv_folds=10**9,
                            enabled_models=("cox",))
    report = run_pipeline(config)
    folds = pipeline.assign_folds(cohort.events, config.cv_folds, config.seed)
    events = int(cohort.events.sum())
    assert len(np.unique(folds)) == max(events, len(cohort) - events)
    assert len(report["provenance"]["fold_model_hashes"]) == len(np.unique(folds))


def test_a_rerun_that_draws_no_auc_removes_the_earlier_auc_plot(tmp_path):
    cohort, path = _cohort_csv(tmp_path)
    out = tmp_path / "out"

    def run(horizons):
        run_pipeline(PipelineConfig(cohort_csv=path, out_dir=str(out), cv_folds=3,
                                    enabled_models=("cox",), horizons=horizons))
        return sorted(p.name for p in out.iterdir())

    first = run((12.0, 24.0))
    assert "auc_horizons.svg" in first
    early = float(cohort.times.min()) / 2         # before the first event
    again = run((early,))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["models"]["cox"]["auc"] == {f"{early:g}": None}
    assert again == [name for name in first if name != "auc_horizons.svg"]


def test_the_decision_curve_states_its_shared_references_once(tmp_path):
    cohort, path = _cohort_csv(tmp_path)
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(cohort_csv=path, out_dir=str(out), cv_folds=3,
                                         enabled_models=("cox", "coxboost"),
                                         model_params={"coxboost": {"rounds": 20}}))
    curve = report["decision_curve"]
    assert curve["horizon"] == 24.0
    assert curve["thresholds"] == list(pipeline.DCA_THRESHOLDS)
    for name, model in report["models"].items():
        assert set(model) == {"status", "c_index", "auc", "brier", "calibration",
                              "net_benefit"}, name
        assert len(model["net_benefit"]) == len(curve["thresholds"]), name

    # treat all, textbook form (Vickers & Elkin 2006), over the subjects
    # whose status at the horizon is known
    h, times, events = curve["horizon"], cohort.times, cohort.events
    kept = (times > h) | (events == 1)
    prevalence = np.mean(events[kept] & (times[kept] <= h))
    for p, treat_all in zip(curve["thresholds"], curve["treat_all"]):
        assert abs(treat_all - (prevalence - (1 - prevalence) * p / (1 - p))) < 1e-12, p

    xs, chosen = curve["thresholds"], report["chosen_model"]
    assert (out / "dca.svg").read_text(encoding="utf-8") == render_plot([
        Series(chosen, xs, report["models"][chosen]["net_benefit"], PALETTE[0]),
        Series("treat all", xs, curve["treat_all"], "#999999", dashed=True),
        Series("treat none", xs, [0.0] * len(xs), "#333333", dashed=True),
    ], "Decision curve at 24 months", "threshold probability", "net benefit")
    assert "Calibration at 24 months" in (out / "calibration.svg").read_text(encoding="utf-8")
