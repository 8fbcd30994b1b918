import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recurrisk
from recurrisk import pipeline
from recurrisk.cli import main
from recurrisk.cohort import SyntheticSpec, generate_synthetic, write_cohort, write_csv
from recurrisk.metrics import c_index
from recurrisk.pipeline import PipelineConfig

from conftest import write_grids
from test_temporal import generate_longitudinal, write_longitudinal

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def scores_csv(tmp_path):
    cohort, true_scores = generate_synthetic(
        SyntheticSpec(n=60, true_coefficients=(1.0, -1.0), seed=4))
    lines = ["id,time,event,score"] + [
        f"{rid},{t!r},{e},{float(s)!r}"
        for rid, t, e, s in zip(cohort.ids, cohort.times.tolist(),
                                cohort.events.tolist(), true_scores)]
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, cohort, true_scores


def test_evaluate_writes_metrics(scores_csv, tmp_path):
    path, cohort, true_scores = scores_csv
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--scores", str(path), "--out", str(out), "--quiet"]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["n"] == 60
    assert result["c_index"] == c_index(cohort.times, cohort.events,
                                        np.asarray(true_scores)).c_index
    assert set(result["auc"]) == {"12", "24"}


def test_evaluate_without_out_prints_what_out_writes(scores_csv, tmp_path, capsys):
    path, _, _ = scores_csv
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--scores", str(path), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["evaluate", "--scores", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("column, cell", [("time", "soon"), ("event", "yes"),
                                          ("event", "2"), ("score", "high")])
def test_evaluate_bad_cell_exits_1(scores_csv, capsys, column, cell):
    path, _, _ = scores_csv
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index(column)] = cell
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["evaluate", "--scores", str(path), "--quiet"]) == 1
    assert f"row 3, column '{column}'" in capsys.readouterr().err


def test_evaluate_short_row_exits_1(scores_csv, capsys):
    path, _, _ = scores_csv
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["evaluate", "--scores", str(path), "--quiet"]) == 1
    assert "row 2, column '<row>'" in capsys.readouterr().err


SCIPY_PROBE = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"


def run_probe(code):
    """stdout of `code` run in a fresh interpreter that imports this checkout."""
    src = str(Path(recurrisk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.special alone doubles the start-up time and memory of a command;
    # the package needs numpy only
    assert run_probe(f"import sys, recurrisk.cli; {SCIPY_PROBE}").strip() == "[]"


def _full_run_config(tmp_path, n=40, models=("cox",)):
    """The path of a run config of `models`, cox alone by default, written
    next to an n-subject cohort CSV, a longitudinal CSV and a folder of voxel
    grids and region masks."""
    spec = SyntheticSpec(n=n, true_coefficients=(1.0, -1.0), seed=4)
    cohort, _ = generate_synthetic(spec)
    write_cohort(cohort, tmp_path / "cohort.csv")
    write_longitudinal(generate_longitudinal(spec), tmp_path / "longitudinal.csv")
    write_grids(tmp_path / "grids", cohort.ids, np.random.default_rng(5))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "enabled_models": list(models),
                                  "voxel_grid_dir": "grids",
                                  "longitudinal_csv": "longitudinal.csv",
                                  "temporal_params": {"epochs": 2}}), encoding="utf-8")
    return config


def test_run_with_grids_and_snapshots_loads_no_scipy(tmp_path):
    config = _full_run_config(tmp_path)
    out = run_probe("import sys; from recurrisk.cli import main; "
                    f"assert main(['run', '--config', {str(config)!r}, '--quiet']) == 0; "
                    + SCIPY_PROBE)
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["temporal"]["status"] == "ok"
    screened = {row["feature"] for row in report["features"]["screen"]}
    assert "radiomics_glszm_zone_variance" in screened
    assert out.strip() == "[]"


def _true_score_evaluation(tmp):
    """An evaluate of a 60-subject cohort's true scores, writing its metrics to a file."""
    cohort, true_scores = generate_synthetic(
        SyntheticSpec(n=60, true_coefficients=(1.0, -1.0), seed=4))
    write_csv(tmp / "scores.csv", ["id", "time", "event", "score"],
              cohort.ids, cohort.times, cohort.events, true_scores)
    return ["evaluate", "--scores", str(tmp / "scores.csv"), "--out", str(tmp / "metrics.json")]


@pytest.mark.parametrize("make_args", [
    lambda tmp: ["run", "--config", str(DATA / "demo.json"), "--out", str(tmp / "out")],
    lambda tmp: ["run", "--config", str(_full_run_config(tmp, n=60, models=("xgboost", "cox")))],
    lambda tmp: _simulate_args(tmp, {"n": 3000, "true_coefficients": [1.0, -0.5]}),
    lambda tmp: _extract_args(tmp),
    lambda tmp: _true_score_evaluation(tmp),
], ids=["demo", "grids-and-snapshots", "simulate", "extract-features", "evaluate"])
def test_no_command_imports_numpy_ma(tmp_path, make_args):
    # np.median, np.quantile and a flagless np.unique import numpy.ma, about
    # 1.3 MB that nothing reads; the package spells those three out instead
    args = [*make_args(tmp_path), "--quiet"]
    out = run_probe(f"import sys; from recurrisk.cli import main; assert main({args!r}) == 0; "
                    "print('numpy.ma' in sys.modules)")
    assert out.strip() == "False"


BASE_CONFIG = {"cohort_csv": "cohort.csv", "out_dir": "out", "cv_folds": 2,
               "enabled_models": ["xgboost", "cox"]}


@pytest.mark.parametrize("text, message", [
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"round": 5}}}),
     "model_params for xgboost: unknown key(s) ['round']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"tie": "breslow"}}}),
     "model_params for cox: unknown key(s) ['tie']"),
    ('{"cohort_csv": "cohort.csv",', "Expecting property name"),
    (json.dumps({"out_dir": "out"}), "missing field 'cohort_csv'"),
    (json.dumps({**BASE_CONFIG, "alpha": "five percent"}),
     "alpha='five percent' does not match the type of its default 0.05"),
    (json.dumps({**BASE_CONFIG, "enabled_models": "cox"}), "enabled_models='cox' does not match"),
    (None, "No such file"),
    (json.dumps({**BASE_CONFIG, "model_params": {"gbm": {"mode": "xgboost"}}}),
     "model_params for gbm: unknown key(s) ['mode']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"seed": 3}}}),
     "model_params for rsf: unknown key(s) ['seed']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"rounds": "5"}}}),
     "model_params for xgboost: rounds='5' does not match the type of its default 150"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"n_trees": 2.5}}}),
     "model_params for rsf: n_trees=2.5 does not match"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"max_iter": True}}}),
     "model_params for cox: max_iter=True does not match"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"epoch": 5}}),
     "temporal_params: unknown key(s) ['epoch']"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"hidden": "x"}}),
     "temporal_params: hidden='x' does not match"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"min_leaf": 0}}}),
     "model_params for xgboost: min_leaf must be >= 1"),
    (json.dumps({"cohort_csv": "cohort.csv", "out_dir": "out", "enabled_model": ["cox"],
                 "cv_fold": 3}), "unknown key(s) ['cv_fold', 'enabled_model']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"max_iter": 0}}}),
     "model_params for cox: max_iter must be >= 1"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"ridge": float("nan")}}}),
     "model_params for cox: ridge must be >= 0 and finite, got nan"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"ridge": float("inf")}}}),
     "model_params for cox: ridge must be >= 0 and finite, got inf"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"tol": float("inf")}}}),
     "model_params for cox: tol must be > 0 and finite, got inf"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"ties": "exact"}}}),
     "model_params for cox: ties must be 'breslow' or 'efron'"),
    (json.dumps({**BASE_CONFIG, "cv_folds": 5.9}),
     "cv_folds=5.9 does not match the type of its default 5"),
    (json.dumps({**BASE_CONFIG, "seed": True}), "seed=True does not match the type of its default 0"),
    (json.dumps({**BASE_CONFIG, "seed": -1}), "seed must be >= 0, got -1"),
    (json.dumps({**BASE_CONFIG, "alpha": "0.05"}),
     "alpha='0.05' does not match the type of its default 0.05"),
    (json.dumps({**BASE_CONFIG, "horizons": ["12", 24]}),
     "horizons=['12', 24] does not match the type of its default (12.0, 24.0)"),
    (json.dumps({**BASE_CONFIG, "id_column": 3}),
     "id_column=3 does not match the type of its default 'id'"),
    (json.dumps({**BASE_CONFIG, "voxel_grid_dir": 3}),
     "voxel_grid_dir=3 does not match its type str | None"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": 5}}),
     "model_params for cox: expected an object, got 5"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"pe_dim": 3}}),
     "temporal_params: pe_dim must be even and >= 2, got 3"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"hidden": 0}}),
     "temporal_params: hidden must be >= 1"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"learning_rate": 0}}),
     "temporal_params: learning_rate must be > 0"),
    (json.dumps({**BASE_CONFIG, "temporal_params": {"epochs": 0}}),
     "temporal_params: epochs must be >= 1"),
    (json.dumps({**BASE_CONFIG, "model_params": {"coxboost": {"tree_depth": 9}}}),
     "model_params for coxboost: unknown key(s) ['tree_depth']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"coxboost": {"min_leaf": 50}}}),
     "model_params for coxboost: unknown key(s) ['min_leaf']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"coxboost": {"l2_lambda": 100}}}),
     "model_params for coxboost: unknown key(s) ['l2_lambda']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"gbm": {"l2_lambda": 100}}}),
     "model_params for gbm: unknown key(s) ['l2_lambda']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"gbm": {"row_subsample": 0.5}}}),
     "model_params for gbm: unknown key(s) ['row_subsample']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"l2_lambda": 0}}}),
     "model_params for xgboost: l2_lambda must be > 0"),
    (json.dumps({**BASE_CONFIG, "alpha": 2.0}), "alpha must be in (0, 1], got 2.0"),
    (json.dumps({**BASE_CONFIG, "vif_threshold": -1}), "vif_threshold must be >= 1, got -1.0"),
    (json.dumps({**BASE_CONFIG, "radiomics_levels": 1}), "radiomics_levels must be >= 2, got 1"),
    (json.dumps({**BASE_CONFIG, "enabled_models": ["cox", "cox"]}),
     "enabled_models repeats a model: ['cox', 'cox']"),
    (json.dumps({**BASE_CONFIG, "horizons": [12, 12]}),
     "horizons must be positive and strictly ascending"),
    (json.dumps({**BASE_CONFIG, "enabled_models": []}), "enabled_models names no model"),
    (json.dumps({**BASE_CONFIG, "time_column": "event"}),
     "the id, time and event columns must differ, got 'id', 'event' and 'event'"),
    (json.dumps({**BASE_CONFIG, "enabled_models": ["coxboost"],
                 "model_params": {"coxboost": {"rounds": 0}}}), "all risk scores identical"),
    (json.dumps({**BASE_CONFIG, "cv_folds": 1}), "cv_folds must be >= 2"),
    (json.dumps({**BASE_CONFIG, "enabled_models": ["cox", "lasso"]}), "unknown models: ['lasso']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"lasso": {}}}),
     "model_params names an unknown model 'lasso'"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"n_trees": 0}}}),
     "model_params for rsf: n_trees must be >= 1"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"mtry": 0}}}),
     "model_params for rsf: mtry must be >= 1"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"min_node_events": 0}}}),
     "model_params for rsf: min_node_events must be >= 1"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"max_depth": -1}}}),
     "model_params for rsf: max_depth must be >= 0"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"rounds": -1}}}),
     "model_params for xgboost: rounds must be >= 0"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"learning_rate": 0}}}),
     "model_params for xgboost: learning_rate must be in (0, 1]"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"learning_rate": 1.5}}}),
     "model_params for xgboost: learning_rate must be in (0, 1]"),
    (json.dumps({**BASE_CONFIG, "model_params": {"gbm": {"tree_depth": 0}}}),
     "model_params for gbm: tree_depth must be >= 1"),
], ids=["unknown-boost-key", "unknown-cox-key", "malformed-json", "no-cohort-csv",
        "non-numeric-alpha", "models-as-string", "missing-file", "boost-mode",
        "rsf-seed", "string-rounds", "float-n-trees", "bool-max-iter",
        "unknown-temporal-key", "string-hidden", "zero-min-leaf", "unknown-top-level-key",
        "zero-cox-max-iter", "nan-cox-ridge", "infinite-cox-ridge", "infinite-cox-tol",
        "cox-ties", "float-cv-folds", "bool-seed", "negative-seed",
        "string-alpha", "string-horizon", "int-id-column", "int-grid-dir",
        "cox-entry-not-object", "odd-pe-dim", "zero-hidden", "zero-temporal-rate", "zero-epochs",
        "coxboost-tree-depth", "coxboost-min-leaf", "coxboost-l2-lambda", "gbm-l2-lambda",
        "gbm-row-subsample", "zero-xgboost-l2-lambda",
        "alpha-above-one", "vif-threshold-below-one", "one-radiomics-level", "repeated-model", "repeated-horizon",
        "no-models", "time-column-is-event-column", "coxboost-zero-rounds", "one-cv-fold",
        "unknown-model", "params-for-unknown-model", "zero-rsf-n-trees", "zero-rsf-mtry",
        "zero-rsf-min-node-events", "negative-rsf-max-depth", "negative-xgboost-rounds",
        "zero-xgboost-learning-rate", "xgboost-learning-rate-above-one", "zero-gbm-tree-depth"])
def test_bad_run_config_exits_1(tmp_path, capsys, text, message):
    cohort, _ = generate_synthetic(SyntheticSpec(n=60, true_coefficients=(1.0, -1.0), seed=4))
    write_cohort(cohort, tmp_path / "cohort.csv")
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_types_follow_the_defaults():
    # an int may stand for a float and fill a None default; null keeps None
    config = PipelineConfig(cohort_csv="cohort.csv", model_params={
        "xgboost": {"learning_rate": 1, "l2_lambda": 2},
        "rsf": {"mtry": 2, "max_depth": None}, "cox": {"ridge": 0, "ties": "breslow"}},
        temporal_params={"learning_rate": 1, "epochs": 3})
    assert config.model_params["rsf"]["mtry"] == 2


def test_canonical_json_is_pinned():
    # the provenance hash of every committed report depends on this string
    config = PipelineConfig(cohort_csv="data/cohort.csv", out_dir="elsewhere",
                            longitudinal_csv="data/longitudinal.csv", id_column="pid",
                            alpha=0.01, vif_threshold=10.0, cv_folds=3, horizons=(6, 12.5),
                            seed=11, enabled_models=("cox", "rsf"),
                            model_params={"rsf": {"n_trees": 5, "max_depth": None},
                                          "cox": {"ties": "breslow"}},
                            radiomics_levels=16, temporal_params={"epochs": 3})
    assert config.canonical_json() == (
        '{"alpha":0.01,"cohort_csv":"data/cohort.csv","cv_folds":3,'
        '"enabled_models":["cox","rsf"],"event_column":"event","horizons":[6.0,12.5],'
        '"id_column":"pid","longitudinal_csv":"data/longitudinal.csv",'
        '"model_params":{"cox":{"ties":"breslow"},"rsf":{"max_depth":null,"n_trees":5}},'
        '"radiomics_levels":16,"seed":11,"temporal_params":{"epochs":3},'
        '"time_column":"time","vif_threshold":10.0,"voxel_grid_dir":null}')


def test_config_paths_resolve_next_to_the_config_file(tmp_path):
    folder = tmp_path / "study"
    folder.mkdir()
    path = folder / "config.json"
    path.write_text(json.dumps({"cohort_csv": "cohort.csv", "voxel_grid_dir": "grids",
                                "alpha": 1, "horizons": [12, 24]}), encoding="utf-8")
    config = PipelineConfig.from_json_file(path)
    assert config.out_dir == str(folder / "out")
    assert config.cohort_csv == str(folder / "cohort.csv")
    assert config.voxel_grid_dir == str(folder / "grids")
    assert config.longitudinal_csv is None
    # an int stands for a float and is hashed as one
    assert config.alpha == 1.0 and type(config.alpha) is float
    assert '"alpha":1.0' in config.canonical_json()


def test_evaluate_bad_horizon_exits_1(scores_csv, capsys):
    path, _, _ = scores_csv
    assert main(["evaluate", "--scores", str(path), "--horizons", "12,x", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--horizons" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("horizons, message", [pytest.param(h, message, id=h) for h, message in [
    *((h, "horizons must be positive and strictly ascending finite numbers, got {values}")
      for h in ["12,12", "-5", "inf", "24,12", "nan", "12,inf"]),
    # "{h:g}" keys each horizon's report entry, so these two would share the key "12"
    ("6,12.0000001,12.0000002", "horizons 12.0000001 and 12.0000002 share the report key '12'"),
    ("1e6,1000001", "horizons 1000000.0 and 1000001.0 share the report key '1e+06'"),
]])
def test_run_and_evaluate_reject_the_same_horizons(scores_csv, tmp_path, capsys, horizons,
                                                   message):
    path, _, _ = scores_csv
    values = [float(h) for h in horizons.split(",")]
    message = message.format(values=values)
    assert main(["evaluate", "--scores", str(path), f"--horizons={horizons}", "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert main([*_run_args(tmp_path, horizons=values), "--quiet"]) == 1
    assert message in capsys.readouterr().err


def _grids(tmp_path, sid="s0", dims="2 2 2", values="1 2 3 4 5 6 7 8",
           mask_values="1 1 1 1 0 0 0 0"):
    grids = tmp_path / "grids"
    grids.mkdir(exist_ok=True)
    (grids / f"{sid}_grid.txt").write_text(f"dims {dims}\nspacing 1 1 1\n{values}\n",
                                           encoding="utf-8")
    (grids / f"{sid}_mask.txt").write_text(f"dims 2 2 2\nspacing 1 1 1\n{mask_values}\n",
                                           encoding="utf-8")
    return grids


def _extract_args(tmp_path, mask=True, **grid):
    grids = _grids(tmp_path, **grid)
    if not mask:
        (grids / "s0_mask.txt").unlink()
    return ["extract-features", "--grids", str(grids), "--out", str(tmp_path / "features.csv")]


def _run_args(tmp_path, grid=None, bad_subject=0, **config):
    """A run of a 60-subject cohort; with `grid`, its subjects before
    `bad_subject` get a good grid, that subject the `grid` and the rest none."""
    cohort, _ = generate_synthetic(SyntheticSpec(n=60, true_coefficients=(1.0, -1.0), seed=4))
    write_cohort(cohort, tmp_path / "cohort.csv")
    if grid is not None:
        for sid in cohort.ids[:bad_subject]:
            _grids(tmp_path, sid=sid)
        config["voxel_grid_dir"] = str(_grids(tmp_path, sid=cohort.ids[bad_subject], **grid))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, **config}), encoding="utf-8")
    return ["run", "--config", str(path)]


def _simulate_args(tmp_path, spec):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec), encoding="utf-8")
    return ["simulate", "--spec", str(path), "--out", str(tmp_path / "cohort.csv")]


def _evaluate_args(tmp_path, text):
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    return ["evaluate", "--scores", str(path)]


@pytest.mark.parametrize("make_args, message", [
    (lambda tmp: _extract_args(tmp, dims="2 2 x"), "row 1, column 'dims'"),
    (lambda tmp: _extract_args(tmp, values="1 2 3 oops 5 6 7 8"), "row 3, column 'values'"),
    (lambda tmp: _run_args(tmp, grid={"values": "1 2 3 oops 5 6 7 8"}),
     "row 3, column 'values'"),
    (lambda tmp: _run_args(tmp, grid={"values": "1 2 3 oops 5 6 7 8"}, bad_subject=1),
     "row 3, column 'values'"),
    (lambda tmp: _extract_args(tmp, values="1 2 nan 4 5 6 7 8"),
     "s0_grid.txt: non-finite value: 'nan'"),
    (lambda tmp: _run_args(tmp, grid={"values": "1 inf 3 4 5 6 7 8"}),
     "_grid.txt: non-finite value: 'inf'"),
    (lambda tmp: _simulate_args(tmp, None), "No such file"),
    (lambda tmp: _simulate_args(tmp, {"n": 50}), "missing field 'true_coefficients'"),
    (lambda tmp: _simulate_args(tmp, {"n": 40, "true_coefficients": [1.0],
                                      "censoring_rate": 0.9}),
     "unknown key(s) ['censoring_rate']"),
    (lambda tmp: _simulate_args(tmp, {"n": 40, "true_coefficients": [1.0],
                                      "nonlinear": "false"}),
     "nonlinear='false' does not match the type of its default False"),
    (lambda tmp: _simulate_args(tmp, {"n": 40.7, "true_coefficients": [1.0]}),
     "n=40.7 does not match its type int"),
    (lambda tmp: _simulate_args(tmp, {"n": 40, "true_coefficients": [1.0], "seed": -3}),
     "seed must be >= 0, got -3"),
    (lambda tmp: _simulate_args(tmp, {"n": 40, "true_coefficients": []}),
     "need at least one coefficient"),
    (lambda tmp: _evaluate_args(tmp, "id,time,event,score\na,5.0,1,0.2\nb,0,0,0.1\n"),
     "row 2, column 'time': time must be positive"),
    (lambda tmp: _evaluate_args(tmp, "id,time,event,score,time\na,5.0,1,0.2,7.0\n"
                                     "b,4.0,0,0.1,2.0\n"),
     "scores.csv: header repeats column 'time'"),
    (lambda tmp: _evaluate_args(tmp, "id,time,event,score\n,5.0,1,0.2\nb,4.0,0,0.1\n"),
     "row 1, column 'id': missing subject id"),
    (lambda tmp: _run_args(tmp, cohort_csv="absent.csv"), "absent.csv: [Errno 2] No such file"),
    (lambda tmp: _run_args(tmp, longitudinal_csv="absent_longitudinal.csv"),
     "absent_longitudinal.csv: [Errno 2] No such file"),
    (lambda tmp: ["evaluate", "--scores", str(tmp / "nope.csv")],
     "nope.csv: [Errno 2] No such file"),
    (lambda tmp: _extract_args(tmp, mask=False), "s0_mask.txt: [Errno 2] No such file"),
    (lambda tmp: _extract_args(tmp, mask_values="0 0 0 0 0 0 0 0"),
     "mask has no occupied voxels"),
    (lambda tmp: _extract_args(tmp, mask_values="1 1 1 1 0 0 0 2"), "mask values must be 0 or 1"),
    (lambda tmp: _extract_args(tmp, mask_values="1 1 1 1 0 0 0.5 0"),
     "mask values must be 0 or 1"),
    (lambda tmp: ["extract-features", "--grids", str(tmp), "--out", str(tmp / "features.csv")],
     "error: no *_grid.txt files in"),
], ids=["grid-dims", "grid-value", "run-grid-value", "run-second-grid-value", "grid-nan", "run-grid-inf",
        "missing-spec", "spec-no-coefficients",
        "spec-unknown-key", "spec-string-bool", "spec-float-n", "spec-negative-seed",
        "spec-empty-coefficients", "evaluate-zero-time", "evaluate-repeated-time",
        "evaluate-blank-id",
        "run-missing-cohort", "run-missing-longitudinal",
        "evaluate-missing-scores", "extract-missing-mask", "extract-empty-mask", "extract-mask-value-2",
        "extract-mask-value-half", "extract-no-grids"])
def test_malformed_input_file_exits_1(tmp_path, capsys, monkeypatch, make_args, message):
    args = [*make_args(tmp_path), "--quiet"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    # with one CPU no worker runs, and the message is the same
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(args) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("make_args, message", [
    (lambda tmp: [*_extract_args(tmp), "--levels", "10000000"],
     "need at most 1024 gray levels, got 10000000"),
    (lambda tmp: _run_args(tmp, radiomics_levels=10_000_000),
     "radiomics_levels must be <= 1024, got 10000000"),
    (lambda tmp: _run_args(tmp, temporal_params={"hidden": 10 ** 12}),
     "temporal_params: hidden must be <= 1024, got 1000000000000"),
    (lambda tmp: _run_args(tmp, temporal_params={"pe_dim": 10 ** 12}),
     "temporal_params: pe_dim must be <= 1024, got 1000000000000"),
    (lambda tmp: _simulate_args(tmp, {"n": 10 ** 12, "true_coefficients": [1.0]}),
     "n must be <= 1000000, got 1000000000000"),
], ids=["extract-levels", "run-radiomics-levels", "temporal-hidden", "temporal-pe-dim",
        "simulate-n"])
def test_a_size_setting_above_its_maximum_exits_1(tmp_path, capsys, make_args, message):
    # each would otherwise ask numpy for terabytes: levels^2 GLCM cells, a
    # weight block of width^2 or pe_dim x hidden cells, or n x d draws
    assert main([*make_args(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _extract_with_grid(tmp, text):
    """extract-features over one subject whose grid file holds `text`."""
    args = _extract_args(tmp)
    (tmp / "grids" / "s0_grid.txt").write_text(text, encoding="utf-8")
    return args


def _run_with_cohort(tmp, text):
    """A run whose cohort file holds `text`."""
    args = _run_args(tmp)
    (tmp / "cohort.csv").write_text(text, encoding="utf-8")
    return args


@pytest.mark.parametrize("make_args, line", [
    (lambda tmp: _extract_args(tmp, mask_values="0 0 0 0 0 0 0 0"),
     "mask has no occupied voxels"),
    (lambda tmp: _extract_with_grid(tmp, "size 2 2 2\nspacing 1 1 1\n1 2 3 4 5 6 7 8\n"),
     "row 1, column 'dims': {tmp}/grids/s0_grid.txt: first line must be 'dims nx ny nz'"),
    (lambda tmp: _extract_with_grid(tmp, "dims 2 2 2\nspace 1 1 1\n1 2 3 4 5 6 7 8\n"),
     "row 2, column 'spacing': {tmp}/grids/s0_grid.txt: "
     "second line must be 'spacing sx sy sz'"),
    (lambda tmp: _extract_with_grid(tmp, "dims 2 2 2\nspacing 1 1 1\n"),
     "row 1, column 'header': {tmp}/grids/s0_grid.txt: expected header plus data"),
    (lambda tmp: _evaluate_args(tmp, "id,time,event,score,age\na,5.0,1,0.2,3\nb,4.0,0,0.1,4\n"),
     "{tmp}/scores.csv needs exactly the columns id,time,event,score"),
    (lambda tmp: _run_with_cohort(tmp, "id,time,event\na,5.0,1\nb,4.0,0\n"),
     "{tmp}/cohort.csv: needs at least one feature column"),
    (lambda tmp: _run_with_cohort(tmp, "id,time,event,x\na,5.0,1,inf\nb,4.0,0,0.5\n"),
     "row 1, column 'x': non-finite value: 'inf'"),
    (lambda tmp: [*_evaluate_args(tmp, "id,time,event,score\na,5.0,1,0.2\nb,4.0,0,0.1\n"),
                  "--horizons", "12.0000001,12.0000002"],
     "horizons 12.0000001 and 12.0000002 share the report key '12'"),
    (lambda tmp: _simulate_args(tmp, {"n": 50, "true_coefficients": [1e308]}),
     "event times must be finite and positive, but 50 of 50 drawn under this spec are not"),
    (lambda tmp: _simulate_args(tmp, {"n": 50, "true_coefficients": [1.0],
                                      "weibull_scale": 1e308}),
     "event times must be finite and positive, but 7 of 50 drawn under this spec are not"),
    (lambda tmp: _simulate_args(tmp, {"n": 50, "true_coefficients": [1.0],
                                      "weibull_shape": float("inf")}),
     "Weibull shape and scale must be positive and finite"),
    (lambda tmp: _simulate_args(tmp, {"n": 50, "true_coefficients": [float("nan"), 1.0]}),
     "true_coefficients must be finite, got [nan, 1.0]"),
], ids=["extract-empty-mask", "grid-first-line", "grid-second-line", "grid-no-data",
        "evaluate-extra-column", "run-no-feature-column", "run-infinite-cell",
        "evaluate-horizon-keys-collide", "simulate-coefficient-overflows-times",
        "simulate-scale-overflows-times", "simulate-infinite-shape",
        "simulate-nan-coefficient"])
def test_a_rejected_input_prints_one_exact_error_line(tmp_path, capsys, make_args, line):
    assert main([*make_args(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {line.format(tmp=tmp_path)}\n"


def _regular_file(tmp):
    path = tmp / "afile"
    path.write_text("not a directory\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("make_args", [
    lambda tmp, scores: [*_extract_args(tmp), "--out", str(_regular_file(tmp) / "x.csv")],
    lambda tmp, scores: [*_simulate_args(tmp, {"n": 40, "true_coefficients": [1.0]}),
                         "--out", str(_regular_file(tmp) / "sim.csv")],
    lambda tmp, scores: [*_run_args(tmp), "--out", str(_regular_file(tmp))],
    lambda tmp, scores: ["evaluate", "--scores", str(scores), "--out",
                         str(tmp / "nodir" / "x.json")],
], ids=["extract-features", "simulate", "run", "evaluate"])
def test_a_failed_output_write_exits_1(scores_csv, tmp_path, capsys, make_args):
    assert main([*make_args(tmp_path, scores_csv[0]), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_an_out_that_names_a_regular_file_fails_before_any_fold_is_fit(
        tmp_path, capsys, monkeypatch):
    fits = []
    fit_fold_models = pipeline.fit_fold_models
    monkeypatch.setattr(pipeline, "fit_fold_models",
                        lambda *args: fits.append(args[2]) or fit_fold_models(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # every fit in this process
    out = _regular_file(tmp_path)
    assert main([*_run_args(tmp_path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
    assert fits == []


def test_a_failed_run_keeps_an_out_folder_that_was_there(tmp_path, capsys):
    # a run that fails after making its folder removes it (see
    # test_bad_run_config_exits_1), but never a folder it did not make
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("mine\n", encoding="utf-8")
    args = _run_args(tmp_path, enabled_models=["coxboost"],
                     model_params={"coxboost": {"rounds": 0}})
    assert main([*args, "--out", str(out), "--quiet"]) == 1
    assert "all risk scores identical" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_a_negative_seed_override_exits_1(tmp_path, capsys):
    assert main([*_run_args(tmp_path), "--seed", "-1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_a_negative_simulate_seed_override_exits_1(tmp_path, capsys):
    args = _simulate_args(tmp_path, {"n": 40, "true_coefficients": [1.0]})
    assert main([*args, "--seed", "-1", "--quiet"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "cohort.csv").exists()


def test_a_screen_that_keeps_no_feature_exits_1(tmp_path, capsys):
    assert main([*_run_args(tmp_path, alpha=1e-300), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: screening: zero features survived the p-value screen\n")


BOM_COMMANDS = {
    "run": lambda tmp, out: ["run", "--config", str(tmp / "config.json"), "--out", str(out)],
    "simulate": lambda tmp, out: ["simulate", "--spec", str(tmp / "spec.json"),
                                  "--out", str(out / "cohort.csv"),
                                  "--scores-out", str(out / "true_scores.csv")],
    "evaluate": lambda tmp, out: ["evaluate", "--scores", str(tmp / "scores.csv"),
                                  "--out", str(out / "metrics.json")],
}


@pytest.mark.parametrize("command, pattern", [
    ("run", "config.json"), ("run", "cohort.csv"), ("run", "longitudinal.csv"),
    ("run", "grids/*_grid.txt"), ("run", "grids/*_mask.txt"),
    ("simulate", "spec.json"), ("evaluate", "scores.csv"),
], ids=["run-config", "run-cohort", "run-longitudinal", "run-grid", "run-mask",
        "simulate-spec", "evaluate-scores"])
def test_every_input_kind_reads_the_same_with_a_byte_order_mark(scores_csv, tmp_path,
                                                                command, pattern):
    # spreadsheets save "CSV UTF-8" with a leading byte-order mark
    _full_run_config(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"n": 50, "true_coefficients": [1.0, -0.5]}),
                                        encoding="utf-8")

    def outputs(name):
        out = tmp_path / name
        out.mkdir()
        assert main([*BOM_COMMANDS[command](tmp_path, out), "--quiet"]) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    plain = outputs("plain")
    marked = list(tmp_path.glob(pattern))
    assert marked
    for path in marked:
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert outputs("bom") == plain


def test_unknown_command_exits_2_with_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--model", "model.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'explain'" in capsys.readouterr().err
