import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recurrisk
from recurrisk.cli import main
from recurrisk.cohort import SyntheticSpec, generate_synthetic, write_cohort
from recurrisk.metrics import c_index
from recurrisk.pipeline import PipelineConfig


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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats alone costs about a second of every start; the p-values
    # come from scipy.special, and radiomics loads scipy.ndimage on first use
    src = str(Path(recurrisk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, recurrisk.cli; "
             "print([m for m in ('scipy.stats', 'scipy.ndimage') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


BASE_CONFIG = {"cohort_csv": "cohort.csv", "out_dir": "out", "cv_folds": 2,
               "enabled_models": ["xgboost", "cox"]}


@pytest.mark.parametrize("text, message", [
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"round": 5}}}),
     "model_params for xgboost: unknown key(s) ['round']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"tie": "breslow"}}}),
     "model_params for cox: unknown key(s) ['tie']"),
    ('{"cohort_csv": "cohort.csv",', "Expecting property name"),
    (json.dumps({"out_dir": "out"}), "missing field 'cohort_csv'"),
    (json.dumps({**BASE_CONFIG, "alpha": "five percent"}), "to float: 'five percent'"),
    (json.dumps({**BASE_CONFIG, "enabled_models": "cox"}), "expected a list, got 'cox'"),
    (None, "No such file"),
    (json.dumps({**BASE_CONFIG, "model_params": {"gbm": {"mode": "xgboost"}}}),
     "model_params for gbm: unknown key(s) ['mode']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"rsf": {"seed": 3}}}),
     "model_params for rsf: unknown key(s) ['seed']"),
    (json.dumps({**BASE_CONFIG, "model_params": {"xgboost": {"rounds": "5"}}}),
     "model_params for xgboost: rounds='5' does not match the type of its default 100"),
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
    (json.dumps({**BASE_CONFIG, "model_params": {"cox": {"ties": "exact"}}}),
     "model_params for cox: ties must be 'breslow' or 'efron'"),
], ids=["unknown-boost-key", "unknown-cox-key", "malformed-json", "no-cohort-csv",
        "non-numeric-alpha", "models-as-string", "missing-file", "boost-mode",
        "rsf-seed", "string-rounds", "float-n-trees", "bool-max-iter",
        "unknown-temporal-key", "string-hidden", "zero-min-leaf", "unknown-top-level-key",
        "zero-cox-max-iter", "cox-ties"])
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
        "xgboost": {"learning_rate": 1, "l2_lambda": 0},
        "rsf": {"mtry": 2, "max_depth": None}, "cox": {"ridge": 0, "ties": "breslow"}},
        temporal_params={"learning_rate": 1, "epochs": 3})
    assert config.model_params["rsf"]["mtry"] == 2


def test_evaluate_bad_horizon_exits_1(scores_csv, capsys):
    path, _, _ = scores_csv
    assert main(["evaluate", "--scores", str(path), "--horizons", "12,x", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--horizons" in err
    assert "Traceback" not in err


def _grids(tmp_path, sid="s0", dims="2 2 2", values="1 2 3 4 5 6 7 8"):
    grids = tmp_path / "grids"
    grids.mkdir()
    (grids / f"{sid}_grid.txt").write_text(f"dims {dims}\nspacing 1 1 1\n{values}\n",
                                           encoding="utf-8")
    (grids / f"{sid}_mask.txt").write_text("dims 2 2 2\nspacing 1 1 1\n1 1 1 1 0 0 0 0\n",
                                           encoding="utf-8")
    return grids


def _extract_args(tmp_path, **grid):
    return ["extract-features", "--grids", str(_grids(tmp_path, **grid)),
            "--out", str(tmp_path / "features.csv")]


def _run_with_grids_args(tmp_path, **grid):
    cohort, _ = generate_synthetic(SyntheticSpec(n=60, true_coefficients=(1.0, -1.0), seed=4))
    write_cohort(cohort, tmp_path / "cohort.csv")
    grids = _grids(tmp_path, sid=cohort.ids[0], **grid)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "voxel_grid_dir": str(grids)}),
                      encoding="utf-8")
    return ["run", "--config", str(config)]


def _simulate_args(tmp_path, spec):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec), encoding="utf-8")
    return ["simulate", "--spec", str(path), "--out", str(tmp_path / "cohort.csv")]


def _explain_args(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    return ["explain", "--model", str(path), "--cohort", str(tmp_path / "cohort.csv"),
            "--out", str(tmp_path / "importance.csv")]


@pytest.mark.parametrize("make_args, message", [
    (lambda tmp: _extract_args(tmp, dims="2 2 x"), "row 1, column 'dims'"),
    (lambda tmp: _extract_args(tmp, values="1 2 3 oops 5 6 7 8"), "row 3, column 'values'"),
    (lambda tmp: _run_with_grids_args(tmp, values="1 2 3 oops 5 6 7 8"),
     "row 3, column 'values'"),
    (lambda tmp: _simulate_args(tmp, None), "No such file"),
    (lambda tmp: _simulate_args(tmp, {"n": 50}), "missing field 'true_coefficients'"),
    (lambda tmp: _explain_args(tmp, {"model": "boosted_cox", "mode": "gbm"}),
     "missing field 'learners'"),
], ids=["grid-dims", "grid-value", "run-grid-value", "missing-spec", "spec-no-coefficients",
        "model-no-learners"])
def test_malformed_input_file_exits_1(tmp_path, capsys, make_args, message):
    assert main([*make_args(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
