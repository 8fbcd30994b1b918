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
], ids=["unknown-boost-key", "unknown-cox-key", "malformed-json", "no-cohort-csv",
        "non-numeric-alpha", "models-as-string", "missing-file", "boost-mode",
        "rsf-seed", "string-rounds", "float-n-trees", "bool-max-iter",
        "unknown-temporal-key", "string-hidden", "zero-min-leaf"])
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
