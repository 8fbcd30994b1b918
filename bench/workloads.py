"""Input generators for the three benchmark workloads.

Every generator is plain numpy and writes files the program reads through
its public formats (cohort CSV, voxel-grid text files, longitudinal CSV, a
pipeline config JSON). None of them calls into `recurrisk`, so a change to
`recurrisk.cohort.generate_synthetic` or `temporal.generate_longitudinal`
cannot change what the benchmark feeds the program. Each generator also
returns the true linear predictor, which the output check uses as the
ground-truth ranking.

Why these workloads:
  demo        the committed data/demo.json unchanged. Learner-bound: RSF
              and tree boosting dominate; cohort and metrics work is small.
  cohort10k   a 10,000-subject Weibull-PH cohort from the demo population,
              fit with cox + coxboost. Scale-bound: Cox Newton fits, cohort
              copies, Breslow, O(n*E) AUC loops and Shapley over 10k rows.
              No tree learner, so RSF work predicts no change here.
  multimodal  300 subjects with 24 clinical columns, a voxel grid and mask
              each, and longitudinal snapshots; xgboost + cox with the
              temporal lane. The only workload running radiomics, temporal
              and real VIF collinearity.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

WORKLOADS = ("demo", "cohort10k", "multimodal")

DEMO_WEIGHTS = (0.9, -0.8, 0.7, -0.5, 0.0, 0.0)
DEMO_FEATURES = ("tumor_size", "mgmt_methylation", "glcm_entropy",
                 "sphericity", "age", "adc_mean")

# The workload seed does not reach the inputs. demo is the committed file;
# cohort10k and multimodal are drawn under the demo generator seed and fit
# under the demo config seed; no other fixed seed was tried.
# Seed-varied draws were tried and spread too far for any bound: at this
# commit the count of stalled univariate Cox fits in cohort10k (each ~10 s
# at n=8000) moves with the draw and the fold split (0 to 5 stalls over 8
# draws, run_s 9 to 78 s), and multimodal's mean out-of-fold Brier moved
# by 27% of its median over 5 draws.
POPULATION_SEED = 20240521
CONFIG_SEED = 7
COHORT10K_N = 10_000

MULTIMODAL_N = 300
MULTIMODAL_CLINICAL = 24
MULTIMODAL_INFORMATIVE = 16
# eight graded clinical effects and eight weak ones, so the screen keeps
# about a dozen features in all and importance stays on exact Shapley
INFORMATIVE_WEIGHTS = (0.6, -0.55, 0.5, -0.45, 0.4, -0.35, 0.3, -0.3) + (0.05, -0.05) * 4
GRID_SIZE = 16
LONGITUDINAL_WIDTH = 6
MAX_SNAPSHOTS = 4
SNAPSHOT_DRIFT = 0.25


def weibull_ph(rng, eta, shape, scale, censoring):
    """Times and events under h(t|x) = h0(t) exp(eta) with a Weibull h0.

    Event times come from the inverse transform; exponential censoring has
    its rate bisected (on a log scale, fixed 200 steps) so the censored
    fraction lands on `censoring`.
    """
    n = eta.size
    event_time = scale * (-np.log(rng.uniform(size=n))) ** (1.0 / shape) \
        * np.exp(-eta / shape)
    censor_unit = rng.exponential(size=n)
    lo, hi = 1e-8, 1e4
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if np.mean(censor_unit / mid < event_time) < censoring:
            lo = mid
        else:
            hi = mid
    censor_time = censor_unit / mid
    events = (event_time <= censor_time).astype(int)
    return np.minimum(event_time, censor_time), events


def _write_cohort(path, ids, times, events, names, X):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "event", *names])
        for i, rid in enumerate(ids):
            writer.writerow([rid, repr(float(times[i])), int(events[i]),
                             *(repr(float(v)) for v in X[i])])


def _write_config(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def make_demo(root: Path, dest: Path) -> dict:
    """Copy data/demo.json and its cohort unchanged."""
    shutil.copyfile(root / "data" / "demo.json", dest / "config.json")
    shutil.copyfile(root / "data" / "demo_cohort.csv", dest / "demo_cohort.csv")
    with open(dest / "demo_cohort.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    X = np.array([[float(r[name]) for name in DEMO_FEATURES] for r in rows])
    return {"eta": X @ np.asarray(DEMO_WEIGHTS),
            "times": [float(r["time"]) for r in rows],
            "events": [int(r["event"]) for r in rows],
            "models": ["xgboost", "rsf", "coxboost", "gbm", "cox"],
            "temporal": False, "importance": "mean_abs_shapley"}


def make_cohort10k(root: Path, dest: Path, n: int = COHORT10K_N) -> dict:
    rng = np.random.default_rng(POPULATION_SEED)
    X = rng.standard_normal((n, len(DEMO_WEIGHTS)))
    eta = X @ np.asarray(DEMO_WEIGHTS)
    times, events = weibull_ph(rng, eta, shape=1.4, scale=18.0, censoring=0.35)
    ids = [f"s{i + 1:05d}" for i in range(n)]
    _write_cohort(dest / "cohort.csv", ids, times, events,
                  [f"x{j}" for j in range(X.shape[1])], X)
    _write_config(dest / "config.json", {
        "cohort_csv": "cohort.csv", "out_dir": "out", "horizons": [12, 24],
        "seed": CONFIG_SEED, "enabled_models": ["cox", "coxboost"],
        "model_params": {"coxboost": {"rounds": 150, "learning_rate": 0.1}},
    })
    return {"eta": eta, "times": times, "events": events,
            "models": ["cox", "coxboost"], "temporal": False,
            "importance": "mean_abs_shapley"}


def _ellipsoid_subject(rng, eta_i):
    """One 16^3 grid and mask: an ellipsoid whose size and brightness rise
    with the subject's true risk, in a noisy background."""
    n = GRID_SIZE
    radius = float(np.clip(3.2 * np.exp(eta_i / 5.0), 2.0, 6.0))
    axes = radius * np.array([1.0, 0.85, 0.7]) * rng.uniform(0.9, 1.1, size=3)
    center = (n - 1) / 2.0 + rng.uniform(-1.0, 1.0, size=3)
    grid = np.indices((n, n, n), dtype=float)
    r2 = sum(((grid[k] - center[k]) / axes[k]) ** 2 for k in range(3))
    mask = r2 <= 1.0
    intensity = rng.normal(20.0, 5.0, size=(n, n, n))
    inside = 100.0 + 15.0 * eta_i + 12.0 * (1.0 - r2) + rng.normal(0.0, 6.0, size=(n, n, n))
    intensity = np.where(mask, inside, intensity)
    return intensity, mask


def _write_grid(path, values, fmt):
    n = GRID_SIZE
    flat = values.reshape(-1, order="F")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dims {n} {n} {n}\n")
        fh.write("spacing 1.0 1.0 1.0\n")
        fh.write(" ".join(fmt(v) for v in flat) + "\n")


def make_multimodal(root: Path, dest: Path, n: int = MULTIMODAL_N) -> dict:
    rng = np.random.default_rng(POPULATION_SEED)
    p = MULTIMODAL_CLINICAL
    X = rng.standard_normal((n, p))
    weights = np.zeros(p)
    weights[:MULTIMODAL_INFORMATIVE] = INFORMATIVE_WEIGHTS
    eta = X @ weights
    times, events = weibull_ph(rng, eta, shape=1.4, scale=18.0, censoring=0.35)
    ids = [f"m{i + 1:04d}" for i in range(n)]
    _write_cohort(dest / "cohort.csv", ids, times, events,
                  [f"c{j:02d}" for j in range(p)], X)

    grids = dest / "grids"
    grids.mkdir()
    for rid, eta_i in zip(ids, eta):
        intensity, mask = _ellipsoid_subject(rng, eta_i)
        _write_grid(grids / f"{rid}_grid.txt", intensity, lambda v: repr(round(float(v), 3)))
        _write_grid(grids / f"{rid}_mask.txt", mask.astype(int), lambda v: str(int(v)))

    # snapshot k = baseline + k * drift * eta along the all-ones direction,
    # the same law as recurrisk.temporal.generate_longitudinal. The baseline
    # is the six noise columns, so the risk reaches the lane only through
    # the drift; with the six strongest columns as baseline the lane's
    # training diverged (loss rose 10 epochs running) at the default rate.
    direction = np.ones(LONGITUDINAL_WIDTH) / np.sqrt(LONGITUDINAL_WIDTH)
    with open(dest / "longitudinal.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "snapshot_index", "time", "event",
                         *(f"x{j}" for j in range(LONGITUDINAL_WIDTH))])
        for i, rid in enumerate(ids):
            count = int(rng.integers(1, MAX_SNAPSHOTS + 1))
            base = X[i, -LONGITUDINAL_WIDTH:]
            for k in range(count):
                row = base + k * SNAPSHOT_DRIFT * eta[i] * direction
                writer.writerow([rid, k + 1, repr(float(times[i])), int(events[i]),
                                 *(repr(float(v)) for v in row)])

    _write_config(dest / "config.json", {
        "cohort_csv": "cohort.csv", "out_dir": "out", "horizons": [12, 24],
        "seed": CONFIG_SEED, "enabled_models": ["xgboost", "cox"],
        "voxel_grid_dir": "grids", "longitudinal_csv": "longitudinal.csv",
    })
    return {"eta": eta, "times": times, "events": events,
            "models": ["xgboost", "cox"], "temporal": True,
            "importance": "mean_abs_shapley"}


MAKERS = {"demo": make_demo, "cohort10k": make_cohort10k, "multimodal": make_multimodal}


def harrell_c(times, events, scores, chunk: int = 512) -> float:
    """Harrell's C by direct pair counting, in row chunks to bound memory.

    A pair (i, j) is comparable when t_i < t_j and subject i had the event;
    it is concordant when s_i > s_j, and a score tie counts one half.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    scores = np.asarray(scores, dtype=float)
    cases = np.nonzero(events == 1)[0]
    concordant = tied = comparable = 0
    for lo in range(0, cases.size, chunk):
        i = cases[lo:lo + chunk]
        comp = times[i, None] < times[None, :]
        concordant += int(np.sum(comp & (scores[i, None] > scores[None, :])))
        tied += int(np.sum(comp & (scores[i, None] == scores[None, :])))
        comparable += int(np.sum(comp))
    return (concordant + 0.5 * tied) / comparable


def prepare(root: Path, cache: Path, workload: str) -> tuple[Path, dict]:
    """Generate (once per cache) the workload's input directory.

    Returns the directory and the workload's expectations: the C-index of
    the true linear predictor, the enabled learners, whether the temporal
    lane runs and which importance method the report must name.
    """
    dest = cache / workload
    meta_path = dest / "expect.json"
    if not meta_path.exists():
        tmp = cache / f".{workload}.partial"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        meta = MAKERS[workload](root, tmp)
        meta["true_c"] = harrell_c(meta.pop("times"), meta.pop("events"), meta.pop("eta"))
        (tmp / "expect.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
        if dest.exists():
            shutil.rmtree(dest)
        tmp.rename(dest)
    return dest, json.loads(meta_path.read_text(encoding="utf-8"))
