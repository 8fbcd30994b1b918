"""End-to-end orchestration: ingest, normalize, screen, VIF-filter,
cross-validated training of all learners, the metric suite, importance
ranking, median stratification, Kaplan-Meier comparison and artifact
emission.

Evaluation protocol: K-fold cross-validation with event-stratified folds.
Normalization, univariate screening and VIF filtering are refit inside
every fold, so the held-out fold never influences feature selection; all
reported metrics and the risk stratification use pooled out-of-fold
predictions. Everything is deterministic given the config seed.

The folds are fitted by workers.split_map: on Linux with two or more CPUs,
this process fits every other fold, the temporal lane included, and one
forked worker fits the rest. The worker sends back each fold's model hash,
VIF removals, errors and held-out predictions, never a fitted model, and the
folds are merged in fold order, so no output depends on whether the worker
ran. A learner or the lane that fails reports its first failing fold's error.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .boosting import BoostParams, fit_boosted
from .cohort import (
    Cohort,
    ConstantFeatureWarning,
    apply_normalization,
    load_cohort,
    write_csv,
    zscore_normalize,
)
from .coxph import (
    check_cox_params,
    fit_cox,
    retained_features,
    univariate_screen,
    vif_filter,
)
from .errors import (
    DegenerateStratificationError,
    InvalidParameterError,
    PipelineError,
    RecurriskError,
    checked,
    declared,
    reading,
)
from .explain import feature_importance
from .metrics import (
    brier,
    by_horizon,
    calibration_table,
    check_horizons,
    dca_inputs,
    discrimination,
    net_benefit,
)
from .nonparametric import kaplan_meier, log_rank, median_survival_time
from .radiomics import extract_subjects
from .rsf import ForestParams, fit_rsf
from .svgplot import PALETTE, Series, render_plot
from .temporal import check_temporal_params, load_longitudinal, temporal_risk, train_temporal
from .workers import split_map

SCHEMA_VERSION = "2"
DCA_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))


def _fit_cox(cohort: Cohort, params: dict, seed: int, fold: int):
    return fit_cox(cohort, **params)


def _fit_rsf(cohort: Cohort, params: dict, seed: int, fold: int):
    return fit_rsf(cohort, ForestParams(**params, seed=seed + 7919 * (fold + 1)))


class Learner(NamedTuple):
    """fit(cohort, params, seed, fold) -> fitted model, where params is the
    learner's `model_params` entry and fold is -1 for the whole-cohort refit
    (so a learner seeds from fold + 1: numpy rejects a negative seed);
    `params` declares the keys the entry may hold (see errors.declared), and
    check(**settings) raises InvalidParameterError on a value out of range,
    where settings are the entry over the defaults of `params`.

    Every fitted model answers predict_risk(X), predict(X, horizons) ->
    (scores, survival of shape (n, len(horizons))) and to_json()."""

    fit: Callable
    params: dict
    check: Callable


def _booster(mode: str, *unread: str) -> Learner:
    def fit(cohort: Cohort, params: dict, seed: int, fold: int):
        return fit_boosted(cohort, BoostParams(**params, mode=mode, seed=seed + fold + 1))
    return Learner(fit, declared(BoostParams, "mode", "seed", *unread), BoostParams)


# The fit functions look fit_cox, fit_rsf and fit_boosted up at call time,
# so rebinding those module names takes effect. A config may set neither a
# booster's mode and seed nor the settings its mode never reads (`unread`).
LEARNERS = {
    "xgboost": _booster("xgboost"),
    "rsf": Learner(_fit_rsf, declared(ForestParams, "seed"), ForestParams),
    "coxboost": _booster("componentwise", "tree_depth", "min_leaf", "l2_lambda"),
    "gbm": _booster("gbm", "l2_lambda"),
    "cox": Learner(_fit_cox, declared(fit_cox, "cohort"), check_cox_params),
}
MODEL_ORDER = tuple(LEARNERS)

# The keys `temporal_params` may set; train_temporal's defaults fill the rest.
TEMPORAL_PARAMS = declared(train_temporal, "sequences", "seed")

PATH_FIELDS = ("cohort_csv", "out_dir", "longitudinal_csv", "voxel_grid_dir")


def _check_entry(where: str, entry: dict, params: dict, check: Callable) -> None:
    settings = {name: p.default for name, p in params.items()}
    settings.update(checked(where, entry, params))
    try:
        check(**settings)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class PipelineConfig:
    cohort_csv: str
    out_dir: str = "out"
    longitudinal_csv: str | None = None
    voxel_grid_dir: str | None = None
    id_column: str = "id"
    time_column: str = "time"
    event_column: str = "event"
    alpha: float = 0.05
    vif_threshold: float = 5.0
    cv_folds: int = 5
    horizons: tuple[float, ...] = (12.0, 24.0)
    seed: int = 0
    enabled_models: tuple[str, ...] = MODEL_ORDER
    model_params: dict = field(default_factory=dict)
    radiomics_levels: int = 32
    temporal_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cv_folds < 2:
            raise InvalidParameterError("cv_folds must be >= 2")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.vif_threshold >= 1.0:     # every VIF is >= 1
            raise InvalidParameterError(
                f"vif_threshold must be >= 1, got {self.vif_threshold}")
        if self.radiomics_levels < 2:
            raise InvalidParameterError(
                f"radiomics_levels must be >= 2, got {self.radiomics_levels}")
        object.__setattr__(self, "horizons", check_horizons(self.horizons))
        if not self.enabled_models:
            raise InvalidParameterError("enabled_models names no model")
        unknown = set(self.enabled_models) - set(MODEL_ORDER)
        if unknown:
            raise InvalidParameterError(f"unknown models: {sorted(unknown)}")
        if len(set(self.enabled_models)) < len(self.enabled_models):
            raise InvalidParameterError(f"enabled_models repeats a model: "
                                        f"{list(self.enabled_models)}")
        object.__setattr__(self, "enabled_models", tuple(self.enabled_models))
        for name, entry in self.model_params.items():
            if name not in LEARNERS:
                raise InvalidParameterError(f"model_params names an unknown model {name!r}")
            learner = LEARNERS[name]
            _check_entry(f"model_params for {name}", entry, learner.params, learner.check)
        _check_entry("temporal_params", self.temporal_params, TEMPORAL_PARAMS,
                     check_temporal_params)

    @staticmethod
    def from_json_file(path) -> "PipelineConfig":
        """Read a config and resolve its relative paths against the config's
        folder. An unreadable or malformed file, a missing `cohort_csv`, an
        unknown key or a value of the wrong type raises InvalidParameterError."""
        path = Path(path)
        with reading("config", path) as fh:
            doc = json.load(fh)
        config = PipelineConfig(**checked(f"config {path}", doc, declared(PipelineConfig)))
        return replace(config, **{name: str(path.parent / getattr(config, name))
                                  for name in PATH_FIELDS if getattr(config, name) is not None})

    def canonical_json(self) -> str:
        # out_dir is where artifacts land, not analysis content; leaving it
        # out keeps the provenance hash identical across scratch directories
        doc = asdict(self)
        del doc["out_dir"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def assign_folds(events, k: int, seed: int) -> np.ndarray:
    """Event-stratified fold index per subject.

    Events and censored subjects are shuffled separately (seeded) and dealt
    round-robin, so every fold sees roughly the same event fraction. Depends
    only on (events, k, seed), never on the outcome times or features.
    """
    events = np.asarray(events, dtype=int)
    rng = np.random.default_rng(seed)
    folds = np.empty(events.size, dtype=int)
    for flag in (1, 0):
        idx = np.nonzero(events == flag)[0]
        idx = rng.permutation(idx)
        folds[idx] = np.arange(idx.size) % k
    return folds


@dataclass(frozen=True)
class FoldModels:
    """Everything fitted on one training fold."""

    normalization: dict
    selected: tuple[str, ...]
    vif_removed: tuple[str, ...]
    models: dict                       # name -> fitted model or None (failed)
    errors: dict                       # name -> message for failed models


def _select_features(cohort: Cohort, config: PipelineConfig):
    """Normalize, screen and VIF-filter (the filter runs on two or more
    retained features). Returns the normalized cohort, the screen rows, the
    selected names in cohort column order and the names the filter removed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantFeatureWarning)
        norm = zscore_normalize(cohort)
    screen_rows = univariate_screen(norm)
    retained = set(retained_features(screen_rows, config.alpha))
    retained = [n for n in norm.feature_names if n in retained]
    if len(retained) < 2:
        return norm, screen_rows, tuple(retained), ()
    vif = vif_filter(norm, retained, threshold=config.vif_threshold)
    return norm, screen_rows, vif.kept, tuple(name for name, _ in vif.removed)


def fit_fold_models(train: Cohort, config: PipelineConfig, fold: int) -> FoldModels:
    """Normalize, screen, VIF-filter and train every enabled learner on one
    training fold. Depends only on the training rows."""
    train_norm, _, selected, vif_removed = _select_features(train, config)
    if not selected:
        raise PipelineError("screening", "zero features survived the p-value screen")

    train_sel = train_norm.subset_features(selected)

    models, errors = {}, {}
    for name in config.enabled_models:
        try:
            models[name] = LEARNERS[name].fit(train_sel, config.model_params.get(name, {}),
                                              config.seed, fold)
        except RecurriskError as exc:
            models[name] = None
            errors[name] = str(exc)

    return FoldModels(
        normalization=train_norm.normalization,
        selected=selected,
        vif_removed=vif_removed,
        models=models,
        errors=errors,
    )


def fold_models_hash(fold_models: FoldModels) -> str:
    """Canonical digest of everything fitted on one fold (leakage probe)."""
    parts = {
        "normalization": {k: list(v) for k, v in sorted(fold_models.normalization.items())},
        "selected": list(fold_models.selected),
        "models": {name: None if model is None else model.to_json()
                   for name, model in sorted(fold_models.models.items())},
    }
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode("utf-8")).hexdigest()


def _fold_outputs(cohort: Cohort, folds, config: PipelineConfig, by_id, f: int):
    """Fit fold f and predict its held-out rows: (the fold's model hash, the
    features its VIF filter removed, the messages of its failed learners and
    lane ("temporal"), the held-out row indices, {learner: (scores, survival)}
    for each fitted learner, the lane's scores or None if `by_id` is None).
    Plain values only, so a worker process can send them back."""
    test_idx = np.nonzero(folds == f)[0]
    train_idx = np.nonzero(folds != f)[0]
    fold_models = fit_fold_models(cohort.subset_rows(train_idx), config, f)
    fold_hash = fold_models_hash(fold_models)
    test = apply_normalization(cohort.subset_rows(test_idx), fold_models.normalization) \
        .subset_features(fold_models.selected)
    predictions = {name: model.predict(test.X, config.horizons)
                   for name, model in fold_models.models.items() if model is not None}
    errors, lane = dict(fold_models.errors), None
    if by_id is not None:
        try:
            model = train_temporal([by_id[cohort.ids[i]] for i in train_idx],
                                   **config.temporal_params, seed=config.seed + f)
            lane = [temporal_risk(by_id[cohort.ids[i]], model) for i in test_idx]
        except RecurriskError as exc:
            errors["temporal"] = str(exc)
    return fold_hash, list(fold_models.vif_removed), errors, test_idx, predictions, lane


def run_pipeline(config: PipelineConfig):
    """Execute the full protocol and write report.json, curve CSVs and SVGs.

    Returns the report as a plain dict (exactly what lands in report.json).
    """
    cohort = load_cohort(config.cohort_csv, id_column=config.id_column,
                         time_column=config.time_column, event_column=config.event_column)

    if config.voxel_grid_dir is not None:
        cohort = _attach_radiomics(cohort, config)
    by_id = None
    if config.longitudinal_csv is not None:
        by_id = _longitudinal_by_id(cohort, config.longitudinal_csv)

    n = len(cohort)
    times, events = cohort.times, cohort.events
    folds = assign_folds(events, config.cv_folds, config.seed)

    oof_scores = {name: np.full(n, np.nan) for name in config.enabled_models}
    oof_surv = {name: np.full((n, len(config.horizons)), np.nan)
                for name in config.enabled_models}
    lane_oof = np.full(n, np.nan)
    failed: dict[str, str] = {}
    fold_hashes = []
    vif_removed_by_fold = []

    for fold_hash, vif_removed, errors, test_idx, predictions, lane in split_map(
            lambda f: _fold_outputs(cohort, folds, config, by_id, f),
            [f for f in range(config.cv_folds) if np.any(folds == f)]):
        fold_hashes.append(fold_hash)
        vif_removed_by_fold.append(vif_removed)
        for name, message in errors.items():
            failed.setdefault(name, message)
        for name, (scores, surv) in predictions.items():
            oof_scores[name][test_idx], oof_surv[name][test_idx] = scores, surv
        if lane is not None:
            lane_oof[test_idx] = lane

    model_reports = {}
    for name in config.enabled_models:
        if name in failed or not np.all(np.isfinite(oof_scores[name])):
            model_reports[name] = {
                "status": "failed",
                "error": failed.get(name, "incomplete or non-finite predictions")}
            continue
        model_reports[name] = _evaluate_model(
            times, events, oof_scores[name], oof_surv[name], config.horizons)

    chosen = _choose_model(model_reports)
    if chosen is None:
        raise PipelineError("evaluation", "every model failed")

    stratification, curves = _stratify_and_compare(cohort, oof_scores[chosen])

    features_section = _feature_tables(cohort, config, chosen, vif_removed_by_fold)

    temporal_section = None
    if "temporal" in failed:
        temporal_section = {"status": "failed", "error": failed["temporal"]}
    elif by_id is not None:
        temporal_section = {"status": "ok",
                            **discrimination(times, events, lane_oof, config.horizons)}

    report = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "version": __version__,
            "n_subjects": n,
            "fold_model_hashes": fold_hashes,
        },
        "models": model_reports,
        "chosen_model": chosen,
        "stratification": stratification,
        "features": features_section,
        "temporal": temporal_section,
    }

    _write_artifacts(report, curves, cohort, oof_scores, config)
    return report


def _attach_radiomics(cohort: Cohort, config: PipelineConfig) -> Cohort:
    """Extract features for every subject's grid/mask pair and append them."""
    names, feature_rows = extract_subjects(config.voxel_grid_dir, cohort.ids,
                                           config.radiomics_levels)
    new_names = cohort.feature_names + tuple(f"radiomics_{k}" for k in names)
    X = np.hstack([cohort.X, np.array(feature_rows, dtype=float)])
    return Cohort(new_names, cohort.ids, cohort.times, cohort.events, X)


def _evaluate_model(times, events, scores, surv, horizons):
    out = {"status": "ok", **discrimination(times, events, scores, horizons)}
    out["brier"] = by_horizon(lambda k, h: brier(h, surv[:, k], times, events), horizons)

    t_star = horizons[-1]
    risk_at_t = 1.0 - surv[:, -1]
    out["calibration"] = [asdict(b)
                          for b in calibration_table(risk_at_t, times, events, t_star)]
    event_by_t, probs = dca_inputs(times, events, surv[:, -1], t_star)
    out["dca"] = [asdict(net_benefit(event_by_t, probs, p)) for p in DCA_THRESHOLDS]
    out["dca_horizon"] = t_star
    return out


def _choose_model(model_reports) -> str | None:
    """The ok model with the highest C-index, the first in MODEL_ORDER on a tie."""
    ok = [name for name in MODEL_ORDER if model_reports.get(name, {}).get("status") == "ok"]
    return max(ok, key=lambda name: model_reports[name]["c_index"], default=None)


def _stratify_and_compare(cohort: Cohort, scores):
    """Median-cutoff risk groups (score > median is high risk): the report's
    summary of them and their Kaplan-Meier curves, {"high": ..., "low": ...}.
    Identical scores, or an empty high group, raise
    DegenerateStratificationError."""
    times, events = cohort.times, cohort.events
    if np.all(scores == scores[0]):
        raise DegenerateStratificationError("all risk scores identical")
    cutoff = float(np.median(scores))
    is_high = scores > cutoff
    if not np.any(is_high):
        raise DegenerateStratificationError(
            "high-risk group is empty: more than half of the risk scores tie at the largest")

    km_high = kaplan_meier(times[is_high], events[is_high])
    km_low = kaplan_meier(times[~is_high], events[~is_high])
    lr = log_rank((times[is_high], events[is_high]), (times[~is_high], events[~is_high]))

    return {
        "cutoff": cutoff,
        "n_high": int(np.sum(is_high)),
        "n_low": int(np.sum(~is_high)),
        "median_rfs_high": median_survival_time(km_high),
        "median_rfs_low": median_survival_time(km_low),
        "log_rank_chi_square": lr.chi_square,
        "log_rank_p": lr.p_value,
    }, {"high": km_high, "low": km_low}


def _feature_tables(cohort: Cohort, config: PipelineConfig, chosen: str,
                    vif_removed_by_fold):
    """Whole-cohort screen table plus importance for the chosen model kind.

    These tables are descriptive (fit on all rows); model metrics above come
    exclusively from out-of-fold predictions.
    """
    full_norm, screen_rows, selected, _ = _select_features(cohort, config)
    retained = set(retained_features(screen_rows, config.alpha))
    # a NaN statistic (a fit that did not converge) is written as null
    screen_section = [
        {**{k: None if isinstance(v, float) and np.isnan(v) else v
            for k, v in asdict(r).items()}, "retained": r.feature in retained}
        for r in screen_rows]

    importance_section = {"method": None, "rows": []}
    if selected:
        selected_cohort = full_norm.subset_features(selected)
        try:
            model = LEARNERS[chosen].fit(selected_cohort,
                                         config.model_params.get(chosen, {}), config.seed, -1)
        except RecurriskError:
            model = None
        if model is not None:
            method, rows = feature_importance(model, selected_cohort, config.seed)
            importance_section = {
                "method": method,
                "rows": [dict(zip(("feature", "value", "std"), row)) for row in rows],
            }

    return {
        "screen": screen_section,
        "vif_removed_by_fold": vif_removed_by_fold,
        "importance": importance_section,
    }


def _longitudinal_by_id(cohort: Cohort, path) -> dict:
    """Each cohort subject's snapshot sequence from the longitudinal file,
    keyed by id; read and checked against the cohort before any fold is fit."""
    by_id = {s.subject_id: s for s in load_longitudinal(path)}
    missing = [rid for rid in cohort.ids if rid not in by_id]
    if missing:
        raise PipelineError("temporal",
                            f"longitudinal data missing for {len(missing)} subjects "
                            f"(first: {missing[0]!r})")

    differ = [rid for rid, t, e in zip(cohort.ids, cohort.times.tolist(),
                                       cohort.events.tolist())
              if (by_id[rid].time, by_id[rid].event) != (t, e)]
    if differ:
        raise PipelineError("temporal",
                            f"longitudinal time or event differs from the cohort's for "
                            f"{len(differ)} subjects (first: {differ[0]!r})")
    return by_id


# --- artifact emission -------------------------------------------------------


def _write_artifacts(report: dict, curves, cohort: Cohort, oof_scores, config: PipelineConfig):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                     encoding="utf-8", newline="\n")

    write_csv(out / "oof_scores.csv", ["id", "time", "event", *oof_scores.keys()],
              zip(cohort.ids, cohort.times.tolist(), cohort.events.tolist(),
                  *(s.tolist() for s in oof_scores.values())))

    for group, km in curves.items():
        write_csv(out / f"km_{group}.csv", ["time", "survival"], km.to_rows())

    for name, rep in report["models"].items():
        if rep.get("status") != "ok":
            continue
        for table in ("calibration", "dca"):
            rows = rep[table]
            write_csv(out / f"{table}_{name}.csv", rows[0].keys(),
                      (row.values() for row in rows))

    emit_plots(report, curves, out)


def emit_plots(report: dict, curves, outdir: Path) -> None:
    """Write the KM, AUC-by-horizon, calibration and DCA SVGs into `outdir`;
    `curves` are the risk groups' Kaplan-Meier curves, high then low."""
    chosen = report["chosen_model"]

    km_series = [Series(f"{group} risk", [0.0, *km.knots.tolist()], [1.0, *km.values.tolist()],
                        color, step=True)
                 for (group, km), color in zip(curves.items(), (PALETTE[1], PALETTE[0]))]
    km_svg = render_plot(
        km_series, "Recurrence-free survival by risk group", "months",
        "survival probability",
        annotations=[f"log-rank p = {report['stratification']['log_rank_p']:.4g}"],
        y_range=(0.0, 1.05))
    (outdir / "km_groups.svg").write_text(km_svg, encoding="utf-8", newline="\n")

    # run_pipeline raises "every model failed" before it writes anything,
    # so the chosen model is ok and ok_models is not empty
    ok_models = [(n, r) for n, r in report["models"].items() if r.get("status") == "ok"]
    horizons = sorted(ok_models[0][1]["auc"], key=float)
    series = []
    for k, (name, rep) in enumerate(sorted(ok_models)):
        ys = [rep["auc"][h] for h in horizons]
        if any(y is None for y in ys):
            continue
        series.append(Series(name, [float(h) for h in horizons], ys,
                             PALETTE[k % len(PALETTE)]))
    if series:
        svg = render_plot(series, "Time-dependent AUC", "horizon (months)",
                          "AUC", y_range=(0.4, 1.0))
        (outdir / "auc_horizons.svg").write_text(svg, encoding="utf-8", newline="\n")

    rep = report["models"][chosen]
    cal = rep["calibration"]
    cal_series = [
        Series("ideal", [0.0, 1.0], [0.0, 1.0], "#999999", dashed=True),
        Series(chosen, [b["mean_predicted"] for b in cal],
               [b["observed_risk"] for b in cal], PALETTE[0]),
    ]
    svg = render_plot(cal_series, f"Calibration at {rep['dca_horizon']:g} months",
                      "predicted risk", "observed risk",
                      x_range=(0.0, 1.0), y_range=(0.0, 1.05))
    (outdir / "calibration.svg").write_text(svg, encoding="utf-8", newline="\n")

    dca = rep["dca"]
    xs = [p["threshold"] for p in dca]
    dca_series = [
        Series(chosen, xs, [p["net_benefit"] for p in dca], PALETTE[0]),
        Series("treat all", xs, [p["treat_all"] for p in dca], "#999999", dashed=True),
        Series("treat none", xs, [0.0 for _ in dca], "#333333", dashed=True),
    ]
    svg = render_plot(dca_series, f"Decision curve at {rep['dca_horizon']:g} months",
                      "threshold probability", "net benefit")
    (outdir / "dca.svg").write_text(svg, encoding="utf-8", newline="\n")
