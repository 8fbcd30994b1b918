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
import shutil
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
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
from .nonparametric import kaplan_meier, log_rank, median, median_survival_time
from .radiomics import MAX_LEVELS, extract_subjects
from .rsf import ForestParams, fit_rsf
from .svgplot import PALETTE, Series, render_plot
from .temporal import check_temporal_params, load_longitudinal, temporal_risk, train_temporal
from .workers import split_map

SCHEMA_VERSION = "3"
DCA_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))


def _fit_cox(cohort: Cohort, params: dict, seed: int, fold: int):
    return fit_cox(cohort, **params)


def _fit_rsf(cohort: Cohort, params: dict, seed: int, fold: int):
    return fit_rsf(cohort, ForestParams(**params, seed=seed + 7919 * (fold + 1)))


class Learner(NamedTuple):
    """fit(cohort, params, seed, fold) -> fitted model, where params is the
    learner's `model_params` entry and fold is -1 for the whole-cohort refit
    (so rsf seeds from fold + 1: numpy rejects a negative seed);
    `params` declares the keys the entry may hold (see errors.declared), and
    check(**settings) raises InvalidParameterError on a value out of range,
    where settings are the entry over the defaults of `params`.

    Every fitted model answers predict_risk(X), predict(X, horizons) ->
    (scores, survival of shape (n, len(horizons))) and json_chunks(), the
    pieces of its JSON text."""

    fit: Callable
    params: dict
    check: Callable


def _booster(mode: str, *unread: str) -> Learner:
    def fit(cohort: Cohort, params: dict, seed: int, fold: int):
        return fit_boosted(cohort, BoostParams(**params, mode=mode))
    return Learner(fit, declared(BoostParams, "mode", *unread), BoostParams)


# The fit functions look fit_cox, fit_rsf and fit_boosted up at call time,
# so rebinding those module names takes effect. A config may set neither a
# booster's mode nor the settings its mode never reads (`unread`).
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
        if self.radiomics_levels > MAX_LEVELS:
            raise InvalidParameterError(
                f"radiomics_levels must be <= {MAX_LEVELS}, got {self.radiomics_levels}")
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


def _normalized(cohort: Cohort) -> Cohort:
    """The cohort z-scored on its own rows; constant columns drop silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantFeatureWarning)
        return zscore_normalize(cohort)


def _select_features(norm: Cohort, config: PipelineConfig):
    """Screen the normalized cohort and VIF-filter the screen's retained
    features. Returns the learners' cohort (norm's selected columns, in
    cohort column order), norm's normalization of every feature, the screen
    rows and the names the filter removed; the all-feature matrix is not
    among them, so a caller that rebinds its name to the result frees it."""
    screen_rows = univariate_screen(norm)
    vif = vif_filter(norm, retained_features(screen_rows, config.alpha),
                     threshold=config.vif_threshold)
    return (norm.subset_features(vif.kept), norm.normalization, screen_rows,
            tuple(name for name, _ in vif.removed))


def fit_fold_models(train: Cohort, config: PipelineConfig, fold: int) -> FoldModels:
    """Normalize, screen, VIF-filter and train every enabled learner on one
    training fold. Depends only on the training rows. `train` is rebound at
    each step, so the all-feature matrix is freed before the first learner
    fits, which then holds only the selected columns. The raw rows are
    freed before the screen on CPython 3.11 and later, which hand a call's
    arguments to the callee's frame; before 3.11 the caller's frame holds
    them until the call returns."""
    train = _normalized(train)
    train, normalization, _, vif_removed = _select_features(train, config)
    if not train.feature_names:
        raise PipelineError("screening", "zero features survived the p-value screen")

    models, errors = {}, {}
    for name in config.enabled_models:
        try:
            models[name] = LEARNERS[name].fit(train, config.model_params.get(name, {}),
                                              config.seed, fold)
        except RecurriskError as exc:
            models[name] = None
            errors[name] = str(exc)

    return FoldModels(
        normalization=normalization,
        selected=train.feature_names,
        vif_removed=vif_removed,
        models=models,
        errors=errors,
    )


def fold_models_hash(fold_models: FoldModels) -> str:
    """Canonical digest of everything fitted on one fold (leakage probe).

    It is the SHA-256 of json.dumps({"models": {name: text}, "normalization":
    ..., "selected": ...}, sort_keys=True), where text is the join of the
    model's json_chunks(), or None for a failed model. The text is never
    joined: the digest encodes it as a JSON string one piece at a time, which
    gives the same bytes because json.dumps escapes each code point on its
    own, so only one piece and its escaped copy exist at once."""
    rest = json.dumps({
        "normalization": {k: list(v) for k, v in sorted(fold_models.normalization.items())},
        "selected": list(fold_models.selected),
    }, sort_keys=True)
    digest = hashlib.sha256(b'{"models": {')        # "models" sorts first
    for k, (name, model) in enumerate(sorted(fold_models.models.items())):
        digest.update(f"{', ' if k else ''}{json.dumps(name)}: ".encode("utf-8"))
        if model is None:
            digest.update(b"null")
            continue
        digest.update(b'"')
        for chunk in model.json_chunks():
            digest.update(json.dumps(chunk)[1:-1].encode("utf-8"))
        digest.update(b'"')
    digest.update(("}, " + rest[1:]).encode("utf-8"))
    return digest.hexdigest()


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
    """Execute the full protocol and write report.json, the score and KM CSVs and SVGs.

    Every input is read and checked before the output folder is made, and
    the folder is made before any fold is fit: a bad input leaves no folder,
    and a folder that cannot be made fails the run before it fits a model.

    Returns the report as a plain dict (exactly what lands in report.json).
    """
    cohort = load_cohort(config.cohort_csv, id_column=config.id_column,
                         time_column=config.time_column, event_column=config.event_column)

    if config.voxel_grid_dir is not None:
        cohort = _attach_radiomics(cohort, config)
    by_id = None
    if config.longitudinal_csv is not None:
        by_id = _longitudinal_by_id(cohort, config.longitudinal_csv)

    with _new_folder(Path(config.out_dir)) as out:
        report, curves, oof_scores = _cross_validate(cohort, by_id, config)
        _write_artifacts(report, curves, cohort, oof_scores, out)
    return report


@contextmanager
def _new_folder(path: Path):
    """Make path and its missing parents; if the body raises, remove the
    folders made here with whatever was written into them."""
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def _cross_validate(cohort: Cohort, by_id, config: PipelineConfig):
    """(the report, the chosen model's risk groups' Kaplan-Meier curves, the
    out-of-fold scores by learner) of the protocol on the read inputs."""
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
            sorted(set(folds.tolist()))):
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
    event_by_t, everyone = dca_inputs(times, events, np.zeros(n), config.horizons[-1])
    decision_curve = {"horizon": config.horizons[-1], "thresholds": list(DCA_THRESHOLDS),
                      "treat_all": [net_benefit(event_by_t, everyone, p) for p in DCA_THRESHOLDS]}

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
        "decision_curve": decision_curve,
        "stratification": stratification,
        "features": features_section,
        "temporal": temporal_section,
    }

    return report, curves, oof_scores


def _attach_radiomics(cohort: Cohort, config: PipelineConfig) -> Cohort:
    """Extract features for every subject's grid/mask pair and append them."""
    names, feature_rows = extract_subjects(config.voxel_grid_dir, cohort.ids,
                                           config.radiomics_levels)
    new_names = cohort.feature_names + tuple(f"radiomics_{k}" for k in names)
    X = np.hstack([cohort.X, np.array(feature_rows, dtype=float)])
    return Cohort(new_names, cohort.ids, cohort.times, cohort.events, X)


def _evaluate_model(times, events, scores, surv, horizons):
    """An ok learner's report: C and AUC, the Brier score at each horizon,
    and, at the last horizon (the report's decision_curve horizon), its
    calibration bins and its net benefit at each DCA_THRESHOLDS value."""
    out = {"status": "ok", **discrimination(times, events, scores, horizons)}
    out["brier"] = by_horizon(lambda k, h: brier(h, surv[:, k], times, events), horizons)
    out["calibration"] = [asdict(b) for b in calibration_table(
        1.0 - surv[:, -1], times, events, horizons[-1])]
    event_by_t, probs = dca_inputs(times, events, surv[:, -1], horizons[-1])
    out["net_benefit"] = [net_benefit(event_by_t, probs, p) for p in DCA_THRESHOLDS]
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
    cutoff = float(median(scores))
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
    selected, _, screen_rows, _ = _select_features(_normalized(cohort), config)
    retained = set(retained_features(screen_rows, config.alpha))
    # a NaN statistic (a fit that did not converge) is written as null
    screen_section = [
        {**{k: None if isinstance(v, float) and np.isnan(v) else v
            for k, v in asdict(r).items()}, "retained": r.feature in retained}
        for r in screen_rows]

    importance_section = {"method": None, "rows": []}
    if selected.feature_names:
        try:
            model = LEARNERS[chosen].fit(selected, config.model_params.get(chosen, {}),
                                         config.seed, -1)
        except RecurriskError:
            model = None
        if model is not None:
            method, rows = feature_importance(model.predict_risk, selected, config.seed)
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


def _write_text(path, pieces) -> None:
    """Write text pieces to `path` as UTF-8, each as it comes, lines ending in "\n"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def _write_artifacts(report: dict, curves, cohort: Cohort, oof_scores, out: Path):
    """Write `report.json`, the CSVs and the plots into `out`. A CSV is written
    only for a record the report does not hold: the out-of-fold scores and
    the two risk groups' Kaplan-Meier curves."""
    # the pieces of json.dumps(report, sort_keys=True, indent=2), which encodes the same way
    _write_text(out / "report.json",
                chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(report), ("\n",)))

    write_csv(out / "oof_scores.csv", ["id", "time", "event", *oof_scores.keys()],
              cohort.ids, cohort.times, cohort.events, *oof_scores.values())

    for group, km in curves.items():
        write_csv(out / f"km_{group}.csv", ["time", "survival"], km.knots, km.values)

    emit_plots(report, curves, out)


def emit_plots(report: dict, curves, outdir: Path) -> None:
    """Write the KM, AUC-by-horizon, calibration and DCA SVGs into `outdir`;
    `curves` are the risk groups' Kaplan-Meier curves, high then low."""
    chosen = report["chosen_model"]

    km_series = [Series(f"{group} risk", np.r_[0.0, km.knots], np.r_[1.0, km.values],
                        color, step=True)
                 for (group, km), color in zip(curves.items(), (PALETTE[1], PALETTE[0]))]
    _write_text(outdir / "km_groups.svg", render_plot(
        km_series, "Recurrence-free survival by risk group", "months",
        "survival probability",
        annotations=[f"log-rank p = {report['stratification']['log_rank_p']:.4g}"],
        y_range=(0.0, 1.05)))

    # run_pipeline raises "every model failed" before it writes anything,
    # so the chosen model is ok and ok_models is not empty
    ok_models = [(n, r) for n, r in report["models"].items() if r.get("status") == "ok"]
    horizons = sorted(ok_models[0][1]["auc"], key=float)
    series = []
    for k, (name, rep) in enumerate(sorted(ok_models)):
        defined = [h for h in horizons if rep["auc"][h] is not None]
        if defined:
            series.append(Series(name, [float(h) for h in defined],
                                 [rep["auc"][h] for h in defined], PALETTE[k % len(PALETTE)]))
    if series:
        _write_text(outdir / "auc_horizons.svg",
                    render_plot(series, "Time-dependent AUC", "horizon (months)",
                                "AUC", y_range=(0.4, 1.0)))
    else:       # a rerun into the same folder must not keep an earlier plot
        (outdir / "auc_horizons.svg").unlink(missing_ok=True)

    curve, rep = report["decision_curve"], report["models"][chosen]
    cal = rep["calibration"]
    cal_series = [
        Series("ideal", [0.0, 1.0], [0.0, 1.0], "#999999", dashed=True),
        Series(chosen, [b["mean_predicted"] for b in cal],
               [b["observed_risk"] for b in cal], PALETTE[0]),
    ]
    _write_text(outdir / "calibration.svg",
                render_plot(cal_series, f"Calibration at {curve['horizon']:g} months",
                            "predicted risk", "observed risk",
                            x_range=(0.0, 1.0), y_range=(0.0, 1.05)))

    xs = curve["thresholds"]
    dca_series = [
        Series(chosen, xs, rep["net_benefit"], PALETTE[0]),
        Series("treat all", xs, curve["treat_all"], "#999999", dashed=True),
        Series("treat none", xs, [0.0] * len(xs), "#333333", dashed=True),
    ]
    _write_text(outdir / "dca.svg",
                render_plot(dca_series, f"Decision curve at {curve['horizon']:g} months",
                            "threshold probability", "net benefit"))
