"""In-memory span tracer attached to `recurrisk` from outside the package.

`Tracer.install()` wraps the public functions and methods of every layer
named in LAYER_METRICS. The wrapper replaces the function in its defining
module and every other binding of the same object in a loaded `recurrisk`
module (the `from .x import name` copies in pipeline, cli, temporal, explain,
rsf and metrics), so each call is attributed to its layer no matter which
module makes it. No file of the program is edited.

A span records (name, start, end, parent). The self time of a span is its
duration minus the durations of its direct children; spans never overlap
their siblings because the pipeline is single-threaded. Layer metrics
ending in `_s` are summed self times; the others are counts, read from
call arguments or from returned objects.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("cohort", "coxph", "boosting", "rsf", "nonparametric", "stepfun",
           "metrics", "explain", "radiomics", "temporal", "pipeline", "cli")

# Every per-layer metric the traced run reports, in output order.
LAYER_METRICS = (
    "cohort.load_s", "cohort.normalize_s", "cohort.subset_s",
    "cohort.matrix_calls", "cohort.matrix_s",
    "coxph.screen_s", "coxph.vif_s", "coxph.fit_cox_s", "coxph.fit_cox_calls",
    "coxph.loglik_evals", "coxph.newton_iters", "coxph.nonconverged",
    "coxph.evals_per_iter", "coxph.breslow_s",
    "boosting.fit_s.xgboost", "boosting.fit_s.gbm", "boosting.fit_s.componentwise",
    "boosting.rounds", "boosting.negloglik_evals", "boosting.accept_ratio",
    "boosting.predict_s",
    "rsf.fit_s", "rsf.nodes", "rsf.predict_risk_s", "rsf.predict_survival_s",
    "rsf.to_json_s",
    "nonparametric.kaplan_meier_s", "nonparametric.nelson_aalen_calls",
    "nonparametric.nelson_aalen_s", "nonparametric.log_rank_s", "stepfun.average_s",
    "metrics.c_index_s", "metrics.auc_summary_s", "metrics.brier_s",
    "metrics.calibration_s", "metrics.dca_s",
    "explain.shapley_s", "explain.permutation_s", "explain.predict_rows",
    "radiomics.load_s", "radiomics.extract_s", "radiomics.voxels",
    "temporal.load_s", "temporal.train_s", "temporal.epochs", "temporal.risk_s",
    "pipeline.fold_s", "pipeline.fold_hash_s", "pipeline.plots_s", "pipeline.self_s",
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_per_iter")):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counters for one process; install() attaches it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return bool(self.stack) and self.names[self.stack[-1]].startswith(prefix)

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def spans(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]

    def layer_metrics(self) -> dict[str, float]:
        """Every name in LAYER_METRICS; layers that never ran read 0."""
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        for name, own in zip(self.names, self.self_times()):
            out[name] += own
        for name, value in self.counts.items():
            out[name] += value
        iters, evals = out["coxph.newton_iters"], out["coxph.loglik_evals"]
        out["coxph.evals_per_iter"] = evals / iters if iters else 0.0
        rounds, nll = out["boosting.rounds"], out["boosting.negloglik_evals"]
        out["boosting.accept_ratio"] = rounds / nll if nll else 0.0
        return out

    # --- attaching -----------------------------------------------------------

    def _wrapper(self, fn, span, count=None, within=None, on_call=None,
                 on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is not None and not tracer.inside(within):
                return fn(*args, **kwargs)
            if count is not None:
                tracer.counts[count] += 1
            if on_call is not None:
                on_call(tracer.counts, args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            idx = tracer.open(span(args) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            tracer.close(idx)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    def _patch_function(self, module_name, attr, span, **hooks):
        module = sys.modules[f"recurrisk.{module_name}"]
        original = getattr(module, attr)
        wrapper = self._wrapper(original, span, **hooks)
        for name, mod in list(sys.modules.items()):
            if name == "recurrisk" or name.startswith("recurrisk."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def _patch_method(self, module_name, cls_name, attr, span, **hooks):
        cls = getattr(sys.modules[f"recurrisk.{module_name}"], cls_name)
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, span, **hooks))

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(f"recurrisk.{name}")
        from recurrisk.errors import NonconvergenceError

        def add(key, amount):
            def hook(counts, *_):
                counts[key] += amount(*_)
            return hook

        def cox_result(counts, model):
            counts["coxph.newton_iters"] += model.iterations
            counts["coxph.nonconverged"] += 0 if model.converged else 1

        def cox_error(counts, exc):
            if isinstance(exc, NonconvergenceError):
                counts["coxph.nonconverged"] += 1

        fn, meth = self._patch_function, self._patch_method

        fn("cohort", "load_cohort", "cohort.load_s")
        fn("cohort", "zscore_normalize", "cohort.normalize_s")
        fn("cohort", "apply_normalization", "cohort.normalize_s")
        meth("cohort", "Cohort", "subset_rows", "cohort.subset_s")
        meth("cohort", "Cohort", "subset_features", "cohort.subset_s")
        meth("cohort", "Cohort", "matrix", "cohort.matrix_s", count="cohort.matrix_calls")

        fn("coxph", "univariate_screen", "coxph.screen_s")
        fn("coxph", "vif_filter", "coxph.vif_s")
        fn("coxph", "fit_cox", "coxph.fit_cox_s", count="coxph.fit_cox_calls",
           on_result=cox_result, on_error=cox_error)
        fn("coxph", "partial_loglik", None, count="coxph.loglik_evals")
        fn("coxph", "breslow_baseline", "coxph.breslow_s")

        fn("boosting", "fit_boosted", lambda args: f"boosting.fit_s.{args[1].mode}",
           on_result=add("boosting.rounds", lambda model: len(model.base_learners)))
        fn("boosting", "cox_negloglik", None, count="boosting.negloglik_evals",
           within="boosting.fit_s.")
        meth("boosting", "BoostedModel", "predict_risk", "boosting.predict_s")

        fn("rsf", "fit_rsf", "rsf.fit_s", on_result=add("rsf.nodes", forest_nodes))
        fn("rsf", "predict_risk_matrix", "rsf.predict_risk_s")
        fn("rsf", "predict_survival", "rsf.predict_survival_s")
        fn("rsf", "forest_to_json", "rsf.to_json_s")

        fn("nonparametric", "kaplan_meier", "nonparametric.kaplan_meier_s")
        fn("nonparametric", "nelson_aalen", "nonparametric.nelson_aalen_s",
           count="nonparametric.nelson_aalen_calls")
        fn("nonparametric", "log_rank", "nonparametric.log_rank_s")
        fn("stepfun", "average_step_functions", "stepfun.average_s")

        fn("metrics", "c_index", "metrics.c_index_s")
        fn("metrics", "auc_summary", "metrics.auc_summary_s")
        fn("metrics", "brier", "metrics.brier_s")
        fn("metrics", "calibration_table", "metrics.calibration_s")
        fn("metrics", "dca_inputs", "metrics.dca_s")
        fn("metrics", "net_benefit", "metrics.dca_s")

        fn("explain", "mean_abs_shapley", "explain.shapley_s")
        fn("explain", "median_background", "explain.shapley_s")
        fn("explain", "exact_shapley", None,
           on_call=add("explain.predict_rows", lambda args, kw: 2 ** len(args[1])))
        fn("explain", "permutation_importance", "explain.permutation_s",
           on_call=add("explain.predict_rows", permutation_rows))

        fn("radiomics", "load_voxel_grid", "radiomics.load_s")
        fn("radiomics", "load_region_mask", "radiomics.load_s")
        fn("radiomics", "extract_all", "radiomics.extract_s",
           on_call=add("radiomics.voxels", lambda args, kw: args[1].voxel_count))

        fn("temporal", "load_longitudinal", "temporal.load_s")
        fn("temporal", "train_temporal", "temporal.train_s",
           on_result=add("temporal.epochs",
                         lambda model: len(model.training_loss_trace) - 1))
        fn("temporal", "temporal_risk", "temporal.risk_s")

        fn("pipeline", "fit_fold_models", "pipeline.fold_s")
        fn("pipeline", "fold_models_hash", "pipeline.fold_hash_s")
        fn("pipeline", "emit_plots", "pipeline.plots_s")
        fn("pipeline", "run_pipeline", "pipeline.self_s")

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def forest_nodes(forest) -> int:
    """Split plus leaf nodes over every tree of a fitted forest."""
    total = 0
    for tree in forest.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            total += 1
            if hasattr(node, "left"):
                stack.extend((node.left, node.right))
    return total


def permutation_rows(args, kwargs) -> int:
    """Rows permutation_importance sends to the model: one baseline pass
    plus one pass per feature and repeat."""
    cohort = args[1]
    repeats = kwargs.get("repeats", args[2] if len(args) > 2 else 10)
    return len(cohort) * (1 + cohort.n_features * repeats)
