"""Command-line interface.

Subcommands:
  extract-features   radiomic features for <id>_grid.txt / <id>_mask.txt pairs
  simulate           synthetic cohort from a JSON generator spec
  run                the full pipeline from a JSON config
  evaluate           metrics for an external id,time,event,score CSV
  explain            attribution table for a saved boosted model
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .boosting import BoostedModel
from .cohort import (
    ColumnSchema,
    SyntheticSpec,
    _parse_number,
    generate_synthetic,
    load_cohort,
    write_cohort,
)
from .errors import InvalidParameterError, RecurriskError, RowParseError, reading
from .explain import (
    MAX_EXACT_FEATURES,
    mean_abs_shapley,
    median_background,
    permutation_importance,
)
from .metrics import auc_summary, c_index
from .pipeline import PipelineConfig, run_pipeline
from .radiomics import extract_all, load_region_mask, load_voxel_grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurrisk",
        description="Survival-analysis toolkit for recurrence risk prediction")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("extract-features", help="radiomics over a grid directory")
    p.add_argument("--grids", required=True, help="directory of <id>_grid.txt/<id>_mask.txt")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--levels", type=int, default=32, help="gray-level bin count")

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output cohort CSV")
    p.add_argument("--scores-out", default=None, help="optional true-score CSV")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("evaluate", help="metrics for an external score file")
    p.add_argument("--scores", required=True, help="CSV with id,time,event,score")
    p.add_argument("--horizons", default="12,24", help="comma-separated AUC horizons")
    p.add_argument("--out", default=None, help="write metrics JSON here (default stdout)")

    p = sub.add_parser("explain", help="feature attributions for a saved model")
    p.add_argument("--model", required=True, help="boosted-model JSON file")
    p.add_argument("--cohort", required=True, help="cohort CSV")
    p.add_argument("--out", required=True, help="output importance CSV")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except RecurriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "extract-features":
        return _cmd_extract(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "explain":
        return _cmd_explain(args)
    raise AssertionError(f"unhandled command {args.command}")


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _cmd_extract(args) -> int:
    grid_dir = Path(args.grids)
    pairs = sorted(p.name[:-len("_grid.txt")] for p in grid_dir.glob("*_grid.txt"))
    if not pairs:
        print(f"error: no *_grid.txt files in {grid_dir}", file=sys.stderr)
        return 1
    rows, names = [], None
    for sid in pairs:
        grid = load_voxel_grid(grid_dir / f"{sid}_grid.txt")
        mask = load_region_mask(grid_dir / f"{sid}_mask.txt")
        feats = extract_all(grid, mask, args.levels)
        if names is None:
            names = sorted(feats)
        rows.append([sid, *(repr(float(feats[k])) for k in names)])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *names])
        writer.writerows(rows)
    _say(args, f"wrote {len(rows)} subjects x {len(names)} features to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    with reading(f"spec {args.spec}"):
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if args.seed is not None:
            doc["seed"] = args.seed
        spec = SyntheticSpec.from_json(doc)
    cohort, true_scores = generate_synthetic(spec)
    write_cohort(cohort, args.out)
    if args.scores_out:
        with open(args.scores_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "true_score"])
            for rid, s in zip(cohort.ids, true_scores):
                writer.writerow([rid, repr(float(s))])
    events = int(cohort.events.sum())
    _say(args, f"wrote {len(cohort)} subjects ({events} events) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = PipelineConfig.from_json_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_pipeline(config)
    chosen = report["chosen_model"]
    c = report["models"][chosen]["c_index"]
    _say(args, f"chosen model: {chosen} (out-of-fold C-index {c:.3f})")
    _say(args, f"artifacts in {config.out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        horizons = [float(h) for h in args.horizons.split(",")]
    except ValueError:
        raise InvalidParameterError(f"--horizons must be comma-separated numbers, "
                                    f"got {args.horizons!r}") from None
    ids, times, events, scores = [], [], [], []
    with open(args.scores, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"id", "time", "event", "score"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            print(f"error: {args.scores} needs columns id,time,event,score",
                  file=sys.stderr)
            return 1
        for row_no, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise RowParseError(row_no, "<row>",
                                    f"expected {len(reader.fieldnames)} cells")
            event = _parse_number(row["event"], row_no, "event")
            if event not in (0.0, 1.0):
                raise RowParseError(row_no, "event",
                                    f"event must be 0 or 1, got {row['event'].strip()}")
            ids.append(row["id"])
            times.append(_parse_number(row["time"], row_no, "time"))
            events.append(int(event))
            scores.append(_parse_number(row["score"], row_no, "score"))
    times = np.array(times)
    events = np.array(events)
    scores = np.array(scores)

    result = {"n": len(ids), "c_index": c_index(times, events, scores).c_index, "auc": {}}
    for h in horizons:
        try:
            value, _, _ = auc_summary(times, events, scores, h)
        except RecurriskError:
            value = None
        result["auc"][f"{h:g}"] = value
    text = json.dumps(result, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_explain(args) -> int:
    with reading(f"model {args.model}"):
        model = BoostedModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    cohort = load_cohort(args.cohort, ColumnSchema())
    cohort = cohort.subset_features(model.feature_names)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if len(model.feature_names) <= MAX_EXACT_FEATURES:
            rows = mean_abs_shapley(model, cohort.matrix(),
                                    median_background(cohort), cohort.feature_names)
            writer.writerow(["feature", "mean_abs_shapley"])
            for name, value in rows:
                writer.writerow([name, repr(value)])
            _say(args, f"wrote exact attributions for {len(rows)} features to {args.out}")
        else:
            report = permutation_importance(model, cohort, repeats=10, seed=args.seed)
            writer.writerow(["feature", "mean_drop", "std_drop"])
            for row in report.rows:
                writer.writerow([row.feature, repr(row.mean_drop), repr(row.std_drop)])
            _say(args, f"wrote permutation importance for {len(report.rows)} "
                       f"features to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
