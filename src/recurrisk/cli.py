"""Command-line interface.

Subcommands:
  extract-features   radiomic features for <id>_grid.txt / <id>_mask.txt pairs
  simulate           synthetic cohort from a JSON generator spec
  run                the full pipeline from a JSON config
  evaluate           metrics for an external id,time,event,score CSV

A rejected input or a failed file read or write prints one "error:" line and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .cohort import SyntheticSpec, generate_synthetic, load_cohort, write_cohort, write_csv
from .errors import InvalidParameterError, RecurriskError, reading
from .metrics import check_horizons, discrimination
from .pipeline import PipelineConfig, run_pipeline
from .radiomics import extract_subjects


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
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output cohort CSV")
    p.add_argument("--scores-out", default=None, help="optional true-score CSV")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("evaluate", help="metrics for an external score file")
    p.add_argument("--scores", required=True, help="CSV with id,time,event,score")
    p.add_argument("--horizons", default="12,24", help="comma-separated AUC horizons")
    p.add_argument("--out", default=None, help="write metrics JSON here (default stdout)")
    p.set_defaults(handler=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (RecurriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _override(params, **flags):
    """`params` with each given flag (not None) in place, checked as a file's values are."""
    return dataclasses.replace(params, **{k: v for k, v in flags.items() if v is not None})


def _cmd_extract(args) -> int:
    grid_dir = Path(args.grids)
    pairs = sorted(p.name[:-len("_grid.txt")] for p in grid_dir.glob("*_grid.txt"))
    if not pairs:
        raise InvalidParameterError(f"no *_grid.txt files in {grid_dir}")
    names, rows = extract_subjects(grid_dir, pairs, args.levels)
    write_csv(args.out, ["id", *names], pairs, *zip(*rows))
    _say(args, f"wrote {len(rows)} subjects x {len(names)} features to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    with reading("spec", args.spec) as fh:
        doc = json.load(fh)
    spec = _override(SyntheticSpec.from_json(doc, where=f"spec {args.spec}"), seed=args.seed)
    cohort, true_scores = generate_synthetic(spec)
    write_cohort(cohort, args.out)
    if args.scores_out:
        write_csv(args.scores_out, ["id", "true_score"], cohort.ids, true_scores)
    events = int(cohort.events.sum())
    _say(args, f"wrote {len(cohort)} subjects ({events} events) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _override(PipelineConfig.from_json_file(args.config),
                       seed=args.seed, out_dir=args.out)
    report = run_pipeline(config)
    chosen = report["chosen_model"]
    c = report["models"][chosen]["c_index"]
    _say(args, f"chosen model: {chosen} (out-of-fold C-index {c:.3f})")
    _say(args, f"artifacts in {config.out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        horizons = check_horizons(args.horizons.split(","))
    except ValueError:
        raise InvalidParameterError(f"--horizons must be comma-separated numbers, "
                                    f"got {args.horizons!r}") from None
    # a score file is a cohort file whose only other column is the score
    cohort = load_cohort(args.scores)
    if cohort.feature_names != ("score",):
        raise InvalidParameterError(
            f"{args.scores} needs exactly the columns id,time,event,score")
    result = {"n": len(cohort),
              **discrimination(cohort.times, cohort.events, cohort.X[:, 0], horizons)}
    text = json.dumps(result, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8", newline="\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
