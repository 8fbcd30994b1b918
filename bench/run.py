#!/usr/bin/env python3
"""The recurrisk benchmark.

    python3 bench/run.py --workload {demo,cohort10k,multimodal} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout. Workload inputs are generated into
.bench_work/ once, outside the timed region; at this commit the seed is
recorded but does not change them (see workloads.py for why). Each
pipeline run is a fresh `recurrisk run` process (bench/child.py); run.py
starts one process at a time and waits for it. BLAS pools are pinned to
BLAS_THREADS threads.

--trace 0 repeats untraced runs for S seconds (at least one) and reports
the end-to-end metrics. --trace 1 repeats pairs of one untraced and one
traced run for S seconds (at least one pair) and reports the per-layer
metrics and the tracing overhead.
Every run's report.json goes through the output check; a run that exits
non-zero or fails the check counts as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the settings
(BLAS threads, numpy/scipy versions, seed) and each run's figures; the
same record is kept in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy

import workloads
from tracer import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
SETUP_SAMPLES = {0: 3, 1: 2}   # set-up-only processes per run, by --trace
C_MARGIN = 0.15                # |learner OOF C - C of the true predictor|
DEADLINE_S = 165.0             # stop starting processes after this long

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "run_ok_rate": "ratio",
         "learner_ok_ratio": "ratio", "oof_cindex_mean": "ratio",
         "oof_brier_mean": "ratio"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def digest_tree(*paths: Path) -> str:
    h = hashlib.sha256()
    for base in paths:
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts child processes for one workload input directory."""

    def __init__(self, workload: str, seed: int, inputs: Path, expect: dict):
        self.inputs = inputs
        self.expect = expect
        self.scratch = WORK / "runs" / f"{workload}-{seed}"
        if self.scratch.exists():
            shutil.rmtree(self.scratch)
        self.scratch.mkdir(parents=True)
        self.env = child_env()
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, trace=False, setup_only=False):
        """Run one child; returns (result dict or None, setup_s, error)."""
        self.count += 1
        out = self.scratch / f"out{self.count}"
        result_path = self.scratch / f"result{self.count}.json"
        args = [sys.executable, str(HERE / "child.py"), "config.json", str(out),
                str(result_path)]
        args += ["--trace"] if trace else []
        args += ["--setup-only"] if setup_only else []
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(args, cwd=self.inputs, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return None, None, "timed out"
        if proc.returncode != 0 or not result_path.exists():
            tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            return None, None, f"exit {proc.returncode}: {tail}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["out"] = str(out)
        return result, result["enter"] - t_spawn, None


def check_report(report: dict, expect: dict) -> list[str]:
    """Problems with one parsed report.json; an empty list means it passed."""
    problems = []

    def in_unit_range(label, value):
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or not 0.0 <= value <= 1.0:
            problems.append(f"{label} = {value!r} is not a finite value in [0, 1]")

    models = report.get("models", {})
    for name in expect["models"]:
        rep = models.get(name, {})
        if rep.get("status") != "ok":
            problems.append(f"learner {name}: status {rep.get('status')!r} "
                            f"({rep.get('error', '')})")
            continue
        in_unit_range(f"{name} c_index", rep["c_index"])
        for h, v in rep["auc"].items():
            in_unit_range(f"{name} auc[{h}]", v)
        for h, v in rep["brier"].items():
            in_unit_range(f"{name} brier[{h}]", v)
        gap = abs(rep["c_index"] - expect["true_c"])
        if gap > C_MARGIN:
            problems.append(f"{name} OOF C {rep['c_index']:.4f} is {gap:.4f} from the "
                            f"true predictor's {expect['true_c']:.4f} (margin {C_MARGIN})")
    if expect["temporal"]:
        lane = report.get("temporal") or {}
        if lane.get("status") != "ok":
            problems.append(f"temporal lane: status {lane.get('status')!r} "
                            f"({lane.get('error', '')})")
        else:
            in_unit_range("temporal c_index", lane["c_index"])
            for h, v in lane["auc"].items():
                in_unit_range(f"temporal auc[{h}]", v)
    method = (report.get("features") or {}).get("importance", {}).get("method")
    if method != expect["importance"]:
        problems.append(f"importance method {method!r}, expected {expect['importance']!r}")
    return problems


def report_summary(report: dict, expect: dict) -> dict:
    """Learner health and out-of-fold quality from one parsed report.json."""
    models = report.get("models") or {}
    statuses = [models.get(m, {}).get("status") for m in expect["models"]]
    if expect["temporal"]:
        statuses.append((report.get("temporal") or {}).get("status"))
    out = {"learner_ok_ratio": statuses.count("ok") / len(statuses)}
    ok = [models[m] for m in expect["models"] if models.get(m, {}).get("status") == "ok"]
    if ok:
        last = max(ok[0]["brier"], key=float)
        out["oof_cindex_mean"] = statistics.fmean(m["c_index"] for m in ok)
        briers = [m["brier"][last] for m in ok if m["brier"].get(last) is not None]
        if briers:
            out["oof_brier_mean"] = statistics.fmean(briers)
    return out


def scipy_stats_import_s(env: dict) -> float:
    """Import time of the scipy.stats package inside `import recurrisk.cli`,
    from `python -X importtime` (0 when the CLI no longer imports it).

    scipy loads scipy.stats lazily, so the package has no line of its own:
    sum the cumulative times of scipy.stats.* modules whose importer is not
    itself part of scipy.stats. importtime prints children before their
    parent, one indent level deeper.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import recurrisk.cli"],
                          env=env, capture_output=True, text=True, timeout=30)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total, parents = 0, []          # walk in reverse: parents come first
    for indent, name, cumulative in reversed(rows):
        while parents and parents[-1][0] >= indent:
            parents.pop()
        importer = parents[-1][1] if parents else ""
        if name.startswith("scipy.stats") and not importer.startswith("scipy.stats"):
            total += cumulative
        parents.append((indent, name))
    return total / 1e6


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload for `seconds`; returns (attempted, failed, metrics,
    record). Untraced: pipeline runs back to back. Traced: pairs of one
    untraced and one traced run, so each pair gives a tracing overhead."""
    expect = runner.expect
    record = {"failures": []}

    # warm the byte-code and file caches once; users pay neither per run
    runner.spawn(setup_only=True)
    setup_s, import_s, config_s = [], [], []
    for _ in range(SETUP_SAMPLES[int(trace)]):
        result, spawn_to_entry, error = runner.spawn(setup_only=True)
        if error:
            record["failures"].append(f"set-up process: {error}")
            continue
        setup_s.append(spawn_to_entry)
        import_s.append(result["import_s"])
        config_s.append(result["config_s"])

    runs, digests = [], set()

    def pipeline_run(traced):
        result, spawn_to_entry, error = runner.spawn(trace=traced)
        entry = {"trace": traced, "ok": False, "problems": []}
        runs.append(entry)
        report_path = None if error else Path(result["out"], "report.json")
        if error or not report_path.exists():
            entry["problems"].append(error or "no report.json written")
            return None
        raw = report_path.read_bytes()
        entry.update(run_s=result["run_s"], peak_rss_mb=result["peak_rss_mb"],
                     setup_s=spawn_to_entry)
        digests.add(hashlib.sha256(raw).hexdigest())
        if len(digests) > 1:
            entry["problems"].append("report.json differs between runs")
        try:
            report = json.loads(raw)
        except ValueError as exc:
            entry["problems"].append(f"report.json does not parse: {exc}")
        else:
            entry["problems"] += check_report(report, expect)
            entry.update(report_summary(report, expect))
        entry["ok"] = not entry["problems"]
        if not traced:
            setup_s.append(spawn_to_entry)
        return result

    pairs = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = pipeline_run(False)
        if trace:
            traced = pipeline_run(True)
            if plain is not None and traced is not None:
                pairs.append((plain, traced))
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start >= seconds or last >= runner.remaining():
            break

    # one commit must always write the same report.json for one input
    digest_file = WORK / "digests" / \
        f"{workload}-{digest_tree(ROOT / 'src', HERE / 'workloads.py')[:16]}.sha256"
    if len(digests) == 1:
        (digest,) = digests
        if not digest_file.exists():
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            digest_file.write_text(digest + "\n")
        elif digest_file.read_text().strip() != digest:
            for entry in runs:
                entry["ok"] = False
                entry["problems"].append("report.json differs from an earlier run")

    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    record["runs"] = runs
    record["failures"] += [p for r in runs for p in r["problems"]]
    if not trace:
        timed = [r for r in runs if "run_s" in r]
        metrics = {"run_ok_rate": (attempted - failed) / attempted, "learner_ok_ratio": 0.0}
        if timed:
            metrics["run_s"] = statistics.median(r["run_s"] for r in timed)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
        if setup_s:
            metrics["setup_s"] = statistics.median(setup_s)
        for key in ("learner_ok_ratio", "oof_cindex_mean", "oof_brier_mean"):
            values = [r[key] for r in runs if key in r]
            if values:
                metrics[key] = statistics.median(values)
        return attempted, failed, {k: {"value": metrics[k], "unit": UNITS[k]}
                                   for k in UNITS if k in metrics}, record

    layers = {}
    if pairs:
        for name in pairs[0][1]["layers"]:
            layers[name] = statistics.median(t["layers"][name] for _, t in pairs)
        layers["trace.overhead_ratio"] = statistics.median(
            t["run_s"] / p["run_s"] for p, t in pairs)
        spans = Path(pairs[-1][1]["out"], "trace_spans.json")
        shutil.copyfile(spans, WORK / "results" / f"{workload}-seed{seed}-spans.json")
    if import_s:
        layers["setup.import_s"] = statistics.median(import_s)
        layers["setup.config_s"] = statistics.median(config_s)
    layers["setup.import.scipy_stats_s"] = scipy_stats_import_s(runner.env)
    return attempted, failed, {k: {"value": v, "unit": layer_unit(k)}
                               for k, v in layers.items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "recurrisk" / "cli.py", ROOT / "data" / "demo.json"):
        if not needed.exists():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a recurrisk checkout")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    cache = WORK / "inputs" / digest_tree(HERE / "workloads.py")[:12]
    inputs, expect = workloads.prepare(ROOT, cache, args.workload)
    runner = Runner(args.workload, args.seed, inputs, expect)
    attempted, failed, metrics, record = measure(
        runner, args.workload, args.seed, args.seconds, bool(args.trace))

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, blas_threads=BLAS_THREADS,
                  numpy=numpy.__version__, scipy=metadata.version("scipy"),
                  python=platform.python_version(), true_c=expect["true_c"],
                  metrics=metrics)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json") \
        .write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    shutil.rmtree(runner.scratch, ignore_errors=True)

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
