"""One pipeline process: `recurrisk run` through the real CLI entry point.

    python3 bench/child.py CONFIG OUT_DIR RESULT_JSON [--trace] [--setup-only]

Only the standard library is imported before `recurrisk.cli`, so the
import time measured here is the program's own. The CLI's `run_pipeline`
binding is wrapped to stamp the moment the pipeline is entered and left;
with --setup-only the process stops at that moment, which times interpreter
start, imports and config parsing without running the pipeline. With
--trace the layer tracer is installed first and its spans and metrics are
written next to the pipeline outputs. The result JSON carries absolute
`time.perf_counter()` stamps (CLOCK_MONOTONIC, shared with the parent), so
the parent can measure set-up from the moment it started this process.
"""

import json
import resource
import sys
import time
from pathlib import Path


class _StopAtEntry(Exception):
    pass


def main(argv):
    config, out_dir, result_path = argv[:3]
    trace, setup_only = "--trace" in argv[3:], "--setup-only" in argv[3:]

    t0 = time.perf_counter()
    import recurrisk.cli as cli
    t_imported = time.perf_counter()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    stamps = {}
    run_pipeline = cli.run_pipeline

    def stamped_run_pipeline(cfg):
        stamps["enter"] = time.perf_counter()
        if setup_only:
            raise _StopAtEntry
        try:
            return run_pipeline(cfg)
        finally:
            stamps["exit"] = time.perf_counter()

    cli.run_pipeline = stamped_run_pipeline
    t_main = time.perf_counter()
    try:
        code = cli.main(["run", "--config", config, "--out", out_dir, "--quiet"])
    except _StopAtEntry:
        code = 0

    result = {
        "exit_code": code,
        "import_s": t_imported - t0,
        "config_s": stamps["enter"] - t_main,
        "enter": stamps["enter"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if "exit" in stamps:
        result["run_s"] = stamps["exit"] - stamps["enter"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["span_count"] = len(tracer.names)
        Path(out_dir, "trace_spans.json").write_text(
            json.dumps(tracer.spans()), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
