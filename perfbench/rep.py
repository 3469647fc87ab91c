"""One repetition of a workload in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH.  Set-up time runs
from the parent's spawn stamp (`--spawned-at`, CLOCK_MONOTONIC, shared by
all processes) to the moment `hopperlab` is imported and the config loaded.
`ru_maxrss` is this process's own high-water mark, taken right after the
workload, before the checks read anything back.  The calibration kernels
(calibrate.py) run right before and right after the workload.  The result,
and with `--trace 1` the spans, go to the JSON file named by `--result`.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("sweep", "closed_loop", "reanalyze"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="repetition number (closed_loop seed choice)")
    parser.add_argument("--expect", default=None, help="corpus digest a reanalyze must reproduce")
    args = parser.parse_args()

    import hopperlab  # noqa: F401  (the import is part of set-up)
    from hopperlab.config import load_config

    config = load_config(args.config)
    setup_s = time.monotonic() - args.spawned_at

    import calibrate
    import workloads

    cal_before = calibrate.calibration_s()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = Path(args.out)
    start = time.perf_counter()
    try:
        outcome = workloads.run(args.workload, config, args.config, out_dir, args.index, tracer)
    finally:
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    cal_after = calibrate.calibration_s()

    expected = json.loads(Path(args.expect).read_text()) if args.expect else None
    result = workloads.verify(args.workload, config, out_dir, outcome, expected)
    result.update(setup_s=setup_s, wall_s=wall_s, peak_rss_mb=peak_rss_mb,
                  cal_before=cal_before, cal_after=cal_after, traced=bool(args.trace))
    if args.workload == "sweep":
        result["digest"] = workloads.digest(out_dir)
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
