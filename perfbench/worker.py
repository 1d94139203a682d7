"""One workload in one fresh process: set up, measure, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

  --mode setup    set up (imports, library, untimed warm-up op), stop
  --mode measure  set up, then time ops for --seconds with tracing off
  --mode trace    set up, time ops for --seconds/2 untraced, then for
                  --seconds/2 traced, and reduce the traced spans

``--t0`` is ``run.py``'s ``time.monotonic()`` when it started this
process, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time

import benchlib
import layers
from benchlib import median, peak_rss_mb

WORKLOADS = ("table1", "signoff", "served")
#: Host-speed samples taken right after set-up (outside its time).
SETUP_CALIBRATIONS = 3


def make_workload(name: str, seed: int, calibrate):
    if name == "table1":
        from wl_table1 import Table1
        return Table1(seed, calibrate)
    if name == "signoff":
        from wl_signoff import Signoff
        return Signoff(seed)
    if name == "served":
        from wl_served import Served
        return Served(seed, calibrate)
    raise benchlib.BenchError(f"unknown workload {name!r}")


def measure_in_process(workload, seconds: float, traced: bool,
                       calibrate) -> dict:
    """Closed loop of ``workload.op()`` for ``seconds`` (at least one op).

    Garbage is collected and the host speed sampled before each op,
    outside the timed region; the window excludes the sampling.
    Traced, each op's spans are drained and reduced on their own.
    """
    from repro.compute.lowercache import stats as lowering_stats
    from repro.obs import spans

    ops, per_op_layers, per_op_tables = [], [], []
    calibrations: list[float] = []
    spans.enable(traced)
    try:
        start = time.monotonic()
        while not ops or time.monotonic() - start < seconds:
            gc.collect()
            calibrations.append(calibrate())
            spans.take_records()
            op = workload.op()
            ops.append(op)
            calibrations.extend(op.get("calibration", ()))
            if traced:
                roots = spans.take_records()
                metrics = layers.from_spans(roots)
                metrics.update(op["extras"])
                lowering = lowering_stats()
                metrics["compute.lowercache.hits"] = lowering["hits"]
                metrics["compute.lowercache.misses"] = lowering["misses"]
                per_op_layers.append(metrics)
                per_op_tables.append(benchlib.span_table(roots))
        calibrations.append(calibrate())
        window = time.monotonic() - start - sum(calibrations)
    finally:
        spans.disable()
        spans.take_records()
    measurement = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "latency": [op["latency"] for op in ops if op["ok"]],
        "cold": [x for op in ops if op["ok"] for x in op["cold"]],
        "warm": [x for op in ops if op["ok"] for x in op["warm"]],
        "completed": sum(op["ok"] for op in ops),
        "window_s": window,
        "peak_rss_mb": peak_rss_mb(),
        "calibration": calibrations,
    }
    if traced:
        measurement["layers"] = {
            name: median(metrics.get(name, 0.0) for metrics in per_op_layers)
            for name in layers.UNITS}
        measurement["span_table"] = _mean_table(per_op_tables)
    return measurement


def _mean_table(tables: list[dict]) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                into[key] += value / len(tables)
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    benchlib.import_repro()
    with benchlib.Calibrator() as calibrate:
        workload = make_workload(args.workload, args.seed, calibrate)
        try:
            workload.setup()
            out = {"setup_s": time.monotonic() - args.t0,
                   "setup_calibration": [calibrate() for _ in
                                         range(SETUP_CALIBRATIONS)]}
            if args.mode != "setup":
                window = args.seconds if args.mode == "measure" \
                    else args.seconds / 2
                # served drives its own server; the others run here.
                measure = getattr(workload, "measure", None) \
                    or functools.partial(measure_in_process, workload,
                                         calibrate=calibrate)
                out["untraced"] = measure(window, traced=False)
                if args.mode == "trace":
                    out["traced"] = measure(window, traced=True)
        finally:
            workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
