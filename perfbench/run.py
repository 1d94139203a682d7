"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 40 --trace 0

Each workload runs in fresh processes (``worker.py``).  With
``--trace 0`` this script sets the workload up ``SETUP_REPS`` times
(the last set-up goes on to measure with tracing off) and prints every
end-to-end metric; with ``--trace 1`` one process measures untraced
and then traced, and this script prints the per-layer table.  The last
stdout line is the JSON result; the full record, with its environment
block and raw samples, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import benchlib
import layers
import wl_served
from benchlib import BENCH_DIR, OUT_DIR, ROOT, median
from worker import WORKLOADS

#: Set-ups per untraced run; set-up time is their median.
SETUP_REPS = 3
#: Hard cap on one invocation, below the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_s": "s",
    "cold_p50_s": "s",
    "warm_p50_s": "s",
    "ops_per_s": "1/s",
}


def run_worker(args, mode: str, deadline: float) -> dict:
    """One fresh workload process; killed with its children on timeout."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--t0", repr(time.monotonic())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=benchlib.child_env(), cwd=ROOT,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = stdout.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise benchlib.BenchError(
            f"{args.workload} worker ({mode}) exited with "
            f"{process.returncode}")
    return json.loads(lines[-1])


def end_to_end(measurement: dict, setups: list[float],
               setup_speed: float) -> dict:
    """The end-to-end metrics, times at the reference host speed."""
    speed = benchlib.speed_factor(measurement["calibration"])
    return {
        "setup_s": median(setups) * setup_speed,
        "peak_rss_mb": measurement["peak_rss_mb"],
        "p50_s": median(measurement["latency"]) * speed,
        "cold_p50_s": median(measurement["cold"]) * speed,
        "warm_p50_s": median(measurement["warm"]) * speed,
        "ops_per_s": measurement["completed"]
        / (measurement["window_s"] * speed),
    }


def p50_at_reference_speed(measurement: dict) -> float:
    return median(measurement["latency"]) \
        * benchlib.speed_factor(measurement["calibration"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchlib.check_checkout()
    except benchlib.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    # A terminated run still reaches run_worker's clean-up, which
    # kills the worker's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Every process of the run shares one CPU.  A served session's
    # client and server then hand off on that CPU instead of waking
    # each other across vCPUs, which on a shared VM doubled warm
    # latency whenever the host stole time from the second vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        result = run_worker(args, "trace", deadline)
        phases = [result["untraced"], result["traced"]]
        metrics = dict(result["traced"]["layers"])
        metrics["obs.trace_overhead"] = \
            p50_at_reference_speed(result["traced"]) \
            / p50_at_reference_speed(result["untraced"])
        units = layers.UNITS
        print(layers.render(metrics, result["traced"]["span_table"]))
    else:
        setups, setup_calibrations = [], []
        for rep in range(SETUP_REPS):
            mode = "measure" if rep == SETUP_REPS - 1 else "setup"
            result = run_worker(args, mode, deadline)
            setups.append(result["setup_s"])
            setup_calibrations += result["setup_calibration"]
        result["setups"] = setups
        result["setup_calibrations"] = setup_calibrations
        phases = [result["untraced"]]
        metrics = end_to_end(result["untraced"], setups,
                             benchlib.speed_factor(setup_calibrations))
        units = END_TO_END

    env = benchlib.environment(
        args.workload, args.seed,
        wl_served.POLL if args.workload == "served" else None)
    env["host_calibration_s"] = {
        "reference": benchlib.CALIBRATION_REF_S,
        "measured": median(sample for phase in phases
                           for sample in phase["calibration"])}
    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({"env": env, "summary": summary,
                                  "raw": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
