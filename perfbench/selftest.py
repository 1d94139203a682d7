"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the repository's default test collection (the file name
does not match ``test_*.py``): they start servers and run real flows,
about a minute in all on a 2-CPU host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import wl_served  # noqa: E402
import wl_signoff  # noqa: E402
import wl_table1  # noqa: E402
from worker import measure_in_process  # noqa: E402

benchlib.import_repro()
BENCHMARK = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
#: The smallest Table 1 row: one-row grids keep these tests short.
SMALL_ROW = ("circuitB", "dual_vth")


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def run_bench(workload: str, trace: int, cwd: Path = benchlib.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_catalogues_match_benchmark_json():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == layers.UNITS
    # table1 stays runnable but is not gated (see README "Workloads").
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == [name for name in run.WORKLOADS if name != "table1"]


@pytest.mark.parametrize("trace", [0, 1])
def test_served_run_prints_every_metric(trace):
    """The full command: fresh processes, server, result line."""
    done = run_bench("served", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    wanted = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture
def small_table1(monkeypatch):
    monkeypatch.setattr(wl_table1, "ROWS", (SMALL_ROW,))
    monkeypatch.setattr(wl_table1, "WARMUP_ROW", SMALL_ROW)
    workload = wl_table1.Table1(seed=3, calibrate=benchlib.calibrate)
    workload.setup()
    return workload


def test_table1_op_reports_every_metric(small_table1):
    """One (one-row) grid, untraced then traced, through the same
    reduction ``run.py`` applies."""
    plain = measure_in_process(small_table1, 0.0, traced=False,
                               calibrate=benchlib.calibrate)
    traced = measure_in_process(small_table1, 0.0, traced=True,
                                calibrate=benchlib.calibrate)
    assert plain["failed"] == traced["failed"] == 0
    metrics = run.end_to_end(plain, [1.0], 1.0)
    assert set(metrics) == set(declared("end_to_end"))
    assert all(value > 0 for value in metrics.values())
    assert set(traced["layers"]) == set(declared("per_layer"))
    row = f"core.flow.{SMALL_ROW[0]}.{SMALL_ROW[1]}.s"
    assert traced["layers"][row] > 0
    assert traced["layers"]["core.stage.vth_assignment.s"] > 0
    assert traced["layers"]["compute.lower.count"] > 0


def test_table1_perturbed_reference_is_a_failed_op(small_table1):
    key = "/".join(SMALL_ROW)
    small_table1.reference[key]["leakage_nw"] *= 1.0 + 1e-15
    op = small_table1.op()
    assert op["ok"] is False
    measured = measure_in_process(small_table1, 0.0, traced=False,
                                  calibrate=benchlib.calibrate)
    assert measured["attempted"] == measured["failed"] == 1


def test_signoff_perturbed_reference_is_a_failed_op():
    workload = wl_signoff.Signoff(seed=3)
    workload.setup()
    assert workload.op()["ok"] is True
    workload.reference["corners"]["tt_nom"]["wns"] += 1e-12
    assert workload.op()["ok"] is False


@pytest.fixture
def served():
    workload = wl_served.Served(seed=3, calibrate=benchlib.calibrate)
    yield workload
    workload.close()


def test_served_perturbed_reference_is_a_failed_op(served):
    served.setup()
    for expected in served.reference.values():
        expected["signoff"]["rows"][1]["leakage_nw"] += 1e-9
    measured = served.measure(0.0, traced=False)
    assert measured["attempted"] == 3
    assert measured["failed"] == 1          # the signoff job, not a crash
    assert len(measured["cold"]) == len(measured["warm"]) == 1


def test_served_server_stops_when_the_run_fails(served, monkeypatch):
    served.setup()
    process = served.server.process

    def broken_session(client, seed):
        raise RuntimeError("injected client failure")

    monkeypatch.setattr(served, "session", broken_session)
    with pytest.raises(RuntimeError, match="injected"):
        served.measure(1.0, traced=False)
    served.close()
    assert process.poll() is not None


def test_served_server_stops_when_startup_fails(monkeypatch):
    started = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(wl_served.subprocess, "Popen", recording_popen)
    monkeypatch.setattr(wl_served, "SERVER_START_TIMEOUT_S", 0.0)
    with pytest.raises(benchlib.BenchError):
        wl_served.Server(traced=False)
    assert started and started[0].poll() is not None


def test_without_program_source_the_run_fails(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark."""
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("table1", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
