"""Helpers shared by ``run.py`` and its workload processes.

Everything here is benchmark-side: the environment a workload process
runs in, the environment block every result carries, statistics,
reference comparison, and the reduction of span trees to per-name
counts and self times.  Nothing in here imports :mod:`repro` at module
level, so ``run.py`` can validate its checkout before any program code
is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
#: Trace files, server logs and result records; never committed.
OUT_DIR = ROOT / ".bench_out"

#: Environment variables that change what the program does.  They are
#: removed from every workload process so the host cannot turn on the
#: on-disk lowering cache, tracing, the result store or a backend.
SCRUBBED_ENV = (
    "REPRO_COMPUTE_BACKEND",
    "REPRO_LOWER_CACHE",
    "REPRO_LOWER_CACHE_MAX",
    "REPRO_LOG_LEVEL",
    "REPRO_RESULT_STORE",
    "REPRO_RESULT_STORE_MAX",
    "REPRO_TRACE",
)

#: Backend each workload pins in its FlowConfig.
BACKENDS = {"table1": "numpy", "signoff": "numpy", "served": "python"}


class BenchError(RuntimeError):
    """The checkout cannot run the benchmark."""


def check_checkout():
    """Fail unless the program's source sits next to the benchmark."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC_DIR / 'repro'}; run "
                         f"the benchmark from a full checkout")


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC_DIR)
    # Fixed string hashing: dict and set layouts, and with them the
    # cost of cache lookups, are the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def import_repro():
    """Import the checkout's :mod:`repro`, refusing any other copy."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC_DIR not in location.parents:
        raise BenchError(f"imported repro from {location}, not from "
                         f"{SRC_DIR}")
    return repro


# --- environment block ------------------------------------------------------

def _commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git repo."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's source files (a checkout need not be
    a git repository, so this names the code when no commit does)."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, poll: dict | None) -> dict:
    """The environment block recorded with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "backend": BACKENDS[workload],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "client_poll_s": poll,
        # As the workload processes see them (child_env scrubs them).
        "env": {name: child_env().get(name) for name in
                ("REPRO_LOWER_CACHE", "REPRO_TRACE", "REPRO_RESULT_STORE")},
    }


# --- host speed -------------------------------------------------------------

#: The shared VM this benchmark was built on runs the same op up to 25%
#: slower for minutes at a time (steal time, contended cores), far more
#: than the changes the benchmark must resolve.  Runs therefore time
#: a fixed pure-Python calibration (no program code) between ops,
#: outside the timed regions, and report every time metric at the host
#: speed where the calibration takes CALIBRATION_REF_S: scaled by
#: CALIBRATION_REF_S / median(calibration times of the run).
CALIBRATION_OBJECTS = 25_000
CALIBRATION_REF_S = 0.04


def calibrate() -> float:
    """Seconds this host takes for the calibration right now.

    It allocates, indexes and sorts small dict records: the object
    churn a netlist flow does, which tracked the flows' slowdowns more
    closely than an arithmetic loop.
    """
    start = time.perf_counter()
    records = [{"name": f"n{i}", "x": (i * 7919) % 10007 / 10007.0,
                "pins": [i, i + 1]} for i in range(CALIBRATION_OBJECTS)]
    index = {record["name"]: record for record in records}
    total = 0.0
    for i in range(0, CALIBRATION_OBJECTS, 3):
        total += index[f"n{i}"]["x"]
    records.sort(key=lambda record: record["x"])
    return time.perf_counter() - start


class Calibrator:
    """Runs :func:`calibrate` in a helper process, one call per sample.

    The helper inherits the caller's CPU affinity, so it measures the
    CPU the caller's ops run on.  Use as a context manager; the helper
    is always stopped and reaped.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrator.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def __call__(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise BenchError("the calibration helper exited")
        return float(line)

    def close(self):
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc):
        self.close()


def speed_factor(calibrations) -> float:
    """Multiply a time measured alongside ``calibrations`` by this."""
    return CALIBRATION_REF_S / median(calibrations)


# --- statistics and process measurements ------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# --- references -------------------------------------------------------------

def canonical(payload) -> str:
    """Deterministic JSON text; floats keep every digit (repr)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def without_backend(payload):
    """A result payload minus its ``compute_backend`` metadata fields."""
    if isinstance(payload, dict):
        return {key: without_backend(value) for key, value in payload.items()
                if key != "compute_backend"}
    if isinstance(payload, list):
        return [without_backend(value) for value in payload]
    return payload


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def differences(expected, actual, path: str = ""):
    """Yield ``(path, expected, actual)`` for every differing JSON leaf
    (a differing key set or list length yields the whole subtree)."""
    if isinstance(expected, dict) and isinstance(actual, dict) \
            and set(expected) == set(actual):
        for key in sorted(expected):
            yield from differences(expected[key], actual[key],
                                   f"{path}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        for index, (a, b) in enumerate(zip(expected, actual)):
            yield from differences(a, b, f"{path}[{index}]")
    elif canonical(expected) != canonical(actual):
        yield path, expected, actual


def check(label: str, expected, actual) -> bool:
    """Exact comparison of an output against its reference.

    A mismatch is reported on stderr and returned as False, so the
    caller counts a failed op instead of crashing the run.
    """
    actual = json.loads(canonical(actual))   # tuples -> lists etc.
    for path, want, got in differences(expected, actual):
        print(f"perfbench: {label}: output differs from reference at "
              f"{path}: expected {want!r}, got {got!r}", file=sys.stderr)
        return False
    return True


# --- spans ------------------------------------------------------------------

def records_from_chrome(events) -> list:
    """Span trees from Chrome trace events (a traced server's file).

    Nesting is implied by time containment on each pid/tid track,
    which is how the exporter flattened the span trees.
    """
    from repro.obs.spans import SpanRecord

    roots: list[SpanRecord] = []
    tracks: dict[tuple, list[dict]] = {}
    for event in events:
        if event.get("ph") == "X":
            tracks.setdefault((event["pid"], event["tid"]), []).append(event)
    for track in tracks.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[SpanRecord] = []
        for event in track:
            record = SpanRecord(
                name=event["name"], start_s=event["ts"] / 1e6,
                duration_s=event["dur"] / 1e6, pid=event["pid"],
                tid=event["tid"], attributes=event.get("args") or {})
            end = record.start_s + record.duration_s
            while stack and end > stack[-1].start_s \
                    + stack[-1].duration_s + 1e-9:
                stack.pop()
            (stack[-1].children if stack else roots).append(record)
            stack.append(record)
    return roots


def span_table(roots) -> dict[str, dict[str, float]]:
    """Count, total and self time per span name, over
    :class:`repro.obs.spans.SpanRecord` trees.

    Self time is a span's duration minus the part its children cover.
    """
    table: dict[str, dict[str, float]] = {}
    for root in roots:
        for node in root.walk():
            row = table.setdefault(node.name, {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += node.duration_s
            row["self_s"] += node.duration_s - sum(
                child.duration_s for child in node.children)
    return table


def fallback_counts(roots) -> tuple[int, int]:
    """(``sta.incremental`` spans, those escalating to ``sta.full_run``)."""
    attempts = wasted = 0
    for root in roots:
        for node in root.walk():
            if node.name == "sta.incremental":
                attempts += 1
                if any(child.name == "sta.full_run"
                       for child in node.walk() if child is not node):
                    wasted += 1
    return attempts, wasted
