"""``served``: c432 sessions against a ``repro-smt serve`` subprocess.

The server runs with its defaults (in-process tier, one worker thread,
no shards, no result store) on the python backend.  One client in this
process runs closed-loop sessions of three c432 jobs:

a. ``optimize`` under a FlowConfig whose ``placement_seed`` no earlier
   session used (drawn without replacement from a pool shuffled by the
   workload seed), so the job is cold;
b. ``signoff`` of that design at the three default corners;
c. the same ``optimize`` again, answered from the Design cache (warm).

Latency is what the client observes from submit to result in hand.
The client polls with a geometric back-off (:data:`POLL`), which keeps
its granularity well below both the ~4 ms warm job and the ~0.35 s
cold one without flooding the server, which shares the client's CPU,
with status requests.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import layers
from benchlib import (BACKENDS, OUT_DIR, ROOT, BenchError, check, child_env,
                      load_reference, median, peak_rss_mb,
                      records_from_chrome, span_table)

CIRCUIT = "c432"
#: Sessions after which the server's peak RSS is read.
RSS_SESSIONS = 20
#: Client poll schedule: first poll after 0.5 ms, then x1.2 up to 10 ms.
#: Fine steps near the ~4 ms warm job: with x1.5 steps its median
#: flipped between two poll instants from run to run.
POLL = {"initial_s": 0.0005, "factor": 1.2, "max_s": 0.01}
JOB_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: placement_seed values the reference covers.
POOL = tuple(range(1, 161))


def job_config(seed: int) -> dict:
    return {"placement_seed": seed, "compute_backend": BACKENDS["served"]}


class Server:
    """A ``repro-smt serve --port 0`` subprocess; always stopped."""

    def __init__(self, traced: bool):
        OUT_DIR.mkdir(exist_ok=True)
        tag = f"served-{os.getpid()}-{'traced' if traced else 'plain'}"
        self.log_path = OUT_DIR / f"{tag}.log"
        self.trace_path = OUT_DIR / f"{tag}.trace.json" if traced else None
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if traced:
            command += ["--trace", str(self.trace_path)]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=child_env(), cwd=ROOT)
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> str:
        from repro.api.client import ServiceClient
        from repro.errors import ServiceError

        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"server exited with "
                                 f"{self.process.returncode}; see "
                                 f"{self.log_path}")
            if url is None:
                found = re.search(r"listening on (http://\S+)",
                                  self.log_path.read_text(errors="replace"))
                url = found.group(1) if found else None
            if url is not None:
                try:
                    ServiceClient(url, timeout=5.0).health()
                    return url
                except (OSError, ServiceError):
                    pass
            time.sleep(0.01)
        raise BenchError(f"server did not answer /v1/health within "
                         f"{SERVER_START_TIMEOUT_S} s")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self):
        """SIGINT (the server writes its trace on the way out), then
        SIGKILL if it has not ended in time; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def wait_payload(client, job_id: str) -> dict:
    """Poll one job to completion and fetch its result payload."""
    delay = POLL["initial_s"]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        status = client.status(job_id)
        if status["status"] == "done":
            return client.result_payload(job_id)
        if status["status"] not in ("queued", "running"):
            raise BenchError(f"job {job_id} ended {status['status']}: "
                             f"{status.get('error')}")
        if time.monotonic() > deadline:
            raise BenchError(f"job {job_id} still {status['status']} "
                             f"after {JOB_TIMEOUT_S} s")
        time.sleep(delay)
        delay = min(delay * POLL["factor"], POLL["max_s"])


class Served:
    name = "served"

    def __init__(self, seed: int, calibrate):
        self.calibrate = calibrate
        reference = load_reference(self.name)
        self.reference = reference["configs"][BACKENDS[self.name]]
        pool = [seed for seed in POOL if str(seed) in self.reference]
        if len(pool) != len(POOL):
            raise BenchError("served reference does not cover the pool")
        random.Random(seed).shuffle(pool)
        self.pool = pool
        self.server: Server | None = None

    def _next_config(self) -> int | None:
        return self.pool.pop() if self.pool else None

    def _start(self, traced: bool):
        from repro.api.client import ServiceClient

        self.server = Server(traced)
        warmup = self._next_config()
        self.session(ServiceClient(self.server.url), warmup)

    def setup(self):
        self._start(traced=False)

    def session(self, client, seed: int) -> dict:
        """One closed-loop session; every job checked, none raises."""
        expected = self.reference[str(seed)]
        config = job_config(seed)
        jobs, payloads = [], {}
        start = time.perf_counter()
        for cls, kind in (("cold", "optimize"), ("signoff", "signoff"),
                          ("warm", "optimize")):
            job_start = time.perf_counter()
            job_id, ok = None, False
            try:
                job_id = client.submit(kind, CIRCUIT, config=config)
                payload = wait_payload(client, job_id)
                latency = time.perf_counter() - job_start
                payloads[cls] = payload
                ok = check(f"served {cls} placement_seed={seed}",
                           expected["optimize" if kind == "optimize"
                                    else "signoff"], payload)
                if cls == "warm" and payload != payloads.get("cold"):
                    print(f"perfbench: served placement_seed={seed}: warm "
                          f"result differs from its cold result",
                          file=sys.stderr)
                    ok = False
            except Exception as exc:  # noqa: BLE001 — counted as failed
                latency = time.perf_counter() - job_start
                print(f"perfbench: served {cls} placement_seed={seed} "
                      f"failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            jobs.append({"cls": cls, "kind": kind, "job_id": job_id,
                         "latency": latency, "ok": ok})
        return {"latency": time.perf_counter() - start, "jobs": jobs,
                "ok": all(job["ok"] for job in jobs)}

    def _drive(self, seconds: float):
        """The client's closed loop for ``seconds`` (at least one session).

        Returns the sessions, the window (host-speed samples excluded),
        the server's peak RSS read after ``RSS_SESSIONS`` sessions, and
        the host-speed samples taken between sessions.  The server
        caches every design it built, so a peak read at the end of the
        window would grow with however many sessions the host allowed.
        The server shares this process's CPU, so samples taken here
        measure the CPU the jobs ran on.
        """
        from repro.api.client import ServiceClient

        client = ServiceClient(self.server.url)
        sessions: list[dict] = []
        calibrations: list[float] = []
        rss = None
        start = time.monotonic()
        while not sessions or time.monotonic() - start < seconds:
            seed = self._next_config()
            if seed is None:
                break
            calibrations.append(self.calibrate())
            sessions.append(self.session(client, seed))
            if len(sessions) == RSS_SESSIONS:
                rss = self.server.peak_rss_mb()
        calibrations.append(self.calibrate())
        window = time.monotonic() - start - sum(calibrations)
        return (sessions, window, rss or self.server.peak_rss_mb(),
                calibrations)

    def measure(self, seconds: float, traced: bool) -> dict:
        from repro.api.client import ServiceClient

        if traced:
            self.server.stop()
            self._start(traced=True)
        sessions, window, rss, calibrations = self._drive(seconds)
        client = ServiceClient(self.server.url)
        health = client.health()
        counters = client.metrics_snapshot().counters
        jobs = [job for session in sessions for job in session["jobs"]]
        measurement = {
            "attempted": len(jobs),
            "failed": sum(not job["ok"] for job in jobs),
            "latency": [s["latency"] for s in sessions if s["ok"]],
            "cold": [j["latency"] for j in jobs
                     if j["ok"] and j["cls"] == "cold"],
            "warm": [j["latency"] for j in jobs
                     if j["ok"] and j["cls"] == "warm"],
            "completed": sum(job["ok"] for job in jobs),
            "window_s": window,
            "peak_rss_mb": rss,
            "calibration": calibrations,
        }
        if traced:
            self.server.stop()
            measurement["layers"], measurement["span_table"] = \
                self._layers(sessions, jobs, health, counters)
        return measurement

    def _layers(self, sessions, jobs, health, counters):
        events = json.loads(Path(self.server.trace_path).read_text())
        by_id = {job["job_id"]: job for job in jobs if job["job_id"]}
        roots = [node for node in records_from_chrome(events["traceEvents"])
                 if node.name == "service.job"
                 and node.attributes.get("job_id") in by_id]
        per_session = max(len(sessions), 1)
        metrics = {**dict.fromkeys(layers.UNITS, 0.0),
                   **layers.from_spans(roots)}
        table = span_table(roots)
        for name, value in list(metrics.items()):
            if not name.endswith("_frac"):
                metrics[name] = value / per_session
        for row in table.values():
            for key in row:
                row[key] /= per_session
        for cls in layers.SERVICE_CLASSES:
            spans = [(by_id[node.attributes["job_id"]], node)
                     for node in roots
                     if by_id[node.attributes["job_id"]]["cls"] == cls]
            metrics[f"service.job.{cls}.s"] = median(
                node.duration_s for _, node in spans)
            metrics[f"service.overhead.{cls}.s"] = median(
                job["latency"] - node.duration_s for job, node in spans)
        cache_stats = health["cache_stats"]
        metrics.update(layers.hit_rates(cache_stats))
        lowering = cache_stats.get("lowering", {})
        metrics["compute.lowercache.hits"] = lowering.get("hits", 0)
        metrics["compute.lowercache.misses"] = lowering.get("misses", 0)
        metrics["service.jobs_failed"] = counters.get(
            "service.jobs_failed", 0)
        metrics["service.coalesced"] = counters.get("service.coalesced", 0)
        return metrics, table

    def close(self):
        if self.server is not None:
            self.server.stop()


def record(backend: str) -> dict:
    """Reference payloads for every pool config, computed in-process."""
    from repro.api import Workspace, schemas
    from repro.config import FlowConfig
    from repro.liberty.synth import build_default_library

    library = build_default_library()
    configs = {}
    for seed in POOL:
        workspace = Workspace(library=library, config=FlowConfig(
            placement_seed=seed, compute_backend=backend))
        design = workspace.design(CIRCUIT)
        configs[str(seed)] = {
            "optimize": schemas.to_dict(design.optimize()),
            "signoff": schemas.to_dict(design.signoff()),
        }
    return configs
