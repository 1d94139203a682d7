"""Sharded process-pool execution tier for the job service.

One warm in-process workspace caps the service's throughput at one
GIL.  This module runs jobs in worker *processes* instead — but not an
anonymous pool: workers are **sharded by the design's SHA-256 content
fingerprint** (:func:`repro.netlist.fingerprint.netlist_fingerprint`).
Every job for a given design lands on the same shard process, so each
shard keeps its own warm :class:`~repro.api.Workspace` (compiled
library, flow results, timing sessions, lowering caches) and
same-design jobs stay cache-local, while jobs for *different* designs
run truly in parallel on different processes.

Each shard is a single-worker :class:`ProcessPoolExecutor` (spawned
lazily); jobs cross the process boundary as schema payload dicts —
the same durable-serializable envelopes the HTTP layer speaks — and
come back as round-trip-checked result payloads, so a shard worker
and the in-process tier produce byte-identical response bodies.

Crash containment: a shard worker that dies mid-job (OOM-killed,
segfault) breaks only its own executor.  :meth:`ShardPool.run` turns
the break into a :class:`ShardError` naming the shard — the job lands
``failed`` with a useful error instead of hanging ``running`` — and
rebuilds the shard's executor so the next job for those designs gets
a fresh warm worker.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ReproError


class ShardError(ReproError):
    """A shard worker process died while running a job."""


def shard_index(fingerprint: str, shards: int) -> int:
    """Stable shard routing: leading fingerprint bits mod shard count."""
    return int(fingerprint[:16], 16) % max(1, int(shards))


#: Per-shard-process warm workspace (set by the pool initializer).
_WORKSPACE = None


def _shard_init(library, jobs: int):
    """Executor initializer: one warm workspace per shard process."""
    global _WORKSPACE
    from repro.api.workspace import Workspace

    _WORKSPACE = Workspace(library=library, jobs=jobs)


def execute_kind(design, kind: str, request):
    """Run one job kind: the :class:`~repro.api.Design` method of the
    same name (every key of ``service.JOB_KINDS`` is one)."""
    from repro.api.service import JOB_KINDS
    from repro.errors import ServiceError

    if kind not in JOB_KINDS:
        raise ServiceError(f"unhandled job kind {kind!r}")
    return getattr(design, kind)(request)


def _shard_run(kind: str, circuit: str, request_payload: dict | None,
               config_payload: dict) -> dict:
    """Worker-side job execution: payload dicts in, payload dict out."""
    from repro.api import schemas

    config = schemas.from_dict(config_payload)
    request = None if request_payload is None \
        else schemas.from_dict(request_payload)
    design = _WORKSPACE.design(circuit, config)
    return schemas.check_round_trip(execute_kind(design, kind, request))


class ShardPool:
    """N single-worker executors, routed by design fingerprint."""

    def __init__(self, shards: int, library=None, jobs: int = 1):
        self.shards = max(1, int(shards))
        self._library = library
        self._jobs = max(1, int(jobs))
        self._lock = threading.Lock()
        self._executors: list[ProcessPoolExecutor | None] = \
            [None] * self.shards
        self._closed = False

    def shard_for(self, fingerprint: str) -> int:
        return shard_index(fingerprint, self.shards)

    def _executor(self, index: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ShardError("shard pool is closed")
            executor = self._executors[index]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=1, initializer=_shard_init,
                    initargs=(self._library, self._jobs))
                self._executors[index] = executor
            return executor

    def run(self, kind: str, circuit: str, fingerprint: str,
            request_payload: dict | None, config_payload: dict) -> dict:
        """Execute one job on its design's shard; blocks until done.

        Exceptions raised by the job inside the worker propagate
        unchanged; a *dead worker process* becomes a
        :class:`ShardError` and the shard's executor is rebuilt.
        """
        index = self.shard_for(fingerprint)
        executor = self._executor(index)
        future = executor.submit(_shard_run, kind, circuit,
                                 request_payload, config_payload)
        try:
            return future.result()
        except BrokenProcessPool as exc:
            self._rebuild(index, executor)
            raise ShardError(
                f"shard {index} worker process died while running "
                f"{kind} on {circuit!r} (killed or crashed); the shard "
                f"has been restarted — resubmit the job") from exc

    def _rebuild(self, index: int, broken: ProcessPoolExecutor):
        with self._lock:
            if self._executors[index] is broken:
                self._executors[index] = None
        broken.shutdown(wait=False)

    def worker_pids(self) -> dict[int, list[int]]:
        """Live worker pids per shard (spawned shards only; tests)."""
        with self._lock:
            executors = list(self._executors)
        pids: dict[int, list[int]] = {}
        for index, executor in enumerate(executors):
            processes = getattr(executor, "_processes", None) or {}
            if processes:
                pids[index] = list(processes)
        return pids

    def close(self):
        with self._lock:
            self._closed = True
            executors, self._executors = \
                self._executors, [None] * self.shards
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
