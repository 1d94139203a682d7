"""``table1``: the paper's Table 1 grid, one grid per op (numpy backend).

An op runs the six rows {circuitA, circuitB} x {dual_vth,
conventional_smt, improved_smt} in an order drawn from the workload
seed.  Each row is a cold :meth:`Design.optimize` in a fresh
:class:`Workspace` that shares the nominal library built in set-up, so
every row pays the whole flow.  The grid time is the sum of the six
cold rows; a sum does not jump between row sizes the way a per-row
median does.

After its cold call each row repeats the same request
``WARM_REPEATS`` times through ``Workspace.design(...).optimize(...)``.
Those repeats are answered by the facade caches; their mean is the
row's warm latency.  One cache hit takes microseconds, too short to
time steadily on its own, hence the batch.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import sys
import time

import layers
from benchlib import BACKENDS, check, load_reference

ROWS = tuple((circuit, technique) for circuit in layers.CIRCUITS
             for technique in layers.TECHNIQUES)
#: Set-up's untimed warm-up: one row, not a grid, so that set-up stays
#: a few seconds.  It loads every lazily imported module a row uses.
WARMUP_ROW = ("circuitB", "improved_smt")
WARM_REPEATS = 1000


def row_summary(result) -> dict:
    """The Table 1 numbers of one :class:`OptimizeResult`."""
    return {"area_um2": result.area_um2, "leakage_nw": result.leakage_nw,
            "wns": result.wns, "hold_wns": result.hold_wns,
            "mt_cells": result.mt_cells, "switches": result.switches,
            "holders": result.holders}


def run_row(library, backend: str, circuit: str, technique: str):
    """One cold row plus its warm repeats.

    Returns (result, cold_s, warm_s, warm_matches, cache_stats).
    """
    from repro.api import Workspace
    from repro.experiments import table1_config
    from repro.obs.spans import span

    config = dataclasses.replace(table1_config(circuit),
                                 compute_backend=backend)
    workspace = Workspace(library=library, config=config)
    gc.collect()
    start = time.perf_counter()
    with span("bench.core.flow", circuit=circuit, technique=technique):
        result = workspace.design(circuit).optimize(technique=technique)
    cold_s = time.perf_counter() - start
    warm_matches = True
    start = time.perf_counter()
    for _ in range(WARM_REPEATS):
        again = workspace.design(circuit).optimize(technique=technique)
        warm_matches = warm_matches and again == result
    warm_s = (time.perf_counter() - start) / WARM_REPEATS
    return result, cold_s, warm_s, warm_matches, workspace.cache_stats()


class Table1:
    name = "table1"

    def __init__(self, seed: int, calibrate):
        self.rng = random.Random(seed)
        self.calibrate = calibrate
        self.backend = BACKENDS[self.name]
        self.reference = load_reference(self.name)["rows"][self.backend]
        self.library = None

    def setup(self):
        from repro.liberty.synth import build_default_library

        self.library = build_default_library()
        run_row(self.library, self.backend, *WARMUP_ROW)

    def op(self) -> dict:
        order = list(ROWS)
        self.rng.shuffle(order)
        ok = True
        cold, warm = [], []
        calibrations = []
        cache_totals: dict[str, dict[str, int]] = {}
        for index, (circuit, technique) in enumerate(order):
            if index:
                # One op per run: sample the host speed between rows
                # too, outside the rows' timed regions.
                calibrations.append(self.calibrate())
            key = f"{circuit}/{technique}"
            result, cold_s, warm_s, warm_matches, stats = run_row(
                self.library, self.backend, circuit, technique)
            cold.append(cold_s)
            warm.append(warm_s)
            ok = check(f"table1 {key}", self.reference[key],
                       row_summary(result)) and ok
            if not warm_matches:
                print(f"perfbench: table1 {key}: warm result differs from "
                      f"its cold result", file=sys.stderr)
                ok = False
            for cache, counts in stats.items():
                total = cache_totals.setdefault(cache, {"hits": 0,
                                                        "misses": 0})
                total["hits"] += counts.get("hits", 0)
                total["misses"] += counts.get("misses", 0)
        return {"ok": ok, "latency": sum(cold), "cold": cold, "warm": warm,
                "calibration": calibrations,
                "extras": layers.hit_rates(cache_totals)}

    def close(self):
        pass


def record(backend: str) -> dict:
    """Reference rows for one backend (see ``record_reference.py``)."""
    from repro.liberty.synth import build_default_library

    library = build_default_library()
    rows = {}
    for circuit, technique in ROWS:
        result, *_ = run_row(library, backend, circuit, technique)
        rows[f"{circuit}/{technique}"] = row_summary(result)
    return rows
