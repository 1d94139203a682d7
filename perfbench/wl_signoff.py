"""``signoff``: a 28-corner post-flow signoff of a finished design.

Set-up builds the circuitA improved_smt design once with
:meth:`Design.flow_result` (numpy backend).  An op then runs two
passes of the same four steps through the public functions of
:mod:`repro.variation`, :mod:`repro.standby` and :mod:`repro.policy`:

1. derive all 28 corner libraries with ``derive_corner_library_cached``;
2. ``evaluate_corners_batched`` over the 28 corners in a seeded order;
3. ``StandbyEngine(...).run()`` for the six built-in scenarios x 28
   corners;
4. ``PolicyOptimizer(..., candidates=1024)`` on the default corners.

The cold pass calls ``reset_corner_memo()`` first, so it derives every
corner; the warm pass repeats the steps with the memo full, so it
measures what the memo does not save.
"""

from __future__ import annotations

import random
import time

from benchlib import (BACKENDS, check, load_reference, sha256,
                      without_backend)

CIRCUIT = "circuitA"
CANDIDATES = 1024


class SignoffRun:
    """A finished design plus everything the four steps need."""

    def __init__(self, backend: str, library=None):
        from repro.api import Workspace
        from repro.config import FlowConfig, Technique
        from repro.liberty.synth import build_default_library
        from repro.standby.scenario import (resolve_scenario,
                                            standard_scenarios)
        from repro.variation.corners import (default_signoff_corners,
                                             standard_corners)

        self.backend = backend
        self.config = FlowConfig(compute_backend=backend)
        self.library = library or build_default_library()
        workspace = Workspace(library=self.library, config=self.config)
        self.flow = workspace.design(CIRCUIT).flow_result(
            Technique.IMPROVED_SMT)
        self.technique = Technique.IMPROVED_SMT
        self.corners = standard_corners(self.library.tech)
        self.policy_corners = default_signoff_corners(self.library.tech)
        self.scenarios = [resolve_scenario(name)
                          for name in standard_scenarios()]

    def signoff(self, order, cold: bool) -> dict:
        """The four steps; returns their outputs in reference form."""
        from repro.api import schemas
        from repro.obs.spans import span
        from repro.policy.optimize import PolicyOptimizer
        from repro.standby.engine import StandbyEngine
        from repro.variation.corners import (derive_corner_library_cached,
                                             reset_corner_memo)
        from repro.variation.signoff import evaluate_corners_batched

        flow, library = self.flow, self.library
        if cold:
            reset_corner_memo()
        with span("bench.variation.derive", cold=cold):
            derived = {name: derive_corner_library_cached(
                library, self.corners[name]) for name in order}
        with span("bench.variation.evaluate"):
            results = evaluate_corners_batched(
                flow.netlist, library, order, flow.constraints,
                parasitics=flow.parasitics, network=flow.network,
                clock_arrivals=flow.cts.clock_arrivals if flow.cts else None,
                compute_backend=self.backend, corner_libraries=derived)
        with span("bench.standby.run"):
            standby = StandbyEngine(
                flow.netlist, library, flow.network, self.scenarios,
                corners=tuple(self.corners),
                settle_fraction=self.config.standby_settle_fraction,
                rush_budget_ma=self.config.standby_rush_budget_ma,
                parasitics=flow.parasitics, compute_backend=self.backend,
                corner_libraries=derived, circuit=CIRCUIT,
                technique=self.technique).run()
        with span("bench.policy.optimize"):
            policy = PolicyOptimizer(
                flow.netlist, library, flow.network, self.scenarios,
                corners=self.policy_corners, candidates=CANDIDATES,
                max_domains=self.config.policy_max_domains,
                settle_fraction=self.config.standby_settle_fraction,
                rush_budget_ma=self.config.standby_rush_budget_ma,
                parasitics=flow.parasitics, compute_backend=self.backend,
                corner_libraries={name: derived[name]
                                  for name in self.policy_corners},
                circuit=CIRCUIT, technique=self.technique).run()
        standby_payload = without_backend(schemas.to_dict(standby))
        policy_payload = without_backend(schemas.to_dict(policy))
        return {
            "corners": {name: {"leakage_nw": res.leakage_nw,
                               "wns": res.wns, "hold_wns": res.hold_wns}
                        for name, res in sorted(results.items())},
            "standby": {"corner_rows": standby_payload["corner_rows"],
                        "sha256": sha256(standby_payload)},
            "policy": {"candidates": policy.candidates,
                       "oracle_net_savings_pj":
                           policy.oracle_net_savings_pj,
                       "pareto": policy_payload["pareto"],
                       "sha256": sha256(policy_payload)},
        }


class Signoff:
    name = "signoff"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.backend = BACKENDS[self.name]
        self.reference = load_reference(self.name)["outputs"][self.backend]
        self.signoff_run = None

    def setup(self):
        self.signoff_run = SignoffRun(self.backend)
        self.op()

    def op(self) -> dict:
        from repro.variation.corners import corner_memo_stats

        order = list(self.signoff_run.corners)
        self.rng.shuffle(order)
        ok = True
        passes = []
        for cold in (True, False):
            start = time.perf_counter()
            outputs = self.signoff_run.signoff(order, cold)
            passes.append(time.perf_counter() - start)
            label = "cold" if cold else "warm"
            ok = check(f"signoff {label} pass", self.reference,
                       outputs) and ok
        misses = corner_memo_stats()["misses"]
        return {"ok": ok, "latency": sum(passes), "cold": [passes[0]],
                "warm": [passes[1]],
                "extras": {"variation.corner_memo.misses": misses,
                           "policy.candidates": outputs["policy"][
                               "candidates"]}}

    def close(self):
        pass


def record(backend: str) -> dict:
    """Reference outputs for one backend (see ``record_reference.py``)."""
    run = SignoffRun(backend)
    return run.signoff(list(run.corners), cold=True)
