"""The batched sleep-policy optimizer.

Sweeps thousands of candidate (domain plan, per-domain threshold)
policies against every workload scenario and PVT corner in **one**
``policies x clusters x corners`` array pass, then reduces the sweep
to the Pareto front of (net savings, worst wake latency, peak rush).

**Candidate space.**  For each domain plan (deterministic balanced
partitions from :func:`repro.policy.domains.plan_partitions`) the
per-domain break-even times anchor a log-spaced factor grid
(:func:`repro.policy.model.threshold_factors`): one *global* sweep
(every domain shares a factor) plus one *leave-awake* sweep per domain
(that domain pinned to ``inf``).  Quotas are rounded up, so the total
candidate count is always at least the requested number.

**Backend contract.**  Exactly the standby engine's: the scalar
reference and the numpy path perform the same IEEE operations in the
same order.  All transcendentals (transients, schedules, break-even
anchors, factor grids) are evaluated scalar-side; the batched kernel
is multiply/subtract/select with an ordered left-to-right cluster
accumulation, so a policy's per-point savings — and everything
aggregated from them in shared Python — are bit-identical across
backends (``tests/policy`` and ``benchmarks/test_bench_policy.py``
both assert full-result equality).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping, Sequence

from repro.compute import resolve_backend
from repro.config import FlowConfig, Technique, analysis_request
from repro.errors import ConfigError, StandbyError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.metrics import REGISTRY
from repro.obs.spans import span
from repro.policy.domains import DomainPlan, characterize_plan, plan_partitions
from repro.policy.model import SleepPolicy, threshold_factors
from repro.standby.engine import NOMINAL_CORNER, require_switch_network
from repro.standby.scenario import (
    PowerModeScenario,
    check_scenario_payloads,
    request_scenarios,
)
from repro.standby.schedule import default_rush_budget_ma
from repro.standby.transient import ClusterTransient, TransientSolver
from repro.vgnd.network import VgndNetwork

#: nW x ns -> pJ.
_NW_NS_TO_PJ = 1e-6


@dataclasses.dataclass(frozen=True)
class PolicyPoint:
    """One Pareto-optimal policy."""

    policy_id: int                    # candidate index in sweep order
    plan: str                         # domain-plan name
    domains: tuple[tuple[int, ...], ...]   # member clusters per domain
    thresholds_ns: tuple[float, ...]  # per domain; inf = never sleep
    net_savings_pj: float             # worst corner, all scenarios
    worst_wake_latency_ns: float      # slowest sleeping domain, any corner
    peak_rush_ma: float               # worst sleeping-domain schedule peak
    sleeping_domains: int

    def as_dict(self) -> dict[str, Any]:
        from repro.api import schemas  # lazy: loads the registry

        return schemas.to_dict(self)


@dataclasses.dataclass(frozen=True)
class PolicyResult:
    """The full policy-optimization verdict for one design."""

    circuit: str
    technique: Technique
    compute_backend: str
    clusters: int
    settle_fraction: float
    scenarios: tuple[str, ...]
    corners: tuple[str, ...]
    candidates: int                   # evaluated (>= requested)
    plans: tuple[str, ...]
    rush_budget_ma: float             # first configured corner's budget
    #: Clairvoyant per-cluster upper bound: every cluster its own
    #: domain, threshold exactly at break-even, worst corner.
    oracle_net_savings_pj: float
    pareto: tuple[PolicyPoint, ...]   # (-net, wake, rush) order

    @property
    def best(self) -> PolicyPoint:
        """The highest-savings Pareto point."""
        return self.pareto[0]

    def point(self, policy_id: int) -> PolicyPoint:
        for point in self.pareto:
            if point.policy_id == policy_id:
                return point
        raise KeyError(f"no Pareto point for policy {policy_id}")

    def render(self) -> str:
        lines = [
            f"policy sweep: {self.candidates} candidates, "
            f"{self.clusters} clusters, plans "
            f"{', '.join(self.plans)}; corners "
            f"{', '.join(self.corners)}",
            f"oracle (clairvoyant per-cluster) net savings: "
            f"{self.oracle_net_savings_pj:.1f} pJ",
            f"{'id':>6} {'plan':<12} {'sleeping':>8} "
            f"{'net_pJ':>14} {'wake_ns':>10} {'rush_mA':>9}",
        ]
        for point in self.pareto:
            lines.append(
                f"{point.policy_id:>6} {point.plan:<12} "
                f"{point.sleeping_domains:>8} "
                f"{point.net_savings_pj:>14.1f} "
                f"{point.worst_wake_latency_ns:>10.3f} "
                f"{point.peak_rush_ma:>9.3f}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        from repro.api import schemas  # lazy: loads the registry

        return schemas.to_dict(self)


# --- the batched kernel ------------------------------------------------------


def _sweep_python(points: Sequence[tuple[float, float]],
                  dp_nw: Sequence[Sequence[float]],
                  energy_pj: Sequence[Sequence[float]],
                  oh_plan: Sequence[Sequence[Sequence[float]]],
                  plan_of: Sequence[int],
                  thresholds: Sequence[Sequence[float]]
                  ) -> list[list[list[float]]]:
    """Scalar reference: gated savings per (policy, corner, point).

    ``dp_nw``/``energy_pj`` are (corners x clusters) tables,
    ``oh_plan`` a (plans x corners x clusters) overhead table indexed
    through ``plan_of``, ``thresholds`` a (policies x clusters) grid.
    The cluster sum is a left-to-right ordered reduction; a point
    below a cluster's threshold contributes exactly 0.0.
    """
    durations = [duration for duration, _w in points]
    corners = len(dp_nw)
    clusters = len(dp_nw[0]) if corners else 0
    out: list[list[list[float]]] = []
    for i, t_row in enumerate(thresholds):
        oh = oh_plan[plan_of[i]]
        rows: list[list[float]] = []
        for c in range(corners):
            dp_c = dp_nw[c]
            oh_c = oh[c]
            e_c = energy_pj[c]
            acc = [0.0] * len(durations)
            for k in range(clusters):
                dp = dp_c[k]
                oh_k = oh_c[k]
                energy = e_c[k]
                threshold = t_row[k]
                for p, duration in enumerate(durations):
                    value = dp * (duration - oh_k) * _NW_NS_TO_PJ \
                        - energy
                    acc[p] = acc[p] + (value if duration >= threshold
                                       else 0.0)
            rows.append(acc)
        out.append(rows)
    return out


def _sweep_numpy(points: Sequence[tuple[float, float]],
                 dp_nw: Sequence[Sequence[float]],
                 energy_pj: Sequence[Sequence[float]],
                 oh_plan: Sequence[Sequence[Sequence[float]]],
                 plan_of: Sequence[int],
                 thresholds: Sequence[Sequence[float]]
                 ) -> list[list[list[float]]]:
    """Vectorized path: one stacked pass over every candidate.

    Same operations in the same order as :func:`_sweep_python` — the
    policy and corner axes only widen each vector op; the cluster loop
    stays an ordered left-to-right accumulation (one vector add per
    cluster), so every element's float-op sequence matches the scalar
    reference exactly.
    """
    import numpy as np

    durations = np.array([duration for duration, _w in points],
                         dtype=float)
    dp = np.asarray(dp_nw, dtype=float)                    # (C, K)
    energy = np.asarray(energy_pj, dtype=float)            # (C, K)
    oh = np.asarray(oh_plan, dtype=float)[
        np.asarray(plan_of, dtype=int)]                    # (P, C, K)
    grid = np.asarray(thresholds, dtype=float)             # (P, K)
    policies = grid.shape[0]
    acc = np.zeros((policies, dp.shape[0], len(durations)),
                   dtype=float)
    zero = np.float64(0.0)
    for k in range(dp.shape[1]):
        value = dp[None, :, k, None] \
            * (durations[None, None, :] - oh[:, :, k, None]) \
            * np.float64(_NW_NS_TO_PJ) - energy[None, :, k, None]
        mask = durations[None, None, :] >= grid[:, k, None, None]
        acc = acc + np.where(mask, value, zero)
    return acc.tolist()


def _oracle_points_python(points: Sequence[tuple[float, float]],
                          dp_nw: Sequence[float],
                          overhead_ns: Sequence[float],
                          energy_pj: Sequence[float]) -> list[float]:
    """Clairvoyant per-cluster savings (the engine's max(0, .) rule).

    Always evaluated scalar-side: it is a tiny (clusters x points)
    sweep, and keeping it off the batched path makes the oracle number
    trivially backend-independent.
    """
    acc = [0.0] * len(points)
    for k, dp in enumerate(dp_nw):
        oh = overhead_ns[k]
        energy = energy_pj[k]
        for p, (duration, _weight) in enumerate(points):
            value = dp * (duration - oh) * _NW_NS_TO_PJ - energy
            acc[p] = acc[p] + (value if value > 0.0 else 0.0)
    return acc


class PolicyOptimizer:
    """Sweeps candidate sleep policies for one finished design."""

    def __init__(self, netlist: Netlist, library: Library,
                 network: VgndNetwork,
                 scenarios: Sequence[PowerModeScenario],
                 corners: Sequence[str] = (NOMINAL_CORNER,),
                 candidates: int = 1024,
                 max_domains: int = 4,
                 settle_fraction: float = 0.05,
                 rush_budget_ma: float | None = None,
                 parasitics: Mapping[str, Any] | None = None,
                 compute_backend: str | None = None,
                 corner_libraries: Mapping[str, Library] | None = None,
                 circuit: str | None = None,
                 technique: Technique = Technique.IMPROVED_SMT):
        if not network.clusters:
            raise StandbyError(
                "the design has no VGND clusters; sleep-policy "
                "optimization needs the improved-SMT switch structure")
        if not scenarios:
            raise StandbyError("no power-mode scenarios given")
        if candidates < 1:
            raise StandbyError(
                f"candidate budget must be positive, got {candidates!r}")
        self.netlist = netlist
        self.library = library
        self.network = network
        self.scenarios = list(scenarios)
        self.corners = tuple(corners) or (NOMINAL_CORNER,)
        self.candidates = int(candidates)
        self.max_domains = int(max_domains)
        self.settle_fraction = settle_fraction
        self.rush_budget_ma = rush_budget_ma
        self.parasitics = parasitics
        self.compute_backend = resolve_backend(compute_backend)
        self.corner_libraries = dict(corner_libraries or {})
        self.circuit = circuit or netlist.name
        self.technique = Technique(technique)

    # --- public -------------------------------------------------------------

    def run(self) -> PolicyResult:
        with span("policy.optimize", corners=len(self.corners),
                  scenarios=len(self.scenarios),
                  clusters=len(self.network.clusters),
                  candidates=self.candidates):
            result = self._run_impl()
        REGISTRY.inc("policy.sweeps")
        REGISTRY.inc("policy.candidates", result.candidates)
        REGISTRY.observe("policy.pareto_points", len(result.pareto))
        return result

    def _run_impl(self) -> PolicyResult:
        points: list[tuple[float, float]] = []
        spans: list[tuple[int, int]] = []
        for scenario in self.scenarios:
            start = len(points)
            points.extend(scenario.idle_points())
            spans.append((start, len(points)))

        # Per-corner scalar prologue: transients, domain schedules.
        corner_transients: list[list[ClusterTransient]] = []
        budgets: list[float] = []
        for corner_name in self.corners:
            library = self._corner_library(corner_name)
            transients = TransientSolver(
                self.network, self.netlist, library,
                settle_fraction=self.settle_fraction,
                parasitics=self.parasitics).solve()
            budget = self.rush_budget_ma
            if budget is None:
                budget = default_rush_budget_ma(transients)
            corner_transients.append(list(transients))
            budgets.append(budget)

        partitions = plan_partitions(corner_transients[0],
                                     self.max_domains)
        # plans_by_corner[c][j], oh_plan indexed (j, c, k).
        plans_by_corner: list[list[DomainPlan]] = []
        oh_plan: list[list[list[float]]] = \
            [[] for _ in partitions]
        for c, transients in enumerate(corner_transients):
            row: list[DomainPlan] = []
            for j, partition in enumerate(partitions):
                plan, overheads = characterize_plan(
                    partition, transients, budgets[c])
                row.append(plan)
                oh_plan[j].append(overheads)
            plans_by_corner.append(row)

        dp_nw = [[tr.leakage_savings_nw for tr in transients]
                 for transients in corner_transients]
        energy_pj = [[tr.energy_per_cycle_pj for tr in transients]
                     for transients in corner_transients]

        policies = self._candidates(plans_by_corner[0])
        plan_of = [policy.plan for policy in policies]
        order = [tr.cluster_index for tr in corner_transients[0]]
        thresholds = [
            self._cluster_thresholds(policy, partitions, order)
            for policy in policies]

        if self.compute_backend == "numpy":
            accs = _sweep_numpy(points, dp_nw, energy_pj, oh_plan,
                                plan_of, thresholds)
        else:
            accs = _sweep_python(points, dp_nw, energy_pj, oh_plan,
                                 plan_of, thresholds)

        nets = [self._worst_corner_net(acc, points, spans)
                for acc in accs]
        pareto = self._pareto(policies, nets, plans_by_corner)
        oracle = self._oracle(points, spans, corner_transients,
                              dp_nw, energy_pj)
        return PolicyResult(
            circuit=self.circuit,
            technique=self.technique,
            compute_backend=self.compute_backend,
            clusters=len(self.network.clusters),
            settle_fraction=self.settle_fraction,
            scenarios=tuple(s.name for s in self.scenarios),
            corners=self.corners,
            candidates=len(policies),
            plans=tuple(plan.name for plan in plans_by_corner[0]),
            rush_budget_ma=budgets[0],
            oracle_net_savings_pj=oracle,
            pareto=pareto)

    # --- internals -----------------------------------------------------------

    def _corner_library(self, corner_name: str) -> Library:
        cached = self.corner_libraries.get(corner_name)
        if cached is not None:
            return cached
        from repro.variation.corners import (
            derive_corner_library_cached,
            resolve_corner,
        )

        corner = resolve_corner(corner_name, self.library.tech)
        derived = derive_corner_library_cached(self.library, corner)
        self.corner_libraries[corner_name] = derived
        return derived

    def _candidates(self, plans: Sequence[DomainPlan]
                    ) -> list[SleepPolicy]:
        """The deterministic candidate list (>= the requested count).

        Per plan: a global factor sweep over the domain break-even
        anchors, plus one leave-awake sweep per domain.  Quotas round
        up, so len(result) >= self.candidates always.
        """
        quota = -(-self.candidates // len(plans))     # ceil
        policies: list[SleepPolicy] = []
        for j, plan in enumerate(plans):
            anchors = [domain.break_even_ns for domain in plan.domains]
            ndom = len(anchors)
            per_axis = -(-quota // (ndom + 1))        # ceil
            factors = threshold_factors(per_axis)
            for factor in factors:
                policies.append(SleepPolicy(
                    plan=j,
                    thresholds_ns=tuple(factor * anchor
                                        for anchor in anchors)))
            for awake in range(ndom):
                for factor in factors:
                    thresholds = [factor * anchor for anchor in anchors]
                    thresholds[awake] = math.inf
                    policies.append(SleepPolicy(
                        plan=j, thresholds_ns=tuple(thresholds)))
        return policies

    def _cluster_thresholds(self, policy: SleepPolicy, partitions,
                            order: Sequence[int]) -> list[float]:
        """Expand per-domain thresholds to the cluster axis."""
        partition = partitions[policy.plan]
        by_cluster: dict[int, float] = {}
        for members, threshold in zip(partition, policy.thresholds_ns):
            for index in members:
                by_cluster[index] = threshold
        return [by_cluster[index] for index in order]

    def _worst_corner_net(self, acc_rows, points, spans) -> list[float]:
        """Per-corner horizon nets -> [net_c...] for one policy."""
        nets = []
        for acc in acc_rows:
            net = 0.0
            for scenario, (start, stop) in zip(self.scenarios, spans):
                per_event = 0.0
                for p in range(start, stop):
                    per_event += points[p][1] * acc[p]
                net += scenario.sleep_events * per_event
            nets.append(net)
        return nets

    def _pareto(self, policies: Sequence[SleepPolicy],
                nets: Sequence[Sequence[float]],
                plans_by_corner) -> tuple[PolicyPoint, ...]:
        """Dominance-filter the sweep, deterministically ordered."""
        rows: list[tuple[int, float, float, float]] = []
        for i, policy in enumerate(policies):
            net = min(nets[i])
            wake = 0.0
            rush = 0.0
            for c in range(len(self.corners)):
                plan = plans_by_corner[c][policy.plan]
                for domain, threshold in zip(plan.domains,
                                             policy.thresholds_ns):
                    if math.isfinite(threshold):
                        wake = max(wake, domain.wake_latency_ns)
                        rush = max(rush, domain.peak_rush_ma)
            rows.append((i, net, wake, rush))

        # Exact-duplicate metric triples keep the lowest candidate id.
        seen: set[tuple[float, float, float]] = set()
        unique: list[tuple[int, float, float, float]] = []
        for row in rows:
            key = (row[1], row[2], row[3])
            if key in seen:
                continue
            seen.add(key)
            unique.append(row)

        front: list[tuple[int, float, float, float]] = []
        for row in unique:
            _, net, wake, rush = row
            dominated = False
            for _, net2, wake2, rush2 in unique:
                if net2 >= net and wake2 <= wake and rush2 <= rush \
                        and (net2 > net or wake2 < wake
                             or rush2 < rush):
                    dominated = True
                    break
            if not dominated:
                front.append(row)
        front.sort(key=lambda row: (-row[1], row[2], row[3], row[0]))

        first_plans = plans_by_corner[0]
        points = []
        for i, net, wake, rush in front:
            policy = policies[i]
            plan = first_plans[policy.plan]
            points.append(PolicyPoint(
                policy_id=i,
                plan=plan.name,
                domains=tuple(domain.clusters
                              for domain in plan.domains),
                thresholds_ns=policy.thresholds_ns,
                net_savings_pj=net,
                worst_wake_latency_ns=wake,
                peak_rush_ma=rush,
                sleeping_domains=policy.sleeping_domains))
        return tuple(points)

    def _oracle(self, points, spans, corner_transients, dp_nw,
                energy_pj) -> float:
        """Worst-corner clairvoyant per-cluster upper bound.

        Every cluster is its own domain (the minimal-overhead plan:
        entry is its own sleep latency, settle its own wake latency)
        and sleeps exactly when an interval pays — no candidate under
        any plan can beat it.
        """
        worst = math.inf
        for c, transients in enumerate(corner_transients):
            overheads = [tr.sleep_latency_ns + tr.wake_latency_ns
                         for tr in transients]
            acc = _oracle_points_python(points, dp_nw[c], overheads,
                                        energy_pj[c])
            net = 0.0
            for scenario, (start, stop) in zip(self.scenarios, spans):
                per_event = 0.0
                for p in range(start, stop):
                    per_event += points[p][1] * acc[p]
                net += scenario.sleep_events * per_event
            worst = min(worst, net)
        return worst


@dataclasses.dataclass(frozen=True)
class PolicyRequest:
    """Sleep-policy sweep of one technique's finished design.

    Sweeps at least ``candidates`` (domain plan, per-domain threshold)
    policies through the batched scenario engine and returns the
    Pareto front of (net savings, worst wake latency, peak rush).
    Scenario and corner semantics match
    :class:`~repro.standby.engine.StandbyRequest` (including
    user-defined ``scenario_payloads``); ``max_domains`` bounds the
    hierarchical power-domain plans swept alongside the per-cluster
    plan.
    """

    technique: Technique = Technique.IMPROVED_SMT
    scenarios: tuple[str, ...] = ()
    scenario_payloads: tuple[PowerModeScenario, ...] = ()
    corners: tuple[str, ...] = ()
    candidates: int = 1024
    max_domains: int = 4
    rush_budget_ma: float | None = None
    settle_fraction: float = 0.05

    def __post_init__(self):
        if not all(isinstance(s, str) and s for s in self.scenarios):
            raise ConfigError(
                "scenarios",
                f"must be non-empty names, got {self.scenarios!r}")
        check_scenario_payloads(self.scenario_payloads, self.scenarios)
        if not all(isinstance(c, str) and c for c in self.corners):
            raise ConfigError(
                "corners", f"must be non-empty names, got {self.corners!r}")
        if self.candidates < 1:
            raise ConfigError(
                "candidates",
                f"needs at least one, got {self.candidates!r}")
        if self.max_domains < 1:
            raise ConfigError(
                "max_domains",
                f"needs at least one domain, got {self.max_domains!r}")
        if self.rush_budget_ma is not None and self.rush_budget_ma <= 0:
            raise ConfigError(
                "rush_budget_ma",
                f"must be positive when set, got {self.rush_budget_ma!r}")
        if not 0.0 < self.settle_fraction < 0.5:
            raise ConfigError(
                "settle_fraction",
                f"must be in (0, 0.5), got {self.settle_fraction!r}")

    @classmethod
    def from_config(cls, config: FlowConfig,
                    **overrides) -> "PolicyRequest":
        """The request the ``policy_signoff`` stage runs for
        ``config``; ``overrides`` replace single fields.  A config
        that leaves the stage off (``policy_candidates == 0``) still
        yields a usable sweep of 1024 candidates."""
        return analysis_request(cls, {
            "scenarios": config.standby_scenarios,
            "corners": config.signoff_corners,
            "candidates": config.policy_candidates or 1024,
            "max_domains": config.policy_max_domains,
            "rush_budget_ma": config.standby_rush_budget_ma,
            "settle_fraction": config.standby_settle_fraction,
        }, overrides)


def run_policy(design, library: Library, request: PolicyRequest,
               corner_library: Callable[[str], Library], *,
               circuit: str, compute_backend: str | None = None
               ) -> PolicyResult:
    """Sleep-policy sweep of a finished design — the one run path
    behind the ``policy_signoff`` flow stage and ``Design.policy()``.

    Design, corner-library and corner-default semantics match
    :func:`repro.standby.engine.run_standby`.
    """
    from repro.variation.corners import default_signoff_corners

    require_switch_network(design, request.technique,
                           "sleep-policy optimization")
    corners = request.corners or default_signoff_corners(library.tech)
    return PolicyOptimizer(
        design.netlist, library, design.network,
        request_scenarios(request), corners=corners,
        candidates=request.candidates,
        max_domains=request.max_domains,
        settle_fraction=request.settle_fraction,
        rush_budget_ma=request.rush_budget_ma,
        parasitics=design.parasitics,
        compute_backend=compute_backend,
        corner_libraries={name: corner_library(name) for name in corners},
        circuit=circuit, technique=request.technique).run()
