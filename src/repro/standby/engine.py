"""The batched power-mode scenario engine.

For every requested PVT corner the engine characterizes the VGND
network (:class:`~repro.standby.transient.TransientSolver`), builds
the staged wake-up schedule
(:class:`~repro.standby.schedule.RushScheduler`), and then evaluates
every power-mode scenario against every cluster:

    net savings per idle interval
        = sum over clusters k of
            max(0, dP_k * (T - overhead_k) * 1e-6 - E_k)   [pJ]

where ``dP_k`` is the cluster's leakage saved while asleep (nW),
``overhead_k`` its sleep-entry latency plus its *scheduled* wake
settle (ns), ``E_k`` its per-cycle transition energy (pJ), and ``T``
an idle-interval duration from the scenario's quantile grid
(nW x ns = 1e-6 pJ).  The max(0, .) is the per-cluster sleep policy:
a cluster that cannot pay for its transition over an interval simply
keeps its switch on.

**Backend contract.**  The hot loop runs over every
``(scenario-quantile-point x cluster)`` pair per corner.  Both the
scalar reference and the numpy path perform *the same IEEE operations
in the same order* — all transcendentals are evaluated scalar-side
(transients, quantile grids), the batch is pure
multiply/subtract/max, and cluster accumulation is an ordered
left-to-right reduction on both paths — so ``StandbyResult`` numbers
are bit-identical across backends (enforced by ``tests/standby``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping, Sequence

from repro.compute import resolve_backend
from repro.config import FlowConfig, Technique, analysis_request
from repro.errors import ConfigError, FlowError, StandbyError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.spans import span
from repro.standby.scenario import (
    PowerModeScenario,
    check_scenario_payloads,
    request_scenarios,
)
from repro.standby.schedule import (
    RushScheduler,
    WakeupSchedule,
    default_rush_budget_ma,
)
from repro.standby.transient import ClusterTransient, TransientSolver
from repro.vgnd.network import VgndNetwork

#: nW x ns -> pJ.
_NW_NS_TO_PJ = 1e-6

#: The corner every default analysis runs at.
NOMINAL_CORNER = "tt_nom"


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """One (scenario, corner) cell of the analysis grid."""

    scenario: str
    corner: str
    sleep_events: float            # idle intervals over the horizon
    savings_per_event_pj: float    # expected net savings per interval
    net_savings_pj: float          # over the scenario horizon
    savings_fraction: float        # of the always-on leakage energy
    break_even_ns: float           # network-level break-even interval
    worthwhile: bool               # net savings > 0

    def as_dict(self) -> dict[str, Any]:
        from repro.api import schemas  # lazy: loads the registry

        return schemas.to_dict(self)


@dataclasses.dataclass(frozen=True)
class StandbyCornerRow:
    """The corner-dependent transition numbers (wake latency & co)."""

    corner: str
    wake_latency_ns: float         # staged-schedule makespan
    serial_wake_latency_ns: float  # daisy-chain reference
    sleep_latency_ns: float        # slowest cluster's entry
    peak_rush_ma: float
    rush_budget_ma: float
    bins: int
    cycle_energy_pj: float         # one full sleep/wake cycle
    sleep_leakage_nw: float
    active_leakage_nw: float
    break_even_ns: float

    def as_dict(self) -> dict[str, Any]:
        from repro.api import schemas  # lazy: loads the registry

        return schemas.to_dict(self)


@dataclasses.dataclass(frozen=True)
class StandbyResult:
    """The full standby-transition signoff of one design."""

    circuit: str
    technique: Technique
    compute_backend: str
    clusters: int
    settle_fraction: float
    scenarios: tuple[str, ...]
    corners: tuple[str, ...]
    #: Transients and schedule of the FIRST configured corner (the
    #: convenience properties below read the same row; per-corner
    #: numbers live in corner_rows).
    transients: tuple[ClusterTransient, ...]
    schedule: WakeupSchedule
    corner_rows: tuple[StandbyCornerRow, ...]
    outcomes: tuple[ScenarioOutcome, ...]      # scenario-major order

    @property
    def wake_latency_ns(self) -> float:
        """Staged wake latency at the first configured corner."""
        return self.corner_rows[0].wake_latency_ns

    @property
    def peak_rush_ma(self) -> float:
        """Peak aggregate rush at the first configured corner."""
        return self.corner_rows[0].peak_rush_ma

    @property
    def break_even_ns(self) -> float:
        """Break-even idle interval at the first configured corner."""
        return self.corner_rows[0].break_even_ns

    def corner_row(self, corner: str) -> StandbyCornerRow:
        for row in self.corner_rows:
            if row.corner == corner:
                return row
        raise KeyError(f"no standby corner row for {corner!r}")

    def outcome(self, scenario: str, corner: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario == scenario and outcome.corner == corner:
                return outcome
        raise KeyError(f"no outcome for ({scenario!r}, {corner!r})")

    def as_dict(self) -> dict[str, Any]:
        from repro.api import schemas  # lazy: loads the registry

        return schemas.to_dict(self)


# --- the batched kernel ------------------------------------------------------


def _point_savings_python(points: Sequence[tuple[float, float]],
                          dp_nw: Sequence[float],
                          overhead_ns: Sequence[float],
                          energy_pj: Sequence[float]) -> list[float]:
    """Scalar reference: net savings per quantile point, summed over
    clusters in index order."""
    acc = [0.0] * len(points)
    for k, dp in enumerate(dp_nw):
        oh = overhead_ns[k]
        energy = energy_pj[k]
        for p, (duration, _weight) in enumerate(points):
            value = dp * (duration - oh) * _NW_NS_TO_PJ - energy
            acc[p] = acc[p] + (value if value > 0.0 else 0.0)
    return acc


def _point_savings_numpy(points: Sequence[tuple[float, float]],
                         dp_nw: Sequence[float],
                         overhead_ns: Sequence[float],
                         energy_pj: Sequence[float]) -> list[float]:
    """Vectorized path: same operations, same order, over arrays.

    The cluster loop stays a left-to-right accumulation (one vector
    add per cluster), so every element's float-op sequence matches the
    scalar reference exactly.
    """
    import numpy as np

    durations = np.array([duration for duration, _w in points],
                         dtype=float)
    acc = np.zeros(len(points), dtype=float)
    zero = np.float64(0.0)
    for k, dp in enumerate(dp_nw):
        value = np.float64(dp) * (durations - np.float64(overhead_ns[k])) \
            * np.float64(_NW_NS_TO_PJ) - np.float64(energy_pj[k])
        acc = acc + np.maximum(value, zero)
    return acc.tolist()


def _point_savings_numpy_corners(points: Sequence[tuple[float, float]],
                                 dp_nw: Sequence[Sequence[float]],
                                 overhead_ns: Sequence[Sequence[float]],
                                 energy_pj: Sequence[Sequence[float]]
                                 ) -> list[list[float]]:
    """Corner-batched path: every corner's quantile grid in one stack.

    Inputs are ``(corners x clusters)`` tables; the result row for
    corner ``c`` is bit-identical to
    ``_point_savings_numpy(points, dp_nw[c], ...)`` because the
    per-element float-op sequence (multiply, subtract, multiply,
    subtract, max, ordered add per cluster) is unchanged — the corner
    axis only widens each vector op.
    """
    import numpy as np

    durations = np.array([duration for duration, _w in points],
                         dtype=float)
    dp = np.asarray(dp_nw, dtype=float)
    oh = np.asarray(overhead_ns, dtype=float)
    energy = np.asarray(energy_pj, dtype=float)
    acc = np.zeros((dp.shape[0], len(points)), dtype=float)
    zero = np.float64(0.0)
    for k in range(dp.shape[1]):
        value = dp[:, k, None] * (durations[None, :] - oh[:, k, None]) \
            * np.float64(_NW_NS_TO_PJ) - energy[:, k, None]
        acc = acc + np.maximum(value, zero)
    return acc.tolist()


class StandbyEngine:
    """Runs the standby-transition analysis for one finished design."""

    def __init__(self, netlist: Netlist, library: Library,
                 network: VgndNetwork,
                 scenarios: Sequence[PowerModeScenario],
                 corners: Sequence[str] = (NOMINAL_CORNER,),
                 settle_fraction: float = 0.05,
                 rush_budget_ma: float | None = None,
                 parasitics: Mapping[str, Any] | None = None,
                 compute_backend: str | None = None,
                 corner_libraries: Mapping[str, Library] | None = None,
                 circuit: str | None = None,
                 technique: Technique = Technique.IMPROVED_SMT):
        if not network.clusters:
            raise StandbyError(
                "the design has no VGND clusters; standby-transition "
                "analysis needs the improved-SMT switch structure")
        if not scenarios:
            raise StandbyError("no power-mode scenarios given")
        self.netlist = netlist
        self.library = library
        self.network = network
        self.scenarios = list(scenarios)
        self.corners = tuple(corners) or (NOMINAL_CORNER,)
        self.settle_fraction = settle_fraction
        self.rush_budget_ma = rush_budget_ma
        self.parasitics = parasitics
        self.compute_backend = resolve_backend(compute_backend)
        self.corner_libraries = dict(corner_libraries or {})
        self.circuit = circuit or netlist.name
        self.technique = Technique(technique)

    # --- public -------------------------------------------------------------

    def run(self) -> StandbyResult:
        with span("standby.run", corners=len(self.corners),
                  scenarios=len(self.scenarios),
                  clusters=len(self.network.clusters)):
            return self._run_impl()

    def _run_impl(self) -> StandbyResult:
        # The quantile grids are corner-independent: build them once.
        points: list[tuple[float, float]] = []
        spans: list[tuple[int, int]] = []
        for scenario in self.scenarios:
            start = len(points)
            points.extend(scenario.idle_points())
            spans.append((start, len(points)))

        # Per-corner scalar work (transients, scheduling) runs first;
        # the break-even sweep itself is deferred so every corner's
        # quantile grid rides ONE stacked kernel call on numpy.
        first_transients: tuple[ClusterTransient, ...] | None = None
        first_schedule: WakeupSchedule | None = None
        corner_rows: list[StandbyCornerRow] = []
        dp_rows: list[list[float]] = []
        oh_rows: list[list[float]] = []
        energy_rows: list[list[float]] = []
        for corner_name in self.corners:
            library = self._corner_library(corner_name)
            transients = TransientSolver(
                self.network, self.netlist, library,
                settle_fraction=self.settle_fraction,
                parasitics=self.parasitics).solve()
            budget = self.rush_budget_ma
            if budget is None:
                budget = default_rush_budget_ma(transients)
            schedule = RushScheduler(transients, budget).schedule()
            if first_transients is None:
                first_transients = tuple(transients)
                first_schedule = schedule
            corner_rows.append(
                self._corner_row(corner_name, transients, schedule))
            dp_nw, overhead_ns, energy_pj = self._cluster_vectors(
                transients, schedule)
            dp_rows.append(dp_nw)
            oh_rows.append(overhead_ns)
            energy_rows.append(energy_pj)

        if self.compute_backend == "numpy" and len(self.corners) > 1:
            accs = _point_savings_numpy_corners(points, dp_rows,
                                               oh_rows, energy_rows)
        elif self.compute_backend == "numpy":
            accs = [_point_savings_numpy(points, dp_rows[0], oh_rows[0],
                                         energy_rows[0])]
        else:
            accs = [_point_savings_python(points, dp, oh, energy)
                    for dp, oh, energy in zip(dp_rows, oh_rows,
                                              energy_rows)]

        grid: dict[tuple[str, str], ScenarioOutcome] = {}
        for corner_name, row, acc in zip(self.corners, corner_rows,
                                         accs):
            for scenario, outcome in self._scenario_outcomes(
                    corner_name, row, acc, points, spans):
                grid[(scenario, corner_name)] = outcome

        outcomes = tuple(grid[(scenario.name, corner_name)]
                         for scenario in self.scenarios
                         for corner_name in self.corners)
        return StandbyResult(
            circuit=self.circuit,
            technique=self.technique,
            compute_backend=self.compute_backend,
            clusters=len(self.network.clusters),
            settle_fraction=self.settle_fraction,
            scenarios=tuple(s.name for s in self.scenarios),
            corners=self.corners,
            transients=first_transients,
            schedule=first_schedule,
            corner_rows=tuple(corner_rows),
            outcomes=outcomes)

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

    @staticmethod
    def _corner_row(corner_name: str,
                    transients: Sequence[ClusterTransient],
                    schedule: WakeupSchedule) -> StandbyCornerRow:
        cycle_energy = 0.0
        sleep_leak = 0.0
        active_leak = 0.0
        sleep_latency = 0.0
        for transient in transients:
            cycle_energy += transient.energy_per_cycle_pj
            sleep_leak += transient.sleep_leakage_nw
            active_leak += transient.active_leakage_nw
            sleep_latency = max(sleep_latency,
                                transient.sleep_latency_ns)
        saved = active_leak - sleep_leak
        overhead = sleep_latency + schedule.total_latency_ns
        if saved > 0.0:
            break_even = overhead + cycle_energy / (saved * _NW_NS_TO_PJ)
        else:
            break_even = math.inf
        return StandbyCornerRow(
            corner=corner_name,
            wake_latency_ns=schedule.total_latency_ns,
            serial_wake_latency_ns=schedule.serial_latency_ns,
            sleep_latency_ns=sleep_latency,
            peak_rush_ma=schedule.peak_aggregate_ma,
            rush_budget_ma=schedule.budget_ma,
            bins=schedule.bins,
            cycle_energy_pj=cycle_energy,
            sleep_leakage_nw=sleep_leak,
            active_leakage_nw=active_leak,
            break_even_ns=break_even)

    @staticmethod
    def _cluster_vectors(transients: Sequence[ClusterTransient],
                         schedule: WakeupSchedule
                         ) -> tuple[list[float], list[float], list[float]]:
        dp_nw = [tr.leakage_savings_nw for tr in transients]
        energy_pj = [tr.energy_per_cycle_pj for tr in transients]
        settles = {event.cluster_index: event.settle_ns
                   for event in schedule.events}
        overhead_ns = [transient.sleep_latency_ns
                       + settles[transient.cluster_index]
                       for transient in transients]
        return dp_nw, overhead_ns, energy_pj

    def _scenario_outcomes(self, corner_name: str, row: StandbyCornerRow,
                           acc: Sequence[float],
                           points: list[tuple[float, float]],
                           spans: list[tuple[int, int]]):
        for scenario, (start, stop) in zip(self.scenarios, spans):
            per_event = 0.0
            for p in range(start, stop):
                per_event += points[p][1] * acc[p]
            net = scenario.sleep_events * per_event
            active_energy = row.active_leakage_nw \
                * scenario.horizon_ns * _NW_NS_TO_PJ
            fraction = net / active_energy if active_energy > 0.0 else 0.0
            yield scenario.name, ScenarioOutcome(
                scenario=scenario.name,
                corner=corner_name,
                sleep_events=scenario.sleep_events,
                savings_per_event_pj=per_event,
                net_savings_pj=net,
                savings_fraction=fraction,
                break_even_ns=row.break_even_ns,
                worthwhile=net > 0.0)


@dataclasses.dataclass(frozen=True)
class StandbyRequest:
    """Standby-transition study of one technique's finished design.

    Empty ``scenarios`` means every built-in power-mode scenario
    (:func:`repro.standby.scenario.standard_scenarios`); empty
    ``corners`` means the technology's default signoff set, so wake
    latency and rush current are checked where they are worst.
    ``rush_budget_ma=None`` derives the default di/dt budget.

    ``scenario_payloads`` carries fully user-defined scenarios (any
    distribution, including ``empirical`` quantile grids built from
    idle traces by :mod:`repro.policy.traces`); they are evaluated
    alongside the named ones, and names must not collide.
    """

    technique: Technique = Technique.IMPROVED_SMT
    scenarios: tuple[str, ...] = ()
    scenario_payloads: tuple[PowerModeScenario, ...] = ()
    corners: tuple[str, ...] = ()
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
                    **overrides) -> "StandbyRequest":
        """The request the ``standby_signoff`` stage runs for
        ``config``; ``overrides`` replace single fields."""
        return analysis_request(cls, {
            "scenarios": config.standby_scenarios,
            "corners": config.signoff_corners,
            "rush_budget_ma": config.standby_rush_budget_ma,
            "settle_fraction": config.standby_settle_fraction,
        }, overrides)


def has_switch_network(design) -> bool:
    """Whether a finished design built the shared-switch VGND network
    the standby and policy analyses characterize (improved SMT only)."""
    return design.network is not None and bool(design.network.clusters)


def require_switch_network(design, technique: Technique,
                           analysis: str) -> None:
    if not has_switch_network(design):
        raise FlowError(
            f"technique {technique.value!r} builds no shared-switch "
            f"VGND network; {analysis} needs improved_smt")


def run_standby(design, library: Library, request: StandbyRequest,
                corner_library: Callable[[str], Library], *,
                circuit: str, compute_backend: str | None = None
                ) -> StandbyResult:
    """Standby-transition analysis of a finished design — the one run
    path behind the ``standby_signoff`` flow stage and
    ``Design.standby()``.

    ``design`` is a flow context or flow result (its ``netlist``,
    ``network`` and ``parasitics`` are read); ``corner_library`` maps
    a corner name to its derived library, so each caller keeps its own
    cache.  Empty request corners mean the technology's default
    signoff set.
    """
    from repro.variation.corners import default_signoff_corners

    require_switch_network(design, request.technique,
                           "standby-transition analysis")
    corners = request.corners or default_signoff_corners(library.tech)
    return StandbyEngine(
        design.netlist, library, design.network,
        request_scenarios(request), corners=corners,
        settle_fraction=request.settle_fraction,
        rush_budget_ma=request.rush_budget_ma,
        parasitics=design.parasitics,
        compute_backend=compute_backend,
        corner_libraries={name: corner_library(name) for name in corners},
        circuit=circuit, technique=request.technique).run()
