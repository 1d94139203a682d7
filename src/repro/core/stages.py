"""Composable stage pipeline for the Fig. 4 design flow.

Every Fig. 4 box is a named :class:`Stage` in a module-level registry;
a *technique* is nothing more than a list of stage keys
(:data:`PIPELINES`).  Stages communicate through a typed
:class:`FlowContext` instead of positional returns or ad-hoc tuples,
so custom pipelines can be assembled, reordered or truncated in tests
and examples::

    from repro.core.stages import FlowContext, StageRunner, build_pipeline

    ctx = FlowContext.create(netlist, library, Technique.DUAL_VTH, config)
    StageRunner(build_pipeline(Technique.DUAL_VTH)).run(ctx)

or, with a hand-picked stage list::

    StageRunner(["physical_synthesis", "pre_route_estimation",
                 "derive_constraints"]).run(ctx)

A stage returns a details dict (recorded as a
:class:`StageReport` with its wall-clock) or ``None`` for hidden
plumbing stages (estimation, teardown, finalize) that Fig. 4 does not
draw as boxes.  Timing-heavy stages share one incremental
:class:`~repro.timing.session.TimingSession` per (constraints,
parasitics) regime — see ``ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

from repro.config import FlowConfig, Technique
from repro.core.dual_vth import AssignmentResult, DualVthAssigner
from repro.core.eco import EcoResult, HoldFixer, SetupFixer
from repro.core.improved_smt import ImprovedSmtBuilder, ImprovedSmtResult
from repro.core.mte import MteBufferTree, MteTreeResult
from repro.core.output_holder import insert_output_holders
from repro.core.selective_mt import ConventionalSmtBuilder, ConventionalSmtResult
from repro.cts.tree import ClockTreeSynthesizer, CtsResult
from repro.errors import FlowError
from repro.liberty.library import Library, VARIANT_HVT, VARIANT_LVT
from repro.netlist.core import Instance, Netlist, PinDirection
from repro.netlist.techmap import technology_map
from repro.netlist.transform import swap_variant
from repro.netlist.validate import check_netlist
from repro.obs.spans import timed_span
from repro.placement.legalize import legalize
from repro.placement.placer import (
    GlobalPlacer,
    Placement,
    place_incremental,
)
from repro.power.leakage import LeakageAnalyzer, LeakageBreakdown
from repro.routing.extract import (
    NetParasitics,
    PostRouteExtractor,
    PreRouteEstimator,
)
from repro.routing.steiner import build_mst
from repro.policy.optimize import PolicyRequest, PolicyResult, run_policy
from repro.standby.engine import (
    StandbyRequest,
    StandbyResult,
    has_switch_network,
    run_standby,
)
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer, TimingReport
from repro.variation.corners import (
    derive_corner_library_cached,
    resolve_corner,
)
from repro.variation.signoff import CornerResult, SignoffRequest, run_signoff
from repro.vgnd.cluster import ClusterConfig
from repro.vgnd.em import check_em
from repro.vgnd.network import VgndNetwork
from repro.vgnd.refine import repair_unsizeable
from repro.vgnd.sizing import SwitchSizer


@dataclasses.dataclass
class StageReport:
    """One executed flow stage (one Fig. 4 box)."""

    name: str
    elapsed_s: float
    details: dict[str, Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        detail_text = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.name}] ({self.elapsed_s:.2f}s) {detail_text}"


@dataclasses.dataclass
class FlowContext:
    """Typed working state threaded through the stage pipeline.

    Replaces the old ``SelectiveMtFlow._improved_ctx`` tuple
    side-channel: every intermediate the improved technique carries
    between its boxes is a named field.
    """

    # Inputs (set at creation).
    technique: Technique
    config: FlowConfig
    library: Library
    source_netlist: Netlist

    # Produced by the pipeline.
    netlist: Netlist | None = None
    placement: Placement | None = None
    constraints: Constraints | None = None
    parasitics: dict[str, NetParasitics] = dataclasses.field(
        default_factory=dict)
    assignment: AssignmentResult | None = None
    smt_result: ConventionalSmtResult | ImprovedSmtResult | None = None
    network: VgndNetwork | None = None
    cts: CtsResult | None = None
    mte: MteTreeResult | None = None
    eco: EcoResult | None = None
    timing: TimingReport | None = None
    leakage: LeakageBreakdown | None = None
    total_area: float = 0.0
    corners: dict[str, CornerResult] = dataclasses.field(
        default_factory=dict)
    #: Corner-derived libraries shared by the signoff stages (derived
    #: at most once per corner per flow run).
    corner_libraries: dict[str, Library] = dataclasses.field(
        default_factory=dict)
    standby: "StandbyResult | None" = None
    policy: "PolicyResult | None" = None

    # Improved-SMT intermediates (between replacement and the switch
    # structure construction).
    improved_builder: ImprovedSmtBuilder | None = None
    mt_names: list[str] = dataclasses.field(default_factory=list)
    initial_switch: str | None = None
    holders: list[str] = dataclasses.field(default_factory=list)

    # Bookkeeping.
    stages: list[StageReport] = dataclasses.field(default_factory=list)
    sta_stats: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict)

    @classmethod
    def create(cls, netlist: Netlist, library: Library,
               technique: Technique = Technique.IMPROVED_SMT,
               config: FlowConfig | None = None) -> "FlowContext":
        if library.tech is None:
            raise FlowError("library carries no technology")
        return cls(technique=technique, config=config or FlowConfig(),
                   library=library, source_netlist=netlist)

    @property
    def tech(self):
        return self.library.tech

    def corner_library(self, name: str) -> Library:
        """Corner-derived library, derived at most once per flow run."""
        if name not in self.corner_libraries:
            self.corner_libraries[name] = derive_corner_library_cached(
                self.library, resolve_corner(name, self.tech))
        return self.corner_libraries[name]

    def require(self, *fields: str) -> None:
        """Fail fast when a stage runs before its prerequisites."""
        for field in fields:
            if getattr(self, field) is None:
                raise FlowError(
                    f"stage prerequisite {field!r} missing from the "
                    f"context; reorder the pipeline")

    def _make_session(self, constraints: Constraints,
                      derates=None, clock_arrivals=None
                      ) -> TimingSession | None:
        if not self.config.incremental_sta:
            return None
        return TimingSession(
            self.netlist, self.library, constraints,
            parasitics=self.parasitics, derates=derates,
            clock_arrivals=clock_arrivals,
            compute_backend=self.config.compute_backend)

    def _note_session(self, label: str, session: TimingSession | None,
                      details: dict[str, Any]) -> dict[str, Any]:
        if session is not None:
            stats = session.stats
            self.sta_stats[label] = stats.as_dict()
            details["sta_full"] = stats.full_runs
            details["sta_incremental"] = stats.incremental_runs
            details["sta_cached"] = stats.cached_reports
        return details


# --- registry ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Stage:
    """A named, reusable flow step.

    ``key`` is the unique registry handle; ``label`` is the name the
    stage reports under (the three assignment stages all report as
    ``vth_assignment``, matching Fig. 4's single replacement box).
    """

    key: str
    fn: Callable[[FlowContext], dict[str, Any] | None]
    label: str

    def run(self, ctx: FlowContext) -> dict[str, Any] | None:
        return self.fn(ctx)


STAGES: dict[str, Stage] = {}


def register_stage(stage: Stage) -> Stage:
    if stage.key in STAGES:
        raise FlowError(f"duplicate stage key {stage.key!r}")
    STAGES[stage.key] = stage
    return stage


def flow_stage(key: str, label: str | None = None):
    """Decorator: register a function as a named flow stage."""
    def decorate(fn):
        register_stage(Stage(key=key, fn=fn, label=label or key))
        return fn
    return decorate


def resolve_stage(stage: "Stage | str") -> Stage:
    if isinstance(stage, Stage):
        return stage
    try:
        return STAGES[stage]
    except KeyError:
        raise FlowError(
            f"unknown stage {stage!r}; known: {sorted(STAGES)}") from None


#: The three Fig. 4 techniques expressed as stage lists.
PIPELINES: dict[Technique, tuple[str, ...]] = {
    Technique.DUAL_VTH: (
        "physical_synthesis",
        "pre_route_estimation",
        "derive_constraints",
        "dual_vth_assignment",
        "eco_placement",
        "routing_cts_mte",
        "eco_and_sta",
        "corner_signoff",
        "standby_signoff",
        "policy_signoff",
        "finalize",
    ),
    Technique.CONVENTIONAL_SMT: (
        "physical_synthesis",
        "pre_route_estimation",
        "derive_constraints",
        "conventional_smt_assignment",
        "eco_placement",
        "routing_cts_mte",
        "eco_and_sta",
        "corner_signoff",
        "standby_signoff",
        "policy_signoff",
        "finalize",
    ),
    Technique.IMPROVED_SMT: (
        "physical_synthesis",
        "pre_route_estimation",
        "derive_constraints",
        "improved_smt_assignment",
        "initial_switch_teardown",
        "eco_placement",
        "switch_structure",
        "routing_cts_mte",
        "spef_reoptimization",
        "eco_and_sta",
        "corner_signoff",
        "standby_signoff",
        "policy_signoff",
        "finalize",
    ),
}


def build_pipeline(technique: Technique) -> list[Stage]:
    """The registered stage list for one of the paper's techniques."""
    return [resolve_stage(key) for key in PIPELINES[technique]]


class StageRunner:
    """Executes a stage list over a context, recording stage reports."""

    def __init__(self, stages: Iterable[Stage | str]):
        self.stages = [resolve_stage(stage) for stage in stages]

    def run(self, ctx: FlowContext) -> FlowContext:
        for stage in self.stages:
            # timed_span is the same perf_counter enter/exit pair the
            # runner always used (StageReport.elapsed_s unchanged);
            # with tracing on it additionally records a nested span
            # per stage, carrying the stage's report details.
            sp = timed_span(f"stage.{stage.key}", label=stage.label)
            with sp:
                details = stage.run(ctx)
                if details is not None:
                    sp.set(**details)
            if details is not None:
                ctx.stages.append(StageReport(
                    name=stage.label, elapsed_s=sp.elapsed_s,
                    details=details))
        return ctx


# --- stage implementations (the Fig. 4 boxes) -------------------------------


@flow_stage("physical_synthesis")
def stage_physical_synthesis(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 1: synthesis with low-Vth cells + initial placement."""
    netlist = ctx.source_netlist.clone()
    technology_map(netlist, ctx.library, VARIANT_LVT)
    problems = check_netlist(netlist, ctx.library)
    if problems:
        raise FlowError(f"netlist invalid after mapping: {problems[:3]}")
    placer = GlobalPlacer(netlist, ctx.library,
                          utilization=ctx.config.utilization,
                          aspect_ratio=ctx.config.aspect_ratio,
                          iterations=ctx.config.placer_iterations,
                          seed=ctx.config.placement_seed)
    placement = placer.run()
    legalize(placement, netlist, ctx.library)
    ctx.netlist = netlist
    ctx.placement = placement
    return {
        "instances": len(netlist.instances),
        "die": f"{placement.floorplan.width:.0f}x"
               f"{placement.floorplan.height:.0f}um",
    }


@flow_stage("pre_route_estimation")
def stage_pre_route_estimation(ctx: FlowContext) -> None:
    """Hidden plumbing: pre-route RC estimates for the assignment STA."""
    ctx.require("netlist", "placement")
    ctx.parasitics = PreRouteEstimator(ctx.netlist, ctx.placement,
                                       ctx.library).extract()
    return None


@flow_stage("derive_constraints")
def stage_derive_constraints(ctx: FlowContext) -> None:
    """Clock period = all-LVT critical delay x (1 + margin)."""
    ctx.require("netlist")
    if ctx.config.clock_period_ns is not None:
        ctx.constraints = Constraints(clock_period=ctx.config.clock_period_ns)
        return None
    probe = Constraints(clock_period=1000.0)
    report = TimingAnalyzer(ctx.netlist, ctx.library, probe,
                            parasitics=ctx.parasitics,
                            compute_backend=ctx.config.compute_backend).run()
    min_period = 1000.0 - report.wns
    if min_period <= 0:
        raise FlowError("could not derive a positive minimum period")
    ctx.constraints = Constraints(
        clock_period=min_period * (1.0 + ctx.config.timing_margin))
    return None


def _guardbanded(ctx: FlowContext) -> Constraints:
    """The assignment sees a guardbanded (slightly shorter) period so
    pre-route estimation error cannot break final timing closure."""
    ctx.require("constraints")
    return ctx.constraints.scaled(1.0 - ctx.config.assignment_guardband)


@flow_stage("dual_vth_assignment", label="vth_assignment")
def stage_dual_vth_assignment(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 2 for the Dual-Vth baseline [Wei et al. 2000]."""
    ctx.require("netlist")
    constraints = _guardbanded(ctx)
    session = ctx._make_session(constraints)
    assigner = DualVthAssigner(
        ctx.netlist, ctx.library, constraints, parasitics=ctx.parasitics,
        fast_variant=VARIANT_LVT, slow_variant=VARIANT_HVT,
        rounds=ctx.config.assignment_rounds, session=session,
        compute_backend=ctx.config.compute_backend)
    assignment = assigner.run()
    ctx.assignment = assignment
    return ctx._note_session("vth_assignment", session, {
        "low_vth": assignment.fast_count,
        "high_vth": assignment.slow_count,
        "sta_runs": assignment.sta_runs,
    })


@flow_stage("conventional_smt_assignment", label="vth_assignment")
def stage_conventional_smt_assignment(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 2, fast class = conventional MT-cells (Fig. 2)."""
    ctx.require("netlist")
    constraints = _guardbanded(ctx)
    session = ctx._make_session(constraints)
    builder = ConventionalSmtBuilder(
        ctx.netlist, ctx.library, constraints, parasitics=ctx.parasitics,
        rounds=ctx.config.assignment_rounds, session=session,
        compute_backend=ctx.config.compute_backend)
    smt_result = builder.run()
    ctx.smt_result = smt_result
    ctx.assignment = smt_result.assignment
    return ctx._note_session("vth_assignment", session, {
        "mt_cells": smt_result.mt_count,
        "high_vth": smt_result.assignment.slow_count,
        "sta_runs": smt_result.assignment.sta_runs,
    })


@flow_stage("improved_smt_assignment", label="vth_assignment")
def stage_improved_smt_assignment(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 boxes 2+3: MT replacement, VGND ports, initial switch."""
    ctx.require("netlist", "placement")
    constraints = _guardbanded(ctx)
    config = ctx.config
    cluster_config = ClusterConfig(
        bounce_limit_v=config.bounce_limit_v(ctx.tech.vdd),
        max_rail_length_um=config.max_rail_length_um,
        max_cells_per_switch=config.max_cells_per_switch,
        simultaneity_exponent=config.simultaneity_exponent,
        simultaneity_floor=config.simultaneity_floor)
    session = ctx._make_session(constraints)
    builder = ImprovedSmtBuilder(
        ctx.netlist, ctx.library, constraints, ctx.placement,
        cluster_config=cluster_config, parasitics=ctx.parasitics,
        rounds=config.assignment_rounds, session=session,
        compute_backend=config.compute_backend)
    assignment = builder.assign()
    mt_names = builder.add_vgnd_ports(assignment)
    initial_switch = builder.insert_initial_switch(mt_names)
    holders = builder.insert_holders()
    # The switch structure is built after ECO placement (the replaced
    # cells changed footprint); keep the intermediates on the context.
    ctx.assignment = assignment
    ctx.improved_builder = builder
    ctx.mt_names = mt_names
    ctx.initial_switch = initial_switch
    ctx.holders = holders
    return ctx._note_session("vth_assignment", session, {
        "mt_cells": len(mt_names),
        "high_vth": assignment.slow_count,
        "sta_runs": assignment.sta_runs,
    })


@flow_stage("initial_switch_teardown")
def stage_initial_switch_teardown(ctx: FlowContext) -> None:
    """Hidden plumbing: drop the transient single-switch structure.

    It is about to be replaced by the clustered structure, and the
    replaced cells changed footprint, so it must not survive into the
    ECO placement.
    """
    if ctx.improved_builder is None:
        return None
    ctx.improved_builder.teardown_initial_switch(ctx.mt_names,
                                                 ctx.initial_switch)
    ctx.initial_switch = None
    return None


@flow_stage("eco_placement")
def stage_eco_placement(ctx: FlowContext) -> dict[str, Any]:
    """Re-place after replacement: MTV/CMT cells changed footprint.

    LVT/HVT/MT swaps are footprint-compatible, but the VGND-port and
    embedded-switch variants are larger, so the initial rows no longer
    fit; an ECO placement restores a legal, congestion-aware layout
    before the switch structure and routing are built.
    """
    ctx.require("netlist")
    placer = GlobalPlacer(ctx.netlist, ctx.library,
                          utilization=ctx.config.utilization,
                          aspect_ratio=ctx.config.aspect_ratio,
                          iterations=ctx.config.placer_iterations,
                          seed=ctx.config.placement_seed)
    placement = placer.run()
    legalize(placement, ctx.netlist, ctx.library)
    for port_name in ctx.netlist.ports:
        placement.ensure_port_location(port_name)
    ctx.placement = placement
    return {
        "die": f"{placement.floorplan.width:.0f}x"
               f"{placement.floorplan.height:.0f}um",
    }


@flow_stage("switch_structure")
def stage_switch_structure(ctx: FlowContext) -> dict[str, Any] | None:
    """Fig. 4 box 4: construct the shared switch structure."""
    if ctx.improved_builder is None:
        return None
    ctx.require("placement")
    builder = ctx.improved_builder
    builder.placement = ctx.placement
    network = builder.build_switch_structure(ctx.mt_names,
                                             ctx.initial_switch)
    ctx.network = network
    ctx.smt_result = ImprovedSmtResult(
        assignment=ctx.assignment, mt_cell_names=ctx.mt_names,
        holder_names=ctx.holders, network=network,
        mte_net_name=builder.mte_net_name)
    return {
        "clusters": len(network.clusters),
        "holders": len(ctx.holders),
        "worst_bounce_mv": round(network.worst_bounce_v() * 1e3, 2),
    }


@flow_stage("routing_cts_mte")
def stage_routing_cts_mte(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 5: routing including CTS, MTE buffering."""
    ctx.require("netlist", "placement")
    netlist = ctx.netlist
    placement = ctx.placement
    cts_result = None
    if any(inst.cell_name in ctx.library
           and ctx.library.cell(inst.cell_name).is_sequential
           for inst in netlist.instances.values()):
        cts = ClockTreeSynthesizer(
            netlist, ctx.library, placement,
            buffer_cell=ctx.config.cts_buffer_cell,
            fanout_limit=ctx.config.cts_fanout_limit)
        cts_result = cts.run()
    mte_result = None
    if ctx.technique != Technique.DUAL_VTH:
        mte = MteBufferTree(
            netlist, ctx.library, placement,
            buffer_cell=ctx.config.mte_buffer_cell,
            fanout_limit=ctx.config.mte_fanout_limit)
        mte_result = mte.run()
    legalize(placement, netlist, ctx.library)
    for port_name in netlist.ports:
        placement.ensure_port_location(port_name)
    extractor = PostRouteExtractor(netlist, placement, ctx.library)
    ctx.parasitics = extractor.extract()
    ctx.cts = cts_result
    ctx.mte = mte_result
    return {
        "cts_buffers": cts_result.buffer_count if cts_result else 0,
        "cts_skew_ps": round(cts_result.skew * 1e3, 1) if cts_result else 0,
        "mte_buffers": mte_result.buffer_count if mte_result else 0,
        "extracted_nets": len(ctx.parasitics),
    }


@flow_stage("spef_reoptimization")
def stage_spef_reoptimization(ctx: FlowContext) -> dict[str, Any] | None:
    """Fig. 4 box 6: switch re-optimization on post-route (SPEF) RC."""
    network = ctx.network
    if network is None:
        return None
    ctx.require("netlist", "placement")
    netlist = ctx.netlist
    placement = ctx.placement
    measured: dict[int, float] = {}
    for cluster in network.clusters:
        names = list(cluster.members)
        if cluster.switch_instance:
            names.append(cluster.switch_instance)
        points = [placement.locations.get(n, (0.0, 0.0)) for n in names]
        tree = build_mst(names, points)
        measured[cluster.index] = tree.total_length
    sizer = SwitchSizer(ctx.library, network.bounce_limit_v)
    outcome = sizer.reoptimize(network, measured, strict=False)
    splits = 0
    if outcome.unsizeable_clusters:
        # Structural half of the re-optimization: split clusters the
        # extracted rails show to be un-sizeable.
        splits = repair_unsizeable(
            netlist, ctx.library, placement, network, sizer,
            outcome.unsizeable_clusters,
            simultaneity_exponent=ctx.config.simultaneity_exponent,
            simultaneity_floor=ctx.config.simultaneity_floor)
        outcome = sizer.size_network(network)
    # Apply changed switch cells to the netlist instances.
    changed = 0
    for cluster in network.clusters:
        if cluster.switch_instance is None or cluster.switch_cell is None:
            continue
        inst = netlist.instances.get(cluster.switch_instance)
        if inst is not None and inst.cell_name != cluster.switch_cell:
            inst.cell_name = cluster.switch_cell
            changed += 1
    violations = check_em(network, ctx.library,
                          ctx.config.max_cells_per_switch)
    if violations:
        raise FlowError("EM violations after re-optimization: "
                        + "; ".join(v.render() for v in violations[:3]))
    return {
        "resized": outcome.resized_clusters,
        "applied": changed,
        "splits": splits,
        "worst_bounce_mv": round(outcome.worst_bounce_v * 1e3, 2),
    }


def make_fast_swap(ctx: FlowContext,
                   session: TimingSession | None = None
                   ) -> Callable[[Instance], bool]:
    """Technique-specific "re-accelerate this cell" ECO operation.

    When a timing session is supplied, every netlist mutation the swap
    performs is reported to it so the ECO loop stays incremental.
    """
    library = ctx.library
    netlist = ctx.netlist
    network = ctx.network
    placement = ctx.placement

    def swap_cell(inst, variant) -> None:
        if session is not None:
            session.swap_variant(inst, variant)
        else:
            swap_variant(netlist, inst, library, variant)

    def swap_dual(inst) -> bool:
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_LVT):
            return False
        swap_cell(inst, VARIANT_LVT)
        return True

    def swap_conventional(inst) -> bool:
        from repro.liberty.library import VARIANT_CMT
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_CMT):
            return False
        swap_cell(inst, VARIANT_CMT)
        mte_net = netlist.get_or_create_net("MTE")
        mte_pin = inst.pins.get("MTE")
        if mte_pin is not None and mte_pin.net is None:
            netlist.connect(inst, "MTE", mte_net, PinDirection.INPUT)
            if session is not None:
                session.touch_structural()
                session.touch_net(mte_net)
        return True

    def swap_improved(inst) -> bool:
        from repro.liberty.library import VARIANT_MTV
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_MTV) \
                or network is None or not network.clusters:
            return False
        swap_cell(inst, VARIANT_MTV)
        # Join the geometrically nearest cluster's rail.
        x = inst.attributes.get("x", 0.0)
        y = inst.attributes.get("y", 0.0)
        cluster = min(network.clusters,
                      key=lambda c: abs(c.centroid[0] - x)
                      + abs(c.centroid[1] - y))
        vgnd_net = netlist.get_or_create_net(cluster.net_name)
        vgnd_pin = inst.pins.get("VGND")
        if vgnd_pin is not None and vgnd_pin.net is None:
            netlist.connect(inst, "VGND", vgnd_net,
                            PinDirection.INOUT, keeper=True)
        cluster.members.append(inst.name)
        new_cell = library.cell(inst.cell_name)
        cluster.current_ma += new_cell.switching_current_ma \
            / max(len(cluster.members) ** 0.5, 1.0)
        sizer = SwitchSizer(library, network.bounce_limit_v)
        sizer.size_cluster(cluster)
        switch_inst = netlist.instances.get(cluster.switch_instance or "")
        if switch_inst is not None \
                and switch_inst.cell_name != cluster.switch_cell:
            switch_inst.cell_name = cluster.switch_cell
        # The re-accelerated cell may now drive powered logic.
        new_holders = insert_output_holders(netlist, library, "MTE")
        if placement is not None:
            for holder_name in new_holders:
                place_incremental(placement, netlist, library,
                                  holder_name, (x, y))
        if session is not None and new_holders:
            session.touch_structural()
            for holder_name in new_holders:
                holder = netlist.instances[holder_name]
                z_pin = holder.pins.get("Z")
                if z_pin is not None and z_pin.net is not None:
                    session.touch_net(z_pin.net)   # keeper adds load
        return True

    if ctx.technique == Technique.DUAL_VTH:
        return swap_dual
    if ctx.technique == Technique.CONVENTIONAL_SMT:
        return swap_conventional
    return swap_improved


@flow_stage("eco_and_sta")
def stage_eco_and_sta(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 7: ECO (setup repair + hold fixing), final STA."""
    ctx.require("netlist", "constraints")
    netlist = ctx.netlist
    library = ctx.library
    network = ctx.network
    derates = None
    if network is not None:
        assumed = library.mt_assumed_bounce_v
        if assumed is None:
            assumed = library.tech.vdd * 0.04
        derates = network.derates(netlist, library, assumed)
    clock_arrivals = ctx.cts.clock_arrivals if ctx.cts else None
    session = ctx._make_session(ctx.constraints, derates=derates,
                                clock_arrivals=clock_arrivals)

    setup_fixer = SetupFixer(
        netlist, library, ctx.constraints,
        fast_swap=make_fast_swap(ctx, session),
        parasitics=ctx.parasitics, derates=derates,
        clock_arrivals=clock_arrivals, session=session,
        compute_backend=ctx.config.compute_backend)
    setup_result = setup_fixer.run()
    if network is not None and setup_result.swapped:
        # Cluster membership may have grown: refresh the derates.
        assumed = library.mt_assumed_bounce_v or library.tech.vdd * 0.04
        derates = network.derates(netlist, library, assumed)
        if session is not None:
            session.set_derates(derates)

    fixer = HoldFixer(
        netlist, library, ctx.constraints, parasitics=ctx.parasitics,
        derates=derates, clock_arrivals=clock_arrivals,
        buffer_cell=ctx.config.hold_fix_buffer_cell,
        max_passes=ctx.config.max_hold_fix_passes, session=session,
        compute_backend=ctx.config.compute_backend)
    eco_result = fixer.run()
    ctx.eco = eco_result
    ctx.timing = eco_result.final_report
    return ctx._note_session("eco_and_sta", session, {
        "setup_swaps": setup_result.swap_count,
        "hold_buffers": eco_result.buffer_count,
        "wns": round(eco_result.final_report.wns, 4),
        "hold_wns": round(eco_result.final_report.hold_wns, 4),
    })


@flow_stage("corner_signoff")
def stage_corner_signoff(ctx: FlowContext) -> dict[str, Any] | None:
    """PVT corner signoff of the finished design (variation engine).

    Re-evaluates the final netlist's standby leakage and timing at
    each corner named in ``FlowConfig.signoff_corners`` using
    corner-derived libraries; with no corners configured the stage is
    invisible (no report), so single-point flows are untouched.  Runs
    ``SignoffRequest.from_config(config)`` through
    :func:`~repro.variation.signoff.run_signoff`, like
    ``Design.signoff()``.
    """
    if not ctx.config.signoff_corners:
        return None
    ctx.require("netlist", "constraints")
    ctx.corners = run_signoff(
        ctx, ctx.library,
        SignoffRequest.from_config(ctx.config, technique=ctx.technique),
        ctx.corner_library, compute_backend=ctx.config.compute_backend)
    worst_leak = max(ctx.corners.values(), key=lambda r: r.leakage_nw)
    worst_wns = min(ctx.corners.values(), key=lambda r: r.wns)
    return {
        "corners": len(ctx.corners),
        "worst_leakage_nw": round(worst_leak.leakage_nw, 3),
        "worst_leakage_corner": worst_leak.corner.name,
        "worst_wns": round(worst_wns.wns, 4),
        "worst_wns_corner": worst_wns.corner.name,
    }


@flow_stage("standby_signoff")
def stage_standby_signoff(ctx: FlowContext) -> dict[str, Any] | None:
    """Standby-transition signoff (repro.standby).

    Characterizes the VGND network's sleep/wake transients, builds the
    rush-current-bounded wake-up schedule and evaluates every
    power-mode scenario named in ``FlowConfig.standby_scenarios``.
    Runs ``StandbyRequest.from_config(config)`` through
    :func:`~repro.standby.engine.run_standby` — the same path
    ``Design.standby()`` takes, which therefore reuses this result for
    an equal request.  Invisible (no report) with no scenarios
    configured, and for techniques without a shared-switch network
    (Dual-Vth and the conventional SMT have nothing to schedule).
    """
    if not ctx.config.standby_scenarios or not has_switch_network(ctx):
        return None
    ctx.require("netlist")
    result = run_standby(
        ctx, ctx.library,
        StandbyRequest.from_config(ctx.config, technique=ctx.technique),
        ctx.corner_library, circuit=ctx.source_netlist.name,
        compute_backend=ctx.config.compute_backend)
    ctx.standby = result
    first = result.corner_rows[0]
    return {
        "scenarios": len(result.scenarios),
        "corners": len(result.corners),
        "corner": first.corner,   # the corner the numbers below are at
        "wake_latency_ns": round(first.wake_latency_ns, 4),
        "peak_rush_ma": round(first.peak_rush_ma, 3),
        "break_even_ns": (round(first.break_even_ns, 1)
                          if first.break_even_ns != float("inf")
                          else "inf"),
    }


@flow_stage("policy_signoff")
def stage_policy_signoff(ctx: FlowContext) -> dict[str, Any] | None:
    """Sleep-policy signoff (repro.policy).

    Sweeps ``FlowConfig.policy_candidates`` candidate
    (domain plan, per-domain threshold) policies against the standby
    workloads and signoff corners in one batched pass, keeping the
    Pareto front of (net savings, worst wake latency, peak rush).
    Runs ``PolicyRequest.from_config(config)`` through
    :func:`~repro.policy.optimize.run_policy`, like ``Design.policy()``.
    Invisible with ``policy_candidates == 0``, with no standby
    scenarios configured, and for techniques without a shared-switch
    network.  Reuses the corner libraries the earlier signoff stages
    derived.
    """
    if ctx.config.policy_candidates < 1 \
            or not ctx.config.standby_scenarios \
            or not has_switch_network(ctx):
        return None
    ctx.require("netlist")
    result = run_policy(
        ctx, ctx.library,
        PolicyRequest.from_config(ctx.config, technique=ctx.technique),
        ctx.corner_library, circuit=ctx.source_netlist.name,
        compute_backend=ctx.config.compute_backend)
    ctx.policy = result
    best = result.best
    return {
        "candidates": result.candidates,
        "pareto_points": len(result.pareto),
        "best_plan": best.plan,
        "best_net_savings_pj": round(best.net_savings_pj, 3),
        "best_wake_latency_ns": round(best.worst_wake_latency_ns, 4),
        "oracle_net_savings_pj": round(result.oracle_net_savings_pj,
                                       3),
    }


@flow_stage("finalize")
def stage_finalize(ctx: FlowContext) -> None:
    """Hidden plumbing: standby leakage + area accounting."""
    ctx.require("netlist")
    analyzer = LeakageAnalyzer(ctx.netlist, ctx.library,
                               compute_backend=ctx.config.compute_backend)
    ctx.leakage = analyzer.standby_leakage()
    ctx.total_area = analyzer.total_area()
    return None
