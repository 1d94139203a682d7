"""Flow configuration.

One :class:`FlowConfig` object parameterizes every stage of the
Selective-MT flow; defaults match the DESIGN.md experiment setup.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.compute import BACKENDS, default_backend
from repro.errors import ConfigError
from repro.vgnd.bounce import SIMULTANEITY_EXPONENT, SIMULTANEITY_FLOOR


class Technique(enum.Enum):
    """The three techniques Table 1 compares."""

    DUAL_VTH = "dual_vth"
    CONVENTIONAL_SMT = "conventional_smt"
    IMPROVED_SMT = "improved_smt"


@dataclasses.dataclass
class FlowConfig:
    """Knobs for the RTL-to-layout Selective-MT flow."""

    # Timing: the clock period is the all-low-Vth critical delay times
    # (1 + timing_margin).  Small margins force many MT-cells (a
    # timing-tight design like the paper's circuit A); larger margins
    # let more cells become high-Vth (circuit B).
    timing_margin: float = 0.15
    clock_period_ns: float | None = None   # overrides margin when set

    # Placement.
    utilization: float = 0.7
    aspect_ratio: float = 1.0
    placement_seed: int = 1
    placer_iterations: int = 24

    # Timing engine: drive the STA-in-the-loop stages (assignment, ECO)
    # through an incremental TimingSession instead of rebuilding a
    # TimingAnalyzer per probe.  Results are bit-identical either way;
    # the flag exists so benchmarks can A/B the two engines.
    incremental_sta: bool = True

    # Numeric compute backend for every STA / leakage / Monte-Carlo
    # hot path: "python" (scalar reference) or "numpy" (vectorized
    # array kernels; equivalent to 1e-9 rel, falls back to scalar when
    # numpy is not installed).  Default honors REPRO_COMPUTE_BACKEND.
    compute_backend: str = dataclasses.field(default_factory=default_backend)

    # Vth assignment.
    assignment_rounds: int = 4
    # The assignment runs against a slightly tightened period so that
    # pre-route estimation error, holder loading and CTS skew cannot
    # break post-route timing closure.
    assignment_guardband: float = 0.04

    # Virtual-ground optimizer (§3 constraints).  Matches the bounce
    # assumed when the MT library was characterized.
    bounce_limit_fraction: float = 0.04    # of Vdd
    max_rail_length_um: float = 400.0
    max_cells_per_switch: int = 64

    # MTE buffering.
    mte_fanout_limit: int = 16
    mte_buffer_cell: str = "BUF_X8_HVT"

    # CTS.
    cts_fanout_limit: int = 8
    cts_buffer_cell: str = "BUF_X4_HVT"

    # ECO.
    hold_fix_buffer_cell: str = "BUF_X1_HVT"
    max_hold_fix_passes: int = 3

    # PVT corner signoff: names from repro.variation.corners (e.g.
    # "tt_nom", "ss_1.08v_125c").  Empty = the corner_signoff stage is
    # a no-op and the flow behaves exactly as single-point.
    signoff_corners: tuple[str, ...] = ()

    # Standby-transition signoff: power-mode scenario names from
    # repro.standby.scenario.standard_scenarios().  Empty = the
    # standby_signoff stage is a no-op.  Wake latencies are evaluated
    # at signoff_corners (nominal only when none are set).
    standby_scenarios: tuple[str, ...] = ()
    # Aggregate rush-current (di/dt) budget for the staged wake-up
    # scheduler, in mA; None derives the default (half the
    # simultaneous-enable rush, floored at the largest cluster peak).
    standby_rush_budget_ma: float | None = None
    # VGND settle threshold as a fraction of Vdd: wake-up counts as
    # finished once the rail is below it.
    standby_settle_fraction: float = 0.05

    # Sleep-policy signoff (repro.policy): candidate budget for the
    # batched threshold/domain sweep.  0 = the policy_signoff stage is
    # a no-op.  Workloads come from standby_scenarios, corners from
    # signoff_corners (nominal only when none are set).
    policy_candidates: int = 0
    # Largest hierarchical power-domain count a plan may use (the
    # per-cluster plan is always swept as well).
    policy_max_domains: int = 4

    # Simultaneity model of the VGND cluster current (overrides the
    # repro.vgnd.bounce defaults): the fraction of summed member peak
    # current flowing at once is max(n^-exponent, floor).
    simultaneity_exponent: float = SIMULTANEITY_EXPONENT
    simultaneity_floor: float = SIMULTANEITY_FLOOR

    def __post_init__(self):
        if self.timing_margin < 0:
            raise ConfigError(
                "timing_margin",
                f"must be non-negative, got {self.timing_margin!r}")
        if self.clock_period_ns is not None and self.clock_period_ns <= 0:
            raise ConfigError(
                "clock_period_ns",
                f"must be positive, got {self.clock_period_ns!r}")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigError(
                "utilization",
                f"must be in (0, 1], got {self.utilization!r}")
        if not 0.0 < self.bounce_limit_fraction < 0.5:
            raise ConfigError(
                "bounce_limit_fraction",
                f"must be in (0, 0.5), got {self.bounce_limit_fraction!r}")
        if self.compute_backend not in BACKENDS:
            raise ConfigError(
                "compute_backend",
                f"unknown backend {self.compute_backend!r}; "
                f"known: {BACKENDS}")
        if self.standby_rush_budget_ma is not None \
                and self.standby_rush_budget_ma <= 0:
            raise ConfigError(
                "standby_rush_budget_ma",
                f"must be positive when set, got "
                f"{self.standby_rush_budget_ma!r}")
        if not 0.0 < self.standby_settle_fraction < 0.5:
            raise ConfigError(
                "standby_settle_fraction",
                f"must be in (0, 0.5), got "
                f"{self.standby_settle_fraction!r}")
        if self.policy_candidates < 0:
            raise ConfigError(
                "policy_candidates",
                f"must be non-negative, got {self.policy_candidates!r}")
        if self.policy_max_domains < 1:
            raise ConfigError(
                "policy_max_domains",
                f"needs at least one domain, got "
                f"{self.policy_max_domains!r}")
        if not 0.0 <= self.simultaneity_exponent <= 1.0:
            raise ConfigError(
                "simultaneity_exponent",
                f"must be in [0, 1], got {self.simultaneity_exponent!r}")
        if not 0.0 < self.simultaneity_floor <= 1.0:
            raise ConfigError(
                "simultaneity_floor",
                f"must be in (0, 1], got {self.simultaneity_floor!r}")

    def bounce_limit_v(self, vdd: float) -> float:
        return self.bounce_limit_fraction * vdd


def analysis_request(cls, defaults: dict, overrides: dict):
    """Build a post-flow analysis request (signoff, standby, policy).

    ``defaults`` are the fields a request class derives from a
    :class:`FlowConfig` in its ``from_config``; ``overrides`` replace
    single fields.  Technique names become :class:`Technique` members
    and sequences become tuples, so a request built from JSON lists or
    CLI tuples is hashable (requests are cache keys) and equal to the
    one the flow's signoff stage builds from the same values.
    """
    fields = {**defaults, **overrides}
    if "technique" in fields:
        fields["technique"] = Technique(fields["technique"])
    for name in ("scenarios", "scenario_payloads", "corners"):
        if name in fields:
            fields[name] = tuple(fields[name])
    return cls(**fields)
