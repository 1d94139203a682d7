"""Typed request objects for the :class:`~repro.api.Workspace` facade.

Every :class:`~repro.api.Design` capability takes one frozen request
dataclass (hashable, so requests double as cache keys) and returns one
typed result from :mod:`repro.api.results`.  Requests are registered
in the schema registry, so a job-service submission body *is* a
request payload — the HTTP layer and the in-process facade speak the
same language.

Field validation raises :class:`~repro.errors.ConfigError` naming the
offending field, mirroring :class:`~repro.config.FlowConfig`.

The post-flow analysis requests (:class:`SignoffRequest`,
:class:`StandbyRequest`, :class:`PolicyRequest`) are defined next to
their engines, because the flow's signoff stages build them too (via
``from_config``); they are registered here like every other request.
"""

from __future__ import annotations

import dataclasses

from repro.api import schemas
from repro.config import Technique
from repro.errors import ConfigError
from repro.policy.optimize import PolicyRequest
from repro.standby.engine import StandbyRequest
from repro.variation.signoff import SignoffRequest


#: Mapped-variant names accepted by :class:`AnalyzeRequest`.
ANALYZE_VARIANTS = ("lvt", "hvt")

#: Every technique, in Table 1 order (the enum declaration order).
DEFAULT_TECHNIQUES = tuple(Technique)

TECHNIQUE = (lambda t: t.value, Technique)


@dataclasses.dataclass(frozen=True)
class AnalyzeRequest:
    """Baseline analysis: STA + leakage of the design as loaded.

    The netlist is technology-mapped to one Vth class (no flow, no
    optimization) and analyzed against the config-derived clock — the
    "what am I starting from" probe that every optimization decision
    is normalized against.
    """

    variant: str = "lvt"

    def __post_init__(self):
        if self.variant not in ANALYZE_VARIANTS:
            raise ConfigError(
                "variant",
                f"must be one of {ANALYZE_VARIANTS}, got {self.variant!r}")


@dataclasses.dataclass(frozen=True)
class OptimizeRequest:
    """Run one of the paper's techniques end to end (the Fig. 4 flow)."""

    technique: Technique = Technique.IMPROVED_SMT


@dataclasses.dataclass(frozen=True)
class MonteCarloRequest:
    """Monte-Carlo Vth-variation study of one technique's design.

    Mirrors :class:`~repro.variation.montecarlo.McConfig`; sample ``k``
    stays a pure function of ``(seed, k)``, so results are identical
    for any worker fan-out.
    """

    technique: Technique = Technique.IMPROVED_SMT
    samples: int = 64
    seed: int = 1
    sigma_global_v: float = 0.03
    sigma_local_v: float = 0.015
    timing: bool = True
    corner: str | None = None
    leakage_budget_nw: float | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(
                "samples", f"needs at least one, got {self.samples!r}")
        if self.sigma_global_v < 0:
            raise ConfigError(
                "sigma_global_v",
                f"must be non-negative, got {self.sigma_global_v!r}")
        if self.sigma_local_v < 0:
            raise ConfigError(
                "sigma_local_v",
                f"must be non-negative, got {self.sigma_local_v!r}")


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """Compare techniques on the design (one Table 1 row group)."""

    techniques: tuple[Technique, ...] = DEFAULT_TECHNIQUES

    def __post_init__(self):
        if not self.techniques:
            raise ConfigError("techniques", "must name at least one")


schemas.dataclass_schema("analyze_request", 1, AnalyzeRequest)
schemas.dataclass_schema("optimize_request", 1, OptimizeRequest,
                         technique=TECHNIQUE)
schemas.dataclass_schema("signoff_request", 1, SignoffRequest,
                         technique=TECHNIQUE, corners=schemas.TUPLE)
schemas.dataclass_schema("montecarlo_request", 1, MonteCarloRequest,
                         technique=TECHNIQUE)
schemas.dataclass_schema("standby_request", 1, StandbyRequest,
                         technique=TECHNIQUE, scenarios=schemas.TUPLE,
                         scenario_payloads=schemas.seq(schemas.NESTED),
                         corners=schemas.TUPLE)
schemas.dataclass_schema("policy_request", 1, PolicyRequest,
                         technique=TECHNIQUE, scenarios=schemas.TUPLE,
                         scenario_payloads=schemas.seq(schemas.NESTED),
                         corners=schemas.TUPLE)
schemas.dataclass_schema("sweep_request", 1, SweepRequest,
                         techniques=schemas.seq(TECHNIQUE))
