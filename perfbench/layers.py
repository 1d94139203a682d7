"""The per-layer metric catalogue and its reduction from span trees.

Layers carry this repository's module names.  Every traced run prints
every metric in :data:`PER_LAYER`; a layer a workload does not enter
reads 0 there (``compute.lower.count`` on ``served`` is exactly that
prediction).  Times and counts are per op of the workload: per Table 1
grid, per signoff op, per served session.
"""

from __future__ import annotations

from benchlib import fallback_counts, span_table

STAGES = ("physical_synthesis", "vth_assignment", "eco_placement",
          "switch_structure", "routing_cts_mte", "spef_reoptimization",
          "eco_and_sta")
CIRCUITS = ("circuitA", "circuitB")
TECHNIQUES = ("dual_vth", "conventional_smt", "improved_smt")
API_CACHES = ("design", "baseline", "flow", "optimize", "signoff",
              "corner_library")
#: Served job classes: the cold optimize, the signoff, the warm optimize.
SERVICE_CLASSES = ("cold", "signoff", "warm")
#: The Table 1 row whose lowering count and STA fallback share the
#: ROADMAP quotes (24 lowerings, 29 of 32 full runs are fallbacks).
TRACKED_ROW = ("circuitA", "improved_smt")

_LOWER, _HIGHER = "lower", "higher"

PER_LAYER: list[tuple[str, str, str]] = (
    [(f"core.stage.{label}.s", "s", _LOWER) for label in STAGES]
    + [(f"core.flow.{c}.{t}.s", "s", _LOWER)
       for c in CIRCUITS for t in TECHNIQUES]
    + [(f"core.flow.{TRACKED_ROW[0]}.{TRACKED_ROW[1]}.lower.count",
        "count", _LOWER),
       (f"core.flow.{TRACKED_ROW[0]}.{TRACKED_ROW[1]}.sta_fallback_frac",
        "ratio", _LOWER),
       ("timing.sta_full.count", "count", _LOWER),
       ("timing.sta_full.self_s", "s", _LOWER),
       ("timing.sta_incremental.count", "count", _HIGHER),
       ("timing.sta_incremental.self_s", "s", _LOWER),
       ("timing.sta_fallback_frac", "ratio", _LOWER),
       ("compute.lower.count", "count", _LOWER),
       ("compute.lower.self_s", "s", _LOWER),
       ("compute.setup_wns.self_s", "s", _LOWER),
       ("compute.batched_wns.self_s", "s", _LOWER),
       ("compute.lowercache.hits", "count", _HIGHER),
       ("compute.lowercache.misses", "count", _LOWER),
       ("variation.derive.s", "s", _LOWER),
       ("variation.corner_memo.misses", "count", _LOWER),
       ("variation.evaluate.s", "s", _LOWER),
       ("standby.run.s", "s", _LOWER),
       ("policy.optimize.s", "s", _LOWER),
       ("policy.candidates", "count", _HIGHER)]
    + [(f"api.cache.{name}.hit_rate", "ratio", _HIGHER)
       for name in API_CACHES]
    + [(f"service.job.{cls}.s", "s", _LOWER) for cls in SERVICE_CLASSES]
    + [(f"service.overhead.{cls}.s", "s", _LOWER)
       for cls in SERVICE_CLASSES]
    + [("service.jobs_failed", "count", _LOWER),
       ("service.coalesced", "count", _LOWER),
       ("obs.trace_overhead", "ratio", _LOWER)]
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def from_spans(roots) -> dict[str, float]:
    """Layer numbers one op's span forest carries.

    Program spans give STA, lowering, kernels and stages; the
    benchmark's own ``bench.*`` spans give the calls it made into
    ``core``, ``variation``, ``standby`` and ``policy``.
    """
    table = span_table(roots)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def count(name):
        return float(table.get(name, {}).get("count", 0))

    attempts, wasted = fallback_counts(roots)
    metrics = {
        "timing.sta_full.count": count("sta.full_run"),
        "timing.sta_full.self_s": self_s("sta.full_run"),
        "timing.sta_incremental.count": count("sta.incremental"),
        "timing.sta_incremental.self_s": self_s("sta.incremental"),
        "timing.sta_fallback_frac": wasted / attempts if attempts else 0.0,
        "compute.lower.count": count("compute.lower"),
        "compute.lower.self_s": self_s("compute.lower"),
        "compute.setup_wns.self_s": self_s("compute.setup_wns"),
        "compute.batched_wns.self_s": self_s("compute.batched_wns"),
        "variation.derive.s": total_s("bench.variation.derive"),
        "variation.evaluate.s": total_s("bench.variation.evaluate"),
        "standby.run.s": total_s("bench.standby.run"),
        "policy.optimize.s": total_s("bench.policy.optimize"),
    }
    for label in STAGES:
        metrics[f"core.stage.{label}.s"] = 0.0
    for root in roots:
        for node in root.walk():
            if node.name.startswith("stage."):
                label = node.attributes.get("label")
                if label in STAGES:
                    metrics[f"core.stage.{label}.s"] += node.duration_s
            elif node.name == "bench.core.flow":
                circuit = node.attributes["circuit"]
                technique = node.attributes["technique"]
                metrics[f"core.flow.{circuit}.{technique}.s"] = \
                    node.duration_s
                if (circuit, technique) == TRACKED_ROW:
                    row = [node]
                    prefix = f"core.flow.{circuit}.{technique}"
                    metrics[f"{prefix}.lower.count"] = float(
                        span_table(row).get("compute.lower",
                                            {}).get("count", 0))
                    tried, fell_back = fallback_counts(row)
                    metrics[f"{prefix}.sta_fallback_frac"] = \
                        fell_back / tried if tried else 0.0
    return metrics


def hit_rates(cache_stats: dict) -> dict[str, float]:
    """``api.cache.*.hit_rate`` from a workspace's flat cache stats."""
    rates = {}
    for name in API_CACHES:
        counts = cache_stats.get(name, {})
        total = counts.get("hits", 0) + counts.get("misses", 0)
        rates[f"api.cache.{name}.hit_rate"] = \
            counts.get("hits", 0) / total if total else 0.0
    return rates


def render(metrics: dict[str, float], table: dict[str, dict]) -> str:
    """The human-readable per-layer report a traced run prints."""
    lines = [f"{'per-layer metric':<52} {'value':>14}  unit"]
    for name, unit, _ in PER_LAYER:
        lines.append(f"{name:<52} {metrics.get(name, 0.0):>14.6g}  {unit}")
    lines.append("")
    lines.append(f"{'span (per op)':<40} {'count':>10} {'self_s':>12} "
                 f"{'total_s':>12}")
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        lines.append(f"{name:<40} {row['count']:>10.6g} "
                     f"{row['self_s']:>12.6f} {row['total_s']:>12.6f}")
    return "\n".join(lines)
