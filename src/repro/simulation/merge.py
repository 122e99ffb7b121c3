"""Deterministic merge of per-shard simulation summaries.

The fleet layer (:mod:`repro.fleet`) partitions the machine census into
disjoint cells and replays each cell's sub-trace in its own worker.  This
module folds the resulting per-shard ``SimulationResult.summary()`` dicts
into one fleet-level summary with documented semantics per field:

- **Extensive** quantities (task counts, energy, costs, switch/kill
  events, machine-seconds style means over a shared horizon) add across
  disjoint cells.
- **Intensive** quantities are weight-averaged with the physically
  meaningful weight: delays by task count, availability by machine count,
  MTTR by failure count, SLO attainment by task count.  Per-group delay
  percentiles merge as task-weighted means of the shard percentiles — an
  explicit approximation (exact fleet percentiles would need the raw delay
  distributions, which summaries deliberately do not carry).
- **Watermarks** (max degradation level, max unreachable cells) take the
  max.

Merging is pure data-flow over plain dicts: same inputs, same bytes out,
so the merged digest is independent of shard completion order, worker
count, retries and resume — the property the fleet chaos drill pins.
"""

from __future__ import annotations

import hashlib

from repro.runner.runner import canonical_json

#: ``summary()`` fields that add across disjoint cells.
_EXTENSIVE_FIELDS = (
    "tasks_submitted",
    "tasks_scheduled",
    "tasks_unscheduled",
    "energy_kwh",
    "energy_cost",
    "switch_cost",
    "switch_events",
    "tasks_killed",
    "tasks_preempted",
    "relabel_events",
    "total_cost",
    # Time-average of active machines per cell; cells are disjoint and
    # share the horizon, so the fleet-wide time-average is the sum.
    "mean_active_machines",
)


def _weighted_mean(pairs: list[tuple[float, float]]) -> float:
    """Weighted mean of ``(value, weight)`` pairs; 0.0 when weightless."""
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return 0.0
    return sum(value * weight for value, weight in pairs) / total


def _sum_counts(dicts: list[dict]) -> dict:
    """Key-wise sum of flat numeric dicts (union of keys, sorted)."""
    keys = sorted({key for d in dicts for key in d})
    return {key: sum(d.get(key, 0) for d in dicts) for key in keys}


def _merge_delay_groups(summaries: list[dict], group_weights: list[dict]) -> dict:
    """Merge ``delay_by_group`` with per-shard per-group task weights."""
    groups = sorted({g for s in summaries for g in s["delay_by_group"]})
    merged = {}
    for group in groups:
        entries = [
            (s["delay_by_group"][group], float(w.get(group, 0)))
            for s, w in zip(summaries, group_weights)
            if group in s["delay_by_group"]
        ]
        merged[group] = {
            "mean_s": _weighted_mean([(e["mean_s"], w) for e, w in entries]),
            "p95_s": _weighted_mean([(e["p95_s"], w) for e, w in entries]),
            "immediate_fraction": _weighted_mean(
                [(e["immediate_fraction"], w) for e, w in entries]
            ),
        }
    return merged


def _merge_fabric(fabrics: list[dict]) -> dict:
    return {
        "partition_seconds": sum(f["partition_seconds"] for f in fabrics),
        "partition_ticks": sum(f["partition_ticks"] for f in fabrics),
        "max_unreachable_cells": max(
            (f["max_unreachable_cells"] for f in fabrics), default=0
        ),
        "deferred_placements": sum(f["deferred_placements"] for f in fabrics),
        "degraded_link_ticks": _sum_counts([f["degraded_link_ticks"] for f in fabrics]),
        "cell_hold_ticks": _sum_counts([f["cell_hold_ticks"] for f in fabrics]),
        "reconciliations": sum(f["reconciliations"] for f in fabrics),
        "reconciliation_divergence": sum(
            f["reconciliation_divergence"] for f in fabrics
        ),
    }


def _merge_data_plane(planes: list[dict]) -> dict:
    sanitizers = [p["sanitizer"] for p in planes if p.get("sanitizer") is not None]
    sanitizer = None
    if sanitizers:
        sanitizer = {
            "records_total": sum(s["records_total"] for s in sanitizers),
            "records_clean": sum(s["records_clean"] for s in sanitizers),
            "records_repaired": sum(s["records_repaired"] for s in sanitizers),
            "records_quarantined": sum(s["records_quarantined"] for s in sanitizers),
            "repairs_by_rule": _sum_counts([s["repairs_by_rule"] for s in sanitizers]),
            "quarantine_by_rule": _sum_counts(
                [s["quarantine_by_rule"] for s in sanitizers]
            ),
            # Order-independent roll-up of the per-shard report digests.
            "digest": hashlib.sha256(
                "".join(sorted(s["digest"] for s in sanitizers)).encode()
            ).hexdigest(),
        }
    fallbacks = [p["forecast_fallback"] for p in planes]
    per_class_keys = sorted({key for f in fallbacks for key in f.get("per_class", {})})
    return {
        "sanitizer": sanitizer,
        "forecast_fallback": {
            "rungs": _sum_counts([f["rungs"] for f in fallbacks]),
            "degraded_forecasts": sum(f["degraded_forecasts"] for f in fallbacks),
            "per_class": {
                key: _sum_counts(
                    [f["per_class"][key] for f in fallbacks if key in f.get("per_class", {})]
                )
                for key in per_class_keys
            },
        },
        "classifier": _sum_counts([p["classifier"] for p in planes]),
        "capacity_guard": _sum_counts([p["capacity_guard"] for p in planes]),
    }


def _merge_resilience(
    summaries: list[dict], machine_weights: list[float]
) -> dict:
    blocks = [s["resilience"] for s in summaries]
    task_weights = [float(s["tasks_submitted"]) for s in summaries]
    failure_weights = [float(b["machines_failed"]) for b in blocks]
    return {
        "availability": _weighted_mean(
            [(b["availability"], w) for b, w in zip(blocks, machine_weights)]
        ),
        "mttr_s": _weighted_mean(
            [(b["mttr_s"], w) for b, w in zip(blocks, failure_weights)]
        ),
        "mean_restart_latency_s": _weighted_mean(
            [(b["mean_restart_latency_s"], w) for b, w in zip(blocks, failure_weights)]
        ),
        "slo_attainment_5m": _weighted_mean(
            [(b["slo_attainment_5m"], w) for b, w in zip(blocks, task_weights)]
        ),
        "machines_failed": sum(b["machines_failed"] for b in blocks),
        "breaker_trips": sum(b["breaker_trips"] for b in blocks),
        "invalid_decisions": sum(b["invalid_decisions"] for b in blocks),
        "degradation": {
            "max_level": max(
                (b["degradation"]["max_level"] for b in blocks), default=0
            ),
            "degraded_ticks": sum(b["degradation"]["degraded_ticks"] for b in blocks),
            "levels": _sum_counts([b["degradation"]["levels"] for b in blocks]),
        },
        "fabric": _merge_fabric([b["fabric"] for b in blocks]),
        "data_plane": _merge_data_plane([b["data_plane"] for b in blocks]),
    }


def merge_shard_summaries(shards: list[dict]) -> dict:
    """Fold per-shard fleet-worker summaries into one fleet summary.

    ``shards`` holds the ``fleet_shard`` task outputs: each carries the
    cell's ``"simulation"`` summary plus a ``"shard"`` block with the
    weights the merge needs (machine count, per-group routed task counts).
    Caller order does not matter: float sums are *not* commutative in
    their last bit, so the shards are first put in ``shard["index"]``
    order and every reduction runs over that one order (key iteration is
    sorted likewise).
    """
    if not shards:
        raise ValueError("cannot merge zero shard summaries")
    shards = sorted(shards, key=lambda s: s["shard"]["index"])
    summaries = [s["simulation"] for s in shards]
    infos = [s["shard"] for s in shards]
    policies = sorted({s["policy"] for s in summaries})
    if len(policies) != 1:
        raise ValueError(f"shards ran different policies: {policies}")

    machine_weights = [float(info["machines"]) for info in infos]
    group_weights = [info["group_tasks"] for info in infos]
    task_weights = [float(s["tasks_submitted"]) for s in summaries]

    merged: dict = {"policy": policies[0]}
    for field in _EXTENSIVE_FIELDS:
        merged[field] = sum(s[field] for s in summaries)
    merged["mean_delay_s"] = _weighted_mean(
        [(s["mean_delay_s"], w) for s, w in zip(summaries, task_weights)]
    )
    merged["delay_by_group"] = _merge_delay_groups(summaries, group_weights)
    merged["resilience"] = _merge_resilience(summaries, machine_weights)
    merged["shards"] = {
        "count": len(shards),
        "machines": int(sum(machine_weights)),
        "cells": sorted(
            sorted(int(p) for p in info["platforms"]) for info in infos
        ),
        "tasks_routed": sum(int(info["tasks_routed"]) for info in infos),
    }
    return merged


def fleet_digest(merged: dict, shard_digests: dict[str, str]) -> str:
    """Canonical SHA-256 over the merged summary + every shard digest.

    Binding the per-shard digests in makes the fleet digest sensitive to
    any shard-level divergence even where the merge reduction would mask
    it (e.g. compensating errors in summed fields).
    """
    payload = {"merged": merged, "shard_digests": dict(sorted(shard_digests.items()))}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
