"""Frozen oracle for ``tests/test_generator_kernel.py``.

The synthetic trace generator as it stood before the column kernel, copied
statement for statement: one ``Task`` per generated task on every
calibration pass, a scalar ``rng.lognormal`` + ``np.clip`` per task,
``rng.choice(p=...)`` for every categorical draw, the memory-scale chain
applied through ``dataclasses.replace``, and ``_demand_p90s`` walking the
task objects one at a time.  ``repro.trace.generator`` must reproduce every
bit of what this module computes: the classifier, the replay and every
simulation digest are functions of those bits.  Do not "improve" it.

Only the configuration types and the size catalog's construction (whose
draws the kernel does not touch) come from the package.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import chain

import numpy as np

from repro.trace.generator import (
    _MEMORY_GRID,
    PriorityGroupProfile,
    SyntheticTraceConfig,
    TracePlan,
    _SizeCatalog,
)
from repro.trace.schema import MachineType, PriorityGroup, Task, Trace


def catalog_sample(catalog: _SizeCatalog, rng: np.random.Generator) -> tuple[float, float]:
    index = int(rng.choice(len(catalog.points), p=catalog.weights))
    return catalog.points[index]


def _sample_size(
    rng: np.random.Generator,
    profile: PriorityGroupProfile,
    catalog: _SizeCatalog,
) -> tuple[float, float]:
    if rng.random() < profile.mode_share:
        return (profile.mode_cpu, profile.mode_memory)
    return catalog_sample(catalog, rng)


def _sample_duration(rng: np.random.Generator, profile: PriorityGroupProfile) -> float:
    if rng.random() < profile.short_share:
        duration = rng.lognormal(profile.short_log_mean, profile.short_log_sigma)
    else:
        duration = rng.lognormal(profile.long_log_mean, profile.long_log_sigma)
    return float(np.clip(duration, 1.0, profile.max_duration))


def _sample_job_size(rng: np.random.Generator, mean_tasks: float) -> int:
    if mean_tasks <= 1.0:
        return 1
    if rng.random() < 0.55:
        return 1
    if rng.random() < 0.95:
        body_mean = max(1.0, (mean_tasks - 0.55) / 0.45)
        return 1 + int(rng.geometric(1.0 / body_mean))
    return 1 + int(rng.pareto(1.5) * mean_tasks)


def _burst_windows(
    rng: np.random.Generator, config: SyntheticTraceConfig
) -> list[tuple[float, float, float]]:
    horizon_s = config.horizon_hours * 3600.0
    expected = config.burst_rate_per_day * config.horizon_hours / 24.0
    num_bursts = int(rng.poisson(expected))
    windows = []
    for _ in range(num_bursts):
        start = float(rng.uniform(0.0, horizon_s))
        length = config.burst_duration_hours * 3600.0 * float(rng.uniform(0.5, 1.5))
        magnitude = config.burst_magnitude * float(rng.uniform(0.7, 1.3))
        windows.append((start, min(start + length, horizon_s), magnitude))
    return windows


def _rate_multiplier(
    t: float,
    config: SyntheticTraceConfig,
    bursts: list[tuple[float, float, float]],
) -> float:
    day = 24 * 3600.0
    diurnal = 1.0 + config.diurnal_amplitude * math.sin(2 * math.pi * t / day)
    weekly = 1.0 + config.weekly_amplitude * math.sin(2 * math.pi * t / (7 * day))
    multiplier = diurnal * weekly
    for start, end, magnitude in bursts:
        if start <= t < end:
            multiplier *= magnitude
    return max(multiplier, 0.05)


def generate_trace(config: SyntheticTraceConfig | None = None) -> Trace:
    config = config or SyntheticTraceConfig()
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0

    generated_for: tuple[PriorityGroupProfile, ...] | None = None
    tasks: list[Task] = []

    def measure(profiles, memory_scales):
        nonlocal generated_for, tasks
        if profiles is not generated_for:
            tasks = _generate_tasks(config, census, profiles, horizon_s)
            generated_for = profiles
        return _demand_p90s(
            tasks, horizon_s, memory_scales, _modal_points(profiles)
        )

    plan = _calibrate(config, measure)
    tasks = _with_scaled_memory(tasks, plan)
    tasks.sort(key=lambda t: (t.submit_time, t.job_id, t.index))
    return Trace(
        machine_types=census,
        tasks=tuple(tasks),
        horizon=horizon_s,
        metadata={
            "generator": "repro.trace.generator",
            "seed": config.seed,
            "horizon_hours": config.horizon_hours,
            "load_factor": config.load_factor,
        },
    )


def _generate_tasks(
    config: SyntheticTraceConfig,
    census: tuple[MachineType, ...],
    profiles: tuple[PriorityGroupProfile, ...],
    horizon_s: float,
) -> list[Task]:
    return [
        task
        for bin_tasks in _iter_task_bins(config, census, profiles, horizon_s)
        for task in bin_tasks
    ]


def _iter_task_bins(
    config: SyntheticTraceConfig,
    census: tuple[MachineType, ...],
    profiles: tuple[PriorityGroupProfile, ...],
    horizon_s: float,
):
    rng = np.random.default_rng(config.seed)
    bursts = _burst_windows(rng, config)
    constraint_pool = config.constraint_platforms or census
    catalogs = {profile.group: _SizeCatalog(profile, rng) for profile in profiles}

    job_id = 0
    bin_s = config.arrival_bin_seconds
    num_bins = int(math.ceil(horizon_s / bin_s))

    for b in range(num_bins):
        bin_start = b * bin_s
        bin_end = min(bin_start + bin_s, horizon_s)
        width = bin_end - bin_start
        if width <= 0:
            continue
        bin_tasks: list[Task] = []
        multiplier = _rate_multiplier(bin_start + width / 2, config, bursts)
        for profile in profiles:
            lam = profile.job_rate_per_hour / 3600.0 * width * multiplier
            num_jobs = int(rng.poisson(lam))
            for _ in range(num_jobs):
                job_id += 1
                submit = float(rng.uniform(bin_start, bin_end))
                num_tasks = _sample_job_size(rng, config.mean_job_tasks)
                cpu, mem = _sample_size(rng, profile, catalogs[profile.group])
                base_duration = _sample_duration(rng, profile)
                priority = int(
                    rng.choice(profile.priorities, p=_normalized(profile.priority_weights))
                )
                sched_class = _scheduling_class_for(rng, profile.group)
                constrained = rng.random() < config.constrained_fraction
                allowed = None
                if constrained:
                    hosts = [
                        m.platform_id
                        for m in constraint_pool
                        if cpu <= m.cpu_capacity and mem <= m.memory_capacity
                    ]
                    if hosts:
                        k = int(rng.integers(1, min(3, len(hosts) + 1)))
                        allowed = frozenset(
                            int(p) for p in rng.choice(hosts, size=k, replace=False)
                        )
                for index in range(num_tasks):
                    duration = float(
                        np.clip(
                            base_duration * rng.lognormal(0.0, 0.25),
                            1.0,
                            profile.max_duration,
                        )
                    )
                    bin_tasks.append(
                        Task(
                            job_id=job_id,
                            index=index,
                            submit_time=submit,
                            duration=duration,
                            priority=priority,
                            scheduling_class=sched_class,
                            cpu=cpu,
                            memory=mem,
                            allowed_platforms=allowed,
                        )
                    )
        yield bin_tasks


def _scaled_memory(
    cpu: float,
    memory: float,
    scales: tuple[float, ...],
    modal_points: frozenset[tuple[float, float]],
) -> float:
    for scale in scales:
        if (cpu, memory) in modal_points:
            return memory
        memory = min(max(memory * scale, _MEMORY_GRID), 1.0)
    return memory


def _with_scaled_memory(tasks: list[Task], plan: TracePlan) -> list[Task]:
    if not plan.memory_scales:
        return tasks
    modal_points = _modal_points(plan.profiles)
    return [
        replace(
            t,
            memory=_scaled_memory(t.cpu, t.memory, plan.memory_scales, modal_points),
        )
        for t in tasks
    ]


def _modal_points(
    profiles: tuple[PriorityGroupProfile, ...],
) -> frozenset[tuple[float, float]]:
    return frozenset((p.mode_cpu, p.mode_memory) for p in profiles)


def _demand_p90s(
    tasks,
    horizon_s: float,
    memory_scales: tuple[float, ...],
    modal_points: frozenset[tuple[float, float]],
) -> tuple[float, float]:
    bin_s = 600.0
    num_bins = int(math.ceil(horizon_s / bin_s))
    cpu_deltas = np.zeros(num_bins + 1)
    mem_deltas = np.zeros(num_bins + 1)
    for t in tasks:
        start = min(int(t.submit_time // bin_s), num_bins - 1)
        end = min(int((t.submit_time + t.duration) // bin_s) + 1, num_bins)
        cpu_deltas[start] += t.cpu
        cpu_deltas[end] -= t.cpu
        memory = t.memory
        if memory_scales:
            memory = _scaled_memory(t.cpu, memory, memory_scales, modal_points)
        mem_deltas[start] += memory
        mem_deltas[end] -= memory
    cpu_p90 = float(np.percentile(np.cumsum(cpu_deltas[:num_bins]), 90))
    mem_p90 = float(np.percentile(np.cumsum(mem_deltas[:num_bins]), 90))
    return cpu_p90, mem_p90


def _calibrate(config: SyntheticTraceConfig, measure) -> TracePlan:
    total_cpu = sum(m.cpu_capacity * m.count for m in config.census())
    profiles = config.scaled_profiles()
    cpu_p90, mem_p90 = measure(profiles, ())
    for _ in range(4):
        realized = cpu_p90 / total_cpu
        if realized <= 0:
            break
        error = abs(realized - config.load_factor) / config.load_factor
        if error < 0.08:
            break
        correction = float(np.clip(config.load_factor / realized, 0.33, 3.0))
        profiles = tuple(
            PriorityGroupProfile(
                **{
                    **{f: getattr(p, f) for f in p.__dataclass_fields__},
                    "job_rate_per_hour": p.job_rate_per_hour * correction,
                }
            )
            for p in profiles
        )
        cpu_p90, mem_p90 = measure(profiles, ())

    memory_scales: tuple[float, ...] = ()
    target = sum(p.memory_bias for p in profiles) / len(profiles)
    for _ in range(3):
        if memory_scales:
            cpu_p90, mem_p90 = measure(profiles, memory_scales)
        if cpu_p90 <= 0 or mem_p90 <= 0:
            break
        ratio = mem_p90 / cpu_p90
        if abs(ratio - target) / target < 0.05:
            break
        memory_scales += (float(np.clip(target / ratio, 0.25, 8.0)),)
    return TracePlan(profiles=profiles, memory_scales=memory_scales)


def plan_trace(config: SyntheticTraceConfig | None = None) -> TracePlan:
    config = config or SyntheticTraceConfig()
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0

    def measure(profiles, memory_scales):
        return _demand_p90s(
            chain.from_iterable(
                _iter_task_bins(config, census, profiles, horizon_s)
            ),
            horizon_s,
            memory_scales,
            _modal_points(profiles),
        )

    return _calibrate(config, measure)


def stream_trace(
    config: SyntheticTraceConfig | None = None,
    plan: TracePlan | None = None,
):
    config = config or SyntheticTraceConfig()
    if plan is None:
        plan = plan_trace(config)
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0
    for bin_tasks in _iter_task_bins(config, census, plan.profiles, horizon_s):
        bin_tasks = _with_scaled_memory(bin_tasks, plan)
        bin_tasks.sort(key=lambda t: (t.submit_time, t.job_id, t.index))
        yield from bin_tasks


def _normalized(weights: tuple[float, ...]) -> np.ndarray:
    array = np.asarray(weights, dtype=float)
    return array / array.sum()


def _scheduling_class_for(rng: np.random.Generator, group: PriorityGroup) -> int:
    weights = {
        PriorityGroup.GRATIS: (0.70, 0.25, 0.04, 0.01),
        PriorityGroup.OTHER: (0.35, 0.40, 0.20, 0.05),
        PriorityGroup.PRODUCTION: (0.05, 0.20, 0.40, 0.35),
    }[group]
    return int(rng.choice(4, p=np.asarray(weights)))
