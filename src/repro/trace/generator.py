"""Statistically calibrated synthetic Google-cluster-trace generator.

The paper's analysis (Section III) and evaluation (Section IX) run on the
public Google clusterdata-2011 trace.  That trace is unavailable offline, so
this module generates a synthetic equivalent reproducing the marginals the
paper reports:

- **Machine census** (Fig. 5): 10 platform types; types 1 and 2 hold ~50% and
  ~30% of machines, types 3-4 ~1000 each (~8%), types 5-10 fewer than 100
  machines each; capacities normalized so the largest machine is 1.0.
- **Task-size heterogeneity** (Fig. 7): within each priority group, task size
  spans roughly three orders of magnitude; 43% of *gratis* tasks sit exactly
  at (cpu, mem) = (0.0125, 0.0159); large tasks are either CPU-intensive or
  memory-intensive with little cpu-mem correlation.
- **Duration bimodality** (Fig. 6): tasks are either short or long; more than
  50% run under 100 seconds; 90% of gratis/other durations fall below 10
  hours while production durations tail out to ~17 days.
- **Arrival dynamics** (Figs. 1-2, 19): per-group arrival rates fluctuate with
  a diurnal cycle plus random bursts; demand varies significantly over time.
- **Job structure**: tasks arrive grouped into jobs with a heavy-tailed job
  size distribution; tasks within a job share their resource request.

Every draw flows through a single :class:`numpy.random.Generator` seeded from
the config, so traces are fully reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from repro.trace.schema import (
    MachineType,
    PriorityGroup,
    Task,
    Trace,
)

#: (share of the fleet, cpu capacity, memory capacity) for the ten platform
#: types of Fig. 5.  Shares for types 5-10 are each under 100/12000 machines.
_GOOGLE_CENSUS_SHAPE: tuple[tuple[float, float, float], ...] = (
    (0.530, 0.50, 0.50),
    (0.307, 0.50, 0.25),
    (0.083, 0.50, 0.75),
    (0.055, 1.00, 1.00),
    (0.008, 0.25, 0.25),
    (0.006, 0.50, 0.12),
    (0.004, 0.50, 0.03),
    (0.003, 0.50, 0.97),
    (0.003, 1.00, 0.50),
    (0.001, 0.25, 0.50),
)


def google_like_machine_census(total_machines: int = 1200) -> tuple[MachineType, ...]:
    """A 10-type machine census with the population shares of Fig. 5.

    Parameters
    ----------
    total_machines:
        Fleet size.  The paper's cluster has ~12,000 machines; the default is
        a 1/10 scale-down suitable for laptop-scale simulation (DESIGN.md
        section 5).
    """
    if total_machines < 10:
        raise ValueError(f"need at least 10 machines for 10 types, got {total_machines}")
    counts = [max(1, round(share * total_machines)) for share, _, _ in _GOOGLE_CENSUS_SHAPE]
    # Absorb rounding drift into the largest type so totals stay exact.
    counts[0] += total_machines - sum(counts)
    return tuple(
        MachineType(
            platform_id=i + 1,
            cpu_capacity=cpu,
            memory_capacity=mem,
            count=count,
            name=f"platform-{i + 1}",
        )
        for i, ((_, cpu, mem), count) in enumerate(zip(_GOOGLE_CENSUS_SHAPE, counts))
    )


@dataclass(frozen=True)
class PriorityGroupProfile:
    """Generative model for one priority group's tasks.

    Sizes are drawn from a three-part mixture: an atom at a fixed mode (the
    43% gratis spike the paper reports), a lognormal "body", and an
    "intensive" component that inflates exactly one of cpu/memory to create
    the CPU-intensive / memory-intensive wings of Fig. 7.  Durations come
    from a short/long lognormal mixture (Fig. 6).
    """

    group: PriorityGroup
    #: Mean job arrivals per hour at diurnal peak-free baseline.
    job_rate_per_hour: float
    #: Probability a task sits exactly at the modal size.
    mode_share: float
    mode_cpu: float
    mode_memory: float
    #: Lognormal body for sizes (natural-log parameters).
    size_log_mean: float
    size_log_sigma: float
    #: Probability a non-modal task is single-resource intensive.
    intensive_share: float
    #: Multiplier applied to the intensive resource (lognormal body * this).
    intensive_scale: float
    #: Short/long duration mixture.
    short_share: float
    short_log_mean: float
    short_log_sigma: float
    long_log_mean: float
    long_log_sigma: float
    max_duration: float
    #: Raw priorities within the group and their sampling weights.
    priorities: tuple[int, ...]
    priority_weights: tuple[float, ...]
    #: Multiplier on the memory body relative to CPU: normalized task
    #: memory requests run higher than CPU requests in the Google trace
    #: (the modal task itself asks 0.0159 mem vs 0.0125 cpu), which is what
    #: makes cpu-biased machine shapes (2:1 DL385s) a trap for
    #: heterogeneity-oblivious provisioning.
    memory_bias: float = 1.3

    def __post_init__(self) -> None:
        if len(self.priorities) != len(self.priority_weights):
            raise ValueError("priorities and priority_weights must align")
        for p in self.priorities:
            if PriorityGroup.from_priority(p) is not self.group:
                raise ValueError(f"priority {p} is not in group {self.group.name}")
        if not 0 <= self.mode_share <= 1:
            raise ValueError("mode_share must be in [0, 1]")
        if not 0 <= self.short_share <= 1:
            raise ValueError("short_share must be in [0, 1]")

    def mean_duration(self) -> float:
        """Analytic mean of the duration mixture (ignoring the cap)."""
        short_mean = math.exp(self.short_log_mean + self.short_log_sigma**2 / 2)
        long_mean = math.exp(self.long_log_mean + self.long_log_sigma**2 / 2)
        return self.short_share * short_mean + (1 - self.short_share) * long_mean

    def mean_cpu(self) -> float:
        """Approximate analytic mean CPU request of the size mixture."""
        body = math.exp(self.size_log_mean + self.size_log_sigma**2 / 2)
        intensive = min(1.0, body * self.intensive_scale)
        non_modal = (
            (1 - self.intensive_share) * body
            + self.intensive_share * 0.5 * (body + intensive)
        )
        return self.mode_share * self.mode_cpu + (1 - self.mode_share) * non_modal


def _default_profiles() -> tuple[PriorityGroupProfile, ...]:
    """Calibrated defaults for the three priority groups.

    Rates are expressed per hour and later rescaled to the configured load
    (see :meth:`SyntheticTraceConfig.scaled_profiles`).
    """
    gratis = PriorityGroupProfile(
        group=PriorityGroup.GRATIS,
        job_rate_per_hour=110.0,
        mode_share=0.43,
        mode_cpu=0.0125,
        mode_memory=0.0159,
        size_log_mean=math.log(0.018),
        size_log_sigma=0.95,
        intensive_share=0.08,
        intensive_scale=10.0,
        short_share=0.72,
        short_log_mean=math.log(18.0),
        short_log_sigma=1.0,
        long_log_mean=math.log(3600.0 * 1.5),
        long_log_sigma=1.1,
        max_duration=10 * 24 * 3600.0,
        priorities=(0, 1),
        priority_weights=(0.7, 0.3),
    )
    other = PriorityGroupProfile(
        group=PriorityGroup.OTHER,
        job_rate_per_hour=170.0,
        mode_share=0.18,
        mode_cpu=0.0125,
        mode_memory=0.0159,
        size_log_mean=math.log(0.022),
        size_log_sigma=1.05,
        intensive_share=0.10,
        intensive_scale=9.0,
        short_share=0.68,
        short_log_mean=math.log(28.0),
        short_log_sigma=1.05,
        long_log_mean=math.log(3600.0 * 2.0),
        long_log_sigma=1.15,
        max_duration=12 * 24 * 3600.0,
        priorities=(2, 4, 6, 8),
        priority_weights=(0.45, 0.35, 0.15, 0.05),
    )
    production = PriorityGroupProfile(
        group=PriorityGroup.PRODUCTION,
        job_rate_per_hour=45.0,
        mode_share=0.0,
        mode_cpu=0.0125,
        mode_memory=0.0159,
        size_log_mean=math.log(0.035),
        size_log_sigma=1.1,
        intensive_share=0.12,
        intensive_scale=7.0,
        short_share=0.55,
        short_log_mean=math.log(45.0),
        short_log_sigma=1.0,
        long_log_mean=math.log(3600.0 * 8.0),
        long_log_sigma=1.3,
        max_duration=17 * 24 * 3600.0,
        priorities=(9, 10, 11),
        priority_weights=(0.6, 0.3, 0.1),
    )
    return (gratis, other, production)


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Configuration for :func:`generate_trace`.

    Attributes
    ----------
    horizon_hours:
        Trace length.  The paper uses 29 days (696 h); the default 24 h keeps
        tests fast while benches use longer horizons.
    seed:
        Seed for the trace's private random generator.
    total_machines:
        Fleet size for the 10-type Google-like census.
    machine_types:
        Explicit census overriding ``total_machines`` when provided.
    load_factor:
        Target ratio of steady-state CPU demand to total fleet CPU capacity.
        Arrival rates are rescaled to hit this, so scaled-down fleets see the
        paper's traffic intensity.
    diurnal_amplitude:
        Relative amplitude of the 24 h sinusoidal arrival modulation.
    burst_rate_per_day / burst_magnitude / burst_duration_hours:
        Random arrival surges (flash crowds) layered on the diurnal cycle.
    constrained_fraction:
        Fraction of tasks carrying a placement constraint restricting them to
        a random subset of platforms (the "difficult to schedule" tasks of
        Section III-B).
    mean_job_tasks:
        Mean tasks per job; job sizes are heavy-tailed around this.
    """

    horizon_hours: float = 24.0
    seed: int = 0
    total_machines: int = 1200
    machine_types: tuple[MachineType, ...] | None = None
    profiles: tuple[PriorityGroupProfile, ...] = field(default_factory=_default_profiles)
    load_factor: float = 0.55
    diurnal_amplitude: float = 0.35
    weekly_amplitude: float = 0.10
    burst_rate_per_day: float = 2.0
    burst_magnitude: float = 1.8
    burst_duration_hours: float = 1.5
    constrained_fraction: float = 0.02
    #: Machine types placement constraints are drawn from.  Defaults to the
    #: trace's own census; pass the *simulated fleet's* machine types (via
    #: ``MachineModel.to_machine_type()``) when the trace will replay
    #: against a different fleet (e.g. Table II), so the "difficult to
    #: schedule" tasks of Section III-B stay meaningful there.  Only
    #: platforms that can actually host the task's size are ever chosen.
    constraint_platforms: tuple[MachineType, ...] | None = None
    mean_job_tasks: float = 6.0
    arrival_bin_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if not 0 < self.load_factor < 1.5:
            raise ValueError("load_factor must be in (0, 1.5)")
        if not 0 <= self.constrained_fraction < 1:
            raise ValueError("constrained_fraction must be in [0, 1)")
        if self.mean_job_tasks < 1:
            raise ValueError("mean_job_tasks must be >= 1")
        if not self.arrival_bin_seconds > 0:
            raise ValueError(
                f"arrival_bin_seconds must be positive, got {self.arrival_bin_seconds}"
            )
        for name in ("burst_rate_per_day", "burst_magnitude", "burst_duration_hours"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        groups = [p.group for p in self.profiles]
        if sorted(groups) != sorted(set(groups)):
            raise ValueError("at most one profile per priority group")

    def census(self) -> tuple[MachineType, ...]:
        """The machine census used by this configuration."""
        if self.machine_types is not None:
            return self.machine_types
        return google_like_machine_census(self.total_machines)

    def scaled_profiles(self) -> tuple[PriorityGroupProfile, ...]:
        """Profiles with job rates rescaled to hit ``load_factor``.

        Steady-state CPU demand of group g is approximately
        ``job_rate * mean_job_tasks * mean_cpu * mean_duration`` (Little's
        law).  We scale all groups by a common factor so the sum matches
        ``load_factor * total_cpu_capacity``.
        """
        census = self.census()
        total_cpu = sum(m.cpu_capacity * m.count for m in census)
        demand = sum(
            (p.job_rate_per_hour / 3600.0)
            * self.mean_job_tasks
            * p.mean_cpu()
            * p.mean_duration()
            for p in self.profiles
        )
        if demand <= 0:
            raise ValueError("profiles generate no demand")
        scale = self.load_factor * total_cpu / demand
        return tuple(
            PriorityGroupProfile(
                **{
                    **{f: getattr(p, f) for f in p.__dataclass_fields__},
                    "job_rate_per_hour": p.job_rate_per_hour * scale,
                }
            )
            for p in self.profiles
        )


#: Users request resources on a coarse grid (fractions of cores, round MB),
#: which is why the trace shows strong modal sizes (43% of gratis tasks at
#: one point, Section III-D) and why K-means task classes end up with
#: "standard deviation much less than the mean" (Section IX-A).  The grid is
#: 1/8 of the gratis modal size, so the mode sits exactly on a grid point
#: while the body spreads over many cells and tiny tasks (the low end of the
#: paper's three-orders-of-magnitude span) remain representable.
_CPU_GRID = 0.0125 / 8
_MEMORY_GRID = 0.0159 / 8


def _quantize(value: float, step: float) -> float:
    """Snap a request to the user-facing grid (at least one step, at most 1)."""
    return float(min(max(round(value / step), 1) * step, 1.0))


#: Distinct request-size points per priority group.  Users pick from a
#: small effective menu of popular configurations (Reiss et al. observe the
#: trace's request values are discrete and heavily repeated — 43% of gratis
#: tasks share a single point), so task sizes form a Zipf-weighted catalog
#: rather than a continuous cloud.  This is also what makes the K-means
#: task classes tight ("standard deviation much less than the mean",
#: Section IX-A): most classes capture one or a few dominant points.
_SIZE_CATALOG_POINTS = 40
_SIZE_ZIPF_EXPONENT = 1.25


class _SizeCatalog:
    """A per-group catalog of discrete (cpu, memory) request points.

    CPU sizes sit on a stratified quantile ladder of the group's lognormal
    (so every seed covers the full multi-order-of-magnitude span the paper
    reports); memory is drawn independently per point (no cpu-memory
    correlation, Fig. 7); a random subset of points is single-resource
    intensive.  Popularity is Zipf over a random permutation, making the
    popular sizes independent of their magnitude.
    """

    def __init__(self, profile: PriorityGroupProfile, rng: np.random.Generator) -> None:
        levels = np.linspace(0.005, 0.995, _SIZE_CATALOG_POINTS)
        cpu_quantiles = np.exp(
            profile.size_log_mean
            + profile.size_log_sigma * ndtri(levels)
        )
        points: list[tuple[float, float]] = []
        for base_cpu in cpu_quantiles:
            cpu = float(base_cpu * rng.lognormal(0.0, 0.15))
            mem = float(
                rng.lognormal(
                    profile.size_log_mean + math.log(profile.memory_bias),
                    profile.size_log_sigma,
                )
            )
            if rng.random() < profile.intensive_share:
                # Large points are single-resource intensive (Fig. 7 wings).
                if rng.random() < 0.5:
                    cpu *= profile.intensive_scale
                else:
                    mem *= profile.intensive_scale
            points.append(
                (_quantize(cpu, _CPU_GRID), _quantize(mem, _MEMORY_GRID))
            )
        weights = 1.0 / np.arange(1, len(points) + 1) ** _SIZE_ZIPF_EXPONENT
        # Popularity independent of size.
        self.weights = np.asarray(rng.permutation(weights / weights.sum()))
        self.points = points
        self._cdf = _choice_cdf(self.weights)

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        return self.points[_choice_index(rng, self._cdf)]


def _choice_cdf(p) -> list[float]:
    """The table ``Generator.choice(n, p=p)`` searches: ``cumsum(p)``
    divided by its last entry, computed the way ``choice`` computes it."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _choice_index(rng: np.random.Generator, cdf: list[float]) -> int:
    """One ``rng.choice(len(cdf), p=...)`` draw without its per-call checks.

    ``choice`` draws one ``rng.random()`` and returns
    ``cdf.searchsorted(u, side="right")``; ``bisect_right`` over the same
    floats is that index, and the generator state after it is the same.
    """
    return bisect_right(cdf, rng.random())


#: Scheduling-class weights per priority group (Section III), as
#: :func:`_choice_cdf` tables.
_SCHEDULING_CLASS_CDFS = {
    PriorityGroup.GRATIS: _choice_cdf((0.70, 0.25, 0.04, 0.01)),
    PriorityGroup.OTHER: _choice_cdf((0.35, 0.40, 0.20, 0.05)),
    PriorityGroup.PRODUCTION: _choice_cdf((0.05, 0.20, 0.40, 0.35)),
}


def _scheduling_class_for(rng: np.random.Generator, group: PriorityGroup) -> int:
    """Scheduling class correlated with priority group (Section III)."""
    return _choice_index(rng, _SCHEDULING_CLASS_CDFS[group])


def _normalized(weights: tuple[float, ...]) -> np.ndarray:
    array = np.asarray(weights, dtype=float)
    return array / array.sum()


def _sample_size(
    rng: np.random.Generator,
    profile: PriorityGroupProfile,
    catalog: _SizeCatalog,
) -> tuple[float, float]:
    """Draw one (cpu, memory) request: the modal atom or a catalog point."""
    if rng.random() < profile.mode_share:
        return (profile.mode_cpu, profile.mode_memory)
    return catalog.sample(rng)


def _sample_duration(rng: np.random.Generator, profile: PriorityGroupProfile) -> float:
    """Draw one duration from the short/long mixture."""
    if rng.random() < profile.short_share:
        duration = rng.lognormal(profile.short_log_mean, profile.short_log_sigma)
    else:
        duration = rng.lognormal(profile.long_log_mean, profile.long_log_sigma)
    return min(max(duration, 1.0), profile.max_duration)


def _sample_job_size(rng: np.random.Generator, mean_tasks: float) -> int:
    """Heavy-tailed job size: mostly singletons, occasionally large fan-outs."""
    if mean_tasks <= 1.0:
        return 1
    if rng.random() < 0.55:
        return 1
    # Geometric body plus a rare Pareto tail.
    if rng.random() < 0.95:
        body_mean = max(1.0, (mean_tasks - 0.55) / 0.45)
        return 1 + int(rng.geometric(1.0 / body_mean))
    return 1 + int(rng.pareto(1.5) * mean_tasks)


def _burst_windows(
    rng: np.random.Generator, config: SyntheticTraceConfig
) -> list[tuple[float, float, float]]:
    """Random (start, end, multiplier) arrival surges over the horizon."""
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
    """Time-varying arrival modulation: diurnal * weekly * bursts."""
    day = 24 * 3600.0
    diurnal = 1.0 + config.diurnal_amplitude * math.sin(2 * math.pi * t / day)
    weekly = 1.0 + config.weekly_amplitude * math.sin(2 * math.pi * t / (7 * day))
    multiplier = diurnal * weekly
    for start, end, magnitude in bursts:
        if start <= t < end:
            multiplier *= magnitude
    return max(multiplier, 0.05)


def generate_trace(config: SyntheticTraceConfig | None = None) -> Trace:
    """Generate a synthetic trace calibrated to the paper's marginals.

    The generator walks the horizon in ``arrival_bin_seconds`` bins; in each
    bin it draws a Poisson number of job arrivals per priority group at the
    modulated rate, then materializes each job's tasks (shared resource
    request, jittered durations).

    ``load_factor`` is calibrated *empirically* (:func:`_calibrate`): each
    load pass generates the trace's columns (:class:`_Block`) with the
    current arrival rates and measures the realized p90 CPU demand, and
    further passes rescale the rates until the realized load matches the
    configuration — the analytic moments drift from reality through size
    quantization, the discrete size catalog and the memory calibration.
    The memory passes re-measure the last load pass's columns.  ``Task``
    objects are built once, from those columns, with the final memory
    chain applied.
    """
    config = config or SyntheticTraceConfig()
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0

    # The columns of the latest load pass; memory passes measure over them.
    generated_for: tuple[PriorityGroupProfile, ...] | None = None
    block: _Block | None = None

    def measure(profiles, memory_scales):
        nonlocal generated_for, block
        if profiles is not generated_for:
            bins = _iter_blocks(config, census, profiles, horizon_s)
            block = _Block(*map(np.concatenate, zip(*bins)))
            generated_for = profiles
        return _demand_p90s(
            (block,), horizon_s, memory_scales, _modal_points(profiles)
        )

    plan = _calibrate(config, measure)
    return Trace(
        machine_types=census,
        tasks=tuple(_planned_tasks(block, plan)),
        horizon=horizon_s,
        metadata={
            "generator": "repro.trace.generator",
            "seed": config.seed,
            "horizon_hours": config.horizon_hours,
            "load_factor": config.load_factor,
        },
    )


class _Block(NamedTuple):
    """Tasks as columns, one per :class:`Task` field in field order.

    :func:`_iter_blocks` yields one per arrival bin, rows in generation
    order; :func:`generate_trace` concatenates a whole pass into one.
    """

    job_id: np.ndarray
    index: np.ndarray
    submit_time: np.ndarray
    duration: np.ndarray
    priority: np.ndarray
    scheduling_class: np.ndarray
    cpu: np.ndarray
    memory: np.ndarray
    #: ``frozenset[int] | None`` per task (object dtype).
    allowed_platforms: np.ndarray


def _iter_blocks(
    config: SyntheticTraceConfig,
    census: tuple[MachineType, ...],
    profiles: tuple[PriorityGroupProfile, ...],
    horizon_s: float,
):
    """Yield each arrival bin's tasks as a :class:`_Block`.

    The single shared generation kernel: every calibration pass, the
    materialized trace and :func:`stream_trace` draw the exact same random
    variates in the exact same order from the one seeded generator.  Each
    job's scalar draws keep their order; its per-task duration jitters are
    one ``rng.lognormal(..., size=num_tasks)``, which is bit-identical to
    that many scalar draws and leaves the generator in the same state.
    """
    rng = np.random.default_rng(config.seed)
    bursts = _burst_windows(rng, config)
    constraint_pool = config.constraint_platforms or census
    catalogs = {profile.group: _SizeCatalog(profile, rng) for profile in profiles}
    priority_cdfs = {
        profile.group: _choice_cdf(_normalized(profile.priority_weights))
        for profile in profiles
    }

    job_id = 0
    bin_s = config.arrival_bin_seconds
    num_bins = int(math.ceil(horizon_s / bin_s))

    for b in range(num_bins):
        bin_start = b * bin_s
        bin_end = min(bin_start + bin_s, horizon_s)
        width = bin_end - bin_start
        if width <= 0:
            continue
        jobs = []
        sizes = []
        jitters = []
        multiplier = _rate_multiplier(bin_start + width / 2, config, bursts)
        for profile in profiles:
            catalog = catalogs[profile.group]
            priority_cdf = priority_cdfs[profile.group]
            lam = profile.job_rate_per_hour / 3600.0 * width * multiplier
            num_jobs = int(rng.poisson(lam))
            for _ in range(num_jobs):
                job_id += 1
                submit = float(rng.uniform(bin_start, bin_end))
                num_tasks = _sample_job_size(rng, config.mean_job_tasks)
                cpu, mem = _sample_size(rng, profile, catalog)
                base_duration = _sample_duration(rng, profile)
                priority = profile.priorities[_choice_index(rng, priority_cdf)]
                sched_class = _scheduling_class_for(rng, profile.group)
                constrained = rng.random() < config.constrained_fraction
                allowed = None
                if constrained:
                    # Hard-to-schedule tasks: restricted to a couple of the
                    # platforms that can actually host them.
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
                jobs.append((
                    job_id, submit, base_duration, profile.max_duration,
                    priority, sched_class, cpu, mem, allowed,
                ))
                sizes.append(num_tasks)
                jitters.append(rng.lognormal(0.0, 0.25, size=num_tasks))
        yield _bin_block(jobs, sizes, jitters)


def _bin_block(
    jobs: list[tuple], sizes: list[int], jitters: list[np.ndarray]
) -> _Block:
    """Expand one bin's per-job draws into per-task columns."""
    (job_id, submit, base_duration, max_duration, priority, sched_class,
     cpu, memory, allowed) = zip(*jobs) if jobs else ((),) * 9
    counts = np.array(sizes, dtype=np.intp)

    def per_task(values, dtype=float) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), counts)

    # Elementwise, so each task's float ops are the scalar loop's
    # ``np.clip(base * jitter, 1.0, max_duration)``.
    duration = per_task(base_duration) * (
        np.concatenate(jitters) if jitters else np.empty(0)
    )
    duration = np.minimum(np.maximum(duration, 1.0), per_task(max_duration))
    first_row = np.repeat(np.cumsum(counts) - counts, counts)
    return _Block(
        job_id=per_task(job_id, np.int64),
        index=np.arange(len(first_row), dtype=np.int64) - first_row,
        submit_time=per_task(submit),
        duration=duration,
        priority=per_task(priority, np.int64),
        scheduling_class=per_task(sched_class, np.int64),
        cpu=per_task(cpu),
        memory=per_task(memory),
        allowed_platforms=np.repeat(
            np.fromiter(allowed, dtype=object, count=len(jobs)), counts
        ),
    )


@dataclass(frozen=True)
class TracePlan:
    """Frozen calibration result for one ``(config)`` — the streaming recipe.

    :func:`generate_trace` interleaves generation passes with load and
    memory calibration; the streaming path splits that into a *planning*
    stage (:func:`plan_trace`, constant-memory statistics passes that
    reproduce the calibrated profiles and the memory-scale chain bit for
    bit) and a single *emission* pass (:func:`stream_trace`).  The plan is
    JSON-serializable (:func:`plan_params`) so a coordinator can calibrate
    once and ship the recipe to shard workers, which then pay only the one
    emission pass each.
    """

    #: Load-calibrated profiles (same values generate_trace converges to).
    profiles: tuple[PriorityGroupProfile, ...]
    #: Memory-calibration scale chain, applied sequentially (with clipping
    #: between steps) to non-modal tasks — see :func:`_scaled_memory`.
    memory_scales: tuple[float, ...]


def _scaled_memory(
    cpu: np.ndarray,
    memory: np.ndarray,
    scales: tuple[float, ...],
    modal_points: frozenset[tuple[float, float]],
) -> np.ndarray:
    """Apply the memory-calibration scale chain to a column of tasks.

    Each step first retires the tasks whose *current* (cpu, memory) is a
    modal atom — they keep their memory from then on — then scales and
    clips the rest, so the chain is applied step by step, not as one fused
    factor.
    """
    if not scales:
        return memory
    memory = memory.copy()
    pending = np.ones(memory.shape, dtype=bool)
    for scale in scales:
        for mode_cpu, mode_memory in sorted(modal_points):
            pending &= (cpu != mode_cpu) | (memory != mode_memory)
        memory[pending] = np.minimum(
            np.maximum(memory[pending] * scale, _MEMORY_GRID), 1.0
        )
    return memory


def _planned_tasks(block: _Block, plan: TracePlan) -> list[Task]:
    """One ``Task`` per row of ``block``, with the plan's memory chain.

    Ordered by ``(submit_time, job_id, index)``, keys that never tie.
    """
    block = block._replace(
        memory=_scaled_memory(
            block.cpu, block.memory, plan.memory_scales, _modal_points(plan.profiles)
        )
    )
    order = np.lexsort((block.index, block.job_id, block.submit_time))
    return list(map(Task, *(column[order].tolist() for column in block)))


def _modal_points(
    profiles: tuple[PriorityGroupProfile, ...],
) -> frozenset[tuple[float, float]]:
    """The profiles' modal (cpu, memory) atoms, exempt from memory scaling."""
    return frozenset((p.mode_cpu, p.mode_memory) for p in profiles)


def _demand_p90s(
    blocks,
    horizon_s: float,
    memory_scales: tuple[float, ...],
    modal_points: frozenset[tuple[float, float]],
) -> tuple[float, float]:
    """One pass over ``blocks`` -> (cpu_p90, mem_p90).

    The p90 of the 600 s binned demand series, memory taken after the
    ``memory_scales`` chain.  Long tasks accumulate through the window, so
    the demand series ramps; calibrating on the time-average would leave
    the busy end of the trace far above the configured load (and possibly
    above the fleet).  The 90th percentile pins the *sustained busy* level.

    Each task adds ``+v`` at its start slot and ``-v`` at its end slot.
    ``np.add.at`` is unbuffered and applies its operands in order, so one
    call per block over the interleaved ``(start, end)`` slots with
    ``(+v, -v)`` values performs, slot by slot, the same additions in the
    same order as a loop over the tasks in generation order — and every
    percentile is bit-identical whether the pass arrives as one block or
    bin by bin.
    """
    bin_s = 600.0
    num_bins = int(math.ceil(horizon_s / bin_s))
    cpu_deltas = np.zeros(num_bins + 1)
    mem_deltas = np.zeros(num_bins + 1)
    for block in blocks:
        start = np.minimum(block.submit_time // bin_s, num_bins - 1)
        end = np.minimum((block.submit_time + block.duration) // bin_s + 1, num_bins)
        slots = np.column_stack((start, end)).astype(np.intp).ravel()
        memory = _scaled_memory(block.cpu, block.memory, memory_scales, modal_points)
        np.add.at(cpu_deltas, slots, np.column_stack((block.cpu, -block.cpu)).ravel())
        np.add.at(mem_deltas, slots, np.column_stack((memory, -memory)).ravel())
    cpu_p90 = float(np.percentile(np.cumsum(cpu_deltas[:num_bins]), 90))
    mem_p90 = float(np.percentile(np.cumsum(mem_deltas[:num_bins]), 90))
    return cpu_p90, mem_p90


def _calibrate(config: SyntheticTraceConfig, measure) -> TracePlan:
    """The generator's one calibration loop: load first, then memory.

    ``measure(profiles, memory_scales) -> (cpu_p90, mem_p90)`` is a
    :func:`_demand_p90s` pass over the trace those profiles generate;
    :func:`generate_trace` measures the columns it holds,
    :func:`plan_trace` regenerates.  Each pass is deterministic given
    (seed, rates), so the loop is reproducible.

    **Load**: heavy-tailed job sizes and durations make the realized load
    of a single pass noisy, so one multiplicative correction is not enough
    — up to four rate rescalings on the p90 CPU demand.

    **Memory**: Zipf-popular discrete sizes make the realized resource mix
    extremely seed-sensitive (a couple of long, popular, large points
    dominate the duration-weighted totals), which would flip the
    evaluation between memory-bound and cpu-bound regimes per seed.  A
    uniform post-scale of non-modal memory requests sets the trace-wide
    p90 memory/cpu ratio to the mean of the profiles' ``memory_bias``,
    preserving within-trace heterogeneity, cpu-memory independence and the
    exact modal point.  The modal atoms are exempt from scaling and p90 is
    not linear in the scale, so one step leaves residue — up to three
    scales, applied as a chain.  No re-quantization: rounding small
    memories to the grid biases the realized ratio low; calibration
    accuracy wins here.
    """
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
    # The last load pass already measured the unscaled p90s, so only the
    # scales cost a further pass each.
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
    """Run the generator's calibration in constant memory.

    The same :func:`_calibrate` loop as :func:`generate_trace`, measuring
    by regenerating the pass one bin's columns at a time instead of
    holding it.  The resulting :class:`TracePlan` drives
    :func:`stream_trace` to a stream that is bit-identical to
    ``generate_trace(config).tasks``.
    """
    config = config or SyntheticTraceConfig()
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0

    def measure(profiles, memory_scales):
        return _demand_p90s(
            _iter_blocks(config, census, profiles, horizon_s),
            horizon_s,
            memory_scales,
            _modal_points(profiles),
        )

    return _calibrate(config, measure)


def stream_trace(
    config: SyntheticTraceConfig | None = None,
    plan: TracePlan | None = None,
):
    """Yield the trace's tasks in final order with constant memory.

    The stream is bit-identical to ``generate_trace(config).tasks`` at the
    same seed: one emission pass re-generates the calibrated columns bin by
    bin, applies the plan's memory-scale chain and orders each bin's rows
    by ``(submit_time, job_id, index)``.  Per-bin sorting equals the
    materialized global sort because bins cover disjoint submit-time
    intervals and ``job_id`` increases monotonically across bins, which
    breaks any tie exactly at a bin boundary.

    Peak memory is one arrival bin's tasks (seconds of trace time), not the
    whole horizon.  ``plan`` lets a coordinator calibrate once
    (:func:`plan_trace`) and fan the recipe out to workers; omitted, it is
    computed here first.
    """
    config = config or SyntheticTraceConfig()
    if plan is None:
        plan = plan_trace(config)
    census = config.census()
    horizon_s = config.horizon_hours * 3600.0
    for block in _iter_blocks(config, census, plan.profiles, horizon_s):
        yield from _planned_tasks(block, plan)


def plan_params(plan: TracePlan) -> dict:
    """JSON-native encoding of a :class:`TracePlan` for scenario params.

    Values survive ``canonical_json`` round-trips exactly (python floats
    re-parse bit-identically from their repr), so journal resume's
    params-equality check holds for plans shipped inside scenario params.
    """
    return {
        "profiles": [
            {
                field_name: (
                    value.name
                    if isinstance(value, PriorityGroup)
                    else list(value) if isinstance(value, tuple) else value
                )
                for field_name in p.__dataclass_fields__
                for value in (getattr(p, field_name),)
            }
            for p in plan.profiles
        ],
        "memory_scales": list(plan.memory_scales),
    }


def plan_from_params(params: dict) -> TracePlan:
    """Inverse of :func:`plan_params`."""
    profiles = []
    for raw in params["profiles"]:
        kwargs = dict(raw)
        kwargs["group"] = PriorityGroup[kwargs["group"]]
        kwargs["priorities"] = tuple(int(p) for p in kwargs["priorities"])
        kwargs["priority_weights"] = tuple(float(w) for w in kwargs["priority_weights"])
        profiles.append(PriorityGroupProfile(**kwargs))
    return TracePlan(
        profiles=tuple(profiles),
        memory_scales=tuple(float(s) for s in params["memory_scales"]),
    )
