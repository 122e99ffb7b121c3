"""Server catalogs: the Table II fleet and Google-like energy models.

Table II of the paper simulates four server models; capacities are
normalized so the largest machine (HP DL585 G7: 4x12 = 48 cores, 64 GB) has
capacity 1.0 for both resources:

    Model                  Procs  Cores/proc  Memory  Machines
    Dell PowerEdge R210    1      4           4 GB    7000
    Dell PowerEdge R515    2      6           32 GB   1500
    HP DL385 G7            2      12          16 GB   1000
    HP DL585 G7            4      12          64 GB   500

Idle/peak watts are set from public Energy Star-class measurements for these
models (DESIGN.md section 2); the dynamic range is split 85/15 between CPU
and memory, the conventional attribution for post-2010 servers.
"""

from __future__ import annotations

from repro.energy.models import LinearPowerModel, MachineModel
from repro.trace.schema import MachineType

#: (name, cores, memory_gb, count, idle_watts, peak_watts, switch_cost, boot_s)
#: Idle/peak follow the Fig. 9 ordering: the 2-socket DL385 G7 delivers the
#: most capacity per watt; the 4-socket DL585 G7 is capable but power-hungry
#: ("the other types of servers are able to host it but will consume much
#: more energy"); the R210 is small and per-unit inefficient.
#: Switch costs approximate about one machine-hour of idle energy — the
#: paper's "average switching cost ... obtained through experiments"
#: (boot transient plus the idle burn of draining).  Large enough to damp
#: control flapping, small enough to amortize within the MPC horizon.
_TABLE2_RAW: tuple[tuple[str, int, int, int, float, float, float, float], ...] = (
    ("Dell PowerEdge R210", 4, 4, 7000, 58.0, 118.0, 0.006, 90.0),
    ("Dell PowerEdge R515", 12, 32, 1500, 124.0, 245.0, 0.012, 120.0),
    ("HP DL385 G7", 24, 16, 1000, 138.0, 275.0, 0.014, 120.0),
    ("HP DL585 G7", 48, 64, 500, 321.0, 649.0, 0.032, 150.0),
)

_MAX_CORES = 48
_MAX_MEMORY_GB = 64
_CPU_DYNAMIC_SHARE = 0.85


def _model_from_raw(
    platform_id: int,
    raw: tuple[str, int, int, int, float, float, float, float],
    scale: float,
) -> MachineModel:
    name, cores, memory_gb, count, idle, peak, switch_cost, boot_s = raw
    dynamic = peak - idle
    return MachineModel(
        name=name,
        platform_id=platform_id,
        cpu_capacity=cores / _MAX_CORES,
        memory_capacity=memory_gb / _MAX_MEMORY_GB,
        count=max(1, round(count * scale)),
        power_model=LinearPowerModel(
            idle_watts=idle,
            alpha_watts=(
                dynamic * _CPU_DYNAMIC_SHARE,
                dynamic * (1.0 - _CPU_DYNAMIC_SHARE),
            ),
        ),
        switch_cost=switch_cost,
        boot_seconds=boot_s,
    )


def table2_fleet(scale: float = 0.1) -> tuple[MachineModel, ...]:
    """The Table II fleet, scaled down by ``scale`` (default 1/10).

    ``scale=1.0`` reproduces the paper's 10,000-machine cluster; the default
    1,000-machine fleet keeps simulations laptop-sized while preserving the
    7000:1500:1000:500 proportions (DESIGN.md section 5).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return tuple(
        _model_from_raw(i + 1, raw, scale) for i, raw in enumerate(_TABLE2_RAW)
    )


TABLE2_MODELS: tuple[MachineModel, ...] = table2_fleet(scale=1.0)
"""The unscaled Table II fleet (7000/1500/1000/500 machines)."""


def google_like_energy_models(
    machine_types: tuple[MachineType, ...],
) -> tuple[MachineModel, ...]:
    """Attach plausible power models to a Google-like 10-type census.

    The trace does not publish hardware specs (Section III-C), so idle draw
    scales with machine capacity around a 60-260 W range and the same linear
    form as Table II is used.
    """
    models = []
    for machine in machine_types:
        size = 0.5 * (machine.cpu_capacity + machine.memory_capacity)
        idle = 50.0 + 210.0 * size
        dynamic = idle * 0.9
        models.append(
            MachineModel(
                name=machine.name or f"platform-{machine.platform_id}",
                platform_id=machine.platform_id,
                cpu_capacity=machine.cpu_capacity,
                memory_capacity=machine.memory_capacity,
                count=machine.count,
                power_model=LinearPowerModel(
                    idle_watts=idle,
                    alpha_watts=(
                        dynamic * _CPU_DYNAMIC_SHARE,
                        dynamic * (1.0 - _CPU_DYNAMIC_SHARE),
                    ),
                ),
                switch_cost=0.01 + 0.03 * size,
                boot_seconds=120.0,
            )
        )
    return tuple(models)
