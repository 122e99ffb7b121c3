"""Discrete-event M/G/N queue simulation.

A reference implementation used to validate the Eq. 1 approximation
(``tests/test_queueing_differential.py``) and available to users who want
to check the container-count model against their own service-time
distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: Absolute tolerance for classifying an SCV as exponential/deterministic;
#: well below any physically meaningful squared coefficient of variation.
_SCV_TOLERANCE = 1e-12


@dataclass(frozen=True)
class QueueSimulationResult:
    """Outcome of one M/G/N simulation run."""

    mean_wait: float
    p95_wait: float
    wait_probability: float
    utilization: float
    num_tasks: int


def simulate_mgn_queue(
    arrival_rate: float,
    service_rate: float,
    servers: int,
    scv: float = 1.0,
    num_tasks: int = 10_000,
    warmup_fraction: float = 0.25,
    seed: int = 0,
) -> QueueSimulationResult:
    """Simulate an M/G/N queue and measure waiting-time statistics.

    Service times are exponential for ``scv == 1`` and lognormal with
    matching first two moments otherwise.  The first ``warmup_fraction`` of
    tasks is discarded as transient.
    """
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if scv < 0:
        raise ValueError(f"scv must be >= 0, got {scv}")
    if num_tasks < 10:
        raise ValueError(f"num_tasks must be >= 10, got {num_tasks}")
    if not 0 <= warmup_fraction < 1:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=num_tasks))
    mean_service = 1.0 / service_rate
    # Branch on tolerance, not exact float equality: an scv that arrives as
    # 1.0 +/- 1 ulp from an upstream moment computation must select the
    # same (exponential) service-time model as an exact 1.0.
    if math.isclose(scv, 0.0, abs_tol=_SCV_TOLERANCE):
        services = np.full(num_tasks, mean_service)
    elif math.isclose(scv, 1.0, rel_tol=1e-9, abs_tol=_SCV_TOLERANCE):
        services = rng.exponential(mean_service, size=num_tasks)
    else:
        sigma2 = math.log(1.0 + scv)
        services = rng.lognormal(
            math.log(mean_service) - sigma2 / 2, math.sqrt(sigma2), size=num_tasks
        )

    free_at = np.zeros(servers)
    waits = np.empty(num_tasks)
    busy_time = 0.0
    for i in range(num_tasks):
        k = int(np.argmin(free_at))
        start = max(arrivals[i], free_at[k])
        waits[i] = start - arrivals[i]
        free_at[k] = start + services[i]
        busy_time += services[i]

    cut = int(num_tasks * warmup_fraction)
    steady = waits[cut:]
    horizon = float(free_at.max())
    return QueueSimulationResult(
        mean_wait=float(steady.mean()),
        p95_wait=float(np.percentile(steady, 95)),
        wait_probability=float((steady > 1e-12).mean()),
        utilization=min(busy_time / (servers * horizon), 1.0) if horizon > 0 else 0.0,
        num_tasks=int(steady.size),
    )
