"""Differential test: Eq. 1 analytics vs the discrete-event M/G/N queue.

The analytical layer (:mod:`repro.queueing.mgn`) and the simulator
(:mod:`repro.queueing.simulate`) implement the same queue independently —
one via the Allen-Cunneen approximation over Erlang-C, one by replaying
arrivals against N servers.  Running both on matched parameters bounds the
modelling error the container manager inherits.

Documented tolerances (the approximation's accuracy classes):

- ``scv <= 1`` (M/M/N and hypo-exponential service): Eq. 1 is near-exact;
  we demand 35% relative agreement on mean wait, which covers the Monte
  Carlo noise of ~10k simulated tasks.
- ``scv > 1`` (heavy-tailed service): Allen-Cunneen is a two-moment
  approximation; the accepted accuracy class is a factor of 2, and the
  prediction must not *undershoot* the simulation by more than 2x either.
"""

import math

import pytest

from repro.queueing import (
    erlang_c,
    mgn_mean_wait,
    required_containers,
    simulate_mgn_queue,
)

#: (arrival_rate, service_rate, servers, scv) — matched parameter grid
#: spanning light/heavy load and low/high service variability.
GRID = [
    (6.0, 1.0, 8, 1.0),   # rho = 0.75, exponential service
    (8.0, 1.0, 12, 1.0),  # rho = 0.67, more servers
    (3.0, 1.0, 5, 0.5),   # rho = 0.60, low-variance service
    (9.0, 1.0, 10, 1.0),  # rho = 0.90, near-critical
    (4.0, 1.0, 6, 2.0),   # rho = 0.67, heavy-tailed
    (5.0, 1.0, 7, 4.0),   # rho = 0.71, heavier tail
]


@pytest.mark.parametrize("lam,mu,n,scv", GRID)
def test_mean_wait_matches_simulation(lam, mu, n, scv):
    predicted = mgn_mean_wait(lam, mu, n, scv=scv)
    simulated = simulate_mgn_queue(
        lam, mu, n, scv=scv, num_tasks=12_000, seed=1
    ).mean_wait
    assert math.isfinite(predicted)
    if scv <= 1.0:
        assert predicted == pytest.approx(simulated, rel=0.35)
    else:
        # Two-moment approximation class: within a factor of 2, both ways.
        assert predicted <= simulated * 2.0 + 1e-9
        assert predicted >= simulated * 0.5 - 1e-9


@pytest.mark.parametrize("lam,mu,n", [(6.0, 1.0, 8), (9.0, 1.0, 10), (3.0, 1.0, 5)])
def test_wait_probability_matches_simulation(lam, mu, n):
    predicted = erlang_c(lam / mu, n)
    simulated = simulate_mgn_queue(
        lam, mu, n, scv=1.0, num_tasks=12_000, seed=2
    ).wait_probability
    assert predicted == pytest.approx(simulated, abs=0.15)


def test_required_containers_honoured_by_simulation():
    """The inverted count actually delivers the delay in the event queue.

    This is the contract the container manager relies on: schedule
    ``required_containers`` servers and the measured mean wait lands at or
    under the target (up to Monte Carlo noise — we allow 50% headroom,
    well inside the over-provisioning the controller applies anyway).
    """
    lam, mu, target = 7.0, 0.5, 3.0
    n = required_containers(lam, mu, target)
    result = simulate_mgn_queue(lam, mu, n, scv=1.0, num_tasks=15_000, seed=3)
    assert result.mean_wait <= target * 1.5
    # One fewer server must be visibly worse or unstable.
    stability_floor = int(math.floor(lam / mu)) + 1
    if n > stability_floor:
        worse = simulate_mgn_queue(lam, mu, n - 1, scv=1.0, num_tasks=15_000, seed=3)
        assert worse.mean_wait > result.mean_wait
