"""The M/G/N queueing model behind container counting.

The paper models the queue of class-i tasks served by ``N`` containers as an
M/G/N queue.  Eq. 2 is the Erlang-C waiting probability

    pi_N = (N rho)^N / (N! (1 - rho)) * [ sum_{k<N} (N rho)^k / k!
            + (N rho)^N / (N! (1 - rho)) ]^{-1}

and Eq. 1 the Allen-Cunneen-style mean wait

    d ~= pi_N / (1 - rho) * (1 + CV^2) / 2 * 1 / (N mu)

where ``mu`` is the per-container service rate, ``rho = lambda / (N mu)``
the traffic intensity and ``CV^2`` the squared coefficient of variation of
service time.  :func:`required_containers` inverts Eq. 1: the smallest N
meeting a target mean delay with ``rho < 1``.

Erlang-C is computed through the numerically stable Erlang-B recurrence, so
N in the thousands poses no overflow risk.
"""

from __future__ import annotations

import math
import threading
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import CapacityModelUnstable

#: The MPC loop re-evaluates Eqs. 1-3 with the *same* (load, N) pairs at
#: every tick (the container manager's classes change slowly); memoizing the
#: O(N) Erlang recurrence and the O(log N)-probe inversion turns the
#: controller's hot path into dictionary lookups.  Sized generously: a key
#: is two floats + an int, so even full caches stay in the low MB.
_ERLANG_CACHE_SIZE = 65_536
_INVERSE_CACHE_SIZE = 16_384

class _OpenCurves(threading.local):
    """The Erlang-B curve of the inversion running on this thread.

    ``by_load[a][k] = B(a, k)``, grown on demand.  Every probe of one
    inversion shares ``a``, so each probe reads the prefix instead of
    restarting the recurrence at ``k = 1``.  A curve lives for its one
    inversion only (a compact ``array('d')``, never a process-global
    cache), so it costs nothing once the inversion returns.
    """

    def __init__(self) -> None:
        self.by_load: dict[float, array] = {}


_open_curves = _OpenCurves()


def _erlang_b_prefix(curve: array, offered_load: float, servers: int) -> float:
    """``B(a, servers)``, extending ``curve`` (``curve[k] = B(a, k)``) as needed.

    The one implementation of the recurrence: the same operations in the
    same order as a loop from ``B(a, 0) = 1``, so a value read from the
    prefix is the float a fresh recurrence would return.  Validated here so
    the recurrence can never run on a negative or NaN load, whichever
    entry point reached it.
    """
    if not (offered_load >= 0):
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    if servers >= len(curve):
        blocking = curve[-1]
        append = curve.append
        for k in range(len(curve), servers + 1):
            blocking = offered_load * blocking / (k + offered_load * blocking)
            append(blocking)
    return curve[servers]


@contextmanager
def _open_curve(offered_load: float) -> Iterator[None]:
    """Share one Erlang-B prefix among every probe of one inversion."""
    _open_curves.by_load[offered_load] = array("d", (1.0,))
    try:
        yield
    finally:
        del _open_curves.by_load[offered_load]


@lru_cache(maxsize=_ERLANG_CACHE_SIZE)
def _erlang_b_cached(offered_load: float, servers: int) -> float:
    # lru_cache does not cache raises, so bad inputs fail on every call.
    curve = _open_curves.by_load.get(offered_load)
    if curve is None:
        curve = array("d", (1.0,))  # outside an inversion: a throwaway prefix
    return _erlang_b_prefix(curve, offered_load, servers)


def erlang_b(offered_load: float, servers: int) -> float:
    """Erlang-B blocking probability via the stable recurrence.

    ``B(a, 0) = 1;  B(a, k) = a B(a, k-1) / (k + a B(a, k-1))``.
    """
    return _erlang_b_cached(offered_load, servers)


def erlang_c(offered_load: float, servers: int) -> float:
    """Erlang-C waiting probability (Eq. 2's pi_N).

    ``offered_load`` is ``a = lambda / mu = N rho``.  Requires ``a < N`` for
    a stable queue; returns 1.0 at or beyond saturation (every arrival
    waits).
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0
    # Far above the offered load the wait probability is astronomically
    # small (sub-Gaussian in the slack); short-circuit so callers probing
    # large N (binary searches at data-center scale) stay O(1) instead of
    # paying the O(N) recurrence.
    if servers > offered_load + 12.0 * math.sqrt(offered_load) + 50.0:
        return 0.0
    blocking = erlang_b(offered_load, servers)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mgn_mean_wait(
    arrival_rate: float,
    service_rate: float,
    servers: int,
    scv: float = 1.0,
) -> float:
    """Mean scheduling delay of an M/G/N queue (Eq. 1).

    Parameters
    ----------
    arrival_rate:
        lambda, task arrivals per second.
    service_rate:
        mu, completions per second per container (1 / mean duration).
    servers:
        N, number of containers.
    scv:
        CV^2, squared coefficient of variation of service time
        (1.0 recovers M/M/N).

    Returns ``inf`` when the queue is unstable (rho >= 1).
    """
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if scv < 0:
        raise ValueError(f"scv must be >= 0, got {scv}")
    if arrival_rate == 0:
        return 0.0
    offered = arrival_rate / service_rate
    rho = offered / servers
    if rho >= 1.0:
        return math.inf
    pi = erlang_c(offered, servers)
    mmn_wait = pi / (servers * service_rate * (1.0 - rho))
    return mmn_wait * (1.0 + scv) / 2.0


def _halfin_whitt_wait_probability(beta: float) -> float:
    """Asymptotic P(wait) for N = a + beta*sqrt(a) servers (Halfin-Whitt).

    ``pi ~= [1 + beta * Phi(beta) / phi(beta)]^{-1}`` — exact in the
    many-server heavy-traffic limit, excellent for a >~ 100.
    """
    if beta <= 0:
        return 1.0
    phi = math.exp(-beta * beta / 2.0) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + math.erf(beta / math.sqrt(2.0)))
    return 1.0 / (1.0 + beta * big_phi / phi)


def required_containers(
    arrival_rate: float,
    service_rate: float,
    target_delay: float,
    scv: float = 1.0,
    max_servers: int = 10_000_000,
) -> int:
    """Smallest N with ``rho < 1`` and mean wait <= ``target_delay``.

    Mean wait is monotonically decreasing in N.  Small offered loads use
    exponential search plus bisection on the exact Eq. 1; large offered
    loads (> ~2000 Erlangs, where each exact Erlang-C costs O(a)) start
    from the Halfin-Whitt square-root-staffing estimate and walk to the
    exact answer with a handful of exact evaluations.  Every probe shares
    one Erlang-B prefix ``B(a, 0..k)``, so one inversion runs the O(N)
    recurrence once, up to the largest N it probes.

    Results are memoized per exact argument tuple (the inverse-lookup
    cache): the container manager re-inverts the same (lambda, mu, SLO,
    CV^2) classes every control tick.

    Raises :class:`repro.errors.CapacityModelUnstable` (also a
    ``ValueError``) when no count within ``max_servers`` stabilizes the
    queue at the target delay — the degradation ladder classifies it by
    code and drops the tick to reactive provisioning.
    """
    if target_delay <= 0:
        raise ValueError(f"target_delay must be positive, got {target_delay}")
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if arrival_rate == 0:
        return 0
    return _required_containers_cached(
        arrival_rate, service_rate, target_delay, scv, max_servers
    )


@lru_cache(maxsize=_INVERSE_CACHE_SIZE)
def _required_containers_cached(
    arrival_rate: float,
    service_rate: float,
    target_delay: float,
    scv: float,
    max_servers: int,
) -> int:
    offered = arrival_rate / service_rate
    with _open_curve(offered):
        low = int(math.floor(offered)) + 1  # smallest N with rho < 1
        if low > max_servers:
            raise CapacityModelUnstable(
                f"offered load {offered:.0f} exceeds max_servers {max_servers}",
                arrival_rate=arrival_rate,
                service_rate=service_rate,
                target_delay=target_delay,
                max_servers=max_servers,
            )
        if mgn_mean_wait(arrival_rate, service_rate, low, scv) <= target_delay:
            return low

        if offered > 2000.0:
            # Square-root staffing: find the smallest beta grid point whose
            # approximate wait meets the target, then correct with exact checks.
            sqrt_a = math.sqrt(offered)
            candidate = None
            for i in range(81):
                beta = 0.005 * (1.3 ** i)  # 0.005 .. ~5e8 (log grid)
                n = int(math.ceil(offered + beta * sqrt_a))
                slack = n * service_rate - arrival_rate
                if slack <= 0:
                    continue
                wait = (
                    _halfin_whitt_wait_probability(beta) * (1.0 + scv) / (2.0 * slack)
                )
                if wait <= target_delay * 0.95:
                    candidate = max(n, low)
                    break
            if candidate is None or candidate > max_servers:
                raise CapacityModelUnstable(
                    f"no container count up to {max_servers} meets delay "
                    f"{target_delay} (lambda={arrival_rate}, mu={service_rate})",
                    arrival_rate=arrival_rate,
                    service_rate=service_rate,
                    target_delay=target_delay,
                    max_servers=max_servers,
                )
            # Walk down while the exact wait still meets the target, then up if
            # the approximation undershot.  Steps of ~0.5% of sqrt(a) keep the
            # number of exact O(a) evaluations small.
            step = max(int(0.05 * sqrt_a), 1)
            while (
                candidate - step >= low
                and mgn_mean_wait(arrival_rate, service_rate, candidate - step, scv)
                <= target_delay
            ):
                candidate -= step
            while (
                mgn_mean_wait(arrival_rate, service_rate, candidate, scv)
                > target_delay
            ):
                candidate += 1
                if candidate > max_servers:
                    raise CapacityModelUnstable(
                        f"no container count up to {max_servers} meets delay "
                        f"{target_delay} (lambda={arrival_rate}, mu={service_rate})",
                        arrival_rate=arrival_rate,
                        service_rate=service_rate,
                        target_delay=target_delay,
                        max_servers=max_servers,
                    )
            # Refine to the exact minimum within the last step.
            while (
                candidate - 1 >= low
                and mgn_mean_wait(arrival_rate, service_rate, candidate - 1, scv)
                <= target_delay
            ):
                candidate -= 1
            return candidate

        # Exact exponential search + bisection for modest loads.
        high = low
        while mgn_mean_wait(arrival_rate, service_rate, high, scv) > target_delay:
            high *= 2
            if high > max_servers:
                raise CapacityModelUnstable(
                    f"no container count up to {max_servers} meets delay "
                    f"{target_delay} (lambda={arrival_rate}, mu={service_rate})",
                    arrival_rate=arrival_rate,
                    service_rate=service_rate,
                    target_delay=target_delay,
                    max_servers=max_servers,
                )
        while low + 1 < high:
            mid = (low + high) // 2
            if mgn_mean_wait(arrival_rate, service_rate, mid, scv) <= target_delay:
                high = mid
            else:
                low = mid
        return high


def queueing_cache_info() -> dict[str, dict[str, int]]:
    """Hit/miss statistics of the Erlang and inverse-lookup caches."""
    return {
        "erlang_b": _erlang_b_cached.cache_info()._asdict(),
        "required_containers": _required_containers_cached.cache_info()._asdict(),
    }


def clear_queueing_caches() -> None:
    """Drop both memoization caches (tests and memory-sensitive callers)."""
    _erlang_b_cached.cache_clear()
    _required_containers_cached.cache_clear()


@dataclass(frozen=True)
class MGNQueue:
    """Convenience wrapper bundling one class's queueing parameters."""

    arrival_rate: float
    service_rate: float
    scv: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {self.service_rate}")
        if self.scv < 0:
            raise ValueError(f"scv must be >= 0, got {self.scv}")

    @property
    def offered_load(self) -> float:
        """a = lambda / mu, in Erlangs."""
        return self.arrival_rate / self.service_rate

    def utilization(self, servers: int) -> float:
        """rho for a given container count."""
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        return self.offered_load / servers

    def wait_probability(self, servers: int) -> float:
        """pi_N (Eq. 2)."""
        return erlang_c(self.offered_load, servers)

    def mean_wait(self, servers: int) -> float:
        """Mean scheduling delay (Eq. 1)."""
        return mgn_mean_wait(self.arrival_rate, self.service_rate, servers, self.scv)

    def containers_for_delay(self, target_delay: float) -> int:
        """Invert Eq. 1 for a target mean delay."""
        return required_containers(
            self.arrival_rate, self.service_rate, target_delay, self.scv
        )
