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
N in the thousands poses no overflow risk.  That recurrence starts at
``B(a, 0) = 1`` and costs O(a) steps before it reaches the first stable N,
``floor(a) + 1``.  :func:`required_containers` does not pay that: each
inversion starts a *certified* curve at ``floor(a) + 1`` from a direct sum
of O(sqrt(a)) terms and decides each probe from it whenever a proven error
margin separates the wait from the target (:func:`_certified_probe`); only
a probe within that margin runs the exact O(a) chain.  Every integer it
returns is the one the exact chain gives.
"""

from __future__ import annotations

import math
import threading
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from repro.errors import CapacityModelUnstable

#: The MPC loop re-evaluates Eqs. 1-3 with the *same* classes at every
#: tick (the container manager's classes change slowly); memoizing the
#: inversion (and the O(N) Erlang recurrence behind stand-alone and
#: fallback calls) turns the controller's hot path into dictionary
#: lookups.  Sized generously: a key is a few floats and ints, so even
#: full caches stay in the low MB.
_ERLANG_CACHE_SIZE = 65_536
_INVERSE_CACHE_SIZE = 16_384

#: A probe trusts the certified curve only when its wait lies farther than
#: this fraction of the target from the target (see :func:`_certified_probe`).
_MARGIN = 2.0**-20
#: Largest N the margin's proof covers; above it every probe runs the
#: exact chain.
_CERTIFIED_MAX_SERVERS = 10_000_000
#: Terms per numpy block of the direct sum behind a certified curve.
_SUM_CHUNK = 1024
#: The direct sum stops once its remaining terms provably add less than
#: this fraction of it.
_SUM_TAIL = 2.0**-60
#: The proof is about normal floats: a reading or a service rate below
#: ``_FLOOR`` (or above ``_CEIL``, or a NaN) falls back to the exact chain.
_FLOOR = 2.0**-1000
_CEIL = 2.0**1000


class _OpenCurves(threading.local):
    """The Erlang-B curves of the inversion running on this thread.

    ``certified[a][k - N0] = B(a, k)`` for ``k >= N0 = floor(a) + 1``: the
    curve every probe reads first (:func:`_certified_probe`).
    ``by_load[a][k] = B(a, k)`` from ``k = 0``: the exact chain, grown only
    when a probe falls back to it.  Both live for their one inversion only
    (compact ``array('d')``, never a process-global cache), so they cost
    nothing once the inversion returns.
    """

    def __init__(self) -> None:
        self.by_load: dict[float, array] = {}
        self.certified: dict[float, array] = {}


_open_curves = _OpenCurves()


def _erlang_b_prefix(
    curve: array, offered_load: float, servers: int, first: int = 0
) -> float:
    """``B(a, servers)``, extending ``curve`` (``curve[k - first] = B(a, k)``)
    as needed.

    The one implementation of the recurrence step: from ``first = 0`` it is
    the same operations in the same order as a loop from ``B(a, 0) = 1``,
    so a value read from the prefix is the float a fresh recurrence would
    return.  Validated here so the recurrence can never run on a negative
    or NaN load, whichever entry point reached it.
    """
    if not (offered_load >= 0):
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    if servers - first >= len(curve):
        # ``a * B`` is computed once per step (the textbook line evaluates
        # the same product twice), ``k`` counts in floats (exact below
        # 2**53, and ``int + float`` converts the int first), and the new
        # entries land in one ``extend``: every float is unchanged.
        start = first + len(curve)
        block = [0.0] * (servers + 1 - start)
        blocking = curve[-1]
        k = float(start)
        for i in range(len(block)):
            load_blocking = offered_load * blocking
            blocking = load_blocking / (k + load_blocking)
            block[i] = blocking
            k += 1.0
        curve.extend(block)
    return curve[servers - first]


def _erlang_b_direct(offered_load: float, servers: int) -> float:
    """``B(a, N)`` from ``1/B = sum_{j=0..N} t_j``, ``t_j = prod_{i<j} (N - i)/a``.

    The terms come from ``np.cumprod`` in blocks of :data:`_SUM_CHUNK`.
    For ``N = floor(a) + 1`` every ratio ``r_i = (N - i)/a`` past ``i = 0``
    is at most one and falls with ``i``, so the terms after ``t_j`` add at
    most ``t_j r / (1 - r)`` with ``r = (N - j)/a``; the sum stops once
    that bound is below :data:`_SUM_TAIL` of it, after about
    ``9 sqrt(a)`` terms (one block up to ~12,000 Erlangs).  Rounding: a
    term ``t_j`` takes ``j`` divisions and ``j`` multiplications, the sum
    of ``J`` non-negative terms at most ``J`` additions, the reciprocal
    one more, so ``ln B`` is within ``(3J + 2) u`` of the true value
    (``u = 2**-53``; ``N - i`` is exact below ``2**53``).
    """
    if not offered_load > 0.0:
        return 0.0  # B(0, N) for N >= 1; below any certified reading
    total = 1.0  # t_0
    term = 1.0
    j = 0  # the index of ``term``
    while j < servers:
        stop = min(j + _SUM_CHUNK, servers)
        ratios = (servers - np.arange(j, stop, dtype=np.float64)) / offered_load
        block = term * np.cumprod(ratios)  # t_{j+1} .. t_stop
        total += float(block.sum())
        term = float(block[-1])
        j = stop
        ratio = (servers - j) / offered_load  # t_{j+1} = t_j * ratio
        if ratio < 1.0 and term * ratio < _SUM_TAIL * total * (1.0 - ratio):
            break
    return 1.0 / total


@contextmanager
def _open_curve(offered_load: float) -> Iterator[None]:
    """Share one certified curve (and, for fallbacks, one exact prefix)
    among every probe of one inversion."""
    _open_curves.by_load[offered_load] = array("d", (1.0,))
    _open_curves.certified[offered_load] = array("d")
    try:
        yield
    finally:
        del _open_curves.by_load[offered_load]
        del _open_curves.certified[offered_load]


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


def _certified_probe(
    offered: float,
    arrival_rate: float,
    service_rate: float,
    scv: float,
    target_delay: float,
) -> Callable[[int], float]:
    """``wait_at(N)`` for one inversion: a wait on the same side of
    ``target_delay`` as ``mgn_mean_wait``'s.

    Inside an inversion only.  ``wait_at`` evaluates Eq. 1 with
    ``B(a, N)`` read from the inversion's certified curve and returns that
    wait when it lies outside ``target_delay * (1 -/+ m)``, ``m`` =
    :data:`_MARGIN`; otherwise it returns ``mgn_mean_wait``'s own float.
    So ``<=`` and ``>`` against ``target_delay`` decide exactly as they do
    on the exact chain.  The branches that read no ``B`` (``rho >= 1``
    and ``erlang_c``'s cut-off) return ``mgn_mean_wait``'s float directly.

    Why ``m = 2**-20`` suffices, in relative (log) errors with
    ``u = 2**-53`` and every float normal:

    - The step ``B_k = a B / (k + a B)`` has
      ``d ln B_k / d ln B_{k-1} = k / (k + a B_{k-1}) < 1``: an error
      already in ``B_{k-1}`` never grows, and the step's three roundings
      add at most ``3u``.
    - The certified ``B(a, N)`` starts at ``N0 = floor(a) + 1`` from the
      direct sum (``(3J + 2) u``, :func:`_erlang_b_direct`) and takes
      ``K = N - N0`` steps (``3K u``); ``J <= N0 + 1``, so it is within
      ``(3N + 5) u`` of the true value.
    - The exact chain takes ``N`` steps from ``B(a, 0) = 1``: within
      ``3N u`` of the true value.
    - ``pi = B / (1 - rho + rho B)`` has ``d ln pi / d ln B =
      (1 - rho) / (1 - rho + rho B)``, in ``(0, 1]``.  The rest of Eq. 1
      divides by ``N mu (1 - rho)`` and scales by ``1 + CV^2`` and ``1/2``,
      the same floats in both paths.  The ``B``-dependent roundings (``rho
      B``, the sum, two divisions, one product) add at most ``5u`` per
      path; halving a normal float is exact.

    So the certified and the exact wait differ by at most
    ``eps = (6N + 15) u``: ``6.7e-9`` at ``N = 10**7``
    (:data:`_CERTIFIED_MAX_SERVERS`), which ``m ~ 9.5e-7`` covers 142
    times over.  A certified wait above ``target (1 + m)`` (itself within
    ``u`` of the product) puts the exact wait above
    ``target (1 + m)(1 - u) e**-eps > target``; below ``target (1 - m)``
    symmetrically.  A ``B`` or ``pi / (N mu (1 - rho))`` under
    :data:`_FLOOR`, a wait over :data:`_CEIL`, a NaN, a service rate
    outside ``[_FLOOR, _CEIL]``, or ``N`` above
    :data:`_CERTIFIED_MAX_SERVERS` falls back.
    """
    exact = partial(mgn_mean_wait, arrival_rate, service_rate, scv=scv)
    if not offered < _CERTIFIED_MAX_SERVERS:
        return exact  # every stable N is beyond the proof
    first = int(math.floor(offered)) + 1
    cutoff = offered + 12.0 * math.sqrt(offered) + 50.0
    lower = target_delay * (1.0 - _MARGIN)
    upper = target_delay * (1.0 + _MARGIN)
    curve = _open_curves.certified[offered]

    def wait_at(servers: int) -> float:
        rho = offered / servers
        if (
            rho >= 1.0
            or servers > cutoff
            or servers > _CERTIFIED_MAX_SERVERS
            or not _FLOOR <= service_rate <= _CEIL
        ):
            return exact(servers)
        if not curve:
            curve.append(_erlang_b_direct(offered, first))
        blocking = _erlang_b_prefix(curve, offered, servers, first)
        pi = blocking / (1.0 - rho + rho * blocking)
        mmn_wait = pi / (servers * service_rate * (1.0 - rho))
        wait = mmn_wait * (1.0 + scv) / 2.0
        if blocking >= _FLOOR and mmn_wait >= _FLOOR and wait <= _CEIL and (
            wait < lower or wait > upper
        ):
            return wait
        return exact(servers)

    return wait_at


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
    exponential search plus bisection on Eq. 1; large offered loads
    (> ~2000 Erlangs) start from the Halfin-Whitt square-root-staffing
    estimate and walk to the exact answer with a handful of probes.  Every
    probe reads one certified Erlang-B curve ``B(a, N0..k)``,
    ``N0 = floor(a) + 1``, opened from a direct sum of O(sqrt(a)) terms, so
    an inversion costs O(sqrt(a) + probes), not O(a).  A probe whose wait
    lies within a proven error margin of the target
    (:func:`_certified_probe`) is decided on the exact O(a) chain instead,
    so the integer returned is always the exact chain's.

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
    # The offered load is divided out here, where ``service_rate`` is
    # checked, and rides along in the memo key.
    return _required_containers_cached(
        arrival_rate / service_rate,
        arrival_rate,
        service_rate,
        target_delay,
        scv,
        max_servers,
    )


@lru_cache(maxsize=_INVERSE_CACHE_SIZE)
def _required_containers_cached(
    offered: float,
    arrival_rate: float,
    service_rate: float,
    target_delay: float,
    scv: float,
    max_servers: int,
) -> int:
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
        # The certified wait never checks ``scv``; the first exact probe
        # would raise here.
        if scv < 0:
            raise ValueError(f"scv must be >= 0, got {scv}")
        wait_at = _certified_probe(
            offered, arrival_rate, service_rate, scv, target_delay
        )
        if wait_at(low) <= target_delay:
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
            # number of probes small.
            step = max(int(0.05 * sqrt_a), 1)
            while candidate - step >= low and wait_at(candidate - step) <= target_delay:
                candidate -= step
            while wait_at(candidate) > target_delay:
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
            while candidate - 1 >= low and wait_at(candidate - 1) <= target_delay:
                candidate -= 1
            return candidate

        # Exact exponential search + bisection for modest loads.
        high = low
        while wait_at(high) > target_delay:
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
            if wait_at(mid) <= target_delay:
                high = mid
            else:
                low = mid
        return high


def queueing_cache_info() -> dict[str, dict[str, int]]:
    """Hit/miss statistics of the Erlang and inverse-lookup caches.

    ``"required_containers"`` counts inversions.  ``"erlang_b"`` counts
    calls of :func:`erlang_b` (through ``erlang_c`` / ``mgn_mean_wait`` or
    directly): inside an inversion only the probes that fall back to the
    exact chain make one, so its misses there count fallback probes.
    """
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
