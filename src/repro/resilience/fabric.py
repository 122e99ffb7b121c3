"""Deterministic fabric topology: machine-type cells and the links between.

The simulator's fleet is a set of machine-type *cells* (one per platform
id) joined by *links* with capacity/latency state — the network the paper's
12k-machine deployment target actually lives on.  This module supplies the
three pieces the fabric fault universe needs:

- :class:`FabricTopology` — the static graph (cells, links, and the
  trace-ingest cell every placement must be reachable from);
- :class:`FabricState` — the mutable runtime overlay (per-link cut counts
  and degradation stretches) with the two derived queries everything else
  consumes: which cells are reachable from ingest, and the multiplicative
  service-time stretch of the best surviving path to each cell;
- the fabric fault specs (:class:`LinkDegradation`,
  :class:`PartialPartition`, :class:`FlappingLink`) that
  :class:`~repro.resilience.faults.FaultPlan` composes and the
  :class:`~repro.resilience.faults.FaultInjector` fires through the
  simulator's ``FAULT`` event path.

Like :mod:`repro.resilience.faults`, this module imports nothing from
:mod:`repro.simulation`: the layering keeps pointing downward, and the
graph math stays unit-testable without a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def link_key(a: int, b: int) -> tuple[int, int]:
    """The canonical (smaller id, larger id) form of an undirected link."""
    if a == b:
        raise ValueError(f"a link needs two distinct cells, got {a}-{b}")
    return (a, b) if a < b else (b, a)


def link_label(pair: tuple[int, int]) -> str:
    """Stable string key for metrics dicts, e.g. ``"1-4"``."""
    return f"{pair[0]}-{pair[1]}"


@dataclass(frozen=True)
class FabricTopology:
    """The static cell/link graph, anchored at the trace-ingest cell.

    Cells are platform ids (one cell per machine pool); links are
    undirected cell pairs in canonical :func:`link_key` order.  The ingest
    cell is where arriving work enters the fabric — reachability and path
    stretch are always computed from it.
    """

    cells: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    ingest_cell: int

    def __post_init__(self) -> None:
        cells = tuple(sorted(set(self.cells)))
        if not cells:
            raise ValueError("a fabric needs at least one cell")
        object.__setattr__(self, "cells", cells)
        cell_set = set(cells)
        normalized = []
        seen: set[tuple[int, int]] = set()
        for a, b in self.links:
            pair = link_key(a, b)
            if pair[0] not in cell_set or pair[1] not in cell_set:
                raise ValueError(f"link {link_label(pair)} references unknown cells")
            if pair not in seen:
                seen.add(pair)
                normalized.append(pair)
        object.__setattr__(self, "links", tuple(sorted(normalized)))
        if self.ingest_cell not in cell_set:
            raise ValueError(
                f"ingest cell {self.ingest_cell} is not one of the cells {cells}"
            )

    @classmethod
    def full_mesh(
        cls, cells: tuple[int, ...] | list[int], ingest_cell: int | None = None
    ) -> "FabricTopology":
        """Every cell pair linked; ingest defaults to the smallest cell id."""
        ordered = tuple(sorted(set(cells)))
        links = tuple(
            (a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]
        )
        ingest = ordered[0] if ingest_cell is None else ingest_cell
        return cls(cells=ordered, links=links, ingest_cell=ingest)

    def has_link(self, pair: tuple[int, int]) -> bool:
        return link_key(*pair) in set(self.links)


# ----------------------------------------------------------- fabric faults
#
# These specs join the FaultSpec union in repro.resilience.faults; the
# injector resolves and schedules them at attach time and mutates a
# FabricState when they fire.


@dataclass(frozen=True)
class LinkDegradation:
    """Correlated link degradation over a window.

    From ``time`` for ``duration`` seconds the named ``links`` (``None`` =
    every link in the topology — a fabric-wide brownout) carry a throughput
    multiplier and a latency multiplier.  Tasks whose best surviving path
    from the ingest cell crosses a degraded link have their remaining
    service time stretched by the path's compounded
    ``max(latency_factor, 1 / throughput_factor)`` — the same mechanism as
    straggler machines, applied per cell instead of per machine.
    """

    time: float
    duration: float
    #: Canonical link pairs to hit; ``None`` degrades every topology link.
    #: An explicit empty tuple is a valid no-op (used by differential
    #: tests to prove the fabric plumbing itself changes nothing).
    links: tuple[tuple[int, int], ...] | None = None
    throughput_factor: float = 0.5
    latency_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 < self.throughput_factor <= 1:
            raise ValueError(
                f"throughput_factor must be in (0, 1], got {self.throughput_factor}"
            )
        if self.latency_factor < 1:
            raise ValueError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )
        if self.links is not None:
            object.__setattr__(
                self, "links", tuple(link_key(a, b) for a, b in self.links)
            )

    @property
    def stretch(self) -> float:
        """Service-time multiplier a crossing of one degraded link costs."""
        return max(self.latency_factor, 1.0 / self.throughput_factor)


@dataclass(frozen=True)
class PartialPartition:
    """A cut severing a subset of cell pairs for a window.

    The listed links go down at ``time`` and heal ``duration`` seconds
    later.  Cells left with no surviving path from the ingest cell are
    *unreachable*: the scheduler stops placing work there, the control
    plane sees their telemetry frozen at last-known values, and the
    degradation ladder holds their targets until the cut heals.
    """

    time: float
    duration: float
    #: Canonical link pairs severed by the cut (may be empty: a no-op).
    cut: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        object.__setattr__(self, "cut", tuple(link_key(a, b) for a, b in self.cut))


@dataclass(frozen=True)
class FlappingLink:
    """One link oscillating down/up ``flaps`` times.

    Each flap holds the link down for the first half of ``period`` and up
    for the second half, starting at ``time`` — the pathological failure
    mode for naive hysteresis, kept strictly deterministic here.
    """

    time: float
    link: tuple[int, int]
    flaps: int = 3
    period: float = 600.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.flaps < 1:
            raise ValueError(f"flaps must be >= 1, got {self.flaps}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        object.__setattr__(self, "link", link_key(*self.link))

    @property
    def down_seconds(self) -> float:
        """How long the link stays down within each flap."""
        return self.period / 2.0


#: Specs handled by the fabric layer (vs. machine-level fault specs).
FABRIC_FAULT_TYPES = (LinkDegradation, PartialPartition, FlappingLink)


# ------------------------------------------------------------ runtime state


@dataclass
class _LinkState:
    """Mutable overlay for one link: cut count + active stretches."""

    cuts: int = 0
    #: Multiplicative stretch factors of active degradations (overlapping
    #: windows compound).
    stretches: list[float] = field(default_factory=list)


class FabricState:
    """Runtime link state over a :class:`FabricTopology`.

    The fault injector mutates it (sever/heal, degrade/restore); the
    simulator reads the two derived views — :meth:`cell_stretch` (which is
    also the reachability map: unreachable cells are absent) and
    :meth:`degraded_links` — after every change.
    """

    def __init__(self, topology: FabricTopology) -> None:
        self.topology = topology
        self._links: dict[tuple[int, int], _LinkState] = {
            pair: _LinkState() for pair in topology.links
        }

    def _state(self, pair: tuple[int, int]) -> _LinkState:
        state = self._links.get(link_key(*pair))
        if state is None:
            raise ValueError(
                f"link {link_label(link_key(*pair))} is not in the topology"
            )
        return state

    # ----------------------------------------------------------- mutations

    def sever(self, pair: tuple[int, int]) -> None:
        """Take a link down (cuts stack: overlapping faults both count)."""
        self._state(pair).cuts += 1

    def heal(self, pair: tuple[int, int]) -> None:
        """Undo one sever of a link."""
        state = self._state(pair)
        if state.cuts <= 0:
            raise ValueError(
                f"heal without matching sever for link {link_label(link_key(*pair))}"
            )
        state.cuts -= 1

    def degrade(self, pair: tuple[int, int], stretch: float) -> None:
        """Apply one degradation window's stretch factor to a link."""
        if stretch < 1:
            raise ValueError(f"stretch must be >= 1, got {stretch}")
        self._state(pair).stretches.append(stretch)

    def restore(self, pair: tuple[int, int], stretch: float) -> None:
        """Remove one previously applied stretch factor from a link."""
        state = self._state(pair)
        if stretch not in state.stretches:
            raise ValueError(
                f"restore without matching degrade for link "
                f"{link_label(link_key(*pair))}"
            )
        state.stretches.remove(stretch)

    # ------------------------------------------------------------- queries

    def link_stretch(self, pair: tuple[int, int]) -> float:
        """Compounded stretch of a link's active degradations (1.0 clean)."""
        stretch = 1.0
        for factor in self._state(pair).stretches:
            stretch *= factor
        return stretch

    def degraded_links(self) -> tuple[tuple[int, int], ...]:
        """Links currently severed or stretched, in canonical order."""
        return tuple(
            pair
            for pair in self.topology.links
            if self._links[pair].cuts > 0 or self.link_stretch(pair) > 1.0
        )

    def cell_stretch(self) -> dict[int, float]:
        """Best-path service-time stretch per *reachable* cell.

        Dijkstra from the ingest cell minimizing the product of link
        stretches (all factors are >= 1, so the product is monotone and the
        greedy expansion is exact).  Severed links carry no paths.  Cells
        with no surviving path are absent from the result — absence *is*
        the unreachability signal.  Ties expand the smallest cell id first,
        so the map is deterministic.
        """
        adjacency: dict[int, list[tuple[int, tuple[int, int]]]] = {
            cell: [] for cell in self.topology.cells
        }
        for pair in self.topology.links:
            if self._links[pair].cuts > 0:
                continue
            a, b = pair
            adjacency[a].append((b, pair))
            adjacency[b].append((a, pair))
        best: dict[int, float] = {self.topology.ingest_cell: 1.0}
        visited: set[int] = set()
        while True:
            frontier = [
                (stretch, cell)
                for cell, stretch in best.items()
                if cell not in visited
            ]
            if not frontier:
                return best
            _, cell = min(frontier)
            visited.add(cell)
            for neighbor, pair in adjacency[cell]:
                if neighbor in visited:
                    continue
                via = best[cell] * self.link_stretch(pair)
                if via < best.get(neighbor, float("inf")):
                    best[neighbor] = via

    def reachable_cells(self) -> frozenset[int]:
        """Cells with at least one surviving path from the ingest cell."""
        return frozenset(self.cell_stretch())

    def unreachable_cells(self) -> tuple[int, ...]:
        """Cells cut off from the ingest cell, sorted."""
        reachable = self.reachable_cells()
        return tuple(c for c in self.topology.cells if c not in reachable)

    @property
    def partitioned(self) -> bool:
        return bool(self.unreachable_cells())


@dataclass(frozen=True)
class FabricView:
    """Per-tick fabric snapshot on :class:`~repro.simulation.cluster.ClusterView`.

    ``last_heard`` carries per-cell staleness stamps: the last control tick
    at which each cell's telemetry was fresh.  For unreachable cells the
    stamp stops advancing while the view's per-cell fields
    (``available`` / ``powered`` / ``running_by_platform``) stay frozen at
    their last-known values — a scoped blackout the control plane must
    detect and tolerate rather than trust.
    """

    #: Cells currently unreachable from the ingest cell, sorted.
    unreachable: tuple[int, ...]
    #: Cell id -> time of its last fresh telemetry report.
    last_heard: dict[int, float]
    #: Labels of links currently severed or degraded, canonical order.
    degraded_links: tuple[str, ...]
    #: Whether any cell is unreachable (``bool(unreachable)``).
    partitioned: bool
