"""Topology-aware inter-host fabric: a link graph with congestion pricing.

The paper's multi-host testbed is one throttled 10 Gbps pipe with ring
collectives, whose volume is the flat ``(N-1)/N`` formula.  Real
rack-scale deployments are link *graphs*: hosts hang off leaf
switches, leaves share a spine, and per-link bandwidths differ (the
oversubscribed spine is the classic bottleneck).  :class:`Fabric`
models exactly that:

* nodes are hosts ``0..num_hosts-1`` plus optional switch nodes;
* each directed link carries its own bandwidth and latency
  (defaults from :class:`~repro.hw.timing.MachineParams.mpi_gbps` /
  ``mpi_latency_s``, so a fully connected fabric prices one message
  of ``nbytes`` at ``nbytes / mpi_gbps + mpi_latency_s``);
* a *round* of concurrent transfers is priced by per-link byte
  accumulation over shortest-path routes -- the busiest link sets the
  round's bandwidth term, the longest used route its latency term.

Global-phase programs (:mod:`repro.multihost.algorithms`) emit rounds
of ``(src_host, dst_host, nbytes)`` transfers; summing
:meth:`Fabric.round_seconds` over them prices a program on a
topology, which is what the :class:`~repro.multihost.GlobalTuner`
ranks.  The fabric never moves payload bytes -- functional exchange
stays canonical numpy -- so every topology is bit-identical by
construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import CollectiveError
from ..hw.timing import GB, MachineParams


@dataclass(frozen=True)
class Link:
    """One directed link of the fabric."""

    src: int
    dst: int
    gbps: float          # GB/s (1e9 bytes per second)
    latency_s: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise CollectiveError(f"link {self.src}->{self.dst} is a loop")
        if self.gbps <= 0:
            raise CollectiveError(
                f"link {self.src}->{self.dst} bandwidth must be positive, "
                f"got {self.gbps}")
        if self.latency_s < 0:
            raise CollectiveError(
                f"link {self.src}->{self.dst} latency must be >= 0, "
                f"got {self.latency_s}")


@dataclass
class Fabric:
    """An inter-host interconnect expressed as a directed link graph.

    Build one with :meth:`fully_connected`, :meth:`ring`, or
    :meth:`leaf_spine` (or hand-assemble links for custom topologies).
    Hosts are nodes ``0..num_hosts-1``; switch nodes use ids at
    ``num_hosts`` and above and never source or sink transfers.
    """

    num_hosts: int
    links: dict[tuple[int, int], Link]
    name: str = "custom"
    #: Hosts per rack for rack-structured topologies (None = flat).
    hosts_per_rack: int | None = None
    _routes: dict[tuple[int, int], tuple[Link, ...]] = field(
        default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise CollectiveError("fabric needs at least one host")
        for key, link in self.links.items():
            if key != (link.src, link.dst):
                raise CollectiveError(
                    f"link table key {key} does not match link "
                    f"{(link.src, link.dst)}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fully_connected(cls, num_hosts: int,
                        params: MachineParams | None = None, *,
                        gbps: float | None = None,
                        latency_s: float | None = None) -> "Fabric":
        """Every host pair shares a dedicated bidirectional link.

        With default bandwidth/latency a ring program on this fabric
        costs exactly the flat ``(N-1)/N`` ring formulas, which is
        what keeps the paper's Figure 23b numbers reproducible.
        """
        gbps, latency_s = _defaults(params, gbps, latency_s)
        links = {}
        for a in range(num_hosts):
            for b in range(num_hosts):
                if a != b:
                    links[(a, b)] = Link(a, b, gbps, latency_s)
        return cls(num_hosts, links, name=f"fully_connected({num_hosts})")

    @classmethod
    def ring(cls, num_hosts: int, params: MachineParams | None = None, *,
             gbps: float | None = None,
             latency_s: float | None = None) -> "Fabric":
        """Hosts in a physical ring: each host links only to its two
        neighbours, so non-neighbour traffic hops through them."""
        if num_hosts < 2:
            raise CollectiveError("a ring fabric needs at least two hosts")
        gbps, latency_s = _defaults(params, gbps, latency_s)
        links = {}
        for h in range(num_hosts):
            nxt = (h + 1) % num_hosts
            links[(h, nxt)] = Link(h, nxt, gbps, latency_s)
            links[(nxt, h)] = Link(nxt, h, gbps, latency_s)
        return cls(num_hosts, links, name=f"ring({num_hosts})")

    @classmethod
    def leaf_spine(cls, num_hosts: int, racks: int,
                   params: MachineParams | None = None, *,
                   gbps: float | None = None,
                   latency_s: float | None = None,
                   spine_gbps: float | None = None,
                   spine_latency_s: float | None = None) -> "Fabric":
        """A two-tier rack topology: ``racks`` leaf switches, one spine.

        Hosts are numbered rack-major (rack ``r`` owns hosts
        ``r*H .. (r+1)*H - 1`` with ``H = num_hosts // racks``).  Each
        host links to its rack's leaf at ``gbps``; each leaf links to
        the spine at ``spine_gbps`` (default: the same ``gbps``, i.e. a
        ``1:H`` oversubscribed uplink shared by the whole rack -- the
        configuration where rack-aligned algorithms win).
        """
        if racks < 1:
            raise CollectiveError("leaf_spine needs at least one rack")
        if num_hosts % racks:
            raise CollectiveError(
                f"{num_hosts} hosts do not split into {racks} racks")
        gbps, latency_s = _defaults(params, gbps, latency_s)
        if spine_gbps is None:
            spine_gbps = gbps
        if spine_latency_s is None:
            spine_latency_s = latency_s
        per_rack = num_hosts // racks
        spine = num_hosts + racks
        links = {}
        for h in range(num_hosts):
            leaf = num_hosts + h // per_rack
            links[(h, leaf)] = Link(h, leaf, gbps, latency_s)
            links[(leaf, h)] = Link(leaf, h, gbps, latency_s)
        for r in range(racks):
            leaf = num_hosts + r
            links[(leaf, spine)] = Link(leaf, spine, spine_gbps,
                                        spine_latency_s)
            links[(spine, leaf)] = Link(spine, leaf, spine_gbps,
                                        spine_latency_s)
        return cls(num_hosts, links,
                   name=f"leaf_spine({num_hosts},racks={racks})",
                   hosts_per_rack=per_rack)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """Shortest link path from ``src`` to ``dst`` (BFS, cached)."""
        if src == dst:
            return ()
        cached = self._routes.get((src, dst))
        if cached is not None:
            return cached
        adjacency: dict[int, list[Link]] = {}
        for link in self.links.values():
            adjacency.setdefault(link.src, []).append(link)
        seen = {src}
        queue: deque[tuple[int, tuple[Link, ...]]] = deque([(src, ())])
        while queue:
            node, path = queue.popleft()
            for link in adjacency.get(node, ()):
                if link.dst in seen:
                    continue
                nxt = path + (link,)
                if link.dst == dst:
                    self._routes[(src, dst)] = nxt
                    return nxt
                seen.add(link.dst)
                queue.append((link.dst, nxt))
        raise CollectiveError(
            f"fabric {self.name} has no route from host {src} to {dst}")

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def round_seconds(self, transfers: Iterable[tuple[int, int, int]]
                      ) -> float:
        """Seconds one synchronized round of concurrent transfers takes.

        Every transfer's bytes accrue to each link on its route; the
        round's bandwidth term is the *busiest* link's ``bytes/gbps``
        (links carry concurrent flows serially, disjoint links run in
        parallel) and its latency term the slowest used route's summed
        link latencies.  An empty round is free.
        """
        link_bytes: dict[tuple[int, int], int] = {}
        worst_latency = 0.0
        for src, dst, nbytes in transfers:
            if nbytes < 0:
                raise CollectiveError(f"negative transfer size {nbytes}")
            if not (0 <= src < self.num_hosts and 0 <= dst < self.num_hosts):
                raise CollectiveError(
                    f"transfer endpoints ({src}, {dst}) outside hosts "
                    f"0..{self.num_hosts - 1}")
            path = self.route(src, dst)
            latency = 0.0
            for link in path:
                key = (link.src, link.dst)
                link_bytes[key] = link_bytes.get(key, 0) + nbytes
                latency += link.latency_s
            worst_latency = max(worst_latency, latency)
        if not link_bytes:
            return 0.0
        bandwidth = max(nbytes / (self.links[key].gbps * GB)
                        for key, nbytes in link_bytes.items())
        return bandwidth + worst_latency

    def program_seconds(self, rounds: Sequence[Sequence[tuple[int, int, int]]]
                        ) -> float:
        """Total seconds of a sequence of synchronized rounds."""
        return sum(self.round_seconds(r) for r in rounds)

    def describe(self) -> str:
        """One-line summary, e.g. ``leaf_spine(8,racks=2): 12 links``."""
        return f"{self.name}: {len(self.links)} links"


def _defaults(params: MachineParams | None, gbps: float | None,
              latency_s: float | None) -> tuple[float, float]:
    params = params or MachineParams()
    if gbps is None:
        gbps = params.mpi_gbps
    if latency_s is None:
        latency_s = params.mpi_latency_s
    if gbps <= 0:
        raise CollectiveError(f"fabric bandwidth must be positive: {gbps}")
    if latency_s < 0:
        raise CollectiveError(f"fabric latency must be >= 0: {latency_s}")
    return gbps, latency_s
