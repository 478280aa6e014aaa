"""Breadth-first search on PIM-enabled DIMMs (paper section VII-C).

1-D vertex partitioning: each PE owns a contiguous vertex block and its
out-edges.  Every iteration each PE expands the frontier restricted to
its own vertices and the per-PE next-frontier bitmaps are merged with a
bitwise-OR AllReduce -- the exact communication structure of the
paper's BFS (which follows the PrIM reference implementation [29]).

Functional runs compute real levels and are validated against a
host-side golden BFS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..data.graphs import CsrGraph
from ..dtypes import BOR, INT64
from ..errors import AppError
from .base import AppHarness, CommBackend


@dataclass(frozen=True)
class BfsConfig:
    """BFS run configuration."""

    source: int = 0
    max_iterations: int = 1 << 16


def golden_bfs(graph: CsrGraph, source: int) -> np.ndarray:
    """Reference BFS levels (-1 = unreachable)."""
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if levels[u] < 0:
                    levels[u] = level
                    nxt.append(int(u))
        frontier = nxt
    return levels


#: DPU ops per *touched* edge: a random bitmap probe + neighbour list
#: walk, dominated by MRAM latency.
DPU_OPS_PER_EDGE = 96


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bitmap(s) along the last axis as little-endian int64 words."""
    return np.packbits(bits, axis=-1, bitorder="little").view(np.int64)


def _bitmap_words(n: int, group: int) -> int:
    """Bitmap length in 64-bit words, padded to the AllReduce group size."""
    words = (n + 63) // 64
    return ((words + group - 1) // group) * group


class BfsApp:
    """The BFS benchmark application."""

    name = "BFS"
    hypercube_dims = 1
    primitives = ("scatter", "allreduce", "broadcast", "reduce")

    def __init__(self, graph: CsrGraph, config: BfsConfig = BfsConfig()):
        self.graph = graph
        self.config = config
        #: PE count -> (edge sources, their owner PEs, edge targets),
        #: built on the first functional run; analytic runs over
        #: ``GraphStats`` never build it.
        self._edges: dict[int, tuple[np.ndarray, ...]] = {}

    def run(self, manager: HypercubeManager, backend: CommBackend,
            functional: bool = True):
        """Run BFS; functional runs return the level array."""
        if manager.ndim != 1:
            raise AppError("BFS expects a 1-D hypercube")
        p = manager.num_nodes
        n = self.graph.num_vertices
        if n % p:
            raise AppError(f"{n} vertices do not divide over {p} PEs")
        harness = AppHarness(manager, backend, functional)
        system = manager.system
        words = _bitmap_words(n, p)
        bitmap_bytes = words * 8

        frontier_buf = system.alloc(bitmap_bytes) if functional else 0
        next_buf = system.alloc(bitmap_bytes) if functional else 0

        avg_edges_per_pe = self.graph.num_edges / p

        # Scatter the partitioned adjacency lists (edge endpoints, 8B each).
        adj_bytes = max(8, int(avg_edges_per_pe) * 8)
        # The CSR slices stay host-side as the PE kernels' private
        # state; the scatter's cost is modelled all the same.
        harness.comm_cost_only("scatter", "1", ((adj_bytes + 7) // 8) * 8)

        if functional:
            levels = np.full(n, -1, dtype=np.int64)
            visited = np.zeros(words * 64, dtype=bool)
            frontier = np.zeros(words * 64, dtype=bool)
            src = self.config.source
            levels[src] = 0
            visited[src] = True
            frontier[src] = True
            harness.store(frontier_buf, _pack(frontier))

        level = 0
        iterations = 0
        est_iterations = self._estimated_iterations()
        while True:
            iterations += 1
            level += 1
            harness.kernel("expand",
                           ops_per_pe=(DPU_OPS_PER_EDGE * avg_edges_per_pe
                                       / est_iterations),
                           bytes_per_pe=2.0 * bitmap_bytes)
            if functional:
                harness.store(next_buf, self._expand(frontier, p, words))
                harness.comm("allreduce", "1", bitmap_bytes, src=next_buf,
                             dst=next_buf, op=BOR)
                merged = self._read_bitmap(system, manager.all_pes[0],
                                           next_buf, words)
                new = merged & ~visited
                if not new.any() or iterations >= self.config.max_iterations:
                    break
                levels[np.flatnonzero(new[:n])] = level
                visited |= merged
                frontier = new
                harness.store(frontier_buf, _pack(frontier))
            else:
                harness.comm("allreduce", "1", bitmap_bytes, op=BOR)
                if iterations >= est_iterations:
                    break

        # Retrieve levels (each PE owns its block's results).
        harness.comm("reduce", "1", bitmap_bytes, op=BOR)
        output = levels if functional else None
        return harness.result(self.name, output=output,
                              iterations=iterations, vertices=n,
                              edges=self.graph.num_edges)

    # ------------------------------------------------------------------
    def _estimated_iterations(self) -> int:
        """Analytic iteration count: the effective BFS diameter.

        Power-law graphs have small diameters; use log2(n) as the
        standard estimate.
        """
        return max(3, int(np.log2(max(2, self.graph.num_vertices))))

    def _expand(self, frontier, p, words) -> np.ndarray:
        """PE kernel: every PE's next-frontier bitmap, ``(p, words)``.

        PE ``r`` marks the targets of the out-edges of its owned
        frontier vertices -- an order-free OR, so all PEs' edges are
        one masked scatter.
        """
        sources, owners, targets = self._edge_owners(p)
        on = frontier[sources]
        nxt = np.zeros((p, words * 64), dtype=bool)
        nxt[owners[on], targets[on]] = True
        return _pack(nxt)

    def _edge_owners(self, p):
        """Every edge's source, the PE owning it (1-D blocks) and target."""
        edges = self._edges.get(p)
        if edges is None:
            n = self.graph.num_vertices
            sources = np.repeat(np.arange(n), self.graph.out_degrees())
            edges = (sources, sources // (n // p), self.graph.indices)
            self._edges[p] = edges
        return edges

    def _read_bitmap(self, system, pe, offset, words) -> np.ndarray:
        data = system.read_elements(pe, offset, words, INT64)
        return np.unpackbits(data.view(np.uint8), bitorder="little").astype(
            bool)

    #: CPU traversal cost per edge: a dependent cache miss amortized
    #: over a multi-core top-down BFS (calibrated to PrIM's baseline).
    CPU_SECONDS_PER_EDGE = 56e-9

    def cpu_only_seconds(self, params) -> float:
        """CPU-only time (Figure 21): latency-bound edge traversal."""
        del params  # latency-bound, not bandwidth-bound
        return self.graph.num_edges * self.CPU_SECONDS_PER_EDGE
