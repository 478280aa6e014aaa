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
from ..data.graphs import CsrGraph, partition_1d
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
        block = n // p
        words = _bitmap_words(n, p)
        bitmap_bytes = words * 8

        frontier_buf = system.alloc(bitmap_bytes) if functional else 0
        next_buf = system.alloc(bitmap_bytes) if functional else 0

        parts = partition_1d(self.graph, p) if functional else None
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
            self._write_bitmap(system, manager, frontier_buf, frontier)

        level = 0
        iterations = 0
        est_iterations = self._estimated_iterations()
        while True:
            iterations += 1
            level += 1
            if functional:
                # PE kernel: expand the frontier on owned vertices.
                for rank, pe in enumerate(manager.all_pes):
                    part = parts[rank]
                    nxt_local = np.zeros(words * 64, dtype=bool)
                    for v_local in range(block):
                        v = rank * block + v_local
                        if frontier[v]:
                            nxt_local[part.neighbors(v_local)] = True
                    self._write_bitmap(system, None, next_buf, nxt_local,
                                       pe=pe)
                harness.kernel("expand",
                               ops_per_pe=(DPU_OPS_PER_EDGE
                                           * avg_edges_per_pe
                                           / self._estimated_iterations()),
                               bytes_per_pe=2.0 * bitmap_bytes)
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
                self._write_bitmap(system, manager, frontier_buf, frontier)
            else:
                harness.kernel("expand",
                               ops_per_pe=(DPU_OPS_PER_EDGE
                                           * avg_edges_per_pe
                                           / est_iterations),
                               bytes_per_pe=2.0 * bitmap_bytes)
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

    def _write_bitmap(self, system, manager, offset, bits, pe=None):
        data = np.packbits(bits, bitorder="little").view(np.int64)
        if pe is not None:
            system.write_elements(pe, offset, data, INT64)
            return
        for member in manager.all_pes:
            system.write_elements(member, offset, data, INT64)

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
