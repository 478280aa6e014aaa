"""Connected components on PIM-enabled DIMMs (paper section VII-D).

Label propagation over the symmetrized graph: every vertex starts with
its own id as label; each iteration every PE lowers the labels of its
block's neighbours and a *min* AllReduce merges the label arrays, until
a fixed point.  Same communication structure as BFS with min instead of
or (exactly as the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..data.graphs import CsrGraph
from ..dtypes import INT64, MIN
from ..errors import AppError
from .base import AppHarness, CommBackend


@dataclass(frozen=True)
class CcConfig:
    max_iterations: int = 1 << 16


#: DPU ops charged per edge per iteration: two random 8-byte label
#: accesses plus a compare/update, each a multi-ten-cycle MRAM round
#: trip.  This creates the PE-count sweet spot of Figure 21: kernels
#: shrink with more PEs while the label AllReduce grows.
DPU_OPS_PER_EDGE = 96


def golden_cc(graph: CsrGraph) -> np.ndarray:
    """Reference component labels: min vertex id in each component."""
    sym = graph.symmetrized()
    n = sym.num_vertices
    labels = np.arange(n, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            neigh = sym.neighbors(v)
            if len(neigh):
                low = min(labels[v], labels[neigh].min())
                if low < labels[v]:
                    labels[v] = low
                    changed = True
    return labels


class CcApp:
    """The connected-components benchmark application."""

    name = "CC"
    hypercube_dims = 1
    primitives = ("scatter", "allreduce", "broadcast", "reduce")

    def __init__(self, graph: CsrGraph, config: CcConfig = CcConfig()):
        # The paper preprocesses directed edges to undirected ones.
        self.graph = graph.symmetrized()
        self.config = config
        #: PE count -> the sweep's per-step gather tables, built on the
        #: first functional run; analytic runs over ``GraphStats``
        #: never build them.
        self._steps: dict[int, list[tuple[np.ndarray, ...]]] = {}

    def run(self, manager: HypercubeManager, backend: CommBackend,
            functional: bool = True):
        """Run CC; functional runs return the component labels."""
        if manager.ndim != 1:
            raise AppError("CC expects a 1-D hypercube")
        p = manager.num_nodes
        n = self.graph.num_vertices
        if n % p:
            raise AppError(f"{n} vertices do not divide over {p} PEs")
        harness = AppHarness(manager, backend, functional)
        system = manager.system

        # Pad the label array so AllReduce chunks divide evenly.
        padded = ((n + p - 1) // p) * p
        label_bytes = padded * 8
        buf = system.alloc(label_bytes) if functional else 0
        avg_edges_per_pe = self.graph.num_edges / p

        harness.comm_cost_only("scatter", "1",
                               max(8, int(avg_edges_per_pe) * 8 // 8 * 8))

        if functional:
            labels = np.full(padded, np.iinfo(np.int64).max, dtype=np.int64)
            labels[:n] = np.arange(n)
            harness.store(buf, labels)
            prev_merged = labels
            steps = self._sweep_steps(p, padded)

        iterations = 0
        est_iterations = self._estimated_iterations()
        while True:
            iterations += 1
            harness.kernel("propagate",
                           ops_per_pe=DPU_OPS_PER_EDGE * avg_edges_per_pe,
                           bytes_per_pe=2.0 * label_bytes)
            if functional:
                local = harness.load(buf, padded)
                self._sweep(local, steps)
                harness.store(buf, local)
                harness.comm("allreduce", "1", label_bytes, src=buf, dst=buf,
                             op=MIN)
                merged = system.read_elements(manager.all_pes[0], buf,
                                              padded, INT64).copy()
                if np.array_equal(merged, prev_merged):
                    break
                prev_merged = merged
                if iterations >= self.config.max_iterations:
                    break
            else:
                harness.comm("allreduce", "1", label_bytes, op=MIN)
                if iterations >= est_iterations:
                    break

        harness.comm("reduce", "1", label_bytes, op=MIN)
        output = None
        if functional:
            output = system.read_elements(manager.all_pes[0], buf, padded,
                                          INT64)[:n].copy()
        return harness.result(self.name, output=output,
                              iterations=iterations, vertices=n,
                              edges=self.graph.num_edges)

    @staticmethod
    def _sweep(labels: np.ndarray, steps) -> None:
        """One in-order Gauss-Seidel sweep of every PE over its block.

        ``labels`` is ``(P, padded)``, one PE's label copy per row.  PE
        ``r`` visits its vertices ``r * block + k`` in order ``k = 0,
        1, ...``: the vertex takes the minimum over itself and its
        neighbours, then lowers every neighbour to that minimum.  Later
        vertices read those updates, so the sweep order is kept; step
        ``k`` advances every PE at once.
        """
        flat = labels.reshape(-1)
        for index, starts, owner in steps:
            seen = flat[index]
            low = np.minimum.reduceat(seen, starts)
            flat[index] = np.minimum(seen, low[owner])

    def _sweep_steps(self, p, padded):
        """Per sweep step ``k``: (flat indices, segment starts, owners).

        Segment ``r`` lists vertex ``v = r * block + k`` itself, then its
        neighbours, as flat indices into the ``(P, padded)`` label
        matrix (row ``r``); ``owner`` maps each entry to its segment.
        The vertex's own entry keeps every segment non-empty, and no
        neighbour list repeats an id or holds ``v`` (the graph is
        symmetrized without self-loops), so each step's scatter is
        exact.
        """
        steps = self._steps.get(p)
        if steps is None:
            graph = self.graph
            n = graph.num_vertices
            block = n // p
            vertex = np.arange(n)
            holder = np.concatenate(
                [vertex, np.repeat(vertex, graph.out_degrees())])
            target = np.concatenate([vertex, graph.indices])
            # Step-major, then PE; a stable sort keeps v's own entry
            # ahead of its neighbours.
            order = np.argsort((holder % block) * p + holder // block,
                               kind="stable")
            owner = holder[order] // block
            index = owner * padded + target[order]
            sizes = 1 + graph.out_degrees().reshape(p, block).T  # [k, r]
            cuts = np.cumsum(sizes.sum(axis=1))[:-1]
            steps = [(idx, np.cumsum(size) - size, own)
                     for idx, own, size in zip(np.split(index, cuts),
                                               np.split(owner, cuts), sizes)]
            self._steps[p] = steps
        return steps

    def _estimated_iterations(self) -> int:
        """Label propagation converges in ~diameter iterations."""
        return max(4, int(np.log2(max(2, self.graph.num_vertices))))

    #: CPU label-propagation cost per edge per iteration (mostly one
    #: cache miss amortized over the cores).
    CPU_SECONDS_PER_EDGE = 35e-9

    def cpu_only_seconds(self, params) -> float:
        """CPU-only time (Figure 21): iterated label propagation."""
        del params
        iters = self._estimated_iterations()
        return self.graph.num_edges * iters * self.CPU_SECONDS_PER_EDGE
