"""Graph neural networks on PIM-enabled DIMMs (paper section VII-B).

2-D parallelization on a ``p x p`` hypercube: PE ``(i, j)`` owns the
adjacency tile ``A[i-block, j-block]`` and a horizontal feature strip.
A layer is aggregation (SpGEMM) followed by combination (GeMM).  Two
strategies, as in the paper (Figure 12 / Algorithm 1):

* **RS&AR**: aggregation partials are ReduceScatter'ed into per-PE
  feature-column slices, combination multiplies the slice by the
  matching weight row-block (again yielding partials), and an AllReduce
  completes the layer.
* **AR&AG**: aggregation partials are AllReduce'd, combination computes
  2-D tiled results (each PE owns a column slice of the output), and an
  AllGather reassembles the strips for the next layer.

Both alternate the communication dimension every layer ("01" <-> "10"
in Algorithm 1): with a symmetric adjacency, running odd layers against
the transposed tile makes the strips produced by layer ``l`` exactly
the strips layer ``l+1`` consumes, with no extra shuffle.

Functional runs use integer features/weights and validate bit-exactly
against the golden dense model ``H <- relu((A @ H) @ W)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..data.graphs import CsrGraph
from ..dtypes import MIN, dtype_by_name
from ..errors import AppError
from .base import AppHarness, CommBackend

#: DPU ops per multiply-accumulate in the dense combination (the DPU
#: has no wide multiplier; a MAC costs ~6 software cycles plus the add).
#: Aggregation over a 0/1 adjacency is pure adds and stays at 2/edge.
DPU_OPS_PER_MAC = 7


@dataclass(frozen=True)
class GnnConfig:
    """GNN shape: ``layers`` rounds of aggregate+combine over ``features``."""

    features: int = 256
    layers: int = 3
    strategy: str = "rs_ar"  # or "ar_ag"
    #: Element width for the word-bit sensitivity study (Figure 22).
    #: Functional runs require "int64"; analytic runs accept any width
    #: (8-bit elements unlock cross-domain reduction, section V-C).
    dtype_name: str = "int64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("rs_ar", "ar_ag"):
            raise AppError(f"unknown GNN strategy {self.strategy!r}")


def golden_gnn(adjacency: np.ndarray, features: np.ndarray,
               weights: list[np.ndarray]) -> np.ndarray:
    """Reference dense forward pass: H <- relu((A @ H) @ W) per layer."""
    h = features.astype(np.int64)
    a = adjacency.astype(np.int64)
    for w in weights:
        h = np.maximum((a @ h) @ w.astype(np.int64), 0)
    return h


class GnnApp:
    """The GNN benchmark application (both 2-D strategies).

    The golden output is a function of the frozen graph and config alone
    (``run`` regenerates its seeded features and weights each time, and
    neither the grid nor the strategy changes it), so the first
    functional run computes it once and every later run reports the
    same read-only array as ``meta["golden"]``.
    """

    hypercube_dims = 2

    def __init__(self, graph: CsrGraph, config: GnnConfig) -> None:
        # GNN inputs are undirected graphs; symmetry also powers the
        # layer-to-layer dimension alternation.
        self.graph = graph.symmetrized()
        self.config = config
        #: grid p -> the stacked adjacency tiles (built on the first
        #: functional run; analytic runs over ``GraphStats`` never do).
        self._tiles: dict[int, np.ndarray] = {}
        #: The golden output, read-only; computed on the first functional
        #: run (analytic runs never compute it).
        self._golden: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "GNN-RS&AR" if self.config.strategy == "rs_ar" else "GNN-AR&AG"

    @property
    def primitives(self):
        if self.config.strategy == "rs_ar":
            return ("scatter", "reduce_scatter", "allreduce", "reduce")
        return ("scatter", "allreduce", "allgather", "gather")

    # ------------------------------------------------------------------
    def run(self, manager: HypercubeManager, backend: CommBackend,
            functional: bool = True):
        """Run the forward pass; functional runs return the final H."""
        cfg = self.config
        if manager.ndim != 2 or manager.shape.dims[0] != manager.shape.dims[1]:
            raise AppError("GNN expects a square 2-D hypercube")
        p = manager.shape.dims[0]
        n = self.graph.num_vertices
        f = cfg.features
        if n % p or f % p:
            raise AppError(f"n={n} and features={f} must divide by grid {p}")
        b = n // p          # vertex block per grid row
        fc = f // p         # feature columns per PE
        dt = dtype_by_name(cfg.dtype_name)
        if functional and dt.itemsize != 8:
            raise AppError("functional GNN runs validate with int64 "
                           "elements; narrower widths are analytic-only")
        esize = dt.itemsize
        harness = AppHarness(manager, backend, functional)
        system = manager.system

        strip_elems = b * f
        strip_bytes = strip_elems * esize
        tile_elems = b * fc

        strip_buf = system.alloc(strip_bytes) if functional else 0
        partial_buf = system.alloc(strip_bytes) if functional else 0
        slice_buf = system.alloc(tile_elems * 8) if functional else 0

        rng = np.random.default_rng(cfg.seed)
        tiles = None
        h0 = None
        weights: list[np.ndarray] = []
        if functional:
            tiles = self._stacked_tiles(p)
            h0 = rng.integers(-2, 3, (n, f))
            weights = [rng.integers(-2, 3, (f, f)) for _ in range(cfg.layers)]

        # Initial scatter: every PE(i, j) receives its starting strip
        # (row-block j of H, the even-layer orientation); node = j + p*i.
        if functional:
            payload = h0.reshape(p, strip_elems)[
                np.arange(p * p) % p].reshape(-1).astype(np.int64)
            harness.comm("scatter", "11", strip_bytes, dst=strip_buf,
                         dtype=dt, payloads={0: payload})
        else:
            harness.comm("scatter", "11", strip_bytes, dst=strip_buf,
                         dtype=dt)

        nnz_per_tile = self.graph.num_edges / (p * p)
        for layer in range(cfg.layers):
            dims = "10" if layer % 2 == 0 else "01"
            harness.kernel(
                f"spgemm{layer}", ops_per_pe=2.0 * nnz_per_tile * f,
                bytes_per_pe=8.0 * (2 * strip_elems + nnz_per_tile * 2))
            if functional:
                self._spgemm(harness, tiles, layer, strip_buf, partial_buf,
                             b, f)
            if cfg.strategy == "rs_ar":
                self._layer_rs_ar(harness, manager, layer, dims, weights,
                                  strip_buf, partial_buf, slice_buf,
                                  b, f, fc, dt, functional)
            else:
                self._layer_ar_ag(harness, manager, layer, dims, weights,
                                  strip_buf, partial_buf, slice_buf,
                                  b, f, fc, dt, functional)

        # Retrieve the final strips (RD for RS&AR, GA for AR&AG).
        output = None
        if cfg.strategy == "rs_ar":
            final_dims = "10" if (cfg.layers - 1) % 2 == 0 else "01"
            outputs = harness.comm("reduce", final_dims, strip_bytes,
                                   src=strip_buf, dtype=dt, op=MIN)
            if functional and outputs is not None:
                output = self._assemble(manager, outputs, cfg.layers, n, b, f)
        else:
            final_dims = "10" if (cfg.layers - 1) % 2 == 0 else "01"
            outputs = harness.comm("gather", final_dims, strip_bytes,
                                   src=strip_buf, dtype=dt)
            if functional and outputs is not None:
                outputs = {inst: buf[:strip_elems]
                           for inst, buf in outputs.items()}
                output = self._assemble(manager, outputs, cfg.layers, n, b, f)
        result = harness.result(self.name, output=output, grid=p,
                                features=f, layers=cfg.layers,
                                strategy=cfg.strategy)
        if functional:
            if self._golden is None:
                self._golden = golden_gnn(self.graph.dense, h0, weights)
                self._golden.setflags(write=False)
            result.meta["golden"] = self._golden
        return result

    # ------------------------------------------------------------------
    # Layout helpers: rows of a bulk load are nodes j + p*i (x = j fastest)
    # ------------------------------------------------------------------
    def _stacked_tiles(self, p) -> np.ndarray:
        """``(p*p, b, b)``: node (i, j) holds tile ``A[i-block, j-block]``."""
        tiles = self._tiles.get(p)
        if tiles is None:
            b = self.graph.num_vertices // p
            tiles = np.ascontiguousarray(self.graph.dense.reshape(
                p, b, p, b).transpose(0, 2, 1, 3)).reshape(p * p, b, b)
            self._tiles[p] = tiles
        return tiles

    @staticmethod
    def _spgemm(harness, tiles, layer, strip_buf, partial_buf, b, f):
        """Aggregation: partial = tile (or its transpose) @ strip."""
        tile = tiles if layer % 2 == 0 else tiles.transpose(0, 2, 1)
        strips = harness.load(strip_buf, b * f).reshape(-1, b, f)
        harness.store(partial_buf, tile @ strips)

    @staticmethod
    def _comm_ranks(p, dims) -> np.ndarray:
        """Every node's rank in its communication group along ``dims``."""
        nodes = np.arange(p * p)
        return nodes % p if dims == "10" else nodes // p

    # ------------------------------------------------------------------
    # RS&AR strategy
    # ------------------------------------------------------------------
    def _layer_rs_ar(self, harness, manager, layer, dims, weights,
                     strip_buf, partial_buf, slice_buf, b, f, fc, dt,
                     functional):
        p = manager.shape.dims[0]
        esize = dt.itemsize
        if functional:
            # Lay the partial out as p column-chunks for ReduceScatter.
            partial = harness.load(partial_buf, b * f).reshape(-1, b, p, fc)
            harness.store(partial_buf, partial.transpose(0, 2, 1, 3))
        harness.comm("reduce_scatter", dims, b * f * esize, src=partial_buf,
                     dst=slice_buf, dtype=dt)
        harness.kernel(f"gemm{layer}",
                       ops_per_pe=float(DPU_OPS_PER_MAC) * b * fc * f,
                       bytes_per_pe=float(esize) * (b * fc + fc * f + b * f))
        if functional:
            # Each node multiplies by its rank's weight row-block.
            blocks = weights[layer].reshape(p, fc, f)[
                self._comm_ranks(p, dims)]
            sl = harness.load(slice_buf, b * fc).reshape(-1, b, fc)
            harness.store(partial_buf, sl @ blocks)
        harness.comm("allreduce", dims, b * f * esize, src=partial_buf,
                     dst=strip_buf, dtype=dt)
        harness.kernel(f"relu{layer}", ops_per_pe=float(b * f),
                       bytes_per_pe=2.0 * esize * b * f)
        if functional:
            h = harness.load(strip_buf, b * f)
            harness.store(strip_buf, np.maximum(h, 0))

    # ------------------------------------------------------------------
    # AR&AG strategy
    # ------------------------------------------------------------------
    def _layer_ar_ag(self, harness, manager, layer, dims, weights,
                     strip_buf, partial_buf, slice_buf, b, f, fc, dt,
                     functional):
        p = manager.shape.dims[0]
        esize = dt.itemsize
        harness.comm("allreduce", dims, b * f * esize, src=partial_buf,
                     dst=partial_buf, dtype=dt)
        harness.kernel(f"gemm{layer}",
                       ops_per_pe=float(DPU_OPS_PER_MAC) * b * f * fc,
                       bytes_per_pe=float(esize) * (b * f + f * fc + b * fc))
        if functional:
            # Each node multiplies by its rank's weight column-block.
            blocks = weights[layer].reshape(f, p, fc).transpose(1, 0, 2)[
                self._comm_ranks(p, dims)]
            agg = harness.load(partial_buf, b * f).reshape(-1, b, f)
            harness.store(slice_buf, np.maximum(agg @ blocks, 0))
        harness.kernel(f"relu{layer}", ops_per_pe=float(b * fc),
                       bytes_per_pe=2.0 * esize * b * fc)
        harness.comm("allgather", dims, b * fc * esize, src=slice_buf,
                     dst=strip_buf, dtype=dt)
        if functional:
            # The gathered buffer concatenates column tiles; interleave
            # them back into row-major strips (a PE-local reshape).
            chunks = harness.load(strip_buf, b * f).reshape(-1, p, b, fc)
            harness.store(strip_buf, chunks.transpose(0, 2, 1, 3))

    # ------------------------------------------------------------------
    def _assemble(self, manager, outputs, layers, n, b, f) -> np.ndarray:
        """Reassemble the full H from per-instance final strips."""
        result = np.zeros((n, f), dtype=np.int64)
        # The final rooted collective communicates along the last layer's
        # dimension, over which the strips are replicated; instance k
        # fixes the other coordinate to k and holds row-block k.
        for inst, buf in outputs.items():
            result[inst * b:(inst + 1) * b] = buf[:b * f].reshape(b, f)
        return result

    # ------------------------------------------------------------------
    #: Effective CPU rate for sparse aggregation + unoptimized GeMM
    #: (SpMM on CPUs runs at a few percent of peak flops).
    CPU_SPMM_FLOPS = 3.0e9

    def cpu_only_seconds(self, params) -> float:
        """CPU-only time (Figure 21): SparseP-style CPU kernels."""
        cfg = self.config
        n = self.graph.num_vertices
        m = self.graph.num_edges
        f = cfg.features
        flops = (2.0 * m * f + 2.0 * n * f * f) * cfg.layers
        nbytes = (16.0 * m + 8.0 * n * f * 3) * cfg.layers * 2
        return max(flops / self.CPU_SPMM_FLOPS,
                   params.cpu_time(0.0, nbytes))
