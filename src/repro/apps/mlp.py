"""Multi-layer perceptron on PIM-enabled DIMMs (paper section VII-E).

Column-wise model parallelism over a 1-D hypercube: PE ``p`` owns a
row-block of every weight matrix and the matching column-slice of the
activations.  Each layer computes a partial product on every PE and
ReduceScatters the partials so each PE ends with its column-slice of
the next layer's input -- the exact structure of the paper's optimized
MLP (weights 16k x 16k or 32k x 32k, 5 layers).

Functional runs use integer weights/activations and are validated
bit-exactly against a numpy golden model (including the ReLU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..errors import AppError
from .base import AppHarness, CommBackend

#: DPU ops per multiply-accumulate: the DPU ISA has no 32/64-bit
#: multiplier, so a MAC costs ~6 software cycles plus the add.
DPU_OPS_PER_MAC = 7


@dataclass(frozen=True)
class MlpConfig:
    """MLP shape: ``layers`` square weight matrices of ``features`` wide."""

    features: int = 16 * 1024
    layers: int = 5
    batch: int = 256
    seed: int = 0

    def validate(self, num_pes: int) -> None:
        """Check the shape divides over ``num_pes`` PEs."""
        if self.features % num_pes:
            raise AppError(
                f"features {self.features} must divide over {num_pes} PEs")
        if self.features // num_pes < 1:
            raise AppError("fewer than one feature column per PE")


def golden_mlp(x: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Reference forward pass: x @ W_0 |> relu ... (int64)."""
    h = x.astype(np.int64)
    for i, w in enumerate(weights):
        h = h @ w.astype(np.int64)
        if i != len(weights) - 1:
            h = np.maximum(h, 0)
    return h


class MlpApp:
    """The MLP benchmark application.

    The golden activations are a function of the frozen config alone
    (``run`` regenerates its seeded input and weights each time, and the
    cube shape does not change them), so the first functional run
    computes them once and every later run, on any 1-D cube, reports
    the same read-only array as ``meta["golden"]``.
    """

    name = "MLP"
    hypercube_dims = 1
    primitives = ("scatter", "reduce_scatter", "reduce")

    def __init__(self, config: MlpConfig) -> None:
        self.config = config
        #: The golden activations, read-only; computed on the first
        #: functional run (analytic runs never compute them).
        self._golden: np.ndarray | None = None

    # ------------------------------------------------------------------
    def run(self, manager: HypercubeManager, backend: CommBackend,
            functional: bool = True):
        """Run the benchmark; functional runs return the final activations."""
        cfg = self.config
        if manager.ndim != 1:
            raise AppError("MLP expects a 1-D hypercube")
        p = manager.num_nodes
        cfg.validate(p)
        harness = AppHarness(manager, backend, functional)
        cols = cfg.features // p          # columns owned per PE
        slice_elems = cfg.batch * cols    # activation slice per PE
        full_elems = cfg.batch * cfg.features

        system = manager.system
        act = system.alloc(slice_elems * 8) if functional else 0
        partial = system.alloc(full_elems * 8) if functional else 0

        rng = np.random.default_rng(cfg.seed)
        weights: list[np.ndarray] = []
        x = None
        if functional:
            x = rng.integers(-4, 4, (cfg.batch, cfg.features))
            weights = [rng.integers(-4, 4, (cfg.features, cfg.features))
                       for _ in range(cfg.layers)]
            payload = np.ascontiguousarray(
                x.reshape(cfg.batch, p, cols).transpose(1, 0, 2)
            ).astype(np.int64)
            harness.comm("scatter", "1", slice_elems * 8, dst=act,
                         payloads={0: payload})
        else:
            harness.comm("scatter", "1", slice_elems * 8, dst=act)

        for layer in range(cfg.layers):
            # GEMM kernel: (batch x cols) slice times the PE's (cols x
            # features) weight row-block -> (batch x features) partial.
            harness.kernel(
                f"gemm{layer}",
                ops_per_pe=DPU_OPS_PER_MAC * cfg.batch * cols * cfg.features,
                bytes_per_pe=8.0 * (slice_elems + cols * cfg.features
                                    + full_elems))
            if functional:
                self._gemm(harness, act, partial, weights[layer], cfg.batch)
            harness.comm("reduce_scatter", "1", full_elems * 8, src=partial,
                         dst=act)
            if layer != cfg.layers - 1:
                # ReLU runs on the PEs right after the scatter.
                harness.kernel(f"relu{layer}", ops_per_pe=slice_elems,
                               bytes_per_pe=16.0 * slice_elems)
                if functional:
                    self._relu(harness, act, slice_elems)

        output = None
        # Retrieve results with a Gather (each PE holds its column slice).
        gathered = harness.comm("gather", "1", slice_elems * 8, src=act)
        if functional and gathered is not None:
            stacked = gathered[0][:p * slice_elems].reshape(p, cfg.batch, cols)
            output = stacked.transpose(1, 0, 2).reshape(cfg.batch,
                                                        cfg.features)
        result = harness.result(self.name, output=output,
                                features=cfg.features, layers=cfg.layers,
                                batch=cfg.batch)
        if functional:
            if self._golden is None:
                self._golden = golden_mlp(x, weights)
                self._golden.setflags(write=False)
            result.meta["golden"] = self._golden
        return result

    # ------------------------------------------------------------------
    # Functional kernels (one bulk load/store each; row r is PE rank r)
    # ------------------------------------------------------------------
    @staticmethod
    def _gemm(harness, act, partial, w, batch):
        """Every PE's (batch x cols) slice times its (cols x features)
        row-block of ``w``, laid out as p column chunks so ReduceScatter
        lands chunk r (the columns of PE r) on PE r."""
        p = harness.manager.num_nodes
        features = w.shape[1]
        cols = features // p
        h = harness.load(act, batch * cols).reshape(p, batch, cols)
        part = h @ w.reshape(p, cols, features)
        harness.store(partial, part.reshape(p, batch, p, cols).transpose(
            0, 2, 1, 3))

    @staticmethod
    def _relu(harness, act, count):
        """Every PE clamps its ``count`` activations at 0, in place."""
        harness.store(act, np.maximum(harness.load(act, count), 0))

    # ------------------------------------------------------------------
    #: Effective CPU rate of the PrIM-style unoptimized int64 GEMM
    #: baseline (non-blocked OpenMP loops run at a few percent of peak).
    CPU_GEMM_FLOPS = 5.1e9

    def cpu_only_seconds(self, params) -> float:
        """CPU-only time for the same workload (Figure 21).

        The paper compares against the PrIM [29] CPU implementations,
        which are straightforward OpenMP kernels, not tuned BLAS; their
        effective rate is the calibrated constant above.  The memory
        roofline still applies as a lower bound.
        """
        cfg = self.config
        flops = 2.0 * cfg.batch * cfg.features * cfg.features * cfg.layers
        nbytes = 8.0 * cfg.features * cfg.features * cfg.layers
        return max(flops / self.CPU_GEMM_FLOPS,
                   params.cpu_time(0.0, nbytes))
