"""Deep learning recommendation model on PIM-enabled DIMMs (section VII-A).

The DLRM embedding stage is split three ways and mapped onto a 3-D
hypercube exactly as Figure 11 describes: embedding *columns* over the
x axis, table *rows* over the y axis, and *tables* over the z axis.
One inference batch flows as:

1. Broadcast the multi-hot lookup indices to all PEs.
2. Lookup kernel: each PE pools the rows it owns (row-wise parallel
   pooling yields *partial* sums).
3. ReduceScatter along y completes the pooled embeddings and shards the
   batch over y (the paper's "row-wise parallelism" step).
4. AlltoAll over the xz plane regroups (table, column) slices into full
   per-sample feature vectors for the top MLP.
5. Top-MLP kernel on each PE's batch sub-shard; Gather returns scores.

Communication set: BC + SC-like routing, RS, AA, GA -- matching
Table III's DLRM row.  Functional runs use integer embeddings and are
validated bit-exactly against a golden pooled-embedding + MLP model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypercube import HypercubeManager
from ..data.synthetic import CriteoLikeDataset, embedding_tables
from ..errors import AppError
from .base import AppHarness, CommBackend


@dataclass(frozen=True)
class DlrmConfig:
    """DLRM model shape."""

    embedding_dim: int = 16
    mlp_hidden: int = 8
    seed: int = 0


def golden_dlrm(data: CriteoLikeDataset, tables: np.ndarray,
                w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Reference scores: pooled embeddings -> relu MLP -> linear."""
    batch, num_tables, _ = data.indices.shape
    dim = tables.shape[2]
    pooled = np.zeros((batch, num_tables, dim), dtype=np.int64)
    for s in range(batch):
        for t in range(num_tables):
            pooled[s, t] = tables[t, data.indices[s, t]].sum(axis=0)
    flat = pooled.reshape(batch, num_tables * dim)
    hidden = np.maximum(flat @ w1, 0)
    return hidden @ w2


class DlrmApp:
    """The DLRM benchmark application."""

    name = "DLRM"
    hypercube_dims = 3
    primitives = ("broadcast", "reduce_scatter", "alltoall", "gather",
                  "scatter")

    def __init__(self, data: CriteoLikeDataset, config: DlrmConfig) -> None:
        self.data = data
        self.config = config

    # ------------------------------------------------------------------
    def run(self, manager: HypercubeManager, backend: CommBackend,
            functional: bool = True):
        """Run one inference batch; functional runs return the scores."""
        cfg = self.config
        if manager.ndim != 3:
            raise AppError("DLRM expects a 3-D hypercube (cols, rows, tables)")
        cx, cy, cz = manager.shape.dims
        data = self.data
        b, t_all, hots = data.indices.shape
        e = cfg.embedding_dim
        r = data.num_rows
        if e % cx or r % cy or t_all % cz:
            raise AppError(
                f"DLRM shape mismatch: dim {e} % {cx}, rows {r} % {cy}, "
                f"tables {t_all} % {cz} must all be 0")
        if b % cy:
            raise AppError(f"batch {b} must divide over {cy} row shards")
        plane = cx * cz
        bs_y = b // cy                 # batch shard after ReduceScatter
        if bs_y % plane:
            raise AppError(
                f"batch shard {bs_y} must divide over the {plane}-PE xz plane")
        bs_final = bs_y // plane       # samples per PE for the top MLP
        ec = e // cx                   # embedding columns per PE
        tz = t_all // cz               # tables per PE
        feat = t_all * e               # full feature width per sample

        harness = AppHarness(manager, backend, functional)
        system = manager.system

        # Per-PE buffer sizes (in elements).
        partial_elems = b * tz * ec           # pooled partials, all samples
        shard_elems = bs_y * tz * ec          # after ReduceScatter
        full_elems = bs_y * tz * ec           # AlltoAll is size-preserving
        mlp_in_elems = bs_final * feat

        idx_bytes = b * t_all * hots * 8
        part_buf = system.alloc(partial_elems * 8) if functional else 0
        shard_buf = system.alloc(shard_elems * 8) if functional else 0
        aa_buf = system.alloc(full_elems * 8) if functional else 0
        score_buf = system.alloc(max(8, bs_final * 8)) if functional else 0

        rng = np.random.default_rng(cfg.seed)
        tables = w1 = w2 = None
        if functional:
            tables = embedding_tables(t_all, r, e, seed=cfg.seed)
            w1 = rng.integers(-2, 3, (feat, cfg.mlp_hidden)).astype(np.int64)
            w2 = rng.integers(-2, 3, (cfg.mlp_hidden, 1)).astype(np.int64)

        # 1. Broadcast the lookup indices to every PE.
        if functional:
            harness.comm("broadcast", "111", idx_bytes,
                         payloads={0: data.indices.reshape(-1)})
        else:
            harness.comm("broadcast", "111", idx_bytes)

        # 2. Lookup kernel: pool owned rows (partial sums over y shards).
        lookup_bytes = b * tz * hots / cy * ec * 8
        harness.kernel("lookup", ops_per_pe=b * tz * hots / cy * ec,
                       bytes_per_pe=2.0 * lookup_bytes + partial_elems * 8)
        if functional:
            self._lookup(harness, tables, part_buf, cx, cy, cz)

        # 3. ReduceScatter along y: complete the pools, shard the batch.
        harness.comm("reduce_scatter", "010", partial_elems * 8,
                     src=part_buf, dst=shard_buf)

        # 4. AlltoAll over the xz plane: feature slices -> full vectors.
        # The RS output is already ordered [sample, table, col] with
        # samples contiguous, so its plane sub-shards line up exactly
        # with the AlltoAll chunk boundaries -- no extra local shuffle.
        harness.comm("alltoall", "101", shard_elems * 8, src=shard_buf,
                     dst=aa_buf)

        # 5. Top MLP on each PE's sub-shard of samples (software MACs).
        mlp_flops = 7.0 * bs_final * (feat * cfg.mlp_hidden + cfg.mlp_hidden)
        harness.kernel("top_mlp", ops_per_pe=mlp_flops,
                       bytes_per_pe=8.0 * (mlp_in_elems
                                           + feat * cfg.mlp_hidden))
        if functional:
            self._top_mlp(harness, aa_buf, score_buf, bs_final, cx, cz, tz,
                          ec, w1, w2)

        # 6. Gather the scores.
        outputs = harness.comm("gather", "111", max(8, bs_final * 8),
                               src=score_buf)
        output = None
        if functional and outputs is not None:
            output = self._assemble_scores(outputs[0], b, bs_final, cx, cy,
                                           cz)
        result = harness.result(self.name, output=output, batch=b,
                                tables=t_all, dim=e, hots=hots)
        if functional:
            result.meta["golden"] = golden_dlrm(data, tables, w1, w2)
        return result

    # ------------------------------------------------------------------
    # Functional kernels: one bulk load/store per phase, rows in node
    # order (x fastest, then y, then z)
    # ------------------------------------------------------------------
    def _lookup(self, harness, tables, part_buf, cx, cy, cz):
        """Every PE pools the rows of its (column, row-shard, table) block."""
        indices = self.data.indices                    # (b, T, hots)
        b, t_all, _ = indices.shape
        e = tables.shape[2]
        rows = tables[np.arange(t_all)[:, None], indices]   # (b, T, hots, e)
        # owned[y, s, t, h]: row shard y holds sample s's h-th hot of t.
        shard = indices // (self.data.num_rows // cy)
        owned = shard == np.arange(cy)[:, None, None, None]
        pooled = np.where(owned[..., None], rows, 0).sum(axis=3)
        # (y, b, z, t_local, x, col) -> one row per node (z, y, x).
        blocks = pooled.reshape(cy, b, cz, t_all // cz, cx, e // cx)
        harness.store(part_buf, blocks.transpose(2, 0, 4, 1, 3, 5))

    def _top_mlp(self, harness, aa_buf, score_buf, bs_final, cx, cz, tz, ec,
                 w1, w2):
        """Reassemble each node's feature vectors, then relu MLP -> linear."""
        nodes = harness.manager.num_nodes
        flat = harness.load(aa_buf, bs_final * cz * tz * cx * ec)
        # AlltoAll delivered plane chunks in source-rank order; source
        # rank (x', z') = x' + cx * z' carried tables z'-shard and
        # columns x'-shard.
        chunks = flat.reshape(nodes, cz, cx, bs_final, tz, ec)
        feats = chunks.transpose(0, 3, 1, 4, 2, 5).reshape(
            nodes, bs_final, cz * tz * cx * ec)
        hidden = np.maximum(feats @ w1, 0)
        harness.store(score_buf, (hidden @ w2)[..., 0])

    def _assemble_scores(self, gathered, b, bs_final, cx, cy, cz):
        """Map gathered per-node scores back to batch order.

        Node (x, y, z) scored the ``bs_final`` samples from
        ``y * b / cy + (x + cx * z) * bs_final`` on.
        """
        per_node = max(1, bs_final)
        scores = gathered[:cx * cy * cz * per_node].reshape(
            cz, cy, cx, per_node)[..., :bs_final]
        return scores.transpose(1, 0, 2, 3).reshape(b)

    # ------------------------------------------------------------------
    #: Effective bandwidth of random embedding-row gathers on the CPU
    #: (cache-miss bound; each pooled row is a fresh DRAM access).
    CPU_GATHER_GBPS = 0.45
    CPU_MLP_FLOPS = 6.6e9

    def cpu_only_seconds(self, params) -> float:
        """CPU-only time (Figure 21): gather-bound embedding pooling."""
        del params
        data = self.data
        cfg = self.config
        b, t, hots = data.indices.shape
        e = cfg.embedding_dim
        feat = t * e
        lookup_bytes = 8.0 * b * t * hots * e
        mlp_flops = 2.0 * b * (feat * cfg.mlp_hidden + cfg.mlp_hidden)
        return (lookup_bytes / (self.CPU_GATHER_GBPS * 1e9)
                + mlp_flops / self.CPU_MLP_FLOPS)
