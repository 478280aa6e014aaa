"""Graph structures, generators, and partitioners.

Replaces the paper's graph datasets (LiveJournal [102], Gowalla [13] for
BFS/CC; Pubmed [83], Reddit [34] for GNN) with synthetic generators of
the same character: R-MAT power-law graphs for the social networks and
Erdős–Rényi graphs as a uniform-degree control.  Communication volume
depends only on vertex/edge counts and the partitioning, which the
generators parameterize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import AppError


@dataclass(frozen=True)
class CsrGraph:
    """A directed graph in CSR form (used undirected by symmetrizing)."""

    indptr: np.ndarray   # int64, len n+1
    indices: np.ndarray  # int64, len m

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex ``v``."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    @cached_property
    def dense(self) -> np.ndarray:
        """Dense 0/1 adjacency (small graphs: golden models, GNN tiles)."""
        n = self.num_vertices
        if n > 4096:
            raise AppError(f"dense adjacency of a {n}-vertex graph refused")
        mat = np.zeros((n, n), dtype=np.int64)
        mat[np.repeat(np.arange(n), self.out_degrees()), self.indices] = 1
        return mat

    def symmetrized(self) -> "CsrGraph":
        """Undirected version: edges in both directions, deduplicated."""
        n = self.num_vertices
        src = np.repeat(np.arange(n), self.out_degrees())
        dst = self.indices
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        return from_edges(n, all_src, all_dst)


class GraphStats:
    """A graph known only by its size (for analytic, paper-scale runs).

    Duck-types the parts of :class:`CsrGraph` the applications touch in
    cost-only mode: vertex/edge counts and :meth:`symmetrized`.  Any
    attempt to read actual structure raises.
    """

    def __init__(self, num_vertices: int, num_edges: int) -> None:
        if num_vertices < 1 or num_edges < 0:
            raise AppError("GraphStats needs positive sizes")
        self._n = num_vertices
        self._m = num_edges

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def symmetrized(self) -> "GraphStats":
        """Stats are orientation-free; returns itself."""
        return self

    def neighbors(self, v: int) -> np.ndarray:
        """Unavailable: stats-only graphs carry no edges."""
        raise AppError("GraphStats has no structure; use a functional run "
                       "with a real CsrGraph")

    @property
    def dense(self) -> np.ndarray:
        raise AppError("GraphStats has no structure; use a functional run "
                       "with a real CsrGraph")


def from_edges(num_vertices: int, src: np.ndarray, dst: np.ndarray,
               drop_self_loops: bool = True) -> CsrGraph:
    """Build a CSR graph from (possibly duplicated) edge endpoints.

    ``drop_self_loops`` must be False when the endpoints are *local*
    coordinates of a tile, where src == dst does not mean a self-loop.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise AppError("edge endpoint arrays must have equal length")
    if len(src) and (src.min() < 0 or src.max() >= num_vertices
                     or dst.min() < 0 or dst.max() >= num_vertices):
        raise AppError("edge endpoint outside vertex range")
    keep = (src != dst) if drop_self_loops else np.ones(len(src), dtype=bool)
    keys = src[keep] * num_vertices + dst[keep]
    keys = np.unique(keys)
    src_u = keys // num_vertices
    dst_u = keys % num_vertices
    counts = np.bincount(src_u, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CsrGraph(indptr=indptr, indices=dst_u.astype(np.int64))


def rmat_graph(num_vertices: int, num_edges: int, seed: int = 0,
               a: float = 0.57, b: float = 0.19, c: float = 0.19
               ) -> CsrGraph:
    """R-MAT power-law graph (the standard social-network stand-in).

    ``num_vertices`` must be a power of two.  The recursive quadrant
    probabilities default to the Graph500 values.
    """
    if num_vertices & (num_vertices - 1):
        raise AppError(f"R-MAT needs a power-of-two vertex count, "
                       f"got {num_vertices}")
    d = 1.0 - a - b - c
    if d <= 0:
        raise AppError("R-MAT probabilities must sum below 1")
    rng = np.random.default_rng(seed)
    scale = num_vertices.bit_length() - 1
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_edges)
        # Quadrants: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        src = src * 2 + go_down
        dst = dst * 2 + go_right
    return from_edges(num_vertices, src, dst)


def random_graph(num_vertices: int, num_edges: int, seed: int = 0
                 ) -> CsrGraph:
    """Uniform random (Erdős–Rényi-style) directed graph."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    return from_edges(num_vertices, src, dst)


def partition_1d(graph: CsrGraph, parts: int) -> list[CsrGraph]:
    """Split vertices into contiguous blocks; part p keeps the out-edges
    of its vertex block (global column ids are retained)."""
    n = graph.num_vertices
    if n % parts:
        raise AppError(f"{n} vertices not divisible into {parts} parts")
    block = n // parts
    out = []
    for p in range(parts):
        lo, hi = p * block, (p + 1) * block
        indptr = (graph.indptr[lo:hi + 1] - graph.indptr[lo]).copy()
        indices = graph.indices[graph.indptr[lo]:graph.indptr[hi]].copy()
        out.append(CsrGraph(indptr=indptr, indices=indices))
    return out


def partition_2d(graph: CsrGraph, grid: int) -> list[list[CsrGraph]]:
    """2-D tiling: tile (i, j) holds edges from row-block i to col-block j,
    with both endpoints renumbered to local block coordinates."""
    n = graph.num_vertices
    if n % grid:
        raise AppError(f"{n} vertices not divisible into a {grid}x{grid} grid")
    block = n // grid
    tiles: list[list[CsrGraph]] = []
    degrees = graph.out_degrees()
    src_all = np.repeat(np.arange(n), degrees)
    dst_all = graph.indices
    row_of = src_all // block
    col_of = dst_all // block
    for i in range(grid):
        row = []
        for j in range(grid):
            mask = (row_of == i) & (col_of == j)
            row.append(from_edges(block, src_all[mask] - i * block,
                                  dst_all[mask] - j * block,
                                  drop_self_loops=False))
        tiles.append(row)
    return tiles
