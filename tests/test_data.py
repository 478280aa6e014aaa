"""Tests for synthetic datasets, graphs, and partitioners."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from .helpers import make_manager

from repro.apps import DlrmApp, DlrmConfig, PidCommBackend
from repro.data import (
    criteo_like,
    partition_1d,
    partition_2d,
    random_graph,
    rmat_graph,
)
from repro.data.graphs import from_edges
from repro.data.synthetic import embedding_tables
from repro.errors import AppError


class TestFromEdges:
    def test_dedup_and_self_loops(self):
        g = from_edges(4, [0, 0, 1, 2], [1, 1, 1, 2])
        assert g.num_edges == 1  # (0,1) deduped; (1,1),(2,2) dropped
        assert g.neighbors(0).tolist() == [1]

    def test_local_coordinates_keep_diagonal(self):
        g = from_edges(4, [1, 2], [1, 3], drop_self_loops=False)
        assert g.num_edges == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(AppError):
            from_edges(4, [0], [4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(AppError):
            from_edges(4, [0, 1], [1])


class TestGenerators:
    def test_rmat_shape_and_range(self):
        g = rmat_graph(64, 300, seed=1)
        assert g.num_vertices == 64
        assert 0 < g.num_edges <= 300
        assert g.indices.max() < 64

    def test_rmat_is_skewed(self):
        g = rmat_graph(256, 4096, seed=2)
        degrees = np.sort(g.out_degrees())[::-1]
        top = degrees[: len(degrees) // 10].sum()
        assert top > g.num_edges * 0.2  # heavy head

    def test_rmat_deterministic(self):
        a = rmat_graph(64, 200, seed=5)
        b = rmat_graph(64, 200, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_rmat_needs_pow2(self):
        with pytest.raises(AppError, match="power-of-two"):
            rmat_graph(100, 50)

    def test_random_graph(self):
        g = random_graph(50, 200, seed=3)
        assert g.num_vertices == 50
        assert g.num_edges > 0

    def test_symmetrized_is_symmetric(self):
        g = random_graph(32, 100, seed=4).symmetrized()
        dense = g.dense
        assert np.array_equal(dense, dense.T)


class TestPartitioners:
    def test_partition_1d_preserves_edges(self):
        g = rmat_graph(64, 300, seed=6)
        parts = partition_1d(g, 8)
        assert sum(p.num_edges for p in parts) == g.num_edges
        # Part 0's vertex 0 is global vertex 0.
        assert np.array_equal(parts[0].neighbors(0), g.neighbors(0))

    def test_partition_1d_indivisible(self):
        with pytest.raises(AppError):
            partition_1d(rmat_graph(64, 100), 7)

    def test_partition_2d_tiles_reassemble(self):
        g = rmat_graph(32, 200, seed=7).symmetrized()
        tiles = partition_2d(g, 4)
        block = 8
        dense = g.dense
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(
                    tiles[i][j].dense,
                    dense[i * block:(i + 1) * block,
                          j * block:(j + 1) * block])

    def test_dense_refuses_large(self):
        g = rmat_graph(8192, 10, seed=1)
        with pytest.raises(AppError, match="refused"):
            _ = g.dense


class TestCriteoLike:
    def test_shapes(self):
        data = criteo_like(batch_size=16, num_tables=8, num_rows=32, hots=3)
        assert data.indices.shape == (16, 8, 3)
        assert data.dense.shape == (16, 13)

    def test_indices_in_range(self):
        data = criteo_like(batch_size=64, num_tables=4, num_rows=10, hots=5)
        assert data.indices.min() >= 0
        assert data.indices.max() < 10

    def test_popularity_is_skewed(self):
        data = criteo_like(batch_size=4096, num_tables=1, num_rows=1000,
                           hots=1, seed=8)
        counts = np.bincount(data.indices.reshape(-1), minlength=1000)
        assert counts[0] > counts[counts > 0].mean() * 5

    def test_deterministic(self):
        a = criteo_like(8, 4, 16, 2, seed=9)
        b = criteo_like(8, 4, 16, 2, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_memoized_batches_are_read_only(self):
        data = criteo_like(8, 4, 16, 2, seed=9)
        assert criteo_like(8, 4, 16, 2, seed=9) is data
        assert not data.indices.flags.writeable
        assert not data.dense.flags.writeable
        with pytest.raises(FrozenInstanceError):
            data.num_rows = 8

    def test_dlrm_leaves_the_shared_batch_untouched(self):
        data = criteo_like(batch_size=32, num_tables=4, num_rows=16, hots=3,
                           seed=1)
        indices, dense = data.indices.copy(), data.dense.copy()
        manager = make_manager((2, 4, 4), mram_bytes=1 << 18)
        for functional in (True, False):
            DlrmApp(data, DlrmConfig(embedding_dim=4)).run(
                manager, PidCommBackend(), functional=functional)
        assert np.array_equal(data.indices, indices)
        assert np.array_equal(data.dense, dense)

    def test_validation(self):
        with pytest.raises(AppError):
            criteo_like(0, 4, 16)
        with pytest.raises(AppError):
            criteo_like(4, 4, 1)

    def test_embedding_tables(self):
        tables = embedding_tables(3, 8, 4, seed=1)
        assert tables.shape == (3, 8, 4)
        assert tables.dtype == np.int64
