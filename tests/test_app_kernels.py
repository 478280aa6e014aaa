"""The applications' PE kernels as array operations.

Every functional kernel phase in ``repro.apps`` is one bulk
``AppHarness.load``, one batched numpy operation and one bulk
``AppHarness.store``.  The per-PE loops they replaced live on here as
the reference: each ``Ref*`` subclass overrides exactly the kernel
phases of its app with the loop, one ``read_elements`` /
``write_elements`` pair per PE.  On small random graphs and shapes, a
run of the app must equal a run of its reference in the PE memory
entering every collective (so every kernel's output layout), the
output, the ledger and the iteration count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import DimmGeometry, DimmSystem, HypercubeManager
from repro.apps import (
    BfsApp,
    BfsConfig,
    CcApp,
    DlrmApp,
    DlrmConfig,
    GnnApp,
    GnnConfig,
    MlpApp,
    MlpConfig,
    PidCommBackend,
)
from repro.apps.base import AppHarness
from repro.data.graphs import from_edges, partition_1d, partition_2d
from repro.data.synthetic import CriteoLikeDataset
from repro.dtypes import INT64
from repro.reliability.faults import FaultInjector

GEOMETRY = DimmGeometry(1, 1, 8, 8)
SYSTEM_BACKENDS = st.sampled_from(["scalar", "vectorized"])


def make_manager(shape, backend="vectorized"):
    system = DimmSystem(GEOMETRY, mram_bytes=1 << 16, backend=backend)
    return HypercubeManager(system, shape=shape)


def traced_run(app, shape, backend):
    """Run ``app`` functionally; return the result and, for every
    functional collective, its primitive and source window on all PEs."""
    seen = []
    issue = AppHarness._issue

    def recording(self, functional, primitive, dims, size, src, *rest):
        if self.functional and functional is not False:
            seen.append((primitive, self.system.peek_rows(
                self.manager.all_pes, src, size)))
        return issue(self, functional, primitive, dims, size, src, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AppHarness, "_issue", recording)
        result = app.run(make_manager(shape, backend), PidCommBackend(),
                         functional=True)
    return result, seen


def assert_same_run(app, reference, shape, backend):
    got, got_seen = traced_run(app, shape, backend)
    want, want_seen = traced_run(reference, shape, backend)
    assert [p for p, _ in got_seen] == [p for p, _ in want_seen]
    for (primitive, got_rows), (_, want_rows) in zip(got_seen, want_seen):
        np.testing.assert_array_equal(got_rows, want_rows,
                                      err_msg=primitive)
    np.testing.assert_array_equal(got.output, want.output)
    assert got.ledger.seconds == want.ledger.seconds
    assert got.meta.get("iterations") == want.meta.get("iterations")
    return got


# ----------------------------------------------------------------------
# References: the per-PE loops the bulk kernels replaced
# ----------------------------------------------------------------------
class RefDlrm(DlrmApp):
    def _lookup(self, harness, tables, part_buf, cx, cy, cz):
        manager, system, data = harness.manager, harness.system, self.data
        b, t_all, _ = data.indices.shape
        tz, ec = t_all // cz, tables.shape[2] // cx
        r_shard = data.num_rows // cy
        for pe in manager.all_pes:
            x, y, z = manager.coords_of_pe(pe)
            partial = np.zeros((b, tz, ec), dtype=np.int64)
            for t_local in range(tz):
                t = z * tz + t_local
                tbl = tables[t]
                for s in range(b):
                    for idx in data.indices[s, t]:
                        if y * r_shard <= idx < (y + 1) * r_shard:
                            partial[s, t_local] += tbl[idx,
                                                       x * ec:(x + 1) * ec]
            system.write_elements(pe, part_buf, partial.reshape(-1), INT64)

    def _top_mlp(self, harness, aa_buf, score_buf, bs_final, cx, cz, tz, ec,
                 w1, w2):
        system = harness.system
        plane, t_all, e = cx * cz, cz * tz, cx * ec
        for pe in harness.manager.all_pes:
            flat = system.read_elements(pe, aa_buf, bs_final * t_all * e,
                                        INT64)
            chunks = flat.reshape(plane, bs_final, tz, ec)
            feats = np.zeros((bs_final, t_all, e), dtype=np.int64)
            for rank in range(plane):
                x, z = rank % cx, rank // cx
                feats[:, z * tz:(z + 1) * tz, x * ec:(x + 1) * ec] = \
                    chunks[rank]
            hidden = np.maximum(feats.reshape(bs_final, t_all * e) @ w1, 0)
            system.write_elements(pe, score_buf, (hidden @ w2).reshape(-1),
                                  INT64)

    def _assemble_scores(self, gathered, b, bs_final, cx, cy, cz):
        scores = np.zeros(b, dtype=np.int64)
        per_pe = max(1, bs_final)
        for node in range(cx * cy * cz):
            x, y, z = node % cx, node // cx % cy, node // (cx * cy)
            base = y * (b // cy) + (x + cx * z) * bs_final
            chunk = gathered[node * per_pe:(node + 1) * per_pe]
            scores[base:base + bs_final] = chunk[:bs_final]
        return scores


class RefGnn(GnnApp):
    def _spgemm(self, harness, tiles, layer, strip_buf, partial_buf, b, f):
        manager, system = harness.manager, harness.system
        p = manager.shape.dims[0]
        dense = [[t.dense for t in row]
                 for row in partition_2d(self.graph, p)]
        for pe in manager.all_pes:
            x, y = manager.coords_of_pe(pe)
            tile = dense[y][x] if layer % 2 == 0 else dense[y][x].T
            strip = system.read_elements(pe, strip_buf, b * f,
                                         INT64).reshape(b, f)
            system.write_elements(pe, partial_buf, (tile @ strip).reshape(-1),
                                  INT64)

    @staticmethod
    def _rank(manager, pe, dims):
        x, y = manager.coords_of_pe(pe)
        return x if dims == "10" else y

    def _layer_rs_ar(self, harness, manager, layer, dims, weights,
                     strip_buf, partial_buf, slice_buf, b, f, fc, dt,
                     functional):
        system = manager.system
        p = manager.shape.dims[0]
        for pe in manager.all_pes:
            partial = system.read_elements(pe, partial_buf, b * f,
                                           INT64).reshape(b, f)
            chunks = np.ascontiguousarray(
                partial.reshape(b, p, fc).transpose(1, 0, 2))
            system.write_elements(pe, partial_buf, chunks.reshape(-1), INT64)
        harness.comm("reduce_scatter", dims, b * f * 8, src=partial_buf,
                     dst=slice_buf, dtype=dt)
        harness.kernel(f"gemm{layer}", ops_per_pe=7.0 * b * fc * f,
                       bytes_per_pe=8.0 * (b * fc + fc * f + b * f))
        w = weights[layer]
        for pe in manager.all_pes:
            rank = self._rank(manager, pe, dims)
            sl = system.read_elements(pe, slice_buf, b * fc,
                                      INT64).reshape(b, fc)
            part = sl @ w[rank * fc:(rank + 1) * fc, :]
            system.write_elements(pe, partial_buf, part.reshape(-1), INT64)
        harness.comm("allreduce", dims, b * f * 8, src=partial_buf,
                     dst=strip_buf, dtype=dt)
        harness.kernel(f"relu{layer}", ops_per_pe=float(b * f),
                       bytes_per_pe=16.0 * b * f)
        for pe in manager.all_pes:
            h = system.read_elements(pe, strip_buf, b * f, INT64)
            system.write_elements(pe, strip_buf, np.maximum(h, 0), INT64)

    def _layer_ar_ag(self, harness, manager, layer, dims, weights,
                     strip_buf, partial_buf, slice_buf, b, f, fc, dt,
                     functional):
        system = manager.system
        p = manager.shape.dims[0]
        harness.comm("allreduce", dims, b * f * 8, src=partial_buf,
                     dst=partial_buf, dtype=dt)
        harness.kernel(f"gemm{layer}", ops_per_pe=7.0 * b * f * fc,
                       bytes_per_pe=8.0 * (b * f + f * fc + b * fc))
        w = weights[layer]
        for pe in manager.all_pes:
            rank = self._rank(manager, pe, dims)
            agg = system.read_elements(pe, partial_buf, b * f,
                                       INT64).reshape(b, f)
            tile = np.maximum(agg @ w[:, rank * fc:(rank + 1) * fc], 0)
            system.write_elements(pe, slice_buf, tile.reshape(-1), INT64)
        harness.kernel(f"relu{layer}", ops_per_pe=float(b * fc),
                       bytes_per_pe=16.0 * b * fc)
        harness.comm("allgather", dims, b * fc * 8, src=slice_buf,
                     dst=strip_buf, dtype=dt)
        for pe in manager.all_pes:
            flat = system.read_elements(pe, strip_buf, b * f, INT64)
            strip = flat.reshape(p, b, fc).transpose(1, 0, 2).reshape(b, f)
            system.write_elements(pe, strip_buf, strip.reshape(-1), INT64)


class RefMlp(MlpApp):
    def _gemm(self, harness, act, partial, w, batch):
        system = harness.system
        p = harness.manager.num_nodes
        cols = w.shape[1] // p
        for rank, pe in enumerate(harness.manager.all_pes):
            h = system.read_elements(pe, act, batch * cols,
                                     INT64).reshape(batch, cols)
            part = h @ w[rank * cols:(rank + 1) * cols, :]
            chunks = np.ascontiguousarray(
                part.reshape(batch, p, cols).transpose(1, 0, 2))
            system.write_elements(pe, partial, chunks.reshape(-1), INT64)

    def _relu(self, harness, act, count):
        for pe in harness.manager.all_pes:
            h = harness.system.read_elements(pe, act, count, INT64)
            harness.system.write_elements(pe, act, np.maximum(h, 0), INT64)


class RefBfs(BfsApp):
    def _expand(self, frontier, p, words):
        block = self.graph.num_vertices // p
        rows = []
        for rank, part in enumerate(partition_1d(self.graph, p)):
            nxt_local = np.zeros(words * 64, dtype=bool)
            for v_local in range(block):
                if frontier[rank * block + v_local]:
                    nxt_local[part.neighbors(v_local)] = True
            rows.append(np.packbits(nxt_local, bitorder="little").view(
                np.int64))
        return np.stack(rows)


class RefCc(CcApp):
    def _sweep(self, labels, steps):
        p = labels.shape[0]
        block = self.graph.num_vertices // p
        for rank, part in enumerate(partition_1d(self.graph, p)):
            local = labels[rank]
            for v_local in range(block):
                v = rank * block + v_local
                neigh = part.neighbors(v_local)
                if len(neigh):
                    low = min(local[v], local[neigh].min())
                    if low < local[v]:
                        local[v] = low
                    local[neigh] = np.minimum(local[neigh], local[v])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def block_graphs(draw, parts=(1, 2, 4, 8)):
    """(p, graph): ``p`` vertex blocks of 1-5 vertices and sparse random
    edges, so isolated vertices and edge-free blocks are common."""
    p = draw(st.sampled_from(parts))
    n = p * draw(st.integers(1, 5))
    m = draw(st.integers(0, 2 * n))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return p, from_edges(n, draw(ends), draw(ends))


#: No edges at all; and two edge-free blocks beside a path and a cycle.
EDGELESS = (4, from_edges(8, [], []))
PATCHY = (4, from_edges(16, [4, 5, 6, 12, 13, 14], [5, 6, 7, 13, 14, 12]))


class TestGraphKernels:
    @given(case=block_graphs(), backend=SYSTEM_BACKENDS)
    @example(case=EDGELESS, backend="vectorized")
    @example(case=PATCHY, backend="scalar")
    @settings(max_examples=30, deadline=None)
    def test_cc_sweep_matches_the_per_pe_loop(self, case, backend):
        """Labels, iteration count and every post-sweep label matrix."""
        p, graph = case
        assert_same_run(CcApp(graph), RefCc(graph), (p,), backend)

    @given(case=block_graphs(), backend=SYSTEM_BACKENDS,
           source=st.integers(0, 39))
    @example(case=EDGELESS, backend="vectorized", source=3)
    @example(case=PATCHY, backend="scalar", source=4)
    @settings(max_examples=30, deadline=None)
    def test_bfs_frontier_bitmaps_match_the_per_pe_loop(self, case, backend,
                                                        source):
        p, graph = case
        config = BfsConfig(source=source % graph.num_vertices)
        assert_same_run(BfsApp(graph, config), RefBfs(graph, config), (p,),
                        backend)

    @given(case=block_graphs(parts=(1, 2, 4)), backend=SYSTEM_BACKENDS,
           fc=st.integers(1, 3), layers=st.integers(1, 3),
           strategy=st.sampled_from(["rs_ar", "ar_ag"]),
           seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_gnn_layouts_match_the_per_pe_loop(self, case, backend, fc,
                                               layers, strategy, seed):
        p, graph = case
        config = GnnConfig(p * fc, layers, strategy, seed=seed)
        assert_same_run(GnnApp(graph, config), RefGnn(graph, config), (p, p),
                        backend)


class TestDenseKernels:
    @given(p=st.sampled_from([1, 2, 4, 8]), cols=st.integers(1, 3),
           batch=st.integers(1, 4), layers=st.integers(1, 3),
           seed=st.integers(0, 99), backend=SYSTEM_BACKENDS)
    @settings(max_examples=25, deadline=None)
    def test_mlp_layouts_match_the_per_pe_loop(self, p, cols, batch, layers,
                                               seed, backend):
        config = MlpConfig(p * cols, layers, batch, seed=seed)
        assert_same_run(MlpApp(config), RefMlp(config), (p,), backend)

    @staticmethod
    def _dlrm(cube, ec, tz, rows_per_shard, samples_per_node, hots,
              indices):
        cx, cy, cz = cube
        b = cx * cy * cz * samples_per_node
        shape = (b, cz * tz, hots)
        data = CriteoLikeDataset(
            indices=np.asarray(indices, dtype=np.int64).reshape(shape),
            dense=np.zeros((b, 1), dtype=np.float32),
            num_rows=cy * rows_per_shard)
        return data, DlrmConfig(embedding_dim=cx * ec, mlp_hidden=3)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_dlrm_partials_match_the_per_pe_loop(self, data):
        """Few rows per shard and up to four hots: hots repeat an index
        and straddle y-shards in most draws."""
        cube = tuple(data.draw(st.sampled_from([1, 2])) for _ in range(3))
        ec, tz = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        rows_per_shard = data.draw(st.integers(1, 3))
        samples, hots = data.draw(st.integers(1, 2)), data.draw(
            st.integers(1, 4))
        count = int(np.prod(cube)) * samples * cube[2] * tz * hots
        indices = data.draw(st.lists(
            st.integers(0, cube[1] * rows_per_shard - 1), min_size=count,
            max_size=count))
        batch, config = self._dlrm(cube, ec, tz, rows_per_shard, samples,
                                   hots, indices)
        backend = data.draw(SYSTEM_BACKENDS)
        assert_same_run(DlrmApp(batch, config), RefDlrm(batch, config), cube,
                        backend)

    @pytest.mark.parametrize("hot_rows", [[5, 5, 5], [0, 3, 5]],
                             ids=["repeated", "across_shards"])
    def test_dlrm_named_hot_patterns(self, hot_rows):
        """Every sample looks up ``hot_rows`` in every table: one row
        three times, or one row in each of three y-shards."""
        cube, samples = (2, 4, 2), 1
        lookups = int(np.prod(cube)) * samples * 2    # batch x tables
        indices = np.tile(hot_rows, lookups)
        batch, config = self._dlrm(cube, 2, 1, 2, samples, 3, indices)
        got = assert_same_run(DlrmApp(batch, config), RefDlrm(batch, config),
                              cube, "vectorized")
        np.testing.assert_array_equal(got.output, got.meta["golden"].ravel())


class TestHarnessBulkAccess:
    """``load`` / ``store`` are the PEs' own view: node order, both
    backends, below the fault injector."""

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_rows_are_nodes_and_a_vector_reaches_every_pe(self, backend):
        manager = make_manager((4, 2), backend)
        system = manager.system
        system.attach_fault_injector(FaultInjector(drop_rate=1.0,
                                                   bit_flip_rate=1.0))
        harness = AppHarness(manager, PidCommBackend())
        buf = system.alloc(3 * 8)
        rows = np.arange(8 * 3, dtype=np.int64).reshape(8, 3)
        harness.store(buf, rows)
        for node, pe in enumerate(manager.all_pes):
            np.testing.assert_array_equal(
                system.read_elements(pe, buf, 3, INT64), rows[node])
        np.testing.assert_array_equal(harness.load(buf, 3), rows)
        harness.store(buf, np.array([7, -1, 9]))
        np.testing.assert_array_equal(harness.load(buf, 3),
                                      np.tile([7, -1, 9], (8, 1)))
        assert sum(system.fault_injector.injected.values()) == 0
