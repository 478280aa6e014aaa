"""Functional validation of the five benchmark applications.

Every app runs on the simulated 32-PE system with both the PID-Comm and
the baseline backend and must produce outputs bit-identical to its
golden (single-machine numpy) model -- proving the distributed
implementations, and the collectives underneath them, are correct.
"""

from functools import partial

import numpy as np
import pytest

from repro import DimmGeometry, HypercubeManager
from repro.apps import (
    BaselineCommBackend,
    BfsApp,
    BfsConfig,
    CcApp,
    CcConfig,
    DlrmApp,
    DlrmConfig,
    GnnApp,
    GnnConfig,
    MlpApp,
    MlpConfig,
    PidCommBackend,
    app_table,
)
from repro.apps import dlrm, gnn, mlp
from repro.apps.bfs import golden_bfs
from repro.apps.cc import golden_cc
from repro.apps.dlrm import golden_dlrm
from repro.apps.gnn import golden_gnn
from repro.apps.mlp import golden_mlp
from repro.data import criteo_like, random_graph, rmat_graph
from repro.data.synthetic import embedding_tables
from repro.errors import AppError
from repro.hw.system import DimmSystem

from .helpers import golden_dlrm_loop

BACKENDS = [PidCommBackend(), BaselineCommBackend()]
BACKEND_IDS = ["pidcomm", "baseline"]


def manager_1d(pes=32, mram=1 << 20):
    system = DimmSystem.small(mram_bytes=mram)
    return HypercubeManager(system, shape=(pes,))


def manager_2d(p=4, mram=1 << 20):
    system = DimmSystem.small(mram_bytes=mram)
    return HypercubeManager(system, shape=(p, p))


def manager_3d(shape=(4, 2, 2), mram=1 << 20):
    system = DimmSystem.small(mram_bytes=mram)
    return HypercubeManager(system, shape=shape)


class TestMlp:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_matches_golden(self, backend):
        app = MlpApp(MlpConfig(features=64, layers=3, batch=4, seed=1))
        result = app.run(manager_1d(), backend, functional=True)
        np.testing.assert_array_equal(result.output, result.meta["golden"])

    def test_records_per_primitive_breakdown(self):
        app = MlpApp(MlpConfig(features=64, layers=2, batch=2))
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        assert result.per_primitive["reduce_scatter"] > 0
        assert result.per_primitive["kernel"] > 0
        assert result.per_primitive["scatter"] > 0
        assert result.seconds == pytest.approx(
            sum(result.per_primitive.values()))

    def test_analytic_mode_no_memory(self):
        system = DimmSystem.paper_testbed()
        manager = HypercubeManager(system, shape=(1024,))
        app = MlpApp(MlpConfig(features=16 * 1024, layers=5, batch=256))
        result = app.run(manager, PidCommBackend(), functional=False)
        assert result.output is None
        assert result.seconds > 0
        assert system.touched_pes == 0

    def test_indivisible_features_rejected(self):
        app = MlpApp(MlpConfig(features=50, layers=2, batch=2))
        with pytest.raises(AppError, match="divide"):
            app.run(manager_1d(), PidCommBackend())


class TestBfs:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_matches_golden(self, backend):
        graph = rmat_graph(64, 300, seed=3)
        app = BfsApp(graph, BfsConfig(source=0))
        result = app.run(manager_1d(), backend, functional=True)
        np.testing.assert_array_equal(result.output, golden_bfs(graph, 0))

    def test_disconnected_vertices_stay_unreached(self):
        graph = random_graph(64, 40, seed=5)  # sparse: many isolated
        app = BfsApp(graph, BfsConfig(source=0))
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        golden = golden_bfs(graph, 0)
        np.testing.assert_array_equal(result.output, golden)
        assert (golden == -1).any()  # the scenario is exercised

    def test_iteration_count_reported(self):
        graph = rmat_graph(64, 300, seed=3)
        app = BfsApp(graph, BfsConfig(source=0))
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        assert result.meta["iterations"] >= 1


class TestCc:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_matches_golden(self, backend):
        graph = random_graph(64, 80, seed=7)
        app = CcApp(graph, CcConfig())
        result = app.run(manager_1d(), backend, functional=True)
        np.testing.assert_array_equal(result.output, golden_cc(graph))

    def test_multiple_components_found(self):
        graph = random_graph(64, 30, seed=11)
        app = CcApp(graph, CcConfig())
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        labels = result.output
        assert len(np.unique(labels)) > 1
        np.testing.assert_array_equal(labels, golden_cc(graph))


class TestGnn:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("strategy", ["rs_ar", "ar_ag"])
    def test_matches_golden(self, backend, strategy):
        graph = rmat_graph(32, 128, seed=9)
        app = GnnApp(graph, GnnConfig(features=8, layers=3,
                                      strategy=strategy))
        result = app.run(manager_2d(4), backend, functional=True)
        np.testing.assert_array_equal(result.output, result.meta["golden"])

    def test_even_layer_count(self):
        # Dimension alternation must also close correctly after an even
        # number of layers.
        graph = rmat_graph(32, 128, seed=13)
        app = GnnApp(graph, GnnConfig(features=8, layers=2,
                                      strategy="rs_ar"))
        result = app.run(manager_2d(4), PidCommBackend(), functional=True)
        np.testing.assert_array_equal(result.output, result.meta["golden"])

    def test_strategies_use_different_primitives(self):
        graph = rmat_graph(32, 128, seed=9)
        rs = GnnApp(graph, GnnConfig(features=8, layers=2,
                                     strategy="rs_ar")).run(
            manager_2d(4), PidCommBackend(), functional=True)
        ag = GnnApp(graph, GnnConfig(features=8, layers=2,
                                     strategy="ar_ag")).run(
            manager_2d(4), PidCommBackend(), functional=True)
        assert "reduce_scatter" in rs.per_primitive
        assert "allgather" in ag.per_primitive
        assert "allgather" not in rs.per_primitive
        assert "reduce_scatter" not in ag.per_primitive

    def test_non_square_grid_rejected(self):
        graph = rmat_graph(32, 64)
        app = GnnApp(graph, GnnConfig(features=8, layers=1))
        system = DimmSystem.small()
        manager = HypercubeManager(system, shape=(8, 4))
        with pytest.raises(AppError, match="square"):
            app.run(manager, PidCommBackend())

    def test_bad_strategy_rejected(self):
        with pytest.raises(AppError, match="strategy"):
            GnnConfig(strategy="ring")


class TestDlrm:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_matches_golden(self, backend):
        data = criteo_like(batch_size=32, num_tables=4, num_rows=16,
                           hots=3, seed=17)
        app = DlrmApp(data, DlrmConfig(embedding_dim=8, mlp_hidden=4))
        result = app.run(manager_3d((4, 2, 2)), backend, functional=True)
        np.testing.assert_array_equal(
            result.output, result.meta["golden"].reshape(-1))

    def test_shape_validation(self):
        data = criteo_like(batch_size=32, num_tables=3, num_rows=16, hots=2)
        app = DlrmApp(data, DlrmConfig(embedding_dim=8))
        with pytest.raises(AppError, match="tables"):
            app.run(manager_3d((4, 2, 2)), PidCommBackend())

    def test_batch_shard_validation(self):
        data = criteo_like(batch_size=4, num_tables=4, num_rows=16, hots=2)
        app = DlrmApp(data, DlrmConfig(embedding_dim=8))
        with pytest.raises(AppError, match="batch"):
            app.run(manager_3d((4, 2, 2)), PidCommBackend())


class TestGoldenModels:
    def test_golden_mlp_shapes(self):
        x = np.ones((2, 4), dtype=np.int64)
        w = [np.eye(4, dtype=np.int64)] * 3
        np.testing.assert_array_equal(golden_mlp(x, w), x)

    def test_golden_gnn_identity(self):
        a = np.eye(4, dtype=np.int64)
        h = np.arange(8).reshape(4, 2)
        w = [np.eye(2, dtype=np.int64)]
        np.testing.assert_array_equal(golden_gnn(a, h, w), h)

    def test_golden_dlrm_pools_rows(self):
        data = criteo_like(batch_size=2, num_tables=1, num_rows=4, hots=2,
                           seed=1)
        tables = embedding_tables(1, 4, 2, seed=1)
        w1 = np.eye(2, dtype=np.int64)
        w2 = np.ones((2, 1), dtype=np.int64)
        out = golden_dlrm(data, tables, w1, w2)
        s0 = tables[0, data.indices[0, 0]].sum(axis=0)
        expect0 = max(s0[0], 0) + max(s0[1], 0)
        assert out[0, 0] == expect0

    @pytest.mark.parametrize("seed, batch, tables_n, rows, hots, dim", [
        (0, 8, 3, 16, 2, 4), (3, 32, 1, 4, 5, 2), (11, 4, 8, 64, 1, 8),
        (29, 16, 5, 8, 3, 6)])
    def test_golden_dlrm_matches_loop_reference(self, seed, batch, tables_n,
                                                rows, hots, dim):
        # The one-gather pooling is bit-identical to pooling one
        # (sample, table) pair at a time.
        rng = np.random.default_rng(seed)
        data = criteo_like(batch_size=batch, num_tables=tables_n,
                           num_rows=rows, hots=hots, seed=seed)
        tables = embedding_tables(tables_n, rows, dim, seed=seed)
        w1 = rng.integers(-3, 4, (tables_n * dim, 4))
        w2 = rng.integers(-3, 4, (4, 1))
        got = golden_dlrm(data, tables, w1, w2)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, golden_dlrm_loop(data.indices, tables, w1, w2))


def _dlrm_case():
    """A DLRM app, its cube, and its golden recomputed from the seed."""
    data = criteo_like(batch_size=32, num_tables=4, num_rows=16, hots=3,
                       seed=17)
    cfg = DlrmConfig(embedding_dim=8, mlp_hidden=4, seed=5)

    def fresh():
        rng = np.random.default_rng(cfg.seed)
        tables = embedding_tables(4, 16, 8, seed=cfg.seed)
        w1 = rng.integers(-2, 3, (4 * 8, cfg.mlp_hidden))
        w2 = rng.integers(-2, 3, (cfg.mlp_hidden, 1))
        return golden_dlrm(data, tables, w1, w2)
    return DlrmApp(data, cfg), lambda: manager_3d((4, 2, 2)), fresh


def _gnn_case(strategy):
    cfg = GnnConfig(features=8, layers=3, strategy=strategy, seed=4)
    app = GnnApp(rmat_graph(32, 128, seed=9), cfg)

    def fresh():
        rng = np.random.default_rng(cfg.seed)
        h0 = rng.integers(-2, 3, (32, 8))
        weights = [rng.integers(-2, 3, (8, 8)) for _ in range(3)]
        return golden_gnn(app.graph.dense, h0, weights)
    return app, lambda: manager_2d(4), fresh


def _mlp_case():
    cfg = MlpConfig(features=64, layers=3, batch=4, seed=2)

    def fresh():
        rng = np.random.default_rng(cfg.seed)
        x = rng.integers(-4, 4, (4, 64))
        weights = [rng.integers(-4, 4, (64, 64)) for _ in range(3)]
        return golden_mlp(x, weights)
    return MlpApp(cfg), manager_1d, fresh


#: label -> (module whose ``golden_*`` the app calls, its name, case).
MEMO_CASES = {
    "dlrm": (dlrm, "golden_dlrm", _dlrm_case),
    "gnn_rs_ar": (gnn, "golden_gnn", partial(_gnn_case, "rs_ar")),
    "gnn_ar_ag": (gnn, "golden_gnn", partial(_gnn_case, "ar_ag")),
    "mlp": (mlp, "golden_mlp", _mlp_case),
}


def _count_golden(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is counted; returns the count."""
    real = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestGoldenMemo:
    """The golden model is computed once per app instance: it depends on
    the instance's frozen inputs and seed only, so every later
    functional run reports the same read-only array."""

    @pytest.mark.parametrize("label", MEMO_CASES)
    def test_computed_once_across_fresh_systems(self, monkeypatch, label):
        module, name, case = MEMO_CASES[label]
        app, make_manager, _ = case()
        calls = _count_golden(monkeypatch, module, name)
        first = app.run(make_manager(), PidCommBackend(), functional=True)
        second = app.run(make_manager(), PidCommBackend(), functional=True)
        assert len(calls) == 1
        assert second.meta["golden"] is first.meta["golden"]
        for result in (first, second):
            np.testing.assert_array_equal(
                np.ravel(result.output), np.ravel(result.meta["golden"]))

    @pytest.mark.parametrize("label", MEMO_CASES)
    def test_memo_equals_fresh_recomputation(self, label):
        _, _, case = MEMO_CASES[label]
        app, make_manager, fresh = case()
        for _ in range(2):
            result = app.run(make_manager(), PidCommBackend(),
                             functional=True)
        np.testing.assert_array_equal(result.meta["golden"], fresh())

    @pytest.mark.parametrize("label", MEMO_CASES)
    def test_memo_is_read_only(self, label):
        _, _, case = MEMO_CASES[label]
        app, make_manager, _ = case()
        golden = app.run(make_manager(), PidCommBackend(),
                         functional=True).meta["golden"]
        assert not golden.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            golden[...] = 0

    @pytest.mark.parametrize("label", MEMO_CASES)
    def test_analytic_runs_never_compute_it(self, monkeypatch, label):
        module, name, case = MEMO_CASES[label]
        app, make_manager, _ = case()
        calls = _count_golden(monkeypatch, module, name)
        for _ in range(2):
            result = app.run(make_manager(), PidCommBackend(),
                             functional=False)
            assert "golden" not in result.meta
        assert not calls
        app.run(make_manager(), PidCommBackend(), functional=True)
        assert len(calls) == 1

    def test_mlp_validates_on_two_cubes_against_one_memo(self):
        app, _, _ = _mlp_case()
        results = []
        for pes in (64, 32):
            system = DimmSystem(DimmGeometry(1, 1, 8, 8), mram_bytes=1 << 20)
            results.append(app.run(HypercubeManager(system, shape=(pes,)),
                                   PidCommBackend(), functional=True))
        assert results[1].meta["golden"] is results[0].meta["golden"]
        for result in results:
            np.testing.assert_array_equal(result.output,
                                          result.meta["golden"])


class TestRegistry:
    def test_table3_rows(self):
        rows = app_table()
        assert [r["app"] for r in rows] == [
            "DLRM", "GNN-RS&AR", "GNN-AR&AG", "BFS", "CC", "MLP"]
        dlrm = rows[0]
        assert dlrm["hyper_dim"] == 3
        assert dlrm["alltoall"] and dlrm["reduce_scatter"]
        assert not dlrm["allreduce"]
        bfs = rows[3]
        assert bfs["allreduce"] and bfs["hyper_dim"] == 1


class TestBfsLongDiameter:
    def test_path_graph_needs_one_iteration_per_level(self):
        """A 64-vertex path is the diameter worst case: 63 iterations,
        levels 0..63 -- exercises the long-tail iteration loop."""
        from repro.data.graphs import from_edges
        n = 64
        graph = from_edges(n, np.arange(n - 1), np.arange(1, n))
        app = BfsApp(graph, BfsConfig(source=0))
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        np.testing.assert_array_equal(result.output, np.arange(n))
        assert result.meta["iterations"] == n

    def test_max_iterations_guard(self):
        from repro.data.graphs import from_edges
        n = 64
        graph = from_edges(n, np.arange(n - 1), np.arange(1, n))
        app = BfsApp(graph, BfsConfig(source=0, max_iterations=5))
        result = app.run(manager_1d(), PidCommBackend(), functional=True)
        assert result.meta["iterations"] == 5
        # Only the first levels were settled before the cut-off.
        assert (result.output[:5] == np.arange(5)).all()
        assert (result.output[6:] == -1).all()
