"""Extended application coverage: variants, scaling, property sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HypercubeManager
from repro.analysis.workloads import (
    PAPER_APPS,
    app_manager,
    paper_dlrm,
    paper_gnn,
    paper_mlp,
    testbed as make_testbed,
)
from repro.apps import (
    BaselineCommBackend,
    DlrmApp,
    DlrmConfig,
    GnnApp,
    GnnConfig,
    MlpApp,
    MlpConfig,
    PidCommBackend,
)
from repro.data import criteo_like, rmat_graph
from repro.data.graphs import GraphStats
from repro.errors import AppError
from repro.hw.system import DimmSystem


class TestPaperScaleWorkloads:
    def test_all_paper_apps_run_analytically(self):
        system = make_testbed()
        for name, factory in PAPER_APPS.items():
            manager = app_manager(name, system, 1024)
            result = factory().run(manager, PidCommBackend(),
                                   functional=False)
            assert result.seconds > 0, name
            assert result.output is None
        assert system.touched_pes == 0

    def test_mlp_32k_scales_from_16k(self):
        system = make_testbed()
        manager = app_manager("MLP", system, 1024)
        t16 = paper_mlp(16 * 1024).run(manager, PidCommBackend(),
                                       functional=False).seconds
        t32 = paper_mlp(32 * 1024).run(manager, PidCommBackend(),
                                       functional=False).seconds
        # 4x the weights/flops, 2x the activations: between 2x and 4x.
        assert 2.0 < t32 / t16 < 4.5

    def test_dlrm_dim32_costs_more_than_dim16(self):
        system = make_testbed()
        manager = app_manager("DLRM", system, 1024)
        t16 = paper_dlrm(16).run(manager, PidCommBackend(),
                                 functional=False).seconds
        t32 = paper_dlrm(32).run(manager, PidCommBackend(),
                                 functional=False).seconds
        assert t32 > t16

    def test_gnn_strategies_cost_differently(self):
        system = make_testbed()
        manager = app_manager("GNN", system, 1024)
        rs = paper_gnn("rs_ar").run(manager, PidCommBackend(),
                                    functional=False)
        ag = paper_gnn("ar_ag").run(manager, PidCommBackend(),
                                    functional=False)
        assert rs.per_primitive.keys() != ag.per_primitive.keys()

    def test_graph_stats_blocks_functional_use(self):
        stats = GraphStats(1 << 20, 1 << 22)
        with pytest.raises(AppError, match="no structure"):
            stats.neighbors(0)
        with pytest.raises(AppError, match="no structure"):
            _ = stats.dense

    def test_graph_stats_validation(self):
        with pytest.raises(AppError):
            GraphStats(0, 10)


class TestAppResultContracts:
    def test_comm_seconds_plus_kernel_is_total(self):
        graph = rmat_graph(64, 256, seed=1)
        from repro.apps import BfsApp, BfsConfig
        system = DimmSystem.small(mram_bytes=1 << 20)
        manager = HypercubeManager(system, shape=(32,))
        result = BfsApp(graph, BfsConfig()).run(manager, PidCommBackend())
        assert result.comm_seconds + result.per_primitive["kernel"] == \
            pytest.approx(result.seconds)

    def test_backend_name_recorded(self):
        app = MlpApp(MlpConfig(features=64, layers=1, batch=2))
        system = DimmSystem.small(mram_bytes=1 << 18)
        manager = HypercubeManager(system, shape=(32,))
        result = app.run(manager, BaselineCommBackend(), functional=False)
        assert result.backend == "baseline"

    def test_meta_echoes_config(self):
        app = MlpApp(MlpConfig(features=64, layers=2, batch=4))
        system = DimmSystem.small(mram_bytes=1 << 18)
        manager = HypercubeManager(system, shape=(32,))
        result = app.run(manager, PidCommBackend(), functional=False)
        assert result.meta["features"] == 64
        assert result.meta["layers"] == 2


class TestGnnSweep:
    @given(st.integers(1, 4), st.sampled_from(["rs_ar", "ar_ag"]),
           st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_any_layer_count_matches_golden(self, layers, strategy, seed):
        graph = rmat_graph(16, 64, seed=seed)
        app = GnnApp(graph, GnnConfig(features=4, layers=layers,
                                      strategy=strategy, seed=seed))
        system = DimmSystem.small(mram_bytes=1 << 18)
        manager = HypercubeManager(system, shape=(2, 2))
        result = app.run(manager, PidCommBackend(), functional=True)
        np.testing.assert_array_equal(result.output,
                                      result.meta["golden"])

    def test_narrow_widths_cost_less(self):
        system = make_testbed()
        manager = app_manager("GNN", system, 1024)
        times = {}
        for width in ("int8", "int32", "int64"):
            app = paper_gnn("rs_ar", dtype_name=width)
            times[width] = app.run(manager, PidCommBackend(),
                                   functional=False).seconds
        assert times["int8"] < times["int32"] < times["int64"]

    def test_functional_rejects_narrow_widths(self):
        graph = rmat_graph(16, 64, seed=0)
        app = GnnApp(graph, GnnConfig(features=4, layers=1,
                                      dtype_name="int8"))
        system = DimmSystem.small(mram_bytes=1 << 18)
        manager = HypercubeManager(system, shape=(2, 2))
        with pytest.raises(AppError, match="int64"):
            app.run(manager, PidCommBackend(), functional=True)


class TestDlrmSweep:
    @given(st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_random_batches_match_golden(self, seed):
        data = criteo_like(batch_size=32, num_tables=4, num_rows=16,
                           hots=2, seed=seed)
        app = DlrmApp(data, DlrmConfig(embedding_dim=8, mlp_hidden=4,
                                       seed=seed))
        system = DimmSystem.small(mram_bytes=1 << 20)
        manager = HypercubeManager(system, shape=(4, 2, 2))
        result = app.run(manager, PidCommBackend(), functional=True)
        np.testing.assert_array_equal(
            result.output, result.meta["golden"].reshape(-1))

    def test_alternative_cube_shapes(self):
        # Columns over 2 PEs instead of 4, more table shards.
        data = criteo_like(batch_size=32, num_tables=8, num_rows=16,
                           hots=2, seed=3)
        app = DlrmApp(data, DlrmConfig(embedding_dim=8, mlp_hidden=4))
        system = DimmSystem.small(mram_bytes=1 << 20)
        manager = HypercubeManager(system, shape=(2, 2, 8))
        result = app.run(manager, PidCommBackend(), functional=True)
        np.testing.assert_array_equal(
            result.output, result.meta["golden"].reshape(-1))


class TestCpuFormulas:
    def test_all_apps_report_positive_cpu_time(self):
        params = make_testbed().params
        for name, factory in PAPER_APPS.items():
            assert factory().cpu_only_seconds(params) > 0, name

    def test_mlp_cpu_scales_with_model_size(self):
        params = make_testbed().params
        assert paper_mlp(32 * 1024).cpu_only_seconds(params) > \
            paper_mlp(16 * 1024).cpu_only_seconds(params)


class TestModeConsistency:
    """Functional and analytic runs of the same configuration must
    charge identical costs (the app-level form of the plan/estimate
    consistency guarantee)."""

    def test_mlp_ledgers_match_across_modes(self):
        config = MlpConfig(features=64, layers=2, batch=4)
        func_sys = DimmSystem.small(mram_bytes=1 << 18)
        func = MlpApp(config).run(
            HypercubeManager(func_sys, shape=(32,)), PidCommBackend(),
            functional=True)
        ana_sys = DimmSystem.small(mram_bytes=1 << 18)
        ana = MlpApp(config).run(
            HypercubeManager(ana_sys, shape=(32,)), PidCommBackend(),
            functional=False)
        assert func.seconds == pytest.approx(ana.seconds)
        assert func.per_primitive == pytest.approx(ana.per_primitive)
        assert ana_sys.touched_pes == 0 and func_sys.touched_pes == 32

    def test_gnn_ledgers_match_across_modes(self):
        graph = rmat_graph(32, 128, seed=2)
        config = GnnConfig(features=8, layers=2)
        func = GnnApp(graph, config).run(
            HypercubeManager(DimmSystem.small(mram_bytes=1 << 18),
                             shape=(4, 4)),
            PidCommBackend(), functional=True)
        ana = GnnApp(graph, config).run(
            HypercubeManager(DimmSystem.small(mram_bytes=1 << 18),
                             shape=(4, 4)),
            PidCommBackend(), functional=False)
        assert func.seconds == pytest.approx(ana.seconds)


class TestMultiHostBackends:
    def test_pidcomm_beats_baseline_locally(self):
        """Section IX-A: multi-host PID-Comm keeps its advantage over
        the baseline (the local phases dominate)."""
        from repro import BASELINE, SessionConfig
        from repro.multihost import MultiHostSystem, multihost_allreduce
        size = 1 << 20
        pid = multihost_allreduce(
            MultiHostSystem(2), size, 0, 0, functional=False)
        base = multihost_allreduce(
            MultiHostSystem(2, session_config=SessionConfig(config=BASELINE)),
            size, 0, 0, functional=False)
        assert base.seconds > 1.5 * pid.seconds
        # The fabric phase is identical either way.
        assert base.fabric_seconds == pytest.approx(pid.fabric_seconds)
