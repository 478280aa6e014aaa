"""Tests for the experiment harnesses and report rendering.

Beyond plumbing, these pin the *shape* claims of the paper's
evaluation: who wins each comparison, the direction of every trend, and
the rough magnitude of the headline ratios (with generous tolerance --
absolute calibration is documented in EXPERIMENTS.md).
"""

from pathlib import Path

import pytest

from repro.analysis import experiments as E
from repro.analysis.report import geomean, render_dict_rows, render_table

ROOT = Path(__file__).resolve().parent.parent


class TestReport:
    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([3]) == pytest.approx(3.0)

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_dict_rows(self):
        text = render_dict_rows([{"x": 1, "y": True}, {"x": 2, "y": False}])
        assert "yes" in text and "-" in text

    def test_render_empty(self):
        assert render_dict_rows([], title="none") == "none"


class TestTables:
    def test_table1_matches_paper(self):
        rows = {r["framework"]: r for r in E.table1()}
        assert rows["PID-Comm"]["multi_instance"]
        assert not rows["SimplePIM"]["multi_instance"]
        assert not rows["SimplePIM"]["reduce_scatter"]
        assert rows["PID-Comm"]["performance"] == "Optimized"

    def test_table3_six_apps(self):
        assert len(E.table3()) == 6


class TestFig14:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r["primitive"]: r for r in E.fig14_primitives()}

    def test_headline_speedups_in_band(self, rows):
        # Paper: AA 5.19x, RS 4.46x, AR 4.23x; allow +-25%.
        assert rows["alltoall"]["speedup"] == pytest.approx(5.19, rel=0.25)
        assert rows["reduce_scatter"]["speedup"] == pytest.approx(
            4.46, rel=0.25)
        assert rows["allreduce"]["speedup"] == pytest.approx(4.23, rel=0.25)
        assert rows["alltoall"]["speedup"] > 4.0

    def test_broadcast_is_a_wash(self, rows):
        assert rows["broadcast"]["speedup"] == pytest.approx(1.0, abs=0.05)

    def test_geomean_near_paper(self, rows):
        assert rows["geomean"]["speedup"] == pytest.approx(2.83, rel=0.25)

    def test_alltoall_throughput_magnitude(self, rows):
        # Paper Figure 20 reports AlltoAll up to 20.6 GB/s.
        assert rows["alltoall"]["pidcomm_gbps"] == pytest.approx(
            20.6, rel=0.25)


class TestFig16:
    def test_ladder_monotone_for_every_primitive(self):
        for row in E.fig16_ablation():
            values = [row["Baseline"], row["+PR"], row["+IM"], row["+CM"]]
            assert values == sorted(values), row

    def test_step_geomeans_in_band(self):
        steps = {s["step"]: s for s in E.fig16_step_geomeans()}
        # Paper: PR 1.48x, IM 2.03x, CM 1.42x (CM over AA/AG only).
        assert steps["Baseline -> +PR"]["geomean_all"] == pytest.approx(
            1.48, rel=0.3)
        assert steps["+IM -> +CM"]["geomean_where_applicable"] == \
            pytest.approx(1.42, rel=0.3)
        assert steps["+PR -> +IM"]["geomean_all"] > 1.5


class TestFig17:
    def test_im_removes_host_mem_cm_removes_dt(self):
        rows = E.fig17_breakdown()
        by_key = {(r["primitive"], r["config"]): r for r in rows}
        for prim in E.INTER_PE_PRIMITIVES:
            assert by_key[(prim, "+IM")]["host_mem"] == 0, prim
        for prim in ("alltoall", "allgather"):
            assert by_key[(prim, "+PR")]["host_mem"] > 0
            assert by_key[(prim, "+IM")]["dt"] > 0
            assert by_key[(prim, "+CM")]["dt"] == 0
        # Arithmetic primitives keep the domain transfer even at +CM.
        assert by_key[("reduce_scatter", "+CM")]["dt"] > 0

    def test_pe_overhead_is_minor(self):
        rows = E.fig17_breakdown()
        for row in rows:
            if row["config"] == "+CM":
                assert row["pe"] < 0.15 * row["total_s"]


class TestFig18:
    def test_speedup_grows_with_size(self):
        rows = E.fig18_datasize()
        for cube in ("1D", "2D"):
            for prim in ("alltoall", "reduce_scatter", "allreduce"):
                series = [r["speedup"] for r in rows
                          if r["cube"] == cube and r["primitive"] == prim]
                assert series == sorted(series), (cube, prim)
        # Paper: 2.89x geomean at 8 MB, AllGather included.
        at = {kb: geomean([r["speedup"] for r in rows if r["size_kb"] == kb])
              for kb in (128, 8192)}
        assert at[8192] > at[128]

    def test_1d_allgather_baseline_competitive(self):
        """The 1-D baseline AllGather rides the fast broadcast; 2-D
        cannot (paper section VIII-E)."""
        rows = E.fig18_datasize(sizes=(8 << 20,))
        ag = {r["cube"]: r for r in rows if r["primitive"] == "allgather"}
        assert ag["1D"]["speedup"] < ag["2D"]["speedup"]


class TestFig19:
    def test_pidcomm_scales_baseline_does_not(self):
        rows = E.fig19_pe_scaling()
        for prim in ("alltoall", "reduce_scatter", "allreduce"):
            pid = [r["pidcomm_gbps"] for r in rows
                   if r["primitive"] == prim]
            base = [r["baseline_gbps"] for r in rows
                    if r["primitive"] == prim]
            # Paper: PID-Comm gains 2.36-4.20x from 64 -> 1024 PEs.
            assert 2.0 < pid[-1] / pid[0] < 5.0, prim
            # The baseline is host-bound: well below PID-Comm's scaling.
            assert base[-1] / base[0] < pid[-1] / pid[0], prim


class TestFig20:
    def test_shape_trends(self):
        rows = E.fig20_shapes()
        ag = [r["allgather"] for r in rows]
        rs = [r["reduce_scatter"] for r in rows]
        aa = [r["alltoall"] for r in rows]
        # AG and RS improve with a longer x axis; AA stays flat-ish.
        assert ag[-1] > 1.1 * ag[0]
        assert rs[-1] > rs[0]
        assert max(aa) / min(aa) < 1.6
        # Paper magnitudes: AG up to 36.1 GB/s, AA ~20.6 GB/s.
        assert ag[-1] == pytest.approx(36.1, rel=0.25)
        assert aa[0] == pytest.approx(20.6, rel=0.25)


class TestFig21:
    @pytest.fixture(scope="class")
    def rows(self):
        return E.fig21_cpu_comparison()

    def test_mlp_peak_speedup(self, rows):
        mlp = {r["pes"]: r for r in rows if r["app"] == "MLP"}
        # Paper: PID-Comm max 7.89x at MLP, growing with PEs.
        assert mlp[1024]["pidcomm_x"] == pytest.approx(7.89, rel=0.15)
        assert mlp[1024]["pidcomm_x"] == max(
            r["pidcomm_x"] for r in mlp.values())

    def test_cc_sweet_spot_at_64(self, rows):
        cc = {r["pes"]: r for r in rows if r["app"] == "CC"}
        # Paper: sweet spot at 64 PEs with 2.58x over CPU.
        assert cc[64]["pidcomm_x"] == pytest.approx(2.58, rel=0.15)
        assert cc[64]["pidcomm_x"] > cc[32]["pidcomm_x"]
        assert cc[64]["pidcomm_x"] > cc[256]["pidcomm_x"]

    def test_pidcomm_beats_pim_baseline_everywhere(self, rows):
        for row in rows:
            assert row["pidcomm_x"] >= row["pim_baseline_x"], row

    def test_dlrm_excluded_below_256(self, rows):
        assert not [r for r in rows
                    if r["app"] == "DLRM" and r["pes"] < 256]


class TestFig22:
    def test_8bit_unlocks_cross_domain(self):
        rows = E.fig22_wordbits()
        # Paper: 8-bit GNN achieves 1.64x geomean over the baseline.
        eight = geomean([r["speedup"] for r in rows if r["width"] == "int8"])
        assert eight == pytest.approx(1.64, rel=0.3)
        # Narrower data -> less absolute time, for both strategies.
        for strategy in ("rs_ar", "ar_ag"):
            by = {r["width"]: r["pidcomm_s"] for r in rows
                  if r["strategy"] == strategy}
            assert by["int8"] < by["int32"] < by["int64"], strategy


class TestFig23:
    def test_topology_ordering(self):
        rows = {r["topology"]: r for r in E.fig23a_topologies()}
        assert rows["ring"]["slowdown"] > 1.0
        assert rows["tree"]["slowdown"] > rows["ring"]["slowdown"]
        # Paper: ring at most 2.05x slower.
        assert rows["ring"]["slowdown"] == pytest.approx(2.05, rel=0.3)

    def test_multihost_asymmetry(self):
        rows = E.fig23b_multihost()
        four = [r for r in rows if r["hosts"] == 4][0]
        one = [r for r in rows if r["hosts"] == 1][0]
        assert one["allreduce_mpi_s"] == 0.0
        assert four["alltoall_mpi_s"] > 10 * four["allreduce_mpi_s"]
        assert four["alltoall_mpi_frac"] > 0.3
        # Section IX-A: RS (sent after reduction) and AG (sent before
        # duplication) stay cheap like AllReduce, unlike AlltoAll.
        assert four["reduce_scatter_mpi_s"] < four["allreduce_mpi_s"] * 2
        assert four["allgather_mpi_s"] < four["alltoall_mpi_s"] / 10


class TestExtraAblations:
    def test_fused_allreduce_wins(self):
        # The composed form pays the extra round trip of the reduced
        # chunks plus an extra launch; the margin is small but real.
        rows = E.ablation_fused_allreduce()
        assert rows[1]["overhead_x"] > 1.005

    def test_eg_alignment_matters(self):
        rows = E.ablation_eg_alignment()
        assert rows[1]["lane_utilization"] < rows[0]["lane_utilization"]
        assert rows[1]["slowdown_x"] > 4.0


class TestFig04And13:
    def test_motivation_comm_dominates_baseline(self):
        for row in E.fig04_motivation():
            assert row["comm_frac"] > 0.3, row["app"]

    def test_breakdown_rows_complete(self):
        rows = E.fig13_app_breakdown()
        assert len(rows) == 12  # 6 apps x 2 backends
        for row in rows:
            parts = sum(row[k] for k in row
                        if k not in ("app", "backend", "total_s"))
            assert parts == pytest.approx(row["total_s"], rel=1e-6)

    def test_fig15_range(self):
        rows = E.fig15_app_speedup()
        speedups = [r["speedup"] for r in rows if r["app"] != "geomean"]
        assert min(speedups) > 1.0
        assert all(s < 6.0 for s in speedups)
        by_app = {r["app"]: r["speedup"] for r in rows}
        # Paper: DLRM benefits least, CC most.
        assert by_app["DLRM"] == min(speedups)
        assert by_app["CC"] == max(speedups)


class TestPaperClaims:
    """The machine-checkable claim registry behind EXPERIMENTS.md."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        from repro.analysis.paper_claims import evaluate_claims
        return evaluate_claims()

    def test_all_strict_claims_hold(self, verdicts):
        failures = [r for r in verdicts
                    if r["strict"] and not r["within_tol"]]
        assert not failures, failures

    def test_loose_claims_documented(self, verdicts):
        # The known deviations must stay loose (non-strict), so a future
        # calibration improvement is flagged by flipping them strict.
        loose = {r["id"] for r in verdicts if not r["strict"]}
        assert loose == {"im-step", "app-geomean", "cpu-base-geomean",
                         "cpu-pid-geomean", "tree-slowdown"}

    def test_coverage_of_eval_figures(self, verdicts):
        figures = {r["figure"] for r in verdicts}
        assert {"Fig 14", "Fig 16", "Fig 18", "Fig 15", "Fig 20",
                "Fig 21", "Fig 22", "Fig 23a"} <= figures

    def test_experiments_md_headline_table_is_current(self, verdicts):
        from repro.analysis.paper_claims import render_claims
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Headline comparison\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        committed = "\n".join(line for line in section.splitlines()
                              if line.startswith("|"))
        assert committed == render_claims(verdicts), (
            "EXPERIMENTS.md is stale: paste `python -m repro --claims`")


class TestDeterminism:
    """Experiments are pure functions of the calibrated parameters."""

    def test_repeated_runs_identical(self):
        import json
        a = json.dumps(E.fig14_primitives(), sort_keys=True)
        b = json.dumps(E.fig14_primitives(), sort_keys=True)
        assert a == b

    def test_app_experiments_deterministic(self):
        import json
        a = json.dumps(E.fig15_app_speedup(), sort_keys=True)
        b = json.dumps(E.fig15_app_speedup(), sort_keys=True)
        assert a == b


class TestTable2:
    def test_matches_paper_matrix(self):
        rows = {r["primitive"]: r for r in E.table2()}
        # PR: AA, RS, AR, AG, Re (paper Table II row 1).
        pr = {p for p, r in rows.items() if r["pe_assisted_reordering"]}
        assert pr == {"alltoall", "reduce_scatter", "allreduce",
                      "allgather", "reduce"}
        # IM: everything except Broadcast (row 2).
        im = {p for p, r in rows.items() if r["in_register_modulation"]}
        assert im == set(rows) - {"broadcast"}
        # CM: AA and AG only (row 3; 64-bit elements).
        cm = {p for p, r in rows.items() if r["cross_domain_modulation"]}
        assert cm == {"alltoall", "allgather"}
