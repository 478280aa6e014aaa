"""One harness per evaluation table/figure (see DESIGN.md section 5).

Every function reruns the corresponding experiment on the analytic
simulator at paper scale and returns structured rows; the benchmark
suite prints them in the paper's format and EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Sequence

from ..apps import BaselineCommBackend, PidCommBackend
from ..baselines import (
    baseline_plan,
    capability_table,
    ring_allreduce_plan,
    tree_allreduce_plan,
)
from ..apps.registry import app_table
from ..core.collectives import (
    ABLATION_LADDER,
    ALL_PRIMITIVES,
    FULL,
    OptConfig,
    build_plan,
    plan_allgather,
    plan_allreduce,
    plan_reduce_scatter,
)
from ..core.hypercube import HypercubeManager
from ..dtypes import INT64, SUM
from ..errors import PidCommError
from ..hw.timing import throughput_gbps
from ..multihost import (
    MultiHostSystem,
    multihost_allgather,
    multihost_allreduce,
    multihost_alltoall,
    multihost_reduce_scatter,
)
from .report import geomean
from .workloads import (
    MB,
    PAPER_APPS,
    PRIMITIVE_PAYLOAD,
    app_manager,
    manager_2d,
    testbed,
)

INTER_PE_PRIMITIVES = ("alltoall", "reduce_scatter", "allreduce", "allgather")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _per_pe_size(primitive: str, manager: HypercubeManager, dims: str,
                 payload: int) -> int:
    """The planners' size argument under the Figure 14/17 convention.

    ``payload`` is the *large* side per PE: AllGather's input chunk is
    ``payload / group_size`` so every PE *receives* ``payload`` bytes.
    """
    from ..core.groups import group_size
    if primitive == "allgather":
        return payload // group_size(manager, dims)
    return payload


def _pid_plan(primitive: str, manager: HypercubeManager, dims: str,
              payload: int, config: OptConfig = FULL):
    """PID-Comm plan with Figure 14/17 payload conventions."""
    return build_plan(primitive, manager, dims,
                      _per_pe_size(primitive, manager, dims, payload),
                      0, 0, INT64, SUM, config)


def _base_plan(primitive: str, manager: HypercubeManager, dims: str,
               payload: int):
    return baseline_plan(primitive, manager, dims,
                         _per_pe_size(primitive, manager, dims, payload),
                         0, 0, INT64, SUM)


def _tput(payload_total: float, seconds: float) -> float:
    return throughput_gbps(payload_total, seconds)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1():
    """Table I: framework capability matrix."""
    return capability_table()


def table2():
    """Table II: which technique applies to which primitive.

    Introspected from the planners: build every primitive's plan at
    each ablation rung and observe which steps/costs change -- the
    matrix is read off the implementation, not hard-coded.
    """
    manager = manager_2d()
    system = manager.system
    payload = 256 << 10
    rows = []
    for prim in ALL_PRIMITIVES:
        ladder = {}
        for config in ABLATION_LADDER:
            ladder[config.label] = _pid_plan(
                prim, manager, "10", payload, config).estimate(system)
        def differs(a, b):
            return abs(ladder[a].total - ladder[b].total) > 1e-12
        rows.append({
            "primitive": prim,
            "pe_assisted_reordering": ladder["+PR"].get("pe") > 0,
            "in_register_modulation": differs("+PR", "+IM"),
            "cross_domain_modulation": differs("+IM", "+CM"),
        })
    return rows


def table3():
    """Table III: benchmark application characteristics."""
    return app_table()


# ----------------------------------------------------------------------
# Figure 4 -- motivation: baseline application time breakdown
# ----------------------------------------------------------------------
def fig04_motivation():
    """Comm share of baseline apps + where the comm time goes."""
    rows = []
    system = testbed()
    for name, factory in PAPER_APPS.items():
        app = factory()
        manager = app_manager(name, system, 1024)
        result = app.run(manager, BaselineCommBackend(), functional=False)
        comm = result.comm_seconds
        ledger = result.ledger
        comm_shares = {}
        for cat in ("host_mod", "host_mem", "dt"):
            comm_shares[cat] = (ledger.get(cat) / comm) if comm else 0.0
        rows.append({
            "app": name,
            "total_s": result.seconds,
            "comm_frac": comm / result.seconds,
            "modulation_frac_of_comm": comm_shares["host_mod"],
            "host_mem_frac_of_comm": comm_shares["host_mem"],
            "dt_frac_of_comm": comm_shares["dt"],
        })
    return rows


# ----------------------------------------------------------------------
# Figures 13 & 15 -- applications: breakdown and speedup
# ----------------------------------------------------------------------
def fig13_app_breakdown():
    """Per-primitive time inside each app, baseline vs PID-Comm."""
    rows = []
    system = testbed()
    for name, factory in PAPER_APPS.items():
        for backend in (BaselineCommBackend(), PidCommBackend()):
            app = factory()
            manager = app_manager(name, system, 1024)
            result = app.run(manager, backend, functional=False)
            row = {"app": name, "backend": backend.name,
                   "total_s": result.seconds}
            for prim in ("kernel",) + ALL_PRIMITIVES:
                row[prim] = result.per_primitive.get(prim, 0.0)
            rows.append(row)
    return rows


def fig15_app_speedup(include_variants: bool = False):
    """End-to-end app speedup of PID-Comm over the baseline.

    ``include_variants`` adds the paper's secondary configurations
    (MLP with 32k x 32k weights, DLRM with embedding dim 32).
    """
    from .workloads import paper_dlrm, paper_mlp
    rows = []
    system = testbed()
    apps = dict(PAPER_APPS)
    if include_variants:
        apps["MLP-32k"] = lambda: paper_mlp(features=32 * 1024)
        apps["DLRM-e32"] = lambda: paper_dlrm(embedding_dim=32)
    for name, factory in apps.items():
        base_name = name.split("-")[0] if name in ("MLP-32k", "DLRM-e32") \
            else name
        manager = app_manager(base_name, system, 1024)
        base = factory().run(manager, BaselineCommBackend(),
                             functional=False)
        pid = factory().run(manager, PidCommBackend(), functional=False)
        rows.append({"app": name, "baseline_s": base.seconds,
                     "pidcomm_s": pid.seconds,
                     "speedup": base.seconds / pid.seconds})
    rows.append({"app": "geomean", "baseline_s": 0.0, "pidcomm_s": 0.0,
                 "speedup": geomean([r["speedup"] for r in rows])})
    return rows


# ----------------------------------------------------------------------
# Figure 14 -- primitive throughput at (32, 32)
# ----------------------------------------------------------------------
def fig14_primitives(payload: int = PRIMITIVE_PAYLOAD):
    """Throughput of all 8 primitives, baseline vs PID-Comm."""
    manager = manager_2d()
    total = payload * manager.num_nodes
    rows = []
    for prim in ALL_PRIMITIVES:
        base_s = _base_plan(prim, manager, "10", payload).estimate(
            manager.system).total
        pid_s = _pid_plan(prim, manager, "10", payload).estimate(
            manager.system).total
        rows.append({
            "primitive": prim,
            "baseline_gbps": _tput(total, base_s),
            "pidcomm_gbps": _tput(total, pid_s),
            "speedup": base_s / pid_s,
        })
    rows.append({"primitive": "geomean", "baseline_gbps": 0.0,
                 "pidcomm_gbps": 0.0,
                 "speedup": geomean([r["speedup"] for r in rows])})
    return rows


# ----------------------------------------------------------------------
# Figures 16 & 17 -- ablation and per-technique breakdown
# ----------------------------------------------------------------------
def fig16_ablation(payload: int = PRIMITIVE_PAYLOAD):
    """Throughput ladder Baseline -> +PR -> +IM -> +CM."""
    manager = manager_2d()
    total = payload * manager.num_nodes
    rows = []
    for prim in INTER_PE_PRIMITIVES:
        row = {"primitive": prim}
        for config in ABLATION_LADDER:
            seconds = _pid_plan(prim, manager, "10", payload,
                                config).estimate(manager.system).total
            row[config.label] = _tput(total, seconds)
        rows.append(row)
    return rows


def fig16_step_geomeans(rows: Sequence[dict] | None = None):
    """Geomean improvement of each technique step (the paper's numbers)."""
    rows = rows or fig16_ablation()
    steps = []
    ladder = [c.label for c in ABLATION_LADDER]
    for prev, nxt in zip(ladder, ladder[1:]):
        ratios = [r[nxt] / r[prev] for r in rows]
        applicable = [r[nxt] / r[prev] for r in rows
                      if r[nxt] / r[prev] > 1.001]
        steps.append({
            "step": f"{prev} -> {nxt}",
            "geomean_all": geomean(ratios),
            "geomean_where_applicable": (geomean(applicable)
                                         if applicable else 1.0),
        })
    return steps


def fig17_breakdown(payload: int = PRIMITIVE_PAYLOAD):
    """Category breakdown per primitive per ablation level."""
    manager = manager_2d()
    rows = []
    for prim in INTER_PE_PRIMITIVES:
        for config in ABLATION_LADDER:
            ledger = _pid_plan(prim, manager, "10", payload,
                               config).estimate(manager.system)
            row = {"primitive": prim, "config": config.label,
                   "total_s": ledger.total}
            for cat in ("bus", "dt", "host_mem", "host_mod", "host_reduce",
                        "pe", "launch"):
                row[cat] = ledger.get(cat)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 18 -- data-size sensitivity
# ----------------------------------------------------------------------
def fig18_datasize(sizes: Sequence[int] = (128 << 10, 512 << 10,
                                           2 * MB, 8 * MB)):
    """Primitive throughput over payload sizes for 1-D and 2-D cubes."""
    rows = []
    system = testbed()
    configs = {"1D": (HypercubeManager(system, shape=(1024,)), "1"),
               "2D": (HypercubeManager(system, shape=(32, 32)), "10")}
    for label, (manager, dims) in configs.items():
        total_pes = manager.num_nodes
        for prim in INTER_PE_PRIMITIVES:
            for size in sizes:
                base_s = _base_plan(prim, manager, dims, size).estimate(
                    system).total
                pid_s = _pid_plan(prim, manager, dims, size).estimate(
                    system).total
                rows.append({
                    "cube": label, "primitive": prim, "size_kb": size >> 10,
                    "baseline_gbps": _tput(size * total_pes, base_s),
                    "pidcomm_gbps": _tput(size * total_pes, pid_s),
                    "speedup": base_s / pid_s,
                })
    return rows


# ----------------------------------------------------------------------
# Figure 19 -- PE-count scaling
# ----------------------------------------------------------------------
def fig19_pe_scaling(pe_counts: Sequence[int] = (64, 128, 256, 512, 1024),
                     payload: int = 2 * MB):
    """Primitive throughput as the PE count grows (1-D cubes)."""
    rows = []
    system = testbed()
    for pes in pe_counts:
        manager = HypercubeManager(system, shape=(pes,))
        for prim in INTER_PE_PRIMITIVES:
            base_s = _base_plan(prim, manager, "1", payload).estimate(
                system).total
            pid_s = _pid_plan(prim, manager, "1", payload).estimate(
                system).total
            rows.append({
                "pes": pes, "primitive": prim,
                "baseline_gbps": _tput(payload * pes, base_s),
                "pidcomm_gbps": _tput(payload * pes, pid_s),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 20 -- hypercube shape sensitivity
# ----------------------------------------------------------------------
def fig20_shapes(payload: int = PRIMITIVE_PAYLOAD):
    """3-D shapes of 1024 PEs; communication along the x axis."""
    shapes = [(4, 16, 16), (8, 16, 8), (16, 16, 4), (32, 16, 2),
              (64, 16, 1)]
    rows = []
    system = testbed()
    for shape in shapes:
        manager = HypercubeManager(system, shape=shape)
        row = {"shape": "x".join(map(str, shape))}
        for prim in INTER_PE_PRIMITIVES:
            seconds = _pid_plan(prim, manager, "100", payload).estimate(
                system).total
            row[prim] = _tput(payload * manager.num_nodes, seconds)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 21 -- CPU-only comparison
# ----------------------------------------------------------------------
def fig21_cpu_comparison(pe_counts: Sequence[int] = (64, 256, 1024)):
    """App speedup over the CPU-only system vs PE count."""
    rows = []
    system = testbed()
    for name, factory in PAPER_APPS.items():
        app = factory()
        cpu_s = app.cpu_only_seconds(system.params)
        counts = list(pe_counts)
        if name == "DLRM":
            counts = [c for c in counts if c >= 256]  # paper: OOM below
        if name == "CC":
            counts = [32] + counts  # paper adds 32 to show the sweet spot
        for pes in counts:
            try:
                manager = app_manager(name, system, pes)
            except PidCommError:
                continue
            base = factory().run(manager, BaselineCommBackend(),
                                 functional=False)
            pid = factory().run(manager, PidCommBackend(), functional=False)
            rows.append({
                "app": name, "pes": pes, "cpu_s": cpu_s,
                "pim_baseline_x": cpu_s / base.seconds,
                "pidcomm_x": cpu_s / pid.seconds,
            })
    return rows


# ----------------------------------------------------------------------
# Figure 22 -- word-width sensitivity (GNN)
# ----------------------------------------------------------------------
def fig22_wordbits(widths: Sequence[str] = ("int8", "int32", "int64")):
    """GNN baseline-vs-PID breakdown across element widths."""
    from .workloads import paper_gnn
    rows = []
    system = testbed()
    for width in widths:
        for strategy in ("rs_ar", "ar_ag"):
            app = paper_gnn(strategy, dtype_name=width)
            manager = app_manager("GNN", system, 1024)
            base = app.run(manager, BaselineCommBackend(), functional=False)
            pid = app.run(manager, PidCommBackend(), functional=False)
            rows.append({
                "width": width, "strategy": strategy,
                "baseline_s": base.seconds, "pidcomm_s": pid.seconds,
                "speedup": base.seconds / pid.seconds,
                "pid_comm_s": pid.comm_seconds,
                "pid_kernel_s": pid.per_primitive.get("kernel", 0.0),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 23a -- topology comparison
# ----------------------------------------------------------------------
def fig23a_topologies(payload: int = 1 * MB):
    """Hypercube vs ring vs tree AllReduce (32x32, all optimizations).

    At 1 MB per PE the ring's 2(N-1) synchronous rounds cost ~2x, as in
    the paper; at very large payloads the per-round overheads amortize.
    """
    manager = manager_2d()
    system = manager.system
    pid = plan_allreduce(manager, "10", payload, 0, 0, INT64, SUM,
                         FULL).estimate(system).total
    ring = ring_allreduce_plan(manager, "10", payload, 0, 0, INT64,
                               SUM).estimate(system).total
    tree = tree_allreduce_plan(manager, "10", payload, 0, 0, INT64,
                               SUM).estimate(system).total
    return [
        {"topology": "hypercube (PID-Comm)", "seconds": pid, "slowdown": 1.0},
        {"topology": "ring", "seconds": ring, "slowdown": ring / pid},
        {"topology": "tree", "seconds": tree, "slowdown": tree / pid},
    ]


# ----------------------------------------------------------------------
# Figure 23b -- multi-host scaling
# ----------------------------------------------------------------------
def fig23b_multihost(host_counts: Sequence[int] = (1, 2, 3, 4),
                     payload: int = 2 * MB):
    """AllReduce/AlltoAll with 1-4 hosts, 256 PEs + 2 MB per PE each."""
    rows = []
    for hosts in host_counts:
        mh = MultiHostSystem(hosts)
        ar = multihost_allreduce(mh, payload, 0, 0, functional=False)
        aligned = _aligned_alltoall_payload(payload, mh.total_pes)
        aa = multihost_alltoall(MultiHostSystem(hosts), aligned, 0, 0,
                                functional=False)
        # The discussion also mentions ReduceScatter (data sent after
        # reduction) and AllGather (sent before duplication).
        rs = multihost_reduce_scatter(MultiHostSystem(hosts), aligned, 0, 0,
                                      functional=False)
        ag = multihost_allgather(
            MultiHostSystem(hosts), max(8, payload // mh.total_pes // 8 * 8),
            0, 0, functional=False)
        rows.append({
            "hosts": hosts,
            "allreduce_local_s": ar.ledger.total,
            "allreduce_mpi_s": ar.fabric_seconds,
            "reduce_scatter_mpi_s": rs.fabric_seconds,
            "allgather_mpi_s": ag.fabric_seconds,
            "alltoall_local_s": aa.ledger.total,
            "alltoall_mpi_s": aa.fabric_seconds,
            "alltoall_mpi_frac": (aa.fabric_seconds / aa.seconds
                                  if aa.seconds else 0.0),
        })
    return rows


def _aligned_alltoall_payload(payload: int, total_pes: int) -> int:
    chunk = max(8, (payload // total_pes) // 8 * 8)
    return chunk * total_pes


# ----------------------------------------------------------------------
# Extra ablations called out in DESIGN.md
# ----------------------------------------------------------------------
def ablation_fused_allreduce(payload: int = PRIMITIVE_PAYLOAD):
    """Fused AllReduce vs composed ReduceScatter + AllGather."""
    manager = manager_2d()
    system = manager.system
    fused = plan_allreduce(manager, "10", payload, 0, 0, INT64, SUM,
                           FULL).estimate(system).total
    from ..core.groups import group_size
    g = group_size(manager, "10")
    rs = plan_reduce_scatter(manager, "10", payload, 0, 0, INT64, SUM,
                             FULL).estimate(system).total
    ag = plan_allgather(manager, "10", payload // g, 0, 0, INT64,
                        FULL).estimate(system).total
    return [
        {"variant": "fused (PID-Comm)", "seconds": fused},
        {"variant": "RS + AG composed", "seconds": rs + ag,
         "overhead_x": (rs + ag) / fused},
    ]


def ablation_eg_alignment(payload: int = 1 * MB):
    """Cost of ignoring entangled groups when picking PEs.

    Compares an AlltoAll over one full entangled group against one over
    the same number of PEs spread one-per-group (what a naive symmetric
    mapping can produce) -- the section III-B motivation.
    """
    system = testbed()
    geom = system.geometry
    aligned = list(range(geom.chips_per_rank))
    spread = [i * geom.chips_per_rank for i in range(geom.chips_per_rank)]
    rows = []
    for label, pes in (("EG-aligned", aligned), ("spread (naive)", spread)):
        util = geom.lane_utilization(pes)
        seconds = system.params.bus_time(
            2 * payload * len(pes), geom.channels_used(pes), util)
        rows.append({"placement": label, "lane_utilization": util,
                     "bus_seconds": seconds})
    rows[1]["slowdown_x"] = rows[1]["bus_seconds"] / rows[0]["bus_seconds"]
    return rows
