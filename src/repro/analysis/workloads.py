"""Paper-scale workload definitions shared by the experiment harnesses.

These mirror the evaluation setup of section VIII: the 1024-PE testbed,
8 MB-per-PE primitive payloads, and the five applications at the
dataset scales of Table III (with the synthetic stand-ins documented in
DESIGN.md).
"""

from __future__ import annotations

from typing import Callable

from ..apps import (
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
)
from ..core.hypercube import HypercubeManager
from ..data.graphs import GraphStats
from ..data.synthetic import criteo_like
from ..errors import AppError
from ..hw.system import DimmSystem

MB = 1 << 20

#: Per-PE payload of the primitive studies (Figures 14, 16, 17).
PRIMITIVE_PAYLOAD = 8 * MB

#: The (32, 32) 2-D configuration of Figures 14-17.
GRID_2D = (32, 32)


def testbed() -> DimmSystem:
    """The paper's 1024-PE evaluation system (analytic use)."""
    return DimmSystem.paper_testbed()


def manager_2d(system: DimmSystem | None = None) -> HypercubeManager:
    """The (32, 32) hypercube of Figures 14-17."""
    return HypercubeManager(system or testbed(), shape=GRID_2D)


# ----------------------------------------------------------------------
# Paper-scale applications (analytic runs)
# ----------------------------------------------------------------------
def paper_mlp(features: int = 16 * 1024) -> MlpApp:
    """MLP with 16k x 16k (or 32k x 32k) weights, 5 layers."""
    return MlpApp(MlpConfig(features=features, layers=5, batch=256))


def paper_bfs() -> BfsApp:
    """BFS at LiveJournal scale (4.8M vertices / 69M edges)."""
    return BfsApp(GraphStats(4 << 20, 64 << 20), BfsConfig())


def paper_cc() -> CcApp:
    """CC at LiveJournal scale."""
    return CcApp(GraphStats(4 << 20, 64 << 20), CcConfig())


def paper_gnn(strategy: str = "rs_ar", dtype_name: str = "int64",
              features: int = 256) -> GnnApp:
    """GNN at Reddit scale (256k vertices, ~100M edges, 3 layers)."""
    return GnnApp(GraphStats(256 << 10, 100 << 20),
                  GnnConfig(features=features, layers=3, strategy=strategy,
                            dtype_name=dtype_name))


def paper_dlrm(embedding_dim: int = 16) -> DlrmApp:
    """DLRM on the synthetic Criteo-like log (32 tables, 1M rows)."""
    data = criteo_like(batch_size=4096, num_tables=32, num_rows=1 << 20,
                       hots=4)
    return DlrmApp(data, DlrmConfig(embedding_dim=embedding_dim))


def app_manager(app_name: str, system: DimmSystem,
                num_pes: int) -> HypercubeManager:
    """The hypercube each app uses at a given PE count (Figure 21)."""
    if app_name in ("MLP", "BFS", "CC"):
        return HypercubeManager(system, shape=(num_pes,))
    if app_name.startswith("GNN"):
        side = int(round(num_pes ** 0.5))
        if side * side != num_pes:
            raise AppError(
                f"GNN needs a square PE count, got {num_pes}")
        return HypercubeManager(system, shape=(side, side))
    if app_name == "DLRM":
        shapes = {64: (4, 4, 4), 128: (4, 4, 8), 256: (4, 8, 8),
                  512: (4, 8, 16), 1024: (4, 8, 32)}
        if num_pes not in shapes:
            raise AppError(f"no DLRM cube defined for {num_pes} PEs")
        return HypercubeManager(system, shape=shapes[num_pes])
    raise AppError(f"unknown app {app_name!r}")


#: name -> factory for the five paper applications (Table III order).
PAPER_APPS: dict[str, Callable] = {
    "DLRM": paper_dlrm,
    "GNN-RS&AR": lambda: paper_gnn("rs_ar"),
    "GNN-AR&AG": lambda: paper_gnn("ar_ag"),
    "BFS": paper_bfs,
    "CC": paper_cc,
    "MLP": paper_mlp,
}
