"""Every write a collective makes stays inside its request's footprint.

:meth:`~repro.engine.request.NormalizedRequest.footprint` is the spec:
the wave scheduler overlaps requests by it, the reliable path rewinds
exactly its write spans, and serving charges quotas by it.  Two checks
hold the engine to it:

* **static** -- every compiled op's declared write regions
  (:attr:`~repro.core.collectives.program.ProgramOp.writes`) lie in the
  footprint's write columns, on the request's member PEs, for every
  primitive, rung and bitmap, on a healthy, a remapped and an offset
  cube;
* **dynamic** -- on MRAM filled at random, every byte a call changes
  lies in the footprint and in a region the arena's write log recorded
  since the call began (unless the log's floor passed that epoch), and
  every logged region lies in the footprint, in each execution mode.

Each check has a mutation arm showing it catches the defect it guards
against: a narrowed footprint fails the static check, an op that drops
a write region from its declaration fails the dynamic one.
"""

import numpy as np
import pytest

from repro import (ABLATION_LADDER, CommRequest, Communicator, DimmSystem,
                   HypercubeManager, SessionConfig)
from repro.core.collectives import ALL_PRIMITIVES, build_plan
from repro.core.collectives import program as program_mod
from repro.core.groups import member_pes, slice_groups
from repro.dtypes import INT64
from repro.engine.request import Footprint, NormalizedRequest

SIZE = 256          # bytes per PE
SRC, DST = 256, 4096
MRAM = 1 << 14
BITMAPS = ("10", "01", "11")


def _covered(lo: int, hi: int, spans) -> bool:
    """Whether columns ``[lo, hi)`` lie inside the union of the
    ``(offset, nbytes)`` ``spans`` (a request footprint's)."""
    for offset, nbytes in sorted(spans):
        if offset > lo:
            break
        lo = max(lo, offset + nbytes)
    return lo >= hi


def _region_escapes(regions, footprint, members) -> list[str]:
    """Regions that reach outside ``footprint.writes`` (columns) or the
    request's ``members`` (rows), described."""
    members = set(members)
    return [f"{region.offset}+{region.nbytes} on {len(region.rows)} rows"
            for region in regions
            if not _covered(region.offset, region.end, footprint.writes)
            or not set(np.asarray(region.rows).tolist()) <= members]


def _mram_image(system: DimmSystem) -> np.ndarray:
    """Every PE's whole MRAM, one row per PE id (injector-free)."""
    return system.peek_rows(range(system.num_pes), 0, system.mram_bytes)


def _write_escapes(system: DimmSystem, footprint, members,
                   before: np.ndarray, epoch: int) -> list[str]:
    """What a call changed outside its request's footprint or its
    write log: every changed byte must lie in the footprint's write
    columns on a member row and in a region the arena logged after
    ``epoch`` (unless the log's floor has passed ``epoch``); every
    logged region must lie in the footprint.  ``before`` is
    :func:`_mram_image` taken at ``epoch``."""
    changed = _mram_image(system) != before
    allowed = np.zeros_like(changed)
    rows = np.asarray(sorted(members))
    for offset, nbytes in footprint.writes:
        allowed[rows, offset:offset + nbytes] = True
    problems = []
    if (changed & ~allowed).any():
        pe, col = np.argwhere(changed & ~allowed)[0]
        problems.append(f"PE {pe} byte {col} changed outside the footprint")
    regions = system.arena.regions_since(epoch)
    if regions is not None:
        logged = np.zeros_like(changed)
        for region in regions:
            logged[np.asarray(region.rows), region.offset:region.end] = True
        if (changed & ~logged).any():
            pe, col = np.argwhere(changed & ~logged)[0]
            problems.append(f"PE {pe} byte {col} changed but no logged "
                            f"region covers it")
        problems += [f"logged {escape} outside the footprint"
                     for escape in _region_escapes(regions, footprint,
                                                   members)]
    return problems


#: Execution mode -> the SessionConfig knobs that select it.  All run
#: on the arena, which keeps the write log the dynamic check reads.
MODES = {
    "interpreted": dict(execution="interpreted"),
    "compiled": dict(execution="compiled"),
    "streamed": dict(execution="compiled", stream_tile_bytes=33),
    "eliding": dict(execution="compiled", elide_transfers=True),
}


def _request(manager, primitive, bitmap, rng=None):
    """A ``primitive`` request over ``bitmap``; scatter and broadcast
    carry random payloads when ``rng`` is given."""
    payloads = None
    if rng is not None and primitive in ("scatter", "broadcast"):
        groups = slice_groups(manager, bitmap)
        elems = SIZE // 8 * (groups[0].size if primitive == "scatter" else 1)
        payloads = {g.instance: rng.integers(-99, 100, elems)
                    for g in groups}
    return CommRequest(primitive, bitmap, SIZE, src_offset=SRC,
                       dst_offset=DST, data_type=INT64, payloads=payloads)


def _cubes():
    healthy = HypercubeManager(DimmSystem.small(mram_bytes=MRAM), (8, 4))
    yield "healthy", healthy
    yield "remapped", healthy.without_pes([5])
    yield "offset", HypercubeManager(DimmSystem.small(mram_bytes=MRAM),
                                     (4, 4), base_pe=16)


def _static_escapes():
    """Every (cube, primitive, rung, bitmap) op write that leaves the
    footprint, described."""
    escapes = []
    for cube, manager in _cubes():
        for primitive in ALL_PRIMITIVES:
            for config in ABLATION_LADDER:
                for bitmap in BITMAPS:
                    req = _request(manager, primitive, bitmap).normalize(
                        manager, config, backend="vectorized")
                    plan = build_plan(
                        req.primitive, manager, req.dims,
                        req.total_data_size, req.src_offset,
                        req.dst_offset, req.dtype, req.op, req.config)
                    members = member_pes(manager, req.dims)
                    escapes += [
                        f"{cube} {primitive} {config.label} {bitmap} "
                        f"{op.describe()}: {escape}"
                        for op in plan.compile().ops
                        for escape in _region_escapes(
                            op.writes, req.footprint(), members)]
    return escapes


class TestStaticContainment:
    def test_declared_writes_lie_in_the_footprint(self):
        assert _static_escapes() == []

    def test_a_narrowed_footprint_is_caught(self, monkeypatch):
        """Mutation arm: allgather's footprint claims half its output."""
        footprint = NormalizedRequest.footprint

        def narrowed(self):
            spec = footprint(self)
            if self.primitive != "allgather":
                return spec
            (offset, nbytes), = spec.writes
            return Footprint(spec.reads, ((offset, nbytes // 2),))

        monkeypatch.setattr(NormalizedRequest, "footprint", narrowed)
        escapes = _static_escapes()
        assert escapes and all(" allgather " in e for e in escapes)


def _dynamic_escapes(primitive, mode, config, bitmap, seed):
    """Run one call twice (cold, then warm) on random MRAM; returns
    what either call changed outside its footprint or its write log."""
    rng = np.random.default_rng(seed)
    manager = HypercubeManager(DimmSystem.small(mram_bytes=MRAM), (8, 4))
    system = manager.system
    comm = Communicator(manager, SessionConfig(
        config=config, backend="vectorized", **MODES[mode]))
    # Eliding runs see mostly-zero content, so rows elide; the rest
    # see dense bytes.
    density = 0.3 if mode == "eliding" else 1.0
    blocks = rng.random((system.num_pes, MRAM // 64, 1)) < density
    image = rng.integers(0, 256, (system.num_pes, MRAM // 64, 64),
                         dtype=np.uint8) * blocks
    system.poke_rows(range(system.num_pes), 0, image.reshape(-1, MRAM))
    request = _request(manager, primitive, bitmap, rng)
    req = request.normalize(manager, config, backend="vectorized")
    members = member_pes(manager, req.dims)
    escapes = []
    for _ in range(2):
        before = _mram_image(system)
        epoch = system.arena.write_epoch
        comm.run(request)
        escapes += _write_escapes(system, req.footprint(), members,
                                  before, epoch)
    return escapes


@pytest.fixture
def elide_small(monkeypatch):
    """Let these small payloads reach the elision scanner."""
    monkeypatch.setattr(program_mod, "ELIDE_MIN_SOURCE_BYTES", 0)


@pytest.mark.usefixtures("elide_small")
class TestDynamicContainment:
    @pytest.mark.parametrize("mode", tuple(MODES))
    @pytest.mark.parametrize("primitive", ALL_PRIMITIVES)
    def test_changed_bytes_are_logged_and_in_the_footprint(self, primitive,
                                                          mode):
        escapes = [f"{config.label} {bitmap}: {escape}"
                   for i, config in enumerate(ABLATION_LADDER)
                   for j, bitmap in enumerate(BITMAPS)
                   for escape in _dynamic_escapes(primitive, mode, config,
                                                  bitmap, seed=3 * i + j)]
        assert escapes == []

    def test_an_undeclared_write_is_caught(self, monkeypatch):
        """Mutation arm: AllReduce's fan-out declares one group fewer
        than it writes, so that group's bytes change unlogged."""
        post_init = program_mod.FanoutScratchOp.__post_init__

        def drop_last(self):
            post_init(self)
            self.writes = self.writes[:-1]

        monkeypatch.setattr(program_mod.FanoutScratchOp, "__post_init__",
                            drop_last)
        escapes = _dynamic_escapes("allreduce", "compiled",
                                   ABLATION_LADDER[-1], "10", seed=0)
        assert any("no logged region covers it" in e for e in escapes)
