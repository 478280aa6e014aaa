"""The :class:`DimmSystem` facade: geometry + memories + data movement.

This is the substrate every higher layer builds on.  It exposes

* symmetric MRAM buffer allocation (UPMEM-style: the same offset is
  valid on every PE),
* per-PE typed reads/writes (the PE's own whole-element view),
* lane-matrix reads/writes over ordered PE lists (the host's burst view
  used by the collective engine), and
* lazy per-PE memory so analytic (cost-only) runs allocate nothing.

Two stores sit behind the same API, and this module is the only layer
that knows which one is live:

* ``"scalar"`` -- each PE owns a private :class:`PeMemory`; lane
  transfers loop over PEs.  Simple, and the correctness oracle: it
  serves the step interpreter only.
* ``"vectorized"`` -- all touched PEs' banks live in one lane-major
  :class:`~repro.hw.arena.MemoryArena`; lane transfers and broadcasts
  are single numpy operations over the whole PE list, and compiled
  programs replay through windows bound on the arena (this store
  only).

The step interpreter runs one body on either store through the lane
API (:meth:`DimmSystem.read_lanes`, :meth:`~DimmSystem.write_lanes`,
:meth:`~DimmSystem.fill_lanes`, :meth:`~DimmSystem.permute_chunks`,
:meth:`~DimmSystem.memory`), so its results, cost accounting and fault
schedule are the same on both (``docs/performance.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..dtypes import DataType
from ..errors import AllocationError, TransferDropped, TransferError
from ..reliability.checksum import guarded_delivery, guarded_site
from ..reliability.faults import partial_prefix
from .arena import ArenaBinding, BoundWindows, MemoryArena, Region, Window
from .geometry import DimmGeometry
from .memory import MRAM_DEFAULT_BYTES, ArenaPeMemory, PeMemory
from .pe import WRAM_TILE_BYTES, wram_permute_chunks
from .timing import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reliability.faults import FaultInjector

#: Execution backends selectable per system (and per Communicator).
BACKENDS = ("scalar", "vectorized")


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise AllocationError(
            f"unknown backend {backend!r}; known: {BACKENDS}")
    return backend


class DimmSystem:
    """A simulated system of PIM-enabled DIMMs.

    Args:
        geometry: Channel/rank/chip/bank shape; defaults to the paper's
            1024-PE testbed.
        params: Machine cost parameters for pricing plans.
        mram_bytes: Simulated MRAM size per PE (functional runs only).
        backend: ``"scalar"`` (per-PE arrays, the oracle) or
            ``"vectorized"`` (lane-major arena, batched transfers).
    """

    def __init__(
        self,
        geometry: DimmGeometry | None = None,
        params: MachineParams | None = None,
        mram_bytes: int = MRAM_DEFAULT_BYTES,
        backend: str = "scalar",
    ) -> None:
        self.geometry = geometry or DimmGeometry()
        self.params = params or MachineParams()
        self.mram_bytes = mram_bytes
        self._backend = _check_backend(backend)
        self._arena: MemoryArena | None = None
        self._memories: dict[int, PeMemory] = {}
        self._alloc_cursor = 0
        #: Optional fault source consulted by every fault site.
        #: None = perfect hardware, the historical behavior.
        self.fault_injector: "FaultInjector | None" = None

    def attach_fault_injector(self, injector: "FaultInjector | None"
                              ) -> "DimmSystem":
        """Install (or clear) the system's fault source; returns self."""
        self.fault_injector = injector
        return self

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_testbed(cls, params: MachineParams | None = None,
                      mram_bytes: int = 64 << 20,
                      backend: str = "scalar") -> "DimmSystem":
        """The evaluation system: 4 ch x 4 rk x 8 chips x 8 banks.

        MRAM defaults to the real UPMEM bank size (64 MiB); memories
        are lazy, so analytic runs still allocate nothing.
        """
        return cls(DimmGeometry(4, 4, 8, 8), params, mram_bytes, backend)

    @classmethod
    def small(cls, params: MachineParams | None = None,
              mram_bytes: int = MRAM_DEFAULT_BYTES,
              backend: str = "scalar") -> "DimmSystem":
        """A small system for tests: 2 ch x 1 rk x 4 chips x 4 banks = 32 PEs."""
        return cls(DimmGeometry(2, 1, 4, 4), params, mram_bytes, backend)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        return self.geometry.num_pes

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` of symmetric MRAM on every PE.

        Returns the offset, valid on all PEs (UPMEM symbols work the
        same way).  A simple bump allocator; there is no free().
        """
        if nbytes <= 0:
            raise AllocationError(f"alloc size must be positive, got {nbytes}")
        if align <= 0 or align & (align - 1):
            raise AllocationError(f"align must be a power of two, got {align}")
        offset = (self._alloc_cursor + align - 1) & ~(align - 1)
        if offset + nbytes > self.mram_bytes:
            raise AllocationError(
                f"MRAM exhausted: need [{offset}, {offset + nbytes}) of "
                f"{self.mram_bytes} bytes per PE")
        self._alloc_cursor = offset + nbytes
        return offset

    def memory(self, pe_id: int) -> PeMemory:
        """The (lazily created) memories of one PE."""
        self.geometry._check_pe(pe_id)
        mem = self._memories.get(pe_id)
        if mem is None:
            if self.vectorized:
                mem = ArenaPeMemory(self._ensure_arena(), pe_id)
            else:
                mem = PeMemory(self.mram_bytes)
            self._memories[pe_id] = mem
        return mem

    def materialize(self, pe_ids: Sequence[int]) -> None:
        """Pre-create backing state for ``pe_ids`` (parallel-safe prep).

        The parallel engine calls this serially before dispatching a
        wave's members to worker threads: with every member PE's row
        (vectorized) or ``PeMemory`` (scalar) already live, concurrent
        execution never triggers an arena reallocation or a
        ``_memories`` dict insert mid-wave -- workers only read and
        write disjoint, already-materialized byte ranges.
        """
        if self.vectorized:
            self._ensure_arena().touch(self._lane_ids(pe_ids))
            return
        for pe in pe_ids:
            self.memory(int(pe))

    @property
    def touched_pes(self) -> int:
        """How many PEs have materialized memories (test/debug aid)."""
        if self.vectorized:
            # Bulk transfers touch arena rows without creating per-PE
            # handle objects; the arena's touched set is the truth.
            return self._arena.touched_count if self._arena else 0
        return len(self._memories)

    # ------------------------------------------------------------------
    # Execution backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Active execution backend name (see :data:`BACKENDS`)."""
        return self._backend

    @property
    def vectorized(self) -> bool:
        """True when the lane-major arena backend is active."""
        return self._backend == "vectorized"

    @property
    def arena(self) -> MemoryArena | None:
        """The lane-major arena, if the vectorized backend has one live."""
        return self._arena

    def _ensure_arena(self) -> MemoryArena:
        arena = self._arena
        if arena is None:
            if not self.vectorized:
                # Arena-only kernels (compiled replay) must never build
                # a shadow arena behind the per-PE banks.
                raise AllocationError(
                    "the scalar backend keeps per-PE banks and has no "
                    "arena; compiled replay runs on 'vectorized'")
            arena = MemoryArena(self.mram_bytes, self.num_pes)
            self._arena = arena
        return arena

    def _lane_ids(self, pe_ids: Sequence[int]) -> np.ndarray:
        """Validate an ordered PE list once, as an index array."""
        ids = np.asarray(pe_ids, dtype=np.intp).reshape(-1)
        if ids.size:
            lo, hi = int(ids.min()), int(ids.max())
            if lo < 0:
                self.geometry._check_pe(lo)
            if hi >= self.num_pes:
                self.geometry._check_pe(hi)
        return ids

    def set_backend(self, backend: str) -> "DimmSystem":
        """Switch execution backends in place; returns self.

        All live PE state (MRAM contents, WRAM scratchpads, the touched
        set) migrates across, so a mid-run switch is transparent.
        Untouched PEs stay unallocated in both directions.
        """
        _check_backend(backend)
        if backend == self._backend:
            return self
        old_memories = self._memories
        old_arena = self._arena
        self._memories = {}
        self._backend = backend
        if backend == "vectorized":
            self._arena = None
            arena = self._ensure_arena()
            for pe, mem in old_memories.items():
                fresh = ArenaPeMemory(arena, pe)
                fresh.mram[:] = mem.mram
                fresh.wram[:] = mem.wram
                self._memories[pe] = fresh
        else:
            self._arena = None
            if old_arena is not None:
                for pe in old_arena.touched_ids():
                    fresh = PeMemory(self.mram_bytes)
                    fresh.mram[:] = old_arena.row_view(pe)
                    prev = old_memories.get(pe)
                    if prev is not None:
                        fresh.wram[:] = prev.wram
                    self._memories[pe] = fresh
        return self

    # ------------------------------------------------------------------
    # Per-PE typed access (the PE's own element view of its bank)
    # ------------------------------------------------------------------
    def write_elements(self, pe_id: int, offset: int, values: np.ndarray,
                       dtype: DataType) -> None:
        """Store a 1-D element array into a PE's MRAM at ``offset``."""
        arr = np.ascontiguousarray(values, dtype=dtype.np_dtype)
        if arr.ndim != 1:
            raise TransferError(f"expected 1-D values, got shape {arr.shape}")
        self.memory(pe_id).write(offset, arr.view(np.uint8))

    def read_elements(self, pe_id: int, offset: int, count: int,
                      dtype: DataType) -> np.ndarray:
        """Load ``count`` elements from a PE's MRAM at ``offset``."""
        nbytes = count * dtype.itemsize
        raw = self.memory(pe_id).read(offset, nbytes)
        return raw.view(dtype.np_dtype)

    # ------------------------------------------------------------------
    # Lane-matrix access (the host's burst view over an ordered PE list)
    # ------------------------------------------------------------------
    def read_lanes(self, pe_ids: Sequence[int], offset: int,
                   nbytes: int) -> np.ndarray:
        """Read ``nbytes`` at ``offset`` from each PE into a lane matrix.

        Row ``i`` of the returned ``(len(pe_ids), nbytes)`` uint8 array
        is PE ``pe_ids[i]``'s bytes.  This is the raw (PIM-domain) view
        a domain-transfer-free host transfer produces.
        """
        if not len(pe_ids):
            raise TransferError("read_lanes over an empty PE list")
        matrix = self.peek_rows(pe_ids, offset, nbytes)
        injector = self.fault_injector
        if injector is not None:
            matrix = self._received(injector, pe_ids, matrix, "read_lanes")
        return matrix

    def write_lanes(self, pe_ids: Sequence[int], offset: int,
                    matrix: np.ndarray) -> None:
        """Write lane matrix rows back to the PEs (inverse of read_lanes)."""
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.dtype != np.uint8:
            raise TransferError(
                f"expected 2-D uint8 lane matrix, got {mat.dtype} ndim={mat.ndim}")
        if mat.shape[0] != len(pe_ids):
            raise TransferError(
                f"lane matrix has {mat.shape[0]} rows for {len(pe_ids)} PEs")
        injector = self.fault_injector
        if injector is not None:
            mat = self._delivered(injector, pe_ids, offset, mat,
                                  "write_lanes")
        self.poke_rows(pe_ids, offset, mat)

    # ------------------------------------------------------------------
    # Below the injector: raw bulk access, and the read and write fault
    # sites the lane transfers above and the host I/O kernels below
    # share
    # ------------------------------------------------------------------
    def peek_rows(self, pe_ids: Sequence[int], offset: int, nbytes: int,
                  out: np.ndarray | None = None,
                  window: Window | None = None) -> np.ndarray:
        """Injector-free copy of ``nbytes`` at ``offset`` from each PE.

        One bulk read on the vectorized backend, a per-PE loop on the
        scalar one.  Never consults the fault injector, so it is always
        exact: the reliability layer snapshots a request's footprint
        through it (one call per footprint span), into a reused
        ``(len(pe_ids), nbytes)`` uint8 ``out`` matrix.  ``window`` is
        the region pre-resolved by :meth:`bind` (compiled replay, so
        vectorized only).
        """
        if self.vectorized:
            return self._ensure_arena().read_rows(
                self._lane_ids(pe_ids) if window is None else pe_ids,
                offset, nbytes, out=out, window=window)
        return np.stack([self.memory(int(pe)).read(offset, nbytes)
                         for pe in pe_ids], out=out)

    def poke_rows(self, pe_ids: Sequence[int], offset: int,
                  matrix: np.ndarray) -> None:
        """Injector-free write of a ``(len(pe_ids), nbytes)`` uint8 matrix.

        The inverse of :meth:`peek_rows` (the reliability layer's
        rewind) and the logged commit half of every guarded write kernel.
        """
        if self.vectorized:
            pe_ids = self._lane_ids(pe_ids)
            self.note_writes(
                (Region(pe_ids, offset, np.asarray(matrix).shape[-1]),))
        self.put_rows(pe_ids, offset, matrix)

    def _received(self, injector: "FaultInjector", pe_ids: Sequence[int],
                  buf: np.ndarray, what: str) -> np.ndarray:
        """Read-side fault site: ``buf`` as the host receives it.

        Rank guard, drop draw, then the corruption draw; a corrupted
        burst is caught by the sender/receiver CRC pair
        (:func:`guarded_delivery`, which computes it only for the
        deliveries the link corrupted) and raises instead of handing
        corrupted bytes to the caller.
        """
        injector.guard_pes(self.geometry, pe_ids)
        return guarded_delivery(injector, buf, what)

    def _delivered(self, injector: "FaultInjector", pe_ids: Sequence[int],
                   offset: int, payload: np.ndarray,
                   what: str) -> np.ndarray:
        """Write-side fault site: ``payload`` as the PEs receive it.

        ``payload`` is a ``(len(pe_ids), nbytes)`` lane matrix or one
        1-D image every PE receives.  Rank guard first; then the drop
        draw -- a dropped burst lands on :func:`partial_prefix` of the
        lanes before :class:`TransferDropped` surfaces -- then the
        corruption draw and, for a corrupted payload only, the CRC
        check, all *before* the caller commits, so a corrupted payload
        never reaches MRAM.
        """
        injector.guard_pes(self.geometry, pe_ids)
        if injector.take_drop():
            reached = partial_prefix(pe_ids)
            n = len(reached)
            rows = (payload[:n] if payload.ndim == 2
                    else np.broadcast_to(payload, (n, payload.size)))
            self.poke_rows(reached, offset, rows)
            raise TransferDropped(
                f"{what} dropped after {n}/{len(pe_ids)} lanes")
        return guarded_delivery(injector, payload, what, drop=False)

    # ------------------------------------------------------------------
    # Bulk host <-> PIM helpers (per-PE distinct payloads)
    # ------------------------------------------------------------------
    def scatter_elements(self, pe_ids: Iterable[int], offset: int,
                         per_pe_values: Sequence[np.ndarray],
                         dtype: DataType) -> None:
        """Write a distinct element array to each PE (functional only)."""
        pes = list(pe_ids)
        if len(pes) != len(per_pe_values):
            raise TransferError(
                f"{len(pes)} PEs but {len(per_pe_values)} payloads")
        if self.vectorized and pes:
            arrays = []
            for values in per_pe_values:
                arr = np.ascontiguousarray(values, dtype=dtype.np_dtype)
                if arr.ndim != 1:
                    raise TransferError(
                        f"expected 1-D values, got shape {arr.shape}")
                arrays.append(arr)
            if len({arr.size for arr in arrays}) == 1:
                # Equal-length payloads: one stack + reshape is the
                # whole scatter.  Ragged payloads (rare) fall through
                # to the per-PE path below.
                self.poke_rows(pes, offset, np.stack(arrays).view(np.uint8))
                return
        for pe, values in zip(pes, per_pe_values):
            self.write_elements(pe, offset, values, dtype)

    def gather_elements(self, pe_ids: Iterable[int], offset: int,
                        count: int, dtype: DataType) -> list[np.ndarray]:
        """Read ``count`` elements from each PE (functional only)."""
        pes = list(pe_ids)
        if self.vectorized and pes:
            raw = self._ensure_arena().read_rows(
                self._lane_ids(pes), offset, count * dtype.itemsize)
            return list(raw.view(dtype.np_dtype))
        return [self.read_elements(pe, offset, count, dtype) for pe in pes]

    def fill_lanes(self, pe_ids: Sequence[int], offset: int,
                   data: np.ndarray, window: Window | None = None) -> None:
        """Write one uint8 buffer to every listed PE (broadcast image)."""
        buf = np.asarray(data)
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise TransferError(
                f"MRAM writes take 1-D uint8 buffers, got {buf.dtype} "
                f"ndim={buf.ndim}")
        injector = self.fault_injector
        if injector is not None:
            # One image serves every PE, so the whole fan-out is one
            # checksummed delivery.
            buf = self._delivered(injector, pe_ids, offset, buf,
                                  "fill_lanes")
        if self.vectorized:
            if window is None:
                pe_ids = self._lane_ids(pe_ids)
                self.note_writes((Region(pe_ids, offset, buf.size),))
            self._ensure_arena().fill_rows(pe_ids, offset, buf,
                                           window=window)
            return
        for pe in pe_ids:
            self.memory(pe).write(offset, buf)

    def zero_fill_lanes(self, pe_ids: Sequence[int], offset: int,
                        nbytes: int) -> None:
        """Write zeros over ``nbytes`` at ``offset`` on every PE
        (:meth:`MemoryArena.zero_fill_rows`): the elision layer's
        zero-row fill.  Like the band kernels below it draws no
        faults and logs nothing (:meth:`expose` does both for the
        eliding op's put), and it runs on the arena only."""
        self._ensure_arena().zero_fill_rows(
            self._lane_ids(pe_ids), offset, nbytes)

    # ------------------------------------------------------------------
    # Compiled-program kernels.  A compiled op logs its writes and draws
    # its faults once, through :meth:`expose`, and then moves its bytes
    # through the band kernels below, which never consult the injector;
    # the host-pull read (:meth:`take_rows`) and the elision scan
    # (:meth:`scan_view`) are their own read sites.  Each takes the
    # ``window`` :meth:`bind` resolved for its region.  Compiled replay
    # runs on the arena only: on the scalar backend these kernels raise
    # (:meth:`_ensure_arena`) instead of reading a shadow arena.
    # ------------------------------------------------------------------
    def bind(self, binding: ArenaBinding) -> BoundWindows:
        """``binding``'s windows and stream table on the current layout.

        Resolves the op's regions once -- ids validated and touched,
        spans checked, each region a strided view or a row index, and
        the op's gather (if it names one) lifted into a stream table --
        and again only when the arena's backing array is replaced
        (growth, re-base, a fresh arena after a backend switch):
        steady-state replay pays one identity test.  Concurrent first
        replays resolve once, under the binding's lock.
        """
        arena = self._ensure_arena()
        bound = binding.bound
        if bound.data is arena._data:
            return bound
        with binding.lock:
            bound = binding.bound
            if bound.data is not arena._data:
                for region in binding.regions:
                    self._lane_ids(region.rows)
                gather = binding.gather
                if gather is not None:
                    self._lane_ids(gather[0].rows)
                bound = arena.bind(binding.regions, gather)
                binding.bound = bound
        return bound

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    def take_by_table(self, pe_ids: Sequence[int], ngroups: int,
                      src_offset: int, nslots_in: int, chunk_bytes: int,
                      lane_table: np.ndarray, slot_table: np.ndarray
                      ) -> np.ndarray:
        """Gather chunks by a precompiled (lane, slot) index-table pair.

        ``pe_ids`` is the rank-ordered concatenation of ``ngroups``
        equal-size groups; the result is the ``(ngroups, lanes,
        nslots_out, chunk_bytes)`` gather ``out[g, l, s] =
        in[g, lane[l, s], slot[l, s]]`` over each group's
        ``(lanes, nslots_in)`` chunk block at ``src_offset``, in one
        fancy index over the arena.  No replay kernel calls it.
        """
        ids = self._lane_ids(pe_ids)
        block = self._ensure_arena().gather_chunks(
            ids, src_offset, nslots_in, chunk_bytes, ngroups,
            lane_table, slot_table)
        injector = self.fault_injector
        if injector is not None:
            block = self._received(injector, ids, block, "take_by_table")
        return block

    def put_rows(self, pe_ids: Sequence[int], offset: int,
                 matrix: np.ndarray, window: Window | None = None) -> None:
        """Write a pre-shaped ``(len(pe_ids), nbytes)`` uint8 lane matrix.

        The put half of the compiled-program kernels: no shape check,
        fault draw or log entry (lowering and :meth:`expose` did them).
        """
        if self.vectorized:
            self._ensure_arena().write_rows(
                self._lane_ids(pe_ids) if window is None else pe_ids,
                offset, matrix, window=window)
            return
        for row, pe in zip(matrix, pe_ids):
            self.memory(int(pe)).write(offset, row)

    def note_writes(self, regions: Sequence[Region]) -> None:
        """Log ``regions`` as one write-log entry (the arena's)."""
        if regions and self.vectorized:
            self._ensure_arena().note_write(*regions)

    def content_epoch(self) -> int:
        """Arena write-epoch that keys content-derived caches (elision
        plans); see :meth:`content_changed`."""
        return self._ensure_arena().write_epoch

    def content_changed(self, epoch: int, region: Region) -> bool:
        """Whether ``region``'s columns may have changed on any PE since
        ``epoch`` (conservative: True on any doubt)."""
        return self._ensure_arena().writes_since(epoch, region.offset,
                                                 region.end)

    def take_band_flat(self, table: np.ndarray, width: int, r0: int,
                       r1: int, out: np.ndarray) -> None:
        """Gather output rows ``[r0, r1)`` straight from the arena
        through the bound stream table (:meth:`MemoryArena.take_band`,
        one unbuffered pass): the gather kernel of every compiled
        replay, in-place ops included."""
        self._ensure_arena().take_band(table, width, r0, r1, out)

    def expose(self, move: Callable[[int | None], None],
               puts: Sequence[Region], gather: Region | None = None) -> None:
        """One compiled op's transfers: their faults once, then ``move``.

        A compiled op is one gather and one put per group of the
        modelled machine, however many row bands the simulator moves it
        in, so its puts are one write-log entry (:meth:`note_writes`)
        and its fault sites are drawn here, once per op, before any
        byte moves, in the order its one-band replay draws them: the
        ``gather`` region if the op has one, then each put region in
        output-row order.  Each site runs the rank guard, the drop
        draw, then the corruption draw sized to the whole region
        (:func:`guarded_site`).  A fault on the gather raises before any
        byte moves, and so does a corrupted put: its CRC pair rejects it
        before the commit.  A dropped put lands, like every dropped
        write, on :func:`partial_prefix` of its lanes: ``move(n)``
        writes the op's output rows ``[0, n)`` -- every earlier put's
        rows, then that prefix -- before :class:`TransferDropped`
        surfaces.  ``move(None)`` moves every row.
        """
        self.note_writes(puts)
        injector = self.fault_injector
        if injector is not None:
            if gather is not None:
                injector.guard_pes(self.geometry, gather.rows)
                guarded_site(injector, gather.total_bytes, "take_band_flat")
            rows = 0
            for put in puts:
                ids = put.rows
                injector.guard_pes(self.geometry, ids)
                if injector.take_drop():
                    reached = len(partial_prefix(ids))
                    move(rows + reached)
                    raise TransferDropped(
                        f"put_rows dropped after {reached}/{len(ids)} lanes")
                guarded_site(injector, put.total_bytes, "put_rows",
                             drop=False)
                rows += len(ids)
        move(None)

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    def stage_rows(self, pe_ids: Sequence[int], src_offset: int,
                   nbytes: int, stage: np.ndarray) -> None:
        """Copy ``nbytes`` at ``src_offset`` from each PE into ``stage``
        (injector-free; no replay kernel calls it)."""
        self.peek_rows(pe_ids, src_offset, nbytes, out=stage)

    def take_rows(self, pe_ids: Sequence[int], offset: int,
                  nbytes: int, window: Window | None = None) -> np.ndarray:
        """Lane-matrix read without :meth:`read_lanes`' argument
        checks (compiled host-pull kernel)."""
        block = self.peek_rows(pe_ids, offset, nbytes, window=window)
        injector = self.fault_injector
        if injector is not None:
            block = self._received(injector, pe_ids, block, "take_rows")
        return block

    def scan_view(self, region: Region) -> np.ndarray:
        """Read-only ``(len(rows), nbytes)`` window over ``region`` for
        the elision layer's zero scan.

        The elision layer's source window: a zero-copy arena view
        whenever the PE list is a strided run (the layouts the
        hypercube mapping produces), a gathered copy otherwise.  The
        returned rows always have a contiguous byte axis, which is what
        :func:`~repro.hw.arena.scan_zero_chunks` requires.  Callers
        must treat the window as read-only and finish scanning before
        writing any destination that may alias it.
        """
        arena = self._ensure_arena()
        ids = self._lane_ids(region.rows)
        block = arena.lane_view(ids, region.offset, region.nbytes)
        if block is None:
            block = arena.read_rows(ids, region.offset, region.nbytes)
        injector = self.fault_injector
        if injector is not None:
            # The scan reads the source over the same link.
            self._received(injector, region.rows, block, "scan_view")
        return block

    def take_select_flat(self, table: np.ndarray, width: int,
                         rows: np.ndarray, out: np.ndarray) -> None:
        """Gather an arbitrary output-row subset through a stream table.

        The elision-aware gather: only live rows -- those gathering
        at least one non-zero chunk -- go through the strided arena
        gather; elided rows are zero-filled.  Vectorized backend only
        (the table comes from :meth:`bind`).
        """
        self._ensure_arena().take_select(table, width, rows, out)

    # ------------------------------------------------------------------
    # PE-local kernels over ordered PE lists
    # ------------------------------------------------------------------
    def permute_chunks(self, pe_ids: Sequence[int], src_offset: int,
                       dst_offset: int, chunk_bytes: int,
                       permutations: np.ndarray,
                       tile_bytes: int = WRAM_TILE_BYTES) -> int:
        """Run the PE-local chunk-permutation kernel on an ordered PE list.

        Row ``i`` of ``permutations`` is the slot permutation PE
        ``pe_ids[i]`` applies (``new[s] = old[perm[s]]``).  Every PE
        stages its chunks through its own WRAM in bounded tiles (the
        honest per-PE kernel), on either store: on the arena through
        :meth:`ArenaPeMemory.unlogged` handles, after one write-log
        entry for the whole call (the PEs by the destination span), so
        the per-tile copies do not flood the bounded log.  Returns the
        total tile count.
        """
        perms = np.asarray(permutations)
        if perms.ndim != 2 or perms.shape[0] != len(pe_ids):
            raise TransferError(
                f"permutation matrix of shape {perms.shape} does not "
                f"match {len(pe_ids)} PEs")
        if self.vectorized:
            self.note_writes((Region(self._lane_ids(pe_ids), dst_offset,
                                     perms.shape[1] * chunk_bytes),))
        return sum(wram_permute_chunks(self.memory(pe).unlogged(),
                                       src_offset, dst_offset, chunk_bytes,
                                       perm, tile_bytes)
                   for pe, perm in zip(pe_ids, perms))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DimmSystem({self.geometry.describe()})"
