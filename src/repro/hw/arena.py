"""Lane-major MRAM arena: storage for the vectorized backend.

The scalar backend keeps each PE's MRAM in its own numpy array, so a
burst over ``P`` PEs costs ``P`` Python-level reads.  The arena instead
stores every materialized PE's bank as one row of a single
``(rows, mram_bytes)`` uint8 array -- lane-major, row = lane -- so the
host's burst view over an ordered PE list is a single numpy operation:

* a contiguous (or constant-stride) PE run maps to a basic slice of the
  backing array, i.e. a **zero-copy view**; the hypercube mapping
  assigns group members to consecutive PE ids, so every group formed
  over the fastest cube dimensions is such a run;
* any other ordered list maps to one fancy-index gather/scatter.

Rows are addressed by PE id relative to a base offset.  The backing
array starts empty and grows geometrically as PEs are touched, so
analytic (cost-only) runs that touch nothing still allocate nothing,
and the zero-fill of fresh rows is lazy at the OS level (calloc pages).
Accessors always re-derive views from the current backing array, so a
growth-triggered reallocation never leaves a stale alias behind.

Compiled replay moves the same :class:`Region` s on every call, so it
resolves each one once into a :class:`Window` and keeps an op's
windows in an :class:`ArenaBinding`
(:meth:`~repro.hw.system.DimmSystem.bind`).  A binding is tied to the
backing array it was resolved against and rebinds when that array is
replaced, which is the one case where re-derivation matters.

Concurrency contract (the parallel replay engine): writes from
multiple threads are safe exactly when they target **disjoint byte
ranges** of already-materialized rows -- disjoint row bands of one
streamed op, or the disjoint footprints of hazard-independent wave
members.  The engine pre-materializes every member PE before
dispatching concurrent work, so the backing array never reallocates
mid-flight; the internal lock below makes the growth and flat-view
builds themselves safe against a racing first touch, but it does NOT
serialize data transfers -- overlapping concurrent writes stay the
caller's bug.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AllocationError, TransferError
from ..reliability.checksum import chunk_digests


#: chunk sizes with a native wide dtype; anything else gathers as void.
_WIDE_DTYPES = {1: np.dtype(np.uint8), 2: np.dtype(np.uint16),
                4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}


def flat_chunk_table(lane_table: np.ndarray, slot_table: np.ndarray,
                     nslots: int) -> np.ndarray:
    """Flatten a (lane, slot) table pair into one chunk-index table.

    ``flat[l, s] = lane[l, s] * nslots + slot[l, s]`` indexes a group's
    chunk block flattened to ``(lanes * nslots,)`` chunks.  Computed
    once at plan-lowering time so steady-state replay does zero index
    arithmetic.
    """
    flat = lane_table.astype(np.intp) * nslots + slot_table
    flat.setflags(write=False)
    return flat


@functools.lru_cache(maxsize=64)
def wide_dtype(nbytes: int) -> np.dtype:
    """The widest native dtype viewing ``nbytes``-wide chunks (void else).

    Memoised: building a void dtype costs about a microsecond, and
    replay asks for one per op, group and band.
    """
    if nbytes in _WIDE_DTYPES:
        return _WIDE_DTYPES[nbytes]
    return np.dtype((np.void, nbytes))


#: Retained write-log entries per arena; older history is dropped and
#: treated as "anything may have changed" (see ``writes_since``).
WRITE_LOG_MAX = 64

#: Chunk count at which the scan samples before committing: below it
#: both stages always run exactly; above it a deterministic evenly
#: spaced sample must first *nominate* a stage (a zero chunk in the
#: sample -> exact zero pass; duplicate sampled content -> digest
#: pass), so dense traffic pays only the sample read.
SCAN_SAMPLE_MIN_CHUNKS = 1 << 13
#: Evenly spaced chunks the nomination sample reads.
SCAN_SAMPLE_CHUNKS = 256

#: all-ones pattern of ``(words == 0)`` bool rows packed as one native
#: integer, per word count with a native width; the packed compare
#: turns per-chunk zero detection into two full-width vector passes.
_ZERO_PACKED = {1: np.uint8(0x01), 2: np.uint16(0x0101),
                4: np.uint32(0x01010101),
                8: np.uint64(0x0101010101010101)}


def scan_chunk_classes(chunks: np.ndarray, ngroups: int | None = None
                       ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Content fingerprint scan: exact zero / duplicate chunk classes.

    ``chunks`` is a ``(..., chunk_bytes)`` uint8 block whose leading
    axes flatten to ``ngroups * nchunks`` chunks in group-major order
    (``ngroups`` defaults to the first axis).  Strided views are fine
    as long as the byte axis is contiguous -- exactly what
    :meth:`MemoryArena.lane_view` produces -- and the leading axes are
    never reshaped through a copy.  Returns ``(zero, cls,
    scanned_bytes)``:

    * ``zero`` -- flat ``(n,)`` bool, chunk is all-zero (byte-exact);
    * ``cls`` -- flat ``(n,)`` class table where ``cls[f]`` is the flat
      index of the *first* chunk in the same group with byte-identical
      content (``cls[f] == f`` for uniques), or **None** when every
      chunk is its own class -- the common dense outcome, returned
      without materializing the identity table so callers skip all
      class bookkeeping;
    * ``scanned_bytes`` -- bytes the scan actually touched, for the
      ``elide`` ledger category.

    Above :data:`SCAN_SAMPLE_MIN_CHUNKS` the scan is nomination-gated:
    a deterministic evenly spaced sample is read first, and each stage
    only commits when the sample exhibits its pattern -- a zero chunk
    enables the exact zero pass, duplicate sampled content (equal
    CRC-seeded digests, :func:`~repro.reliability.checksum
    .chunk_digests`, within one group) enables the digest pass over
    live chunks.  Dense traffic therefore pays one sample read and
    nothing else, while a skipped stage can only *miss* elisions on
    content the sample did not represent, never mark a chunk zero or
    duplicate wrongly: every committed class is byte-exact (the zero
    pass reads all bytes; duplicates are byte-verified against their
    class representative, digest collisions demote to unique).  Chunks
    whose byte width is not a multiple of 8 fall back to the exact
    full-pass zero scan with no duplicate detection.
    """
    lead = chunks.shape[:-1]
    chunk_bytes = chunks.shape[-1]
    n = 1
    for dim in lead:
        n *= dim
    if ngroups is None:
        ngroups = lead[0] if lead else 1
    nchunks = n // ngroups
    cls = None  # identity until the digest pass commits a duplicate

    def _at(flat: np.ndarray, arr: np.ndarray) -> tuple:
        """Multi-axis coordinates of flat chunk ids (no lead reshape)."""
        return np.unravel_index(flat, lead) if len(lead) > 1 else (flat,)

    if chunk_bytes % 8:
        return ~chunks.any(axis=-1).reshape(n), None, n * chunk_bytes
    try:
        words = chunks.view(np.uint64)
    except (TypeError, ValueError):  # pragma: no cover - exotic strides
        return ~chunks.any(axis=-1).reshape(n), None, n * chunk_bytes
    nwords = chunk_bytes // 8
    scanned = 0
    scan_zero = scan_dup = True
    if n >= SCAN_SAMPLE_MIN_CHUNKS:
        sample = np.linspace(0, n - 1, SCAN_SAMPLE_CHUNKS).astype(np.intp)
        sw = words[_at(sample, words)].reshape(sample.size, nwords)
        szero = ~sw.any(axis=1)
        scan_zero = bool(szero.any())
        live = np.flatnonzero(~szero)
        scan_dup = False
        if live.size > 1:
            sdig = chunk_digests(sw[live])
            sg = sample[live] // nchunks
            order = np.lexsort((sdig, sg))
            ds, gs = sdig[order], sg[order]
            scan_dup = bool(((ds[1:] == ds[:-1]) & (gs[1:] == gs[:-1]))
                            .any())
        scanned += sample.size * chunk_bytes
        if not scan_zero and not scan_dup:
            return np.zeros(n, dtype=bool), None, scanned
    # Zero pass (exact): ``(words == 0)`` is one full-width vector
    # compare, and its bool rows pack into one native integer per
    # chunk, so the all-zero test is a second full-width compare
    # instead of numpy's much slower short-inner-axis reduction.
    zero = np.zeros(n, dtype=bool)
    if scan_zero:
        eq = (words == 0).reshape(n, nwords)
        packed = _ZERO_PACKED.get(nwords)
        if packed is not None:
            zero = eq.view(packed.dtype).ravel() == packed
        elif nwords % 8 == 0:
            zero = (eq.view(np.uint64).reshape(n, nwords // 8)
                    == _ZERO_PACKED[8]).all(axis=1)
        else:
            zero = eq.all(axis=1)
        scanned += n * chunk_bytes
    # Digest pass: duplicate classes among live (non-zero) chunks.
    # Equal (group, digest) pairs nominate; a byte-exact compare
    # against the class representative (first occurrence) confirms.
    if scan_dup:
        flat = np.flatnonzero(~zero)
        if flat.size > 1:
            dig = chunk_digests(words[_at(flat, words)].reshape(
                flat.size, nwords))
            scanned += flat.size * chunk_bytes
            g = flat // nchunks
            order = np.argsort(dig)
            ds = dig[order]
            run_start = np.ones(order.size, dtype=bool)
            run_start[1:] = ds[1:] != ds[:-1]
            run_id = np.cumsum(run_start) - 1
            cand = np.bincount(run_id)[run_id] > 1
            if cand.any():
                cf, cd, cg = (flat[order[cand]], ds[cand],
                              g[order[cand]])
                order2 = np.lexsort((cf, cd, cg))
                cf2, cd2, cg2 = cf[order2], cd[order2], cg[order2]
                start2 = np.ones(cf2.size, dtype=bool)
                start2[1:] = (cd2[1:] != cd2[:-1]) | (cg2[1:] != cg2[:-1])
                # lexsort keeps flat order inside a class, so the
                # class head is the first occurrence of that content.
                rep = cf2[start2][np.cumsum(start2) - 1]
                dup = rep != cf2
                if dup.any():
                    di, ri = cf2[dup], rep[dup]
                    eq2 = (chunks[_at(di, chunks)] ==
                           chunks[_at(ri, chunks)]).all(axis=1)
                    scanned += 2 * di.size * chunk_bytes
                    if eq2.any():
                        cls = np.arange(n, dtype=np.intp)
                        cls[di[eq2]] = ri[eq2]
    return zero, cls, scanned


@dataclass(frozen=True, eq=False, slots=True)
class Region:
    """``nbytes`` of MRAM at ``offset`` on each PE of ``rows`` (an
    ordered sequence of PE ids).  Equality is identity."""

    rows: Sequence[int]
    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        """One past the region's last column."""
        return self.offset + self.nbytes

    @property
    def total_bytes(self) -> int:
        """Bytes the region covers over all of its rows."""
        return len(self.rows) * self.nbytes


class Window:
    """A :class:`Region` resolved against one backing array.

    When the PE ids form a constant-stride run (the layouts the
    hypercube mapping produces) ``view`` is the zero-copy ``(n,
    nbytes)`` window and ``rows`` is None; otherwise ``view`` is the
    whole ``nbytes`` column span and ``rows`` the intp row index one
    gather or scatter takes.
    """

    __slots__ = ("view", "rows", "nbytes", "n", "_bands")

    def __init__(self, view: np.ndarray, rows: np.ndarray | None,
                 nbytes: int) -> None:
        self.view = view
        self.rows = rows
        self.nbytes = nbytes
        self.n = view.shape[0] if rows is None else rows.size
        self._bands: dict[tuple[int, int], Window] = {}

    def band(self, r0: int, r1: int) -> "Window":
        """Rows ``[r0, r1)`` of this window, memoised per band."""
        if r0 == 0 and r1 == self.n:
            return self
        sub = self._bands.get((r0, r1))
        if sub is None:
            sub = (Window(self.view[r0:r1], None, self.nbytes)
                   if self.rows is None else
                   Window(self.view, self.rows[r0:r1], self.nbytes))
            self._bands[(r0, r1)] = sub
        return sub


def _read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view of ``table`` (the table itself stays writeable)."""
    view = table.view()
    view.setflags(write=False)
    return view


class BoundWindows:
    """An :class:`ArenaBinding` resolved against one backing array.

    ``data`` is that array; ``windows`` follow the binding's specs in
    order; ``stream`` is the ``(table, width)`` pair of
    :meth:`MemoryArena.stream_table` when the binding names a gather,
    published as a read-only view.  The take kernels index with the
    writeable table behind it (:meth:`gather_table`): ``np.take``
    copies an index array that is not writeable, on every call.
    Immutable once published, so a replay reads one consistent
    snapshot without a lock.  Holds views and index arrays, never
    copies of the data.
    """

    __slots__ = ("data", "windows", "stream", "_gather")

    def __init__(self, data: np.ndarray | None,
                 windows: tuple[Window, ...] = (),
                 gather: tuple[np.ndarray, int] | None = None) -> None:
        self.data = data
        self.windows = windows
        self._gather = gather
        self.stream = (None if gather is None
                       else (_read_only(gather[0]), gather[1]))

    def gather_table(self) -> tuple[np.ndarray, int]:
        """The writeable ``(table, width)`` behind :attr:`stream`.

        For the take kernels only: nothing writes it, and it never
        leaves a replay.  The pair is one object per binding, so its
        identity keys caches exactly as the binding does.
        """
        return self._gather

    def window(self, index: int,
               band: tuple[int, int] | None = None) -> Window:
        """Window ``index`` (its rows ``band`` when given)."""
        window = self.windows[index]
        return window if band is None else window.band(*band)


class ArenaBinding:
    """Where one compiled op keeps its arena windows.

    ``regions`` are the op's windowed transfers, fixed at compile time;
    ``gather`` optionally names its chunk gather as ``(region, ngroups,
    chunk_bytes, lane, slot)`` for the stream table.
    :meth:`~repro.hw.system.DimmSystem.bind` resolves them into
    ``bound`` under ``lock``, and again whenever the arena's backing
    array is no longer ``bound.data``.
    """

    __slots__ = ("regions", "gather", "lock", "bound")

    def __init__(self, regions: Sequence[Region], gather=None) -> None:
        self.regions = tuple(regions)
        self.gather = gather
        self.lock = threading.Lock()
        #: Resolved against no array until the first bind.
        self.bound = BoundWindows(None)


class MemoryArena:
    """One lane-major uint8 array holding many PEs' MRAM banks.

    Args:
        mram_bytes: Bytes per PE bank (one row).
        max_rows: Upper bound on rows (the system's PE count); only
            clamps growth headroom -- untouched PEs never cost memory.
    """

    def __init__(self, mram_bytes: int, max_rows: int) -> None:
        if mram_bytes <= 0:
            raise AllocationError(
                f"mram_bytes must be positive, got {mram_bytes}")
        if max_rows <= 0:
            raise AllocationError(
                f"max_rows must be positive, got {max_rows}")
        self.mram_bytes = mram_bytes
        self.max_rows = max_rows
        self._base = 0
        self._data = np.zeros((0, mram_bytes), dtype=np.uint8)
        # Boolean mask over all possible rows: marking a thousand PEs
        # touched is one vectorized store, not a Python set update per
        # id (the touched set sat on the hot path of every transfer).
        self._touched = np.zeros(max_rows, dtype=bool)
        self._flat_views: dict[int, np.ndarray] = {}
        # Guards growth/re-base and flat-view construction against a
        # concurrent first touch from worker threads; plain transfers
        # into materialized rows never take it.
        self._grow_lock = threading.Lock()
        # Content-change log for fingerprint caching: every mutation
        # notes its regions under a fresh epoch, and ``writes_since``
        # answers "may columns [lo, hi) have changed after epoch e?"
        # conservatively -- dropped history and overlaps both collapse
        # to True, never to a false "unchanged".
        self._write_epoch = 0
        self._write_floor = 0
        self._write_log: list[tuple[int, tuple[Region, ...]]] = []
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Row accounting
    # ------------------------------------------------------------------
    @property
    def touched_count(self) -> int:
        """How many distinct PEs have been touched."""
        return int(self._touched.sum())

    def touched_ids(self) -> list[int]:
        """Touched PE ids in ascending order."""
        return [int(pe) for pe in np.flatnonzero(self._touched)]

    def touch(self, pe_ids) -> np.ndarray:
        """Materialize rows for ``pe_ids``; returns them as an id array."""
        ids = np.asarray(pe_ids, dtype=np.intp).reshape(-1)
        if ids.size:
            self._ensure(int(ids.min()), int(ids.max()) + 1)
            self._touched[ids] = True
        return ids

    def _ensure(self, lo: int, hi: int) -> None:
        """Grow (and possibly re-base) the backing array to cover [lo, hi).

        Double-checked under the growth lock: the in-bounds fast path
        stays lock-free, and two threads racing a first touch build
        the grown array once (the loser re-checks and returns).
        """
        nrows = self._data.shape[0]
        if nrows and lo >= self._base and hi <= self._base + nrows:
            return
        if lo < 0 or hi > self.max_rows:
            raise AllocationError(
                f"arena rows [{lo}, {hi}) outside [0, {self.max_rows})")
        with self._grow_lock:
            nrows = self._data.shape[0]
            if nrows and lo >= self._base and hi <= self._base + nrows:
                return
            new_base = min(lo, self._base) if nrows else lo
            new_end = max(hi, self._base + nrows) if nrows else hi
            # Geometric headroom upward, so touching PEs one by one costs
            # O(log n) reallocations instead of O(n).
            grown = max(new_end - new_base, 2 * nrows)
            new_end = max(new_end, min(new_base + grown, self.max_rows))
            fresh = np.zeros((new_end - new_base, self.mram_bytes),
                             dtype=np.uint8)
            if nrows:
                at = self._base - new_base
                fresh[at:at + nrows] = self._data
            self._base = new_base
            # A new array object: every binding resolved against the
            # old one notices on its next replay.
            self._data = fresh
            self._flat_views = {}

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        return ids - self._base

    def _check_span(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.mram_bytes:
            raise TransferError(
                f"MRAM access [{offset}, {offset + nbytes}) outside "
                f"[0, {self.mram_bytes})")

    # ------------------------------------------------------------------
    # Write tracking (fingerprint-cache invalidation)
    # ------------------------------------------------------------------
    @property
    def write_epoch(self) -> int:
        """Monotonic count of noted content mutations."""
        return self._write_epoch

    def note_write(self, *regions: Region) -> None:
        """Record a (possible) content change over ``regions`` (one entry).

        Compared by columns only on purpose: a column overlap on *any*
        row is enough to force a rescan -- elision plans are cheap to
        rebuild, wrong ones are not.  Back-to-back notes of the same
        region objects (one op replayed in a tight loop) collapse into
        one entry, so the bounded log never churns.
        """
        with self._write_lock:
            self._write_epoch += 1
            log = self._write_log
            if log and log[-1][1] == regions:
                log[-1] = (self._write_epoch, regions)
            else:
                log.append((self._write_epoch, regions))
                if len(log) > WRITE_LOG_MAX:
                    self._write_floor = log[0][0]
                    del log[0]

    def writes_since(self, epoch: int, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi)`` may have changed after ``epoch``.

        True whenever a logged interval written after ``epoch``
        overlaps, and whenever ``epoch`` predates the retained log
        (dropped entries are assumed to overlap).
        """
        with self._write_lock:
            if epoch < self._write_floor:
                return True
            for e, regions in reversed(self._write_log):
                if e <= epoch:
                    break
                if any(r.offset < hi and lo < r.end for r in regions):
                    return True
        return False

    def regions_since(self, epoch: int) -> list[Region] | None:
        """Every region logged after ``epoch``; None once the log's
        floor has passed it (the dropped history is unknown)."""
        with self._write_lock:
            if epoch < self._write_floor:
                return None
            return [region for e, regions in self._write_log
                    if e > epoch for region in regions]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def row_view(self, pe_id: int) -> np.ndarray:
        """Zero-copy view of one PE's whole bank (touches the PE).

        Re-derived from the current backing array on every call, so it
        is always safe to use even after the arena has grown.  One id
        needs no array reductions: the per-PE kernels call this per
        tile.
        """
        pe_id = int(pe_id)
        self._ensure(pe_id, pe_id + 1)
        self._touched[pe_id] = True
        return self._data[pe_id - self._base]

    def lane_view(self, pe_ids, offset: int, nbytes: int) -> np.ndarray | None:
        """Zero-copy ``(len(pe_ids), nbytes)`` window, when one exists.

        Returns a basic-slice view of the backing array when the PE
        list is a single id, a contiguous run, or a constant positive
        stride (the layouts the hypercube mapping produces for
        entangled groups); returns None for any other ordering, in
        which case callers fall back to one gather/scatter.
        """
        self._check_span(offset, nbytes)
        ids = self.touch(pe_ids)
        if ids.size == 0:
            return None
        rows = self._rows(ids)
        span = self._data[:, offset:offset + nbytes]
        if ids.size == 1:
            return span[rows[0]:rows[0] + 1]
        steps = np.diff(ids)
        step = int(steps[0])
        if step > 0 and bool((steps == step).all()):
            return span[rows[0]:rows[-1] + 1:step]
        return None

    def window(self, pe_ids, offset: int, nbytes: int) -> Window:
        """Resolve ``nbytes`` at ``offset`` over ``pe_ids`` (touches them).

        The strided :meth:`lane_view` when one exists, else the column
        span plus a row index.  Valid until the backing array is
        reallocated.
        """
        view = self.lane_view(pe_ids, offset, nbytes)
        if view is not None:
            return Window(view, None, nbytes)
        ids = self.touch(pe_ids)
        return Window(self._data[:, offset:offset + nbytes],
                      self._rows(ids), nbytes)

    def bind(self, regions: Sequence[Region], gather=None) -> BoundWindows:
        """Resolve ``regions`` against this layout, plus the
        :meth:`stream_table` of ``gather`` when one is named.

        Every row is touched before any window or table is taken, so a
        growth the touches trigger cannot strand one on the old array.
        """
        for region in regions:
            self.touch(region.rows)
        if gather is not None:
            self.touch(gather[0].rows)
        data = self._data
        return BoundWindows(data, tuple(
            self.window(r.rows, r.offset, r.nbytes) for r in regions),
            None if gather is None
            else self.stream_table(*gather, writeable=True))

    # ------------------------------------------------------------------
    # Compiled-replay flat gathers
    # ------------------------------------------------------------------
    def stream_width(self, offset: int, chunk_bytes: int) -> int:
        """Element width for flat arena-global gathers at this layout.

        The whole chunk when every chunk lands on a chunk-multiple of
        the flattened backing array (``mram_bytes`` and ``offset`` both
        chunk-aligned); otherwise the widest native element (8/4/2/1
        bytes) that divides all three, so the flat index still
        addresses every chunk exactly.
        """
        if self.mram_bytes % chunk_bytes == 0 and offset % chunk_bytes == 0:
            return chunk_bytes
        width = 8
        while chunk_bytes % width or offset % width or self.mram_bytes % width:
            width //= 2
        return width

    def stream_table(self, source: Region, ngroups: int,
                     chunk_bytes: int, lane_table: np.ndarray,
                     slot_table: np.ndarray, writeable: bool = False
                     ) -> tuple[np.ndarray, int]:
        """Arena-global flat gather table of a compiled op (any band).

        Lifts a per-group ``(lanes, nslots_out)`` (lane, slot) table
        pair over the chunks of ``source`` into element indices over the
        whole backing array viewed as :meth:`flat_wide` elements: row
        ``r = g * lanes + l`` of the returned ``(len(source.rows),
        nslots_out * chunk_bytes // width)``
        table holds the source elements of output row ``r``, so a band
        of output rows gathers with one ``np.take(..., out=)`` straight
        from the strided source -- no staging copy, and total index
        work independent of the band count.  Returns ``(table,
        width)``; the table is only valid until the arena reallocates
        (:class:`BoundWindows` keeps it with the windows of the same
        layout).

        Every index is range-checked here, once per layout, so the
        band takes can skip numpy's per-call check (``mode="raise"``
        buffers ``out`` behind a hidden temporary): a lane outside the
        group, or a chunk not wholly inside its PE's MRAM bank, raises
        :class:`~repro.errors.TransferError` instead of wrapping or
        spilling into a neighbouring PE's row.

        The table is returned read-only unless ``writeable``: a binding
        (:meth:`bind`) keeps a writeable one for its take kernels and
        publishes a read-only view of it.
        """
        offset = source.offset
        width = self.stream_width(offset, chunk_bytes)
        ids = self.touch(source.rows)
        lanes = ids.size // ngroups
        if lane_table.size and (lane_table.min() < 0
                                or lane_table.max() >= lanes):
            raise TransferError(f"stream table lane outside [0, {lanes})")
        if slot_table.size:
            lo = offset + int(slot_table.min()) * chunk_bytes
            hi = offset + (int(slot_table.max()) + 1) * chunk_bytes
            if offset < 0 or lo < 0 or hi > self.mram_bytes:
                raise TransferError(
                    f"stream table reads MRAM [{lo}, {hi}) outside "
                    f"[0, {self.mram_bytes})")
        per = chunk_bytes // width
        src_rows = self._rows(ids).reshape(ngroups, lanes)[:, lane_table]
        table = (src_rows * (self.mram_bytes // width)
                 + slot_table * per + offset // width)
        if per > 1:
            table = table[..., None] + np.arange(per, dtype=np.intp)
        table = np.ascontiguousarray(table.reshape(ids.size, -1),
                                     dtype=np.intp)
        return (table if writeable else _read_only(table)), width

    def flat_wide(self, width: int) -> np.ndarray:
        """The whole backing array as one flat run of wide elements.

        Cached per width and rebuilt after growth, so steady-state
        band gathers create no new array objects.  Built under the
        growth lock so concurrent band workers hitting a cold cache
        share one read-consistent view.
        """
        view = self._flat_views.get(width)
        if view is None:
            with self._grow_lock:
                view = self._flat_views.get(width)
                if view is None:
                    view = self._data.reshape(-1).view(wide_dtype(width))
                    self._flat_views[width] = view
        return view

    def take_band(self, table: np.ndarray, width: int, r0: int, r1: int,
                  out: np.ndarray) -> None:
        """Gather one row band of a :meth:`stream_table` into ``out``.

        Unbuffered: :meth:`stream_table` range-checked every index, so
        the take runs in ``mode="wrap"`` and writes ``out`` directly
        (``"raise"`` gathers into a hidden temporary, then copies).
        Allocation-free when ``table`` is writeable (a binding's
        :meth:`~BoundWindows.gather_table`); a read-only index array
        is copied by every take.
        """
        self.flat_wide(width).take(table[r0:r1], out=out, mode="wrap")

    def take_select(self, table: np.ndarray, width: int,
                    rows: np.ndarray, out: np.ndarray) -> None:
        """Gather an arbitrary row subset of a :meth:`stream_table`.

        The elision-aware replay path gathers only the representative
        output rows (first occurrence of each distinct content class)
        and fills or aliases the rest, so the expensive strided gather
        shrinks with the elision rate.  Unbuffered, like
        :meth:`take_band`.
        """
        self.flat_wide(width).take(table[rows], out=out, mode="wrap")

    # ------------------------------------------------------------------
    # Bulk transfers.  The copy kernels log nothing: the writer that
    # calls them notes its regions (:meth:`note_write`).
    # ------------------------------------------------------------------
    def read_rows(self, pe_ids, offset: int, nbytes: int,
                  out: np.ndarray | None = None,
                  window: Window | None = None) -> np.ndarray:
        """Copy ``nbytes`` at ``offset`` from each PE into a lane matrix.

        ``out`` (a ``(len(pe_ids), nbytes)`` uint8 matrix) receives the
        copy instead of a fresh allocation, for callers that read the
        same shape on every call.  The copy methods below all take an
        optional pre-resolved ``window`` (a bound replay's); without
        one they resolve ``pe_ids`` on the spot.
        """
        if window is None:
            window = self.window(pe_ids, offset, nbytes)
        if window.rows is None:
            if out is None:
                return window.view.copy()
            np.copyto(out, window.view)
            return out
        # The column window is sliced first, then gathered: the fancy
        # index copies only the requested bytes, never whole rows.
        rows = window.view[window.rows]
        if out is None:
            return rows
        np.copyto(out, rows)
        return out

    # Kept only because benchmarks/e2e/tracer.py lists this name; drop
    # it with the next change to the benchmark's target list.
    def gather_chunks(self, pe_ids, offset: int, nslots: int,
                      chunk_bytes: int, ngroups: int,
                      lane_table: np.ndarray,
                      slot_table: np.ndarray) -> np.ndarray:
        """Take-by-index-table over grouped rows (no replay kernel
        calls it).

        Views ``nslots * chunk_bytes`` bytes at ``offset`` from each PE
        as ``(ngroups, lanes, nslots, chunk_bytes)`` and gathers
        ``out[g, l, s] = block[g, lane[l, s], slot[l, s]]``: one
        contiguous staging copy of the block, then one take of
        ``chunk_bytes``-wide elements covering every group.
        """
        window = self.window(pe_ids, offset, nslots * chunk_bytes)
        block = (window.view if window.rows is None
                 else window.view[window.rows])
        wide = np.ascontiguousarray(block).view(wide_dtype(chunk_bytes))
        out = np.take(wide.reshape(ngroups, -1),
                      flat_chunk_table(lane_table, slot_table, nslots),
                      axis=1)
        return out.view(np.uint8).reshape(ngroups, *lane_table.shape,
                                          chunk_bytes)

    def write_rows(self, pe_ids, offset: int, matrix: np.ndarray,
                   window: Window | None = None) -> None:
        """Write lane-matrix rows into each PE at ``offset``."""
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.dtype != np.uint8:
            raise TransferError(
                f"expected 2-D uint8 lane matrix, got {mat.dtype} "
                f"ndim={mat.ndim}")
        if window is None:
            window = self.window(pe_ids, offset, mat.shape[1])
        if mat.shape != (window.n, window.nbytes):
            raise TransferError(
                f"lane matrix of shape {mat.shape} for {window.n} PEs x "
                f"{window.nbytes}B")
        if window.rows is None:
            window.view[:] = mat
            return
        window.view[window.rows] = mat

    def fill_rows(self, pe_ids, offset: int, row: np.ndarray,
                  window: Window | None = None) -> None:
        """Write the same 1-D uint8 buffer to every listed PE."""
        buf = np.asarray(row)
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise TransferError(
                f"MRAM writes take 1-D uint8 buffers, got {buf.dtype} "
                f"ndim={buf.ndim}")
        if window is None:
            window = self.window(pe_ids, offset, buf.size)
        if buf.size != window.nbytes:
            raise TransferError(
                f"{buf.size}B buffer for a {window.nbytes}B window")
        if window.rows is None:
            window.view[:] = buf
            return
        window.view[window.rows] = buf

    def zero_fill_rows(self, pe_ids, offset: int, nbytes: int) -> None:
        """Make ``nbytes`` at ``offset`` read all-zero on every row.

        Semantically :meth:`fill_rows` with a zero buffer, but
        verify-first: rows whose region already reads zero are left
        untouched.  A wide read costs well under half a rewrite, and
        the caller -- the elision layer's zero-row fill -- hits the
        already-clean case on every steady-state replay of the same
        sparse collective, so repeated elisions stop dirtying pages.
        Concurrency-safe under the arena's disjoint-rows contract:
        the verify and the conditional write touch only the given
        rows' byte range.
        """
        window = self.window(pe_ids, offset, nbytes)
        rows = window.rows
        dirty = (window.view if rows is None
                 else window.view[rows]).any(axis=1)
        if dirty.any():
            window.view[dirty if rows is None else rows[dirty]] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryArena({self._data.shape[0]} rows @ base "
                f"{self._base}, {self.touched_count} touched, "
                f"{self.mram_bytes}B each)")


class ScratchPool:
    """Streaming scratch: reusable tile buffers, one per role.

    Streamed replay (``CommProgram.replay(..., tile_bytes=...)``) moves
    every payload through bounded reusable buffers: **pong** receives
    each gathered output band and **fold** holds the band's reduce
    accumulator; the gather itself reads straight from the arena, so
    no source block is ever staged.  Buffers grow geometrically on
    demand and are then reused for every band of every op of every
    replay, so pool memory is O(tile), not O(payload).  An in-place
    op whose output rows read only their own source rows (the
    PE-local reorder that opens ReduceScatter and AllReduce) bands
    through pong like any other; only an in-place op whose rows read
    across rows cannot band, and it gathers its whole-op band into
    one transient array instead, so pong never grows to the payload.

    Each role memoises its last view: a band loop asks for the same
    shape band after band, and rebuilding the view cost about as much
    as a one-row band's gather.  A view of a grown buffer is never
    reused, because growth only happens while building a new view.

    ``peak_bytes`` records the high-water mark of simultaneously
    requested view bytes -- at most two tiles (pong + the fold
    sliver); the ``large_replay`` benchmark workload's
    ``peak_rss_mb`` watches it.
    """

    #: buffer roles, in index order.
    ROLES = ("pong", "fold")

    def __init__(self) -> None:
        self._bufs = [np.empty(0, dtype=np.uint8) for _ in self.ROLES]
        self._live = [0] * len(self.ROLES)
        #: per role: ``(shape, dtype, view, nbytes)`` of its last view.
        self._last: list[tuple | None] = [None] * len(self.ROLES)
        self.peak_bytes = 0

    @property
    def capacity_bytes(self) -> int:
        """Total bytes currently backing all buffers."""
        return sum(buf.nbytes for buf in self._bufs)

    def _view(self, index: int, shape: tuple[int, ...],
              dtype) -> np.ndarray:
        last = self._last[index]
        if last is not None and last[0] == shape and last[1] == dtype:
            view, nbytes = last[2], last[3]
        else:
            dt = np.dtype(dtype)
            count = 1
            for dim in shape:
                count *= int(dim)
            nbytes = count * dt.itemsize
            buf = self._bufs[index]
            if buf.nbytes < nbytes:
                # Geometric growth: repeated replays with slightly
                # varying tile shapes converge on O(1) reallocations.
                buf = np.empty(max(nbytes, 2 * buf.nbytes), dtype=np.uint8)
                self._bufs[index] = buf
            view = buf[:nbytes].view(dt).reshape(shape)
            self._last[index] = (shape, dtype, view, nbytes)
        self._live[index] = nbytes
        live = sum(self._live)
        if live > self.peak_bytes:
            self.peak_bytes = live
        return view

    def pong(self, shape: tuple[int, ...], dtype=np.uint8) -> np.ndarray:
        """Output view for one gathered/fanned row band."""
        return self._view(0, shape, dtype)

    def fold(self, shape: tuple[int, ...], dtype=np.uint8) -> np.ndarray:
        """Accumulator view for one reduce-fold band (chunk-sized rows)."""
        return self._view(1, shape, dtype)

    def release(self) -> None:
        """Mark all views dead for peak accounting (buffers are kept)."""
        self._live = [0] * len(self.ROLES)

    def reset_peak(self) -> None:
        """Restart the high-water mark (e.g. per engine session)."""
        self.peak_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScratchPool({self.capacity_bytes}B capacity, "
                f"peak {self.peak_bytes}B)")
