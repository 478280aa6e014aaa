"""Session-owned worker pool: host-side thread parallelism for waves.

Hazard-independent requests inside one
:meth:`~repro.engine.Communicator.submit` wave touch disjoint MRAM
byte ranges, and their replays are numpy gathers/folds that release
the GIL, so plain threads overlap them on multi-core hosts -- the
UPMEM literature's observation that *host orchestration*, not PIM
compute, is the bottleneck.  A streamed replay's row bands run on the
thread that replays them (``docs/performance.md``, "Parallel
replay").

:class:`WorkerPool` wraps a ``ThreadPoolExecutor`` with the two
properties the engine needs:

* **Deterministic results** -- :meth:`run` returns results in task
  submission order, and raises the first (by submission order)
  task's exception, regardless of completion interleaving.
* **Private scratch** -- each worker thread lazily owns one
  :class:`~repro.hw.arena.ScratchPool` (:meth:`scratch`), so no tile
  buffer is ever shared between concurrently replaying wave members.

Parallelism changes wall-clock only.  Everything priced or counted --
CostLedger, SimdCounter, WRAM tiles, MRAM images, host outputs -- is
bit-identical at every worker count (``tests/test_parallel.py``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..hw.arena import ScratchPool

#: Stamped on worker threads so per-worker scratch lookups recognize
#: pool context.
_worker_state = threading.local()


class WorkerPool:
    """A bounded thread pool with per-worker streaming scratch.

    Args:
        workers: Maximum concurrent tasks (>= 1).  One worker degrades
            to inline serial execution with zero thread overhead.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Worker-thread context
    # ------------------------------------------------------------------
    @property
    def in_worker(self) -> bool:
        """True when the calling thread is one of this pool's workers."""
        return getattr(_worker_state, "pool", None) is self

    def scratch(self) -> ScratchPool:
        """The calling thread's private :class:`ScratchPool`.

        Lazily created per thread (worker or not) and cached on the
        thread, so steady-state band gathers allocate nothing and two
        threads can never hand out views of the same buffer.
        """
        pools = getattr(_worker_state, "scratch", None)
        if pools is None:
            pools = {}
            _worker_state.scratch = pools
        pool = pools.get(id(self))
        if pool is None:
            pool = ScratchPool()
            pools[id(self)] = pool
        return pool

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is shut down")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="pidcomm-worker",
                    initializer=self._init_worker)
            return self._executor

    def _init_worker(self) -> None:
        _worker_state.pool = self

    def run(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Execute ``tasks``; results in submission order.

        Serial inline when the pool has one worker or a single task.
        Callers never nest: a task that called :meth:`run` would wait
        on the bounded executor it occupies.  Exceptions propagate: the
        first submitted task that failed raises after all tasks have
        settled, so no task is ever abandoned mid-write.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers == 1 or len(tasks) == 1:
            return [task() for task in tasks]
        futures = [self._ensure_executor().submit(task) for task in tasks]
        results = []
        error = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Join the worker threads (idempotent; pool stays queryable)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerPool({self.workers} workers)"
