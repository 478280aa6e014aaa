"""The frozen session configuration: one object, one construction path.

:class:`SessionConfig` is the single value a
:class:`~repro.engine.Communicator` (and a
:class:`~repro.serving.CollectiveServer`, and every host of a
:class:`~repro.multihost.MultiHostSystem`) is built from::

    from repro import Communicator, SessionConfig

    cfg = SessionConfig(functional=False, backend="vectorized",
                        stream_tile_bytes=8 << 20)
    comm = Communicator(manager, cfg)

Freezing matters for the serving front-end (``repro.serving``): a
:class:`~repro.serving.CollectiveServer` admits many tenants onto one
session, so the session's configuration must be a value that can be
validated once, shared, compared, and stamped into reports -- not a
bag of mutable attributes.  Because it is the only door into a
session, ``__post_init__`` checks every field's type and range.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from ..core.collectives import FULL, OptConfig
from ..errors import CollectiveError
from ..reliability import FaultInjector, ReliabilityPolicy
from .cache import DEFAULT_MAXSIZE

#: Execution strategies for cached plans (``SessionConfig(execution=...)``).
EXECUTION_MODES = ("auto", "interpreted", "compiled")


def _is_int(value: Any) -> bool:
    """A real integer: ``bool`` is an ``int`` subclass and is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SessionConfig:
    """Everything that shapes one :class:`~repro.engine.Communicator`.

    Args:
        config: Default :class:`OptConfig` (per-call overrides allowed).
        functional: Whether calls move real bytes (False = analytic
            pricing only); overridable per call and per batch.
        cache_size: Plan-cache bound (None = unbounded; default
            :data:`~repro.engine.cache.DEFAULT_MAXSIZE`, LRU).  0
            caches nothing: every call plans and compiles afresh.
        reliability: Retry/degradation policy.  Defaults to
            :data:`~repro.reliability.RELIABLE` when a fault injector
            is supplied, else None (faults propagate to the caller).
        fault_injector: Attached to the manager's system so every
            transfer and launch consults it, on the interpreted and the
            compiled path alike (``docs/reliability.md``).
        backend: Store to switch the manager's system to.  Compiled
            replay runs on the lane-major arena only, so a session that
            compiles (``execution`` ``"auto"`` or ``"compiled"``) runs
            ``"vectorized"``: None derives it, and ``"scalar"`` raises.
            The per-PE ``"scalar"`` store serves the interpreted oracle
            (``execution="interpreted"``), where None keeps the
            system's current store (``docs/performance.md``).
        execution: ``"auto"`` (default) and ``"compiled"`` replay
            cached plans through compiled programs on the arena;
            ``"interpreted"`` always interprets steps (with
            ``backend="scalar"``, the differential-test oracle).
            Fault injection and the reliability policy work the same
            under every mode.
        stream_tile_bytes: Streaming scratch budget per buffer.  When
            set, compiled replays run tile-by-tile through one
            session-owned scratch pool, gathering straight from the
            arena; peak working memory is bounded to O(tile)
            (``docs/performance.md``).  None (default) replays
            unstreamed.  Requires a compiled-capable execution mode.
        parallel_workers: Host threads replaying independent work
            concurrently (default 1 = serial, today's behavior).
            With N > 1 the session owns a
            :class:`~repro.engine.parallel.WorkerPool`: hazard-free
            requests of one ``submit()`` wave run concurrently, and
            streamed replays fan their row bands across the workers,
            each with private scratch.  Results, ledgers and counters
            are bit-identical at every worker count -- only wall-clock
            changes.  Sessions with a fault injector or reliability
            policy run waves serially (counted in
            ``EngineStats.parallel_fallbacks``): the injector's RNG is
            one stateful stream.  Row bands fan out in every session,
            since each op draws its faults before its bands move
            (``docs/performance.md``).
        elide_transfers: Content-aware transfer elision (default
            False).  When True, compiled replays fingerprint-scan
            their movement sources and skip the gather and bus charge
            for all-zero / byte-identical output rows, substituting a
            broadcast fill or an aliased copy of the verified
            representative -- results stay bit-identical to the
            interpreted oracle at any elision rate, and scan work is
            priced to the ledger's ``elide`` category.  The scan reads
            the arena's write log, so it requires a compiled-capable
            execution mode (``execution="interpreted"`` raises)
            (``docs/performance.md``).
    """

    config: OptConfig = FULL
    functional: bool = True
    cache_size: int | None = DEFAULT_MAXSIZE
    reliability: ReliabilityPolicy | None = None
    fault_injector: FaultInjector | None = None
    backend: str | None = None
    execution: str = "auto"
    stream_tile_bytes: int | None = None
    parallel_workers: int = 1
    elide_transfers: bool = False

    def __post_init__(self) -> None:
        """Validate the combination once, at construction."""
        for name, kind, optional in (
                ("config", OptConfig, False), ("functional", bool, False),
                ("elide_transfers", bool, False),
                ("reliability", ReliabilityPolicy, True),
                ("fault_injector", FaultInjector, True)):
            value = getattr(self, name)
            if not isinstance(value, kind) \
                    and not (optional and value is None):
                raise CollectiveError(
                    f"{name} must be of type {kind.__name__}"
                    f"{' or None' if optional else ''}, got {value!r}")
        if self.execution not in EXECUTION_MODES:
            raise CollectiveError(
                f"unknown execution mode {self.execution!r}; "
                f"known: {EXECUTION_MODES}")
        if self.cache_size is not None and (
                not _is_int(self.cache_size) or self.cache_size < 0):
            raise CollectiveError(
                f"cache_size must be an int >= 0 or None, got "
                f"{self.cache_size!r}")
        if self.stream_tile_bytes is not None:
            if not _is_int(self.stream_tile_bytes) \
                    or self.stream_tile_bytes <= 0:
                raise CollectiveError(
                    f"stream_tile_bytes must be a positive int, got "
                    f"{self.stream_tile_bytes!r}")
            if self.execution == "interpreted":
                raise CollectiveError(
                    "stream_tile_bytes streams compiled replays; use "
                    "execution='auto' or 'compiled'")
        if not _is_int(self.parallel_workers) or self.parallel_workers < 1:
            raise CollectiveError(
                f"parallel_workers must be an int >= 1, got "
                f"{self.parallel_workers!r}")
        if self.backend is not None \
                and self.backend not in ("scalar", "vectorized"):
            raise CollectiveError(
                f"unknown backend {self.backend!r}; "
                f"known: ('scalar', 'vectorized')")
        if self.backend == "scalar" and self.execution != "interpreted":
            raise CollectiveError(
                f"execution={self.execution!r} compiles, and compiled "
                f"replay runs on the 'vectorized' arena only; the "
                f"'scalar' store takes execution='interpreted'")
        if self.elide_transfers and self.execution == "interpreted":
            raise CollectiveError(
                "elide_transfers runs in compiled replay; use "
                "execution='auto' or 'compiled'")

    def evolve(self, **changes: Any) -> "SessionConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary naming only the non-default choices."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                label = getattr(value, "label", value)
                parts.append(f"{f.name}={label}")
        return f"SessionConfig({', '.join(parts)})"
