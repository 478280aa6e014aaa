"""The execution schedule: one frozen value for the knobs someone decides.

A schedule holds only the decisions the tuner makes per shape --
streaming tile size, content-aware elision and the optimization rung
-- the way HeteroCL separates an algorithm from its schedule.
:class:`Schedule` is frozen, validated at construction, and rewritten
through composable transforms::

    s = Schedule.default().with_tile(8 << 20).with_elide()

What the *session* owns is not here: the system backend, whether plans
are compiled at all (``SessionConfig.execution``) and whether streamed
bands fan out over a worker pool (``parallel_workers``) are facts of
the :class:`~repro.engine.Communicator` a schedule runs on;
``CommResult.execution`` reports what ran.  A compiled program depends
on its plan alone, so one program serves every schedule of a rung.

Every schedule replays bit-identical to the scalar interpreted oracle
-- a schedule only chooses *how* the same collective executes, never
what it computes (``tests/test_schedule.py`` sweeps all eight
primitives per backend against the oracle).  The cost-model-guided
search over schedules lives in :mod:`repro.analysis.autotune`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...errors import CollectiveError
from .config import FULL, OptConfig


@dataclass(frozen=True)
class Schedule:
    """A fully resolved execution strategy for one collective shape.

    Args:
        tile_bytes: Streaming scratch budget (None = untiled); streamed
            replay runs the compiled program's row bands tile by tile.
        elide: Whether replay fingerprint-scans movement sources and
            skips the transfer of all-zero / duplicate output rows
            (content-aware elision; results stay bit-identical at any
            elision rate).
        rung: The :class:`OptConfig` optimization rung the plan is
            built at.

    On a session that interprets (``execution="interpreted"``) only
    ``rung`` has any effect: there is no program to tile or elide.
    """

    tile_bytes: int | None = None
    elide: bool = False
    rung: OptConfig = FULL

    def __post_init__(self) -> None:
        """Reject invalid knob values at construction."""
        if self.tile_bytes is not None and self.tile_bytes <= 0:
            raise CollectiveError(
                f"schedule tile_bytes must be positive, got "
                f"{self.tile_bytes}")
        if not isinstance(self.rung, OptConfig):
            raise CollectiveError(
                f"schedule rung must be an OptConfig, got {self.rung!r}")

    @classmethod
    def default(cls) -> "Schedule":
        """The naive schedule a fresh session implies: untiled replay,
        no elision, FULL rung."""
        return cls()

    # ------------------------------------------------------------------
    # Composable transforms (each returns a new validated value)
    # ------------------------------------------------------------------
    def with_tile(self, tile_bytes: int) -> "Schedule":
        """Schedule streaming through ``tile_bytes``-sized row bands."""
        return replace(self, tile_bytes=tile_bytes)

    def untiled(self) -> "Schedule":
        """Schedule replaying in one unstreamed pass."""
        return replace(self, tile_bytes=None)

    def with_elide(self, flag: bool = True) -> "Schedule":
        """Schedule with content-aware transfer elision on (or off)."""
        return replace(self, elide=flag)

    def with_rung(self, rung: OptConfig) -> "Schedule":
        """Schedule planning at optimization rung ``rung``."""
        return replace(self, rung=rung)

    # ------------------------------------------------------------------
    # Identity and reporting
    # ------------------------------------------------------------------
    @property
    def signature(self) -> tuple:
        """Hashable identity (used by decision caches and tuner state)."""
        return (self.tile_bytes, self.elide, self.rung.label)

    def describe(self) -> str:
        """Compact one-line label, e.g. ``tile=8388608B +CM elide``."""
        tile = ("untiled" if self.tile_bytes is None
                else f"tile={self.tile_bytes}B")
        elide = " elide" if self.elide else ""
        return f"{tile} {self.rung.label}{elide}"
