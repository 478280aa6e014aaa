"""The execution schedule: one frozen value for the knobs someone decides.

A schedule holds only the decisions that rewrite how a compiled
program is built or replayed -- streaming tile size, the compiler's
fusion cap, content-aware elision, the optimization rung and (for
hierarchical runs) the inter-host algorithm -- the way HeteroCL
separates an algorithm from its schedule.  :class:`Schedule` is frozen,
validated at construction, attached to the
:class:`~repro.core.collectives.program.CommProgram` it compiled, and
rewritten through composable transforms::

    s = Schedule.default().with_tile(8 << 20)
    program = plan.compile(system, schedule=s.fused(2))
    s.fused(2).check(program)   # asserts the fused structure

What the *session* owns is not here: the system backend, whether plans
are compiled at all (``SessionConfig.execution``) and whether streamed
bands fan out over a worker pool (``parallel_workers``) are facts of
the :class:`~repro.engine.Communicator` a schedule runs on;
``CommResult.execution`` reports what ran.

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

#: Global-phase algorithms a hierarchical (multi-host) schedule may
#: select for the inter-host exchange: the standard ring, recursive
#: halving/doubling (power-of-two host counts), and the generalized
#: multi-phase exchange of Kolmakov & Zhang whose phase factors can be
#: aligned to a rack topology.  ``None`` on a schedule means
#: single-host (no global phase) or "let the global tuner decide".
GLOBAL_ALGORITHMS = ("ring", "halving_doubling", "exchange")


@dataclass(frozen=True)
class Schedule:
    """A fully resolved execution strategy for one collective shape.

    Args:
        tile_bytes: Streaming scratch budget (None = untiled); streamed
            replay runs the compiled program's row bands tile by tile.
        fusion_depth: Maximum number of source ops one fused program op
            may absorb (1 = no fusion, None = unlimited greedy fusion).
        elide: Whether replay fingerprint-scans movement sources and
            skips the transfer of all-zero / duplicate output rows
            (content-aware elision; results stay bit-identical at any
            elision rate).
        rung: The :class:`OptConfig` optimization rung the plan is
            built at.
        global_algorithm: For hierarchical (multi-host) runs, the
            inter-host algorithm the global phase executes
            (:data:`GLOBAL_ALGORITHMS`).  ``None`` for single-host
            schedules.  Like every other knob it chooses *how* the
            collective runs, never what it computes: all global
            algorithms are bit-identical.

    On a session that interprets (``execution="interpreted"``) only
    ``rung`` has any effect: there is no program to tile, fuse or elide.
    """

    tile_bytes: int | None = None
    fusion_depth: int | None = None
    elide: bool = False
    rung: OptConfig = FULL
    global_algorithm: str | None = None

    def __post_init__(self) -> None:
        """Reject invalid knob values at construction."""
        if self.tile_bytes is not None and self.tile_bytes <= 0:
            raise CollectiveError(
                f"schedule tile_bytes must be positive, got "
                f"{self.tile_bytes}")
        if self.fusion_depth is not None and self.fusion_depth < 1:
            raise CollectiveError(
                f"fusion_depth must be >= 1 (or None for unlimited), "
                f"got {self.fusion_depth}")
        if not isinstance(self.rung, OptConfig):
            raise CollectiveError(
                f"schedule rung must be an OptConfig, got {self.rung!r}")
        if self.global_algorithm is not None \
                and self.global_algorithm not in GLOBAL_ALGORITHMS:
            raise CollectiveError(
                f"unknown global algorithm {self.global_algorithm!r}; "
                f"known: {GLOBAL_ALGORITHMS}")

    @classmethod
    def default(cls) -> "Schedule":
        """The naive schedule a fresh session implies: untiled replay,
        greedy fusion, no elision, FULL rung."""
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

    def fused(self, depth: int | None) -> "Schedule":
        """Schedule capping fusion at ``depth`` source ops per fused op
        (1 = no fusion, None = unlimited)."""
        return replace(self, fusion_depth=depth)

    def with_elide(self, flag: bool = True) -> "Schedule":
        """Schedule with content-aware transfer elision on (or off)."""
        return replace(self, elide=flag)

    def with_rung(self, rung: OptConfig) -> "Schedule":
        """Schedule planning at optimization rung ``rung``."""
        return replace(self, rung=rung)

    def with_global_algorithm(self, algorithm: str | None) -> "Schedule":
        """Schedule whose global (inter-host) phase runs ``algorithm``
        (None = single-host / tuner-decided)."""
        return replace(self, global_algorithm=algorithm)

    # ------------------------------------------------------------------
    # Identity and reporting
    # ------------------------------------------------------------------
    @property
    def signature(self) -> tuple:
        """Hashable identity (used by decision caches and tuner state)."""
        return (self.tile_bytes, self.fusion_depth, self.elide,
                self.rung.label, self.global_algorithm)

    def describe(self) -> str:
        """Compact one-line label, e.g. ``tile=8388608B fuse=* +CM
        elide``."""
        tile = ("untiled" if self.tile_bytes is None
                else f"tile={self.tile_bytes}B")
        fuse = "*" if self.fusion_depth is None else str(self.fusion_depth)
        elide = " elide" if self.elide else ""
        glob = (f" global={self.global_algorithm}"
                if self.global_algorithm else "")
        return f"{tile} fuse={fuse} {self.rung.label}{elide}{glob}"

    # ------------------------------------------------------------------
    # HeteroCL-style structure assertion
    # ------------------------------------------------------------------
    def check(self, program) -> "Schedule":
        """Assert ``program``'s structure realizes this schedule.

        Raises :class:`CollectiveError` when the compiled structure
        contradicts a knob: a fused op wider than ``fusion_depth``.
        Returns the schedule so assertions chain like the transforms do.
        """
        widths = [max(1, len(op.labels)) for op in program.ops]
        if self.fusion_depth is not None and widths \
                and max(widths) > self.fusion_depth:
            raise CollectiveError(
                f"program fuses {max(widths)} source ops into one op, "
                f"schedule caps fusion at {self.fusion_depth}:\n"
                f"{program.describe()}")
        return self
