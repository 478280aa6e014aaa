"""Global-phase programs for hierarchical collectives.

The inter-host phase of a hierarchical collective is a first-class
*program*: a sequence of synchronized rounds of ``(src_host, dst_host,
nbytes)`` transfers, priced on a :class:`~repro.multihost.Fabric`.
Every program comes from one builder, the generalized exchange of
Kolmakov & Zhang ("A Generalization of the Allreduce Operation"):
factor ``N`` hosts into phases ``f_1 * ... * f_m``; each phase is a
factor ``f`` and a stride, and runs ``f - 1`` rounds inside the groups
of ``f`` hosts ``stride`` apart.  The classic schedules are special
factorizations of it:

* ``ring`` -- the single phase ``(N,)`` whose rounds all send to the
  next group member (the ring step): ``N-1`` rounds of minimal volume,
  the paper's testbed.  AlltoAll has no ring step; its ring is the
  direct pairwise exchange ``(N,)``.
* ``exchange`` -- any factorization, each round sending to the group
  member ``t`` places ahead.  Near-first (narrow strides first) keeps
  the bulky early phases of a rack-aligned split on leaf links and
  shrinks what crosses an oversubscribed spine; far-first (wide
  strides first) over ``(2, ..., 2)`` is recursive halving/doubling,
  ``log2 N`` rounds, which wins when per-round latency dominates.

Round builders shape *cost only*.  The functional global exchange is
canonical numpy (see ``hierarchical.py``): float reductions executed
round by round would depend on the chosen program, so every program
computes the same bits by construction -- the same plan/estimate split
the single-host engine uses.

Per-primitive payload convention (``nbytes`` below):

* ``allreduce`` / ``reduce_scatter`` -- the locally-reduced host
  vector each host starts with;
* ``allgather`` -- each host's contribution (final size is ``N x``);
* ``alltoall`` -- each host's outbound buffer (``N`` blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CollectiveError
from .fabric import Fabric

__all__ = ["GLOBAL_ALGORITHMS", "GlobalProgram", "compile_global",
           "default_factors", "factor_candidates"]

#: Round steps a global program may use: the ring step of the
#: single-phase ring, and the direct step of the generalized
#: multi-phase exchange.
GLOBAL_ALGORITHMS = ("ring", "exchange")

#: Primitives with a global phase.
GLOBAL_PRIMITIVES = ("allreduce", "reduce_scatter", "allgather", "alltoall")

Round = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class GlobalProgram:
    """One compiled inter-host exchange: rounds plus its fabric price."""

    primitive: str
    algorithm: str
    num_hosts: int
    #: Per-host payload bytes the rounds were built from.
    nbytes: int
    #: Phase factors, in the order their strides grow.
    factors: tuple[int, ...]
    #: Whether the phases run widest stride first.
    far_first: bool
    rounds: tuple[Round, ...]
    #: Modelled seconds on the fabric the program was compiled for.
    seconds: float
    #: Payload bytes entering the fabric (sum of transfer sizes; hops
    #: through switches do not multiply this).
    fabric_bytes: int

    def describe(self) -> str:
        """e.g. ``allreduce/exchange(2x2x2, far-first): 6 rounds, 1792 B``."""
        factors = "x".join(str(f) for f in self.factors)
        order = ", far-first" if self.far_first else ""
        return (f"{self.primitive}/{self.algorithm}({factors}{order}): "
                f"{len(self.rounds)} rounds, {self.fabric_bytes} B")


def compile_global(primitive: str, num_hosts: int, nbytes: int,
                   algorithm: str, fabric: Fabric,
                   factors: tuple[int, ...] | None = None, *,
                   far_first: bool = False) -> GlobalProgram:
    """Build and price one global-phase program.

    ``ring`` is the single phase ``(num_hosts,)`` and ignores
    ``factors`` and ``far_first``; ``exchange`` runs ``factors``
    (default: :func:`default_factors`) narrow stride first, or wide
    stride first with ``far_first``.  One host compiles to an empty
    (free) program.
    """
    if primitive not in GLOBAL_PRIMITIVES:
        raise CollectiveError(
            f"no global phase for primitive {primitive!r}; "
            f"known: {GLOBAL_PRIMITIVES}")
    if algorithm not in GLOBAL_ALGORITHMS:
        raise CollectiveError(
            f"unknown global algorithm {algorithm!r}; "
            f"known: {GLOBAL_ALGORITHMS}")
    if fabric.num_hosts != num_hosts:
        raise CollectiveError(
            f"fabric spans {fabric.num_hosts} hosts, program wants "
            f"{num_hosts}")
    if nbytes < 0:
        raise CollectiveError(f"negative payload {nbytes}")
    ring = algorithm == "ring"
    if ring:
        factors, far_first = (num_hosts,) if num_hosts > 1 else (), False
    else:
        factors = tuple(factors or default_factors(num_hosts, fabric))
        _check_factors(num_hosts, factors)
    rounds = _rounds(primitive, num_hosts, nbytes, factors, far_first,
                     ring and primitive != "alltoall")
    return GlobalProgram(
        primitive=primitive, algorithm=algorithm, num_hosts=num_hosts,
        nbytes=nbytes, factors=factors, far_first=far_first,
        rounds=rounds, seconds=fabric.program_seconds(rounds),
        fabric_bytes=sum(b for rnd in rounds for _, _, b in rnd))


def _rounds(primitive: str, n: int, nbytes: int, factors: tuple[int, ...],
            far_first: bool, ring: bool) -> tuple[Round, ...]:
    """Every global program's rounds: its phases in stride order.

    ReduceScatter runs the phases with shrinking shares (after a phase
    of factor ``f`` each host keeps ``1/f`` of what it held); AllGather
    is the exact mirror, phases reversed with growing shares; AllReduce
    is the one then the other; AlltoAll's phase forwards the blocks
    whose mixed-radix destination digit differs, ``B/f`` bytes to each
    group partner.
    """
    phases, stride = [], 1
    for f in factors:
        phases.append((f, stride))
        stride *= f
    if far_first:
        phases.reverse()
    if primitive == "alltoall":
        return tuple(rnd for f, stride in phases
                     for rnd in _phase(n, f, stride, -(-nbytes // f), ring))
    rounds: list[Round] = []
    held = nbytes
    if primitive != "allgather":
        for f, stride in phases:
            held = -(-held // f)  # ceil: cost never understates a message
            rounds.extend(_phase(n, f, stride, held, ring))
    if primitive != "reduce_scatter":
        for f, stride in reversed(phases):
            rounds.extend(_phase(n, f, stride, held, ring))
            held *= f
    return tuple(rounds)


def _phase(n: int, f: int, stride: int, share: int,
           ring: bool) -> list[Round]:
    """One phase: ``f - 1`` rounds inside the groups of hosts
    ``{base + i * stride}``; in round ``t`` every host sends ``share``
    bytes to the group member ``t`` positions ahead, or to the next
    one under the ring step."""
    rounds = []
    for t in range(1, f):
        step = 1 if ring else t
        transfers = []
        for h in range(n):
            pos = (h // stride) % f
            partner = h + (((pos + step) % f) - pos) * stride
            transfers.append((h, partner, share))
        rounds.append(tuple(transfers))
    return rounds


def _check_factors(n: int, factors: tuple[int, ...]) -> None:
    product = 1
    for f in factors:
        if f < 2:
            raise CollectiveError(
                f"exchange factors must all be >= 2, got {factors}")
        product *= f
    if product != n:
        raise CollectiveError(
            f"exchange factors {factors} do not multiply to {n} hosts")


def default_factors(num_hosts: int, fabric: Fabric) -> tuple[int, ...]:
    """The exchange factorization to use absent an explicit choice:
    rack-aligned (hosts-per-rack, racks) on a rack topology, the
    ascending prime decomposition otherwise."""
    if num_hosts == 1:
        return ()
    per_rack = fabric.hosts_per_rack
    if per_rack and 1 < per_rack < num_hosts \
            and num_hosts % per_rack == 0:
        return (per_rack, num_hosts // per_rack)
    return _prime_factors(num_hosts)


def factor_candidates(num_hosts: int, fabric: Fabric
                      ) -> tuple[tuple[int, ...], ...]:
    """Factorizations worth pricing: the default, the single-phase
    direct exchange, and (on rack topologies) the rack-aligned split."""
    candidates = [default_factors(num_hosts, fabric)]
    if num_hosts > 1:
        for extra in (_prime_factors(num_hosts), (num_hosts,)):
            if extra not in candidates:
                candidates.append(extra)
    return tuple(candidates)


def _prime_factors(n: int) -> tuple[int, ...]:
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)
