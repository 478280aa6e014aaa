"""Global-phase algorithms for hierarchical collectives.

The inter-host phase of a hierarchical collective is a first-class
*program*: a sequence of synchronized rounds of ``(src_host, dst_host,
nbytes)`` transfers, built by one of three algorithm families and
priced on a :class:`~repro.multihost.Fabric`:

* ``ring`` -- the classic ring / pairwise schedules (the paper's
  testbed; flat ``(N-1)/N`` volume): ``N-1`` rounds, minimal volume,
  linear latency.
* ``halving_doubling`` -- recursive halving/doubling (and Bruck for
  AlltoAll): ``log2 N`` rounds, so it wins when per-round latency
  dominates; power-of-two host counts only.
* ``exchange`` -- the generalized exchange of Kolmakov & Zhang ("A
  Generalization of the Allreduce Operation"): factor ``N`` into
  phases ``f_1 * ... * f_m``, each phase exchanging within stride
  groups of ``f_j`` hosts.  Rack-aligned factors (hosts-per-rack
  first, racks second) keep the bulky early phases on leaf links and
  shrink what crosses an oversubscribed spine -- the topology win the
  :class:`~repro.multihost.GlobalTuner` searches for.

Round builders shape *cost only*.  The functional global exchange is
canonical numpy (identical for every algorithm, see
``hierarchical.py``), so all algorithms are bit-identical by
construction -- the same plan/estimate split the single-host engine
uses.

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

#: Global-phase algorithms a hierarchical (multi-host) collective may
#: run for the inter-host exchange, in tie-break order: the standard
#: ring, recursive halving/doubling (power-of-two host counts), and the
#: generalized multi-phase exchange of Kolmakov & Zhang whose phase
#: factors can be aligned to a rack topology.
GLOBAL_ALGORITHMS = ("ring", "halving_doubling", "exchange")

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
    #: Phase factors (exchange only; () otherwise).
    factors: tuple[int, ...]
    rounds: tuple[Round, ...]
    #: Modelled seconds on the fabric the program was compiled for.
    seconds: float
    #: Payload bytes entering the fabric (sum of transfer sizes; hops
    #: through switches do not multiply this).
    fabric_bytes: int

    def describe(self) -> str:
        """e.g. ``alltoall/exchange(4x2): 4 rounds, 786432 B``."""
        factors = ("x".join(str(f) for f in self.factors)
                   if self.factors else "")
        suffix = f"({factors})" if factors else ""
        return (f"{self.primitive}/{self.algorithm}{suffix}: "
                f"{len(self.rounds)} rounds, {self.fabric_bytes} B")


def compile_global(primitive: str, num_hosts: int, nbytes: int,
                   algorithm: str, fabric: Fabric,
                   factors: tuple[int, ...] | None = None
                   ) -> GlobalProgram | None:
    """Build and price one global-phase program.

    Returns None when ``algorithm`` cannot serve this host count
    (recursive halving/doubling needs a power of two) -- the tuner
    skips inapplicable candidates.  One host compiles to an empty
    (free) program under every algorithm.
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
    if num_hosts == 1:
        rounds: tuple[Round, ...] = ()
    elif algorithm == "ring":
        rounds = _ring_rounds(primitive, num_hosts, nbytes)
    elif algorithm == "halving_doubling":
        if num_hosts & (num_hosts - 1):
            return None
        rounds = _hd_rounds(primitive, num_hosts, nbytes)
    else:
        factors = factors or default_factors(num_hosts, fabric)
        rounds = _exchange_rounds(primitive, num_hosts, nbytes, factors)
    moved = sum(b for rnd in rounds for _, _, b in rnd)
    return GlobalProgram(
        primitive=primitive, algorithm=algorithm, num_hosts=num_hosts,
        nbytes=nbytes,
        factors=tuple(factors) if algorithm == "exchange" and factors
        else (),
        rounds=rounds, seconds=fabric.program_seconds(rounds),
        fabric_bytes=moved)


# ----------------------------------------------------------------------
# Ring / pairwise
# ----------------------------------------------------------------------
def _ring_rounds(primitive: str, n: int, nbytes: int) -> tuple[Round, ...]:
    share = -(-nbytes // n)  # ceil: cost never understates a message
    if primitive == "reduce_scatter":
        return _ring_pass(n, share, n - 1)
    if primitive == "allgather":
        return _ring_pass(n, nbytes, n - 1)
    if primitive == "allreduce":
        # Ring reduce-scatter then ring allgather of the B/N shards.
        return _ring_pass(n, share, n - 1) + _ring_pass(n, share, n - 1)
    # alltoall: pairwise exchange, round k partners h and (h+k) mod n.
    return tuple(
        tuple((h, (h + k) % n, share) for h in range(n))
        for k in range(1, n))


def _ring_pass(n: int, nbytes: int, steps: int) -> tuple[Round, ...]:
    one = tuple((h, (h + 1) % n, nbytes) for h in range(n))
    return (one,) * steps


# ----------------------------------------------------------------------
# Recursive halving / doubling (+ Bruck alltoall)
# ----------------------------------------------------------------------
def _hd_rounds(primitive: str, n: int, nbytes: int) -> tuple[Round, ...]:
    log = n.bit_length() - 1
    if primitive == "reduce_scatter":
        return _halving(n, nbytes, log)
    if primitive == "allgather":
        # Recursive doubling: shares double from the contribution up.
        return tuple(
            tuple((h, h ^ (1 << k), nbytes << k) for h in range(n))
            for k in range(log))
    if primitive == "allreduce":
        share = -(-nbytes // n)
        doubling = tuple(
            tuple((h, h ^ (1 << k), share << k) for h in range(n))
            for k in range(log))
        return _halving(n, nbytes, log) + doubling
    # alltoall: Bruck -- log rounds, half the buffer each.
    half = -(-nbytes // 2)
    return tuple(
        tuple((h, (h + (1 << k)) % n, half) for h in range(n))
        for k in range(log))


def _halving(n: int, nbytes: int, log: int) -> tuple[Round, ...]:
    return tuple(
        tuple((h, h ^ (n >> (k + 1)), -(-nbytes // (1 << (k + 1))))
              for h in range(n))
        for k in range(log))


# ----------------------------------------------------------------------
# Generalized exchange (Kolmakov & Zhang)
# ----------------------------------------------------------------------
def _exchange_rounds(primitive: str, n: int, nbytes: int,
                     factors: tuple[int, ...]) -> tuple[Round, ...]:
    _check_factors(n, factors)
    if primitive == "reduce_scatter":
        return _exchange_scatter(n, nbytes, factors)
    if primitive == "allgather":
        return _exchange_gather(n, nbytes, factors)
    if primitive == "allreduce":
        share = -(-nbytes // n)
        return (_exchange_scatter(n, nbytes, factors)
                + _exchange_gather(n, share, factors))
    # alltoall: phase j forwards the blocks whose j-th mixed-radix
    # destination digit differs -- B/f_j bytes to each group partner.
    rounds: list[Round] = []
    stride = 1
    for f in factors:
        share = -(-nbytes // f)
        rounds.extend(_phase(n, stride, f, lambda h: share))
        stride *= f
    return tuple(rounds)


def _exchange_scatter(n: int, nbytes: int,
                      factors: tuple[int, ...]) -> tuple[Round, ...]:
    """Phases of shrinking shares: after phase j each host keeps
    ``1/f_j`` of what it held, so only ``B / prod(f_1..f_j)`` survives
    into later (wider-stride) phases."""
    rounds: list[Round] = []
    stride = 1
    held = nbytes
    for f in factors:
        share = -(-held // f)
        rounds.extend(_phase(n, stride, f, lambda h: share))
        held = share
        stride *= f
    return tuple(rounds)


def _exchange_gather(n: int, nbytes: int,
                     factors: tuple[int, ...]) -> tuple[Round, ...]:
    """Phases of growing shares, the exact mirror of the scatter:
    factors run in reverse order but each keeps its scatter-phase
    stride, so the bulky final phases exchange within the *narrow*
    (stride-1, e.g. intra-rack) groups while only the small early
    shares cross wide strides."""
    strides = []
    s = 1
    for f in factors:
        strides.append(s)
        s *= f
    rounds: list[Round] = []
    held = nbytes
    for f, stride in zip(reversed(factors), reversed(strides)):
        rounds.extend(_phase(n, stride, f, lambda h: held))
        held *= f
    return tuple(rounds)


def _phase(n: int, stride: int, f: int, share_of) -> list[Round]:
    """One exchange phase: ``f - 1`` rounds; in round ``t`` every host
    sends to the group member ``t`` positions ahead (groups are the
    hosts ``{base + i * stride}``)."""
    rounds = []
    for t in range(1, f):
        transfers = []
        for h in range(n):
            pos = (h // stride) % f
            partner = h + (((pos + t) % f) - pos) * stride
            transfers.append((h, partner, share_of(h)))
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
