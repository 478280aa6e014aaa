"""Standalone differential-fuzz smoke runner.

Drives random collectives through the session engine and checks every
functional result bit-exactly against ``repro.core.reference``, with
optional fault injection (retry enabled).  Cases cycle through the
execution modes (interpreted on the scalar store; compiled, streamed
and eliding on the vectorized arena) -- the interpreter draws faults
per lane transfer, a compiled op once per modelled transfer however
many bands it moves in, so every mode is fuzzed under
``--fault-rate``.  Unlike the pytest sweeps in
``tests/test_differential_fuzz.py`` this runs for a *time budget*, so
CI can smoke as much as its slot allows::

    PYTHONPATH=src python tools/run_fuzz.py --seconds 10
    PYTHONPATH=src python tools/run_fuzz.py --seconds 5 --fault-rate 0.01
    PYTHONPATH=src python tools/run_fuzz.py --seconds 5 --mode streamed

``--mode`` runs every case in one execution mode instead of cycling
through all four.

Every case is also byte-diffed: each MRAM byte the call changed must
lie in the request's footprint (its write spans, on its member PEs)
and, on the arena, in a region the write log recorded since the call
began -- unless the log's floor (``WRITE_LOG_MAX`` entries) has passed
that epoch -- and every logged region must lie in the footprint.  And
every step of the plan it ran must price exactly the MRAM bytes its
lowered ops move (:func:`~repro.core.collectives.program
.traffic_mismatches`), on the cube and size the case drew.

Exits nonzero (with the failing case's parameters, replayable via
``--seed``) on the first mismatch.  A case whose retry budget runs out
(:class:`FaultBudgetExceeded` -- the interpreter makes >100 fault draws
per attempt on some shapes, so eight faulted attempts in a row do
happen) is the policy working as documented: it is counted, and only
fails the run when the share of such cases passes ten times the fault
rate (one execution mode giving up on everything is a quarter of them).
"""

import argparse
import sys
import time

import numpy as np

from repro import (ABLATION_LADDER, CommRequest, Communicator, DimmSystem,
                   FaultInjector, HypercubeManager, SessionConfig)
from repro.core import reference as ref
from repro.core.collectives import program as program_mod
from repro.core.groups import member_pes, slice_groups
from repro.dtypes import INT8, INT16, INT32, INT64, SUM
from repro.errors import FaultBudgetExceeded

PRIMITIVES = ("alltoall", "allgather", "reduce_scatter", "allreduce",
              "gather", "scatter", "reduce", "broadcast")
SHAPES = ((4, 8), (8, 4), (4, 4, 2), (2, 4, 4), (2, 2, 8), (16, 2))
DTYPES = (INT8, INT16, INT32, INT64)

#: Execution mode -> SessionConfig knobs, each naming its store: the
#: interpreter fuzzes on the scalar oracle store, every compiling mode
#: on the vectorized arena (the only store compiled replay runs on).
#: Cases walk the modes in this order, one per case.
MODES = {
    "interpreted": dict(backend="scalar", execution="interpreted"),
    "compiled": dict(backend="vectorized", execution="compiled"),
    "streamed": dict(backend="vectorized", execution="compiled",
                     stream_tile_bytes=33),
    "eliding": dict(backend="vectorized", execution="compiled",
                    elide_transfers=True),
}

REFERENCE = {
    "alltoall": lambda v: ref.alltoall(v),
    "allgather": lambda v: ref.allgather(v),
    "reduce_scatter": lambda v: ref.reduce_scatter(v, SUM),
    "allreduce": lambda v: ref.allreduce(v, SUM),
}


def _covered(lo, hi, spans):
    """Whether columns ``[lo, hi)`` lie in the union of ``spans``."""
    for offset, nbytes in sorted(spans):
        if offset > lo:
            break
        lo = max(lo, offset + nbytes)
    return lo >= hi


class ByteDiff:
    """One call's MRAM image and write epoch, checked after the call."""

    def __init__(self, system):
        self.system = system
        self.before = self._image()
        self.epoch = system.arena.write_epoch if system.arena else None

    def _image(self):
        system = self.system
        return system.peek_rows(range(system.num_pes), 0, system.mram_bytes)

    def check(self, manager, request, config, result):
        """Raise AssertionError on a write outside the footprint or the
        write log, or on a step whose traffic prices other bytes than
        its ops move."""
        mismatches = program_mod.traffic_mismatches(result.plan,
                                                    manager.system.geometry)
        assert not mismatches, f"traffic prices other bytes: {mismatches}"
        req = request.normalize(manager, config)
        footprint = req.footprint()
        members = member_pes(manager, req.dims)
        changed = self._image() != self.before
        allowed = np.zeros_like(changed)
        for offset, nbytes in footprint.writes:
            allowed[np.asarray(members), offset:offset + nbytes] = True
        assert not (changed & ~allowed).any(), \
            f"{req.describe()} wrote outside its footprint"
        regions = (None if self.epoch is None
                   else self.system.arena.regions_since(self.epoch))
        if regions is None:
            return
        logged = np.zeros_like(changed)
        for region in regions:
            logged[np.asarray(region.rows), region.offset:region.end] = True
            assert _covered(region.offset, region.end, footprint.writes) \
                and set(np.asarray(region.rows).tolist()) <= set(members), \
                f"{req.describe()} logged a region outside its footprint"
        assert not (changed & ~logged).any(), \
            f"{req.describe()} changed bytes its write log does not cover"


def random_bitmap(rng, ndim):
    """A uniformly random non-empty dimension bitmap."""
    while True:
        bits = rng.integers(0, 2, ndim)
        if bits.any():
            return "".join(str(int(b)) for b in bits)


def run_one(rng, case_seed, fault_rate, mode="compiled"):
    """Run one random collective; returns its CommResult.

    Eliding cases zero a random fraction of every input, so the scan
    sees mixes of zero, partial-zero and dense chunks.  Half the
    AllReduce cases write their result over their source (``dst ==
    src``), the in-place call the applications make.  The call is
    byte-diffed (:class:`ByteDiff`) before its result is checked.
    """
    primitive = PRIMITIVES[rng.integers(len(PRIMITIVES))]
    shape = SHAPES[rng.integers(len(SHAPES))]
    dtype = DTYPES[rng.integers(len(DTYPES))]
    chunk = int(rng.integers(1, 5))
    config = ABLATION_LADDER[rng.integers(len(ABLATION_LADDER))]

    system = DimmSystem.small(mram_bytes=1 << 16)
    manager = HypercubeManager(system, shape)
    injector = None
    if fault_rate > 0:
        per = fault_rate / 3.0
        injector = FaultInjector(seed=case_seed, bit_flip_rate=per,
                                 drop_rate=per, timeout_rate=per)
    comm = Communicator(manager,
                        SessionConfig(config=config, fault_injector=injector,
                                      **MODES[mode]))
    sparsity = float(rng.choice((0.0, 0.25, 0.5, 0.9, 1.0))) \
        if mode == "eliding" else 0.0

    def draw(count):
        values = rng.integers(-99, 100, count).astype(dtype.np_dtype)
        if sparsity:
            values[rng.random(count) < sparsity] = 0
        return values

    bitmap = random_bitmap(rng, manager.ndim)
    groups = slice_groups(manager, bitmap)
    n = groups[0].size
    item = dtype.itemsize

    if primitive in ("scatter", "broadcast"):
        root_elems = n * chunk if primitive == "scatter" else chunk
        payloads = {g.instance: draw(root_elems) for g in groups}
        total = chunk * item
        dst = system.alloc(total)
        request = CommRequest(primitive, bitmap, total, dst_offset=dst,
                              data_type=dtype, payloads=payloads)
        diff = ByteDiff(system)
        result = comm.run(request)
        diff.check(manager, request, config, result)
        for group in groups:
            make = ref.scatter if primitive == "scatter" else ref.broadcast
            want = make(payloads[group.instance], n)
            for pe, expect in zip(group.pe_ids, want):
                got = system.read_elements(pe, dst, chunk, dtype)
                np.testing.assert_array_equal(got, expect)
        return result

    elems = chunk if primitive == "allgather" else n * chunk
    total = elems * item
    src = system.alloc(total)
    inputs = {}
    for group in groups:
        vectors = []
        for pe in group.pe_ids:
            values = draw(elems)
            system.write_elements(pe, src, values, dtype)
            vectors.append(values)
        inputs[group.instance] = vectors

    if primitive in ("gather", "reduce"):
        request = CommRequest(primitive, bitmap, total, src_offset=src,
                              data_type=dtype, reduction_type=SUM)
        diff = ByteDiff(system)
        result = comm.run(request)
        diff.check(manager, request, config, result)
        for group in groups:
            make = ref.gather if primitive == "gather" else \
                (lambda v: ref.reduce(v, SUM))
            want = make(inputs[group.instance])
            got = np.asarray(result.host_outputs[group.instance]).view(
                dtype.np_dtype).reshape(-1)
            np.testing.assert_array_equal(got, want)
        return result

    out_elems = {"alltoall": elems, "reduce_scatter": chunk,
                 "allgather": n * chunk, "allreduce": elems}[primitive]
    # Half the AllReduce cases run in place, as the applications' do.
    in_place = primitive == "allreduce" and rng.random() < 0.5
    dst = src if in_place else system.alloc(out_elems * item)
    request = CommRequest(primitive, bitmap, total, src_offset=src,
                          dst_offset=dst, data_type=dtype,
                          reduction_type=SUM)
    diff = ByteDiff(system)
    result = comm.run(request)
    diff.check(manager, request, config, result)
    for group in groups:
        want = REFERENCE[primitive](inputs[group.instance])
        for pe, expect in zip(group.pe_ids, want):
            got = system.read_elements(pe, dst, out_elems, dtype)
            np.testing.assert_array_equal(got, expect)
    return result


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="time budget for the sweep (default 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (replays the same case sequence)")
    parser.add_argument("--fault-rate", type=float, default=0.01,
                        help="total transient fault rate per operation "
                        "(0 disables injection; default 0.01)")
    parser.add_argument("--mode", choices=tuple(MODES),
                        help="run every case in this execution mode "
                        "(default: cycle through all of them)")
    args = parser.parse_args(argv)

    # Fuzz payloads are tiny; let them reach the elision scanner.
    program_mod.ELIDE_MIN_SOURCE_BYTES = 0
    modes = (args.mode,) if args.mode else tuple(MODES)
    rng = np.random.default_rng(args.seed)
    deadline = time.monotonic() + args.seconds
    cases = gave_up = 0
    retried = dict.fromkeys(modes, 0)
    while time.monotonic() < deadline:
        mode = modes[cases % len(modes)]
        cases += 1
        try:
            result = run_one(rng, case_seed=args.seed + cases,
                             fault_rate=args.fault_rate, mode=mode)
        except FaultBudgetExceeded:
            gave_up += 1
            continue
        except Exception as exc:  # mismatch or unexpected engine error
            print(f"FAIL at case {cases} (seed {args.seed}, mode {mode}): "
                  f"{exc}", file=sys.stderr)
            return 1
        if result.attempts > 1:
            retried[mode] += 1
    if gave_up > cases * 10 * args.fault_rate:
        print(f"FAIL: retry budget spent on {gave_up} of {cases} cases "
              f"(seed {args.seed})", file=sys.stderr)
        return 1
    by_mode = ", ".join(f"{m} {n}" for m, n in retried.items())
    print(f"OK: {cases} cases in {args.seconds:.1f}s budget, "
          f"{sum(retried.values())} retried ({by_mode}), {gave_up} gave up "
          f"(seed {args.seed}, fault rate {args.fault_rate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
