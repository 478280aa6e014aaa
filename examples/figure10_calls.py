"""The paper's Figure 10, call for call, on one session.

The C library is eight functions on a hypercube handle, e.g.
``pidcomm_reduce_scatter(manager, "010", size, src, dst, type, op)``.
Here the handle is a :class:`Communicator` and each function is a
method taking the same arguments in the same order (buffer offsets and
host payloads by keyword).  This script makes all eight calls on a
32-PE 4x4x2 cube, along the y axis, and checks each against the golden
reference semantics.

Run:  python examples/figure10_calls.py
"""

import numpy as np

from repro import Communicator, DimmSystem, HypercubeManager
from repro.core import reference as ref
from repro.core.groups import slice_groups
from repro.dtypes import INT64, SUM

DIMS = "010"       # communicate along y: eight groups of four PEs
ELEMS = 8          # int64 elements per PE
SIZE = ELEMS * 8   # bytes per PE


def main() -> None:
    system = DimmSystem.small(mram_bytes=1 << 16)
    manager = HypercubeManager(system, shape=(4, 4, 2))
    comm = Communicator(manager)
    groups = slice_groups(manager, DIMS)
    n = groups[0].size
    src = system.alloc(n * SIZE)
    dst = system.alloc(n * SIZE)
    rng = np.random.default_rng(10)

    def fill(elems: int) -> dict[int, list[np.ndarray]]:
        """Random per-PE inputs at ``src``; instance -> rank-ordered."""
        inputs = {}
        for group in groups:
            inputs[group.instance] = [rng.integers(0, 100, elems)
                                      for _ in group.pe_ids]
            for pe, values in zip(group.pe_ids, inputs[group.instance]):
                system.write_elements(pe, src, values, INT64)
        return inputs

    def at_dst(elems: int, expect) -> bool:
        """Every PE's ``dst`` holds what the reference says it should."""
        return all(
            np.array_equal(system.read_elements(pe, dst, elems, INT64), want)
            for group in groups
            for pe, want in zip(group.pe_ids, expect(group.instance)))

    def on_host(result, expect) -> bool:
        return all(np.array_equal(
            np.asarray(result.host_outputs[g.instance]).reshape(-1),
            expect(g.instance)) for g in groups)

    def report(name: str, result, ok: bool) -> None:
        print(f"{name:>15s}  {result.seconds * 1e6:8.1f} us  "
              f"matches reference: {ok}")

    inputs = fill(ELEMS)
    result = comm.alltoall(DIMS, SIZE, src_offset=src, dst_offset=dst,
                           data_type=INT64)
    report("alltoall", result,
           at_dst(ELEMS, lambda i: ref.alltoall(inputs[i])))

    inputs = fill(ELEMS)
    result = comm.reduce_scatter(DIMS, SIZE, src_offset=src, dst_offset=dst,
                                 data_type=INT64, reduction_type=SUM)
    report("reduce_scatter", result,
           at_dst(ELEMS // n, lambda i: ref.reduce_scatter(inputs[i], SUM)))

    inputs = fill(ELEMS)
    result = comm.allgather(DIMS, SIZE, src_offset=src, dst_offset=dst,
                            data_type=INT64)
    report("allgather", result,
           at_dst(n * ELEMS, lambda i: ref.allgather(inputs[i])))

    inputs = fill(ELEMS)
    result = comm.allreduce(DIMS, SIZE, src_offset=src, dst_offset=dst,
                            data_type=INT64, reduction_type=SUM)
    report("allreduce", result,
           at_dst(ELEMS, lambda i: ref.allreduce(inputs[i], SUM)))

    chunks = {g.instance: rng.integers(0, 100, n * ELEMS) for g in groups}
    result = comm.scatter(DIMS, SIZE, dst_offset=dst, data_type=INT64,
                          payloads=chunks)
    report("scatter", result,
           at_dst(ELEMS, lambda i: ref.scatter(chunks[i], n)))

    inputs = fill(ELEMS)
    result = comm.gather(DIMS, SIZE, src_offset=src, data_type=INT64)
    report("gather", result,
           on_host(result, lambda i: ref.gather(inputs[i])))

    inputs = fill(ELEMS)
    result = comm.reduce(DIMS, SIZE, src_offset=src, data_type=INT64,
                         reduction_type=SUM)
    report("reduce", result,
           on_host(result, lambda i: ref.reduce(inputs[i], SUM)))

    buffers = {g.instance: rng.integers(0, 100, ELEMS) for g in groups}
    result = comm.broadcast(DIMS, SIZE, dst_offset=dst, data_type=INT64,
                            payloads=buffers)
    report("broadcast", result,
           at_dst(ELEMS, lambda i: ref.broadcast(buffers[i], n)))


if __name__ == "__main__":
    main()
