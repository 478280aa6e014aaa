"""Self-check: verify a system's collectives against the golden models.

``verify_collectives`` sweeps primitives, optimization levels, and
dimension selections on a small functional system and compares every
result bit-exactly with :mod:`repro.core.reference`.  Useful as an
installation smoke test (``python -c "from repro.core.validation import
verify_collectives; print(verify_collectives())"``) and as the
integration core reused by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dtypes import INT64, SUM, DataType, ReduceOp
from ..engine.communicator import Communicator
from ..engine.session_config import SessionConfig
from ..hw.system import DimmSystem
from . import reference as ref
from .collectives import ABLATION_LADDER, OptConfig
from .groups import slice_groups
from .hypercube import HypercubeManager


@dataclass
class ValidationReport:
    """Outcome of a verification sweep."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"{status}: {self.checks} checks, "
                 f"{len(self.failures)} failures"]
        lines.extend(f"  - {f}" for f in self.failures[:10])
        return "\n".join(lines)


def _fill(system: DimmSystem, groups, offset: int, elems: int,
          dtype: DataType, rng: np.random.Generator) -> dict:
    inputs = {}
    for group in groups:
        vectors = []
        for pe in group.pe_ids:
            values = rng.integers(-999, 999, elems).astype(dtype.np_dtype)
            system.write_elements(pe, offset, values, dtype)
            vectors.append(values)
        inputs[group.instance] = vectors
    return inputs


def verify_collectives(shape: tuple[int, ...] = (4, 4, 2),
                       dims_list: tuple[str, ...] = ("100", "010", "110",
                                                     "111"),
                       configs: tuple[OptConfig, ...] = ABLATION_LADDER,
                       dtype: DataType = INT64, op: ReduceOp = SUM,
                       chunk_elems: int = 2, seed: int = 0
                       ) -> ValidationReport:
    """Sweep-verify the collective library on a fresh small system."""
    report = ValidationReport()
    rng = np.random.default_rng(seed)
    for dims in dims_list:
        if len(dims) != len(shape):
            report.failures.append(
                f"dims {dims!r} does not match shape {shape}")
            continue
        for config in configs:
            _verify_one_combo(report, shape, dims, config, dtype, op,
                              chunk_elems, rng)
    return report


def _verify_one_combo(report, shape, dims, config, dtype, op,
                      chunk_elems, rng) -> None:
    # A private small geometry keeps the sweep fast.
    system = DimmSystem.small(mram_bytes=1 << 16)
    manager = HypercubeManager(system, shape=shape)
    comm = Communicator(manager, SessionConfig(config=config))
    groups = slice_groups(manager, dims)
    n = groups[0].size
    elems = n * chunk_elems
    nbytes = elems * dtype.itemsize
    src = system.alloc(nbytes)
    dst = system.alloc(nbytes)
    label = f"{dims}/{config.label}"

    def check(name, fn_result, expect_per_group):
        report.checks += 1
        for group in groups:
            for pe, want in zip(group.pe_ids, expect_per_group(group)):
                got = system.read_elements(pe, dst, len(want), dtype)
                if not np.array_equal(got, want):
                    report.failures.append(f"{name} {label} pe={pe}")
                    return

    inputs = _fill(system, groups, src, elems, dtype, rng)
    comm.alltoall(dims, nbytes, src_offset=src, dst_offset=dst,
                  data_type=dtype)
    check("alltoall", None,
          lambda g: ref.alltoall(inputs[g.instance]))

    inputs = _fill(system, groups, src, elems, dtype, rng)
    comm.allreduce(dims, nbytes, src_offset=src, dst_offset=dst,
                   data_type=dtype, reduction_type=op)
    check("allreduce", None,
          lambda g: ref.allreduce(inputs[g.instance], op))

    inputs = _fill(system, groups, src, elems, dtype, rng)
    comm.reduce_scatter(dims, nbytes, src_offset=src, dst_offset=dst,
                        data_type=dtype, reduction_type=op)
    check("reduce_scatter", None,
          lambda g: ref.reduce_scatter(inputs[g.instance], op))

    # AllGather: per-PE input chunk, output n * chunk at dst.
    in_bytes = chunk_elems * dtype.itemsize
    ag_dst = system.alloc(n * in_bytes)
    inputs = _fill(system, groups, src, chunk_elems, dtype, rng)
    comm.allgather(dims, in_bytes, src_offset=src, dst_offset=ag_dst,
                   data_type=dtype)
    report.checks += 1
    for group in groups:
        expect = ref.allgather(inputs[group.instance])
        for pe, want in zip(group.pe_ids, expect):
            got = system.read_elements(pe, ag_dst, n * chunk_elems, dtype)
            if not np.array_equal(got, want):
                report.failures.append(f"allgather {label} pe={pe}")
                break

    # Rooted primitives: gather + reduce against the host.
    inputs = _fill(system, groups, src, elems, dtype, rng)
    result = comm.gather(dims, nbytes, src_offset=src, data_type=dtype)
    report.checks += 1
    for group in groups:
        want = ref.gather(inputs[group.instance])
        got = result.host_outputs[group.instance]
        if not np.array_equal(np.asarray(got).reshape(-1), want):
            report.failures.append(f"gather {label}")
            break

    inputs = _fill(system, groups, src, elems, dtype, rng)
    result = comm.reduce(dims, nbytes, src_offset=src, data_type=dtype,
                         reduction_type=op)
    report.checks += 1
    for group in groups:
        want = ref.reduce(inputs[group.instance], op)
        got = np.asarray(result.host_outputs[group.instance]).reshape(-1)
        if not np.array_equal(got, want):
            report.failures.append(f"reduce {label}")
            break
