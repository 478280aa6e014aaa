"""Building your own application on PID-Comm: distributed histogram.

A worked example of the extension API (docs/tutorial.md walks through
it): shard values across the PEs with Scatter, bin locally in a PE
kernel, merge the per-PE histograms with a sum-AllReduce, and Reduce
the final counts to the host.  The distributed result is checked
against numpy's histogram.

Run:  python examples/custom_app_histogram.py
"""

import numpy as np

from repro import DimmSystem, HypercubeManager
from repro.apps.base import AppHarness, PidCommBackend
from repro.dtypes import MIN


class HistogramApp:
    """Histogram of integer values in [0, bins)."""

    name = "Histogram"

    def __init__(self, values: np.ndarray, bins: int) -> None:
        self.values = np.asarray(values, dtype=np.int64)
        self.bins = bins

    def run(self, manager: HypercubeManager, backend, functional=True):
        p = manager.num_nodes
        n = len(self.values)
        if n % p or self.bins % p:
            raise ValueError("values and bins must divide over the PEs")
        shard = n // p
        harness = AppHarness(manager, backend, functional)
        system = manager.system

        val_buf = system.alloc(shard * 8)
        hist_buf = system.alloc(self.bins * 8)

        # 1. Scatter the value shards.
        harness.comm("scatter", "1", shard * 8, dst=val_buf,
                     payloads={0: self.values} if functional else None)

        # 2. PE kernel: bin the local shard.
        harness.kernel("bin", ops_per_pe=4.0 * shard,
                       bytes_per_pe=8.0 * (shard + self.bins))
        if functional:
            # One bulk load (row = PE), one bincount over row-offset
            # values, one bulk store of the (P, bins) counts.
            local = harness.load(val_buf, shard)
            offset = local + self.bins * np.arange(p)[:, None]
            counts = np.bincount(offset.ravel(), minlength=p * self.bins)
            harness.store(hist_buf, counts.reshape(p, self.bins))

        # 3. Sum-AllReduce merges the per-PE histograms.
        harness.comm("allreduce", "1", self.bins * 8, src=hist_buf,
                     dst=hist_buf)

        # 4. Reduce to the host (all PEs now agree; min picks one copy).
        outputs = harness.comm("reduce", "1", self.bins * 8, src=hist_buf,
                               op=MIN)
        output = None
        if functional and outputs is not None:
            output = np.asarray(outputs[0]).reshape(-1)
        return harness.result(self.name, output=output, bins=self.bins)


def main() -> None:
    rng = np.random.default_rng(0)
    bins = 64
    values = rng.integers(0, bins, 4096)
    app = HistogramApp(values, bins)

    system = DimmSystem.small(mram_bytes=1 << 16)
    manager = HypercubeManager(system, shape=(32,))
    result = app.run(manager, PidCommBackend(), functional=True)

    golden = np.bincount(values, minlength=bins)
    print("distributed histogram matches numpy:",
          np.array_equal(result.output, golden))
    print(f"total counted: {int(result.output.sum())} "
          f"(expected {len(values)})")
    print(f"modelled time: {result.seconds * 1e3:.2f} ms; breakdown:")
    for prim, seconds in sorted(result.per_primitive.items()):
        print(f"  {prim:12s} {seconds * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
