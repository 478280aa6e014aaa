"""The outside-in tracer: accounting closes, originals come back,
a target that no longer exists is an error naming its metric."""

import importlib
from time import perf_counter

import pytest

import tracer
import workloads


def originals():
    found = {}
    for group in tracer.LAYERS.values():
        for module, cls, attr in group:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            found[module, cls, attr] = vars(owner)[attr]
    return found


@pytest.mark.parametrize("name", ["small_replay", "reliable_replay",
                                  "multihost_8h", "serving_round"])
def test_self_times_add_up_to_the_traced_wall(name):
    """Sum of self times + the root's self time = traced wall.  The
    root's self time is the wall no outermost span covers, so the claim
    is that nested spans neither lose nor double-count time -- also
    when faults unwind through them (reliable_replay) and across
    ``await`` (serving_round)."""
    with tracer.installed(extra_modules=(workloads,)) as recorder:
        workload = workloads.WORKLOADS[name](7)
        workload.warm_up()
        before = recorder.snapshot()
        wall = 0.0
        for i in range(3 * len(workload.cycle)):
            start = perf_counter()
            workload.op(i)
            wall += perf_counter() - start
        spans = recorder.snapshot() - before
        workload.close()
    named = sum(spans.self_s.values())
    root_self = wall - spans.top_s
    assert named == pytest.approx(spans.top_s, rel=1e-6)
    assert 0.0 <= root_self < wall
    assert named + root_self == pytest.approx(wall, rel=0.05)
    assert sum(spans.count.values()) > 0


def test_originals_are_restored():
    before = originals()
    bound = workloads.multihost.multihost_alltoall
    with tracer.installed(extra_modules=(workloads,)):
        assert workloads.multihost.multihost_alltoall is not bound
        assert originals() != before
    assert originals() == before
    assert workloads.multihost.multihost_alltoall is bound


@pytest.mark.parametrize("target", [
    ("repro.hw.arena", "MemoryArena", "renamed_away"),
    ("repro.hw.arena", "NoSuchClass", "touch"),
    ("repro.engine.scheduler", None, "no_such_function"),
    ("repro.no_such_module", None, "f"),
    ("repro.multihost.fabric", "Fabric", "leaf_spine"),  # a classmethod
])
def test_missing_callable_fails_loudly_with_the_metric_name(
        monkeypatch, target):
    before = originals()
    monkeypatch.setitem(tracer.LAYERS, "hw.arena.index_us",
                        tracer.LAYERS["hw.arena.index_us"] + [target])
    with pytest.raises(tracer.TracerError, match="hw.arena.index_us"):
        with tracer.installed():
            pass
    monkeypatch.undo()
    assert originals() == before
