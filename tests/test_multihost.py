"""Tests for the multi-host extension (fabric + hierarchical collectives).

``tests/golden/global_tuner_seconds.json`` holds the seconds of the
program the :class:`GlobalTuner` chose at 312 points (:func:`tuner_seconds`),
generated at commit 2177487, before ring and halving/doubling became
phase lists of the exchange.  The collapse must lose no winner.
Regenerate it (only when the fabric cost model is changed on purpose)
with ``PYTHONPATH=src python -m tests.test_multihost``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import reference as ref
from repro.dtypes import INT64, MIN, SUM
from repro.engine import SessionConfig
from repro.errors import CollectiveError
from repro.hw.timing import MachineParams
from repro.multihost import (
    Fabric,
    GLOBAL_ALGORITHMS,
    GLOBAL_PRIMITIVES,
    GlobalTuner,
    MultiHostSystem,
    compile_global,
    default_factors,
    multihost_allgather,
    multihost_allreduce,
    multihost_alltoall,
    multihost_reduce_scatter,
)

from .test_differential_fuzz import multihost_fabric


@pytest.fixture
def params():
    return MachineParams()


def small_multihost(num_hosts, ranks=1):
    # 1 channel x 1 rank x 8 chips x 8 banks = 64 PEs per host.
    return MultiHostSystem(num_hosts, ranks_per_channel=ranks,
                           mram_bytes=1 << 16)


class TestHierarchicalAllReduce:
    @pytest.mark.parametrize("num_hosts", [1, 2, 3])
    @pytest.mark.parametrize("op", [SUM, MIN], ids=str)
    def test_matches_global_reference(self, num_hosts, op):
        mh = small_multihost(num_hosts)
        rng = np.random.default_rng(1)
        p = mh.pes_per_host
        elems = p  # divisible into p chunks on each host
        buf = mh.alloc(elems * 8)
        out = mh.alloc(elems * 8)
        inputs = [rng.integers(-100, 100, elems)
                  for _ in range(mh.total_pes)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        result = multihost_allreduce(mh, elems * 8, buf, out, INT64, op)
        expect = ref.allreduce(inputs, op)[0]
        for host_out in result.outputs:
            for vec in host_out:
                np.testing.assert_array_equal(vec, expect)

    def test_mpi_share_small_for_allreduce(self):
        """The network carries 1/P of the data (reduced first)."""
        mh = small_multihost(2)
        size = 1 << 20
        result = multihost_allreduce(mh, size, 0, 0, functional=False)
        # Crossing bytes ~ size; local bus bytes ~ size * pes.
        assert result.fabric_seconds < result.ledger.total


class TestHierarchicalAlltoAll:
    @pytest.mark.parametrize("num_hosts", [1, 2, 4])
    def test_matches_global_reference(self, num_hosts):
        mh = small_multihost(num_hosts)
        rng = np.random.default_rng(2)
        total_pes = mh.total_pes
        chunk_elems = 1
        elems = total_pes * chunk_elems
        buf = mh.alloc(elems * 8)
        out = mh.alloc(elems * 8)
        inputs = [rng.integers(0, 1000, elems) for _ in range(total_pes)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        result = multihost_alltoall(mh, elems * 8, buf, out, INT64)
        expect = ref.alltoall(inputs)
        flat = [vec for host_out in result.outputs for vec in host_out]
        for got, want in zip(flat, expect):
            np.testing.assert_array_equal(got, want)

    def test_alltoall_overhead_grows_with_hosts(self):
        """Figure 23b: more hosts -> more data crossing the wire."""
        times = []
        for hosts in (2, 3, 4):
            mh = small_multihost(hosts)
            # 3 KiB chunks per global destination keep sizes divisible
            # for every host count.
            size = hosts * mh.pes_per_host * 3072
            result = multihost_alltoall(mh, size, 0, 0, functional=False)
            # Normalize: MPI seconds per payload byte must still grow,
            # because (N-1)/N grows with N.
            times.append(result.fabric_seconds / size)
        assert times[0] < times[1] < times[2]

    def test_alltoall_mpi_dominates_allreduce_mpi(self):
        """Figure 23b's asymmetry: AlltoAll pays much more MPI time
        (2 MB per PE, the paper's configuration)."""
        mh = small_multihost(4)
        size = 2 << 20
        aa = multihost_alltoall(mh, size, 0, 0, functional=False)
        ar = multihost_allreduce(mh, size, 0, 0, functional=False)
        assert aa.fabric_seconds > 10 * ar.fabric_seconds

    def test_indivisible_rejected(self):
        mh = small_multihost(2)
        with pytest.raises(CollectiveError, match="split"):
            multihost_alltoall(mh, 8, 0, 0, functional=False)


class TestMultiHostSystem:
    def test_global_pe_addressing(self):
        mh = small_multihost(2)
        buf = mh.alloc(16)
        mh.write_pe(70, buf, np.array([1, 2]), INT64)
        # Global PE 70 = host 1, local PE 6.
        got = mh.systems[1].read_elements(6, buf, 2, INT64)
        assert got.tolist() == [1, 2]
        assert np.array_equal(mh.read_pe(70, buf, 2, INT64), got)

    def test_symmetric_alloc(self):
        mh = small_multihost(3)
        a = mh.alloc(32)
        b = mh.alloc(32)
        assert a == 0 and b == 32

    def test_validation(self):
        with pytest.raises(CollectiveError):
            MultiHostSystem(0)


class TestHierarchicalReduceScatter:
    @pytest.mark.parametrize("num_hosts", [1, 2, 4])
    @pytest.mark.parametrize("op", [SUM, MIN], ids=str)
    def test_matches_global_reference(self, num_hosts, op):
        from repro.multihost import multihost_reduce_scatter
        mh = small_multihost(num_hosts)
        rng = np.random.default_rng(4)
        tp = mh.total_pes
        elems = tp * 2
        buf = mh.alloc(elems * 8)
        out = mh.alloc(16)
        inputs = [rng.integers(-50, 50, elems) for _ in range(tp)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        multihost_reduce_scatter(mh, elems * 8, buf, out, INT64, op)
        expect = ref.reduce_scatter(inputs, op)
        for gpe in range(tp):
            np.testing.assert_array_equal(
                mh.read_pe(gpe, out, 2, INT64), expect[gpe])

    def test_mpi_volume_matches_post_reduction(self):
        """The wire carries the reduced vector once, not per PE."""
        from repro.multihost import multihost_reduce_scatter
        mh = small_multihost(2)
        tp = mh.total_pes
        size = tp * 64
        result = multihost_reduce_scatter(mh, size, 0, 0, functional=False)
        # (N-1)/N * size at 1.25 GB/s plus one latency.
        expected = size * 0.5 / 1.25e9 + mh.params.mpi_latency_s
        assert result.fabric_seconds == pytest.approx(expected)


class TestHierarchicalAllGather:
    @pytest.mark.parametrize("num_hosts", [1, 2, 3])
    def test_matches_global_reference(self, num_hosts):
        from repro.multihost import multihost_allgather
        mh = small_multihost(num_hosts)
        rng = np.random.default_rng(5)
        tp = mh.total_pes
        buf = mh.alloc(16)
        out = mh.alloc(tp * 16)
        inputs = [rng.integers(0, 100, 2) for _ in range(tp)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        multihost_allgather(mh, 16, buf, out, INT64)
        expect = ref.allgather(inputs)[0]
        for gpe in range(tp):
            np.testing.assert_array_equal(
                mh.read_pe(gpe, out, tp * 2, INT64), expect)

    def test_data_crosses_before_duplication(self):
        """Section IX-A: AllGather ships each host's share once.

        On a fully connected fabric the ring costs exactly the flat
        (N-1)/N formula; the tuner picks halving/doubling, which moves
        the same bytes in one latency round fewer.
        """
        from repro.multihost import multihost_allgather
        mh = MultiHostSystem(4, ranks_per_channel=1, mram_bytes=1 << 16)
        chunk = 1 << 12
        result = multihost_allgather(mh, chunk, 0, 0, functional=False)
        per_host = mh.pes_per_host * chunk
        assert result.fabric_bytes == 4 * 3 * per_host
        ring = next(p for p in mh.tuner.candidates("allgather", per_host)
                    if p.algorithm == "ring")
        expected = 0.75 * per_host * 4 / 1.25e9 + 3 * mh.params.mpi_latency_s
        assert ring.seconds == pytest.approx(expected)
        assert result.fabric_seconds == pytest.approx(
            expected - mh.params.mpi_latency_s)

class TestFabric:
    def test_fully_connected_prices_like_flat_mpi(self, params):
        """One message on a default fully connected fabric costs what
        the flat simulator charges it."""
        fabric = Fabric.fully_connected(4, params)
        one = fabric.round_seconds([(0, 1, 1 << 20)])
        assert one == pytest.approx(params.link_time(1 << 20, messages=1))

    def test_disjoint_links_run_concurrently(self, params):
        fabric = Fabric.fully_connected(4, params)
        one = fabric.round_seconds([(0, 1, 1 << 20)])
        both = fabric.round_seconds([(0, 1, 1 << 20), (2, 3, 1 << 20)])
        assert both == pytest.approx(one)

    def test_shared_link_serializes(self, params):
        fabric = Fabric.fully_connected(2, params)
        one = fabric.round_seconds([(0, 1, 1 << 20)])
        both = fabric.round_seconds([(0, 1, 1 << 20), (0, 1, 1 << 20)])
        assert both == pytest.approx(2 * one - params.mpi_latency_s)

    def test_ring_routes_hop_through_neighbours(self, params):
        fabric = Fabric.ring(4, params)
        assert len(fabric.route(0, 1)) == 1
        assert len(fabric.route(0, 2)) == 2     # via host 1 or 3
        direct = Fabric.fully_connected(4, params)
        far = (0, 2, 1 << 20)
        assert fabric.round_seconds([far]) > direct.round_seconds([far])

    def test_leaf_spine_structure(self, params):
        fabric = Fabric.leaf_spine(8, 2, params)
        assert fabric.hosts_per_rack == 4 and fabric.racks == 2
        # Same rack: host -> leaf -> host (2 links).
        assert len(fabric.route(0, 3)) == 2
        # Cross rack: host -> leaf -> spine -> leaf -> host (4 links).
        assert len(fabric.route(0, 4)) == 4

    def test_oversubscribed_spine_congests(self, params):
        fabric = Fabric.leaf_spine(8, 2, params, spine_gbps=0.25)
        intra = fabric.round_seconds([(0, 1, 1 << 20)])
        cross = fabric.round_seconds([(0, 4, 1 << 20)])
        assert cross > intra

    def test_validation(self, params):
        with pytest.raises(CollectiveError):
            Fabric.fully_connected(0)
        with pytest.raises(CollectiveError):
            Fabric.ring(1)
        with pytest.raises(CollectiveError):
            Fabric.leaf_spine(6, 4)
        with pytest.raises(CollectiveError):
            Fabric.fully_connected(2, gbps=-1.0)
        fabric = Fabric.fully_connected(2, params)
        with pytest.raises(CollectiveError, match="outside"):
            fabric.round_seconds([(0, 5, 8)])


class TestGlobalAlgorithms:
    def test_ring_matches_flat_formulas(self, params):
        """Ring rounds on a fully connected fabric cost the flat
        (N-1)/N ring formulas for every primitive."""
        n, nbytes = 4, 1 << 20
        fabric = Fabric.fully_connected(n, params)
        share = (n - 1) / n * nbytes
        flat = {
            "allreduce": params.link_time(2 * share, messages=2 * (n - 1)),
            "reduce_scatter": params.link_time(share, messages=n - 1),
            "allgather": params.link_time(share * n, messages=n - 1),
            "alltoall": params.link_time(share, messages=n - 1),
        }
        for primitive, expected in flat.items():
            program = compile_global(primitive, n, nbytes, "ring", fabric)
            assert program.seconds == pytest.approx(expected), primitive

    def test_far_first_serves_any_host_count(self, params):
        """Far-first runs the widest stride first at any host count:
        on 6 = 2 x 3 hosts the first round pairs hosts 2 apart."""
        fabric = Fabric.fully_connected(6, params)
        program = compile_global("reduce_scatter", 6, 6 << 10,
                                 "exchange", fabric, (2, 3),
                                 far_first=True)
        assert program.rounds[0][0] == (0, 2, 2 << 10)
        assert program.rounds[-1][0] == (0, 1, 1 << 10)

    def test_far_first_binary_exchange_is_halving_doubling(self, params):
        """(2, 2, 2) far-first is recursive halving then doubling,
        round for round, in fewer rounds than the ring."""
        n, nbytes = 8, 1 << 20
        fabric = Fabric.fully_connected(n, params)
        ring = compile_global("allreduce", n, nbytes, "ring", fabric)
        hd = compile_global("allreduce", n, nbytes, "exchange", fabric,
                            (2, 2, 2), far_first=True)
        halving = [tuple((h, h ^ (n >> (k + 1)), nbytes >> (k + 1))
                         for h in range(n)) for k in range(3)]
        doubling = [tuple((h, h ^ (1 << k), (nbytes // n) << k)
                          for h in range(n)) for k in range(3)]
        assert list(hd.rounds) == halving + doubling
        assert len(hd.rounds) < len(ring.rounds)

    def test_exchange_factors_validated(self, params):
        fabric = Fabric.fully_connected(6, params)
        with pytest.raises(CollectiveError, match="factors"):
            compile_global("alltoall", 6, 1 << 20, "exchange", fabric,
                           factors=(4, 2))

    def test_exchange_single_phase_is_direct(self, params):
        """factors=(N,) is the direct pairwise exchange: alltoall cost
        identical to the ring/pairwise schedule."""
        n = 5
        fabric = Fabric.fully_connected(n, params)
        ring = compile_global("alltoall", n, 1 << 20, "ring", fabric)
        direct = compile_global("alltoall", n, 1 << 20, "exchange",
                                fabric, factors=(n,))
        assert direct.seconds == pytest.approx(ring.seconds)

    def test_default_factors_rack_aligned(self, params):
        leaf = Fabric.leaf_spine(8, 2, params)
        assert default_factors(8, leaf) == (4, 2)
        flat = Fabric.fully_connected(8, params)
        assert default_factors(8, flat) == (2, 2, 2)

    def test_one_host_program_is_free(self, params):
        fabric = Fabric.fully_connected(1, params)
        for algorithm in GLOBAL_ALGORITHMS:
            program = compile_global("allreduce", 1, 1 << 20, algorithm,
                                     fabric)
            assert program.seconds == 0.0 and program.rounds == ()


class TestGlobalTuner:
    def test_choice_is_argmin_of_candidates(self, params):
        tuner = GlobalTuner(Fabric.fully_connected(8, params))
        for primitive in ("allreduce", "alltoall"):
            ranked = tuner.candidates(primitive, 1 << 16)
            best = tuner.choose(primitive, 1 << 16)
            assert best.seconds == min(p.seconds for p in ranked)

    def test_latency_bound_payload_picks_log_rounds(self, params):
        """Tiny payloads are latency-dominated: 3 + 3 binary-exchange
        rounds beat 7 + 7 ring rounds at 8 hosts."""
        tuner = GlobalTuner(Fabric.fully_connected(8, params))
        best = tuner.choose("allreduce", 64)
        assert best.factors == (2, 2, 2) and len(best.rounds) == 6

    def test_bulk_allreduce_on_racks_prefers_exchange(self, params):
        """On an oversubscribed leaf-spine, multi-phase exchange
        shrinks shares intra-rack before crossing the spine, beating
        the flat ring (AlltoAll gains nothing -- its cross-rack volume
        is invariant -- so the direct pairwise exchange stays best
        there)."""
        fabric = Fabric.leaf_spine(8, 2, params, spine_gbps=0.125)
        tuner = GlobalTuner(fabric)
        best = tuner.choose("allreduce", 8 << 20)
        assert best.algorithm == "exchange" and len(best.factors) > 1
        ring = next(p for p in tuner.candidates("allreduce", 8 << 20)
                    if p.algorithm == "ring")
        assert best.seconds < ring.seconds
        assert tuner.choose("alltoall", 8 << 20).factors == (8,)

    def test_decisions_cache(self, params):
        tuner = GlobalTuner(Fabric.fully_connected(4, params))
        tuner.choose("allreduce", 4096)
        tuner.choose("allreduce", 4096)
        assert tuner.searches == 1 and tuner.decision_hits == 1

    def test_unknown_algorithm_rejected(self, params):
        """Candidates use only the two round steps; halving/doubling is
        a factorization of the exchange, not a name of its own."""
        fabric = Fabric.fully_connected(8, params)
        assert {p.algorithm for p in GlobalTuner(fabric).candidates(
            "allreduce", 64)} == set(GLOBAL_ALGORITHMS)
        for name in ("steiner", "halving_doubling"):
            with pytest.raises(CollectiveError, match="unknown"):
                compile_global("allreduce", 8, 64, name, fabric)

    def test_collapse_loses_no_winner(self):
        """Every choice prices as it did when ring, halving/doubling and
        the exchange had builders of their own; at 6 and 12 hosts,
        far-first over mixed factors is new and may only win."""
        golden = json.loads(TUNER_GOLDEN.read_text())
        got = tuner_seconds()
        assert got.keys() == golden.keys()
        for key, seconds in golden.items():
            if int(key.split("/")[0]) in (6, 12):
                assert got[key] <= seconds, key
            else:
                assert got[key] == seconds, key


TUNER_GOLDEN = Path(__file__).parent / "golden" / "global_tuner_seconds.json"


def tuner_seconds() -> dict[str, float]:
    """``hosts/fabric/primitive/nbytes`` -> the chosen program's seconds."""
    rows = {}
    for n in (2, 3, 4, 6, 8, 12, 16):
        fabrics = {"fully_connected": Fabric.fully_connected(n),
                   "ring": Fabric.ring(n)}
        if n % 2 == 0:
            fabrics["leaf_spine"] = Fabric.leaf_spine(n, 2)
            fabrics["leaf_spine_spine2.5"] = Fabric.leaf_spine(
                n, 2, spine_gbps=2.5)
        for name, fabric in fabrics.items():
            tuner = GlobalTuner(fabric)
            for primitive in GLOBAL_PRIMITIVES:
                for nbytes in (64, 4096, 1 << 20):
                    rows[f"{n}/{name}/{primitive}/{nbytes}"] = \
                        tuner.choose(primitive, nbytes).seconds
    return rows


def delivery_problems(program) -> list[str]:
    """Why ``program``'s rounds fail to deliver its primitive ([] if
    they deliver): information must close (after the rounds every host
    has heard from every host) and every host sends and receives the
    same bytes, the primitive's volume (at least it, for AlltoAll)."""
    n, b = program.num_hosts, program.nbytes
    heard = [{h} for h in range(n)]
    sent, received = [0] * n, [0] * n
    problems = []
    for k, rnd in enumerate(program.rounds):
        before = [set(known) for known in heard]
        for src, dst, nbytes in rnd:
            if src == dst or not 0 <= dst < n:
                problems.append(f"round {k}: transfer {src}->{dst}")
                continue
            heard[dst] |= before[src]
            sent[src] += nbytes
            received[dst] += nbytes
    problems += [f"host {h} never hears from "
                 f"{sorted(set(range(n)) - heard[h])}"
                 for h in range(n) if len(heard[h]) < n]
    volume = {"reduce_scatter": b * (n - 1) // n, "allgather": b * (n - 1),
              "allreduce": 2 * b * (n - 1) // n,
              "alltoall": b * (n - 1) // n}[program.primitive]
    moved = set(sent) | set(received)
    if len(moved) > 1:
        problems.append(f"hosts send {sent} and receive {received}")
    elif program.primitive == "alltoall" and min(moved) < volume \
            or program.primitive != "alltoall" and moved != {volume}:
        problems.append(f"each host moves {moved.pop()} B, "
                        f"the primitive needs {volume} B")
    return problems


def mutants(program):
    """The program with one round dropped or one transfer re-routed to
    another host (first and last round).

    Closure is transitive: inside an AlltoAll phase of factor f >= 4
    the rounds t1 + t2 = t relay what a dropped round t carried, and the
    multi-phase volume is above the primitive's floor, so only the
    block identities the rounds do not carry could tell.  Those
    programs get the re-route arm alone.
    """
    rounds, n = program.rounds, program.num_hosts
    relays = (program.primitive == "alltoall" and len(program.factors) > 1
              and max(program.factors) >= 4)
    for k in () if relays else range(len(rounds)):
        yield replace(program, rounds=rounds[:k] + rounds[k + 1:])
    if n < 3:
        return
    for k in (0, len(rounds) - 1):
        src, dst, nbytes = rounds[k][-1]
        other = next(h for h in range(n) if h not in (src, dst))
        moved = rounds[k][:-1] + ((src, other, nbytes),)
        yield replace(program, rounds=rounds[:k] + (moved,) + rounds[k + 1:])


class TestGlobalRounds:
    """Costs come from round schedules that are never executed (the
    functional phase is canonical numpy), so the rounds themselves are
    checked: every candidate the tuner may choose must deliver."""

    @pytest.mark.parametrize("primitive", GLOBAL_PRIMITIVES)
    @pytest.mark.parametrize("topology",
                             ["fully_connected", "ring", "leaf_spine"])
    def test_every_candidate_delivers(self, topology, primitive):
        checked = 0
        for n in range(1, 17):
            tuner = GlobalTuner(multihost_fabric(topology, n))
            for nbytes in (n * n * 8, n * n * 4096):
                for program in tuner.candidates(primitive, nbytes):
                    assert delivery_problems(program) == [], \
                        program.describe()
                    checked += 1
        assert checked >= 16 * 2 * 2

    @pytest.mark.parametrize("primitive", GLOBAL_PRIMITIVES)
    def test_broken_rounds_are_caught(self, primitive):
        """The check's mutation arms: a dropped round or a re-routed
        transfer never passes."""
        for n in range(2, 17):
            for topology in ("fully_connected", "ring", "leaf_spine"):
                tuner = GlobalTuner(multihost_fabric(topology, n))
                for program in tuner.candidates(primitive, n * n * 8):
                    for mutant in mutants(program):
                        assert delivery_problems(mutant), \
                            program.describe()


def engine_multihost(num_hosts, **session_kwargs):
    kwargs = dict(backend="vectorized")
    kwargs.update(session_kwargs)
    return MultiHostSystem(num_hosts, ranks_per_channel=1,
                           mram_bytes=1 << 16,
                           session_config=SessionConfig(**kwargs))


def check_allreduce_parity(mh, seed=7):
    rng = np.random.default_rng(seed)
    elems = mh.pes_per_host
    buf = mh.alloc(elems * 8)
    out = mh.alloc(elems * 8)
    inputs = [rng.integers(-100, 100, elems) for _ in range(mh.total_pes)]
    for gpe, values in enumerate(inputs):
        mh.write_pe(gpe, buf, values, INT64)
    result = multihost_allreduce(mh, elems * 8, buf, out, INT64, SUM)
    expect = ref.allreduce(inputs, SUM)[0]
    for host_out in result.outputs:
        for vec in host_out:
            np.testing.assert_array_equal(vec, expect)
    return result


def check_alltoall_parity(mh, seed=8):
    rng = np.random.default_rng(seed)
    elems = mh.total_pes
    buf = mh.alloc(elems * 8)
    out = mh.alloc(elems * 8)
    inputs = [rng.integers(0, 1000, elems) for _ in range(mh.total_pes)]
    for gpe, values in enumerate(inputs):
        mh.write_pe(gpe, buf, values, INT64)
    result = multihost_alltoall(mh, elems * 8, buf, out, INT64)
    expect = ref.alltoall(inputs)
    flat = [vec for host_out in result.outputs for vec in host_out]
    for got, want in zip(flat, expect):
        np.testing.assert_array_equal(got, want)
    return result


class TestEngineHierarchy:
    """The rebuilt hierarchy: engine sessions under every knob must
    stay bit-identical to the scalar interpreted oracle."""

    @pytest.mark.parametrize("num_hosts", [1, 2, 4, 8])
    def test_allreduce_parity_across_hosts(self, num_hosts):
        mh = engine_multihost(num_hosts)
        check_allreduce_parity(mh)
        mh.close()

    @pytest.mark.parametrize("num_hosts", [1, 2, 4, 8])
    def test_alltoall_parity_across_hosts(self, num_hosts):
        mh = engine_multihost(num_hosts)
        check_alltoall_parity(mh)
        mh.close()

    # Compiled replay runs on the arena only: the scalar store takes
    # the interpreter.
    @pytest.mark.parametrize("execution, backend", [
        ("interpreted", "scalar"), ("interpreted", "vectorized"),
        ("compiled", "vectorized")])
    def test_parity_across_backends_and_modes(self, backend, execution):
        mh = engine_multihost(2, backend=backend, execution=execution)
        check_allreduce_parity(mh)
        check_alltoall_parity(mh)
        mh.close()

    def test_streamed_parity(self):
        mh = engine_multihost(2, execution="compiled",
                              stream_tile_bytes=1 << 10)
        check_alltoall_parity(mh)
        mh.close()

    @pytest.mark.parametrize("algorithm", GLOBAL_ALGORITHMS)
    def test_every_global_algorithm_bit_identical(self, algorithm):
        """Whichever round step the tuner picks, outputs equal the
        oracle and the local ledger is untouched: on a latency-free
        fabric the minimal-volume ring wins a 4-host AlltoAll, on a
        1 ms-latency one the two-round (2, 2) exchange does."""
        mh = engine_multihost(4)
        baseline = check_alltoall_parity(mh)
        mh.close()
        latency = {"ring": 0.0, "exchange": 1e-3}[algorithm]
        chosen = MultiHostSystem(
            4, ranks_per_channel=1, mram_bytes=1 << 16,
            fabric=Fabric.fully_connected(4, latency_s=latency))
        result = check_alltoall_parity(chosen)
        assert result.global_algorithm == algorithm
        chosen.close()
        # Outputs equal by the oracle; ledgers identical too (cost
        # shaping never leaks into the local phases).
        assert result.ledger.total == pytest.approx(baseline.ledger.total)

    def test_host_level_parallel_workers(self):
        mh = engine_multihost(4, parallel_workers=4)
        assert mh._pool is not None
        # Each host's own session stays serial: the worker budget is
        # spent across hosts.
        assert all(c.session_config.parallel_workers == 1
                   for c in mh.communicators)
        check_allreduce_parity(mh)
        check_alltoall_parity(mh)
        mh.close()

    def test_reduce_scatter_and_allgather_on_engine(self):
        mh = engine_multihost(4, execution="compiled")
        rng = np.random.default_rng(11)
        tp = mh.total_pes
        elems = tp * 2
        buf = mh.alloc(elems * 8)
        out = mh.alloc(16)
        inputs = [rng.integers(-50, 50, elems) for _ in range(tp)]
        for gpe, values in enumerate(inputs):
            mh.write_pe(gpe, buf, values, INT64)
        multihost_reduce_scatter(mh, elems * 8, buf, out, INT64, SUM)
        expect = ref.reduce_scatter(inputs, SUM)
        for gpe in range(tp):
            np.testing.assert_array_equal(
                mh.read_pe(gpe, out, 2, INT64), expect[gpe])

        gbuf = mh.alloc(16)
        gout = mh.alloc(tp * 16)
        ginputs = [rng.integers(0, 100, 2) for _ in range(tp)]
        for gpe, values in enumerate(ginputs):
            mh.write_pe(gpe, gbuf, values, INT64)
        multihost_allgather(mh, 16, gbuf, gout, INT64)
        gexpect = ref.allgather(ginputs)[0]
        for gpe in range(tp):
            np.testing.assert_array_equal(
                mh.read_pe(gpe, gout, tp * 2, INT64), gexpect)
        mh.close()

    def test_topology_changes_cost_not_results(self):
        flat = engine_multihost(4)
        ring = MultiHostSystem(4, ranks_per_channel=1, mram_bytes=1 << 16,
                               fabric=Fabric.ring(4))
        a = check_alltoall_parity(flat)
        b = check_alltoall_parity(ring)
        # A physical ring hops non-neighbour traffic, so the same
        # payload takes longer on the fabric.
        assert b.fabric_seconds > a.fabric_seconds
        flat.close()
        ring.close()

    def test_fabric_and_session_validation(self):
        with pytest.raises(CollectiveError, match="spans"):
            MultiHostSystem(2, fabric=Fabric.fully_connected(4))


class TestFabricElision:
    def test_zero_payload_elides_fabric_bytes(self):
        sparse = engine_multihost(2, elide_transfers=True)
        elems = sparse.total_pes
        buf = sparse.alloc(elems * 8)
        out = sparse.alloc(elems * 8)
        zeros = np.zeros(elems, dtype=np.int64)
        for gpe in range(sparse.total_pes):
            sparse.write_pe(gpe, buf, zeros, INT64)
        result = multihost_alltoall(sparse, elems * 8, buf, out, INT64)
        assert result.elided_fabric_bytes > 0
        assert result.fabric_bytes == 0
        for host_out in result.outputs:
            for vec in host_out:
                assert not vec.any()
        # The ledger pays for the fingerprint scan.
        assert result.ledger.seconds.get("elide", 0.0) > 0.0
        sparse.close()

    def test_dense_payload_elides_nothing(self):
        mh = engine_multihost(2, elide_transfers=True)
        result = check_alltoall_parity(mh)
        assert result.elided_fabric_bytes == 0
        assert result.fabric_bytes > 0
        mh.close()

    def test_sparse_cheaper_than_dense(self):
        dense = engine_multihost(2, elide_transfers=False)
        baseline = check_alltoall_parity(dense)
        dense.close()
        sparse = engine_multihost(2, elide_transfers=True)
        elems = sparse.total_pes
        buf = sparse.alloc(elems * 8)
        out = sparse.alloc(elems * 8)
        zeros = np.zeros(elems, dtype=np.int64)
        for gpe in range(sparse.total_pes):
            sparse.write_pe(gpe, buf, zeros, INT64)
        result = multihost_alltoall(sparse, elems * 8, buf, out, INT64)
        assert result.fabric_seconds < baseline.fabric_seconds
        sparse.close()


class TestMultihostStats:
    def test_global_phase_counters(self):
        mh = engine_multihost(2)
        check_allreduce_parity(mh)
        check_alltoall_parity(mh)
        stats = mh.stats
        assert stats.global_phases == 2
        assert stats.fabric_bytes > 0
        assert stats.fabric_seconds > 0.0
        assert sum(stats.global_algorithms.values()) == 2
        snap = stats.snapshot()
        assert snap["global_phases"] == 2
        assert "multihost:" in stats.report()
        mh.close()

    def test_single_host_records_no_global_phase(self):
        mh = engine_multihost(1)
        check_allreduce_parity(mh)
        assert mh.stats.global_phases == 0
        mh.close()


class TestBackCompat:
    def test_combined_ledger_has_fabric_category(self):
        mh = small_multihost(2)
        result = multihost_allreduce(mh, 1 << 10, 0, 0, functional=False)
        merged = result.combined()
        assert merged.seconds["fabric"] == pytest.approx(
            result.fabric_seconds)
        assert merged.total == pytest.approx(result.seconds)


if __name__ == "__main__":
    TUNER_GOLDEN.write_text(json.dumps(tuner_seconds(), indent=1,
                                       sort_keys=True) + "\n")
    print(f"wrote {TUNER_GOLDEN}")
