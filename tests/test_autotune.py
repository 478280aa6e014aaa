"""Tests for the hypercube shape auto-tuner."""

import pytest

from repro.analysis import experiments as autotune_module
from repro.analysis.experiments import (
    _factorizations,
    autotune_shape,
    candidate_shapes,
)
from repro.errors import PidCommError
from repro.hw.system import DimmSystem

MB = 1 << 20


class TestCandidateShapes:
    def test_1d(self):
        assert list(candidate_shapes(1024, 1)) == [(1024,)]

    def test_2d_factorizations(self):
        shapes = list(candidate_shapes(16, 2))
        assert (4, 4) in shapes and (1, 16) in shapes and (16, 1) in shapes
        for shape in shapes:
            assert shape[0] * shape[1] == 16
            assert shape[0] & (shape[0] - 1) == 0  # pow2 except last

    def test_non_pow2_total_allowed_in_last_dim(self):
        shapes = list(candidate_shapes(48, 2))
        assert (16, 3) in shapes
        # 3 never appears in a non-last position.
        assert all(s[0] & (s[0] - 1) == 0 for s in shapes)

    def test_invalid_ndim(self):
        with pytest.raises(PidCommError):
            list(candidate_shapes(16, 0))


class TestAutotune:
    @pytest.fixture(scope="class")
    def system(self):
        return DimmSystem.paper_testbed()

    def test_allgather_mix_prefers_long_x(self, system):
        """Figure 20: AllGather improves with a longer comm dimension."""
        scores = autotune_shape(
            system, 1024, 2, [("allgather", "10", 8 * MB)], min_dim=2)
        best = scores[0].shape
        worst = scores[-1].shape
        assert best[0] > worst[0]

    def test_alltoall_mix_is_shape_insensitive(self, system):
        scores = autotune_shape(
            system, 1024, 2, [("alltoall", "10", 8 * MB)], min_dim=4)
        spread = scores[-1].seconds / scores[0].seconds
        assert spread < 1.2

    def test_mixed_workload_returns_ranked_scores(self, system):
        mix = [("reduce_scatter", "10", 4 * MB),
               ("allreduce", "01", 4 * MB)]
        scores = autotune_shape(system, 1024, 2, mix, min_dim=4)
        seconds = [s.seconds for s in scores]
        assert seconds == sorted(seconds)
        assert all(s.shape[0] * s.shape[1] == 1024 for s in scores)

    def test_incompatible_mix_rejected(self, system):
        with pytest.raises(PidCommError, match="no candidate"):
            # Payload of 8 bytes cannot split into >=64-wide groups.
            autotune_shape(system, 1024, 2, [("alltoall", "10", 8)],
                           min_dim=64)

    def test_empty_mix_rejected(self, system):
        with pytest.raises(PidCommError, match="non-empty"):
            autotune_shape(system, 1024, 2, [])


class TestEnumerationMemoization:
    def test_candidate_shapes_memoized(self):
        _factorizations.cache_clear()
        first = list(candidate_shapes(512, 3))
        after_first = _factorizations.cache_info()
        second = list(candidate_shapes(512, 3))
        after_second = _factorizations.cache_info()
        assert first == second
        # The repeat enumeration re-derives nothing: one more cache hit
        # on the top-level entry, zero new misses.
        assert after_second.misses == after_first.misses
        assert after_second.hits == after_first.hits + 1

    def test_recursion_shares_suffix_subproblems(self):
        _factorizations.cache_clear()
        list(candidate_shapes(1024, 3))
        info = _factorizations.cache_info()
        # Prefix lengths 1..1024 all recurse into (1024/len, 2) suffix
        # problems; sharing those makes hits non-trivial even on the
        # very first enumeration.
        assert info.hits > 0

    def test_repeated_mix_entries_price_once(self, monkeypatch):
        system = DimmSystem.paper_testbed()
        calls = []
        real_plan = autotune_module._pid_plan

        def counting_plan(primitive, manager, dims, payload):
            calls.append((primitive, dims, payload))
            return real_plan(primitive, manager, dims, payload)

        monkeypatch.setattr(autotune_module, "_pid_plan", counting_plan)
        # 8 entries, but only 2 distinct (primitive, pattern, payload).
        mix = [("allreduce", "10", MB)] * 6 + [("allgather", "01", MB)] * 2
        scores = autotune_shape(system, 1024, 2, mix, min_dim=4)
        shapes_priced = len(scores)
        per_shape = {}
        for entry in calls:
            per_shape[entry] = per_shape.get(entry, 0) + 1
        # Each distinct entry was planned exactly once per surviving
        # shape (plus shapes rejected mid-pricing), never once per
        # repetition.
        assert len(per_shape) == 2
        assert all(count <= shapes_priced + 2 for count in per_shape.values())
        assert len(calls) < len(mix) * shapes_priced
