"""Unit tests for PIM-domain striping and domain transfer."""

import numpy as np
import pytest

from repro.errors import TransferError
from repro.hw import domain
from repro.hw.host import rotate_lanes_registerwise


class TestDomainTransfer:
    def test_word_bytes_stripe_across_lanes(self):
        # Two 4-byte words over 4 lanes: lane l must hold byte l of each.
        host = np.arange(8, dtype=np.uint8)
        mat = domain.host_to_pim(host, lanes=4)
        assert mat.shape == (4, 2)
        # word 0 = bytes 0..3, word 1 = bytes 4..7
        assert mat[:, 0].tolist() == [0, 1, 2, 3]
        assert mat[:, 1].tolist() == [4, 5, 6, 7]

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(1)
        host = rng.integers(0, 256, 64 * 9, dtype=np.uint8)
        assert np.array_equal(
            domain.pim_to_host(domain.host_to_pim(host, 8)), host)

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(2)
        mat = rng.integers(0, 256, (8, 24), dtype=np.uint8)
        assert np.array_equal(
            domain.host_to_pim(domain.pim_to_host(mat), 8), mat)

    def test_size_must_be_lane_multiple(self):
        with pytest.raises(TransferError, match="not a multiple"):
            domain.host_to_pim(np.zeros(10, dtype=np.uint8), 8)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TransferError):
            domain.host_to_pim(np.zeros(8, dtype=np.int32), 8)
        with pytest.raises(TransferError):
            domain.pim_to_host(np.zeros((2, 2), dtype=np.float64))


class TestLanePermutations:
    def test_rotate_moves_lane_down(self):
        mat = np.arange(12, dtype=np.uint8).reshape(4, 3)
        rolled = rotate_lanes_registerwise(mat, 1)
        # lane l content moves to lane l+1
        assert np.array_equal(rolled[1], mat[0])
        assert np.array_equal(rolled[0], mat[3])

    def test_rotate_full_cycle_is_identity(self):
        mat = np.arange(12, dtype=np.uint8).reshape(4, 3)
        assert np.array_equal(rotate_lanes_registerwise(mat, 4), mat)
