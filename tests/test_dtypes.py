"""Unit tests for data types and reduction operators."""

import numpy as np
import pytest

from repro.dtypes import (
    ALL_OPS,
    ALL_TYPES,
    BAND,
    BOR,
    INT32,
    FLOAT32,
    MAX,
    MIN,
    SUM,
    check_op_dtype,
    dtype_by_name,
    op_by_name,
)
from repro.errors import CollectiveError


class TestDataType:
    def test_itemsize_matches_numpy(self):
        for t in ALL_TYPES:
            assert t.itemsize == np.dtype(t.name).itemsize

    def test_cross_domain_reducible_only_for_bytes(self):
        reducible = {t.name for t in ALL_TYPES if t.cross_domain_reducible}
        assert reducible == {"int8", "uint8"}

    def test_lookup_by_name(self):
        assert dtype_by_name("int32") is INT32

    def test_lookup_unknown_raises(self):
        with pytest.raises(CollectiveError, match="unknown data type"):
            dtype_by_name("int128")


class TestReduceOp:
    def test_sum_identity(self):
        ident = SUM.identity(INT32)
        assert ident == 0 and ident.dtype == np.int32

    def test_min_max_identities_absorb(self):
        values = np.array([3, -7, 12], dtype=np.int32)
        assert MIN.combine(MIN.identity(INT32), values).tolist() == values.tolist()
        assert MAX.combine(MAX.identity(INT32), values).tolist() == values.tolist()

    def test_bitwise_identities(self):
        values = np.array([0b1010, 0b0110], dtype=np.int32)
        assert BOR.combine(BOR.identity(INT32), values).tolist() == values.tolist()
        assert BAND.combine(BAND.identity(INT32), values).tolist() == values.tolist()

    def test_reduce_axis(self):
        stacked = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert SUM.reduce_axis(stacked).tolist() == stacked.sum(axis=0).tolist()
        assert MIN.reduce_axis(stacked).tolist() == stacked.min(axis=0).tolist()

    def test_lookup_by_name(self):
        for op in ALL_OPS:
            assert op_by_name(op.name) is op

    def test_lookup_unknown_raises(self):
        with pytest.raises(CollectiveError, match="unknown reduce op"):
            op_by_name("xor")

    def test_bitwise_on_float_rejected(self):
        with pytest.raises(CollectiveError, match="not defined for float"):
            check_op_dtype(BOR, FLOAT32)

    def test_sum_on_float_accepted(self):
        check_op_dtype(SUM, FLOAT32)  # must not raise
