"""Element types and reduction operators supported by the library.

UPMEM DPUs natively operate on 8/16/32/64-bit integers; host-side
reductions additionally support IEEE floats (the host performs all
arithmetic in PID-Comm, so float support is a host property).  A
:class:`DataType` couples the numpy dtype with the properties the
collective planner needs: the element width (which decides how many
elements share a 64-bit PIM word) and whether the *cross-domain
modulation* shortcut applies to arithmetic primitives (it does only for
8-bit elements, because single bytes are interpretable by the host
without a domain transfer -- paper section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollectiveError


@dataclass(frozen=True)
class DataType:
    """An element type usable in PID-Comm buffers.

    Attributes:
        name: Short name used in APIs and reports (e.g. ``"int32"``).
        np_dtype: The numpy dtype carrying the values.
    """

    name: str
    np_dtype: np.dtype

    @property
    def itemsize(self) -> int:
        """Element width in bytes."""
        return self.np_dtype.itemsize

    @property
    def cross_domain_reducible(self) -> bool:
        """Whether arithmetic on this type works on raw PIM-domain bytes.

        True only for 1-byte types: each byte is a full element, so the
        host can reduce without undoing the byte striping (paper V-C).
        """
        return self.itemsize == 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _dt(name: str) -> DataType:
    return DataType(name, np.dtype(name))


INT8 = _dt("int8")
UINT8 = _dt("uint8")
INT16 = _dt("int16")
UINT16 = _dt("uint16")
INT32 = _dt("int32")
UINT32 = _dt("uint32")
INT64 = _dt("int64")
UINT64 = _dt("uint64")
FLOAT32 = _dt("float32")
FLOAT64 = _dt("float64")

ALL_TYPES = (
    INT8, UINT8, INT16, UINT16, INT32, UINT32, INT64, UINT64,
    FLOAT32, FLOAT64,
)

_BY_NAME = {t.name: t for t in ALL_TYPES}


def dtype_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its short name.

    Raises:
        CollectiveError: If the name is unknown.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CollectiveError(
            f"unknown data type {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class ReduceOp:
    """A reduction operator usable by Reduce/ReduceScatter/AllReduce.

    Attributes:
        name: Operator name (``"sum"``, ``"min"``, ...).
        ufunc: The numpy ufunc implementing it elementwise.
        identity_for: Callable giving the identity element for a dtype.
    """

    name: str
    ufunc: np.ufunc

    def identity(self, dtype: DataType) -> np.ndarray:
        """Return a scalar identity element for ``dtype``."""
        if self.name == "sum":
            value = 0
        elif self.name == "prod":
            value = 1
        elif self.name == "min":
            info = _type_bounds(dtype)
            value = info[1]
        elif self.name == "max":
            info = _type_bounds(dtype)
            value = info[0]
        elif self.name == "bor":
            value = 0
        elif self.name == "band":
            value = -1 if dtype.np_dtype.kind == "i" else np.iinfo(dtype.np_dtype).max
        else:  # pragma: no cover - defensive
            raise CollectiveError(f"no identity for op {self.name!r}")
        return np.asarray(value, dtype=dtype.np_dtype)

    def combine(self, left: np.ndarray, right: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Elementwise-reduce two arrays of the same dtype.

        Pass ``out`` (may alias ``left``) to accumulate in place --
        the allocation-free variant streamed replay folds with.
        """
        return self.ufunc(left, right, out=out)

    def reduce_axis(self, stacked: np.ndarray, axis: int = 0,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Reduce a stacked array along ``axis``.

        The accumulator keeps the input dtype (fixed-width modular
        arithmetic, as the hardware would), instead of numpy's default
        promotion of small integers to 64-bit.  ``out`` receives the
        result without allocating when provided.
        """
        return self.ufunc.reduce(stacked, axis=axis, dtype=stacked.dtype,
                                 out=out)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _type_bounds(dtype: DataType) -> tuple[float, float]:
    if dtype.np_dtype.kind in "iu":
        info = np.iinfo(dtype.np_dtype)
        return (info.min, info.max)
    finfo = np.finfo(dtype.np_dtype)
    return (-finfo.max, finfo.max)


SUM = ReduceOp("sum", np.add)
PROD = ReduceOp("prod", np.multiply)
MIN = ReduceOp("min", np.minimum)
MAX = ReduceOp("max", np.maximum)
BOR = ReduceOp("bor", np.bitwise_or)
BAND = ReduceOp("band", np.bitwise_and)

ALL_OPS = (SUM, PROD, MIN, MAX, BOR, BAND)
_OPS_BY_NAME = {op.name: op for op in ALL_OPS}

#: Ops that only make sense on integer types.
BITWISE_OPS = frozenset({"bor", "band"})


def op_by_name(name: str) -> ReduceOp:
    """Look up a :class:`ReduceOp` by name.

    Raises:
        CollectiveError: If the name is unknown.
    """
    try:
        return _OPS_BY_NAME[name]
    except KeyError:
        raise CollectiveError(
            f"unknown reduce op {name!r}; known: {sorted(_OPS_BY_NAME)}"
        ) from None


def check_op_dtype(op: ReduceOp, dtype: DataType) -> None:
    """Validate an op/dtype pairing.

    Raises:
        CollectiveError: For bitwise ops on float types.
    """
    if op.name in BITWISE_OPS and dtype.np_dtype.kind == "f":
        raise CollectiveError(
            f"reduce op {op.name!r} is not defined for float type {dtype.name!r}"
        )
