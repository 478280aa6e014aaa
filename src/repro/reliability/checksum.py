"""Transfer integrity: per-buffer checksums over host <-> PIM traffic.

Every guarded transfer models what a CRC-protected bus burst does: the
sender computes a checksum over the outgoing bytes, the payload crosses
the (possibly faulty) link, and the receiver verifies the delivered
bytes against the checksum *before committing them*.  A mismatch raises
:class:`~repro.errors.ChecksumError` -- a transient, retryable fault --
and the corrupted payload never lands, so injected bit flips can delay
a collective but can never silently poison its result.

``crc32`` (stdlib zlib) catches every single-bit flip, which is exactly
the corruption model :class:`~repro.reliability.faults.FaultInjector`
produces; the modelled cost of checksumming rides inside the existing
``dt``/``host_mod`` terms (checksum units sit on the same data path).

The simulator computes the CRC pair only for deliveries the injector
actually corrupted.  The injector is the link: a delivery it handed
back untouched is the sender's own buffer, whose receiver CRC equals
its sender CRC by construction, so checking it would be a content pass
with a known answer.  A corrupted delivery is a fresh copy (the
injector never mutates its input), so the sender CRC over the intact
original and the receiver CRC over the copy are the very pair an eager
check computes, and every flip raises before anything is committed.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ChecksumError, TransferDropped

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector


#: Multiplier and seed of the batched per-chunk content digest.  The
#: seed literally reuses the CRC-32 machinery above so chunk digests and
#: transfer checksums share one fingerprint family; the multiplier is an
#: odd 64-bit constant (splitmix64's golden-ratio increment) giving good
#: word diffusion under wrapping multiply.
_DIGEST_MULT = np.uint64(0x9E3779B97F4A7C15)
_DIGEST_SEED = np.uint64(zlib.crc32(b"pid-comm/chunk-digest"))


def checksum(buf: np.ndarray) -> int:
    """CRC-32 of a buffer's raw bytes (layout-independent).

    zlib reads the contiguous ``uint8`` view through the buffer
    protocol, so a contiguous input is checksummed in place (a
    ``tobytes()`` copy cost as much as the CRC itself on MiB-scale
    lane matrices).
    """
    arr = np.ascontiguousarray(buf)
    return zlib.crc32(arr.reshape(-1).view(np.uint8))


def chunk_digests(words: np.ndarray) -> np.ndarray:
    """Batched per-chunk content digests over ``(..., words)`` uint64.

    The vectorized companion of :func:`checksum` for content-aware
    transfer elision: one 64-bit polynomial digest per chunk, computed
    in ``chunk_bytes / 8`` vectorized passes across *all* chunks at
    once (a single streaming read of the data overall), seeded from the
    module's CRC-32 so the two fingerprint families stay tied together.
    Digests only *nominate* duplicate candidates -- the elision layer
    byte-verifies every candidate against its class representative
    before aliasing, so a collision can cost a missed elision but never
    a wrong result.
    """
    if words.dtype != np.uint64:
        raise TypeError(f"chunk digests need uint64 words, got {words.dtype}")
    with np.errstate(over="ignore"):
        acc = np.full(words.shape[:-1], _DIGEST_SEED, dtype=np.uint64)
        for k in range(words.shape[-1]):
            acc *= _DIGEST_MULT
            acc ^= words[..., k]
    return acc


def verify(sent_crc: int, delivered: np.ndarray, what: str = "transfer") -> None:
    """Receiver-side check; raises :class:`ChecksumError` on mismatch."""
    got = checksum(delivered)
    if got != sent_crc:
        raise ChecksumError(
            f"{what}: checksum mismatch (sent {sent_crc:#010x}, "
            f"received {got:#010x}); in-flight corruption detected")


def guarded_delivery(injector: "FaultInjector | None", buf: np.ndarray,
                     what: str = "transfer", drop: bool = True) -> np.ndarray:
    """Move ``buf`` across the (possibly faulty) link, verified.

    With no injector this is free and returns ``buf`` unchanged.  With
    one, the transfer may be dropped (:class:`TransferDropped`) or
    corrupted in flight; corruption is always *detected* by the CRC and
    surfaces as :class:`ChecksumError` instead of landing, so callers
    never commit corrupted bytes.  Callers that model their own partial
    delivery pass ``drop=False`` and draw the drop decision themselves.

    The drop and corruption draws happen on every call, in that order;
    the sender CRC and the receiver verify run only for a delivery the
    corruption draw returned as a copy (module docstring).  A CRC draws
    no randomness, so fault schedules do not depend on when it runs.
    """
    if injector is None:
        return buf
    if drop and injector.take_drop():
        raise TransferDropped(f"{what}: transfer dropped in flight")
    delivered = injector.corrupt_transfer(buf)
    if delivered is not buf:
        verify(checksum(buf), delivered, what)
    return delivered
