"""Shared-memory transport for columnar update batches.

``ProcessShardExecutor`` talks to its workers over pipes, so by default
every argument — including a cycle's :class:`repro.updates.FlatUpdateBatch`
— is pickled, copied into the pipe, copied out and unpickled.  For the
update stream that is the dominant transfer cost of a sharded cycle: the
batch is 42 bytes per row (five 8-byte columns plus two mask bytes) and
crosses the pipe every timestamp.

Because the batch columns are buffer-backed (``array('q')`` /
``array('d')`` / ``bytearray``), they can instead be written into one
``multiprocessing.shared_memory`` block — the packed column block of
:meth:`repro.updates.FlatUpdateBatch.column_bytes` on the parent side, a
single attach + memcpy per column on the worker side — while only
a fixed-size :class:`ShmBatchHandle` (segment name, row count, timestamp
and the rare query updates) travels through the pipe.

Lifetime protocol: the *parent* owns the segment.  :func:`pack_flat_batch`
creates it, the handle crosses the pipe, the worker attaches, copies the
columns out and detaches immediately (:func:`unpack_flat_batch`), and the
parent unlinks after the command's reply arrives.  Workers suppress the
resource tracker's registration while attaching — before Python 3.13
the tracker registers every attach as if it were ownership, and (with a
fork-context worker, which shares the parent's tracker process) either
keeping or undoing that registration corrupts the parent's own
ownership record.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from repro.updates import FlatUpdateBatch, QueryUpdate

#: bytes per row: oids/old_xs/old_ys/new_xs/new_ys at 8 bytes + two masks.
ROW_BYTES = 42

#: default minimum batch length for the shared-memory path.  Below this the
#: fixed per-segment cost (shm_open/mmap/unlink syscalls on both sides)
#: exceeds what pickling a few KB through the pipe costs; measured
#: crossover is a few hundred rows (recorded in PR 7: CHANGES.md and the
#: ``BENCH_PR7.json`` annotations).
SHM_MIN_ROWS = 256


@dataclass(frozen=True, slots=True)
class ShmBatchHandle:
    """Fixed-size pipe-picklable descriptor of a batch parked in shm."""

    name: str
    n: int
    timestamp: int
    query_updates: tuple[QueryUpdate, ...]


def pack_flat_batch(
    batch: FlatUpdateBatch,
) -> tuple[ShmBatchHandle, shared_memory.SharedMemory]:
    """Write ``batch``'s columns into a fresh shared-memory block.

    Returns the pipe-ready handle and the segment itself; the caller owns
    the segment and must ``close()`` + ``unlink()`` it once the consumer
    has copied the columns out (i.e. after the command's reply).
    """
    n = len(batch)
    shm = shared_memory.SharedMemory(create=True, size=max(1, ROW_BYTES * n))
    block = batch.column_bytes()
    shm.buf[: len(block)] = block
    handle = ShmBatchHandle(shm.name, n, batch.timestamp, batch.query_updates)
    return handle, shm


def release_segment(shm: shared_memory.SharedMemory) -> None:
    """Detach and destroy a segment created by :func:`pack_flat_batch`."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def unpack_flat_batch(handle: ShmBatchHandle) -> FlatUpdateBatch:
    """Rebuild the batch from a segment some other process owns.

    Attaches, memcpys the columns into fresh buffer-backed arrays and
    detaches before returning — the returned batch never aliases the
    segment, so the owner may unlink it at any point afterwards.
    """
    # Attaching registers this process as an owner with the resource
    # tracker (unconditional before 3.13's track=False), which is wrong
    # twice over: a spawn-context worker's tracker would destroy (or
    # warn about) a segment the parent still owns, and a fork-context
    # worker SHARES the parent's tracker process, so un-registering
    # after the fact would strip the parent's own registration and make
    # its eventual unlink spew KeyErrors.  Suppressing the registration
    # during the attach sidesteps both.
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        shm = shared_memory.SharedMemory(name=handle.name)
    finally:
        resource_tracker.register = orig_register
    try:
        return FlatUpdateBatch.from_column_bytes(
            handle.n, shm.buf, handle.timestamp, handle.query_updates
        )
    finally:
        shm.close()


def encode_args(
    args: tuple, segments: list, min_rows: int = SHM_MIN_ROWS
) -> tuple:
    """Swap large :class:`FlatUpdateBatch` arguments for shm handles.

    Segments created along the way are appended to ``segments``; the
    caller releases them (:func:`release_segment`) after the reply.
    Arguments below ``min_rows`` — and everything that is not a flat
    batch — pass through untouched.
    """
    if not any(
        type(a) is FlatUpdateBatch and len(a) >= min_rows for a in args
    ):
        return args
    encoded = []
    for a in args:
        if type(a) is FlatUpdateBatch and len(a) >= min_rows:
            handle, shm = pack_flat_batch(a)
            segments.append(shm)
            encoded.append(handle)
        else:
            encoded.append(a)
    return tuple(encoded)


def decode_args(args: tuple) -> tuple:
    """Inverse of :func:`encode_args`, run inside the worker."""
    if not any(type(a) is ShmBatchHandle for a in args):
        return args
    return tuple(
        unpack_flat_batch(a) if type(a) is ShmBatchHandle else a for a in args
    )
