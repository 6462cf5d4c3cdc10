"""Persistence for RR collections.

DIIMM on large inputs spends nearly all its time generating RR sets;
checkpointing a machine's collection lets a run resume (or lets seed
selection be replayed with different ``k``) without regenerating.  The
format packs all RR sets into two flat arrays (values + offsets) — the
very layout :class:`~repro.ris.flat.FlatRRCollection` keeps in memory, so
saving or loading a collection is a handful of numpy calls with no
per-set loop at all.

Every checkpoint carries a magic marker plus a format version
(:data:`FORMAT_MAGIC` / :data:`FORMAT_VERSION`).  Loading verifies both
before touching any array, so a stale, truncated or foreign ``.npz``
fails with a :class:`CheckpointFormatError` that names the file and the
problem instead of an opaque numpy/zipfile traceback.

The same framing discipline extends to *in-flight* worker payloads: the
multiprocessing executor ships every generation batch as a
:func:`pack_message` frame — magic, version, body length and a CRC32
checksum ahead of the pickled body — and :func:`unpack_message` verifies
all four before unpickling, so a corrupted or truncated payload surfaces
as a typed :class:`PayloadCorruptionError` the retry machinery can
recover from instead of a pickle crash or, worse, silently wrong RR
sets.

For *streaming* transports (the socket executor's TCP connections) the
frame also acts as the record delimiter: :func:`read_frame` pulls one
frame off a ``recv``-style callable, tolerating arbitrarily chunked
delivery, distinguishing a clean end-of-stream at a frame boundary from
mid-frame truncation (:class:`FrameTruncatedError`) and refusing
oversized length claims (:class:`FrameTooLargeError`) *before*
allocating the body.
"""

from __future__ import annotations

import os
import pickle
import struct
import zipfile
import zlib
from typing import Any

import numpy as np

from .flat import FlatRRCollection

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "MESSAGE_MAGIC",
    "MESSAGE_VERSION",
    "MESSAGE_HEADER_BYTES",
    "DEFAULT_MAX_FRAME_BODY",
    "CheckpointFormatError",
    "PayloadCorruptionError",
    "FrameTruncatedError",
    "FrameTooLargeError",
    "pack_message",
    "unpack_message",
    "read_frame",
    "save_collection",
    "load_collection",
]

#: Identifies a file as an RR-collection checkpoint.
FORMAT_MAGIC = "repro-rr-collection"
#: Current on-disk layout version.  Bump when the array schema changes
#: (2: per-set ``edges_examined`` replaced the aggregate).
FORMAT_VERSION = 2


class CheckpointFormatError(ValueError):
    """A checkpoint file is unreadable, foreign, or of another version."""


#: Identifies a byte string as a framed worker payload.
MESSAGE_MAGIC = b"RPRO"
#: Current wire-frame version.  Bump when the frame layout changes.
MESSAGE_VERSION = 1
#: Frame header: magic (4s), version (H), body length (Q), CRC32 (I).
_MESSAGE_HEADER = struct.Struct("<4sHQI")
MESSAGE_HEADER_BYTES = _MESSAGE_HEADER.size


class PayloadCorruptionError(RuntimeError):
    """A framed payload failed its magic/version/length/CRC32 check."""


class FrameTruncatedError(PayloadCorruptionError):
    """A stream ended mid-frame (inside a header or a promised body)."""


class FrameTooLargeError(PayloadCorruptionError):
    """A frame header promised a body above the caller's size limit."""


#: Largest frame body :func:`read_frame` accepts by default (1 GiB).  A
#: corrupted length field would otherwise let one bad frame demand an
#: arbitrary allocation before the CRC could catch it.
DEFAULT_MAX_FRAME_BODY = 1 << 30


def pack_message(payload: Any) -> bytes:
    """Frame ``payload`` for transport: header + CRC32 + pickled body.

    The frame is what the multiprocessing executor's workers return for
    every generation batch; :func:`unpack_message` refuses to unpickle a
    body whose checksum does not match, which is how injected (or real)
    payload corruption is detected and retried deterministically.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _MESSAGE_HEADER.pack(
        MESSAGE_MAGIC, MESSAGE_VERSION, len(body), zlib.crc32(body)
    )
    return header + body


def unpack_message(frame: bytes) -> Any:
    """Verify a :func:`pack_message` frame and return its payload.

    Raises :class:`PayloadCorruptionError` naming the failing check —
    truncated header, foreign magic, unknown version, short body or
    checksum mismatch — before any unpickling happens.
    """
    if len(frame) < MESSAGE_HEADER_BYTES:
        raise PayloadCorruptionError(
            f"payload truncated: {len(frame)} bytes is shorter than the "
            f"{MESSAGE_HEADER_BYTES}-byte frame header"
        )
    magic, version, length, crc = _MESSAGE_HEADER.unpack_from(frame)
    if magic != MESSAGE_MAGIC:
        raise PayloadCorruptionError(
            f"payload does not start with the {MESSAGE_MAGIC!r} frame magic"
        )
    if version != MESSAGE_VERSION:
        raise PayloadCorruptionError(
            f"payload uses frame version {version}, but this build reads "
            f"version {MESSAGE_VERSION}"
        )
    body = frame[MESSAGE_HEADER_BYTES:]
    if len(body) != length:
        raise PayloadCorruptionError(
            f"payload body is {len(body)} bytes but the header promised {length}"
        )
    actual = zlib.crc32(body)
    if actual != crc:
        raise PayloadCorruptionError(
            f"payload checksum mismatch: header says {crc:#010x}, "
            f"body hashes to {actual:#010x}"
        )
    return pickle.loads(body)


def _recv_exactly(recv, count: int, *, context: str, got: int = 0) -> bytes:
    """Accumulate exactly ``count`` bytes from ``recv`` or raise.

    ``recv`` follows the socket convention: called with a maximum size,
    returns up to that many bytes, returns ``b""`` only at end of
    stream.  ``got`` seeds the truncation message with bytes already
    consumed (the header, when the body goes missing).
    """
    parts: list[bytes] = []
    remaining = count
    while remaining:
        chunk = recv(remaining)
        if not chunk:
            raise FrameTruncatedError(
                f"stream ended mid-frame: expected {count + got} bytes "
                f"of {context}, got {count - remaining + got}"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame(
    recv,
    *,
    max_body: int = DEFAULT_MAX_FRAME_BODY,
    eof_ok: bool = True,
) -> Any:
    """Read one :func:`pack_message` frame from a byte stream.

    ``recv`` is a socket-style callable: ``recv(n)`` returns between 1
    and ``n`` bytes, or ``b""`` once the stream is exhausted.  Partial
    delivery is handled by looping, so the frame may arrive in
    arbitrarily small chunks.

    Returns the unpickled payload, or ``None`` when the stream ends
    cleanly *between* frames and ``eof_ok`` is true (with ``eof_ok``
    false that raises :class:`FrameTruncatedError` too).  A stream
    ending *inside* a frame always raises :class:`FrameTruncatedError`;
    a header promising more than ``max_body`` bytes raises
    :class:`FrameTooLargeError` before any body is read; magic, version
    and CRC32 violations raise :class:`PayloadCorruptionError` exactly
    as :func:`unpack_message` would — but only after the promised body
    has been drained, so the stream stays aligned on the next frame.
    """
    first = recv(MESSAGE_HEADER_BYTES)
    if not first:
        if eof_ok:
            return None
        raise FrameTruncatedError("stream ended before a frame header")
    header = first
    if len(header) < MESSAGE_HEADER_BYTES:
        header += _recv_exactly(
            recv,
            MESSAGE_HEADER_BYTES - len(header),
            context="frame header",
            got=len(header),
        )
    magic, version, length, _crc = _MESSAGE_HEADER.unpack(header)
    if magic != MESSAGE_MAGIC:
        raise PayloadCorruptionError(
            f"stream does not start with the {MESSAGE_MAGIC!r} frame magic; "
            "refusing to resynchronize"
        )
    if version != MESSAGE_VERSION:
        raise PayloadCorruptionError(
            f"frame uses version {version}, but this build reads "
            f"version {MESSAGE_VERSION}"
        )
    if length > max_body:
        raise FrameTooLargeError(
            f"frame header promises a {length}-byte body, above the "
            f"{max_body}-byte limit; refusing the allocation"
        )
    body = _recv_exactly(recv, length, context="frame body")
    # Re-checks magic/version redundantly but keeps one source of truth
    # for the CRC comparison and the unpickle step.
    return unpack_message(header + body)


def save_collection(collection: FlatRRCollection, path: str | os.PathLike) -> None:
    """Write a collection (and its accounting) to a compressed file.

    The CSR arrays and the per-set ``edges_examined`` are written as-is.
    """
    np.savez_compressed(
        path,
        magic=np.asarray(FORMAT_MAGIC),
        version=np.int64(FORMAT_VERSION),
        num_nodes=np.int64(collection.num_nodes),
        offsets=collection.offsets.astype(np.int64, copy=False),
        values=collection.nodes.astype(np.int32, copy=False),
        edges_examined=collection.edges_examined,
    )


def _read_arrays(path: str | os.PathLike):
    try:
        data = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointFormatError(
            f"{os.fspath(path)!r} is not a readable RR-collection checkpoint "
            f"(corrupt or truncated file): {exc}"
        ) from exc
    with data:
        if "magic" not in data.files or str(data["magic"]) != FORMAT_MAGIC:
            raise CheckpointFormatError(
                f"{os.fspath(path)!r} is not an RR-collection checkpoint "
                f"(missing {FORMAT_MAGIC!r} header); refusing to guess at its layout"
            )
        version = int(data["version"])
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"{os.fspath(path)!r} uses checkpoint format version {version}, "
                f"but this build reads version {FORMAT_VERSION}; "
                "regenerate the checkpoint with the matching release"
            )
        return (
            int(data["num_nodes"]),
            data["offsets"],
            data["values"],
            data["edges_examined"],
        )


def load_collection(path: str | os.PathLike) -> FlatRRCollection:
    """Load a collection written by :func:`save_collection`.

    The on-disk values/offsets pair *is* the store's CSR layout, so this
    performs no per-set work; only the inverted index is rebuilt on first
    read.  Each set keeps its own ``edges_examined``, so every prefix's
    generation work (:meth:`~repro.ris.flat.FlatRRCollection.edges_examined_upto`)
    reads as it did in the run that saved the file.
    """
    num_nodes, offsets, values, edges = _read_arrays(path)
    collection = FlatRRCollection(num_nodes)
    collection.append_arrays(values, offsets, edges)
    return collection
