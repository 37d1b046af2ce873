"""Binary checkpoint container.

Single-file layout (all integers little-endian):

    magic      8 bytes   b"PRSDCKP1"
    version    uint32    currently 1
    count      uint32    number of entries
    entry*     count times:
        name_len   uint32
        name       utf-8 bytes
        ndim       uint32
        dims       ndim * uint64
        payload    prod(dims) * float64 (little-endian, row-major)

Entries are written in sorted name order so identical state always
produces identical bytes. Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PRSDCKP1"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_entries(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    path = Path(path)
    chunks: list[bytes] = [MAGIC, struct.pack("<II", VERSION, len(entries))]
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype="<f8")  # asarray keeps 0-d shapes intact
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(chunks))


def load_entries(path: str | Path) -> dict[str, np.ndarray]:
    """Read every entry back; any malformed, truncated or non-finite content
    raises CheckpointError naming the file."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    offset = 8

    def take(size: int, what: str) -> int:
        nonlocal offset
        if offset + size > len(raw):
            raise CheckpointError(f"{path}: truncated inside {what} at byte {offset}")
        start, offset = offset, offset + size
        return start

    version, count = struct.unpack_from("<II", raw, take(8, "header"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, take(4, "entry header"))
        start = take(name_len, "entry name")
        try:
            name = raw[start:offset].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name at byte {start} is not utf-8") from None
        (ndim,) = struct.unpack_from("<I", raw, take(4, name))
        shape = struct.unpack_from(f"<{ndim}Q", raw, take(8 * ndim, name))
        n = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=take(8 * n, name)).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: entry {name} holds non-finite values")
        entries[name] = arr.astype(np.float64)  # own writable copy
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return entries
