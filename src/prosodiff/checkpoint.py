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
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PRSDCKP1"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def save_entries(path: str | Path, entries: dict) -> None:
    """Write every entry in sorted name order, each as soon as it is encoded.
    An entry is any array-like; a tuple of same-shaped arrays is written as their stack."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(entries)))
        for name in sorted(entries):
            arr = np.asarray(entries[name], dtype="<f8")  # asarray keeps 0-d shapes intact
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}Q", len(encoded), encoded, arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def load_entries(path: str | Path) -> dict[str, np.ndarray]:
    """Read every entry back, one at a time from the open file; any malformed,
    truncated or non-finite content raises CheckpointError naming the file."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        offset = 8

        def take(count: int, what: str, shape: tuple[int, ...] | None = None):
            """The next count bytes, or with a shape the float64 array they fill."""
            # a length is checked against the bytes left before anything is allocated,
            # so a corrupt header cannot request an allocation larger than the file
            nonlocal offset
            if count <= size - offset:
                buffer = bytearray(count) if shape is None else np.empty(shape, dtype="<f8")
                if fh.readinto(buffer) == count:
                    offset += count
                    return buffer
            raise CheckpointError(f"{path}: truncated inside {what} at byte {offset}")

        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "entry header"))
            start = offset
            try:
                name = take(name_len, "entry name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name at byte {start} is not utf-8") from None
            (ndim,) = struct.unpack("<I", take(4, name))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, name))
            try:
                arr = take(8 * math.prod(shape), name, shape)
            except ValueError:  # zero-size, but a dim beyond what numpy can index
                raise CheckpointError(f"{path}: entry {name} has impossible shape {shape}") from None
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path}: entry {name} holds non-finite values")
            entries[name] = arr
        if offset != size:
            raise CheckpointError(f"{path}: {size - offset} trailing bytes")
    return entries
