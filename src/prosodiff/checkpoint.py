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
produces identical bytes. Round-trips are bit-exact. A reader streams each
payload straight into the arrays its caller names for the entry, so a
checkpoint is never held in memory whole.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

MAGIC = b"PRSDCKP1"
VERSION = 1
BIG_ENDIAN = sys.byteorder == "big"


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


def load_entries(
    path: str | Path,
    into: Callable[[str, tuple[int, ...]], Sequence[np.ndarray]] | None = None,
    check: Callable[[str, Sequence[np.ndarray]], None] | None = None,
) -> dict[str, np.ndarray]:
    """Stream every entry of path, one at a time, into arrays; any malformed,
    truncated or non-finite content raises CheckpointError naming the file.

    ``into(name, shape)`` returns the float64 arrays an entry's payload fills,
    in order: one of its shape or, for an [n, ...] entry, n of shape [...]. It
    may refuse the entry by raising CheckpointError, and ``check(name,
    arrays)`` may refuse the values once they are read. Without ``into``, each
    entry fills a new array and the returned dict holds them by name; with it,
    the dict is empty.
    """
    entries: dict[str, np.ndarray] = {}

    def new(name: str, shape: tuple[int, ...]) -> tuple[np.ndarray]:
        entries[name] = np.empty(shape)
        return (entries[name],)

    into = into or new
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        offset = 8

        def fits(count: int, what: str) -> None:
            # a length is checked against the bytes left before anything is allocated,
            # so a corrupt header cannot request an allocation larger than the file
            if count > size - offset:
                raise CheckpointError(f"{path}: truncated inside {what} at byte {offset}")

        def take(count: int, what: str, buffer=None):
            """The next count bytes, read into buffer or else into a new bytearray."""
            nonlocal offset
            fits(count, what)
            buffer = bytearray(count) if buffer is None else buffer
            if fh.readinto(buffer) != count:  # the file shrank while being read
                raise CheckpointError(f"{path}: truncated inside {what} at byte {offset}")
            offset += count
            return buffer

        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "entry header"))
            start = offset
            try:
                name = take(name_len, "entry name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name at byte {start} is not utf-8") from None
            (ndim,) = struct.unpack("<I", take(4, name))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, name))
            fits(8 * math.prod(shape), name)
            try:
                arrays = into(name, shape)
            except ValueError:  # zero-size, but a dim beyond what numpy can index
                raise CheckpointError(f"{path}: entry {name} has impossible shape {shape}") from None
            for array in arrays:
                take(array.nbytes, name, array)
                if BIG_ENDIAN:  # the file is little-endian
                    array.byteswap(inplace=True)
                if not np.all(np.isfinite(array)):
                    raise CheckpointError(f"{path}: entry {name} holds non-finite values")
            if check is not None:
                check(name, arrays)
        if offset != size:
            raise CheckpointError(f"{path}: {size - offset} trailing bytes")
    return entries
