"""Bit-exact binary container for named tensors.

Layout, all integers little-endian:

    magic   4 bytes  ASCII "GTC1"
    count   u32      number of tensors
    per tensor:
        name_len  u16
        name      UTF-8 bytes
        rank      u32
        dims      rank * u32
        payload   product(dims) * f32, row-major IEEE-754

Values are stored as 32-bit floats while all computation is 64-bit: the
writer rounds, the reader widens. Writing the same tensors twice produces
identical bytes, and write(read(blob)) == blob.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

MAGIC = b"GTC1"


class ContainerError(ValueError):
    """Raised on malformed container bytes or invalid tensor sets."""


def pack_tensors(named: Iterable[tuple[str, np.ndarray]]) -> bytes:
    """Serialize (name, array) pairs in the given order.

    A finite value that rounds to infinity in float32 raises
    ContainerError naming its tensor."""
    items = [(name, np.ascontiguousarray(arr, dtype=np.float64)) for name, arr in named]
    seen = set()
    for name, _ in items:
        if name in seen:
            raise ContainerError(f"duplicate tensor name {name!r}")
        seen.add(name)
    out = [MAGIC, struct.pack("<I", len(items))]
    for name, arr in items:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ContainerError(f"tensor name too long: {len(encoded)} bytes")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        with np.errstate(over="ignore"):
            stored = arr.astype("<f4")
        if (np.isinf(stored) & np.isfinite(arr)).any():
            raise ContainerError(f"tensor {name!r} holds finite values beyond the float32 range")
        out.append(stored.tobytes())
    return b"".join(out)


def unpack_tensors(blob: bytes) -> dict[str, np.ndarray]:
    """Parse container bytes back into float64 arrays, insertion-ordered."""
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    view = memoryview(blob)
    at = 4

    def take(n: int) -> memoryview:
        nonlocal at
        if at + n > len(blob):
            raise ContainerError(f"truncated container: wanted {n} bytes at offset {at}")
        chunk = view[at:at + n]
        at += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name_at = at
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"tensor name at offset {name_at} is not UTF-8 "
                                 f"({exc.reason})") from None
        if name in named:
            raise ContainerError(f"duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n_values = 1
        for d in dims:
            n_values *= d
        payload = np.frombuffer(take(4 * n_values), dtype="<f4")
        named[name] = payload.astype(np.float64).reshape(dims)
    if at != len(blob):
        raise ContainerError(f"{len(blob) - at} trailing bytes after last tensor")
    return named


def write_container(path, named: Iterable[tuple[str, np.ndarray]]) -> None:
    blob = pack_tensors(named)
    with open(path, "wb") as fh:
        fh.write(blob)


def read_container(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return unpack_tensors(fh.read())
