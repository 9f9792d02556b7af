"""Binary container for named float32 tensors (model checkpoints, prototypes).

Layout, all little-endian:
  magic b"GFSP"
  u32 tensor count
  per tensor: u32 name length, utf-8 name, u32 ndim, u32 dims..., f32 payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .fileio import replacing

_MAGIC = b"GFSP"

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]


class CheckpointError(Exception):
    pass


def save_tensors(path, tensors: dict) -> None:
    """Write a {name: array} mapping; arrays are stored as float32.

    The file is replaced whole: a failed write leaves the previous one."""
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f4")   # keeps 0-d shapes; tobytes() C-orders
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def load_tensors(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"missing checkpoint: {p}")
    raw = p.read_bytes()
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise CheckpointError(f"{p}: bad magic, expected {_MAGIC!r}")
    (count,) = struct.unpack_from("<I", raw, 4)
    offset = 8
    tensors = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
            offset += 4 * ndim
            size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            end = offset + 4 * size
            if end > len(raw):
                raise CheckpointError(f"{p}: truncated payload for tensor {name!r}")
            tensors[name] = np.frombuffer(raw[offset:end], dtype="<f4").reshape(shape).copy()
            offset = end
    except struct.error as exc:
        raise CheckpointError(f"{p}: truncated header ({exc})") from None
    if offset != len(raw):
        raise CheckpointError(f"{p}: {len(raw) - offset} trailing bytes")
    return tensors
