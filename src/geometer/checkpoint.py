"""Binary container for named tensors (model checkpoints, prototypes).

Layout, all little-endian:
  magic b"GFSP"
  u32 tensor count
  per tensor: u32 name length, utf-8 name, u32 kind << 16 | ndim, u32 dims...,
  payload

Kind 0 is a float32 payload and kind 1 an int64 one.  Files written before
the int64 kind existed hold only kind 0, so they read as they always have.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .fileio import replacing

_MAGIC = b"GFSP"
# kind code -> payload dtype
_KINDS = {0: np.dtype("<f4"), 1: np.dtype("<i8")}

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]


class CheckpointError(Exception):
    pass


def save_tensors(path, tensors: dict) -> None:
    """Write a {name: array} mapping: integer arrays exactly, as int64, and
    every other array as float32.

    The file is replaced whole: a failed write leaves the previous one."""
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)                # keeps 0-d shapes; tobytes() C-orders
            kind = 1 if np.issubdtype(arr.dtype, np.integer) else 0
            arr = arr.astype(_KINDS[kind], copy=False)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(struct.pack(f"<I{arr.ndim}I", kind << 16 | arr.ndim, *arr.shape))
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
            (word,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            kind, ndim = divmod(word, 1 << 16)
            if kind not in _KINDS:
                raise CheckpointError(f"{p}: unknown kind {kind} of tensor {name!r}")
            dtype = _KINDS[kind]
            shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
            offset += 4 * ndim
            size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            end = offset + dtype.itemsize * size
            if end > len(raw):
                raise CheckpointError(f"{p}: truncated payload for tensor {name!r}")
            tensors[name] = np.frombuffer(raw[offset:end], dtype=dtype).reshape(shape).copy()
            offset = end
    except struct.error as exc:
        raise CheckpointError(f"{p}: truncated header ({exc})") from None
    if offset != len(raw):
        raise CheckpointError(f"{p}: {len(raw) - offset} trailing bytes")
    return tensors
