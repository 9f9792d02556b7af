"""Binary container for named tensors (model checkpoints, prototypes).

Layout, all little-endian:
  magic b"GFSP"
  u32 tensor count
  per tensor: u32 name length, utf-8 name, u32 kind << 16 | ndim, u32 dims...,
  payload

Kind 0 is a float32 payload and kind 1 an int64 one.  Files written before
the int64 kind existed hold only kind 0, so they read as they always have.

A model reads its tensors through ``checked_tensor`` and ``checked_ints``,
which hold each tensor to the shape the checkpoint's own metadata gives it
and each metadata entry to a non-negative integer.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fileio import replacing

_MAGIC = b"GFSP"
# kind code -> payload dtype
_KINDS = {0: np.dtype("<f4"), 1: np.dtype("<i8")}

__all__ = ["CheckpointError", "save_tensors", "load_tensors", "checked_tensor",
           "checked_ints"]


class CheckpointError(Exception):
    pass


def checked_tensor(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """Tensor ``name``, which must have ``shape``; ``KeyError`` when it is absent."""
    arr = tensors[name]
    if arr.shape != tuple(shape):
        raise CheckpointError(f"tensor {name!r} has shape {list(arr.shape)}, "
                              f"expected {list(shape)}")
    return arr


def checked_ints(tensors: dict, name: str, count: int) -> tuple:
    """The ``count`` entries of the 1-D metadata tensor ``name`` as ints.  Each
    must be a non-negative integer; older files hold them as float32."""
    arr = checked_tensor(tensors, name, (count,))
    if not (np.isfinite(arr).all() and (arr >= 0).all() and (arr == np.floor(arr)).all()):
        raise CheckpointError(f"tensor {name!r} holds {arr.tolist()}, "
                              f"expected non-negative integers")
    return tuple(int(v) for v in arr)


def save_tensors(path, tensors: dict) -> None:
    """Write a {name: array} mapping: integer arrays exactly, as int64, and
    every other array as float32.

    The file is replaced whole: a failed write leaves the previous one."""
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)                # keeps 0-d shapes
            kind = 1 if np.issubdtype(arr.dtype, np.integer) else 0
            arr = arr.astype(_KINDS[kind], copy=False)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(struct.pack(f"<I{arr.ndim}I", kind << 16 | arr.ndim, *arr.shape))
            # the array's own buffer; only a non-C-order one (a transposed
            # layer weight) is copied into C order first
            fh.write(np.ascontiguousarray(arr))


def load_tensors(path) -> dict:
    """The {name: array} mapping of a file.  Each payload is read straight
    into its own new array; no copy of the whole file is held."""
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"missing checkpoint: {p}")
    with open(p, "rb") as fh:
        total = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8 or head[:4] != _MAGIC:
            raise CheckpointError(f"{p}: bad magic, expected {_MAGIC!r}")
        (count,) = struct.unpack_from("<I", head, 4)

        def unpack(fmt):            # struct.error on a short read
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        tensors = {}
        try:
            for _ in range(count):
                (name_len,) = unpack("<I")
                name = fh.read(name_len).decode("utf-8")
                (word,) = unpack("<I")
                kind, ndim = divmod(word, 1 << 16)
                if kind not in _KINDS:
                    raise CheckpointError(f"{p}: unknown kind {kind} of tensor {name!r}")
                dtype = _KINDS[kind]
                shape = unpack(f"<{ndim}I")
                size = int(np.prod(shape, dtype=np.int64))
                if fh.tell() + dtype.itemsize * size > total:
                    raise CheckpointError(f"{p}: truncated payload for tensor {name!r}")
                arr = np.empty(shape, dtype)
                fh.readinto(arr.reshape(-1).view(np.uint8))
                tensors[name] = arr
        except struct.error as exc:
            raise CheckpointError(f"{p}: truncated header ({exc})") from None
        if fh.tell() != total:
            raise CheckpointError(f"{p}: {total - fh.tell()} trailing bytes")
    return tensors
