"""The checkpoint format: one model and its seed as a file of named tensors.

A checkpoint holds, in this order: ``meta/session_index`` [1];
``backbone/meta`` [5] (the feature, hidden and embedding dims, then the head
counts of layer 0 and of the output layer, both always 1); per layer ``l``
its one head's ``backbone/l<l>/h0/weight`` [out x in] then
``backbone/l<l>/h0/attn`` [2 * out]; ``class_attention/meta`` [1] (its head
count);
``class_attention/wq``, ``wk`` and ``wv`` [dim x dim]; ``prototypes/classes``
[C] (distinct ascending class ids); ``prototypes/vectors`` [C x dim]; and
``meta/seed`` [1].  A head's weight is stored [out x in], the transpose of
the C-order [in x out] matrix that ``backbone`` trains.  Metadata and class
ids are int64 (float32 in older files, see below); older files also hold
per-class ``prototypes/carried`` tags, which are not read.

``model_to_arrays`` and ``arrays_to_model`` are the only code that knows
these names and layouts.  A model loads only when each tensor it needs has
the shape the checkpoint's own metadata gives it, each metadata entry is a
non-negative integer, each backbone layer has one head, the class-attention
head count divides the embedding dim and the class ids ascend; otherwise a
``CheckpointError`` names the tensor.

File layout, all little-endian:
  magic b"GFSP"
  u32 tensor count
  per tensor: u32 name length, utf-8 name, u32 kind << 16 | ndim, u32 dims...,
  payload

Kind 0 is a float32 payload and kind 1 an int64 one.  Files written before
the int64 kind existed hold only kind 0, so they read as they always have.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from . import diffmath as dm
from .backbone import BackboneParams, HeadParams
from .fileio import replacing
from .prototypes import ClassAttentionParams, PrototypeSet
from .runner import ModelState

_MAGIC = b"GFSP"
# kind code -> payload dtype
_KINDS = {0: np.dtype("<f4"), 1: np.dtype("<i8")}
_CLASS_ATTENTION = ("wq", "wk", "wv")

__all__ = ["CheckpointError", "save_tensors", "load_tensors", "model_to_arrays",
           "arrays_to_model"]


class CheckpointError(Exception):
    pass


def model_to_arrays(model: ModelState, seed: int) -> dict:
    """The checkpoint arrays of ``model`` trained under ``seed``, in file order."""
    bb, ca, protos = model.backbone, model.class_attention, model.prototypes
    arrays = {"meta/session_index": np.array([model.session_index], dtype=np.int64),
              "backbone/meta": np.array([bb.feature_dim, bb.hidden_dim, bb.out_dim, 1, 1],
                                        dtype=np.int64)}
    for li, hp in enumerate(bb.layers):
        arrays[f"backbone/l{li}/h0/weight"] = hp.weight.data.T
        arrays[f"backbone/l{li}/h0/attn"] = hp.attn.data
    arrays["class_attention/meta"] = np.array([ca.heads], dtype=np.int64)
    for w, t in zip(_CLASS_ATTENTION, ca.tensors()):
        arrays[f"class_attention/{w}"] = t.data
    arrays["prototypes/classes"] = np.array(protos.class_ids, dtype=np.int64)
    arrays["prototypes/vectors"] = protos.vectors.data
    arrays["meta/seed"] = np.array([seed], dtype=np.int64)
    return arrays


def arrays_to_model(arrays: dict) -> tuple:
    """The model and seed of checkpoint arrays; the seed is None when they hold
    none.  The weights and attention vectors track gradients; the arrays of an
    in-memory round trip keep their dtype."""

    def tensor(name: str, *shape) -> np.ndarray:
        """Tensor ``name``, which must have ``shape``; a dim of None is its size."""
        if name not in arrays:
            raise CheckpointError(f"missing tensor {name!r}")
        arr = arrays[name]
        shape = tuple(arr.size if d is None else d for d in shape)
        if arr.shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {list(arr.shape)}, "
                                  f"expected {list(shape)}")
        return arr

    def ints(name: str, count) -> tuple:
        """The ``count`` entries (None: all) of 1-D ``name``, non-negative ints."""
        arr = tensor(name, count)
        if not (np.isfinite(arr).all() and (arr >= 0).all() and (arr == np.floor(arr)).all()):
            raise CheckpointError(f"tensor {name!r} holds {arr.tolist()}, "
                                  f"expected non-negative integers")
        return tuple(int(v) for v in arr)

    def param(arr: np.ndarray) -> dm.Tensor:
        return dm.tensor(arr, requires_grad=True)

    seed = ints("meta/seed", 1)[0] if "meta/seed" in arrays else None
    (session_index,) = ints("meta/session_index", 1)

    feature_dim, hidden, dim, *heads = ints("backbone/meta", 5)
    if heads != [1, 1]:
        raise CheckpointError(f"tensor 'backbone/meta' gives the layers {heads[0]} and "
                              f"{heads[1]} heads, expected 1 and 1")
    layers = tuple(
        HeadParams(weight=param(np.ascontiguousarray(
                       tensor(f"backbone/l{li}/h0/weight", out, in_dim).T)),
                   attn=param(tensor(f"backbone/l{li}/h0/attn", 2 * out)))
        for li, (in_dim, out) in enumerate(((feature_dim, hidden), (hidden, dim))))
    backbone = BackboneParams(layers, feature_dim, hidden, dim)

    (ca_heads,) = ints("class_attention/meta", 1)
    if ca_heads == 0 or dim % ca_heads:
        raise CheckpointError(f"tensor 'class_attention/meta' splits embedding dim {dim} "
                              f"across {ca_heads} heads")
    class_attention = ClassAttentionParams(
        *(param(tensor(f"class_attention/{w}", dim, dim)) for w in _CLASS_ATTENTION),
        heads=ca_heads)

    class_ids = ints("prototypes/classes", None)
    if any(a >= b for a, b in zip(class_ids, class_ids[1:])):
        raise CheckpointError(f"tensor 'prototypes/classes' holds {list(class_ids)}, "
                              f"expected distinct ascending class ids")
    prototypes = PrototypeSet(class_ids,
                              dm.tensor(tensor("prototypes/vectors", len(class_ids), dim)))
    return ModelState(backbone, class_attention, prototypes, session_index), seed


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
    if p.is_dir():
        raise CheckpointError(f"{p}: is a directory, not a checkpoint file")
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
                at = fh.tell()
                try:
                    name = fh.read(name_len).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"{p}: tensor name at byte {at + exc.start} "
                                          f"is not UTF-8") from None
                at = fh.tell()
                (word,) = unpack("<I")
                kind, ndim = divmod(word, 1 << 16)
                if kind not in _KINDS:
                    raise CheckpointError(f"{p}: unknown kind {kind} of tensor {name!r} "
                                          f"at byte {at}")
                dtype = _KINDS[kind]
                dims_at = fh.tell()
                shape = unpack(f"<{ndim}I")
                nbytes = dtype.itemsize * math.prod(shape)  # a Python int, which cannot wrap
                if fh.tell() + nbytes > total:
                    raise CheckpointError(
                        f"{p}: truncated payload for tensor {name!r}: shape {shape}, from the "
                        f"dimension words at byte {dims_at}, needs {nbytes} bytes, "
                        f"{total - fh.tell()} remain")
                try:
                    arr = np.empty(shape, dtype)
                except ValueError:
                    raise CheckpointError(f"{p}: tensor {name!r} has {ndim} dimensions, more "
                                          f"than numpy supports, in its kind word at byte "
                                          f"{at}") from None
                fh.readinto(arr.reshape(-1).view(np.uint8))
                tensors[name] = arr
        except struct.error as exc:
            raise CheckpointError(f"{p}: truncated header ({exc})") from None
        if fh.tell() != total:
            raise CheckpointError(f"{p}: {total - fh.tell()} trailing bytes")
    return tensors
