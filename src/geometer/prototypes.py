"""Class prototypes in the shared metric space.

A class prototype starts as the degree-weighted sum of its support node
embeddings (hub nodes count more), then gets refined by multi-head scaled
dot-product attention: the initial prototype queries the sequence formed by
itself plus the supports, and the attended value is added back through a
residual connection.  A plain-mean mode is kept for the degenerate
prototype-network baseline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import diffmath as dm
from .diffmath import Tensor
from .graph_store import Graph

log = logging.getLogger(__name__)

ORIGIN_COMPUTED = "computed"
ORIGIN_CARRIED = "carried"

__all__ = ["ClassAttentionParams", "PrototypeSet", "EmptySupportError",
           "init_class_attention", "initial_prototype", "refine_prototype",
           "mean_prototype", "compute_prototypes",
           "prototypes_to_arrays", "arrays_to_prototypes"]


class EmptySupportError(ValueError):
    pass


@dataclass
class ClassAttentionParams:
    wq: Tensor   # [out_dim x out_dim], rows split across heads
    wk: Tensor
    wv: Tensor
    heads: int

    @property
    def out_dim(self) -> int:
        return self.wq.shape[1]

    @property
    def d_k(self) -> int:
        return self.out_dim // self.heads

    def tensors(self):
        return [self.wq, self.wk, self.wv]

    @property
    def dtype(self):
        return self.wq.dtype


def init_class_attention(out_dim: int, heads: int = 4, seed: int = 0,
                         dtype=np.float32) -> ClassAttentionParams:
    if out_dim % heads != 0:
        raise ValueError(f"embedding dim {out_dim} not divisible by {heads} heads")
    s = np.sqrt(6.0 / (2 * out_dim))
    mats = []
    for tag in range(3):
        rng = np.random.default_rng([seed, 101, tag])
        mats.append(dm.tensor(rng.uniform(-s, s, size=(out_dim, out_dim)).astype(dtype),
                              requires_grad=True, dtype=dtype))
    return ClassAttentionParams(*mats, heads=heads)


@dataclass
class PrototypeSet:
    """One vector per class encountered so far; class ids kept ascending."""

    class_ids: tuple
    vectors: Tensor        # [num_classes x dim]
    origins: tuple         # per class: "computed" or "carried"

    def __post_init__(self):
        if list(self.class_ids) != sorted(self.class_ids):
            raise ValueError("prototype class ids must be ascending")
        if len(self.class_ids) != self.vectors.shape[0] or len(self.origins) != len(self.class_ids):
            raise ValueError("one vector and origin tag per class required")
        if not np.all(np.isfinite(self.vectors.data)):
            raise dm.NonFiniteError("prototype vectors must be finite")

    def __len__(self):
        return len(self.class_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def index_of(self, class_id: int) -> int:
        try:
            return self.class_ids.index(class_id)
        except ValueError:
            raise KeyError(f"no prototype for class {class_id}") from None

    def subset(self, class_ids: Sequence[int]) -> "PrototypeSet":
        wanted = tuple(sorted(int(c) for c in class_ids))
        idx = [self.index_of(c) for c in wanted]
        return PrototypeSet(wanted, dm.take_rows(self.vectors, idx),
                            tuple(self.origins[i] for i in idx))


def initial_prototype(support_embeddings: Tensor, support_degrees) -> Tensor:
    """Degree-weighted sum of support embeddings; weights sum to one.

    An all-zero degree sum (every support isolated) falls back to uniform
    weights, since the weighting is undefined there.
    """
    if support_embeddings.ndim != 2 or support_embeddings.shape[0] == 0:
        raise EmptySupportError("need a non-empty [k x dim] support embedding matrix")
    degrees = np.asarray(support_degrees, dtype=np.float64)
    if degrees.shape != (support_embeddings.shape[0],):
        raise dm.ShapeError("one degree per support embedding required")
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    total = degrees.sum()
    if total == 0:
        log.warning("all-zero support degrees; falling back to uniform prototype weights")
        weights = np.full(len(degrees), 1.0 / len(degrees))
    else:
        weights = degrees / total
    w = dm.constant(weights.astype(support_embeddings.dtype), dtype=support_embeddings.dtype)
    return dm.matmul(w, support_embeddings)


def refine_prototype(params: ClassAttentionParams, initial: Tensor,
                     support_embeddings: Tensor, with_weights: bool = False):
    """Multi-head attention over [initial; supports], added residually.

    The query is the projected initial prototype (one row per head); keys and
    values are projections of the stacked sequence.  Returns the refined
    prototype, plus the per-head attention weights if requested.
    """
    d = params.out_dim
    if initial.shape != (d,) or support_embeddings.shape[1] != d:
        raise dm.ShapeError(
            f"dimension mismatch: prototype {initial.shape}, supports "
            f"{support_embeddings.shape}, params expect dim {d}")
    seq = dm.concat([dm.reshape(initial, (1, d)), support_embeddings], axis=0)
    d_k = params.d_k
    inv_sqrt_dk = 1.0 / np.sqrt(d_k)
    head_outs, head_weights = [], []
    for h in range(params.heads):
        rows = np.arange(h * d_k, (h + 1) * d_k)
        wq_h = dm.take_rows(params.wq, rows)
        wk_h = dm.take_rows(params.wk, rows)
        wv_h = dm.take_rows(params.wv, rows)
        q = dm.matmul(wq_h, initial)                      # [d_k]
        keys = dm.matmul(seq, dm.transpose(wk_h))         # [k+1, d_k]
        scores = dm.scale(dm.matmul(keys, q), inv_sqrt_dk)
        attn = dm.softmax(scores)
        values = dm.matmul(seq, dm.transpose(wv_h))
        head_outs.append(dm.matmul(attn, values))         # [d_k]
        head_weights.append(attn)
    refined = dm.add(initial, dm.concat(head_outs, axis=0))
    if with_weights:
        return refined, dm.stack(head_weights)
    return refined


def mean_prototype(support_embeddings: Tensor) -> Tensor:
    if support_embeddings.ndim != 2 or support_embeddings.shape[0] == 0:
        raise EmptySupportError("need a non-empty [k x dim] support embedding matrix")
    return dm.mean(support_embeddings, axis=0)


def compute_prototypes(embeddings: Tensor, supports: Mapping[int, Sequence[int]],
                       g: Graph, params: ClassAttentionParams,
                       mode: str = "attention", rows=None) -> PrototypeSet:
    """One refined prototype per class from its support nodes.

    Degrees come from the current snapshot, so node influence follows the
    evolving structure.  ``mode="mean"`` bypasses both the degree weighting
    and the attention refinement.  ``embeddings`` has one row per graph row,
    or, given ``rows`` (ascending graph rows, as passed to ``encode``), one
    row per entry of ``rows``.
    """
    if mode not in ("attention", "mean"):
        raise ValueError(f"unknown prototype mode {mode!r}")
    class_ids, rows_per_class = [], []
    for cls in sorted(int(c) for c in supports):
        ids = list(supports[cls])
        if not ids:
            raise EmptySupportError(f"class {cls} has an empty support set")
        class_ids.append(cls)
        rows_per_class.append(g.rows_of(ids))
    degrees = g.degrees()
    vectors = []
    for cls, graph_rows in zip(class_ids, rows_per_class):
        emb_rows = graph_rows if rows is None else np.searchsorted(rows, graph_rows)
        support_emb = dm.take_rows(embeddings, emb_rows)
        if mode == "mean":
            vectors.append(mean_prototype(support_emb))
        else:
            init = initial_prototype(support_emb, degrees[graph_rows])
            vectors.append(refine_prototype(params, init, support_emb))
    return PrototypeSet(tuple(class_ids), dm.stack(vectors),
                        tuple(ORIGIN_COMPUTED for _ in class_ids))


# ---------------------------------------------------------------------------
# checkpoint plumbing

def class_attention_to_arrays(params: ClassAttentionParams) -> dict:
    return {
        "class_attention/meta": np.array([params.heads], dtype=np.float32),
        "class_attention/wq": params.wq.data,
        "class_attention/wk": params.wk.data,
        "class_attention/wv": params.wv.data,
    }


def arrays_to_class_attention(arrays: dict) -> ClassAttentionParams:
    heads = int(arrays["class_attention/meta"][0])
    return ClassAttentionParams(
        wq=dm.tensor(arrays["class_attention/wq"], requires_grad=True),
        wk=dm.tensor(arrays["class_attention/wk"], requires_grad=True),
        wv=dm.tensor(arrays["class_attention/wv"], requires_grad=True),
        heads=heads)


def prototypes_to_arrays(protos: PrototypeSet) -> dict:
    return {
        "prototypes/classes": np.array(protos.class_ids, dtype=np.float32),
        "prototypes/vectors": protos.vectors.data,
        "prototypes/carried": np.array(
            [1.0 if o == ORIGIN_CARRIED else 0.0 for o in protos.origins], dtype=np.float32),
    }


def arrays_to_prototypes(arrays: dict) -> PrototypeSet:
    class_ids = tuple(int(c) for c in arrays["prototypes/classes"])
    origins = tuple(ORIGIN_CARRIED if c > 0.5 else ORIGIN_COMPUTED
                    for c in arrays["prototypes/carried"])
    return PrototypeSet(class_ids, dm.tensor(arrays["prototypes/vectors"]), origins)
