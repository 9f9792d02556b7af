"""Class prototypes in the shared metric space.

A class prototype starts as the degree-weighted sum of its support node
embeddings (hub nodes count more), then gets refined by multi-head scaled
dot-product attention: the initial prototype queries the sequence formed by
itself plus the supports, and the attended value is added back through a
residual connection.  A plain-mean mode is kept for the degenerate
prototype-network baseline.

All classes of a ``compute_prototypes`` call are built at once, in a fixed
number of array operations whatever the class and head counts.  One gather
stacks every class's supports; one constant [C x sum(k)] matrix holds the
per-class weights, so a matmul gives all initial prototypes.  The attention
runs over one sequence holding the segments [initial_c; supports_c] back to
back: Q, K and V are one matmul each, a constant [d x H] head-indicator
matrix sums each head's query-key products into [N x H] scores, one segment
softmax normalizes every (class, head) pair, and a constant [C x N] matrix
pools the weighted values back to one row per class.  Segments stay ragged,
with no padding and no mask, and each class sees only its own supports.
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
           "compute_prototypes",
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


def _support_weights(degrees, lens, mode: str = "attention") -> np.ndarray:
    """[C x sum(lens)] weights: row c weights class c's segment of the stacked supports.

    Each row sums to one.  ``mode="attention"`` weights supports by degree,
    ``"mean"`` by 1/k.  A class whose degrees are all zero (every support
    isolated) falls back to uniform weights, since the weighting is undefined
    there.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    lens = np.asarray(lens, dtype=np.int64)
    if degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    starts = np.cumsum(lens) - lens
    owner = np.repeat(np.arange(len(lens)), lens)
    if mode == "mean":
        weights = 1.0 / lens[owner]
    else:
        totals = np.add.reduceat(degrees, starts)[owner]
        isolated = totals == 0
        if isolated.any():
            log.warning("all-zero support degrees; falling back to uniform prototype weights")
        weights = np.where(isolated, 1.0 / lens[owner], degrees / np.where(isolated, 1.0, totals))
    matrix = np.zeros((len(lens), len(degrees)))
    matrix[owner, np.arange(len(degrees))] = weights
    return matrix


def initial_prototype(support_embeddings: Tensor, support_degrees) -> Tensor:
    """Degree-weighted sum of support embeddings; weights sum to one.

    An all-zero degree sum (every support isolated) falls back to uniform
    weights, since the weighting is undefined there.
    """
    if support_embeddings.ndim != 2 or support_embeddings.shape[0] == 0:
        raise EmptySupportError("need a non-empty [k x dim] support embedding matrix")
    k = support_embeddings.shape[0]
    if np.shape(support_degrees) != (k,):
        raise dm.ShapeError("one degree per support embedding required")
    weights = _support_weights(support_degrees, [k])[0]
    dtype = support_embeddings.dtype
    return dm.matmul(dm.constant(weights.astype(dtype), dtype=dtype), support_embeddings)


def refine_prototype(params: ClassAttentionParams, initial: Tensor, supports: Tensor,
                     lens=None, with_weights: bool = False):
    """Multi-head attention of each initial prototype over [initial; its supports],
    added residually.

    ``initial`` is [C x d] (or [d] for one class) and ``supports`` stacks every
    class's support rows, ``lens[c]`` of them for class c (default: all rows
    belong to the one class).  Returns the refined prototypes, shaped like
    ``initial``, plus the attention weights [heads x (C + sum(lens))] over the
    class-by-class segments [initial_c; supports_c] if requested.
    """
    d = params.out_dim
    if initial.ndim not in (1, 2) or initial.shape[-1] != d or supports.ndim != 2 \
            or supports.shape[1] != d:
        raise dm.ShapeError(
            f"dimension mismatch: prototype {initial.shape}, supports "
            f"{supports.shape}, params expect dim {d}")
    init = dm.reshape(initial, (1, d)) if initial.ndim == 1 else initial
    c = init.shape[0]
    lens = np.array([supports.shape[0]]) if lens is None else np.asarray(lens, dtype=np.int64)
    if lens.shape != (c,) or lens.min() < 1 or lens.sum() != supports.shape[0]:
        raise dm.ShapeError(f"support counts {lens.tolist()} do not split "
                            f"{supports.shape[0]} supports over {c} classes")
    # sequence row layout: class by class, each initial prototype before its supports
    seg_lens = lens + 1
    starts = np.cumsum(seg_lens) - seg_lens
    n = int(seg_lens.sum())
    owner = np.repeat(np.arange(c), seg_lens)
    order = c + np.arange(n) - owner - 1      # positions in concat([init, supports])
    order[starts] = np.arange(c)
    seq = dm.take_rows(dm.concat([init, supports], axis=0), order)             # [N x d]

    dtype = params.dtype
    d_k = params.d_k
    head_of = np.zeros((d, params.heads), dtype=dtype)                          # [d x H]
    head_of[np.arange(d), np.arange(d) // d_k] = 1
    pool = np.zeros((c, n), dtype=dtype)                                        # [C x N]
    pool[owner, np.arange(n)] = 1

    queries = dm.matmul(init, dm.transpose(params.wq))                         # [C x d]
    keys = dm.matmul(seq, dm.transpose(params.wk))                             # [N x d]
    values = dm.matmul(seq, dm.transpose(params.wv))                           # [N x d]
    products = dm.mul(dm.take_rows(queries, owner), keys)
    scores = dm.scale(dm.matmul(products, dm.constant(head_of, dtype)), 1.0 / np.sqrt(d_k))
    attn = dm.segment_softmax(scores, starts, seg_lens)                         # [N x H]
    weighted = dm.mul(dm.matmul(attn, dm.constant(head_of.T, dtype)), values)  # [N x d]
    refined = dm.add(init, dm.matmul(dm.constant(pool, dtype), weighted))
    if initial.ndim == 1:
        refined = dm.reshape(refined, (d,))
    if with_weights:
        return refined, dm.transpose(attn)
    return refined


def compute_prototypes(embeddings: Tensor, supports: Mapping[int, Sequence[int]],
                       g: Graph, params: ClassAttentionParams,
                       mode: str = "attention", rows=None) -> PrototypeSet:
    """One refined prototype per class from its support nodes.

    Degrees come from the current snapshot, so node influence follows the
    evolving structure.  ``mode="mean"`` replaces the degree weighting by
    the plain mean and skips the attention refinement.  ``embeddings`` has
    one row per graph row, or, given ``rows`` (ascending graph rows, as
    passed to ``encode``), one row per entry of ``rows``.
    """
    if mode not in ("attention", "mean"):
        raise ValueError(f"unknown prototype mode {mode!r}")
    class_ids = sorted(int(c) for c in supports)
    if not class_ids:
        raise EmptySupportError("no classes to build prototypes for")
    members = [list(supports[cls]) for cls in class_ids]
    lens = np.array([len(ids) for ids in members])
    if not lens.all():
        raise EmptySupportError(f"class {class_ids[lens.argmin()]} has an empty support set")
    graph_rows = g.rows_of([v for ids in members for v in ids])
    emb_rows = graph_rows if rows is None else np.searchsorted(rows, graph_rows)
    support_emb = dm.take_rows(embeddings, emb_rows)
    dtype = embeddings.dtype
    weights = _support_weights(g.degrees()[graph_rows], lens, mode).astype(dtype)
    vectors = dm.matmul(dm.constant(weights, dtype), support_emb)
    if mode == "attention":
        vectors = refine_prototype(params, vectors, support_emb, lens)
    return PrototypeSet(tuple(class_ids), vectors,
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
