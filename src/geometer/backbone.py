"""Two-layer graph-attention encoder mapping node features into the metric space.

Each node attends over its neighbors plus itself; attention scores are
leaky-rectified linear forms of the transformed endpoint states, normalized
per neighborhood.  Layer one applies an exponential-linear nonlinearity and
concatenates heads; the output layer has one head and is linear (identity),
so embeddings live in an unconstrained metric space.

The per-graph edge structure (neighborhoods sorted by center node) is
computed once and cached on the graph, until ``Graph.drop_caches``.

Each layer is one autodiff op, ``gat_layer``, with a hand-derived vjp: per
head it projects z = x W, scores every edge (SDDMM), normalizes the scores
per neighborhood (``dm.segment_softmax``) and aggregates with the sparse
attention matrix (SpMM), the fusion of DGL and FeatGraph.  For its backward
the op keeps, per head, z, the per-edge scores and weights and the attention
matrix over them, and the layer output; layer 0's ELU runs in place on the
aggregate, so beside z it holds one [rows x hidden] array, its output.

The backward releases what it saved as it goes, so it runs once: a second
backward through the op raises ``dm.TapeReleasedError``.  Per head it first
runs every step that reads z (the per-edge dot products, the softmax and
leaky-ReLU vjps, the score terms of the attention vector), then drops the
head's saved entry, freeing z.  Only then does it build z's gradient in one
buffer, ``att.T @ g`` plus the two score terms added in row blocks through
one small scratch array; and it drops the incoming gradient (for layer 0,
the ELU gradient) before the weight product ``x.T @ g_z``.  Since
``dm.backward`` keeps no reference to the gradient it hands a vjp, layer 0's
backward holds at most two [rows x hidden] arrays beyond the tape at once.
It sets subnormal gradient entries to 0 where they enter a layer and in each
row block of z's gradient: a few of them (from a log-softmax whose
log-probabilities fall below the float32 exponent range, say) make the
sparse layer-0 product ``x.T @ g_z`` several times slower.
An op whose parameters track no gradient (an inference encode) keeps
nothing: it frees each head's z once aggregated, so a full-graph encode
peaks near two [nodes x hidden] arrays, and it checks finiteness through
min and max instead of an elementwise mask.

Each head holds its weight as a C-order [in x out] matrix, so a layer
projects with ``states @ W`` and the weight gradient of either product
(dense, or the constant sparse layer-0 features) comes back in C order with
no transposed copy.  Checkpoints store the transpose, [out x in], as they
always have.

Exact receptive-field encoding: ``encode(..., rows=r)`` returns only the
embeddings of graph rows ``r``.  The output layer reads layer-0 outputs only
on the neighborhoods of ``r`` (R1), and layer 0 reads projected inputs only
on the neighborhoods of R1 (R0).  So layer 0 projects the R0 input rows and
scores, normalizes and aggregates only the edges into R1, and the output
layer does the same for the edges into ``r``.  Nothing is sampled or cut:
the rows equal those of the full-graph encode up to float32 rounding (BLAS
may order a row's sum differently when it is handed fewer rows).  A training
episode reads a few dozen rows, so forward and backward skip most of the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from . import diffmath as dm
from .diffmath import Tensor
from .graph_store import Graph

LEAKY_SLOPE = 0.2
# Bytes per gathered row copy in the attention-weight gradient: a block of
# edges gathers two [block x width] row copies, not two [edges x width] ones.
# Two copies fill 1 MiB, half of a 2 MiB L2: at width 512 (256-edge blocks),
# over 9,666 edges the dot products took a median 3.1 ms against 4.1 ms in
# 512-edge blocks (timeit, Xeon).  A narrow layer gets longer blocks (4,096
# edges at float32 width 32), so fewer gathers and einsum calls
_EDGE_BLOCK_BYTES = 1 << 19
# entries per block of the scan for subnormal gradient entries: each block's
# magnitudes (256 KiB of float32) stay in cache for their minimum
_FLUSH_BLOCK = 65536
# rows per block of the score terms added into z's gradient: one
# [block x width] scratch instead of two [rows x width] outer products
_ROW_BLOCK = 256

__all__ = ["HeadParams", "BackboneParams", "init_backbone", "gat_layer", "encode"]


@dataclass
class HeadParams:
    weight: Tensor   # [in x out_h], C order; checkpoints hold its transpose
    attn: Tensor     # [2 * out_h]


@dataclass
class BackboneParams:
    layers: tuple            # two tuples of HeadParams: layer 0's heads, then one
    feature_dim: int
    hidden_dim: int
    out_dim: int

    @property
    def heads(self) -> int:
        """Layer 0's head count; the output layer has one head."""
        return len(self.layers[0])

    def tensors(self):
        return [t for layer in self.layers for hp in layer for t in (hp.weight, hp.attn)]

    @property
    def dtype(self):
        return self.layers[0][0].weight.dtype

    def detached(self) -> "BackboneParams":
        """The same weight arrays, uncopied, in tensors that track no gradient:
        an encode through them records no autodiff tape."""
        layers = tuple(tuple(HeadParams(hp.weight.detach(), hp.attn.detach()) for hp in layer)
                       for layer in self.layers)
        return replace(self, layers=layers)


def _glorot(rng, shape, dtype):
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0] if len(shape) > 1 else 1
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape).astype(dtype)


def init_backbone(feature_dim: int, hidden: int, out_dim: int, seed: int,
                  heads: int = 1, dtype=np.float32) -> BackboneParams:
    """Glorot-uniform initialization, deterministic under ``seed``; ``heads``
    is layer 0's head count."""
    if min(feature_dim, hidden, out_dim) <= 0:
        raise ValueError("all backbone dimensions must be positive")
    if hidden % heads != 0:
        raise ValueError(f"hidden dim {hidden} not divisible by {heads} heads")
    layer_specs = [(feature_dim, hidden // heads, heads), (hidden, out_dim, 1)]
    layers = []
    for li, (in_dim, out_h, n_heads) in enumerate(layer_specs):
        heads_p = []
        for hi in range(n_heads):
            rng = np.random.default_rng([seed, li, hi])
            heads_p.append(HeadParams(
                # drawn [out x in], the layout checkpoints store, held [in x out]
                weight=dm.tensor(np.ascontiguousarray(_glorot(rng, (out_h, in_dim), dtype).T),
                                 requires_grad=True),
                attn=dm.tensor(_glorot(rng, (2 * out_h,), dtype), requires_grad=True),
            ))
        layers.append(tuple(heads_p))
    return BackboneParams(tuple(layers), feature_dim, hidden, out_dim)


# ---------------------------------------------------------------------------
# self-inclusive neighborhood structure

@dataclass
class _EdgeStructure:
    """Neighborhoods of ``n_out`` center rows over ``n_in`` input rows.

    Entries are grouped by center, sources ascending within a center;
    ``src`` and ``center`` are positions among the input rows.
    """
    src: np.ndarray          # input position of each entry's source
    dst: np.ndarray          # output row of each entry
    center: np.ndarray       # input position of each entry's center
    starts: np.ndarray       # segment starts per output row
    lens: np.ndarray
    src_i32: np.ndarray      # int32 CSR (indices, indptr) of the [n_out x n_in] attention matrix
    indptr_i32: np.ndarray
    n_in: int

    @property
    def n_out(self) -> int:
        return len(self.lens)


def _structure(src, lens, centers, n_in: int) -> _EdgeStructure:
    """From grouped sources, segment lengths and each center's input position."""
    indptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    dst = np.repeat(np.arange(len(lens)), lens)
    return _EdgeStructure(src, dst, centers[dst], indptr[:-1], lens,
                          src.astype(np.int32), indptr.astype(np.int32), n_in)


def _edge_structure(g: Graph) -> _EdgeStructure:
    """Every node's neighborhood over the whole graph, cached on the graph."""
    if "gat_edges" in g._op_cache:
        return g._op_cache["gat_edges"]
    n = g.node_count
    e = g.edges
    loop = np.arange(n, dtype=np.int64)
    src = np.concatenate([e[:, 0], e[:, 1], loop])
    dst = np.concatenate([e[:, 1], e[:, 0], loop])
    order = np.lexsort((src, dst))
    struct = _structure(src[order], np.bincount(dst, minlength=n), loop, n)
    g._op_cache["gat_edges"] = struct
    return struct


def _receptive_field(g: Graph, out_rows: np.ndarray):
    """Neighborhoods of graph rows ``out_rows`` over their union, and the union.

    The union (ascending graph rows) holds every row the centers attend to,
    so a layer run on it gives ``out_rows`` the outputs of the whole graph.
    """
    full = _edge_structure(g)
    lens = full.lens[out_rows]
    offsets = np.cumsum(lens) - lens
    entries = np.arange(lens.sum()) + np.repeat(full.starts[out_rows] - offsets, lens)
    sources = full.src[entries]
    member = np.zeros(g.node_count, dtype=bool)
    member[sources] = True
    position = np.cumsum(member) - 1
    in_rows = np.flatnonzero(member)
    return _structure(position[sources], lens, position[out_rows], len(in_rows)), in_rows


# ---------------------------------------------------------------------------
# layers

def _attention(op, z: np.ndarray, attn: np.ndarray, struct: _EdgeStructure, track: bool):
    """One head's per-edge attention over projected states ``z``, in frame ``op``.

    Returns the [n_out x n_in] attention matrix (CSR, its values the weights)
    and the leaky-rectified scores and weights as ``dm`` tensors, whose vjps
    the layer's backward reuses when ``track`` is set.
    """
    out_h = z.shape[1]
    s_center = op.matmul(z, attn[:out_h], "non-finite attention score")
    s_neigh = op.matmul(z, attn[out_h:], "non-finite attention score")
    with op:
        scores = s_center[struct.center] + s_neigh[struct.src]
    leaky = dm.leaky_relu(Tensor(scores, requires_grad=track), LEAKY_SLOPE)
    alpha = dm.segment_softmax(leaky, struct.starts, struct.lens)
    att = sparse.csr_matrix((alpha.data, struct.src_i32, struct.indptr_i32),
                            shape=(struct.n_out, struct.n_in), copy=False)
    return att, leaky, alpha


def _flush_subnormals(a: np.ndarray, inplace: bool = False) -> np.ndarray:
    """``a`` with its subnormal entries set to 0 (signed zeros keep their
    sign): in place, or else in a copy made only when there is one, since
    the tape may share ``a``."""
    tiny = np.finfo(a.dtype).tiny
    flat = a.reshape(-1)
    if all(np.abs(flat[lo:lo + _FLUSH_BLOCK]).min() >= tiny
           for lo in range(0, flat.size, _FLUSH_BLOCK)):
        return a                                    # no entry is subnormal, nor 0
    found = np.abs(a) < tiny
    found &= a != 0
    if not found.any():
        return a
    if not inplace:
        a = a.copy()
    a[found] = 0
    return a


def _head_vjp(g: np.ndarray, saved: list, attn: np.ndarray, struct: _EdgeStructure):
    """Gradients of one head's aggregate ``att @ z`` w.r.t. z and the
    attention vector, given the aggregate's gradient ``g``; the head's
    ``(z, att, leaky, alpha)`` entry is popped off the front of ``saved``.

    Every step that reads z runs first (the per-edge dot products, the
    softmax and leaky-ReLU vjps, the score terms of the attention vector),
    and z is freed after its last read.  z's gradient is then one buffer: the
    aggregation term ``att.T @ g``, then in each row block the center-score
    and neighbor-score terms added in that order, with the block's subnormal
    entries set to 0 while it is in cache.
    """
    z, att, leaky, alpha = saved.pop(0)
    out_h, dtype = z.shape[1], z.dtype
    g_alpha = np.empty(len(struct.src), dtype=np.result_type(g, z))
    edges = max(1, _EDGE_BLOCK_BYTES // (out_h * g_alpha.itemsize))
    for lo in range(0, len(g_alpha), edges):
        block = slice(lo, lo + edges)
        g_alpha[block] = np.einsum("ed,ed->e", g[struct.dst[block]], z[struct.src[block]])
    (g_scores,) = leaky._vjp(*alpha._vjp(g_alpha))
    g_attn = np.zeros_like(attn)
    g_s = []
    for part, idx in ((slice(0, out_h), struct.center), (slice(out_h, None), struct.src)):
        # summed per node in float64, as the op chain this layer replaced did
        g_s.append(np.bincount(idx, weights=g_scores, minlength=struct.n_in).astype(dtype))
        g_attn[part] += z.T @ g_s[-1]
    del z                                           # read for the last time
    g_z = (att.T @ g).astype(dtype, copy=False)
    scratch = np.empty((min(len(g_z), _ROW_BLOCK), out_h), dtype=dtype)
    for lo in range(0, len(g_z), _ROW_BLOCK):
        block = g_z[lo:lo + _ROW_BLOCK]
        for g_part, a_part in zip(g_s, (attn[None, :out_h], attn[None, out_h:])):
            block += np.multiply(g_part[lo:lo + _ROW_BLOCK, None], a_part,
                                 out=scratch[:len(block)])
        _flush_subnormals(block, inplace=True)
    return g_z, g_attn


def gat_layer(params: BackboneParams, g: Graph, states, layer: int,
              struct: _EdgeStructure | None = None) -> Tensor:
    """One attention layer over the self-inclusive neighborhoods, as one
    autodiff op (see the module docstring).

    ``states``, a ``dm.Tensor`` or a constant scipy CSR matrix, has one row
    per input row of ``struct`` (default: every node of ``g``); the result
    has one row per output row of ``struct``.
    """
    struct = _edge_structure(g) if struct is None else struct
    if not (isinstance(states, Tensor) or sparse.issparse(states)):
        raise TypeError(f"gat_layer: states must be a dm.Tensor or a sparse matrix, "
                        f"got {type(states).__name__}")
    heads = params.layers[layer]
    if states.shape[0] != struct.n_in:
        raise dm.ShapeError(f"states rows {states.shape[0]} != input rows {struct.n_in}")
    if states.shape[1] != heads[0].weight.shape[0]:
        raise dm.ShapeError(f"states width {states.shape[1]} != layer {layer} input "
                            f"{heads[0].weight.shape[0]}")
    if isinstance(states, Tensor) and states.dtype != params.dtype:
        raise dm.ShapeError(f"mixed dtypes {states.dtype} vs {params.dtype}")
    x = states if sparse.issparse(states) else states.data
    parents = tuple(t for hp in heads for t in (hp.weight, hp.attn))
    grad_states = isinstance(states, Tensor) and states.requires_grad
    if grad_states:
        parents = (states, *parents)
    track = any(p.requires_grad for p in parents)
    concat = len(heads) > 1                         # only layer 0 has several heads
    out = np.empty((struct.n_out, params.hidden_dim), dtype=params.dtype) if concat else None
    saved, col = [], 0
    op = dm.fused("gat_layer")
    for hp in heads:
        z = (x @ hp.weight.data).astype(hp.weight.dtype, copy=False)
        op.finite(z, "non-finite projection")
        att, leaky, alpha = _attention(op, z, hp.attn.data, struct, track)
        agg = (att @ z).astype(z.dtype, copy=False)
        if track:
            saved.append((z, att, leaky, alpha))
        del z
        if concat:
            out[:, col:col + agg.shape[1]] = agg
            col += agg.shape[1]
        else:
            out = agg
        del agg
    if layer == 0:
        with op:
            dm.elu_inplace(out)

    def vjp(g_out):
        if len(saved) != len(heads):
            raise dm.TapeReleasedError(f"gat_layer: layer {layer}'s backward already ran "
                                       "and released its saved arrays")
        g_out = _flush_subnormals(g_out)
        if layer == 0:
            g_out = dm.elu_grad(out, g_out)
        g_states, grads, col = None, [], 0
        for i, hp in enumerate(heads):
            g_h = g_out
            if concat:
                width = hp.weight.shape[1]
                g_h = g_out[:, col:col + width]
                col += width
            if i == len(heads) - 1:
                del g_out                           # g_h holds its last reference
            g_z, g_attn = _head_vjp(g_h, saved, hp.attn.data, struct)
            del g_h                                 # freed before the weight product
            grads += [(x.T @ g_z).astype(g_z.dtype, copy=False), g_attn]
            if grad_states:
                part = g_z @ hp.weight.data.T
                g_states = part if g_states is None else np.add(g_states, part, out=g_states)
            del g_z
        return (g_states, *grads) if grad_states else tuple(grads)

    return dm.node(out, parents, vjp)


def _dropout(h: Tensor, rate: float, rng, n: int, rows) -> Tensor:
    """Inverted dropout of ``h``, which holds graph rows ``rows`` (None: all ``n``).

    The mask is drawn for all ``n`` rows and then sliced, so the random
    stream and the kept entries match those of the full-graph encode.
    """
    if rows is None or rate <= 0.0:
        return dm.dropout(h, rate, rng)
    keep = dm.dropout_mask((n, *h.shape[1:]), rate, rng, h.dtype)
    return dm.mul(h, dm.Tensor(keep[rows]))


def encode(params: BackboneParams, g: Graph, dropout_rate: float = 0.0,
           rng: np.random.Generator | None = None, *, rows=None) -> Tensor:
    """Node embeddings [node_count x out_dim]; differentiable end-to-end.

    With ``rows`` (graph row indices) only those rows come back, in that
    order, computed from their exact receptive field (see the module
    docstring).
    """
    if g.feature_dim != params.feature_dim:
        raise dm.ShapeError(
            f"graph feature dim {g.feature_dim} != backbone input {params.feature_dim}")
    dtype = params.dtype
    if g.node_count == 0:
        return dm.tensor(np.zeros((0, params.out_dim), dtype=dtype), dtype=dtype)
    if rows is None:
        struct0 = struct1 = _edge_structure(g)
        rows0 = rows1 = None
    else:
        struct1, rows1 = _receptive_field(g, np.asarray(rows, dtype=np.int64))
        struct0, rows0 = _receptive_field(g, rows1)
    h = g.features_sparse(rows0) if dtype == np.float32 and dropout_rate == 0.0 else None
    if h is None:
        # gathered from the feature store, checked finite when it was loaded
        h = Tensor(g.feature_rows(rows0).astype(dtype, copy=False))
        h = _dropout(h, dropout_rate, rng, g.node_count, rows0)
    h = gat_layer(params, g, h, 0, struct0)
    h = _dropout(h, dropout_rate, rng, g.node_count, rows1)
    return gat_layer(params, g, h, 1, struct1)
