"""Two-layer graph-attention encoder mapping node features into the metric space.

Each node attends over its neighbors plus itself; attention scores are
leaky-rectified linear forms of the transformed endpoint states, normalized
per neighborhood.  Layer one applies an exponential-linear nonlinearity and
concatenates heads; the output layer is linear (identity) and averages heads
so embeddings live in an unconstrained metric space.

The per-graph edge structure (neighborhoods sorted by center node) is
computed once and cached on the graph.

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
# Edges per block in the attention-weight gradient: each block gathers two
# [block x width] row copies, instead of two [edges x width] copies at once.
_EDGE_BLOCK = 512

__all__ = ["HeadParams", "BackboneParams", "init_backbone", "attention_coefficients",
           "gat_layer", "encode", "backbone_to_arrays", "arrays_to_backbone"]


@dataclass
class HeadParams:
    weight: Tensor   # [in x out_h], C order; checkpoints hold its transpose
    attn: Tensor     # [2 * out_h]


@dataclass
class BackboneParams:
    layers: tuple            # two tuples of HeadParams
    feature_dim: int
    hidden_dim: int
    out_dim: int

    @property
    def heads(self):
        return tuple(len(layer) for layer in self.layers)

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


def _weight_tensor(out_in: np.ndarray) -> Tensor:
    """The held [in x out] C-order parameter for an [out x in] weight."""
    return dm.tensor(np.ascontiguousarray(out_in.T), requires_grad=True)


def init_backbone(feature_dim: int, hidden: int, out_dim: int, seed: int,
                  heads=(1, 1), dtype=np.float32) -> BackboneParams:
    """Glorot-uniform initialization, deterministic under ``seed``."""
    if min(feature_dim, hidden, out_dim) <= 0:
        raise ValueError("all backbone dimensions must be positive")
    h1, h2 = heads
    if hidden % h1 != 0:
        raise ValueError(f"hidden dim {hidden} not divisible by {h1} heads")
    layer_specs = [(feature_dim, hidden // h1, h1), (hidden, out_dim, h2)]
    layers = []
    for li, (in_dim, out_h, n_heads) in enumerate(layer_specs):
        heads_p = []
        for hi in range(n_heads):
            rng = np.random.default_rng([seed, li, hi])
            heads_p.append(HeadParams(
                weight=_weight_tensor(_glorot(rng, (out_h, in_dim), dtype)),
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
    cached = getattr(g, "_op_cache", None)
    if cached is not None and "gat_edges" in cached:
        return cached["gat_edges"]
    n = g.node_count
    e = g.edges
    loop = np.arange(n, dtype=np.int64)
    src = np.concatenate([e[:, 0], e[:, 1], loop])
    dst = np.concatenate([e[:, 1], e[:, 0], loop])
    order = np.lexsort((src, dst))
    struct = _structure(src[order], np.bincount(dst, minlength=n), loop, n)
    if cached is not None:
        cached["gat_edges"] = struct
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


def _attend_aggregate(z: Tensor, alpha: Tensor, struct: _EdgeStructure) -> Tensor:
    """out[i] = sum over the entries of output row i of alpha * z[src]; [n_out x d].

    The aggregation is a sparse matrix product with the per-edge attention
    weights as values, which keeps both directions in C kernels.
    """
    zd, ad = z.data, alpha.data
    att = sparse.csr_matrix((ad, struct.src_i32, struct.indptr_i32),
                            shape=(struct.n_out, struct.n_in), copy=False)
    out = att @ zd

    def vjp(g):
        g_z = (att.T @ g).astype(zd.dtype, copy=False)
        g_alpha = np.empty(len(struct.src), dtype=np.result_type(g, zd))
        for lo in range(0, len(g_alpha), _EDGE_BLOCK):
            block = slice(lo, lo + _EDGE_BLOCK)
            g_alpha[block] = np.einsum("ed,ed->e", g[struct.dst[block]], zd[struct.src[block]])
        return g_z, g_alpha

    return dm._result(out.astype(zd.dtype, copy=False), (z, alpha), vjp)


def _sparse_matmul(sp, w: Tensor) -> Tensor:
    """Constant CSR matrix times a parameter matrix, with gradient to the dense side.

    For a C-order ``w`` both products run on it in place and ``sp.T @ g``
    returns a C-order gradient.
    """
    out = sp @ w.data
    if out.size and not np.all(np.isfinite(out)):
        raise dm.NonFiniteError("sparse_matmul: non-finite result")

    def vjp(g):
        return ((sp.T @ g).astype(w.dtype, copy=False),)

    return dm._result(out.astype(w.dtype, copy=False), (w,), vjp)


# ---------------------------------------------------------------------------
# layers

def _head_attention(hp: HeadParams, struct: _EdgeStructure, states):
    """Transformed input states and per-edge attention weights for one head."""
    out_h = hp.weight.shape[1]
    if isinstance(states, Tensor):
        z = dm.matmul(states, hp.weight)
    else:
        z = _sparse_matmul(states, hp.weight)
    a_center = dm.take_rows(hp.attn, np.arange(out_h))
    a_neigh = dm.take_rows(hp.attn, np.arange(out_h, 2 * out_h))
    s_center = dm.matmul(z, a_center)
    s_neigh = dm.matmul(z, a_neigh)
    scores = dm.add(dm.take_rows(s_center, struct.center), dm.take_rows(s_neigh, struct.src))
    alpha = dm.segment_softmax(dm.leaky_relu(scores, LEAKY_SLOPE), struct.starts, struct.lens)
    return z, alpha


def _as_states(g: Graph, node_states, dtype) -> Tensor:
    if isinstance(node_states, Tensor):
        return node_states
    return dm.tensor(np.asarray(node_states, dtype=dtype), dtype=dtype)


def attention_coefficients(params: BackboneParams, g: Graph, node_states, layer: int,
                           head: int = 0) -> dict:
    """Attention weights as {node_id: {incident node_id: alpha}}, self included."""
    states = _as_states(g, node_states, params.dtype)
    if states.shape[0] != g.node_count:
        raise dm.ShapeError(f"states rows {states.shape[0]} != node count {g.node_count}")
    struct = _edge_structure(g)
    _, alpha = _head_attention(params.layers[layer][head], struct, states)
    a = alpha.data
    result = {}
    for row in range(g.node_count):
        lo = struct.starts[row]
        seg = slice(lo, lo + struct.lens[row])
        center = int(g.node_ids[row])
        result[center] = {int(g.node_ids[s]): float(v)
                          for s, v in zip(struct.src[seg], a[seg])}
    return result


def gat_layer(params: BackboneParams, g: Graph, node_states, layer: int,
              struct: _EdgeStructure | None = None) -> Tensor:
    """One attention layer over the self-inclusive neighborhoods.

    ``node_states`` has one row per input row of ``struct`` (default: every
    node of ``g``) and may be a constant scipy sparse matrix; the result has
    one row per output row of ``struct``.
    """
    struct = _edge_structure(g) if struct is None else struct
    states = node_states
    if not sparse.issparse(states):
        states = _as_states(g, states, params.dtype)
    if states.shape[0] != struct.n_in:
        raise dm.ShapeError(f"states rows {states.shape[0]} != input rows {struct.n_in}")
    head_outs = []
    for hp in params.layers[layer]:
        z, alpha = _head_attention(hp, struct, states)
        head_outs.append(_attend_aggregate(z, alpha, struct))
    if len(head_outs) == 1:
        combined = head_outs[0]
    elif layer == 0:
        combined = dm.concat(head_outs, axis=1)
    else:
        acc = head_outs[0]
        for h in head_outs[1:]:
            acc = dm.add(acc, h)
        combined = dm.scale(acc, 1.0 / len(head_outs))
    return dm.elu(combined) if layer == 0 else combined


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
    sp = g.features_sparse() if dtype == np.float32 and dropout_rate == 0.0 else None
    if sp is not None:
        h = sp if rows0 is None else sp[rows0]
    else:
        cache_key = f"features_{np.dtype(dtype).name}"
        h = g._op_cache.get(cache_key)
        if h is None:
            h = dm.tensor(g.features.astype(dtype, copy=False), dtype=dtype)
            g._op_cache[cache_key] = h
        if rows0 is not None:
            h = dm.take_rows(h, rows0)
        h = _dropout(h, dropout_rate, rng, g.node_count, rows0)
    h = gat_layer(params, g, h, 0, struct0)
    h = _dropout(h, dropout_rate, rng, g.node_count, rows1)
    return gat_layer(params, g, h, 1, struct1)


# ---------------------------------------------------------------------------
# checkpoint plumbing

def backbone_to_arrays(params: BackboneParams) -> dict:
    """Checkpoint arrays; head weights in their [out x in] stored layout."""
    arrays = {
        "backbone/meta": np.array(
            [params.feature_dim, params.hidden_dim, params.out_dim, *params.heads],
            dtype=np.float32),
    }
    for li, layer in enumerate(params.layers):
        for hi, hp in enumerate(layer):
            arrays[f"backbone/l{li}/h{hi}/weight"] = hp.weight.data.T
            arrays[f"backbone/l{li}/h{hi}/attn"] = hp.attn.data
    return arrays


def arrays_to_backbone(arrays: dict) -> BackboneParams:
    meta = arrays["backbone/meta"].astype(np.int64)
    feature_dim, hidden, out_dim, h1, h2 = (int(v) for v in meta)
    layers = []
    for li, n_heads in enumerate((h1, h2)):
        heads_p = []
        for hi in range(n_heads):
            heads_p.append(HeadParams(
                weight=_weight_tensor(arrays[f"backbone/l{li}/h{hi}/weight"]),
                attn=dm.tensor(arrays[f"backbone/l{li}/h{hi}/attn"], requires_grad=True),
            ))
        layers.append(tuple(heads_p))
    return BackboneParams(tuple(layers), feature_dim, hidden, out_dim)
