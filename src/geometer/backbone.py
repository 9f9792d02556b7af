"""Two-layer graph-attention encoder mapping node features into the metric space.

Each node attends over its neighbors plus itself; attention scores are
leaky-rectified linear forms of the transformed endpoint states, normalized
per neighborhood.  Each layer has one attention head.  Layer one applies an
exponential-linear nonlinearity; the output layer is linear (identity), so
embeddings live in an unconstrained metric space.

The per-graph edge structure (neighborhoods sorted by center node) is
computed once and cached on the graph, until ``Graph.drop_caches``.

Each layer is one autodiff op, ``gat_layer``, with a hand-derived vjp: it
projects z = x W, scores every edge (SDDMM), normalizes the scores per
neighborhood (``dm.segment_softmax``) and aggregates with the sparse
attention matrix (SpMM), the fusion of DGL and FeatGraph.  For its backward
the op keeps z, the per-edge scores and weights and the attention matrix
over them, and the layer output; layer 0's ELU runs in place on the
aggregate, so beside z it holds one [rows x hidden] array, its output.

The backward releases what it saved as it goes, so it runs once: a second
backward through the op raises ``dm.TapeReleasedError``.  It first runs
every step that reads z (the per-edge dot products, the softmax and
leaky-ReLU vjps, the score terms of the attention vector), then drops the
saved entry, freeing z.  Only then does it build z's gradient in one
buffer, ``att.T @ g`` plus the two score terms added in row blocks through
one small scratch array; and it drops the incoming gradient (for layer 0,
the ELU gradient) before the weight product ``x.T @ g_z``.  Since
``dm.backward`` keeps no reference to the gradient it hands a vjp, layer 0's
backward without a workspace (below) holds at most two [rows x hidden]
arrays beyond the tape at once.
It sets subnormal gradient entries to 0 where they enter a layer and in each
row block of z's gradient: a few of them (from a log-softmax whose
log-probabilities fall below the float32 exponent range, say) make the
sparse layer-0 product ``x.T @ g_z`` several times slower.
An op whose parameters track no gradient (an inference encode) keeps
nothing: it frees z once aggregated, so a full-graph encode peaks near two
[nodes x hidden] arrays, and it checks finiteness through min and max
instead of an elementwise mask.

A training stage hands its encodes one ``Workspace``: two [rows x hidden]
buffers, mapped once per stage outside the malloc heap, so each episode's
largest arrays reuse the same pages instead of growing and trimming the
heap.  Layer 0 writes its output ``att @ z`` straight into
``Workspace.out``, through the kernel ``csr_matrix @ ndarray`` runs, and
layer 1's backward writes its state gradient into ``Workspace.grad``.
Layer 0's backward then multiplies the ELU derivative into that gradient in
place.  Over CSR input rows x (bag-of-words features, thousands wide) it
leaves its weight gradient ``x.T @ g_z`` unformed, a ``dm.DeferredGrad``
over z's gradient and x transposed (one CSR row per feature), which
``optim.Adam.step`` forms a block of rows at a time into its own scratch;
each row sums its feature's nonzeros over ascending input rows, as scipy's
``x.T @ g_z`` does, so the bytes are the same.  So beside the workspace the
backward and the step hold one [rows x hidden] array, z's gradient, and no
[features x hidden] one.  The aliasing rule: an encode's layer-0 output and
the layer-1 state gradient live in the workspace until the next encode
through it overwrites them, so the caller must drop an encode's tape before
the next one; and only layer 0 writes into its incoming gradient, only when
that gradient is ``Workspace.grad``.  The deferred weight gradient borrows
z's gradient and the feature rows until the step forms it, so the step runs
before the next encode.  An encode without a workspace (every inference
encode), or over dense input, allocates these arrays, and returns the
weight gradient formed, as before.

Each layer holds its weight as a C-order [in x out] matrix, so a layer
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

import functools
import mmap
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

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

__all__ = ["HeadParams", "BackboneParams", "Workspace", "init_backbone", "gat_layer", "encode"]


@dataclass
class HeadParams:
    weight: Tensor   # [in x out], C order; checkpoints hold its transpose
    attn: Tensor     # [2 * out]


@dataclass
class BackboneParams:
    layers: tuple            # two HeadParams: layer 0's, then the output layer's
    feature_dim: int
    hidden_dim: int
    out_dim: int

    def tensors(self):
        return [t for hp in self.layers for t in (hp.weight, hp.attn)]

    @property
    def dtype(self):
        return self.layers[0].weight.dtype

    def detached(self) -> "BackboneParams":
        """The same weight arrays, uncopied, in tensors that track no gradient:
        an encode through them records no autodiff tape."""
        layers = tuple(HeadParams(hp.weight.detach(), hp.attn.detach()) for hp in self.layers)
        return replace(self, layers=layers)


def _glorot(rng, shape, dtype):
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0] if len(shape) > 1 else 1
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape).astype(dtype)


def init_backbone(feature_dim: int, hidden: int, out_dim: int, seed: int,
                  dtype=np.float32) -> BackboneParams:
    """Glorot-uniform initialization, deterministic under ``seed``."""
    if min(feature_dim, hidden, out_dim) <= 0:
        raise ValueError("all backbone dimensions must be positive")
    layers = []
    for li, (in_dim, out) in enumerate(((feature_dim, hidden), (hidden, out_dim))):
        rng = np.random.default_rng([seed, li, 0])
        layers.append(HeadParams(
            # drawn [out x in], the layout checkpoints store, held [in x out]
            weight=dm.tensor(np.ascontiguousarray(_glorot(rng, (out, in_dim), dtype).T),
                             requires_grad=True),
            attn=dm.tensor(_glorot(rng, (2 * out,), dtype), requires_grad=True),
        ))
    return BackboneParams(tuple(layers), feature_dim, hidden, out_dim)


class Workspace:
    """A training stage's two [rows x width] buffers, ``out`` for layer 0's
    output and ``grad`` for layer 1's state gradient, in one anonymous memory
    mapping (see the module docstring).  Pages are touched, and so counted
    resident, only as far as the encodes reach; each buffer starts on a page.
    """

    def __init__(self, rows: int, width: int, dtype=np.float32):
        self.rows, self.width, self.dtype = rows, width, np.dtype(dtype)
        size = rows * width
        stride = -(-size * self.dtype.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
        self._map = mmap.mmap(-1, max(1, 2 * stride))
        self.out = np.frombuffer(self._map, self.dtype, size)
        self.grad = np.frombuffer(self._map, self.dtype, size, offset=stride)

    @property
    def nbytes(self) -> int:
        """Bytes mapped; 0 once released."""
        return 0 if self._map.closed else len(self._map)

    def view(self, buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
        """The leading [rows x width] block of ``buffer``, C order."""
        if width != self.width or rows > self.rows:
            raise dm.ShapeError(f"workspace holds {self.rows} x {self.width}, "
                                f"asked for {rows} x {width}")
        return buffer[:rows * width].reshape(rows, width)

    def release(self) -> None:
        """Unmap the buffers.  Raises ``BufferError`` if an array still views
        them: some tape outlived the encodes it belonged to."""
        self.out = self.grad = None
        self._map.close()


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
    """The per-edge attention over projected states ``z``, in frame ``op``.

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


def _csr_matmul_into(a: sparse.csr_matrix, b: np.ndarray, out: np.ndarray,
                     lo: int = 0) -> np.ndarray:
    """Rows ``lo`` to ``lo + len(out)`` of ``a @ b`` written into C-order
    ``out``, byte for byte: the kernel and the zeroed start that scipy's
    ``csr_matrix @ ndarray`` uses, since ``@`` takes no output argument, run
    over those rows only.  Returns ``out``."""
    rows, cols = a.shape
    if (b.ndim != 2 or b.shape[0] != cols or out.ndim != 2 or out.shape[1] != b.shape[1]
            or not 0 <= lo <= lo + out.shape[0] <= rows
            or out.dtype != np.result_type(a.dtype, b.dtype) or not out.flags.c_contiguous):
        raise dm.ShapeError(f"cannot write {a.shape} @ {b.shape} from row {lo} "
                            f"into {out.shape} {out.dtype}")
    n = out.shape[0]
    indptr = a.indptr[lo:lo + n + 1]    # offsets into the whole of indices and data
    out.fill(0)
    if b.shape[1] == 1:         # scipy takes its one-vector kernel for an [n x 1] operand
        _sparsetools.csr_matvec(n, cols, indptr, a.indices, a.data, b.ravel(),
                                out.reshape(-1))
    else:
        _sparsetools.csr_matvecs(n, cols, b.shape[1], indptr, a.indices, a.data,
                                 b.ravel(), out.reshape(-1))
    return out


def _sparse_weight_grad(x: sparse.spmatrix, g_z: np.ndarray) -> dm.DeferredGrad:
    """The weight gradient ``x.T @ g_z`` of CSR input rows ``x``, unformed:
    its ``rows_into`` runs ``_csr_matmul_into`` on x transposed, whose row
    of each feature lists that feature's nonzeros over ascending input rows,
    the order in which scipy's ``x.T @ g_z`` adds them, so any block of rows
    has the bytes of the whole product's."""
    return dm.DeferredGrad((x.shape[1], g_z.shape[1]), g_z.dtype,
                           functools.partial(_csr_matmul_into, x.T.tocsr(), g_z))


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
    """Gradients of the aggregate ``att @ z`` w.r.t. z and the attention
    vector, given the aggregate's gradient ``g``; the layer's
    ``(z, att, leaky, alpha)`` entry is popped off ``saved``.

    Every step that reads z runs first (the per-edge dot products, the
    softmax and leaky-ReLU vjps, the score terms of the attention vector),
    and z is freed after its last read.  z's gradient is then one buffer: the
    aggregation term ``att.T @ g``, then in each row block the center-score
    and neighbor-score terms added in that order, with the block's subnormal
    entries set to 0 while it is in cache.
    """
    z, att, leaky, alpha = saved.pop()
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
              struct: _EdgeStructure | None = None, workspace: Workspace | None = None) -> Tensor:
    """One attention layer over the self-inclusive neighborhoods, as one
    autodiff op (see the module docstring).

    ``states``, a ``dm.Tensor`` or a constant scipy CSR matrix, has one row
    per input row of ``struct`` (default: every node of ``g``); the result
    has one row per output row of ``struct``.  With a ``workspace``, layer 0
    writes its output into ``workspace.out`` and layer 1's backward writes
    the state gradient into ``workspace.grad`` (the aliasing rule is in the
    module docstring); over CSR ``states`` of the weight's dtype its backward
    then returns the weight gradient as a ``dm.DeferredGrad``.
    """
    struct = _edge_structure(g) if struct is None else struct
    if not (isinstance(states, Tensor) or sparse.issparse(states)):
        raise TypeError(f"gat_layer: states must be a dm.Tensor or a sparse matrix, "
                        f"got {type(states).__name__}")
    hp = params.layers[layer]
    if states.shape[0] != struct.n_in:
        raise dm.ShapeError(f"states rows {states.shape[0]} != input rows {struct.n_in}")
    if states.shape[1] != hp.weight.shape[0]:
        raise dm.ShapeError(f"states width {states.shape[1]} != layer {layer} input "
                            f"{hp.weight.shape[0]}")
    if isinstance(states, Tensor) and states.dtype != params.dtype:
        raise dm.ShapeError(f"mixed dtypes {states.dtype} vs {params.dtype}")
    if workspace is not None and workspace.dtype != params.dtype:
        raise dm.ShapeError(f"workspace dtype {workspace.dtype} vs {params.dtype}")
    x = states if sparse.issparse(states) else states.data
    # the optimizer forms this weight gradient by row blocks (module docstring)
    defer = workspace is not None and sparse.issparse(x) and x.dtype == hp.weight.dtype
    parents = (hp.weight, hp.attn)
    grad_states = isinstance(states, Tensor) and states.requires_grad
    if grad_states:
        parents = (states, *parents)
    track = any(p.requires_grad for p in parents)
    op = dm.fused("gat_layer")
    z = op.matmul(x, hp.weight.data, "non-finite projection").astype(hp.weight.dtype, copy=False)
    att, leaky, alpha = _attention(op, z, hp.attn.data, struct, track)
    if layer == 0 and workspace is not None:
        out = _csr_matmul_into(att, z, workspace.view(workspace.out, struct.n_out,
                                                      params.hidden_dim))
    else:
        out = (att @ z).astype(z.dtype, copy=False)
    saved = [(z, att, leaky, alpha)] if track else []
    del z
    if layer == 0:
        with op:
            dm.elu_inplace(out)

    def vjp(g_out):
        if not saved:
            raise dm.TapeReleasedError(f"gat_layer: layer {layer}'s backward already ran "
                                       "and released its saved arrays")
        # only the workspace's own state gradient may be overwritten
        owned = (layer == 0 and workspace is not None
                 and np.may_share_memory(g_out, workspace.grad))
        g_out = _flush_subnormals(g_out, inplace=owned)
        if layer == 0:
            g_out = dm.elu_grad(out, g_out, inplace=owned)
        g_z, g_attn = _head_vjp(g_out, saved, hp.attn.data, struct)
        del g_out                                   # freed before the weight product
        if defer:
            grads = (_sparse_weight_grad(x, g_z), g_attn)
        else:
            grads = ((x.T @ g_z).astype(g_z.dtype, copy=False), g_attn)
        if not grad_states:
            return grads
        into = None
        if layer == 1 and workspace is not None:
            into = workspace.view(workspace.grad, struct.n_in, states.shape[1])
        return (np.matmul(g_z, hp.weight.data.T, out=into), *grads)

    return dm.node(out, parents, vjp)


def encode(params: BackboneParams, g: Graph, rows=None,
           workspace: Workspace | None = None) -> Tensor:
    """Node embeddings [node_count x out_dim]; differentiable end-to-end.

    Layer 0 reads CSR feature rows at float32 and dense rows otherwise.
    With ``rows`` (graph row indices) only those rows come back, in that
    order, computed from their exact receptive field (see the module
    docstring).  With a ``workspace`` at least as tall as ``g``, layer 0's
    output and layer 1's state gradient live in it: the result and its tape
    are valid until the next encode through the same workspace.
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
    h = g.features_sparse(rows0) if dtype == np.float32 else None
    if h is None:
        # gathered from the feature store, checked finite when it was loaded
        h = Tensor(g.feature_rows(rows0).astype(dtype, copy=False))
    h = gat_layer(params, g, h, 0, struct0, workspace)
    return gat_layer(params, g, h, 1, struct1, workspace)
