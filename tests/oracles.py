"""Shared independent oracles for the test suite.

Everything here is deliberately dumb and slow: explicit loops and central
finite differences, kept apart from the library code they check.  The
prototype oracle builds on the autodiff ops so that its gradients can be
compared too, and the ``chain_*`` functions are the op chains that the fused
distance, refinement and loss ops replaced: the fused ops must match them
byte for byte.  The elementary autodiff ops that only those chains and the
tests use (``add`` to ``mean`` below) live here, with the arithmetic they had
in ``geometer.diffmath``.  So do the graph queries that only tests need
(attention coefficients, subgraphs, graph and stream equality), built on the
library's own private helpers, a whole model around one part for the
checkpoint tests, and a recorder of the layer-0 workspaces training maps,
whose bytes tracemalloc cannot see.
"""

import numpy as np
from scipy import sparse

import geometer.backbone as bb
import geometer.diffmath as dm
import geometer.graph_store as gs
import geometer.losses as ls
import geometer.prototypes as pt
import geometer.runner as rn
from geometer.runner import ModelState


# ---------------------------------------------------------------------------
# elementary autodiff ops of the op chains

def add(a, b):
    a = a if isinstance(a, dm.Tensor) else dm.Tensor(np.asarray(a, dtype=b.dtype))
    b = dm._as_tensor(b, a)
    with dm.fused("add"):
        out = a.data + b.data

    def vjp(g):
        return dm._unbroadcast(g, a.shape), dm._unbroadcast(g, b.shape)

    return dm.node(out, (a, b), vjp)


def sub(a, b):
    a = a if isinstance(a, dm.Tensor) else dm.Tensor(np.asarray(a, dtype=b.dtype))
    b = dm._as_tensor(b, a)
    with dm.fused("sub"):
        out = a.data - b.data

    def vjp(g):
        return dm._unbroadcast(g, a.shape), dm._unbroadcast(-g, b.shape)

    return dm.node(out, (a, b), vjp)


def div(a, b):
    a = a if isinstance(a, dm.Tensor) else dm.Tensor(np.asarray(a, dtype=b.dtype))
    b = dm._as_tensor(b, a)
    with dm.fused("div"):
        out = a.data / b.data

    def vjp(g):
        return (dm._unbroadcast(g / b.data, a.shape),
                dm._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return dm.node(out, (a, b), vjp)


def neg(a):
    return dm.node(-a.data, (a,), lambda g: (-g,))


def transpose(a):
    if a.ndim != 2:
        raise dm.ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return dm.node(a.data.T, (a,), lambda g: (g.T,))


def exp(a):
    with dm.fused("exp"):
        out = np.exp(a.data)
    return dm.node(out, (a,), lambda g: (g * out,))


def log(a):
    with dm.fused("log"):
        out = np.log(a.data)

    def vjp(g):
        with dm.fused("log/backward"):
            return (g / a.data,)

    return dm.node(out, (a,), vjp)


def sqrt(a):
    with dm.fused("sqrt"):
        out = np.sqrt(a.data)

    def vjp(g):
        with dm.fused("sqrt/backward"):
            return (g * 0.5 / out,)

    return dm.node(out, (a,), vjp)


def clip(a, lo=None, hi=None):
    out = np.clip(a.data, lo, hi)
    inside = np.ones(a.shape, dtype=bool)
    if lo is not None:
        inside &= a.data > lo
    if hi is not None:
        inside &= a.data < hi

    def vjp(g):
        return (np.where(inside, g, 0),)

    return dm.node(out, (a,), vjp)


def elu(a):
    """max(a, 0) + expm1(min(a, 0)) as one op over ``dm.elu_inplace`` and
    ``dm.elu_grad``, the arithmetic the encoder's first layer uses."""
    with dm.fused("elu"):
        out = dm.elu_inplace(a.data.copy())
    return dm.node(out, (a,), lambda g: (dm.elu_grad(out, g),))


def softmax(a, axis=-1):
    with dm.fused("softmax"):
        shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return dm.node(out, (a,), vjp)


def log_softmax(a, axis=-1):
    with dm.fused("log_softmax"):
        shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return dm.node(out, (a,), vjp)


def amax(a, axis=None, keepdims=False):
    """Max reduction; the subgradient routes to the first maximal entry."""
    out = a.data.max(axis=axis, keepdims=keepdims)
    if axis is None:
        flat_idx = int(a.data.argmax())
    else:
        arg = a.data.argmax(axis=axis)

    def vjp(g):
        ga = np.zeros(a.shape, dtype=a.dtype)
        if axis is None:
            ga.flat[flat_idx] = g
        else:
            g_arr = np.asarray(g)
            if keepdims:
                g_arr = np.squeeze(g_arr, axis=axis)
            np.put_along_axis(ga, np.expand_dims(arg, axis), np.expand_dims(g_arr, axis), axis)
        return (ga,)

    return dm.node(out, (a,), vjp)


def amin(a, axis=None, keepdims=False):
    return neg(amax(neg(a), axis=axis, keepdims=keepdims))


def scale(a, s):
    s = float(s)
    with dm.fused("scale"):
        out = a.data * a.dtype.type(s)
    return dm.node(out, (a,), lambda g: (g * s,))


def reshape(a, shape):
    out = a.data.reshape(shape)
    return dm.node(out, (a,), lambda g: (g.reshape(a.shape),))


def sum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return dm.node(out, (a,), vjp)


def mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.shape[axis]
    return scale(sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def central_differences(f, arrays, step=1e-5):
    """Gradient of scalar f(list_of_float64_arrays) by central differences."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        flat = g.ravel()
        base = [a.copy() for a in arrays]
        for i in range(arr.size):
            hi = [a.copy() for a in base]
            lo = [a.copy() for a in base]
            hi[k].ravel()[i] += step
            lo[k].ravel()[i] -= step
            flat[i] = (f(hi) - f(lo)) / (2.0 * step)
        grads.append(g)
    return grads


def grad_relative_error(analytic, numeric):
    """Norm-based relative error between two gradient lists."""
    a = np.concatenate([np.asarray(g, dtype=np.float64).ravel() for g in analytic])
    n = np.concatenate([np.asarray(g, dtype=np.float64).ravel() for g in numeric])
    denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-8)
    return float(np.linalg.norm(a - n) / denom)


def loop_squared_euclidean(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return total


def stack(vectors):
    """Stack equal-length 1-D tensors into a matrix, one row each."""
    vectors = tuple(vectors)
    if not vectors:
        raise dm.ShapeError("stack: empty input")
    out = np.stack([v.data for v in vectors], axis=0)

    def vjp(g):
        return tuple(g[i] for i in range(len(vectors)))

    return dm.node(out, vectors, vjp)


def chain_pairwise_sq_euclidean(a, b):
    """Squared Euclidean distances between all row pairs, one op per step."""
    a2 = sum(dm.mul(a, a), axis=1, keepdims=True)                # [n,1]
    b2 = reshape(sum(dm.mul(b, b), axis=1), (1, b.shape[0]))     # [1,m]
    cross = dm.matmul(a, transpose(b))                           # [n,m]
    d = add(add(a2, b2), scale(cross, -2.0))
    return clip(d, 0.0, None)


def chain_uniformity_loss(prototypes):
    """Mean over classes of 1 + max cosine to any other centered direction,
    one op per step, with the same degenerate-center substitution."""
    c = len(prototypes)
    vecs = prototypes.vectors
    center = reshape(mean(vecs, axis=0), (1, prototypes.dim))
    diffs = sub(vecs, center)
    raw_norms = np.sqrt((diffs.data.astype(np.float64) ** 2).sum(axis=1))
    degenerate = raw_norms < ls.CENTER_COLLAPSE_EPS
    if degenerate.any():
        ls.log.warning(
            "%d prototype(s) coincide with the center; substituting random directions",
            int(degenerate.sum()))
        keep = np.where(degenerate, 0.0, 1.0).astype(vecs.dtype)
        subst = np.zeros(vecs.shape, dtype=vecs.dtype)
        for i in np.nonzero(degenerate)[0]:
            v = np.random.default_rng([9041, int(i)]).normal(size=prototypes.dim)
            subst[i] = (v / np.linalg.norm(v)).astype(vecs.dtype)
        diffs = add(dm.mul(diffs, dm.constant(keep[:, None], dtype=vecs.dtype)),
                       dm.constant(subst, dtype=vecs.dtype))
    norms = sqrt(sum(dm.mul(diffs, diffs), axis=1, keepdims=True))
    dirs = div(diffs, norms)
    cos = dm.matmul(dirs, transpose(dirs))
    mask = dm.constant(np.diag(np.full(c, -3.0)).astype(vecs.dtype), dtype=vecs.dtype)
    nearest = amax(add(cos, mask), axis=1)
    return add(mean(nearest), 1.0)


def chain_proximity_loss(query_embeddings, query_classes, prototypes, alpha=None):
    """Class-averaged negative log-probability of each query's own class, one
    op per step after the distance op."""
    labels = np.asarray(query_classes, dtype=np.int64)
    col = np.array([prototypes.index_of(int(cls)) for cls in labels], dtype=np.int64)
    logits = scale(dm.pairwise_sq_euclidean(query_embeddings, prototypes.vectors), -1.0)
    log_probs = log_softmax(logits, axis=1)
    onehot = np.zeros((len(labels), len(prototypes)), dtype=query_embeddings.dtype)
    onehot[np.arange(len(labels)), col] = 1.0
    own = sum(dm.mul(log_probs, dm.constant(onehot, dtype=query_embeddings.dtype)), axis=1)

    counts = np.bincount(col, minlength=len(prototypes)).astype(np.float64)
    weights = np.zeros(len(labels))
    for i, cls in enumerate(labels):
        a = 1.0 if alpha is None else float(alpha.get(int(cls), 1.0))
        weights[i] = a / counts[col[i]]
    w = dm.constant(weights.astype(query_embeddings.dtype), dtype=query_embeddings.dtype)
    return scale(dm.matmul(w, own), -1.0)


def chain_separability_loss(novel_vectors, old_vectors):
    """Mean over novel prototypes of exp(-squared distance to nearest old),
    one op per step after the distance op."""
    dist = dm.pairwise_sq_euclidean(novel_vectors, old_vectors)
    nearest = amin(dist, axis=1)
    return mean(exp(neg(nearest)))


def chain_softened_logits(embeddings, prototypes, tau):
    """Temperature-softened class distribution, one op per step after the
    distance op."""
    dist = dm.pairwise_sq_euclidean(embeddings, prototypes.vectors)
    return softmax(scale(dist, -1.0 / tau), axis=1)


def chain_distillation_loss(student_logits, teacher_logits):
    """Old-class KL divergence of student from teacher rows, one op per step."""
    teacher = (teacher_logits.data if isinstance(teacher_logits, dm.Tensor)
               else np.asarray(teacher_logits))
    n_classes = student_logits.shape[1]
    log_s = log(clip(student_logits, ls.LOG_CLAMP, None))
    log_t = np.log(np.clip(teacher.astype(student_logits.dtype), ls.LOG_CLAMP, None))
    per_query = sum(dm.mul(student_logits,
                              sub(log_s, dm.constant(log_t, dtype=student_logits.dtype))),
                       axis=1)
    return scale(mean(per_query), 1.0 / n_classes)


def chain_weighted_terms(pairs, dtype):
    """sum of lambda * term over the terms with non-zero weight, one scale and
    one add per term."""
    total = None
    for lam, term in pairs:
        if lam == 0.0:
            continue
        if term is None:
            raise ValueError("loss component with non-zero weight is missing")
        piece = scale(term, lam)
        total = piece if total is None else add(total, piece)
    if total is None:
        total = dm.constant(0.0, dtype=dtype)
    return total


def chain_refine_prototype(params, initial, supports, lens, with_weights=False):
    """Batched prototype refinement over the ragged class segments, one op
    per step: Q/K/V matmuls, a head-indicator matmul for the per-head scores,
    one segment softmax and a pooling matmul."""
    d = params.out_dim
    c = initial.shape[0]
    lens = np.asarray(lens, dtype=np.int64)
    seg_lens = lens + 1
    starts = np.cumsum(seg_lens) - seg_lens
    n = int(seg_lens.sum())
    owner = np.repeat(np.arange(c), seg_lens)
    order = c + np.arange(n) - owner - 1      # positions in concat([initial, supports])
    order[starts] = np.arange(c)
    seq = dm.take_rows(dm.concat([initial, supports], axis=0), order)          # [N x d]

    dtype = params.dtype
    d_k = params.d_k
    head_of = np.zeros((d, params.heads), dtype=dtype)                          # [d x H]
    head_of[np.arange(d), np.arange(d) // d_k] = 1
    pool = np.zeros((c, n), dtype=dtype)                                        # [C x N]
    pool[owner, np.arange(n)] = 1

    queries = dm.matmul(initial, transpose(params.wq))                      # [C x d]
    keys = dm.matmul(seq, transpose(params.wk))                             # [N x d]
    values = dm.matmul(seq, transpose(params.wv))                           # [N x d]
    products = dm.mul(dm.take_rows(queries, owner), keys)
    scores = scale(dm.matmul(products, dm.constant(head_of, dtype)), 1.0 / np.sqrt(d_k))
    attn = dm.segment_softmax(scores, starts, seg_lens)                         # [N x H]
    weighted = dm.mul(dm.matmul(attn, dm.constant(head_of.T, dtype)), values)  # [N x d]
    refined = add(initial, dm.matmul(dm.constant(pool, dtype), weighted))
    if with_weights:
        return refined, transpose(attn)
    return refined


def loop_query_candidates(pools, class_list, taken):
    """Finetune query candidates node by node: each class's pool nodes that
    are not taken, class by class in list order."""
    taken = {int(v) for v in taken}
    nodes, labels = [], []
    for cls in class_list:
        for v in pools[cls]:
            if int(v) not in taken:
                nodes.append(int(v))
                labels.append(cls)
    return np.array(nodes, dtype=np.int64), np.array(labels, dtype=np.int64)


def attention_coefficients(params, g, states, layer):
    """A layer's attention weights as {node_id: {incident node_id: alpha}},
    self included, from the encoder's own edge structure and attention
    arithmetic."""
    x = states.data if isinstance(states, dm.Tensor) else np.asarray(states, dtype=params.dtype)
    struct = bb._edge_structure(g)
    hp = params.layers[layer]
    z = (x @ hp.weight.data).astype(params.dtype, copy=False)
    _, _, alpha = bb._attention(dm.fused("gat_layer"), z, hp.attn.data, struct, track=False)
    result = {}
    for row in range(g.node_count):
        seg = slice(struct.starts[row], struct.starts[row] + struct.lens[row])
        result[int(g.node_ids[row])] = {int(g.node_ids[s]): float(v)
                                        for s, v in zip(struct.src[seg], alpha.data[seg])}
    return result


def induced_subgraph(g, keep):
    """Subgraph on the given node ids in ``g``'s row order, sharing its
    feature storage, as session snapshots are cut."""
    rows = g.rows_of(np.unique(np.asarray(list(keep), dtype=np.int64)))
    return gs._row_subset(g, np.sort(rows))


def graphs_equal(a, b):
    return (np.array_equal(a.node_ids, b.node_ids)
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.edges, b.edges))


def streams_equal(a, b):
    if (a.partition != b.partition or a.k_shot != b.k_shot or a.seed != b.seed
            or len(a.snapshots) != len(b.snapshots)):
        return False
    if not all(graphs_equal(x, y) for x, y in zip(a.snapshots, b.snapshots)):
        return False
    for stage in range(a.num_sessions + 1):
        for pa, pb in ((a.train_pools(stage), b.train_pools(stage)),
                       (a.test_pools(stage), b.test_pools(stage))):
            if sorted(pa) != sorted(pb) or not all(np.array_equal(pa[c], pb[c]) for c in pa):
                return False
    return True


def adjacency_matrix(n, edge_pairs):
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b in edge_pairs:
        adj[a, b] = 1
        adj[b, a] = 1
    return adj


def loop_prototypes(embeddings, supports, g, params, mode="attention", rows=None):
    """Class-by-class, head-by-head prototypes, as [classes x dim] Tensor.

    Each class's initial prototype is the degree-weighted (or plain) mean of
    its supports; in attention mode each head of the initial prototype then
    attends over [initial; supports] on its own slice of the projections.
    """
    vectors = []
    degrees = g.degrees()
    for cls in sorted(int(c) for c in supports):
        graph_rows = g.rows_of(list(supports[cls]))
        emb_rows = graph_rows if rows is None else np.searchsorted(rows, graph_rows)
        sup = dm.take_rows(embeddings, emb_rows)
        k = len(graph_rows)
        if mode == "mean":
            vectors.append(mean(sup, axis=0))
            continue
        deg = degrees[graph_rows].astype(np.float64)
        w = np.full(k, 1.0 / k) if deg.sum() == 0 else deg / deg.sum()
        init = dm.matmul(dm.constant(w.astype(sup.dtype), dtype=sup.dtype), sup)
        d = init.shape[0]
        seq = dm.concat([reshape(init, (1, d)), sup], axis=0)
        d_k = d // params.heads
        head_outs = []
        for h in range(params.heads):
            cut = np.arange(h * d_k, (h + 1) * d_k)
            q = dm.matmul(dm.take_rows(params.wq, cut), init)
            keys = dm.matmul(seq, transpose(dm.take_rows(params.wk, cut)))
            attn = softmax(scale(dm.matmul(keys, q), 1.0 / np.sqrt(d_k)))
            values = dm.matmul(seq, transpose(dm.take_rows(params.wv, cut)))
            head_outs.append(dm.matmul(attn, values))
        vectors.append(add(init, dm.concat(head_outs, axis=0)))
    return stack(vectors)


def seed_segment_softmax(scores, starts, lens):
    """1-D segment softmax with the encoder's reductions, written out on its own;
    the encoder's outputs and gradients must match it bit for bit."""
    s = scores.data
    m = np.maximum.reduceat(s, starts)
    e = np.exp(s - np.repeat(m, lens))
    z = np.add.reduceat(e, starts)
    alpha = e / np.repeat(z, lens)

    def vjp(g):
        inner = np.add.reduceat(g * alpha, starts)
        return (alpha * (g - np.repeat(inner, lens)),)

    return dm.Tensor(alpha.astype(s.dtype, copy=False), requires_grad=scores.requires_grad,
                     _parents=(scores,), _vjp=vjp)


def copying_induced_subgraph(g, keep):
    """Subgraph as a stand-alone graph: its feature rows are copied out into
    a store of their own in ``g``'s form (a CSR built from the copy over a
    CSR store, the dense copy over a dense one), and every other part is
    validated again as ``make_graph`` validates it."""
    keep_ids = sorted({int(v) for v in keep})
    rows = np.array([g.row_of(v) for v in keep_ids], dtype=np.int64)
    order = np.argsort(rows)                  # preserve original row order
    rows = rows[order]
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[rows] = np.arange(len(rows))
    if len(g.edges):
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        sub_edges = remap[g.edges[mask]]
    else:
        sub_edges = np.empty((0, 2), dtype=np.int64)
    feats = g.features[rows]
    store = gs._FeatureStore(feats if g.features_sparse() is None else sparse.csr_matrix(feats))
    return gs._assemble_graph(store, sub_edges, g.labels[rows], g.node_ids[rows])


class TextbookAdam:
    """Adam in its textbook array form: each step builds new temporaries and a
    new parameter array.  The in-place, blocked optimizer must match it byte
    for byte."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(p.shape, dtype=p.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, dtype=p.dtype) for p in self.params]

    def step(self, grads):
        import math
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction = math.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p.data = p.data - (self.lr * correction) * m / (np.sqrt(v) + self.eps)


def where_elu(a):
    """ELU as two branches picked by np.where: (output, vjp)."""
    neg = a <= 0
    out = np.where(neg, np.expm1(np.minimum(a, 0)), a)

    def vjp(g):
        return np.where(neg, g * (out + 1.0), g)

    return out, vjp


# ---------------------------------------------------------------------------
# a whole model around one part, for the checkpoint functions

def model_around(backbone, prototypes=None):
    """A model of ``backbone``, one-head class attention and ``prototypes``
    (by default one zero prototype of class 0), all in the backbone's dtype."""
    dim, dtype = backbone.out_dim, backbone.dtype
    if prototypes is None:
        prototypes = pt.PrototypeSet((0,), dm.tensor(np.zeros((1, dim), dtype=dtype)))
    return ModelState(backbone, pt.init_class_attention(dim, heads=1, dtype=dtype), prototypes)


# ---------------------------------------------------------------------------
# the layer-0 workspaces of training stages

def record_workspaces(monkeypatch) -> list:
    """Every ``backbone.Workspace`` the runner maps from now on, in order,
    with the bytes it mapped.

    A workspace is an anonymous memory mapping, which tracemalloc does not
    trace, so a memory test that runs a training stage adds these bytes to
    what it measures (``workspace_bytes``).
    """
    made = []

    def mapping(*args, **kwargs):
        workspace = bb.Workspace(*args, **kwargs)
        made.append((workspace, workspace.nbytes))
        return workspace

    monkeypatch.setattr(rn, "Workspace", mapping)
    return made


def workspace_bytes(made: list, now: bool = False) -> int:
    """The largest mapping recorded (a stage maps one, and releases it before
    the next stage maps its own), or with ``now`` the bytes still mapped."""
    if now:     # ``sum`` here is the autodiff op above
        return int(np.sum([workspace.nbytes for workspace, _ in made], dtype=np.int64))
    return max((size for _, size in made), default=0)
