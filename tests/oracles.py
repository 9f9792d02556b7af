"""Shared independent oracles for the test suite.

Everything here is deliberately dumb and slow: explicit loops and central
finite differences, kept apart from the library code they check.  The
prototype oracle builds on the autodiff ops so that its gradients can be
compared too.
"""

import numpy as np

import geometer.diffmath as dm


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


def loop_cosine(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = sum(float(x) ** 2 for x in a) ** 0.5
    nb = sum(float(y) ** 2 for y in b) ** 0.5
    return dot / (na * nb)


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
            vectors.append(dm.mean(sup, axis=0))
            continue
        deg = degrees[graph_rows].astype(np.float64)
        w = np.full(k, 1.0 / k) if deg.sum() == 0 else deg / deg.sum()
        init = dm.matmul(dm.constant(w.astype(sup.dtype), dtype=sup.dtype), sup)
        d = init.shape[0]
        seq = dm.concat([dm.reshape(init, (1, d)), sup], axis=0)
        d_k = d // params.heads
        head_outs = []
        for h in range(params.heads):
            cut = np.arange(h * d_k, (h + 1) * d_k)
            q = dm.matmul(dm.take_rows(params.wq, cut), init)
            keys = dm.matmul(seq, dm.transpose(dm.take_rows(params.wk, cut)))
            attn = dm.softmax(dm.scale(dm.matmul(keys, q), 1.0 / np.sqrt(d_k)))
            values = dm.matmul(seq, dm.transpose(dm.take_rows(params.wv, cut)))
            head_outs.append(dm.matmul(attn, values))
        vectors.append(dm.add(init, dm.concat(head_outs, axis=0)))
    return dm.stack(vectors)


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
