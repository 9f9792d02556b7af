"""Cora-shaped synthetic graphs for the benchmark.

Real citation graphs have sparse binary bag-of-words features, skewed class
sizes, skewed degrees and homophilous edges.  This generator reproduces those
properties at a stated shape, deterministically under a seed:

* class sizes follow a fixed skewed profile; the seed only decides which node
  gets which label;
* each node sets about ``words_per_node`` feature bits, part of them drawn
  from a class-specific vocabulary so that classes are learnable;
* exactly ``edges`` distinct undirected edges, each joining two nodes of the
  same class with probability ``homophily``, endpoints drawn in proportion to
  a heavy-tailed per-node activity so that degrees are skewed.

Cost is linear in nodes, edges and feature bits, unlike an all-pairs planted
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A feature matrix at or above this density takes the dense layer-0 path
# (Graph.features_sparse in geometer.graph_store).
SPARSE_DENSITY_LIMIT = 0.25


@dataclass(frozen=True)
class GraphShape:
    nodes: int
    edges: int
    features: int
    class_sizes: tuple      # one entry per class, summing to ``nodes``
    words_per_node: float
    topic_words: int        # size of each class's preferred vocabulary
    topic_share: float      # expected share of a node's words from its class vocabulary
    homophily: float


def skewed_class_sizes(nodes: int, classes: int, floor: int, exponent: float) -> tuple:
    """Sizes ``floor + extra_k`` with ``extra_k`` proportional to ``1/(k+1)**exponent``,
    largest first, summing exactly to ``nodes``."""
    if floor * classes > nodes:
        raise ValueError(f"{classes} classes of at least {floor} exceed {nodes} nodes")
    weights = 1.0 / np.arange(1, classes + 1) ** exponent
    extra = np.floor((nodes - floor * classes) * weights / weights.sum()).astype(np.int64)
    extra[0] += nodes - floor * classes - int(extra.sum())
    return tuple(int(floor + e) for e in extra)


def make_cora_like(shape: GraphShape, seed: int):
    """Return ``(features, edge_pairs, labels)`` as numpy arrays."""
    if sum(shape.class_sizes) != shape.nodes:
        raise ValueError("class sizes must sum to the node count")
    rng = np.random.default_rng([seed, 2995])
    n, d = shape.nodes, shape.features
    classes = len(shape.class_sizes)
    labels = rng.permutation(np.repeat(np.arange(classes), shape.class_sizes))

    # sparse binary features: class-vocabulary words plus background words
    vocab = np.stack([rng.choice(d, size=shape.topic_words, replace=False)
                      for _ in range(classes)])
    counts = 1 + rng.poisson(shape.words_per_node - 1, size=n)
    rows = np.repeat(np.arange(n), counts)
    topical = rng.random(len(rows)) < shape.topic_share
    cols = rng.integers(0, d, size=len(rows))
    picks = rng.integers(0, shape.topic_words, size=len(rows))
    cols[topical] = vocab[labels[rows[topical]], picks[topical]]
    features = np.zeros((n, d), dtype=np.float32)
    features[rows, cols] = 1.0

    # homophilous edges with heavy-tailed endpoint activity
    activity = rng.pareto(2.5, size=n) + 1.0
    by_class = np.argsort(labels, kind="stable")
    cum = np.cumsum(activity[by_class])
    class_end = np.cumsum(shape.class_sizes)
    class_start = class_end - np.asarray(shape.class_sizes)
    lo = np.where(class_start > 0, cum[np.maximum(class_start - 1, 0)], 0.0)
    hi = cum[class_end - 1]

    def node_at(position):
        return by_class[np.minimum(np.searchsorted(cum, position, side="right"), n - 1)]

    def draw(count):
        u = node_at(rng.random(count) * cum[-1])
        c = labels[u]
        local = lo[c] + rng.random(count) * (hi[c] - lo[c])
        anywhere = rng.random(count) * cum[-1]
        v = node_at(np.where(rng.random(count) < shape.homophily, local, anywhere))
        return np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)

    pairs = np.empty((0, 2), dtype=np.int64)
    while len(pairs) < shape.edges:
        fresh = draw(2 * (shape.edges - len(pairs)) + 64)
        fresh = fresh[fresh[:, 0] != fresh[:, 1]]
        pairs = np.concatenate([pairs, fresh])
        _, first = np.unique(pairs, axis=0, return_index=True)
        pairs = pairs[np.sort(first)]
    return features, pairs[:shape.edges], labels


CORA_ML = GraphShape(
    nodes=2995, edges=8158, features=2879,
    class_sizes=skewed_class_sizes(2995, 7, floor=120, exponent=1.0),
    words_per_node=50.0, topic_words=300, topic_share=0.35, homophily=0.8)

MANYCLASS = GraphShape(
    nodes=3500, edges=9000, features=1433,
    class_sizes=skewed_class_sizes(3500, 70, floor=25, exponent=0.8),
    words_per_node=18.0, topic_words=60, topic_share=0.5, homophily=0.8)
