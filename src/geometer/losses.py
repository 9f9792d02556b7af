"""Training objectives over embeddings and prototypes.

Geometric terms: intra-class proximity pulls queries toward their own
class prototype through a distance softmax; inter-class uniformity spreads
centered prototype directions over the unit sphere by penalizing the most
aligned neighbor pair; inter-class separability pushes novel prototypes away
from their nearest old prototype.  Distillation matches the student's
temperature-softened old-class distribution to a frozen teacher's.

Each term, and the weighted objective, is one autodiff op with a
hand-derived vjp, written with the numpy expressions of the op chain it
replaced, in the same order (the chains are the oracles in the tests), so
values and gradients are byte-identical to the chains.  Proximity,
separability and the softened logits first measure distances with the fused
``dm.pairwise_sq_euclidean``; then, for the backward:
  * ``proximity_loss`` keeps the log-probabilities, the one-hot label mask
    and the per-query weights;
  * ``uniformity_loss`` keeps the centered rows, their norms and directions,
    and each row's nearest neighbor;
  * ``separability_loss`` keeps each novel prototype's exp(-distance) to its
    nearest old prototype and that prototype's index, the first minimal
    entry;
  * ``softened_logits`` keeps its probabilities;
  * ``distillation_loss`` keeps the student probabilities, their clipped
    values and the log-ratio to the teacher; its student is a parent twice,
    as the factor of the product and through the clip and log;
  * ``finetune_loss``, the weighted objective of every stage, keeps only
    the weights.

Sign note: logits are *negative* scaled distances, so the nearest prototype
gets the largest probability, consistent with nearest-prototype prediction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import diffmath as dm
from .diffmath import Tensor
from .prototypes import PrototypeSet

log = logging.getLogger(__name__)

CENTER_COLLAPSE_EPS = 1e-8
LOG_CLAMP = 1e-12

__all__ = ["LossWeights", "MissingPrototypeError",
           "proximity_loss", "uniformity_loss",
           "separability_loss", "softened_logits", "distillation_loss",
           "finetune_loss", "inverse_frequency_alpha"]


class MissingPrototypeError(KeyError):
    pass


@dataclass
class LossWeights:
    lambda_p: float = 1.0
    lambda_u: float = 1.0
    lambda_s: float = 1.0
    lambda_kd: float = 1.0
    tau: float = 2.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("lambda_p", "lambda_u", "lambda_s", "lambda_kd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def inverse_frequency_alpha(query_classes) -> dict:
    """Per-class weights min_count/count_k: rare classes get weight 1."""
    classes, counts = np.unique(np.asarray(query_classes), return_counts=True)
    lo = counts.min()
    return {int(c): float(lo / n) for c, n in zip(classes, counts)}


def proximity_loss(query_embeddings: Tensor, query_classes, prototypes: PrototypeSet,
                   alpha: Mapping[int, float] | None = None) -> Tensor:
    """Class-averaged negative log-probability of each query's own class.

    Per-query probabilities are a softmax over negative squared Euclidean
    distances to every prototype, stabilized by max subtraction.
    """
    labels = np.asarray(query_classes, dtype=np.int64)
    if query_embeddings.shape[0] != len(labels):
        raise dm.ShapeError("one label per query embedding required")
    if len(labels) == 0:
        raise ValueError("proximity_loss needs at least one query")
    ids = np.asarray(prototypes.class_ids, dtype=np.int64)      # ascending
    absent = ~np.isin(labels, ids)
    if absent.any():
        raise MissingPrototypeError(f"query class {labels[absent][0]} has no prototype")
    col = np.searchsorted(ids, labels)

    dist = dm.pairwise_sq_euclidean(query_embeddings, prototypes.vectors)
    dtype = dist.dtype
    onehot = np.zeros((len(labels), len(prototypes)), dtype=dtype)
    onehot[np.arange(len(labels)), col] = 1.0
    counts = np.bincount(col, minlength=len(prototypes)).astype(np.float64)
    class_alpha = np.array([1.0 if alpha is None else float(alpha.get(int(c), 1.0))
                            for c in prototypes.class_ids])
    weights = class_alpha[col] / counts[col]
    w = weights.astype(dtype)
    with dm.fused("proximity_loss") as op:
        logits = dist.data * dtype.type(-1.0)
        shifted = logits - np.max(logits, axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        own = (log_probs * onehot).sum(axis=1)
        out = np.asarray(op.matmul(w, own)) * dtype.type(-1.0)

    def vjp(g):
        g_lp = (g * -1.0 * w)[:, None] * onehot
        return ((g_lp - np.exp(log_probs) * g_lp.sum(axis=1, keepdims=True)) * -1.0,)

    return dm.node(out, (dist,), vjp)


def uniformity_loss(prototypes: PrototypeSet) -> Tensor:
    """Mean over classes of 1 + max cosine to any other centered direction.

    A prototype coincident with the center has no direction; its row is
    replaced by a seeded random unit vector (and the event logged), which
    carries no gradient.

    One op with the arithmetic of the op chain it replaced.  For its backward
    it keeps the centered rows, their norms and directions, and each row's
    nearest neighbor, the first maximal entry (where the chain's max routed
    the subgradient).  The prototypes are a parent twice, as the centered
    rows and through the center, so the tape adds those two gradient terms in
    the chain's order.
    """
    c = len(prototypes)
    if c < 2:
        raise ValueError("uniformity_loss needs at least two prototypes")
    vecs = prototypes.vectors
    v = vecs.data
    dtype = v.dtype
    inv_c = 1.0 / c
    with dm.fused("uniformity_loss") as op:
        diffs = v - (v.sum(axis=0) * dtype.type(inv_c)).reshape(1, prototypes.dim)
        raw_norms = np.sqrt((diffs.astype(np.float64) ** 2).sum(axis=1))
        degenerate = raw_norms < CENTER_COLLAPSE_EPS
        keep = None
        if degenerate.any():
            log.warning("%d prototype(s) coincide with the center; substituting random directions",
                        int(degenerate.sum()))
            keep = np.where(degenerate, 0.0, 1.0).astype(dtype)[:, None]
            subst = np.zeros(v.shape, dtype=dtype)
            for i in np.nonzero(degenerate)[0]:
                r = np.random.default_rng([9041, int(i)]).normal(size=prototypes.dim)
                subst[i] = (r / np.linalg.norm(r)).astype(dtype)
            diffs = diffs * keep + subst
        norms = np.sqrt((diffs * diffs).sum(axis=1, keepdims=True))
        dirs = diffs / norms
        cos = op.matmul(dirs, dirs.T)
        cos += np.diag(np.full(c, -3.0)).astype(dtype)
        nearest = cos.argmax(axis=1)
        out = cos.max(axis=1).sum() * dtype.type(inv_c) + np.asarray(1.0, dtype=dtype)

    def vjp(g):
        g_cos = np.zeros((c, c), dtype=dtype)
        g_cos[np.arange(c), nearest] = np.asarray(g * inv_c, dtype=dtype)
        g_dirs = g_cos @ dirs + (dirs.T @ g_cos).T
        g_norms = (-g_dirs * diffs / (norms * norms)).sum(axis=1, keepdims=True)
        t = g_norms * 0.5 / norms * diffs
        g_diffs = g_dirs / norms + t + t
        if keep is not None:
            g_diffs = g_diffs * keep
        g_center = (-g_diffs).sum(axis=0) * inv_c
        return g_diffs, np.broadcast_to(g_center, v.shape)

    return dm.node(out, (vecs, vecs), vjp)


def separability_loss(novel_vectors: Tensor, old_vectors: Tensor) -> Tensor:
    """Mean over novel prototypes of exp(-squared distance to nearest old)."""
    if novel_vectors.shape[0] == 0 or old_vectors.shape[0] == 0:
        raise ValueError("separability_loss needs non-empty novel and old prototype lists")
    dist = dm.pairwise_sq_euclidean(novel_vectors, old_vectors)
    d = dist.data
    dtype = d.dtype
    n = d.shape[0]
    nearest = d.argmin(axis=1)
    with dm.fused("separability_loss"):
        e = np.exp(-d.min(axis=1))
        out = e.sum() * dtype.type(1.0 / n)

    def vjp(g):
        g_dist = np.zeros(d.shape, dtype=dtype)
        g_dist[np.arange(n), nearest] = np.asarray(g * (1.0 / n), dtype=dtype) * e
        return (np.negative(g_dist, out=g_dist),)

    return dm.node(out, (dist,), vjp)


def softened_logits(embeddings: Tensor, prototypes: PrototypeSet, tau: float) -> Tensor:
    """Temperature-softened class distribution from prototype distances:
    [n x d] embeddings give [n x classes] probabilities."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if len(prototypes) == 0:
        raise ValueError("softened_logits needs at least one prototype")
    dist = dm.pairwise_sq_euclidean(embeddings, prototypes.vectors)
    s = float(-1.0 / tau)
    with dm.fused("softened_logits"):
        logits = dist.data * dist.dtype.type(s)
        e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner) * s,)

    return dm.node(out, (dist,), vjp)


def distillation_loss(student_logits: Tensor, teacher_logits) -> Tensor:
    """Old-class KL divergence between softened student and teacher rows,
    normalized by the old-class count and averaged over queries."""
    teacher = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    if student_logits.shape != teacher.shape or student_logits.ndim != 2:
        raise dm.ShapeError(
            f"student/teacher shape mismatch: {student_logits.shape} vs {teacher.shape}")
    student = student_logits.data
    dtype = student.dtype
    n, c = student.shape
    op = dm.fused("distillation_loss")
    log_t = np.log(np.clip(teacher.astype(dtype), LOG_CLAMP, None))
    op.finite(log_t, "teacher contains NaN or Inf")
    inside = student > LOG_CLAMP
    with op:
        clipped = np.clip(student, LOG_CLAMP, None)
        diff = np.log(clipped) - log_t
        out = (student * diff).sum(axis=1).sum() * dtype.type(1.0 / n) * dtype.type(1.0 / c)

    def vjp(g):
        g_prod = np.asarray(g * (1.0 / c) * (1.0 / n), dtype=dtype)
        with dm.fused(f"{op.name}/backward"):
            g_log = g_prod * student / clipped
        # below LOG_CLAMP the clip passes no gradient to the log path
        return g_prod * diff, np.where(inside, g_log, 0)

    return dm.node(out, (student_logits, student_logits), vjp)


def _weighted_terms(pairs, dtype):
    """sum of lambda * term over the terms with non-zero weight, as one op."""
    kept = []
    for lam, term in pairs:
        if lam == 0.0:
            continue
        if term is None:
            raise ValueError("loss component with non-zero weight is missing")
        if term.dtype != dtype:
            raise dm.ShapeError(f"mixed dtypes {term.dtype} vs {dtype}")
        kept.append((float(lam), term))
    if not kept:
        return dm.constant(0.0, dtype=dtype)
    total = None
    with dm.fused("weighted_loss"):
        for lam, term in kept:
            piece = term.data * dtype.type(lam)
            total = piece if total is None else total + piece
    lams = [lam for lam, _ in kept]
    return dm.node(total, tuple(term for _, term in kept),
                   lambda g: tuple(g * lam for lam in lams))


def finetune_loss(proximity: Tensor, uniformity: Tensor | None, separability: Tensor | None,
                  distillation: Tensor | None, weights: LossWeights) -> Tensor:
    """lambda_P * L_P + lambda_U * L_U + lambda_S * L_S + lambda_KD * L_KD, the
    objective of every stage; a term with weight 0 may be None."""
    return _weighted_terms([
        (weights.lambda_p, proximity),
        (weights.lambda_u, uniformity),
        (weights.lambda_s, separability),
        (weights.lambda_kd, distillation),
    ], proximity.dtype)
