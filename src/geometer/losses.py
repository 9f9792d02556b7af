"""Training objectives over embeddings and prototypes.

Geometric terms: intra-class proximity pulls queries toward their own
class prototype through a distance softmax; inter-class uniformity spreads
centered prototype directions over the unit sphere by penalizing the most
aligned neighbor pair; inter-class separability pushes novel prototypes away
from their nearest old prototype.  Distillation matches the student's
temperature-softened old-class distribution to a frozen teacher's.

Proximity, separability and the softened logits measure distances with the
fused ``dm.pairwise_sq_euclidean``; uniformity is one fused op of its own
(see ``uniformity_loss``).

Sign note: logits are *negative* scaled distances, so the nearest prototype
gets the largest probability, consistent with nearest-prototype prediction.
The sign is exposed for ablation.
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
           "proximity_loss", "prototype_center", "uniformity_loss",
           "separability_loss", "softened_logits", "distillation_loss",
           "pretrain_loss", "finetune_loss", "inverse_frequency_alpha"]


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
            raise ValueError(f"temperature must be positive, got {self.tau}")
        for name in ("lambda_p", "lambda_u", "lambda_s", "lambda_kd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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
    col = np.empty(len(labels), dtype=np.int64)
    for i, cls in enumerate(labels):
        try:
            col[i] = prototypes.index_of(int(cls))
        except KeyError:
            raise MissingPrototypeError(f"query class {cls} has no prototype") from None

    logits = dm.scale(dm.pairwise_sq_euclidean(query_embeddings, prototypes.vectors), -1.0)
    log_probs = dm.log_softmax(logits, axis=1)
    onehot = np.zeros((len(labels), len(prototypes)), dtype=query_embeddings.dtype)
    onehot[np.arange(len(labels)), col] = 1.0
    own = dm.sum(dm.mul(log_probs, dm.constant(onehot, dtype=query_embeddings.dtype)), axis=1)

    counts = np.bincount(col, minlength=len(prototypes)).astype(np.float64)
    weights = np.zeros(len(labels))
    for i, cls in enumerate(labels):
        a = 1.0 if alpha is None else float(alpha.get(int(cls), 1.0))
        weights[i] = a / counts[col[i]]
    w = dm.constant(weights.astype(query_embeddings.dtype), dtype=query_embeddings.dtype)
    return dm.scale(dm.matmul(w, own), -1.0)


def prototype_center(prototypes: PrototypeSet) -> Tensor:
    """Arithmetic mean of all encountered prototypes."""
    if len(prototypes) == 0:
        raise ValueError("prototype_center needs at least one prototype")
    return dm.mean(prototypes.vectors, axis=0)


def uniformity_loss(prototypes: PrototypeSet) -> Tensor:
    """Mean over classes of 1 + max cosine to any other centered direction.

    A prototype coincident with the center has no direction; its row is
    replaced by a seeded random unit vector (and the event logged), which
    carries no gradient.

    One op with the arithmetic of the op chain it replaced.  For its backward
    it keeps the centered rows, their norms and directions, and each row's
    nearest neighbor, the first maximal entry (where ``dm.amax`` routes the
    subgradient).  The prototypes are a parent twice, as the centered rows and
    through the center, so the tape adds those two gradient terms in the
    chain's order.
    """
    c = len(prototypes)
    if c < 2:
        raise ValueError("uniformity_loss needs at least two prototypes")
    vecs = prototypes.vectors
    v = vecs.data
    dtype = v.dtype
    inv_c = 1.0 / c
    with dm._fpe_guard("uniformity_loss"):
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
    with dm._fpe_guard("uniformity_loss"):
        if keep is not None:
            diffs = diffs * keep + subst
        norms = np.sqrt((diffs * diffs).sum(axis=1, keepdims=True))
        dirs = diffs / norms
        cos = dm._finite_matmul(dirs, dirs.T, "uniformity_loss")
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

    return dm._result(out, (vecs, vecs), vjp)


def separability_loss(novel_vectors: Tensor, old_vectors: Tensor) -> Tensor:
    """Mean over novel prototypes of exp(-squared distance to nearest old)."""
    if novel_vectors.shape[0] == 0 or old_vectors.shape[0] == 0:
        raise ValueError("separability_loss needs non-empty novel and old prototype lists")
    dist = dm.pairwise_sq_euclidean(novel_vectors, old_vectors)
    nearest = dm.amin(dist, axis=1)
    return dm.mean(dm.exp(dm.neg(nearest)))


def softened_logits(embeddings: Tensor, prototypes: PrototypeSet, tau: float,
                    sign: float = -1.0) -> Tensor:
    """Temperature-softened class distribution from prototype distances."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if len(prototypes) == 0:
        raise ValueError("softened_logits needs at least one prototype")
    squeeze = embeddings.ndim == 1
    if squeeze:
        embeddings = dm.reshape(embeddings, (1, embeddings.shape[0]))
    dist = dm.pairwise_sq_euclidean(embeddings, prototypes.vectors)
    probs = dm.softmax(dm.scale(dist, sign / tau), axis=1)
    return dm.reshape(probs, (len(prototypes),)) if squeeze else probs


def distillation_loss(student_logits: Tensor, teacher_logits) -> Tensor:
    """Old-class KL divergence between softened student and teacher rows,
    normalized by the old-class count and averaged over queries."""
    teacher = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    if student_logits.shape != teacher.shape or student_logits.ndim != 2:
        raise dm.ShapeError(
            f"student/teacher shape mismatch: {student_logits.shape} vs {teacher.shape}")
    n_classes = student_logits.shape[1]
    log_s = dm.log(dm.clip(student_logits, LOG_CLAMP, None))
    log_t = np.log(np.clip(teacher.astype(student_logits.dtype), LOG_CLAMP, None))
    per_query = dm.sum(dm.mul(student_logits, dm.sub(log_s, dm.constant(log_t, dtype=student_logits.dtype))), axis=1)
    return dm.scale(dm.mean(per_query), 1.0 / n_classes)


def _weighted_terms(pairs, dtype):
    total = None
    for lam, term in pairs:
        if lam == 0.0:
            continue
        if term is None:
            raise ValueError("loss component with non-zero weight is missing")
        piece = dm.scale(term, lam)
        total = piece if total is None else dm.add(total, piece)
    if total is None:
        total = dm.constant(0.0, dtype=dtype)
    return total


def pretrain_loss(proximity: Tensor, uniformity: Tensor | None, weights: LossWeights) -> Tensor:
    """Base-stage objective: lambda_P * L_P + lambda_U * L_U."""
    return _weighted_terms([(weights.lambda_p, proximity), (weights.lambda_u, uniformity)],
                           proximity.dtype)


def finetune_loss(proximity: Tensor, uniformity: Tensor | None, separability: Tensor | None,
                  distillation: Tensor | None, weights: LossWeights) -> Tensor:
    """Session objective: adds separability and teacher distillation terms."""
    return _weighted_terms([
        (weights.lambda_p, proximity),
        (weights.lambda_u, uniformity),
        (weights.lambda_s, separability),
        (weights.lambda_kd, distillation),
    ], proximity.dtype)
