"""Training and evaluation over the session stream.

Pretraining runs episodic gradient steps on the base graph, then fixes base
prototypes from each class's full labeled pool.  Every streaming session
deep-copies the previous model as a frozen teacher, finetunes a student with
the combined geometric + distillation objective, and extends the prototype
set with the session's novel classes.  By default every prototype is then
recomputed through the finetuned encoder; with the ``carried_prototypes``
switch old prototype vectors are carried from the teacher instead
(distillation keeps them valid in the drifting metric space).

A training episode encodes only the exact receptive field of its support
and query nodes (``encode(..., rows=...)``); teacher, final-prototype and
evaluation encodes run over the whole snapshot.

Prediction is nearest prototype by squared Euclidean distance, ties resolved
toward the lowest class id.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from . import diffmath as dm
from .backbone import (BackboneParams, arrays_to_backbone, backbone_to_arrays,
                       encode, init_backbone)
from .config import ExperimentConfig
from .episodes import Episode, episode_rng, sample_finetune_episode, sample_pretrain_episode
from .graph_store import Graph, SessionStream
from .losses import (LossWeights, distillation_loss, finetune_loss,
                     inverse_frequency_alpha, pretrain_loss, proximity_loss,
                     separability_loss, softened_logits, uniformity_loss)
from .optim import make_optimizer
from .prototypes import (ORIGIN_CARRIED, ORIGIN_COMPUTED, ClassAttentionParams,
                         PrototypeSet, arrays_to_class_attention,
                         arrays_to_prototypes, class_attention_to_arrays,
                         compute_prototypes, init_class_attention,
                         prototypes_to_arrays)

log = logging.getLogger(__name__)

__all__ = ["ModelState", "SessionMetrics", "TrainingDivergedError", "MissingTeacherError",
           "pretrain", "run_stream_session", "predict_nodes", "nearest_prototype",
           "evaluate_session", "model_to_arrays", "arrays_to_model", "clone_state"]


class TrainingDivergedError(RuntimeError):
    def __init__(self, stage, episode_index, cause):
        super().__init__(f"non-finite loss in {stage} episode {episode_index}: {cause}")
        self.episode_index = episode_index


class MissingTeacherError(ValueError):
    pass


class EmptyPrototypeSetError(ValueError):
    pass


@dataclass
class ModelState:
    backbone: BackboneParams
    class_attention: ClassAttentionParams
    prototypes: PrototypeSet | None
    session_index: int = 0

    def trainable(self, freeze_backbone: bool = False):
        tensors = list(self.class_attention.tensors())
        if not freeze_backbone:
            tensors = self.backbone.tensors() + tensors
        return tensors


@dataclass
class SessionMetrics:
    session_index: int
    accuracy_mean: float
    accuracy_std: float
    per_class: dict
    wall_time: float

    def to_record(self) -> dict:
        return {"session": self.session_index, "mean": self.accuracy_mean,
                "std": self.accuracy_std,
                "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
                "seconds": self.wall_time}


def clone_state(state: ModelState, requires_grad: bool = True) -> ModelState:
    """Deep copy preserving dtype; the original's arrays are never aliased."""
    from .backbone import HeadParams

    def dup(t):
        return dm.Tensor(t.data.copy(), requires_grad=requires_grad)

    layers = tuple(tuple(HeadParams(dup(hp.weight), dup(hp.attn)) for hp in layer)
                   for layer in state.backbone.layers)
    bb = BackboneParams(layers, state.backbone.feature_dim,
                        state.backbone.hidden_dim, state.backbone.out_dim)
    ca = ClassAttentionParams(dup(state.class_attention.wq), dup(state.class_attention.wk),
                              dup(state.class_attention.wv), state.class_attention.heads)
    protos = None
    if state.prototypes is not None:
        protos = PrototypeSet(state.prototypes.class_ids,
                              dm.Tensor(state.prototypes.vectors.data.copy()),
                              state.prototypes.origins)
    return ModelState(bb, ca, protos, state.session_index)


def model_to_arrays(state: ModelState) -> dict:
    arrays = {"meta/session_index": np.array([state.session_index], dtype=np.float32)}
    arrays.update(backbone_to_arrays(state.backbone))
    arrays.update(class_attention_to_arrays(state.class_attention))
    if state.prototypes is not None:
        arrays.update(prototypes_to_arrays(state.prototypes))
    return arrays


def arrays_to_model(arrays: dict) -> ModelState:
    protos = arrays_to_prototypes(arrays) if "prototypes/classes" in arrays else None
    return ModelState(
        backbone=arrays_to_backbone(arrays),
        class_attention=arrays_to_class_attention(arrays),
        prototypes=protos,
        session_index=int(arrays["meta/session_index"][0]))


# ---------------------------------------------------------------------------
# episode losses

def _alpha_for(mode: str, query_classes) -> dict | None:
    return inverse_frequency_alpha(query_classes) if mode == "inverse_frequency" else None


def _episode_rows(g: Graph, episode: Episode) -> np.ndarray:
    """Ascending graph rows of the episode's support and query nodes, the
    only embeddings its losses read."""
    return np.unique(g.rows_of([*episode.support_nodes(), *episode.query_nodes()]))


def _geometric_terms(emb, rows: np.ndarray, g: Graph, episode: Episode,
                     protos: PrototypeSet, weights: LossWeights, alpha_mode: str):
    q_emb = dm.take_rows(emb, np.searchsorted(rows, g.rows_of(episode.query_nodes())))
    labels = episode.query_classes()
    l_p = proximity_loss(q_emb, labels, protos, _alpha_for(alpha_mode, labels))
    l_u = uniformity_loss(protos) if weights.lambda_u > 0 and len(protos) >= 2 else None
    return q_emb, labels, l_p, l_u


def _pretrain_episode_loss(state: ModelState, g: Graph, episode: Episode,
                           cfg: ExperimentConfig, weights: LossWeights, rng):
    rows = _episode_rows(g, episode)
    emb = encode(state.backbone, g, cfg.dropout, rng, rows=rows)
    protos = compute_prototypes(emb, episode.supports, g, state.class_attention,
                                mode=cfg.prototype_mode, rows=rows)
    _, _, l_p, l_u = _geometric_terms(emb, rows, g, episode, protos, weights,
                                      cfg.alpha_pretrain)
    effective = replace(weights, lambda_u=0.0 if l_u is None else weights.lambda_u)
    return pretrain_loss(l_p, l_u, effective)


def _combined_prototypes(student_protos: PrototypeSet | None, carried: PrototypeSet | None):
    """The computed prototypes plus the carried classes they lack, in class order."""
    if carried is None:
        return student_protos
    computed = student_protos.class_ids
    kept = [c for c in carried.class_ids if c not in computed]
    block = dm.constant(carried.vectors.data[[carried.index_of(c) for c in kept]],
                        dtype=student_protos.vectors.dtype)
    stacked_ids = np.array([*computed, *kept])
    order = np.argsort(stacked_ids)
    vectors = dm.take_rows(dm.concat([student_protos.vectors, block], axis=0), order)
    origins = tuple(ORIGIN_COMPUTED if i < len(computed) else ORIGIN_CARRIED for i in order)
    return PrototypeSet(tuple(int(c) for c in stacked_ids[order]), vectors, origins)


def _finetune_episode_loss(student: ModelState, teacher_emb: np.ndarray,
                           teacher_protos: PrototypeSet, g: Graph, episode: Episode,
                           stream: SessionStream, session: int,
                           cfg: ExperimentConfig, weights: LossWeights, rng):
    novel_classes = stream.novel_at(session)
    old_classes = stream.classes_at(session - 1)
    rows = _episode_rows(g, episode)
    emb = encode(student.backbone, g, cfg.dropout, rng, rows=rows)

    if cfg.carried_prototypes:
        novel_supports = {c: episode.supports[c] for c in novel_classes}
        novel_protos = compute_prototypes(emb, novel_supports, g, student.class_attention,
                                          mode=cfg.prototype_mode, rows=rows)
        protos = _combined_prototypes(novel_protos, teacher_protos)
    else:
        protos = compute_prototypes(emb, episode.supports, g, student.class_attention,
                                    mode=cfg.prototype_mode, rows=rows)

    q_emb, labels, l_p, l_u = _geometric_terms(emb, rows, g, episode, protos, weights,
                                               cfg.alpha_finetune)
    l_s = None
    if weights.lambda_s > 0:
        novel_vecs = dm.take_rows(protos.vectors, [protos.index_of(c) for c in novel_classes])
        old_vecs = dm.take_rows(protos.vectors, [protos.index_of(c) for c in old_classes])
        l_s = separability_loss(novel_vecs, old_vecs)
    l_kd = None
    if weights.lambda_kd > 0:
        q_rows = g.rows_of(episode.query_nodes())
        student_logits = softened_logits(q_emb, protos.subset(old_classes),
                                         weights.tau, cfg.sign)
        teacher_logits = softened_logits(
            dm.constant(teacher_emb[q_rows], dtype=teacher_emb.dtype),
            teacher_protos, weights.tau, cfg.sign).data
        l_kd = distillation_loss(student_logits, teacher_logits)
    effective = replace(weights, lambda_u=0.0 if l_u is None else weights.lambda_u)
    return finetune_loss(l_p, l_u, l_s, l_kd, effective)


# ---------------------------------------------------------------------------
# stages

def pretrain(stream: SessionStream, cfg: ExperimentConfig, seed: int) -> ModelState:
    """Episodic base-stage training; final base prototypes use full-pool supports."""
    g = stream.snapshots[0]
    base_classes = stream.classes_at(0)
    if len(base_classes) < 2:
        raise ValueError("pretraining requires at least two base classes")
    state = ModelState(
        backbone=init_backbone(g.feature_dim, cfg.hidden_dim, cfg.embedding_dim,
                               seed=seed, heads=(cfg.backbone_heads, 1)),
        class_attention=init_class_attention(cfg.embedding_dim, cfg.class_attention_heads,
                                             seed=seed),
        prototypes=None, session_index=0)
    pools = {c: stream.eval_pools[0][c] for c in base_classes}
    weights = cfg.loss_weights()
    sampler = cfg.sampler()
    params = state.trainable()
    opt = make_optimizer(cfg.optimizer, params, cfg.lr_pretrain)
    for i in range(cfg.episodes_pretrain):
        rng = episode_rng(seed, 0, i)
        episode = sample_pretrain_episode(pools, sampler, rng)
        try:
            loss = _pretrain_episode_loss(state, g, episode, cfg, weights, rng)
            value, grads = dm.value_and_grad(loss, params)
        except dm.NonFiniteError as exc:
            raise TrainingDivergedError("pretrain", i, exc) from exc
        opt.step(grads)
        if i % 100 == 0:
            log.debug("pretrain episode %d: loss %.5f", i, value)
    state.prototypes = _detached_prototypes(
        compute_prototypes(encode(state.backbone, g), pools, g, state.class_attention,
                           mode=cfg.prototype_mode))
    return state


def run_stream_session(teacher: ModelState, stream: SessionStream, session: int,
                       cfg: ExperimentConfig, seed: int) -> ModelState:
    """Finetune a student against the frozen teacher for one streaming session."""
    if teacher.session_index != session - 1:
        raise MissingTeacherError(
            f"teacher is at session {teacher.session_index}, expected {session - 1}")
    if teacher.prototypes is None:
        raise MissingTeacherError("teacher carries no prototypes")
    g = stream.snapshots[session]
    student = clone_state(teacher)
    frozen = clone_state(teacher, requires_grad=False)
    teacher_emb = encode(frozen.backbone, g).data
    teacher_protos = frozen.prototypes

    weights = cfg.loss_weights()
    sampler = cfg.sampler()
    params = student.trainable(cfg.freeze_backbone)
    opt = make_optimizer(cfg.optimizer, params, cfg.lr_finetune)
    for i in range(cfg.episodes_finetune):
        rng = episode_rng(seed, session, i)
        episode = sample_finetune_episode(session, stream, sampler, rng)
        try:
            loss = _finetune_episode_loss(student, teacher_emb, teacher_protos, g,
                                          episode, stream, session, cfg, weights, rng)
            value, grads = dm.value_and_grad(loss, params)
        except dm.NonFiniteError as exc:
            raise TrainingDivergedError(f"session {session}", i, exc) from exc
        opt.step(grads)
        if i % 50 == 0:
            log.debug("session %d episode %d: loss %.5f", session, i, value)

    student.prototypes = _final_session_prototypes(student, teacher, stream, session, cfg, g)
    student.session_index = session
    return student


def _detached_prototypes(protos: PrototypeSet) -> PrototypeSet:
    return PrototypeSet(protos.class_ids, protos.vectors.detach(), protos.origins)


def _final_session_prototypes(student: ModelState, teacher: ModelState,
                              stream: SessionStream, session: int,
                              cfg: ExperimentConfig, g: Graph) -> PrototypeSet:
    """Extend the class coverage to this session.

    Default: recompute every prototype through the finetuned encoder on the
    current snapshot, base classes from their full labeled pools and each
    novel class (this session's and earlier ones) from its fixed K-shot
    supports, so all prototypes share one metric space.  With
    ``carried_prototypes`` the old vectors are frozen at the teacher's values
    and only the novel classes are computed.
    """
    emb = encode(student.backbone, g)
    if cfg.carried_prototypes:
        novel = compute_prototypes(emb, stream.supports_at(session), g,
                                   student.class_attention, mode=cfg.prototype_mode)
        return _detached_prototypes(_combined_prototypes(novel, teacher.prototypes))
    supports = {c: stream.eval_pools[session][c] for c in stream.classes_at(0)}
    for s in range(1, session + 1):
        supports.update(stream.supports_at(s))
    return _detached_prototypes(
        compute_prototypes(emb, supports, g, student.class_attention,
                           mode=cfg.prototype_mode))


# ---------------------------------------------------------------------------
# prediction and evaluation

def nearest_prototype(embeddings: np.ndarray, prototypes: PrototypeSet) -> list:
    """Class of the squared-Euclidean-nearest prototype per embedding row;
    exact ties resolve to the lowest class id."""
    if prototypes is None or len(prototypes) == 0:
        raise EmptyPrototypeSetError("no prototypes to predict with")
    protos = prototypes.vectors.data
    dists = (np.sum(embeddings ** 2, axis=1, keepdims=True)
             + np.sum(protos ** 2, axis=1)[None, :]
             - 2.0 * embeddings @ protos.T)
    picks = np.argmin(dists, axis=1)      # first minimum = lowest class id
    return [int(prototypes.class_ids[k]) for k in picks]


def predict_nodes(model: ModelState, g: Graph, nodes) -> list:
    """Nearest-prototype class per node; ties go to the lowest class id."""
    if model.prototypes is None or len(model.prototypes) == 0:
        raise EmptyPrototypeSetError("model has no prototypes to predict with")
    emb = encode(model.backbone, g).data
    rows = g.rows_of(list(nodes))
    return nearest_prototype(emb[rows], model.prototypes)


def evaluate_session(model: ModelState, stream: SessionStream, session: int,
                     seeds=None) -> SessionMetrics:
    """Accuracy over the eval pools of every class encountered by ``session``.

    Prediction is deterministic, so per-seed entries are identical; seed
    spread across independently trained runs is aggregated by the reporting
    command instead.
    """
    if model.session_index != session:
        raise ValueError(f"model is at session {model.session_index}, asked for {session}")
    started = time.perf_counter()
    pools = stream.eval_pools[session]
    classes = stream.classes_at(session)
    nodes, labels = [], []
    for cls in classes:
        pool = pools[cls]
        if len(pool) == 0:
            raise ValueError(f"class {cls} has an empty eval pool")
        nodes.extend(int(v) for v in pool)
        labels.extend(cls for _ in pool)
    predictions = predict_nodes(model, stream.snapshots[session], nodes)
    labels = np.array(labels)
    predictions = np.array(predictions)
    per_class = {}
    for cls in classes:
        mask = labels == cls
        per_class[int(cls)] = float((predictions[mask] == cls).mean())
    accuracy = float((predictions == labels).mean())
    repeats = max(1, len(seeds) if seeds is not None else 1)
    samples = np.full(repeats, accuracy)
    return SessionMetrics(
        session_index=session,
        accuracy_mean=float(samples.mean()),
        accuracy_std=float(samples.std()),
        per_class=per_class,
        wall_time=time.perf_counter() - started)
