"""Training and evaluation over the session stream.

Every stage runs one loop: episodic gradient steps on the stage's snapshot
under one objective, then a final encode that fixes the stage's prototypes.
Pretraining is stage 0: a fresh model and no teacher, so its objective is
proximity plus uniformity, and its prototypes come from each base class's
train pool (``SessionStream.train_pools``).  Each streaming session takes
the previous model as a frozen teacher, deep-copies it into a student, adds
separability and distillation to the objective, and extends the prototype
set with the session's novel classes.  By default every prototype is then
recomputed through the finetuned encoder; with the ``carried_prototypes``
switch old prototype vectors are carried from the teacher instead, inside
episodes and in the final set (distillation keeps them valid in the
drifting metric space).

Of the teacher, a session keeps only its prototypes and its embeddings of
the session snapshot, taken before the student is cloned; after the clone
the session holds no reference to the teacher.  A caller that hands the
model over, keeping no reference of its own, thus frees the teacher's
weights before training starts, and the session holds one copy of the
model.  ``cli.cmd_stream`` does this; it takes effect on CPython 3.11 and
later, where the called function owns its arguments.

A training episode encodes only the exact receptive field of its support
and query nodes (``encode(..., rows=...)``); teacher and final-prototype
encodes run over the whole snapshot.  A stage keeps its final-prototype
encode on the state it returns (``ModelState.embeddings``), so evaluating
that state right after the stage needs no encode of its own.

The full-graph encodes are inference only: the teacher's, a stage's final
one and prediction's run through ``BackboneParams.detached()``, the same
arrays in tensors that track no gradient, so they build no autodiff tape.
Each training stage maps one layer-0 workspace (``backbone.Workspace``,
two [snapshot rows x hidden] buffers outside the malloc heap) and hands it
to every episode's encode: a training encode's layer-0 output and the
layer-1 state gradient live there until the next step's forward overwrites
them.  Over CSR features the layer-0 weight gradient reaches the optimizer
unformed (``diffmath.DeferredGrad``), and ``Adam.step`` forms it by row
blocks from z's gradient and the episode's feature rows, which it borrows
until then.  So each step runs before the next encode, and its loss, and
with it the whole tape, is dropped together with its gradients once the
optimizer has applied them; no tensor of one episode survives into the next
one's forward.  The episode loop returns, releasing its optimizer state,
and the stage unmaps its workspace before the final encode.  A finished
stage drops its snapshot's caches (``Graph.drop_caches``: the attention
neighborhoods), since no later stage encodes that snapshot, so memory held
across a stream stays flat as sessions go by.

Prediction is nearest prototype by squared Euclidean distance, ties resolved
toward the lowest class id.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffmath as dm
from .backbone import BackboneParams, Workspace, encode, init_backbone
from .config import ExperimentConfig
from .episodes import Episode, episode_rng, sample_finetune_episode, sample_pretrain_episode
from .graph_store import Graph, SessionStream
from .losses import (LossWeights, distillation_loss, finetune_loss,
                     inverse_frequency_alpha, proximity_loss, separability_loss,
                     softened_logits, uniformity_loss)
from .optim import Adam
from .prototypes import (ClassAttentionParams, PrototypeSet, compute_prototypes,
                         init_class_attention)

log = logging.getLogger(__name__)

__all__ = ["ModelState", "SessionMetrics", "TrainingDivergedError", "MissingTeacherError",
           "pretrain", "run_stream_session", "predict_nodes", "nearest_prototype",
           "evaluate_session", "clone_state"]


class TrainingDivergedError(RuntimeError):
    pass


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
    # snapshot ``session_index`` as the finished parameters encode it, left by
    # the stage that trained them for its evaluation; never saved or cloned
    embeddings: np.ndarray | None = field(default=None, compare=False, repr=False)

    def trainable(self):
        return self.backbone.tensors() + list(self.class_attention.tensors())


@dataclass
class SessionMetrics:
    session_index: int
    accuracy_mean: float
    per_class: dict


def clone_state(state: ModelState) -> ModelState:
    """A deep copy without the stage embeddings.  Each tensor keeps its dtype,
    C order and ``requires_grad``, and no array is shared with ``state``; every
    model the library builds or loads has weights that track gradients."""
    return copy.deepcopy(replace(state, embeddings=None))


# ---------------------------------------------------------------------------
# episode loss

@dataclass(frozen=True)
class _Teacher:
    """What a session keeps of its teacher: the teacher's embeddings of the
    session snapshot and its prototypes, with the session's old and novel
    classes."""
    embeddings: np.ndarray
    prototypes: PrototypeSet
    old_classes: tuple
    novel_classes: tuple


def _episode_rows(g: Graph, episode: Episode) -> np.ndarray:
    """Ascending graph rows of the episode's support and query nodes, the
    only embeddings its losses read."""
    return np.unique(g.rows_of([*episode.support_nodes(), *episode.query_nodes()]))


def _combined_prototypes(student_protos: PrototypeSet, carried: PrototypeSet):
    """The computed prototypes plus the carried classes they lack, in class order."""
    computed = student_protos.class_ids
    kept = [c for c in carried.class_ids if c not in computed]
    block = dm.constant(carried.vectors.data[[carried.index_of(c) for c in kept]],
                        dtype=student_protos.vectors.dtype)
    stacked_ids = np.array([*computed, *kept])
    order = np.argsort(stacked_ids)
    vectors = dm.take_rows(dm.concat([student_protos.vectors, block], axis=0), order)
    return PrototypeSet(tuple(int(c) for c in stacked_ids[order]), vectors)


def _stage_prototypes(emb, supports: dict, g: Graph, state: ModelState,
                      cfg: ExperimentConfig, teacher: _Teacher | None, rows=None):
    """One prototype per class of ``supports``, through ``state``'s class
    attention.  With ``carried_prototypes`` a session computes only its novel
    classes and takes every old vector from the teacher."""
    if teacher is not None and cfg.carried_prototypes:
        novel = {c: supports[c] for c in teacher.novel_classes}
        return _combined_prototypes(
            compute_prototypes(emb, novel, g, state.class_attention,
                               mode=cfg.prototype_mode, rows=rows),
            teacher.prototypes)
    return compute_prototypes(emb, supports, g, state.class_attention,
                              mode=cfg.prototype_mode, rows=rows)


def _episode_loss(state: ModelState, g: Graph, episode: Episode, cfg: ExperimentConfig,
                  weights: LossWeights, teacher: _Teacher | None = None,
                  workspace: Workspace | None = None):
    """The weighted objective of one episode.  Without a teacher (pretraining)
    separability and distillation have nothing to act on and weigh 0; there
    the sampler draws k_qry queries for every class, so the inverse-frequency
    class weights are all 1.  The encode runs through ``workspace``, if
    given, so the loss is valid until the next encode through it."""
    rows = _episode_rows(g, episode)
    # workspace 4th and positional: perfbench's tracer labels such an encode as training
    emb = encode(state.backbone, g, rows, workspace)
    protos = _stage_prototypes(emb, episode.supports, g, state, cfg, teacher, rows=rows)
    q_rows = g.rows_of(episode.query_nodes())
    q_emb = dm.take_rows(emb, np.searchsorted(rows, q_rows))
    labels = episode.query_classes()
    alpha = (inverse_frequency_alpha(labels)
             if cfg.alpha_finetune == "inverse_frequency" else None)
    l_p = proximity_loss(q_emb, labels, protos, alpha)
    l_u = uniformity_loss(protos) if weights.lambda_u > 0 and len(protos) >= 2 else None
    l_s = l_kd = None
    if teacher is not None and weights.lambda_s > 0:
        l_s = separability_loss(protos.subset(teacher.novel_classes).vectors,
                                protos.subset(teacher.old_classes).vectors)
    if teacher is not None and weights.lambda_kd > 0:
        student_logits = softened_logits(q_emb, protos.subset(teacher.old_classes),
                                         weights.tau)
        teacher_logits = softened_logits(
            dm.constant(teacher.embeddings[q_rows], dtype=teacher.embeddings.dtype),
            teacher.prototypes, weights.tau).data
        l_kd = distillation_loss(student_logits, teacher_logits)
    # a term left out weighs 0
    effective = replace(weights, **{name: 0.0 for name, term in (
        ("lambda_u", l_u), ("lambda_s", l_s), ("lambda_kd", l_kd)) if term is None})
    return finetune_loss(l_p, l_u, l_s, l_kd, effective)


# ---------------------------------------------------------------------------
# stages

def pretrain(stream: SessionStream, cfg: ExperimentConfig, seed: int) -> ModelState:
    """Stage 0: episodic base-stage training from a fresh model, no teacher."""
    g = stream.snapshots[0]
    if len(stream.classes_at(0)) < 2:
        raise ValueError("pretraining requires at least two base classes")
    state = ModelState(
        backbone=init_backbone(g.feature_dim, cfg.hidden_dim, cfg.embedding_dim, seed=seed),
        class_attention=init_class_attention(cfg.embedding_dim, cfg.class_attention_heads,
                                             seed=seed),
        prototypes=None, session_index=0)
    pools = stream.train_pools(0)
    sampler = cfg.sampler()
    return _train_stage(state, stream, 0, cfg, seed,
                        lambda rng: sample_pretrain_episode(pools, sampler, rng))


def run_stream_session(teacher: ModelState, stream: SessionStream, session: int,
                       cfg: ExperimentConfig, seed: int) -> ModelState:
    """Finetune a student against the frozen teacher for one streaming session."""
    if teacher.session_index != session - 1:
        raise MissingTeacherError(
            f"teacher is at session {teacher.session_index}, expected {session - 1}")
    if teacher.prototypes is None:
        raise MissingTeacherError("teacher carries no prototypes")
    frozen = _Teacher(encode(teacher.backbone.detached(), stream.snapshots[session]).data,
                      teacher.prototypes, stream.classes_at(session - 1),
                      stream.novel_at(session))
    student = clone_state(teacher)
    # the session reads only ``frozen`` of the teacher, so its weights go
    # here, before training, unless the caller still holds the model
    del teacher
    sampler = cfg.sampler()
    return _train_stage(student, stream, session, cfg, seed,
                        lambda rng: sample_finetune_episode(session, stream, sampler, rng),
                        frozen)


def _train_stage(state: ModelState, stream: SessionStream, stage: int,
                 cfg: ExperimentConfig, seed: int, sample,
                 teacher: _Teacher | None = None) -> ModelState:
    """Train ``state`` on stage ``stage``'s episodes, drawn by ``sample(rng)``,
    then fix its prototypes through the trained encoder: a base class's from
    its train pool, a novel class's from its K-shot supports.  The episodes
    share one layer-0 workspace, unmapped before the final encode."""
    g = stream.snapshots[stage]
    weights = cfg.loss_weights()
    lr, episodes = ((cfg.lr_pretrain, cfg.episodes_pretrain) if stage == 0
                    else (cfg.lr_finetune, cfg.episodes_finetune))
    workspace = Workspace(g.node_count, state.backbone.hidden_dim, state.backbone.dtype)
    _train_episodes(state.trainable(), lr, episodes, seed, stage, sample,
                    lambda episode: _episode_loss(state, g, episode, cfg, weights, teacher,
                                                  workspace))
    workspace.release()
    emb = encode(state.backbone.detached(), g)
    supports = stream.train_pools(stage)
    for s in range(1, stage + 1):
        supports.update(stream.supports_at(s))
    protos = _stage_prototypes(emb, supports, g, state, cfg, teacher)
    state.prototypes = PrototypeSet(protos.class_ids, protos.vectors.detach())
    state.session_index = stage
    state.embeddings = emb.data
    g.drop_caches()
    return state


def _train_episodes(params, lr: float, episodes: int, seed: int, stage: int,
                    sample, episode_loss) -> None:
    """One optimizer step on ``params`` per episode of stage ``stage`` (0 is
    pretraining): ``sample(rng)`` draws the episode and ``episode_loss(episode)``
    builds its loss.  Each step's loss and gradients are dropped once
    the optimizer has applied them, so no tape outlives its step; the
    optimizer is freed when this returns.  A non-finite loss or gradient,
    found by the backward or by the step as it forms a deferred gradient,
    raises ``TrainingDivergedError``; the step may then have updated part of
    ``params``, which belong to a model the stage never returns."""
    label = "pretrain" if stage == 0 else f"session {stage}"
    opt = Adam(params, lr)
    for i in range(episodes):
        episode = sample(episode_rng(seed, stage, i))
        try:
            loss = episode_loss(episode)
            value, grads = dm.value_and_grad(loss, params)
            opt.step(grads)
        except dm.NonFiniteError as exc:
            raise TrainingDivergedError(
                f"non-finite loss in {label} episode {i}: {exc}") from exc
        del loss, grads
        if i % 50 == 0:
            log.debug("%s episode %d: loss %.5f", label, i, value)


# ---------------------------------------------------------------------------
# prediction and evaluation

def nearest_prototype(embeddings: np.ndarray, prototypes: PrototypeSet) -> list:
    """Class of the squared-Euclidean-nearest prototype per embedding row;
    exact ties resolve to the lowest class id.  The distances are those of
    ``dm.pairwise_sq_euclidean``, clipped at 0: a round-off distance below 0
    ties with an exact 0."""
    dists = dm.pairwise_sq_euclidean(dm.Tensor(embeddings), prototypes.vectors.detach()).data
    picks = np.argmin(dists, axis=1)      # first minimum = lowest class id
    return [int(prototypes.class_ids[k]) for k in picks]


def predict_nodes(model: ModelState, g: Graph, nodes, embeddings=None) -> list:
    """Nearest-prototype class per node; ties go to the lowest class id.

    ``embeddings`` is ``g`` as ``model``'s backbone encodes it, when the
    caller already holds it; by default it is encoded here.
    """
    if model.prototypes is None or len(model.prototypes) == 0:
        raise EmptyPrototypeSetError("model has no prototypes to predict with")
    emb = encode(model.backbone.detached(), g).data if embeddings is None else embeddings
    if emb.shape[0] != g.node_count:
        raise ValueError(f"embeddings have {emb.shape[0]} rows, graph has {g.node_count}")
    rows = g.rows_of(list(nodes))
    return nearest_prototype(emb[rows], model.prototypes)


def evaluate_session(model: ModelState, stream: SessionStream, session: int,
                     *, embeddings=None) -> SessionMetrics:
    """Accuracy over the test pools of every class encountered by ``session``.

    The spread across independently trained seeds is the reporting
    command's to compute.  ``embeddings`` (the session snapshot encoded by the
    model, such as ``model.embeddings`` straight after its stage) saves the
    full-graph encode.
    """
    if model.session_index != session:
        raise ValueError(f"model is at session {model.session_index}, asked for {session}")
    pools = stream.test_pools(session)
    nodes, labels = [], []
    for cls, pool in pools.items():
        nodes.extend(int(v) for v in pool)
        labels.extend(cls for _ in pool)
    predictions = predict_nodes(model, stream.snapshots[session], nodes, embeddings)
    labels = np.array(labels)
    predictions = np.array(predictions)
    per_class = {}
    for cls in pools:
        mask = labels == cls
        per_class[int(cls)] = float((predictions[mask] == cls).mean())
    return SessionMetrics(session, float((predictions == labels).mean()), per_class)
