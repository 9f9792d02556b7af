from dataclasses import replace

import numpy as np
import pytest

import geometer.diffmath as dm
import geometer.graph_store as gs
import geometer.losses as ls
import geometer.prototypes as pt
import geometer.runner as rn
from geometer.config import ExperimentConfig
from geometer.episodes import episode_rng, sample_pretrain_episode
from geometer.synth import make_clustered_graph


def tiny_config(**overrides):
    base = dict(hidden_dim=16, embedding_dim=8, class_attention_heads=2,
                k_max=4, k_qry=4, episodes_pretrain=40, episodes_finetune=15,
                k_shot=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_stream(seed=0, classes=4, per_class=24):
    g = make_clustered_graph(classes=classes, per_class=per_class, feature_dim=12,
                             p_in=0.25, p_out=0.02, seed=seed)
    novel = [[c] for c in range(2, classes)]
    return gs.build_session_stream(g, [0, 1], novel, k_shot=3, seed=seed)


def hand_model(proto_vectors, class_ids, g, cfg=None, seed=0):
    """Model with trained-shape params but explicitly chosen prototypes."""
    cfg = cfg or tiny_config()
    from geometer.backbone import init_backbone
    from geometer.prototypes import init_class_attention
    state = rn.ModelState(
        backbone=init_backbone(g.feature_dim, cfg.hidden_dim, cfg.embedding_dim, seed=seed),
        class_attention=init_class_attention(cfg.embedding_dim, cfg.class_attention_heads, seed),
        prototypes=pt.PrototypeSet(tuple(class_ids),
                                   dm.tensor(np.asarray(proto_vectors, dtype=np.float32)),
                                   tuple("computed" for _ in class_ids)),
        session_index=0)
    return state


# --- pretraining --------------------------------------------------------------

def test_pretrain_zero_episodes_leaves_params_initialized():
    stream = tiny_stream()
    cfg = tiny_config(episodes_pretrain=0)
    from geometer.backbone import init_backbone
    state = rn.pretrain(stream, cfg, seed=3)
    fresh = init_backbone(stream.snapshots[0].feature_dim, cfg.hidden_dim,
                          cfg.embedding_dim, seed=3)
    for a, b in zip(state.backbone.tensors(), fresh.tensors()):
        assert a.data.tobytes() == b.data.tobytes()
    assert state.prototypes is not None
    assert state.prototypes.class_ids == (0, 1)


def test_pretrain_requires_two_base_classes():
    g = make_clustered_graph(classes=3, per_class=20, feature_dim=6, seed=1)
    stream = gs.build_session_stream(g, [0], [[1], [2]], k_shot=3, seed=1)
    with pytest.raises(ValueError):
        rn.pretrain(stream, tiny_config(), seed=0)


def test_pretrain_seed_determinism():
    stream = tiny_stream(seed=2)
    cfg = tiny_config(episodes_pretrain=10)
    a = rn.pretrain(stream, cfg, seed=5)
    b = rn.pretrain(stream, cfg, seed=5)
    for ta, tb in zip(a.trainable(), b.trainable()):
        assert ta.data.tobytes() == tb.data.tobytes()
    ma = rn.evaluate_session(a, stream, 0)
    mb = rn.evaluate_session(b, stream, 0)
    assert abs(ma.accuracy_mean - mb.accuracy_mean) < 1e-6


def test_pretrain_training_curve_improves_for_most_seeds():
    stream = tiny_stream(seed=7)
    cfg = tiny_config(episodes_pretrain=40)
    g = stream.snapshots[0]
    pools = {c: stream.eval_pools[0][c] for c in stream.classes_at(0)}
    weights = cfg.loss_weights()
    improved = 0
    for seed in range(10):
        held_out = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(seed, 99, 0))
        before = rn.pretrain(stream, cfg.with_overrides(episodes_pretrain=0), seed)
        after = rn.pretrain(stream, cfg, seed)
        loss_before = rn._pretrain_episode_loss(before, g, held_out, cfg, weights,
                                                episode_rng(seed, 98, 0)).item()
        loss_after = rn._pretrain_episode_loss(after, g, held_out, cfg, weights,
                                               episode_rng(seed, 98, 0)).item()
        improved += loss_after < loss_before
    assert improved >= 9


# --- streaming sessions --------------------------------------------------------

def test_session_requires_matching_teacher():
    stream = tiny_stream(seed=3)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=5), seed=1)
    with pytest.raises(rn.MissingTeacherError):
        rn.run_stream_session(model, stream, session=2, cfg=tiny_config(), seed=1)


def test_teacher_parameters_bit_identical_after_session():
    stream = tiny_stream(seed=4)
    cfg = tiny_config(episodes_pretrain=10, episodes_finetune=8)
    teacher = rn.pretrain(stream, cfg, seed=2)
    before = {k: v.tobytes() for k, v in rn.model_to_arrays(teacher).items()}
    rn.run_stream_session(teacher, stream, 1, cfg, seed=2)
    after = {k: v.tobytes() for k, v in rn.model_to_arrays(teacher).items()}
    assert before == after


def test_noop_finetune_extends_prototypes_and_keeps_old():
    # carried-vector configuration: a zero-episode session must leave the old
    # prototype vectors bit-identical to the teacher's
    stream = tiny_stream(seed=5)
    cfg = tiny_config(episodes_pretrain=8, episodes_finetune=0,
                      lambda_u=0.0, lambda_s=0.0, lambda_kd=0.0,
                      carried_prototypes=True)
    teacher = rn.pretrain(stream, cfg, seed=4)
    student = rn.run_stream_session(teacher, stream, 1, cfg, seed=4)
    # parameters untouched
    for ta, tb in zip(teacher.trainable(), student.trainable()):
        assert ta.data.tobytes() == tb.data.tobytes()
    # old prototypes carried over exactly, novel classes appended
    assert student.prototypes.class_ids == (0, 1, 2)
    for cls in (0, 1):
        i, j = teacher.prototypes.index_of(cls), student.prototypes.index_of(cls)
        assert (teacher.prototypes.vectors.data[i].tobytes()
                == student.prototypes.vectors.data[j].tobytes())
        assert student.prototypes.origins[j] == pt.ORIGIN_CARRIED
    novel_idx = student.prototypes.index_of(2)
    assert student.prototypes.origins[novel_idx] == pt.ORIGIN_COMPUTED
    # old-class nearest-prototype decisions agree with the teacher's on the
    # session snapshot when restricted to old classes
    g1 = stream.snapshots[1]
    old_nodes = [int(v) for c in (0, 1) for v in stream.eval_pools[1][c]]
    teacher_for_g1 = rn.ModelState(student.backbone, student.class_attention,
                                   teacher.prototypes, session_index=1)
    restricted = rn.ModelState(student.backbone, student.class_attention,
                               student.prototypes.subset([0, 1]), session_index=1)
    assert rn.predict_nodes(teacher_for_g1, g1, old_nodes) == \
        rn.predict_nodes(restricted, g1, old_nodes)


def test_session_chain_grows_class_coverage():
    stream = tiny_stream(seed=6)
    cfg = tiny_config(episodes_pretrain=15, episodes_finetune=5)
    state = rn.pretrain(stream, cfg, seed=0)
    expected = 2
    for session in range(1, stream.num_sessions + 1):
        state = rn.run_stream_session(state, stream, session, cfg, seed=0)
        expected += 1
        assert len(state.prototypes) == expected
        metrics = rn.evaluate_session(state, stream, session)
        assert 0.0 <= metrics.accuracy_mean <= 1.0
        assert set(metrics.per_class) == set(stream.classes_at(session))


def test_default_session_prototypes_are_recomputed():
    stream = tiny_stream(seed=8)
    cfg = tiny_config(episodes_pretrain=10, episodes_finetune=5)
    teacher = rn.pretrain(stream, cfg, seed=1)
    student = rn.run_stream_session(teacher, stream, 1, cfg, seed=1)
    assert all(o == pt.ORIGIN_COMPUTED for o in student.prototypes.origins)
    # zero-episode session with an unchanged encoder reproduces the teacher's
    # base prototypes only up to the grown snapshot; class coverage still grows
    assert student.prototypes.class_ids == (0, 1, 2)


# --- prediction ----------------------------------------------------------------

def test_combined_prototypes_merge_in_class_order():
    student = pt.PrototypeSet((2, 5), dm.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                                requires_grad=True),
                              (pt.ORIGIN_COMPUTED,) * 2)
    carried = pt.PrototypeSet((0, 2, 3), dm.tensor(np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 0.5]])),
                              (pt.ORIGIN_COMPUTED,) * 3)
    merged = rn._combined_prototypes(student, carried)
    assert merged.class_ids == (0, 2, 3, 5)
    assert merged.origins == (pt.ORIGIN_CARRIED, pt.ORIGIN_COMPUTED,
                              pt.ORIGIN_CARRIED, pt.ORIGIN_COMPUTED)
    np.testing.assert_array_equal(merged.vectors.data,
                                  [[5.0, 6.0], [1.0, 2.0], [9.0, 0.5], [3.0, 4.0]])
    weights = np.arange(8.0).reshape(4, 2)
    _, (grad,) = dm.value_and_grad(dm.sum(dm.mul(merged.vectors, dm.constant(weights,
                                                                            dtype=np.float64))),
                                   [student.vectors])
    np.testing.assert_array_equal(grad, weights[[1, 3]])
    assert rn._combined_prototypes(student, None) is student


def test_predict_node_matching_prototype_and_tie_rule():
    g = make_clustered_graph(classes=2, per_class=6, feature_dim=5, seed=9)
    cfg = tiny_config()
    from geometer.backbone import encode, init_backbone
    state0 = hand_model(np.zeros((1, cfg.embedding_dim)), (0,), g, cfg)
    emb = encode(state0.backbone, g).data
    protos = np.stack([np.full(cfg.embedding_dim, 50.0, dtype=np.float32),
                       emb[0], np.full(cfg.embedding_dim, -50.0, dtype=np.float32)])
    model = hand_model(protos, (1, 3, 7), g, cfg)
    assert rn.predict_nodes(model, g, [int(g.node_ids[0])])[0] == 3
    # exact tie between class 2 and class 5 resolves to 2
    tied = hand_model(np.stack([emb[1], emb[1]]), (2, 5), g, cfg)
    assert rn.predict_nodes(tied, g, [int(g.node_ids[1])])[0] == 2


def test_predict_matches_argmin_loop_oracle():
    g = make_clustered_graph(classes=3, per_class=20, feature_dim=10, seed=10)
    cfg = tiny_config()
    rng = np.random.default_rng(11)
    protos = rng.normal(size=(4, cfg.embedding_dim)).astype(np.float32)
    model = hand_model(protos, (0, 1, 2, 3), g, cfg, seed=12)
    from geometer.backbone import encode
    emb = encode(model.backbone, g).data
    nodes = [int(v) for v in g.node_ids[:50]]
    got = rn.predict_nodes(model, g, nodes)
    for node, pred in zip(nodes, got):
        dists = [float(np.sum((emb[g.row_of(node)] - p) ** 2)) for p in protos]
        assert pred == int(np.argmin(dists))


def test_predict_requires_prototypes():
    g = make_clustered_graph(classes=2, per_class=5, feature_dim=4, seed=13)
    model = hand_model(np.zeros((1, 8)), (0,), g)
    model.prototypes = None
    with pytest.raises(rn.EmptyPrototypeSetError):
        rn.predict_nodes(model, g, [0])


def test_softened_argmax_equals_nearest_prototype():
    g = make_clustered_graph(classes=3, per_class=10, feature_dim=6, seed=14)
    cfg = tiny_config()
    rng = np.random.default_rng(15)
    protos_v = rng.normal(size=(5, cfg.embedding_dim)).astype(np.float32)
    model = hand_model(protos_v, (0, 1, 2, 3, 4), g, cfg, seed=16)
    from geometer.backbone import encode
    emb = encode(model.backbone, g).data
    nodes = [int(v) for v in g.node_ids]
    preds = rn.predict_nodes(model, g, nodes)
    for tau in (0.1, 2.0, 1000.0):
        for node, pred in zip(nodes, preds):
            probs = ls.softened_logits(
                dm.tensor(emb[g.row_of(node)]), model.prototypes, tau).data
            assert model.prototypes.class_ids[int(np.argmax(probs))] == pred


# --- evaluation ------------------------------------------------------------------

def separable_no_edge_stream():
    feats = np.zeros((20, 4), dtype=np.float32)
    feats[:10] = [8.0, 0.0, 0.0, 0.0]
    feats[10:] = [0.0, 8.0, 0.0, 0.0]
    labels = [0] * 10 + [1] * 10
    g = gs.make_graph(feats, [], labels)
    return gs.build_session_stream(g, [0, 1], [], k_shot=3, seed=0)


def test_evaluate_perfect_accuracy_and_zero_std():
    # constant per-class features and mean prototypes: every query sits exactly
    # on its own prototype
    stream = separable_no_edge_stream()
    cfg = tiny_config(episodes_pretrain=0, mode="pn_star")
    model = rn.pretrain(stream, cfg, seed=0)
    metrics = rn.evaluate_session(model, stream, 0, seeds=[0])
    assert metrics.accuracy_mean == 1.0
    assert metrics.accuracy_std == 0.0
    assert metrics.per_class == {0: 1.0, 1: 1.0}
    assert metrics.wall_time >= 0.0


def test_evaluate_accuracy_matches_counting_oracle():
    stream = tiny_stream(seed=17)
    cfg = tiny_config(episodes_pretrain=5)
    model = rn.pretrain(stream, cfg, seed=3)
    metrics = rn.evaluate_session(model, stream, 0, seeds=[1, 2, 3])
    assert metrics.accuracy_std == 0.0
    pools = stream.eval_pools[0]
    correct = total = 0
    for cls in stream.classes_at(0):
        nodes = [int(v) for v in pools[cls]]
        preds = rn.predict_nodes(model, stream.snapshots[0], nodes)
        correct += sum(p == cls for p in preds)
        total += len(nodes)
    assert metrics.accuracy_mean == pytest.approx(correct / total, abs=1e-12)


def test_evaluate_session_index_guard():
    stream = tiny_stream(seed=18)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=3), seed=0)
    with pytest.raises(ValueError):
        rn.evaluate_session(model, stream, 1)


def test_full_episode_losses_match_finite_differences():
    # the strongest wiring check: gradients through encoder, prototype
    # attention, and every loss term at once, against central differences
    import geometer.backbone as bb
    from geometer.episodes import episode_rng, sample_finetune_episode, sample_pretrain_episode
    from oracles import central_differences, grad_relative_error

    g = make_clustered_graph(classes=3, per_class=10, feature_dim=5,
                             p_in=0.4, p_out=0.05, seed=20)
    stream = gs.build_session_stream(g, [0, 1], [[2]], k_shot=3, seed=1)
    cfg = tiny_config(hidden_dim=6, embedding_dim=4, class_attention_heads=2,
                      k_max=3, k_qry=3, k_shot=3)
    carried_cfg = replace(cfg, carried_prototypes=True)
    weights = cfg.loss_weights()

    def make_state(arrays):
        it = iter(arrays)
        layers = []
        for shapes in (((6, 5), (12,)), ((4, 6), (8,))):
            w, a = next(it), next(it)
            layers.append((bb.HeadParams(
                dm.tensor(w, requires_grad=True, dtype=np.float64),
                dm.tensor(a, requires_grad=True, dtype=np.float64)),))
        backbone = bb.BackboneParams(tuple(layers), 5, 6, 4)
        ca = pt.ClassAttentionParams(
            *(dm.tensor(next(it), requires_grad=True, dtype=np.float64) for _ in range(3)),
            heads=2)
        return rn.ModelState(backbone, ca, None, 0)

    rng0 = np.random.default_rng(21)
    shapes = [(6, 5), (12,), (4, 6), (8,), (4, 4), (4, 4), (4, 4)]
    arrays = [rng0.normal(size=s) * 0.4 for s in shapes]

    teacher = make_state([a.copy() for a in arrays])
    teacher.prototypes = pt.PrototypeSet(
        (0, 1), dm.tensor(rng0.normal(size=(2, 4)), dtype=np.float64), ("computed",) * 2)
    teacher_emb = bb.encode(teacher.backbone, stream.snapshots[1]).data

    pre_ep = sample_pretrain_episode({c: stream.eval_pools[0][c] for c in (0, 1)},
                                     cfg.sampler(), episode_rng(0, 0, 0))
    fine_ep = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(0, 1, 0))

    cases = {
        "pretrain": lambda state: rn._pretrain_episode_loss(
            state, stream.snapshots[0], pre_ep, cfg, weights, episode_rng(0, 9, 0)),
        "finetune": lambda state: rn._finetune_episode_loss(
            state, teacher_emb, teacher.prototypes, stream.snapshots[1], fine_ep,
            stream, 1, cfg, weights, episode_rng(0, 9, 1)),
        "finetune_carried": lambda state: rn._finetune_episode_loss(
            state, teacher_emb, teacher.prototypes, stream.snapshots[1], fine_ep,
            stream, 1, carried_cfg, weights, episode_rng(0, 9, 1)),
    }
    for name, build in cases.items():
        state = make_state(arrays)
        params = state.trainable()
        _, analytic = dm.value_and_grad(build(state), params)
        numeric = central_differences(
            lambda arrs: build(make_state(arrs)).item(), arrays)
        err = grad_relative_error(analytic, numeric)
        assert err < 1e-4, f"{name}: rel err {err}"


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("stage", ["pretrain", "finetune", "finetune_carried"])
def test_episode_losses_match_full_graph_encode(stage, dropout, monkeypatch):
    # a training episode encodes only its rows' receptive field; its loss and
    # gradients must equal those computed from the full-graph embeddings
    # (float64, so float32 rounding in the class-attention gradients stays out)
    import geometer.backbone as bb
    from geometer.episodes import sample_finetune_episode

    stream = tiny_stream(seed=22)
    cfg = tiny_config(dropout=dropout, carried_prototypes=stage == "finetune_carried")
    weights = cfg.loss_weights()
    teacher = rn.clone_state(rn.pretrain(stream, tiny_config(episodes_pretrain=3), seed=5))
    for t in teacher.trainable():
        t.data = t.data.astype(np.float64)
    teacher.prototypes = pt.PrototypeSet(
        teacher.prototypes.class_ids, dm.tensor(teacher.prototypes.vectors.data, dtype=np.float64),
        teacher.prototypes.origins)
    g1 = stream.snapshots[1]
    teacher_emb = bb.encode(teacher.backbone, g1).data
    pools = {c: stream.eval_pools[0][c] for c in (0, 1)}
    pre_ep = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(5, 0, 0))
    fine_ep = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(5, 1, 0))
    student = rn.clone_state(teacher)

    def loss_and_grads():
        rng = episode_rng(5, 9, 0)
        if stage == "pretrain":
            loss = rn._pretrain_episode_loss(student, stream.snapshots[0], pre_ep, cfg,
                                             weights, rng)
        else:
            loss = rn._finetune_episode_loss(student, teacher_emb, teacher.prototypes, g1,
                                             fine_ep, stream, 1, cfg, weights, rng)
        return dm.value_and_grad(loss, student.trainable())

    value, grads = loss_and_grads()
    monkeypatch.setattr(rn, "encode", lambda params, g, rate=0.0, rng=None, *, rows:
                        dm.take_rows(bb.encode(params, g, rate, rng), rows))
    full_value, full_grads = loss_and_grads()
    assert value == pytest.approx(full_value, rel=1e-12)
    for a, b in zip(grads, full_grads):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max())


def test_model_checkpoint_round_trip(tmp_path):
    from geometer.checkpoint import load_tensors, save_tensors
    stream = tiny_stream(seed=19)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=5), seed=7)
    path = tmp_path / "model.gfsp"
    save_tensors(path, rn.model_to_arrays(model))
    back = rn.arrays_to_model(load_tensors(path))
    assert back.session_index == model.session_index
    assert back.prototypes.class_ids == model.prototypes.class_ids
    for a, b in zip(model.trainable(), back.trainable()):
        assert a.data.tobytes() == b.data.tobytes()
