import weakref
from dataclasses import replace

import numpy as np
import pytest

import geometer.diffmath as dm
import geometer.graph_store as gs
import geometer.losses as ls
import geometer.prototypes as pt
import geometer.runner as rn
from geometer.checkpoint import arrays_to_model, model_to_arrays
from geometer.config import ExperimentConfig
from geometer.episodes import episode_rng, sample_pretrain_episode
from geometer.synth import make_clustered_graph

import oracles


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


def teacher_view(teacher_emb, teacher_protos, stream, session=1):
    """A session's frozen view of its teacher, for ``rn._episode_loss``."""
    return rn._Teacher(teacher_emb, teacher_protos, stream.classes_at(session - 1),
                       stream.novel_at(session))


def hand_model(proto_vectors, class_ids, g, cfg=None, seed=0):
    """Model with trained-shape params but explicitly chosen prototypes."""
    cfg = cfg or tiny_config()
    from geometer.backbone import init_backbone
    from geometer.prototypes import init_class_attention
    state = rn.ModelState(
        backbone=init_backbone(g.feature_dim, cfg.hidden_dim, cfg.embedding_dim, seed=seed),
        class_attention=init_class_attention(cfg.embedding_dim, cfg.class_attention_heads, seed),
        prototypes=pt.PrototypeSet(tuple(class_ids),
                                   dm.tensor(np.asarray(proto_vectors, dtype=np.float32))),
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
    pools = stream.train_pools(0)
    weights = cfg.loss_weights()
    improved = 0
    for seed in range(10):
        held_out = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(seed, 99, 0))
        before = rn.pretrain(stream, replace(cfg, episodes_pretrain=0), seed)
        after = rn.pretrain(stream, cfg, seed)
        loss_before = rn._episode_loss(before, g, held_out, cfg, weights,
                                       episode_rng(seed, 98, 0)).item()
        loss_after = rn._episode_loss(after, g, held_out, cfg, weights,
                                      episode_rng(seed, 98, 0)).item()
        improved += loss_after < loss_before
    assert improved >= 9


# --- streaming sessions --------------------------------------------------------

def test_session_requires_matching_teacher():
    stream = tiny_stream(seed=3)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=5), seed=1)
    with pytest.raises(rn.MissingTeacherError):
        rn.run_stream_session(model, stream, session=2, cfg=tiny_config(), seed=1)
    with pytest.raises(rn.MissingTeacherError, match="^teacher carries no prototypes$"):
        rn.run_stream_session(replace(model, prototypes=None), stream, session=1,
                              cfg=tiny_config(), seed=1)


def test_teacher_parameters_bit_identical_after_session():
    stream = tiny_stream(seed=4)
    cfg = tiny_config(episodes_pretrain=10, episodes_finetune=8)
    teacher = rn.pretrain(stream, cfg, seed=2)
    before = {k: v.tobytes() for k, v in model_to_arrays(teacher, 2).items()}
    rn.run_stream_session(teacher, stream, 1, cfg, seed=2)
    after = {k: v.tobytes() for k, v in model_to_arrays(teacher, 2).items()}
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
    # old-class nearest-prototype decisions agree with the teacher's on the
    # session snapshot when restricted to old classes
    g1 = stream.snapshots[1]
    old_nodes = [int(v) for c in (0, 1) for v in stream.test_pools(1)[c]]
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
    # no old vector is the teacher's: each went through the finetuned encoder
    for cls in teacher.prototypes.class_ids:
        i, j = teacher.prototypes.index_of(cls), student.prototypes.index_of(cls)
        assert (teacher.prototypes.vectors.data[i].tobytes()
                != student.prototypes.vectors.data[j].tobytes())
    # zero-episode session with an unchanged encoder reproduces the teacher's
    # base prototypes only up to the grown snapshot; class coverage still grows
    assert student.prototypes.class_ids == (0, 1, 2)


# --- prediction ----------------------------------------------------------------

def test_combined_prototypes_merge_in_class_order():
    student = pt.PrototypeSet((2, 5), dm.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                                requires_grad=True))
    carried = pt.PrototypeSet((0, 2, 3), dm.tensor(np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 0.5]])))
    merged = rn._combined_prototypes(student, carried)
    assert merged.class_ids == (0, 2, 3, 5)
    np.testing.assert_array_equal(merged.vectors.data,
                                  [[5.0, 6.0], [1.0, 2.0], [9.0, 0.5], [3.0, 4.0]])
    weights = np.arange(8.0).reshape(4, 2)
    _, (grad,) = dm.value_and_grad(oracles.sum(dm.mul(merged.vectors, dm.constant(weights,
                                                                            dtype=np.float64))),
                                   [student.vectors])
    np.testing.assert_array_equal(grad, weights[[1, 3]])


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
                dm.tensor(emb[[g.row_of(node)]]), model.prototypes, tau).data
            assert model.prototypes.class_ids[int(np.argmax(probs[0]))] == pred


# --- evaluation ------------------------------------------------------------------

def separable_no_edge_stream():
    feats = np.zeros((20, 4), dtype=np.float32)
    feats[:10] = [8.0, 0.0, 0.0, 0.0]
    feats[10:] = [0.0, 8.0, 0.0, 0.0]
    labels = [0] * 10 + [1] * 10
    g = gs.make_graph(feats, [], labels)
    return gs.build_session_stream(g, [0, 1], [], k_shot=3, seed=0)


def test_evaluate_perfect_accuracy():
    # constant per-class features and mean prototypes: every query sits exactly
    # on its own prototype
    stream = separable_no_edge_stream()
    cfg = tiny_config(episodes_pretrain=0, mode="pn_star")
    model = rn.pretrain(stream, cfg, seed=0)
    metrics = rn.evaluate_session(model, stream, 0)
    assert metrics.accuracy_mean == 1.0
    assert metrics.per_class == {0: 1.0, 1: 1.0}


def test_evaluate_accuracy_matches_counting_oracle():
    stream = tiny_stream(seed=17)
    cfg = tiny_config(episodes_pretrain=5)
    model = rn.pretrain(stream, cfg, seed=3)
    metrics = rn.evaluate_session(model, stream, 0)
    pools = stream.test_pools(0)
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


def _count_full_encodes(monkeypatch):
    """Record (backbone, graph) of every full-graph ``runner.encode`` call."""
    calls = []
    encode = rn.encode

    def counting(params, g, *args, rows=None, **kwargs):
        if rows is None:
            calls.append((params, g))
        return encode(params, g, *args, rows=rows, **kwargs)

    monkeypatch.setattr(rn, "encode", counting)
    return calls


def _encodes_finished_backbone(params, model):
    """``params`` holds ``model``'s own backbone arrays, tracking no gradient."""
    passed, own = params.tensors(), model.backbone.tensors()
    return (len(passed) == len(own)
            and all(p.data is o.data and not p.requires_grad for p, o in zip(passed, own)))


def _same_metrics(a, b):
    return (a.session_index, a.accuracy_mean, a.per_class) == \
        (b.session_index, b.accuracy_mean, b.per_class)


@pytest.mark.parametrize("carried", [False, True], ids=["recomputed", "carried"])
def test_stage_and_its_evaluation_encode_the_snapshot_once(carried, monkeypatch):
    stream = tiny_stream(seed=23)
    cfg = tiny_config(episodes_pretrain=4, episodes_finetune=3, carried_prototypes=carried)
    calls = _count_full_encodes(monkeypatch)

    model = rn.pretrain(stream, cfg, seed=2)
    metrics = rn.evaluate_session(model, stream, 0, embeddings=model.embeddings)
    assert len(calls) == 1
    assert _encodes_finished_backbone(calls[0][0], model) and calls[0][1] is stream.snapshots[0]
    assert _same_metrics(metrics, rn.evaluate_session(model, stream, 0))
    assert len(calls) == 2      # without the embeddings, the evaluation encodes

    for session in (1, 2):
        calls.clear()
        model = rn.run_stream_session(model, stream, session, cfg, seed=2)
        metrics = rn.evaluate_session(model, stream, session, embeddings=model.embeddings)
        # the frozen teacher's encode, then the finished student's, and no more
        assert len(calls) == 2
        assert (_encodes_finished_backbone(calls[1][0], model)
                and calls[1][1] is stream.snapshots[session])
        assert _same_metrics(metrics, rn.evaluate_session(model, stream, session))


def test_inference_encodes_build_no_tape(monkeypatch):
    # every full-graph encode of both stages and of prediction: no gradient,
    # no parents, and the bytes of the same encode through grad-tracking params
    stream = tiny_stream(seed=26)
    cfg = tiny_config(episodes_pretrain=3, episodes_finetune=2)
    checked = []
    encode = rn.encode

    def checking(params, g, *args, rows=None, **kwargs):
        out = encode(params, g, *args, rows=rows, **kwargs)
        if rows is None:
            arrays = model_to_arrays(oracles.model_around(params), 4)
            tracking = arrays_to_model(arrays)[0].backbone
            assert all(t.requires_grad for t in tracking.tensors())
            assert not out.requires_grad and out._parents == () and out._vjp is None
            assert out.data.tobytes() == encode(tracking, g).data.tobytes()
            checked.append(g)
        return out

    monkeypatch.setattr(rn, "encode", checking)
    model = rn.pretrain(stream, cfg, seed=4)
    model = rn.run_stream_session(model, stream, 1, cfg, seed=4)
    rn.evaluate_session(model, stream, 1)
    assert checked == [stream.snapshots[0], stream.snapshots[1], stream.snapshots[1],
                       stream.snapshots[1]]


def test_session_encodes_the_teacher_without_copying_it(monkeypatch):
    stream = tiny_stream(seed=27)
    cfg = tiny_config(episodes_pretrain=2, episodes_finetune=2)
    teacher = rn.pretrain(stream, cfg, seed=1)
    clones, calls = [], _count_full_encodes(monkeypatch)
    clone_state = rn.clone_state
    monkeypatch.setattr(rn, "clone_state", lambda state: clones.append(state) or clone_state(state))
    rn.run_stream_session(teacher, stream, 1, cfg, seed=1)
    assert clones == [teacher]              # the student only
    assert _encodes_finished_backbone(calls[0][0], teacher)


def test_each_episode_draws_its_rng_right_before_it_is_sampled(monkeypatch):
    # the benchmark's episode clock times episodes by their ``episode_rng``
    # calls, so each stage must call it once per episode, in index order,
    # then sample that episode with it, then train on it, one episode at a time
    stream = tiny_stream(seed=28)
    cfg = tiny_config(episodes_pretrain=3, episodes_finetune=2)
    events = []
    make_rng, step = rn.episode_rng, rn.Adam.step

    def drawing(seed, stage, index):
        rng = make_rng(seed, stage, index)
        events.append(("rng", stage, index, rng))
        return rng

    def sampler(sample, stage_of):
        def sampling(*args):
            events.append(("sample", stage_of(args), None, args[-1]))
            return sample(*args)
        return sampling

    def stepping(opt, grads):
        events.append(("step", None, None, None))
        return step(opt, grads)

    monkeypatch.setattr(rn, "episode_rng", drawing)
    monkeypatch.setattr(rn, "sample_pretrain_episode",
                        sampler(rn.sample_pretrain_episode, lambda args: 0))
    monkeypatch.setattr(rn, "sample_finetune_episode",
                        sampler(rn.sample_finetune_episode, lambda args: args[0]))
    monkeypatch.setattr(rn.Adam, "step", stepping)
    model = rn.pretrain(stream, cfg, seed=6)
    for session in (1, 2):
        model = rn.run_stream_session(model, stream, session, cfg, seed=6)

    expected = []
    for stage, count in ((0, 3), (1, 2), (2, 2)):
        for index in range(count):
            expected += [("rng", stage, index), ("sample", stage, None), ("step", None, None)]
    assert [event[:3] for event in events] == expected
    for drawn, sampled in zip(events[0::3], events[1::3]):
        assert sampled[3] is drawn[3]           # the episode is sampled with its own rng


def test_each_step_drops_its_tape_and_each_stage_its_workspace(monkeypatch):
    # a training encode overwrites the stage's workspace, so no tape of one
    # episode may outlive its step; the workspace is unmapped before the
    # stage's final encode and gone once the stage returns
    stream = tiny_stream(seed=30)
    cfg = tiny_config(episodes_pretrain=3, episodes_finetune=2)
    losses, workspaces = [], []
    encode, value_and_grad = rn.encode, dm.value_and_grad

    def encoding(params, g, *args, workspace=None, **kwargs):
        if workspace is None:
            assert all(ref().nbytes == 0 for ref in workspaces if ref() is not None)
        else:
            assert all(ref() is None for ref in losses), "an earlier episode's tape is alive"
            if not workspaces or workspaces[-1]() is not workspace:
                workspaces.append(weakref.ref(workspace))
        return encode(params, g, *args, workspace=workspace, **kwargs)

    def recording(output, wrt):
        losses.append(weakref.ref(output._vjp))
        return value_and_grad(output, wrt)

    monkeypatch.setattr(rn, "encode", encoding)
    monkeypatch.setattr(dm, "value_and_grad", recording)
    model = rn.pretrain(stream, cfg, seed=3)
    assert len(workspaces) == 1 and workspaces[0]() is None
    rn.run_stream_session(model, stream, 1, cfg, seed=3)
    assert len(workspaces) == 2 and workspaces[1]() is None
    assert len(losses) == 5 and all(ref() is None for ref in losses)


def test_stage_embeddings_are_neither_saved_nor_cloned():
    stream = tiny_stream(seed=24)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=2), seed=1)
    fresh = rn.encode(model.backbone, stream.snapshots[0]).data
    assert model.embeddings.tobytes() == fresh.tobytes()
    assert rn.clone_state(model).embeddings is None
    assert arrays_to_model(model_to_arrays(model, 1))[0].embeddings is None
    assert not any("embedding" in name for name in model_to_arrays(model, 1))


def test_evaluate_session_rejects_embeddings_of_another_graph():
    stream = tiny_stream(seed=25)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=2), seed=1)
    with pytest.raises(ValueError, match="rows"):
        rn.evaluate_session(model, stream, 0, embeddings=model.embeddings[:-1])


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
            layers.append(bb.HeadParams(
                dm.tensor(np.ascontiguousarray(w.T), requires_grad=True, dtype=np.float64),
                dm.tensor(a, requires_grad=True, dtype=np.float64)))
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
        (0, 1), dm.tensor(rng0.normal(size=(2, 4)), dtype=np.float64))
    teacher_emb = bb.encode(teacher.backbone, stream.snapshots[1]).data

    pre_ep = sample_pretrain_episode({c: stream.train_pools(0)[c] for c in (0, 1)},
                                     cfg.sampler(), episode_rng(0, 0, 0))
    fine_ep = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(0, 1, 0))

    cases = {
        "pretrain": lambda state: rn._episode_loss(
            state, stream.snapshots[0], pre_ep, cfg, weights, episode_rng(0, 9, 0)),
        "finetune": lambda state: rn._episode_loss(
            state, stream.snapshots[1], fine_ep, cfg, weights, episode_rng(0, 9, 1),
            teacher_view(teacher_emb, teacher.prototypes, stream)),
        "finetune_carried": lambda state: rn._episode_loss(
            state, stream.snapshots[1], fine_ep, carried_cfg, weights,
            episode_rng(0, 9, 1), teacher_view(teacher_emb, teacher.prototypes, stream)),
    }
    for name, build in cases.items():
        state = make_state(arrays)
        params = state.trainable()
        _, analytic = dm.value_and_grad(build(state), params)
        # the backbone holds weights [in x out], the transposes of arrays[0] and arrays[2]
        analytic[0], analytic[2] = analytic[0].T, analytic[2].T
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
        teacher.prototypes.class_ids, dm.tensor(teacher.prototypes.vectors.data, dtype=np.float64))
    g1 = stream.snapshots[1]
    teacher_emb = bb.encode(teacher.backbone, g1).data
    pools = {c: stream.train_pools(0)[c] for c in (0, 1)}
    pre_ep = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(5, 0, 0))
    fine_ep = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(5, 1, 0))
    student = rn.clone_state(teacher)

    def loss_and_grads():
        rng = episode_rng(5, 9, 0)
        if stage == "pretrain":
            loss = rn._episode_loss(student, stream.snapshots[0], pre_ep, cfg, weights, rng)
        else:
            loss = rn._episode_loss(student, g1, fine_ep, cfg, weights, rng,
                                    teacher_view(teacher_emb, teacher.prototypes, stream))
        return dm.value_and_grad(loss, student.trainable())

    value, grads = loss_and_grads()
    monkeypatch.setattr(rn, "encode", lambda params, g, rate=0.0, rng=None, *, rows,
                        workspace=None: dm.take_rows(bb.encode(params, g, rate, rng), rows))
    full_value, full_grads = loss_and_grads()
    assert value == pytest.approx(full_value, rel=1e-12)
    for a, b in zip(grads, full_grads):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max())


@pytest.mark.parametrize("stage", ["pretrain", "finetune", "finetune_carried"])
def test_episode_gradients_match_the_op_chains_byte_for_byte(stage, monkeypatch):
    # the fused distance, refinement and loss ops against the op chains they
    # replaced, in whole episodes: the prototypes and query embeddings also
    # collect gradient from the other loss terms
    from geometer.backbone import encode
    from geometer.episodes import sample_finetune_episode
    from oracles import (chain_distillation_loss, chain_pairwise_sq_euclidean,
                         chain_proximity_loss, chain_refine_prototype,
                         chain_separability_loss, chain_softened_logits,
                         chain_uniformity_loss, chain_weighted_terms)

    stream = tiny_stream(seed=29)
    cfg = tiny_config(carried_prototypes=stage == "finetune_carried")
    teacher = rn.pretrain(stream, replace(cfg, episodes_pretrain=6), seed=1)
    g = stream.snapshots[0 if stage == "pretrain" else 1]
    teacher_emb = encode(teacher.backbone.detached(), g).data
    pools = {c: stream.train_pools(0)[c] for c in (0, 1)}

    def episode_grads(i):
        student = rn.clone_state(teacher)
        rng = episode_rng(1, 9, i)
        if stage == "pretrain":
            episode = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(1, 0, i))
            loss = rn._episode_loss(student, g, episode, cfg, cfg.loss_weights(), rng)
        else:
            episode = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(1, 1, i))
            loss = rn._episode_loss(student, g, episode, cfg, cfg.loss_weights(), rng,
                                    teacher_view(teacher_emb, teacher.prototypes, stream))
        value, grads = dm.value_and_grad(loss, student.trainable())
        return [np.float64(value).tobytes()] + [a.tobytes() for a in grads]

    fused = [episode_grads(i) for i in range(10)]
    monkeypatch.setattr(dm, "pairwise_sq_euclidean", chain_pairwise_sq_euclidean)
    monkeypatch.setattr(rn, "uniformity_loss", chain_uniformity_loss)
    monkeypatch.setattr(pt, "refine_prototype", chain_refine_prototype)
    monkeypatch.setattr(rn, "proximity_loss", chain_proximity_loss)
    monkeypatch.setattr(rn, "separability_loss", chain_separability_loss)
    monkeypatch.setattr(rn, "softened_logits", chain_softened_logits)
    monkeypatch.setattr(rn, "distillation_loss", chain_distillation_loss)
    monkeypatch.setattr(ls, "_weighted_terms", chain_weighted_terms)
    assert fused == [episode_grads(i) for i in range(10)]


def test_episode_tape_sizes_are_pinned(monkeypatch):
    # tape nodes one episode builds (results that track a gradient), so that
    # op chains cannot grow back into the losses unnoticed: per layer the
    # fused GAT op and the [E]-sized score ops its backward reuses, then the
    # gathers, the prototype ops, one distance op per distance and one op per
    # loss term and for the weighted sum
    from geometer.backbone import encode
    from geometer.episodes import sample_finetune_episode

    stream = tiny_stream(seed=29)
    cfg = tiny_config()
    teacher = rn.pretrain(stream, replace(cfg, episodes_pretrain=3), seed=1)
    g1 = stream.snapshots[1]
    teacher_emb = encode(teacher.backbone.detached(), g1).data
    pools = {c: stream.train_pools(0)[c] for c in (0, 1)}
    pre_ep = sample_pretrain_episode(pools, cfg.sampler(), episode_rng(1, 0, 0))
    fine_ep = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(1, 1, 0))
    nodes = []
    result = dm.node

    def counting(data, parents, vjp):
        out = result(data, parents, vjp)
        nodes.append(out.requires_grad)
        return out

    monkeypatch.setattr(dm, "node", counting)
    rn._episode_loss(rn.clone_state(teacher), stream.snapshots[0], pre_ep, cfg,
                     cfg.loss_weights(), episode_rng(1, 9, 0))
    assert sum(nodes) == 15
    nodes.clear()
    rn._episode_loss(rn.clone_state(teacher), g1, fine_ep, cfg, cfg.loss_weights(),
                     episode_rng(1, 9, 1), teacher_view(teacher_emb, teacher.prototypes, stream))
    assert sum(nodes) == 23


def _episode_setup(base=(0, 1), seed=31):
    g = make_clustered_graph(classes=len(base) + 1, per_class=24, feature_dim=12,
                             p_in=0.25, p_out=0.02, seed=seed)
    stream = gs.build_session_stream(g, list(base), [[len(base)]], k_shot=3, seed=seed)
    teacher = rn.pretrain(stream, tiny_config(episodes_pretrain=3), seed=5)
    return stream, teacher


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _sq_dists(x, protos):
    return ((x[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)


def test_distillation_term_matches_the_divergence_by_hand():
    # distillation alone, by hand: the student's and the teacher's softened
    # logits are softmax(-distance / tau) over the old classes (three of them:
    # over two, flipping the sign only swaps the classes, and the divergence
    # stays the same)
    from geometer.backbone import encode
    from geometer.episodes import sample_finetune_episode

    stream, teacher = _episode_setup(base=(0, 1, 2))
    cfg = tiny_config(lambda_p=0.0, lambda_u=0.0, lambda_s=0.0, tau=2.0)
    g = stream.snapshots[1]
    teacher_emb = encode(teacher.backbone.detached(), g).data
    student = rn.pretrain(stream, tiny_config(episodes_pretrain=3), seed=6)
    episode = sample_finetune_episode(1, stream, cfg.sampler(), episode_rng(5, 1, 0))
    loss = rn._episode_loss(student, g, episode, cfg, cfg.loss_weights(), episode_rng(5, 9, 0),
                            teacher_view(teacher_emb, teacher.prototypes, stream))

    emb = encode(student.backbone.detached(), g)
    old = stream.classes_at(0)
    student_protos = pt.compute_prototypes(emb, episode.supports, g,
                                           student.class_attention).subset(old)
    q_rows = g.rows_of(episode.query_nodes())
    d_s = _sq_dists(emb.data[q_rows].astype(np.float64),
                    student_protos.vectors.data.astype(np.float64))
    d_t = _sq_dists(teacher_emb[q_rows].astype(np.float64),
                    teacher.prototypes.vectors.data.astype(np.float64))

    def distillation(sign):
        p_s, p_t = _softmax(sign * d_s / 2.0), _softmax(sign * d_t / 2.0)
        return (p_s * (np.log(p_s) - np.log(p_t))).sum(axis=1).mean() / len(old)

    assert loss.item() == pytest.approx(distillation(-1.0), rel=1e-4)
    assert loss.item() != pytest.approx(distillation(1.0), rel=1e-2)


@pytest.mark.parametrize("alpha_mode", ["uniform", "inverse_frequency"])
def test_alpha_finetune_weights_the_proximity_classes(alpha_mode):
    # proximity alone, by hand, on a session-1 episode with 3 queries of old
    # class 0, 1 of old class 1 and 2 of novel class 2: inverse_frequency
    # weighs them by 1/3, 1 and 1/2
    from geometer.backbone import encode
    from geometer.episodes import Episode

    stream, teacher = _episode_setup()
    cfg = tiny_config(alpha_finetune=alpha_mode, lambda_u=0.0, lambda_s=0.0, lambda_kd=0.0)
    g = stream.snapshots[1]
    pools = stream.train_pools(1)
    novel = stream.supports_at(1)[2]
    novel_queries = [int(v) for v in pools[2] if v not in novel][:2]
    episode = Episode(supports={0: tuple(int(v) for v in pools[0][:3]),
                                1: tuple(int(v) for v in pools[1][:2]), 2: novel},
                      queries=tuple((int(v), 0) for v in pools[0][3:6])
                      + ((int(pools[1][2]), 1),) + tuple((v, 2) for v in novel_queries))
    teacher_emb = encode(teacher.backbone.detached(), g).data
    student = rn.clone_state(teacher)
    loss = rn._episode_loss(student, g, episode, cfg, cfg.loss_weights(), episode_rng(5, 1, 0),
                            teacher_view(teacher_emb, teacher.prototypes, stream))

    emb = encode(student.backbone.detached(), g)
    protos = pt.compute_prototypes(emb, episode.supports, g, student.class_attention)
    q = emb.data[g.rows_of(episode.query_nodes())].astype(np.float64)
    labels = episode.query_classes()
    log_p = np.log(_softmax(-_sq_dists(q, protos.vectors.data.astype(np.float64))))
    nll = -log_p[np.arange(len(labels)), labels]
    alpha = ({0: 1.0 / 3.0, 1: 1.0, 2: 0.5} if alpha_mode == "inverse_frequency"
             else {0: 1.0, 1: 1.0, 2: 1.0})
    assert ls.inverse_frequency_alpha(labels) == pytest.approx({0: 1.0 / 3.0, 1: 1.0, 2: 0.5})
    want = sum(alpha[c] * nll[labels == c].mean() for c in (0, 1, 2))
    assert loss.item() == pytest.approx(want, rel=1e-4)


# --- config knobs -----------------------------------------------------------------

def test_session_trains_the_backbone_and_the_class_attention():
    stream = tiny_stream(seed=25)
    teacher = rn.pretrain(stream, tiny_config(episodes_pretrain=3), seed=2)
    cfg = tiny_config(episodes_finetune=4, lr_finetune=1e-2)
    student = rn.run_stream_session(teacher, stream, 1, cfg, seed=2)
    assert not any(a.data.tobytes() == b.data.tobytes()
                   for a, b in zip(student.trainable(), teacher.trainable()))


def test_model_checkpoint_round_trip(tmp_path):
    from geometer.checkpoint import load_tensors, save_tensors
    stream = tiny_stream(seed=19)
    model = rn.pretrain(stream, tiny_config(episodes_pretrain=5), seed=7)
    path = tmp_path / "model.gfsp"
    save_tensors(path, model_to_arrays(model, 7))
    back, seed = arrays_to_model(load_tensors(path))
    assert seed == 7 and back.session_index == model.session_index
    assert back.prototypes.class_ids == model.prototypes.class_ids
    for a, b in zip(model.trainable(), back.trainable()):
        assert a.data.tobytes() == b.data.tobytes()


# --- the few-shot protocol -------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3b")
def test_no_test_pool_node_reaches_training(monkeypatch):
    # every node an episode or a prototype reads, over a pretrain and two
    # sessions, must lie outside the test pools of every stage
    stream = tiny_stream(seed=1)
    cfg = tiny_config(episodes_pretrain=6, episodes_finetune=4)
    read = set()

    def sampled(sample):
        def hooked(*args):
            episode = sample(*args)
            read.update(episode.support_nodes(), (int(v) for v in episode.query_nodes()))
            return episode
        return hooked

    def computed(embeddings, supports, *args, **kwargs):
        read.update(int(v) for sup in supports.values() for v in sup)
        return compute(embeddings, supports, *args, **kwargs)

    compute = rn.compute_prototypes
    monkeypatch.setattr(rn, "sample_pretrain_episode", sampled(rn.sample_pretrain_episode))
    monkeypatch.setattr(rn, "sample_finetune_episode", sampled(rn.sample_finetune_episode))
    monkeypatch.setattr(rn, "compute_prototypes", computed)
    model = rn.pretrain(stream, cfg, seed=0)
    for session in (1, 2):
        model = rn.run_stream_session(model, stream, session, cfg, seed=0)
    tested = {int(v) for stage in range(3) for pool in stream.test_pools(stage).values()
              for v in pool}
    assert read and tested
    leaked = read & tested
    assert not leaked, f"{len(leaked)} of {len(tested)} test-pool nodes reached training"
