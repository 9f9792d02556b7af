"""What a stream keeps resident, and what one encode allocates on the way.

Each figure is traced numpy memory (numpy reports its buffers to
tracemalloc), so the checks do not depend on the allocator or the machine.
A training stage's layer-0 workspace is an anonymous mapping, which
tracemalloc does not see, so a test that runs a stage adds the bytes the
stage mapped (``oracles.record_workspaces``).
"""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import geometer.backbone as bb
import geometer.cli as cli
import geometer.diffmath as dm
import geometer.graph_store as gs
import geometer.runner as rn
from geometer.config import ExperimentConfig

import oracles

MIB = 1 << 20


def sparse_graph(nodes, feature_dim, classes, labeled_per_class, seed=0):
    """Random graph with CSR-rule features: ``labeled_per_class`` nodes of each
    class, the rest unlabeled, about four edges per node."""
    rng = np.random.default_rng(seed)
    feats = np.zeros((nodes, feature_dim), dtype=np.float32)
    for i in range(nodes):
        feats[i, rng.choice(feature_dim, size=8, replace=False)] = 1.0
    labels = np.full(nodes, gs.UNLABELED)
    labels[:classes * labeled_per_class] = np.repeat(np.arange(classes), labeled_per_class)
    labels = labels[rng.permutation(nodes)]
    pairs = rng.integers(0, nodes, size=(4 * nodes, 2))
    g = gs.make_graph(feats, pairs[pairs[:, 0] != pairs[:, 1]], labels)
    assert g.features_sparse() is not None
    return g


def stream_config(**overrides):
    base = dict(hidden_dim=32, embedding_dim=8, class_attention_heads=2, k_max=4, k_qry=4,
                k_shot=3, episodes_pretrain=2, episodes_finetune=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_memory_retained_across_a_ten_session_stream_stays_flat(monkeypatch):
    g = sparse_graph(1500, 600, classes=12, labeled_per_class=30)
    stream = gs.build_session_stream(g, [0, 1], [[c] for c in range(2, 12)], k_shot=3, seed=0)
    cfg = stream_config()
    workspaces = oracles.record_workspaces(monkeypatch)
    model = rn.pretrain(stream, cfg, seed=0)
    retained = []
    tracemalloc.start()
    try:
        for session in range(1, stream.num_sessions + 1):
            model = rn.run_stream_session(model, stream, session, cfg, seed=0)
            rn.evaluate_session(model, stream, session, embeddings=model.embeddings)
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0]
                            + oracles.workspace_bytes(workspaces, now=True))
    finally:
        tracemalloc.stop()
    growth = [r - retained[0] for r in retained]
    assert max(abs(d) for d in growth) < MIB, [round(d / MIB, 2) for d in growth]
    assert len(workspaces) == stream.num_sessions + 1      # one per stage


def test_finished_stage_drops_its_snapshot_caches():
    g = sparse_graph(400, 600, classes=4, labeled_per_class=30)
    stream = gs.build_session_stream(g, [0, 1], [[2], [3]], k_shot=3, seed=0)
    cfg = stream_config()
    model = rn.pretrain(stream, cfg, seed=0)
    for session in (1, 2):
        model = rn.run_stream_session(model, stream, session, cfg, seed=0)
    for snap in stream.snapshots:
        assert snap._op_cache == {}
    # a later encode builds them again and gives the same rows
    again = bb.encode(model.backbone.detached(), stream.snapshots[2]).data
    assert again.tobytes() == model.embeddings.tobytes()


def test_stream_command_releases_each_start_model(tmp_path, monkeypatch):
    from geometer.synth import write_synthetic_dataset
    write_synthetic_dataset(tmp_path / "data", classes=5, per_class=20, feature_dim=10,
                            p_in=0.3, p_out=0.02, seed=1)
    cfg = stream_config(dataset_dir=str(tmp_path / "data"),
                        manifest=str(tmp_path / "manifest.json"), run_dir=str(tmp_path / "runs"),
                        base_class_count=2, novel_per_session=1, num_sessions=3,
                        seeds=(0, 1))
    cli.cmd_prepare(cfg)
    cli.cmd_pretrain(cfg)
    teachers = []
    run_session = cli.run_stream_session

    def recording(teacher, stream, session, *args):
        gc.collect()
        # a start model (session 0) must be gone once a later session runs
        assert all(ref() is None for ref in teachers), "a finished teacher is still held"
        teachers.append(weakref.ref(teacher))
        student = run_session(teacher, stream, session, *args)
        del teacher
        return student

    monkeypatch.setattr(cli, "run_stream_session", recording)
    assert len(cli.cmd_stream(cfg)) == 6


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a caller's stack keeps each call argument "
                           "alive until the call returns, so the handed-over model outlives "
                           "its cloning")
def test_stream_command_frees_each_teacher_before_its_session_trains(tmp_path, monkeypatch):
    # a session reads only the teacher's snapshot embeddings and prototypes,
    # so the model it starts from (loaded, or saved by the session before)
    # must be gone by reference counting alone when its first episode is drawn
    from geometer.synth import write_synthetic_dataset
    write_synthetic_dataset(tmp_path / "data", classes=6, per_class=20, feature_dim=10,
                            p_in=0.3, p_out=0.02, seed=1)
    cfg = stream_config(dataset_dir=str(tmp_path / "data"),
                        manifest=str(tmp_path / "manifest.json"), run_dir=str(tmp_path / "runs"),
                        base_class_count=2, novel_per_session=1, num_sessions=4,
                        seeds=(0, 1))
    cli.cmd_prepare(cfg)
    cli.cmd_pretrain(cfg)
    weights, checks = [], []

    def layer0_weight(model):
        weights.append(weakref.ref(model.backbone.layers[0].weight.data))

    load_model, save_model = cli._load_model, cli._save_model

    def loading(path):
        loaded = load_model(path)
        layer0_weight(loaded[0])
        return loaded

    def saving(cfg, model, seed):
        layer0_weight(model)
        return save_model(cfg, model, seed)

    sample = rn.sample_finetune_episode

    def sampling(session, stream, sampler, rng):
        # the session's own student is saved only after its episodes
        alive = [i for i, ref in enumerate(weights) if ref() is not None]
        assert not alive, f"session {session}: models {alive} still hold their weights"
        checks.append(session)
        return sample(session, stream, sampler, rng)

    monkeypatch.setattr(cli, "_load_model", loading)
    monkeypatch.setattr(cli, "_save_model", saving)
    monkeypatch.setattr(rn, "sample_finetune_episode", sampling)
    assert len(cli.cmd_stream(cfg)) == 8
    # per seed: one model loaded, four saved, two episodes checked per session
    assert len(weights) == 10
    assert checks == [1, 1, 2, 2, 3, 3, 4, 4] * 2


def test_inference_encode_transient_stays_under_two_and_a_half_hidden_arrays():
    g = sparse_graph(2000, 1000, classes=4, labeled_per_class=30)
    p = bb.init_backbone(1000, 512, 64, seed=0).detached()
    bb.encode(p, g)         # builds the cached neighborhoods and CSR first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb = bb.encode(p, g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    hidden_array = g.node_count * 512 * 4
    assert emb.shape == (2000, 64)
    assert peak < 2.5 * hidden_array, peak / hidden_array


def _backward_peak_in_hidden_arrays(rows, workspace: bool) -> float:
    """Traced peak of one encode's backward above its tape, in layer-0
    [input rows x 512] float32 arrays."""
    g = sparse_graph(2000, 1000, classes=4, labeled_per_class=30)
    p = bb.init_backbone(1000, 512, 64, seed=0)
    bb.encode(p.detached(), g)      # builds the cached neighborhoods and CSR first
    layer0_rows = g.node_count
    if rows is not None:
        layer0_rows = len(bb._receptive_field(g, bb._receptive_field(g, rows)[1])[1])
    space = bb.Workspace(g.node_count, 512) if workspace else None
    weights = np.random.default_rng(5).normal(size=64).astype(np.float32)
    tracemalloc.start()         # the tape is traced, so what it frees counts
    try:
        emb = bb.encode(p, g, rows=rows, workspace=space)
        loss = oracles.sum(dm.matmul(emb, dm.constant(weights)))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dm.value_and_grad(loss, p.tensors())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (layer0_rows * 512 * 4)


@pytest.mark.parametrize("rows", [None, np.arange(0, 2000, 10)], ids=["full", "rows"])
def test_training_backward_transient_stays_at_two_hidden_arrays(rows):
    # layer 0's backward frees z after its last read and its upstream
    # gradient before the weight product, so above the tape it holds at most
    # the upstream gradient and the ELU gradient, or that and z's gradient
    peak = _backward_peak_in_hidden_arrays(rows, workspace=False)
    assert peak <= 2, peak


@pytest.mark.parametrize("rows", [None, np.arange(0, 2000, 10)], ids=["full", "rows"])
def test_training_backward_with_a_workspace_stays_at_one_hidden_array(rows):
    # layer 1's state gradient lands in the workspace and layer 0 multiplies
    # the ELU derivative into it in place, so beyond the workspace layer 0's
    # backward holds z's gradient and the weight gradient, no ELU gradient
    peak = _backward_peak_in_hidden_arrays(rows, workspace=True)
    assert peak <= 1, peak


def test_a_second_backward_through_a_layer_raises():
    g = sparse_graph(200, 400, classes=2, labeled_per_class=10)
    p = bb.init_backbone(400, 16, 4, seed=1)
    loss = oracles.sum(bb.encode(p, g, rows=[3, 7, 11]))
    dm.value_and_grad(loss, p.tensors())
    with pytest.raises(dm.TapeReleasedError, match="gat_layer: layer 1"):
        dm.value_and_grad(loss, p.tensors())


def test_value_and_grad_leaves_no_gradient_on_parameters():
    rng = np.random.default_rng(3)
    g = sparse_graph(200, 400, classes=2, labeled_per_class=10)
    p = bb.init_backbone(400, 16, 4, seed=1)
    emb = bb.encode(p, g, rows=[3, 7, 11])
    weights = rng.normal(size=emb.shape).astype(np.float32)
    _, grads = dm.value_and_grad(oracles.sum(dm.mul(emb, dm.constant(weights))), p.tensors())
    held = {id(a) for grad in grads for a in (grad, grad.base) if a is not None}
    for t in p.tensors():
        assert getattr(t, "grad", None) is None
        assert not any(id(r) in held for r in gc.get_referents(t))
