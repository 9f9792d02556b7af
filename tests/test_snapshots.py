"""Session snapshots share their base graph's feature storage.

Every snapshot must equal the stand-alone copy that the copying oracle
builds: the same parts, the same CSR bytes, and encoder outputs and
gradients that agree byte for byte.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import geometer.backbone as bb
import geometer.diffmath as dm
import geometer.graph_store as gs
from geometer.synth import make_clustered_graph
import oracles
from oracles import copying_induced_subgraph, graphs_equal, induced_subgraph, streams_equal


def _graphgen():
    """The benchmark's Cora-shaped graph generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import graphgen
    return graphgen


# name -> (graph factory, base class count, classes per session, hidden, out);
# the splits follow the benchmark's coraml, manyclass and demo workloads
_GRAPHS = {
    "coraml": (lambda gen: gen.make_cora_like(gen.CORA_ML, seed=0), 2, 1, 64, 16),
    "manyclass": (lambda gen: gen.make_cora_like(gen.MANYCLASS, seed=0), 20, 5, 64, 16),
    "demo": (None, 2, 1, 32, 16),
}


@pytest.fixture(scope="module")
def streams():
    """name -> (base graph, its session stream), built once per module."""
    built = {}

    def get(name):
        if name not in built:
            factory, base, per_session, _, _ = _GRAPHS[name]
            if factory is None:
                g = make_clustered_graph(classes=6, per_class=40, feature_dim=24, p_in=0.2,
                                         p_out=0.02, center_scale=1.6, noise=1.1, seed=0)
            else:
                g = gs.make_graph(*factory(_graphgen()))
            classes = [int(c) for c in g.present_classes()]
            novel = classes[base:]
            sessions = [novel[i:i + per_session] for i in range(0, len(novel), per_session)]
            built[name] = g, gs.build_session_stream(g, classes[:base], sessions, 5, seed=0)
        return built[name]

    return get


def _assert_csr_equal(shared, oracle):
    a, b = shared.features_sparse(), oracle.features_sparse()
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_graph(shared, oracle):
    assert graphs_equal(shared, oracle)
    assert np.array_equal(shared.degrees(), oracle.degrees())
    _assert_csr_equal(shared, oracle)


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_snapshots_match_the_copying_oracle(name, streams):
    g, stream = streams(name)
    paths = set()
    for snap in stream.snapshots:
        oracle = copying_induced_subgraph(g, snap.node_ids)
        _assert_same_graph(snap, oracle)
        paths.add(snap.features_sparse() is None)
    # a subgraph of a snapshot: every other node of a middle stage
    mid = stream.snapshots[len(stream.snapshots) // 2]
    keep = mid.node_ids[::2]
    _assert_same_graph(induced_subgraph(mid, keep),
                       copying_induced_subgraph(copying_induced_subgraph(g, mid.node_ids), keep))
    assert paths == ({True} if name == "demo" else {False})


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_snapshot_encode_is_bit_identical_to_the_copying_oracle(name, streams):
    g, stream = streams(name)
    _, _, _, hidden, out = _GRAPHS[name]
    p = bb.init_backbone(g.feature_dim, hidden, out, seed=31)
    first, mid = stream.snapshots[0], stream.snapshots[len(stream.snapshots) // 2]
    cases = [first, stream.snapshots[-1], induced_subgraph(mid, mid.node_ids[1::3])]
    for shared in cases:
        oracle = copying_induced_subgraph(g, shared.node_ids)
        rows = np.sort(np.random.default_rng(32).choice(shared.node_count, size=40,
                                                        replace=False))
        _assert_same_encode(p, shared, oracle, rows)


def _assert_same_encode(p, shared, oracle, rows):
    """The full and the ``rows`` encodes of both graphs, their losses and
    gradients agree byte for byte."""
    for kwargs in ({}, {"rows": rows}):
        results = []
        for graph in (shared, oracle):
            emb = bb.encode(p, graph, **kwargs)
            weights = np.random.default_rng(33).normal(size=emb.shape).astype(np.float32)
            value, grads = dm.value_and_grad(oracles.sum(oracles.mul(emb, dm.constant(weights))),
                                             p.tensors())
            results.append([emb.data, np.float64(value), *grads])
        for a, b in zip(*results):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_manifest_stream_equals_the_built_stream(tmp_path, streams):
    g, stream = streams("coraml")
    gs.save_manifest(stream, tmp_path / "manifest.json")
    assert streams_equal(gs.load_session_stream(g, tmp_path / "manifest.json"), stream)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """name -> (dense features, graph loaded from their dataset directory)
    for the sparse benchmark shapes."""
    built = {}

    def get(name):
        if name not in built:
            feats, pairs, labels = _GRAPHS[name][0](_graphgen())
            directory = tmp_path_factory.mktemp(name)
            gs.save_dataset(gs.make_graph(feats, pairs, labels), directory)
            built[name] = feats, directory, gs.load_graph(directory)
        return built[name]

    return get


@pytest.mark.parametrize("name", ["coraml", "manyclass"])
def test_loaded_csr_equals_converting_the_dense_file(name, loaded):
    feats, _, g = loaded(name)
    assert g._store._dense is None          # CSR only, from the file read onwards
    expected = sparse.csr_matrix(feats)
    got = g.features_sparse()
    assert got.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(got, part), getattr(expected, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    base, per_session = _GRAPHS[name][1:3]
    classes = [int(c) for c in g.present_classes()]
    novel = classes[base:]
    sessions = [novel[i:i + per_session] for i in range(0, len(novel), per_session)]
    stream = gs.build_session_stream(g, classes[:base], sessions, 5, seed=0)
    for snap in stream.snapshots:
        _assert_csr_equal(snap, copying_induced_subgraph(g, snap.node_ids))


def test_loading_sparse_features_allocates_a_fraction_of_the_dense_matrix(loaded):
    feats, directory, _ = loaded("coraml")
    tracemalloc.start()
    try:
        gs.load_graph(directory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < feats.nbytes // 4


def test_training_on_sparse_features_allocates_no_dense_matrix(loaded, monkeypatch):
    # pretraining and one session: every layer-0 product reads the CSR, so
    # nothing near the dense [N x d] matrix is ever allocated, the stages'
    # layer-0 workspaces included
    import geometer.runner as rn
    from geometer.config import ExperimentConfig
    feats, directory, _ = loaded("coraml")
    workspaces = oracles.record_workspaces(monkeypatch)
    g = gs.load_graph(directory)
    classes = [int(c) for c in g.present_classes()]
    stream = gs.build_session_stream(g, classes[:2], [[c] for c in classes[2:4]], 5, seed=0)
    cfg = ExperimentConfig(hidden_dim=16, embedding_dim=8, class_attention_heads=2, k_max=4,
                           k_qry=4, episodes_pretrain=2, episodes_finetune=1, k_shot=5)
    tracemalloc.start()
    try:
        model = rn.pretrain(stream, cfg, seed=0)
        rn.run_stream_session(model, stream, 1, cfg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(workspaces) == 2
    assert peak + oracles.workspace_bytes(workspaces) < feats.nbytes // 4


def _banded_graph():
    """A sparse-path base: rows 0-9 are dense, rows 10-199 hold one nonzero."""
    rng = np.random.default_rng(34)
    n, d = 200, 5000
    feats = np.zeros((n, d), dtype=np.float32)
    feats[:10] = rng.uniform(0.5, 1.5, size=(10, d))
    feats[np.arange(10, n), rng.integers(0, d, size=n - 10)] = 1.0
    pairs = [(i, i + 1) for i in range(n - 1)]
    return gs.make_graph(feats, pairs, [0] * n)


# the density rule reads the whole base once: every snapshot of the sparse
# base takes its CSR path, whatever the density of its own rows
@pytest.mark.parametrize("keep", [
    range(200),          # the base itself, density 0.05
    range(0, 200, 2),    # 5 of 100 rows dense, density 0.05
    range(40),           # 10 of 40 rows dense, density just above 0.25
    range(10, 200),      # no dense row
    range(10, 40),       # no dense row; the base's nonzeros would fill a third
    range(10, 23),       # no dense row, and 13 x 5000 = 65,000 entries
    range(13),           # mostly dense rows
], ids=["all", "even", "dense_rows", "sparse_rows", "sparse_few", "sparse_small", "small"])
def test_each_snapshot_picks_its_own_feature_path(keep):
    g = _banded_graph()
    assert g.features_sparse() is not None
    snap = induced_subgraph(g, keep)
    assert snap.features_sparse() is not None
    _assert_same_graph(snap, copying_induced_subgraph(g, keep))


def test_snapshot_of_a_dense_base_stays_dense_and_builds_no_csr():
    # rows 0-59 dense make the base dense by the rule (density 0.3); a
    # snapshot of rows 50-199, at density 0.07 on its own rows, reads the
    # store's dense rows too, and nothing builds a CSR copy
    rng = np.random.default_rng(36)
    n, d = 200, 5000
    feats = np.zeros((n, d), dtype=np.float32)
    feats[:60] = rng.uniform(0.5, 1.5, size=(60, d))
    feats[np.arange(60, n), rng.integers(0, d, size=n - 60)] = 1.0
    labels = np.repeat(np.arange(4), n // 4)
    g = gs.make_graph(feats, [(i, i + 1) for i in range(n - 1)] + [(0, 100), (55, 150)], labels)
    assert g.features_sparse() is None
    snap = induced_subgraph(g, range(50, n))
    assert snap.features_sparse() is None and snap.features_sparse(np.arange(5)) is None
    oracle = copying_induced_subgraph(g, range(50, n))
    _assert_same_graph(snap, oracle)
    p = bb.init_backbone(d, 16, 8, seed=37)
    rows = np.sort(np.random.default_rng(38).choice(snap.node_count, size=30, replace=False))
    _assert_same_encode(p, snap, oracle, rows)
    assert g._store._csr is None


def test_snapshot_features_are_read_only():
    g = _banded_graph()
    snap = induced_subgraph(g, range(0, 200, 3))
    with pytest.raises(ValueError):
        snap.features[0, 0] = 7.0
    with pytest.raises(ValueError):
        g.features[0, 0] = 7.0
    assert snap.features[0, 0] != 7.0 and g.features[0, 0] != 7.0


def test_loading_a_stream_allocates_less_than_the_base_features(tmp_path, streams):
    # sparse features over six stages; copying the feature rows per snapshot
    # would allocate several times the base matrix
    g, stream = streams("coraml")
    gs.save_manifest(stream, tmp_path / "manifest.json")
    tracemalloc.start()
    try:
        loaded = gs.load_session_stream(g, tmp_path / "manifest.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.snapshots) == 6
    assert peak < g.features.nbytes
