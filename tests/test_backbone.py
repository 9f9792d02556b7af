from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import geometer.backbone as bb
import geometer.diffmath as dm
import geometer.graph_store as gs
from geometer.checkpoint import (CheckpointError, arrays_to_model, load_tensors,
                                 model_to_arrays, save_tensors)
from geometer.prototypes import init_class_attention
import oracles
from oracles import adjacency_matrix, central_differences, grad_relative_error

F64 = np.float64


def graph_from(edges, features, labels=None):
    features = np.asarray(features, dtype=np.float32)
    labels = labels if labels is not None else [0] * len(features)
    return gs.make_graph(features, edges, labels)


def manual_params(weights_attns, dims, dtype=F64):
    """BackboneParams from explicit per-layer (W, a) arrays, W given [out x in]
    and held transposed, as the encoder holds it."""
    layers = tuple(
        bb.HeadParams(dm.tensor(np.ascontiguousarray(np.asarray(w, dtype=dtype).T),
                                requires_grad=True, dtype=dtype),
                      dm.tensor(np.asarray(a, dtype=dtype), requires_grad=True, dtype=dtype))
        for w, a in weights_attns)
    return bb.BackboneParams(layers, *dims)


def oracle_layer(g, states, w, a, sigma):
    """Loop computation of one attention head + aggregation."""
    n = g.node_count
    adj = adjacency_matrix(n, g.edges)
    z = states @ w.T
    d = w.shape[0]
    out = np.zeros((n, d))
    alphas = {}
    for i in range(n):
        hood = sorted({i} | set(np.flatnonzero(adj[i]).tolist()))
        scores = []
        for j in hood:
            s = a[:d] @ z[i] + a[d:] @ z[j]
            scores.append(s if s >= 0 else 0.2 * s)
        scores = np.array(scores)
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        alphas[i] = dict(zip(hood, alpha))
        agg = sum(alpha[k] * z[j] for k, j in enumerate(hood))
        out[i] = sigma(agg)
    return out, alphas


def elu(x):
    return np.where(x > 0, x, np.exp(np.minimum(x, 0)) - 1)


def test_init_deterministic_and_shapes():
    p1 = bb.init_backbone(20, 512, 16, seed=4)
    p2 = bb.init_backbone(20, 512, 16, seed=4)
    assert p1.layers[0].weight.shape == (20, 512)
    assert p1.layers[1].weight.shape == (512, 16)
    assert p1.layers[0].attn.shape == (1024,)
    for a, b in zip(p1.tensors(), p2.tensors()):
        assert a.data.tobytes() == b.data.tobytes()


def test_init_respects_glorot_bounds():
    p = bb.init_backbone(50, 256, 8, seed=0)
    w = p.layers[0].weight.data
    assert w.size > 10_000
    s = np.sqrt(6.0 / (50 + 256))
    assert np.all(np.abs(w) < s)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        bb.init_backbone(0, 4, 2, seed=0)
    with pytest.raises(ValueError, match="^embedding dim 6 not divisible by 4 heads$"):
        init_class_attention(6, heads=4)


def test_attention_isolated_node_is_pure_self():
    g = graph_from([], np.ones((1, 3)))
    p = bb.init_backbone(3, 4, 2, seed=1)
    coeffs = oracles.attention_coefficients(p, g, g.features, layer=0)
    assert coeffs == {0: {0: pytest.approx(1.0)}}


def test_attention_uniform_over_identical_states():
    g = graph_from([(0, 1), (0, 2), (0, 3)], np.ones((4, 3)))
    p = bb.init_backbone(3, 4, 2, seed=2)
    coeffs = oracles.attention_coefficients(p, g, g.features, layer=0)
    for v, alpha in coeffs[0].items():
        assert alpha == pytest.approx(0.25, abs=1e-6)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(25, 5)).astype(np.float32)
    pairs = [(i, j) for i in range(25) for j in range(i + 1, 25) if rng.random() < 0.15]
    g = graph_from(pairs, feats)
    p = bb.init_backbone(5, 8, 4, seed=3)
    x = dm.tensor(g.features)
    h1 = bb.gat_layer(p, g, x, 0)
    for layer, states in ((0, x), (1, h1)):
        coeffs = oracles.attention_coefficients(p, g, states, layer)
        for node, alpha in coeffs.items():
            assert np.isclose(np.sum(list(alpha.values())), 1.0, atol=1e-6)


def test_three_node_path_matches_hand_computation():
    g = graph_from([(0, 1), (1, 2)], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([[0.5, -0.3], [0.2, 0.7]])
    a = np.array([0.3, -0.2, 0.5, 0.1])
    params = manual_params([(w, a), (np.eye(2), np.zeros(4))], (2, 2, 2))
    states = g.features.astype(F64)

    expected_out, expected_alpha = oracle_layer(g, states, w, a, elu)
    got_alpha = oracles.attention_coefficients(params, g, states, layer=0)
    for i in range(3):
        for j, val in expected_alpha[i].items():
            assert got_alpha[i][j] == pytest.approx(val, abs=1e-10)
    got = bb.gat_layer(params, g, dm.tensor(states), 0)
    np.testing.assert_allclose(got.data, expected_out, atol=1e-10)


def test_gat_layer_takes_a_tensor_or_a_sparse_matrix():
    g = graph_from([(0, 1)], np.ones((2, 3)))
    p = bb.init_backbone(3, 4, 2, seed=1)
    with pytest.raises(TypeError, match="ndarray"):
        bb.gat_layer(p, g, np.ones((2, 3), dtype=np.float32), 0)


@pytest.mark.parametrize("shape, dtype, message", [
    ((3, 3), np.float32, "states rows 3 != input rows 2"),
    ((2, 5), np.float32, "states width 5 != layer 0 input 3"),
    ((2, 3), F64, "mixed dtypes float64 vs float32"),
], ids=["rows", "width", "dtype"])
def test_gat_layer_names_the_bad_states(shape, dtype, message):
    g = graph_from([(0, 1)], np.ones((2, 3)))
    p = bb.init_backbone(3, 4, 2, seed=1)
    with pytest.raises(dm.ShapeError, match=f"^{message}$"):
        bb.gat_layer(p, g, dm.tensor(np.ones(shape), dtype=dtype), 0)


def test_gat_layer_names_a_non_finite_attention_score():
    # the projection is finite and its scores overflow: the error names the
    # score, and numpy warns of nothing first
    g = graph_from([(0, 1)], np.ones((2, 3)))
    p = bb.init_backbone(3, 4, 2, seed=1)
    p.layers[0].attn.data[:] = 1e30
    states = dm.tensor(np.full((2, 3), 1e10, dtype=np.float32))
    with pytest.raises(dm.NonFiniteError, match="^gat_layer: non-finite attention score$"):
        bb.gat_layer(p, g, states, 0)


def test_zero_weight_layer_is_zero():
    g = graph_from([(0, 1)], np.random.default_rng(1).normal(size=(2, 3)))
    params = manual_params([(np.zeros((4, 3)), np.zeros(8)),
                            (np.zeros((2, 4)), np.zeros(4))], (3, 4, 2))
    out = bb.gat_layer(params, g, dm.tensor(g.features, dtype=F64), 0)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_single_isolated_node_layer_value():
    g = graph_from([], [[1.0, 2.0]])
    w = np.array([[0.4, -0.1], [0.3, 0.3]])
    params = manual_params([(w, np.array([0.1, 0.2, 0.3, 0.4])),
                            (np.eye(2), np.zeros(4))], (2, 2, 2))
    out = bb.gat_layer(params, g, dm.tensor(g.features, dtype=F64), 0)
    np.testing.assert_allclose(out.data[0], elu(w @ np.array([1.0, 2.0])), atol=1e-12)


def test_encode_shape_contract():
    rng = np.random.default_rng(9)
    g = graph_from([(0, 1), (1, 2), (2, 3)], rng.normal(size=(4, 6)))
    p = bb.init_backbone(6, 8, 3, seed=5)
    emb = bb.encode(p, g)
    assert emb.shape == (4, 3)
    empty = oracles.induced_subgraph(g, [])
    assert bb.encode(p, empty).shape == (0, 3)


def test_encode_permutation_equivariance():
    rng = np.random.default_rng(10)
    n = 12
    feats = rng.normal(size=(n, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = graph_from(pairs, feats)
    p = bb.init_backbone(4, 6, 3, seed=6, dtype=F64)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    g2 = graph_from([(inv[a], inv[b]) for a, b in pairs], feats[perm])
    e1 = bb.encode(p, g).data
    e2 = bb.encode(p, g2).data
    np.testing.assert_allclose(e2, e1[perm], atol=1e-9)


def test_zero_features_give_zero_embeddings():
    g = graph_from([(0, 1), (1, 2)], np.zeros((3, 4)))
    p = bb.init_backbone(4, 6, 2, seed=7)
    np.testing.assert_array_equal(bb.encode(p, g).data, np.zeros((3, 2)))


def test_encode_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(5, 3))
    g = graph_from([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], feats)
    shapes = [((4, 3), (8,)), ((2, 4), (4,))]
    arrays = [rng.normal(size=s) * 0.5 for pair in shapes for s in pair]

    def build(arrs):
        it = iter(arrs)
        layers = [(next(it), next(it)), (next(it), next(it))]
        return manual_params(layers, (3, 4, 2))

    def f(arrs):
        params = build(arrs)
        return oracles.mean(bb.encode(params, g))

    params = build(arrays)
    out = oracles.mean(bb.encode(params, g))
    _, analytic = dm.value_and_grad(out, params.tensors())
    analytic = [a.T for a in analytic]      # held weights are [in x out]; 1-D attn is unchanged
    numeric = central_differences(lambda arrs: f(arrs).item(), arrays)
    assert grad_relative_error(analytic, numeric) < 1e-4


def test_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(13)
    feats = np.zeros((40, 3000), dtype=np.float32)
    for i in range(40):
        nz = rng.choice(3000, size=20, replace=False)
        feats[i, nz] = rng.normal(size=20).astype(np.float32)
    pairs = [(i, (i + 1) % 40) for i in range(40)]
    g = graph_from(pairs, feats)
    assert g.features_sparse() is not None
    p = bb.init_backbone(3000, 8, 4, seed=9)
    emb_sparse = bb.encode(p, g).data
    # the same graph over a dense store, which the density rule would not pick
    g2 = gs._assemble_graph(gs._FeatureStore(feats), pairs, [0] * 40)
    assert g2.features_sparse() is None
    emb_dense = bb.encode(p, g2).data
    np.testing.assert_allclose(emb_sparse, emb_dense, atol=2e-5)


def test_checkpoint_round_trip(tmp_path):
    p = bb.init_backbone(7, 6, 4, seed=10)
    path = tmp_path / "params.gfsp"
    save_tensors(path, model_to_arrays(oracles.model_around(p), 0))
    q = arrays_to_model(load_tensors(path))[0].backbone
    assert q.hidden_dim == p.hidden_dim
    for a, b in zip(p.tensors(), q.tensors()):
        assert a.data.tobytes() == b.data.tobytes()


# --- the fused layer op ---------------------------------------------------------

@pytest.mark.parametrize("rows", [None, [7, 2, 7]], ids=["full", "rows"])
@pytest.mark.parametrize("sparse_input", [False, True], ids=["dense", "csr"])
def test_fused_layers_match_finite_differences(sparse_input, rows):
    from scipy import sparse
    rng = np.random.default_rng(41)
    n, d, hidden, out = 12, 5, 3, 2
    feats = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (3, 9), (4, 10)]
    g = graph_from(pairs, feats)
    if rows is None:
        struct0 = struct1 = None
        r0 = np.arange(n)
    else:
        struct1, r1 = bb._receptive_field(g, np.array(rows))
        struct0, r0 = bb._receptive_field(g, r1)
    x = sparse.csr_matrix(feats[r0]) if sparse_input else dm.tensor(feats[r0], dtype=F64)
    shapes = [((hidden, d), (2 * hidden,)), ((out, hidden), (2 * out,))]
    arrays = [rng.normal(size=s) * 0.7 for pair in shapes for s in pair]
    probe = rng.normal(size=(n if rows is None else len(rows), out))

    def loss(arrs):
        params = manual_params(list(zip(arrs[::2], arrs[1::2])), (d, hidden, out))
        h = bb.gat_layer(params, g, x, 0, struct0)
        emb = bb.gat_layer(params, g, h, 1, struct1)
        return params, oracles.sum(dm.mul(emb, dm.constant(probe, dtype=F64)))

    params, value = loss(arrays)
    _, analytic = dm.value_and_grad(value, params.tensors())
    analytic = [a.T for a in analytic]      # held weights are [in x out]; 1-D attn is unchanged
    numeric = central_differences(lambda arrs: loss(arrs)[1].item(), arrays)
    assert grad_relative_error(analytic, numeric) < 1e-4


def test_fused_layer_is_one_tape_node_per_layer():
    # layer 1's node reads layer 0's output and its own two parameters;
    # layer 0's node reads only its two, its CSR input is constant
    g, p = receptive_graph(True)
    emb = bb.encode(p, g, rows=[3, 17])
    tensors = p.tensors()
    layer0, *own1 = emb._parents
    assert [id(t) for t in own1] == [id(t) for t in tensors[2:]]
    assert [id(t) for t in layer0._parents] == [id(t) for t in tensors[:2]]


# --- exact receptive-field encoding -------------------------------------------

def receptive_graph(sparse_features, seed=14):
    """40 nodes on a ring with chords plus one isolated node (row 40)."""
    rng = np.random.default_rng(seed)
    n, dim = 41, 3000 if sparse_features else 6
    feats = np.zeros((n, dim), dtype=np.float32)
    for i in range(n):
        nz = rng.choice(dim, size=min(dim, 20), replace=False)
        feats[i, nz] = rng.normal(size=len(nz)).astype(np.float32)
    pairs = [(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(0, 40, 5)]
    g = graph_from(pairs, feats)
    assert (g.features_sparse() is not None) == sparse_features
    return g, bb.init_backbone(dim, 8, 4, seed=15)


ROW_CASES = {"unsorted": [17, 3, 30, 4], "duplicates": [9, 2, 9, 40], "isolated": [40],
             "single": [12], "with_isolated": [40, 0, 21], "all": list(range(41))}


def _loss_and_grads(p, emb):
    weights = np.random.default_rng(16).normal(size=emb.shape).astype(np.float32)
    loss = oracles.sum(dm.mul(emb, dm.constant(weights)))
    return dm.value_and_grad(loss, p.tensors())


@pytest.mark.parametrize("sparse_features", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_restricted_encode_matches_full_graph_rows(sparse_features, case):
    g, p = receptive_graph(sparse_features)
    rows = np.array(ROW_CASES[case])
    full = bb.encode(p, g)
    restricted = bb.encode(p, g, rows=rows)
    assert restricted.shape == (len(rows), 4)
    # BLAS may order a row's sums differently when handed fewer rows
    np.testing.assert_allclose(restricted.data, full.data[rows], rtol=1e-6, atol=1e-7)
    _, g_full = _loss_and_grads(p, dm.take_rows(full, rows))
    _, g_rows = _loss_and_grads(p, restricted)
    for a, b in zip(g_rows, g_full):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max())


def test_restricted_encode_float64_matches_to_rounding():
    g, _ = receptive_graph(False)
    p = bb.init_backbone(6, 8, 4, seed=17, dtype=F64)
    rows = np.array([5, 40, 22])
    np.testing.assert_allclose(bb.encode(p, g, rows=rows).data, bb.encode(p, g).data[rows],
                               rtol=1e-13, atol=1e-15)


def test_receptive_field_is_the_one_and_two_hop_closure():
    from oracles import adjacency_matrix
    g, _ = receptive_graph(False)
    hood = adjacency_matrix(g.node_count, g.edges) + np.eye(g.node_count, dtype=np.int64)
    for rows in ROW_CASES.values():
        rows = np.array(rows)
        one_hop = np.flatnonzero(hood[rows].sum(axis=0))
        two_hop = np.flatnonzero(hood[one_hop].sum(axis=0))
        struct1, r1 = bb._receptive_field(g, rows)
        struct0, r0 = bb._receptive_field(g, r1)
        np.testing.assert_array_equal(r1, one_hop)
        np.testing.assert_array_equal(r0, two_hop)
        assert (struct1.n_out, struct1.n_in) == (len(rows), len(one_hop))
        assert (struct0.n_out, struct0.n_in) == (len(one_hop), len(two_hop))
        assert len(struct1.src) == hood[rows].sum()


def test_restricted_encode_under_dropout_matches_full_graph():
    # masks are drawn for the whole graph and sliced, so equal seeds give
    # equal rows and leave the generator in the same state
    g, p = receptive_graph(False)
    rows = np.array([3, 17, 40])
    rng_full, rng_rows = np.random.default_rng(18), np.random.default_rng(18)
    full = bb.encode(p, g, 0.5, rng_full)
    restricted = bb.encode(p, g, 0.5, rng_rows, rows=rows)
    np.testing.assert_allclose(restricted.data, full.data[rows], rtol=1e-6, atol=1e-7)
    assert rng_full.random() == rng_rows.random()
    _, g_full = _loss_and_grads(p, dm.take_rows(full, rows))
    _, g_rows = _loss_and_grads(p, restricted)
    for a, b in zip(g_rows, g_full):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max())
    dropped = bb.encode(p, g, 0.5, np.random.default_rng(19), rows=rows).data
    assert not np.allclose(dropped, restricted.data)


# --- shared segment softmax ---------------------------------------------------

def _benchmark_graph(shape, monkeypatch):
    """The Cora-ML-shaped benchmark graph, or the README demo graph."""
    if shape == "demo":
        from geometer.synth import make_clustered_graph
        return make_clustered_graph(classes=6, per_class=40, feature_dim=24, p_in=0.2,
                                    p_out=0.02, center_scale=1.6, noise=1.1, seed=0), 32, 16
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import graphgen
    return gs.make_graph(*graphgen.make_cora_like(graphgen.CORA_ML, seed=0)), 64, 16


@pytest.mark.parametrize("shape", ["coraml", "demo"])
def test_encode_is_bit_identical_to_the_encoder_segment_softmax(shape, monkeypatch):
    # dm.segment_softmax must reduce exactly as the written-out 1-D form does,
    # so encoder outputs and gradients agree with it byte for byte
    from oracles import seed_segment_softmax
    g, hidden, out = _benchmark_graph(shape, monkeypatch)
    p = bb.init_backbone(g.feature_dim, hidden, out, seed=26)
    rows = np.sort(np.random.default_rng(27).choice(g.node_count, size=40, replace=False))

    def run():
        results = []
        for emb in (bb.encode(p, g), bb.encode(p, g, rows=rows)):
            value, grads = _loss_and_grads(p, emb)
            results.append([emb.data, np.float64(value), *grads])
        return results

    shared = run()
    monkeypatch.setattr(dm, "segment_softmax", seed_segment_softmax)
    reference = run()
    for a_list, b_list in zip(shared, reference):
        for a, b in zip(a_list, b_list):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_edge_gradient_blocks_match_one_shot_einsum(monkeypatch):
    # 137 neighborhood entries in blocks of 7 (19 full blocks and a ragged
    # one), and 41 rows of score terms in blocks of 5, give the gradients of
    # one block over everything, byte for byte
    g, _ = receptive_graph(True)
    p = bb.init_backbone(g.feature_dim, 4, 4, seed=15)
    entries = len(bb._edge_structure(g).src)
    assert entries > 3 * 7 and entries % 7 and g.node_count % 5
    # both layers are 4 float32 wide, so one byte budget gives each the same
    # edges per block
    (row_bytes,) = {hp.weight.shape[1] * hp.weight.dtype.itemsize for hp in p.layers}

    def grads(edge_block, row_block):
        monkeypatch.setattr(bb, "_EDGE_BLOCK_BYTES", edge_block * row_bytes)
        monkeypatch.setattr(bb, "_ROW_BLOCK", row_block)
        return _loss_and_grads(p, bb.encode(p, g))[1]

    for a, b in zip(grads(7, 5), grads(entries, g.node_count)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- weight layout ------------------------------------------------------------

def test_checkpoint_arrays_keep_the_out_by_in_layout():
    p = bb.init_backbone(7, 6, 4, seed=10)
    arrays = model_to_arrays(oracles.model_around(p), 0)
    shapes = {"backbone/l0/h0/weight": (6, 7), "backbone/l1/h0/weight": (4, 6)}
    for name, shape in shapes.items():
        assert arrays[name].shape == shape
    # the stored array is the Glorot draw itself, so checkpoints keep their bytes
    rng = np.random.default_rng([10, 0, 0])
    s = np.sqrt(6.0 / (7 + 6))
    drawn = rng.uniform(-s, s, size=(6, 7)).astype(np.float32)
    assert np.ascontiguousarray(arrays["backbone/l0/h0/weight"]).tobytes() == drawn.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_backbone_arrays_round_trip_byte_exactly(dtype, tmp_path):
    p = bb.init_backbone(7, 6, 4, seed=11, dtype=dtype)
    backs = [arrays_to_model(model_to_arrays(oracles.model_around(p), 0))[0].backbone]
    if dtype == np.float32:     # checkpoints store float32
        save_tensors(tmp_path / "p.gfsp", model_to_arrays(oracles.model_around(p), 0))
        backs.append(arrays_to_model(load_tensors(tmp_path / "p.gfsp"))[0].backbone)
    for q in backs:
        assert (q.feature_dim, q.hidden_dim, q.out_dim) == (7, 6, 4)
        for a, b in zip(p.tensors(), q.tensors()):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert b.data.flags.c_contiguous and a.data.tobytes() == b.data.tobytes()


def test_checkpoint_with_several_output_heads_is_rejected():
    p = bb.init_backbone(7, 6, 4, seed=11)
    arrays = model_to_arrays(oracles.model_around(p), 0)
    assert arrays["backbone/meta"].tolist() == [7, 6, 4, 1, 1]
    # either layer: every backbone layer has one head
    for heads in ([1, 3], [2, 1]):
        arrays["backbone/meta"] = np.array([7, 6, 4, *heads])
        with pytest.raises(CheckpointError, match=(
                f"^tensor 'backbone/meta' gives the layers {heads[0]} and {heads[1]} heads, "
                f"expected 1 and 1$")):
            arrays_to_model(arrays)


@pytest.mark.parametrize("rows", [None, [17, 3, 30]], ids=["full", "rows"])
@pytest.mark.parametrize("sparse_features", [True, False], ids=["sparse", "dense"])
def test_backbone_gradients_arrive_in_c_order(sparse_features, rows):
    # value_and_grad's C-order copy is then a no-op on every backbone tensor
    g, p = receptive_graph(sparse_features)
    emb = bb.encode(p, g, rows=rows)
    weights = np.random.default_rng(29).normal(size=emb.shape).astype(np.float32)
    grads = dm.backward(oracles.sum(dm.mul(emb, dm.constant(weights))))
    for t in p.tensors():
        grad = grads[id(t)]
        assert grad.shape == t.shape and grad.dtype == t.dtype
        assert grad.flags.c_contiguous


# --- subnormal gradients ----------------------------------------------------------

def _subnormal_count(a):
    a = np.asarray(a)
    return int(np.count_nonzero((np.abs(a) < np.finfo(a.dtype).tiny) & (a != 0)))


def test_flush_subnormals_copies_only_when_it_finds_one():
    tiny = np.finfo(np.float32).tiny
    clean = np.array([0.0, -0.0, tiny, -1.5], dtype=np.float32)
    assert bb._flush_subnormals(clean) is clean
    dirty = np.array([tiny / 4, -tiny / 8, -0.0, tiny, 2.0], dtype=np.float32)
    kept = dirty.copy()
    flushed = bb._flush_subnormals(dirty)
    assert dirty.tobytes() == kept.tobytes()          # the tape may share it
    want = np.array([0.0, 0.0, -0.0, tiny, 2.0], dtype=np.float32)
    assert flushed.tobytes() == want.tobytes()
    assert bb._flush_subnormals(dirty, inplace=True) is dirty
    assert dirty.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [None, [17, 3, 30]], ids=["full", "rows"])
def test_subnormal_gradients_never_reach_the_layer_products(rows, monkeypatch):
    # a subnormal entry in z's gradient makes the sparse product x.T @ g_z
    # several times slower; the layers flush them, where a gradient enters
    # and in g_z itself, which the gradient's scale here would fill with them
    g, p = receptive_graph(True)
    emb = bb.encode(p, g, rows=rows)
    tiny = np.finfo(np.float32).tiny
    rng = np.random.default_rng(41)
    probe = (10.0 ** rng.uniform(-3.0, 3.0, size=emb.shape) * tiny).astype(np.float32)
    assert _subnormal_count(probe) > 0
    flushed = bb._flush_subnormals(probe)

    reached = []
    head_vjp = bb._head_vjp

    def spy(grad, *args):
        g_z, g_attn = head_vjp(grad, *args)
        reached.append(g_z.copy())
        return g_z, g_attn

    monkeypatch.setattr(bb, "_head_vjp", spy)

    def grads(weights):
        loss = oracles.sum(dm.mul(bb.encode(p, g, rows=rows), dm.constant(weights)))
        return [a.tobytes() for a in dm.value_and_grad(loss, p.tensors())[1]]

    injected = grads(probe)
    assert len(reached) == 2 and all(_subnormal_count(g_z) == 0 for g_z in reached)
    assert any(np.count_nonzero(g_z) for g_z in reached)
    assert injected == grads(flushed)


# --- the stage workspace -----------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("width", [1, 3, 64])
@pytest.mark.parametrize("shape", [(0, 5), (6, 5), (300, 400)])
def test_csr_matmul_into_gives_the_bytes_of_the_product(shape, width, dtype):
    rng = np.random.default_rng(shape[0] + width)
    dense = rng.normal(size=shape).astype(dtype)
    dense[rng.random(shape) < 0.9] = 0
    dense[1::3] = 0                                 # empty rows
    csr = sparse.csr_matrix(dense)
    a = sparse.csr_matrix((csr.data, csr.indices.astype(np.int32), csr.indptr.astype(np.int32)),
                          shape=shape, copy=False)
    assert a.indices.dtype == a.indptr.dtype == np.int32
    b = rng.normal(size=(shape[1], width)).astype(dtype)
    out = np.full((shape[0], width), np.nan, dtype=dtype)
    assert bb._csr_matmul_into(a, b, out) is out
    assert out.tobytes() == (a @ b).tobytes()


def test_csr_matmul_into_refuses_an_output_it_cannot_fill():
    a = sparse.csr_matrix(np.eye(3, dtype=np.float32))
    b = np.ones((3, 4), dtype=np.float32)
    for out in (np.zeros((3, 5), np.float32), np.zeros((3, 4), F64),
                np.zeros((4, 3), np.float32).T):
        with pytest.raises(dm.ShapeError):
            bb._csr_matmul_into(a, b, out)


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("rows", [None, [17, 3, 30]], ids=["full", "rows"])
@pytest.mark.parametrize("sparse_features", [True, False], ids=["sparse", "dense"])
def test_workspace_encode_gives_the_bytes_of_the_plain_one(sparse_features, rows, dropout,
                                                           monkeypatch):
    g, p = receptive_graph(sparse_features)
    workspace = bb.Workspace(g.node_count, 8)
    in_place = []
    elu_grad = dm.elu_grad
    monkeypatch.setattr(dm, "elu_grad", lambda out, grad, inplace=False:
                        in_place.append(inplace) or elu_grad(out, grad, inplace))

    def run(ws):
        emb = bb.encode(p, g, dropout, np.random.default_rng(3), rows=rows, workspace=ws)
        layer0 = emb._parents[0].data
        assert np.shares_memory(layer0, workspace.out) == (ws is not None and dropout == 0)
        value, grads = _loss_and_grads(p, emb)
        return [emb.data.tobytes(), np.float64(value).tobytes()] + [a.tobytes() for a in grads]

    plain = run(None)
    assert in_place == [False]
    # twice through one workspace: the second encode overwrites the first's arrays
    assert run(workspace) == plain
    assert run(workspace) == plain
    # behind dropout, layer 0's gradient is the mask product, not the workspace's
    assert in_place == [False] + [dropout == 0] * 2
    workspace.release()
    assert workspace.nbytes == 0


def test_releasing_a_workspace_that_a_tape_still_views_raises():
    g, p = receptive_graph(True)
    workspace = bb.Workspace(g.node_count, 8)
    emb = bb.encode(p, g, rows=[3, 7], workspace=workspace)
    assert workspace.nbytes >= 2 * g.node_count * 8 * 4
    with pytest.raises(BufferError):
        workspace.release()
    del emb
    workspace.release()
    assert workspace.nbytes == 0


def test_workspace_refuses_an_encode_it_cannot_hold():
    g, p = receptive_graph(True)                    # 41 nodes, hidden width 8
    with pytest.raises(dm.ShapeError, match="workspace holds 40 x 8, asked for 41 x 8"):
        bb.encode(p, g, workspace=bb.Workspace(40, 8))
    with pytest.raises(dm.ShapeError, match="workspace holds 41 x 16"):
        bb.encode(p, g, workspace=bb.Workspace(41, 16))
    with pytest.raises(dm.ShapeError, match="workspace dtype float64"):
        bb.encode(p, g, workspace=bb.Workspace(41, 8, F64))


def test_only_backbone_names_scipys_private_sparsetools():
    # the one direct call into scipy's kernels is ``backbone._csr_matmul_into``
    src = Path(bb.__file__).parent
    for path in sorted(src.rglob("*.py")):
        if path.name != "backbone.py":
            assert "_sparsetools" not in path.read_text(), path.name
