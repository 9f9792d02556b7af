import logging

import numpy as np
import pytest

import geometer.diffmath as dm
import geometer.graph_store as gs
import geometer.prototypes as pt
from oracles import central_differences, grad_relative_error, loop_prototypes

F64 = np.float64


def t64(arr, grad=True):
    return dm.tensor(np.asarray(arr, dtype=F64), requires_grad=grad, dtype=F64)


def manual_attention(wq, wk, wv, heads, dtype=F64):
    return pt.ClassAttentionParams(
        wq=t64(np.asarray(wq, dtype)), wk=t64(np.asarray(wk, dtype)),
        wv=t64(np.asarray(wv, dtype)), heads=heads)


# --- initial prototype -------------------------------------------------------

def test_initial_equal_degrees_is_mean():
    emb = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], grad=False)
    p = pt.initial_prototype(emb, [4, 4, 4])
    np.testing.assert_allclose(p.data, [3.0, 4.0], atol=1e-12)


def test_initial_degree_weighting():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    p = pt.initial_prototype(t64(np.stack([e1, e2]), grad=False), [1, 3])
    np.testing.assert_allclose(p.data, 0.25 * e1 + 0.75 * e2, atol=1e-12)


def test_initial_matches_loop_oracle_on_toy_graph():
    rng = np.random.default_rng(0)
    g = gs.make_graph(rng.normal(size=(5, 3)).astype(np.float32),
                      [(0, 1), (0, 2), (0, 3), (3, 4)], [0] * 5)
    emb = rng.normal(size=(5, 4))
    degs = np.array([gs.degree_of(g, v) for v in range(5)], dtype=np.float64)
    expected = np.zeros(4)
    for j in range(5):
        expected += (degs[j] / degs.sum()) * emb[j]
    got = pt.initial_prototype(t64(emb, grad=False), degs)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_initial_all_zero_degrees_falls_back_uniform(caplog):
    emb = t64([[2.0, 0.0], [0.0, 2.0]], grad=False)
    with caplog.at_level(logging.WARNING, logger="geometer.prototypes"):
        p = pt.initial_prototype(emb, [0, 0])
    np.testing.assert_allclose(p.data, [1.0, 1.0], atol=1e-12)
    assert any("uniform" in r.message for r in caplog.records)


def test_initial_rejects_empty_support():
    with pytest.raises(pt.EmptySupportError):
        pt.initial_prototype(t64(np.zeros((0, 2)), grad=False), [])


# --- attention refinement ----------------------------------------------------

def test_refine_zero_value_projection_is_identity():
    rng = np.random.default_rng(1)
    d = 4
    params = manual_attention(rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                              np.zeros((d, d)), heads=2)
    initial = t64(rng.normal(size=d), grad=False)
    supports = t64(rng.normal(size=(3, d)), grad=False)
    refined = pt.refine_prototype(params, initial, supports)
    np.testing.assert_array_equal(refined.data, initial.data)


def test_refine_single_support_matches_scalar_oracle():
    # one head, 2-dim: everything small enough to trace by hand
    wq = np.array([[0.3, -0.1], [0.2, 0.5]])
    wk = np.array([[0.7, 0.1], [-0.2, 0.4]])
    wv = np.array([[0.5, 0.0], [0.1, -0.3]])
    p_hat = np.array([1.0, -1.0])
    e1 = np.array([0.5, 2.0])

    q = wq @ p_hat
    seq = np.stack([p_hat, e1])
    keys = seq @ wk.T
    scores = keys @ q / np.sqrt(2.0)
    ex = np.exp(scores - scores.max())
    w = ex / ex.sum()
    values = seq @ wv.T
    expected = p_hat + w @ values

    params = manual_attention(wq, wk, wv, heads=1)
    got = pt.refine_prototype(params, t64(p_hat, grad=False), t64(e1[None, :], grad=False))
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_refine_attention_weights_sum_to_one_per_head():
    rng = np.random.default_rng(2)
    d, k, heads = 8, 5, 4
    params = manual_attention(rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                              rng.normal(size=(d, d)), heads=heads)
    _, weights = pt.refine_prototype(params, t64(rng.normal(size=d), grad=False),
                                     t64(rng.normal(size=(k, d)), grad=False),
                                     with_weights=True)
    assert weights.shape == (heads, k + 1)
    np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(heads), atol=1e-12)


def test_refine_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    d, k = 4, 3
    mats = [rng.normal(size=(d, d)) * 0.5 for _ in range(3)]
    p_hat = rng.normal(size=d)
    sup = rng.normal(size=(k, d))
    probe = rng.normal(size=d)

    def f(arrs):
        params = manual_attention(arrs[0], arrs[1], arrs[2], heads=2)
        refined = pt.refine_prototype(params, t64(p_hat, grad=False), t64(sup, grad=False))
        return dm.sum(dm.mul(refined, dm.constant(probe, dtype=F64)))

    params = manual_attention(*mats, heads=2)
    refined = pt.refine_prototype(params, t64(p_hat, grad=False), t64(sup, grad=False))
    out = dm.sum(dm.mul(refined, dm.constant(probe, dtype=F64)))
    _, analytic = dm.value_and_grad(out, params.tensors())
    numeric = central_differences(lambda arrs: f(arrs).item(), mats)
    assert grad_relative_error(analytic, numeric) < 1e-4


def test_refine_dimension_mismatch():
    params = manual_attention(np.eye(4), np.eye(4), np.eye(4), heads=2)
    with pytest.raises(dm.ShapeError):
        pt.refine_prototype(params, t64(np.zeros(3), grad=False),
                            t64(np.zeros((2, 3)), grad=False))
    with pytest.raises(dm.ShapeError):
        pt.refine_prototype(params, t64(np.zeros((2, 4)), grad=False),
                            t64(np.zeros((3, 4)), grad=False), lens=[1, 1])


def test_refine_batched_weights_sum_to_one_per_class_segment():
    rng = np.random.default_rng(10)
    d, heads, lens = 8, 4, [3, 1, 5]
    params = manual_attention(*(rng.normal(size=(d, d)) for _ in range(3)), heads=heads)
    initial = t64(rng.normal(size=(3, d)), grad=False)
    supports = t64(rng.normal(size=(sum(lens), d)), grad=False)
    refined, weights = pt.refine_prototype(params, initial, supports, lens, with_weights=True)
    assert refined.shape == (3, d) and weights.shape == (heads, 3 + sum(lens))
    starts = np.cumsum(np.add(lens, 1)) - np.add(lens, 1)
    np.testing.assert_allclose(np.add.reduceat(weights.data, starts, axis=1),
                               np.ones((heads, 3)), atol=1e-12)
    # each class attends only over its own segment
    offset = 0
    for c, k in enumerate(lens):
        alone = pt.refine_prototype(params, t64(initial.data[c], grad=False),
                                    t64(supports.data[offset:offset + k], grad=False))
        np.testing.assert_allclose(refined.data[c], alone.data, rtol=1e-13, atol=1e-13)
        offset += k


# --- compute_prototypes ------------------------------------------------------

def toy_graph_and_embeddings(rng, n=8, d=4):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = gs.make_graph(rng.normal(size=(n, 3)).astype(np.float32), pairs,
                      [0, 0, 0, 0, 1, 1, 1, 1])
    emb = t64(rng.normal(size=(n, d)), grad=False)
    return g, emb


def test_compute_single_support_initial_is_own_embedding():
    g = gs.make_graph(np.zeros((3, 2), dtype=np.float32), [(0, 1), (0, 2)], [0, 0, 0])
    rng = np.random.default_rng(4)
    emb = t64(rng.normal(size=(3, 4)), grad=False)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    protos = pt.compute_prototypes(emb, {0: [0]}, g, params)
    init = emb.data[0]
    expected = pt.refine_prototype(params, t64(init, grad=False),
                                   t64(init[None, :], grad=False))
    np.testing.assert_allclose(protos.vectors.data[0], expected.data, atol=1e-12)


def test_compute_classes_are_independent_and_sorted():
    rng = np.random.default_rng(5)
    g, emb = toy_graph_and_embeddings(rng)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    a = pt.compute_prototypes(emb, {1: [4, 5], 0: [0, 1]}, g, params)
    b = pt.compute_prototypes(emb, {1: [6, 7], 0: [0, 1]}, g, params)
    assert a.class_ids == (0, 1)
    np.testing.assert_array_equal(a.vectors.data[0], b.vectors.data[0])
    assert not np.array_equal(a.vectors.data[1], b.vectors.data[1])


def test_compute_composition_matches_by_hand():
    rng = np.random.default_rng(6)
    g, emb = toy_graph_and_embeddings(rng)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    support = [0, 2, 3]
    protos = pt.compute_prototypes(emb, {0: support}, g, params)
    rows = g.rows_of(support)
    sup_emb = dm.take_rows(emb, rows)
    by_hand = pt.refine_prototype(
        params, pt.initial_prototype(sup_emb, g.degrees()[rows]), sup_emb)
    np.testing.assert_allclose(protos.vectors.data[0], by_hand.data, atol=1e-12)


def test_compute_support_order_invariance():
    rng = np.random.default_rng(7)
    g, emb = toy_graph_and_embeddings(rng)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    a = pt.compute_prototypes(emb, {0: [0, 1, 2]}, g, params)
    b = pt.compute_prototypes(emb, {0: [2, 0, 1]}, g, params)
    np.testing.assert_allclose(a.vectors.data, b.vectors.data, atol=1e-9)


def test_compute_mean_mode():
    rng = np.random.default_rng(8)
    g, emb = toy_graph_and_embeddings(rng)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    protos = pt.compute_prototypes(emb, {0: [0, 1], 1: [4, 5]}, g, params, mode="mean")
    np.testing.assert_allclose(protos.vectors.data[0], emb.data[[0, 1]].mean(axis=0), atol=1e-12)


def test_compute_rejects_empty_support():
    rng = np.random.default_rng(9)
    g, emb = toy_graph_and_embeddings(rng)
    params = manual_attention(*(rng.normal(size=(4, 4)) for _ in range(3)), heads=2)
    with pytest.raises(pt.EmptySupportError):
        pt.compute_prototypes(emb, {0: []}, g, params)


# --- batched prototypes against the class-by-class oracle ---------------------

ORACLE_N, ORACLE_ISOLATED, ORACLE_DIM, ORACLE_HEADS, K_MAX = 800, 20, 64, 4, 10


def oracle_graph():
    """800 nodes with random edges; the last 20 are isolated (degree 0)."""
    rng = np.random.default_rng(20)
    linked = ORACLE_N - ORACLE_ISOLATED
    pairs = {tuple(sorted(p)) for p in rng.integers(0, linked, size=(3000, 2)) if p[0] != p[1]}
    return gs.make_graph(np.zeros((ORACLE_N, 2), dtype=np.float32), sorted(pairs),
                         [0] * ORACLE_N)


def oracle_supports(case):
    rng = np.random.default_rng(21)
    linked = rng.permutation(ORACLE_N - ORACLE_ISOLATED)
    if case == "single":
        return {3: linked[:7].tolist()}
    classes = 70 if case == "seventy" else 12
    sizes = rng.integers(1, K_MAX + 1, size=classes)
    sizes[:2] = (1, K_MAX)
    offsets = np.cumsum(sizes) - sizes
    supports = {2 * c + 1: linked[o:o + k].tolist()
                for c, (o, k) in enumerate(zip(offsets, sizes))}
    if case == "zero_degree":
        supports[8] = list(range(ORACLE_N - ORACLE_ISOLATED, ORACLE_N - ORACLE_ISOLATED + 4))
    return supports


ORACLE_CASES = ["ragged", "single", "seventy", "zero_degree", "compact_rows", "mean"]
# float64 agrees to rounding; float32 to a few ulps of the largest entry
ORACLE_TOL = {np.float64: dict(rtol=1e-12, scale=1e-12), np.float32: dict(rtol=1e-5, scale=1e-5)}


def _prototypes_and_grads(fn, emb_data, supports, g, params, dtype, **kwargs):
    emb = dm.tensor(emb_data, requires_grad=True, dtype=dtype)
    out = fn(emb, supports, g, params, **kwargs)
    vectors = getattr(out, "vectors", out)
    probe = np.random.default_rng(22).normal(size=vectors.shape).astype(dtype)
    loss = dm.sum(dm.mul(vectors, dm.constant(probe, dtype=dtype)))
    _, grads = dm.value_and_grad(loss, [emb, *params.tensors()])
    return vectors.data, grads


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_batched_prototypes_match_loop_oracle(case, dtype, caplog):
    g = oracle_graph()
    supports = oracle_supports(case)
    params = pt.init_class_attention(ORACLE_DIM, ORACLE_HEADS, seed=23, dtype=dtype)
    emb_data = np.random.default_rng(24).normal(size=(ORACLE_N, ORACLE_DIM)).astype(dtype)
    kwargs = {"mode": "mean"} if case == "mean" else {}
    if case == "compact_rows":
        used = g.rows_of([v for ids in supports.values() for v in ids])
        rows = np.union1d(used, np.arange(0, ORACLE_N, 7))
        emb_data = emb_data[rows]
        kwargs["rows"] = rows
    with caplog.at_level(logging.WARNING, logger="geometer.prototypes"):
        got, got_grads = _prototypes_and_grads(pt.compute_prototypes, emb_data, supports,
                                               g, params, dtype, **kwargs)
    assert any("uniform" in r.message for r in caplog.records) == (case == "zero_degree")
    want, want_grads = _prototypes_and_grads(loop_prototypes, emb_data, supports,
                                             g, params, dtype, **kwargs)
    tol = ORACLE_TOL[dtype]
    assert got.shape == (len(supports), ORACLE_DIM)
    np.testing.assert_allclose(got, want, rtol=tol["rtol"], atol=tol["scale"] * np.abs(want).max())
    for name, a, b in zip(["embeddings", "wq", "wk", "wv"], got_grads, want_grads):
        if case == "mean" and name != "embeddings":
            assert not a.any() and not b.any()
            continue
        np.testing.assert_allclose(a, b, rtol=tol["rtol"], atol=tol["scale"] * np.abs(b).max(),
                                   err_msg=name)


def test_multiclass_prototype_gradients_match_finite_differences():
    g = oracle_graph()
    supports = {0: [5, 9, 14], 1: [2], 2: [ORACLE_N - 1, ORACLE_N - 2], 4: [30, 31, 32, 33]}
    rows = np.unique(g.rows_of([v for ids in supports.values() for v in ids]))
    rng = np.random.default_rng(25)
    d = 4
    arrays = [rng.normal(size=(len(rows), d)), *(rng.normal(size=(d, d)) * 0.5 for _ in range(3))]
    probe = rng.normal(size=(len(supports), d))

    def loss(arrs, grad):
        emb = t64(arrs[0], grad=grad)
        params = manual_attention(*arrs[1:], heads=2)
        protos = pt.compute_prototypes(emb, supports, g, params, rows=rows)
        return dm.sum(dm.mul(protos.vectors, dm.constant(probe, dtype=F64))), [emb, *params.tensors()]

    out, wrt = loss(arrays, True)
    _, analytic = dm.value_and_grad(out, wrt)
    numeric = central_differences(lambda arrs: loss(arrs, False)[0].item(), arrays)
    assert grad_relative_error(analytic, numeric) < 1e-7


def test_prototype_set_subset_and_serialization():
    vectors = dm.tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    protos = pt.PrototypeSet((1, 3, 5), vectors,
                             (pt.ORIGIN_COMPUTED, pt.ORIGIN_CARRIED, pt.ORIGIN_COMPUTED))
    sub = protos.subset([5, 1])
    assert sub.class_ids == (1, 5)
    np.testing.assert_array_equal(sub.vectors.data, vectors.data[[0, 2]])
    back = pt.arrays_to_prototypes(pt.prototypes_to_arrays(protos))
    assert back.class_ids == protos.class_ids and back.origins == protos.origins
    np.testing.assert_array_equal(back.vectors.data, protos.vectors.data)


def test_prototype_set_requires_sorted_ids():
    with pytest.raises(ValueError):
        pt.PrototypeSet((3, 1), dm.tensor(np.zeros((2, 2))), ("computed", "computed"))
