import numpy as np
import pytest

import geometer.diffmath as dm
import geometer.losses as ls
import geometer.prototypes as pt
from oracles import central_differences, grad_relative_error

F64 = np.float64


def t64(arr, grad=True):
    return dm.tensor(np.asarray(arr, dtype=F64), requires_grad=grad, dtype=F64)


def as_t(x, grad=True):
    return x if isinstance(x, dm.Tensor) else t64(x, grad=grad)


def proto_set(vectors, class_ids=None, grad=False):
    vectors = vectors if isinstance(vectors, dm.Tensor) else t64(np.asarray(vectors, dtype=F64), grad=grad)
    ids = tuple(range(vectors.shape[0])) if class_ids is None else tuple(class_ids)
    return pt.PrototypeSet(ids, vectors, tuple(pt.ORIGIN_COMPUTED for _ in ids))


# --- proximity ---------------------------------------------------------------

def loop_proximity(queries, labels, proto_vecs, proto_ids, alpha):
    by_class = {}
    for q, lab in zip(queries, labels):
        by_class.setdefault(lab, []).append(q)
    total = 0.0
    for cls, qs in by_class.items():
        a = alpha.get(cls, 1.0) if alpha else 1.0
        inner = 0.0
        for q in qs:
            dists = np.array([np.sum((q - p) ** 2) for p in proto_vecs])
            ex = np.exp(-dists + dists.min())
            prob = ex[proto_ids.index(cls)] / ex.sum()
            inner += -np.log(prob)
        total += a * inner / len(qs)
    return total


def test_proximity_single_class_is_zero():
    protos = proto_set([[1.0, 2.0]])
    q = t64([[0.0, 0.0], [5.0, 5.0]], grad=False)
    assert ls.proximity_loss(q, [0, 0], protos).item() == pytest.approx(0.0, abs=1e-9)


def test_proximity_equidistant_is_log_c():
    protos = proto_set([[1.0, 0.0], [-1.0, 0.0]])
    q = t64([[0.0, 3.0]], grad=False)
    got = ls.proximity_loss(q, [0], protos).item()
    assert got == pytest.approx(np.log(2.0), abs=1e-7)


def test_proximity_matches_loop_oracle():
    rng = np.random.default_rng(0)
    protos_v = rng.normal(size=(2, 5))
    queries = rng.normal(size=(3, 5))
    labels = [0, 1, 1]
    alpha = {0: 0.8, 1: 0.5}
    got = ls.proximity_loss(t64(queries, grad=False), labels, proto_set(protos_v), alpha).item()
    want = loop_proximity(queries, labels, protos_v, [0, 1], alpha)
    assert got == pytest.approx(want, abs=1e-6)


def test_proximity_missing_prototype():
    with pytest.raises(ls.MissingPrototypeError):
        ls.proximity_loss(t64([[0.0, 0.0]], grad=False), [7], proto_set([[1.0, 0.0]]))


def test_proximity_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        protos = proto_set(rng.normal(size=(4, 3)))
        q = t64(rng.normal(size=(6, 3)), grad=False)
        labels = rng.integers(0, 4, size=6)
        assert ls.proximity_loss(q, labels, protos).item() >= 0.0


# --- center and uniformity ---------------------------------------------------

def test_center_trivial_cases():
    one = proto_set([[2.0, -1.0]])
    np.testing.assert_allclose(ls.prototype_center(one).data, [2.0, -1.0])
    pair = proto_set([[1.0, 2.0], [-1.0, -2.0]])
    np.testing.assert_allclose(ls.prototype_center(pair).data, [0.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(2)
    vs = rng.normal(size=(5, 4))
    np.testing.assert_allclose(ls.prototype_center(proto_set(vs)).data,
                               vs.mean(axis=0), atol=1e-12)


def test_uniformity_antipodal_is_zero():
    protos = proto_set([[1.0, 0.0], [-3.0, 0.0]])
    assert ls.uniformity_loss(protos).item() == pytest.approx(0.0, abs=1e-9)


def test_uniformity_three_at_120_degrees_is_half():
    angles = np.deg2rad([0.0, 120.0, 240.0])
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert ls.uniformity_loss(proto_set(ring)).item() == pytest.approx(0.5, abs=1e-7)


def loop_uniformity(vectors):
    center = vectors.mean(axis=0)
    dirs = [(v - center) / np.linalg.norm(v - center) for v in vectors]
    total = 0.0
    for i, di in enumerate(dirs):
        best = max(float(di @ dj) for j, dj in enumerate(dirs) if j != i)
        total += 1.0 + best
    return total / len(vectors)


def test_uniformity_matches_all_pairs_oracle():
    rng = np.random.default_rng(3)
    vs = rng.normal(size=(6, 8))
    got = ls.uniformity_loss(proto_set(vs)).item()
    assert got == pytest.approx(loop_uniformity(vs), abs=1e-9)


def test_uniformity_range_translation_and_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(10):
        vs = rng.normal(size=(5, 6))
        base = ls.uniformity_loss(proto_set(vs)).item()
        assert 0.0 <= base <= 2.0
        shifted = ls.uniformity_loss(proto_set(vs + rng.normal(size=6))).item()
        assert shifted == pytest.approx(base, abs=1e-6)
        center = vs.mean(axis=0)
        scaled = ls.uniformity_loss(proto_set(center + 3.7 * (vs - center))).item()
        assert scaled == pytest.approx(base, abs=1e-6)


def test_uniformity_center_collapse_substitutes_random_direction(caplog):
    import logging
    # three collinear prototypes: the middle one sits exactly at the center
    protos = proto_set([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="geometer.losses"):
        value = ls.uniformity_loss(protos).item()
    assert np.isfinite(value) and 0.0 <= value <= 2.0
    assert any("random direction" in r.message for r in caplog.records)


# --- separability ------------------------------------------------------------

def test_separability_identical_prototype_is_one():
    old = t64([[1.0, 1.0], [5.0, 5.0]], grad=False)
    novel = t64([[1.0, 1.0]], grad=False)
    assert ls.separability_loss(novel, old).item() == pytest.approx(1.0, abs=1e-9)


def test_separability_ln4_distance_is_quarter():
    d = np.sqrt(np.log(4.0))
    old = t64([[0.0, 0.0], [50.0, 0.0]], grad=False)
    novel = t64([[d, 0.0]], grad=False)
    assert ls.separability_loss(novel, old).item() == pytest.approx(0.25, abs=1e-7)


def test_separability_matches_min_over_pairs_oracle():
    rng = np.random.default_rng(5)
    novel = rng.normal(size=(3, 4))
    old = rng.normal(size=(4, 4))
    want = np.mean([np.exp(-min(np.sum((n - o) ** 2) for o in old)) for n in novel])
    got = ls.separability_loss(t64(novel, grad=False), t64(old, grad=False)).item()
    assert got == pytest.approx(want, abs=1e-9)
    assert 0.0 < got <= 1.0


# --- softened logits ---------------------------------------------------------

def test_softened_logits_equidistant_is_half():
    protos = proto_set([[1.0, 0.0], [-1.0, 0.0]])
    for tau in (0.5, 2.0, 10.0):
        probs = ls.softened_logits(t64([0.0, 5.0], grad=False), protos, tau)
        np.testing.assert_allclose(probs.data, [0.5, 0.5], atol=1e-9)


def test_softened_logits_large_tau_approaches_uniform():
    rng = np.random.default_rng(6)
    protos = proto_set(rng.normal(size=(4, 3)))
    probs = ls.softened_logits(t64(rng.normal(size=3), grad=False), protos, tau=1e6)
    assert np.max(np.abs(probs.data - 0.25)) < 1e-3


def test_softened_logits_tau2_matches_formula_oracle():
    rng = np.random.default_rng(7)
    protos_v = rng.normal(size=(3, 4))
    e = rng.normal(size=4)
    dists = np.array([np.sum((e - p) ** 2) for p in protos_v])
    ex = np.exp(-dists / 2.0)
    want = ex / ex.sum()
    got = ls.softened_logits(t64(e, grad=False), proto_set(protos_v), tau=2.0)
    np.testing.assert_allclose(got.data, want, atol=1e-9)
    assert got.data.sum() == pytest.approx(1.0, abs=1e-9)


# --- distillation ------------------------------------------------------------

def test_distillation_self_is_zero():
    rng = np.random.default_rng(8)
    raw = rng.random(size=(4, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    got = ls.distillation_loss(t64(probs, grad=False), probs).item()
    assert got == pytest.approx(0.0, abs=1e-12)


def test_distillation_two_class_hand_case():
    student = np.array([[0.7, 0.3]])
    teacher = np.array([[0.5, 0.5]])
    want = (0.7 * np.log(0.7 / 0.5) + 0.3 * np.log(0.3 / 0.5)) / 2.0
    got = ls.distillation_loss(t64(student, grad=False), teacher).item()
    assert got == pytest.approx(want, abs=1e-9)


def test_distillation_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = rng.random(size=(3, 4)); s /= s.sum(axis=1, keepdims=True)
        t = rng.random(size=(3, 4)); t /= t.sum(axis=1, keepdims=True)
        assert ls.distillation_loss(t64(s, grad=False), t).item() >= -1e-9


def test_distillation_shape_mismatch():
    with pytest.raises(dm.ShapeError):
        ls.distillation_loss(t64(np.ones((2, 3)) / 3, grad=False), np.ones((2, 2)) / 2)


# --- combined losses ---------------------------------------------------------

def test_pretrain_loss_arithmetic():
    w = ls.LossWeights(lambda_p=1.0, lambda_u=1.0)
    got = ls.pretrain_loss(t64(0.3, grad=False), t64(0.5, grad=False), w)
    assert got.item() == pytest.approx(0.8)
    w0 = ls.LossWeights(lambda_p=2.0, lambda_u=0.0)
    got = ls.pretrain_loss(t64(0.3, grad=False), None, w0)
    assert got.item() == pytest.approx(0.6)


def test_finetune_loss_degenerations():
    all_zero = ls.LossWeights(lambda_p=0, lambda_u=0, lambda_s=0, lambda_kd=0)
    assert ls.finetune_loss(t64(1.0, grad=False), None, None, None, all_zero).item() == 0.0
    no_kd = ls.LossWeights(lambda_kd=0.0)
    got = ls.finetune_loss(t64(0.1, grad=False), t64(0.2, grad=False),
                           t64(0.3, grad=False), None, no_kd)
    assert got.item() == pytest.approx(0.6)
    with pytest.raises(ValueError):
        ls.finetune_loss(t64(0.1, grad=False), t64(0.2, grad=False),
                         t64(0.3, grad=False), None, ls.LossWeights())


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        ls.LossWeights(tau=0.0)
    with pytest.raises(ValueError):
        ls.LossWeights(lambda_p=-1.0)


def test_inverse_frequency_alpha():
    alpha = ls.inverse_frequency_alpha([0, 0, 0, 1, 2, 2])
    assert alpha == {0: pytest.approx(1 / 3), 1: 1.0, 2: 0.5}


# --- finite-difference gradient checks, 100 seeds per loss --------------------
#
# Each case builder returns (f, arrays) where f accepts ndarrays (for the
# finite-difference oracle) or Tensors (for the analytic gradient).

def _fd_case_proximity(rng):
    protos_v = rng.normal(size=(3, 4))
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 3, size=4)

    def f(arrs):
        q, pv = arrs
        return ls.proximity_loss(as_t(q), labels, proto_set(as_t(pv)), {0: 0.7, 1: 1.0, 2: 0.4})

    return f, [queries, protos_v]


def _fd_case_uniformity(rng):
    protos_v = rng.normal(size=(4, 5))

    def f(arrs):
        return ls.uniformity_loss(proto_set(as_t(arrs[0])))

    return f, [protos_v]


def _fd_case_separability(rng):
    novel = rng.normal(size=(2, 4))
    old = rng.normal(size=(3, 4))

    def f(arrs):
        return ls.separability_loss(as_t(arrs[0]), as_t(arrs[1]))

    return f, [novel, old]


def _fd_case_distillation(rng):
    emb = rng.normal(size=(3, 4))
    protos_v = rng.normal(size=(3, 4))
    teacher = rng.random(size=(3, 3))
    teacher /= teacher.sum(axis=1, keepdims=True)

    def f(arrs):
        e, pv = arrs
        student = ls.softened_logits(as_t(e), proto_set(as_t(pv)), tau=2.0)
        return ls.distillation_loss(student, teacher)

    return f, [emb, protos_v]


def _fd_case_pretrain(rng):
    protos_v = rng.normal(size=(3, 4))
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 3, size=4)

    def f(arrs):
        q, pv = arrs
        protos = proto_set(as_t(pv))
        lp = ls.proximity_loss(as_t(q), labels, protos)
        lu = ls.uniformity_loss(protos)
        return ls.pretrain_loss(lp, lu, ls.LossWeights(lambda_p=1.0, lambda_u=0.5))

    return f, [queries, protos_v]


def _fd_case_finetune(rng):
    old_v = rng.normal(size=(2, 4))
    novel_v = rng.normal(size=(2, 4))
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 4, size=4)
    teacher = rng.random(size=(4, 2))
    teacher /= teacher.sum(axis=1, keepdims=True)

    def f(arrs):
        q, ov, nv = (as_t(a) for a in arrs)
        protos = pt.PrototypeSet((0, 1, 2, 3), dm.concat([ov, nv], axis=0),
                                 ("computed",) * 4)
        lp = ls.proximity_loss(q, labels, protos)
        lu = ls.uniformity_loss(protos)
        lsx = ls.separability_loss(nv, ov)
        student = ls.softened_logits(q, protos.subset([0, 1]), tau=2.0)
        lkd = ls.distillation_loss(student, teacher)
        return ls.finetune_loss(lp, lu, lsx, lkd, ls.LossWeights())

    return f, [queries, old_v, novel_v]


_FD_CASES = {
    "proximity": _fd_case_proximity,
    "uniformity": _fd_case_uniformity,
    "separability": _fd_case_separability,
    "distillation": _fd_case_distillation,
    "pretrain": _fd_case_pretrain,
    "finetune": _fd_case_finetune,
}


@pytest.mark.parametrize("loss_name", sorted(_FD_CASES))
def test_loss_gradients_match_finite_differences_100_seeds(loss_name):
    for seed in range(100):
        rng = np.random.default_rng([seed, abs(hash(loss_name)) % (2**32)])
        f, arrays = _FD_CASES[loss_name](rng)
        tensors = [t64(a) for a in arrays]
        _, analytic = dm.value_and_grad(f(tensors), tensors)
        numeric = central_differences(lambda arrs: f(arrs).item(), arrays)
        err = grad_relative_error(analytic, numeric)
        assert err < 1e-4, f"{loss_name}, seed {seed}: rel err {err}"
