import os
import zlib

import numpy as np
import pytest

import geometer.diffmath as dm
import geometer.losses as ls
import geometer.prototypes as pt
import oracles
from oracles import (central_differences, chain_distillation_loss, chain_proximity_loss,
                     chain_separability_loss, chain_softened_logits, chain_uniformity_loss,
                     chain_weighted_terms, grad_relative_error)

F64 = np.float64


def t64(arr, grad=True):
    return dm.tensor(np.asarray(arr, dtype=F64), requires_grad=grad, dtype=F64)


def as_t(x, grad=True):
    return x if isinstance(x, dm.Tensor) else t64(x, grad=grad)


def proto_set(vectors, class_ids=None, grad=False):
    vectors = vectors if isinstance(vectors, dm.Tensor) else t64(np.asarray(vectors, dtype=F64), grad=grad)
    ids = tuple(range(vectors.shape[0])) if class_ids is None else tuple(class_ids)
    return pt.PrototypeSet(ids, vectors)


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


def test_proximity_rejects_mixed_dtypes():
    # float32 queries against float64 prototypes are refused, not promoted
    q = dm.tensor(np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(dm.ShapeError, match="^mixed dtypes float64 vs float32$"):
        ls.proximity_loss(q, [0], proto_set([[1.0, 0.0]]))


def test_proximity_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        protos = proto_set(rng.normal(size=(4, 3)))
        q = t64(rng.normal(size=(6, 3)), grad=False)
        labels = rng.integers(0, 4, size=6)
        assert ls.proximity_loss(q, labels, protos).item() >= 0.0


# --- uniformity --------------------------------------------------------------

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


def _uniformity_and_grad(fn, vectors, dtype):
    t = dm.tensor(np.asarray(vectors, dtype=dtype), requires_grad=True, dtype=dtype)
    out = fn(pt.PrototypeSet(tuple(range(len(vectors))), t))
    _, (grad,) = dm.value_and_grad(oracles.scale(out, 0.7), [t])
    return out.data, grad


UNIFORMITY_CASES = {
    "random": np.random.default_rng(35).normal(size=(4, 5)),
    "two": np.random.default_rng(36).normal(size=(2, 3)),
    "many": np.random.default_rng(37).normal(size=(40, 16)) * 2,
    # each row's two nearest directions tie exactly at cosine 0
    "tie": np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) + [3.0, -2.0],
    # the middle prototype sits on the center and gets a random direction
    "degenerate": np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(UNIFORMITY_CASES))
def test_uniformity_is_byte_equal_to_the_op_chain(case, dtype, caplog):
    import logging
    vectors = UNIFORMITY_CASES[case]
    with caplog.at_level(logging.WARNING, logger="geometer.losses"):
        value, grad = _uniformity_and_grad(ls.uniformity_loss, vectors, dtype)
    warned = [r.message for r in caplog.records]
    assert any("random direction" in m for m in warned) == (case == "degenerate")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="geometer.losses"):
        want, want_grad = _uniformity_and_grad(chain_uniformity_loss, vectors, dtype)
    assert warned == [r.message for r in caplog.records]
    assert value.dtype == grad.dtype == dtype
    assert value.tobytes() == want.tobytes() and grad.tobytes() == want_grad.tobytes()


def test_uniformity_tie_routes_to_the_first_nearest_direction():
    # centered unit directions u0..u3 = +x, +y, -x, -y; each row's two nearest
    # tie at cosine 0, and the first wins: pairs (0,1), (1,0), (2,1), (3,0).
    # At cosine 0, d cos(ui, uj) / d ui = uj, so the direction gradients are
    # u0: 2 u1 + u3, u1: 2 u0 + u2, u2: u1, u3: u0, each times 0.7 / 4, and
    # the centering subtracts their mean
    _, grad = _uniformity_and_grad(ls.uniformity_loss, UNIFORMITY_CASES["tie"], F64)
    g_dirs = 0.7 / 4 * np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(grad, g_dirs - g_dirs.mean(axis=0), atol=1e-12)


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
        probs = ls.softened_logits(t64([[0.0, 5.0]], grad=False), protos, tau)
        np.testing.assert_allclose(probs.data, [[0.5, 0.5]], atol=1e-9)


def test_softened_logits_takes_embedding_rows_only():
    protos = proto_set([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(dm.ShapeError):
        ls.softened_logits(t64([0.0, 5.0], grad=False), protos, 2.0)


def test_softened_logits_large_tau_approaches_uniform():
    rng = np.random.default_rng(6)
    protos = proto_set(rng.normal(size=(4, 3)))
    probs = ls.softened_logits(t64(rng.normal(size=(1, 3)), grad=False), protos, tau=1e6)
    assert np.max(np.abs(probs.data - 0.25)) < 1e-3


def test_softened_logits_tau2_matches_formula_oracle():
    rng = np.random.default_rng(7)
    protos_v = rng.normal(size=(3, 4))
    e = rng.normal(size=4)
    dists = np.array([np.sum((e - p) ** 2) for p in protos_v])
    ex = np.exp(-dists / 2.0)
    want = ex / ex.sum()
    got = ls.softened_logits(t64(e[None, :], grad=False), proto_set(protos_v), tau=2.0)
    np.testing.assert_allclose(got.data, [want], atol=1e-9)
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


@pytest.mark.parametrize("call, error, message", [
    (lambda: ls.proximity_loss(t64(np.ones((2, 2))), [0], proto_set(np.eye(2))),
     dm.ShapeError, "one label per query embedding required"),
    (lambda: ls.proximity_loss(t64(np.ones((0, 2))), [], proto_set(np.eye(2))),
     ValueError, "proximity_loss needs at least one query"),
    (lambda: ls.uniformity_loss(proto_set(np.ones((1, 2)))),
     ValueError, "uniformity_loss needs at least two prototypes"),
    (lambda: ls.separability_loss(t64(np.ones((0, 2))), t64(np.ones((1, 2)))),
     ValueError, "separability_loss needs non-empty novel and old prototype lists"),
    (lambda: ls.softened_logits(t64(np.ones((1, 2))), proto_set(np.eye(2)), 0.0),
     ValueError, "temperature must be positive, got 0.0"),
    (lambda: ls.softened_logits(t64(np.ones((1, 2))), proto_set(np.ones((0, 2))), 2.0),
     ValueError, "softened_logits needs at least one prototype"),
    (lambda: ls.distillation_loss(t64(np.full((1, 2), 0.5)), np.array([[np.inf, 0.5]])),
     dm.NonFiniteError, "distillation_loss: teacher contains NaN or Inf"),
], ids=["proximity_labels", "proximity_empty", "uniformity_one", "separability_empty",
        "softened_tau", "softened_empty", "distillation_teacher"])
def test_losses_name_their_bad_arguments(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# --- combined losses ---------------------------------------------------------

def test_pretrain_loss_arithmetic():
    # pretraining's objective: no separability or distillation term
    w = ls.LossWeights(lambda_p=1.0, lambda_u=1.0, lambda_s=0.0, lambda_kd=0.0)
    got = ls.finetune_loss(t64(0.3, grad=False), t64(0.5, grad=False), None, None, w)
    assert got.item() == pytest.approx(0.8)
    w0 = ls.LossWeights(lambda_p=2.0, lambda_u=0.0, lambda_s=0.0, lambda_kd=0.0)
    got = ls.finetune_loss(t64(0.3, grad=False), None, None, None, w0)
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


# --- fused loss ops against the op chains they replaced ------------------------

def _value_and_grads(build, arrays, dtype):
    """The output of ``build(tensors)`` and the gradients of a fixed random
    functional of it with respect to every input."""
    ts = [dm.tensor(np.asarray(a, dtype=dtype), requires_grad=True, dtype=dtype) for a in arrays]
    out = build(ts)
    probe = np.random.default_rng(38).normal(size=out.shape).astype(dtype)
    loss = oracles.sum(dm.mul(out, dm.constant(probe, dtype=dtype)))
    _, grads = dm.value_and_grad(loss, ts)
    return [out.data.tobytes()] + [g.tobytes() for g in grads], out.data.dtype


def _assert_byte_equal_to_chain(fused, chain, arrays, dtype):
    got, got_dtype = _value_and_grads(fused, arrays, dtype)
    want, _ = _value_and_grads(chain, arrays, dtype)
    assert got_dtype == dtype and got == want, _byte_mismatch(got, got_dtype, want, dtype)


def _byte_mismatch(got, got_dtype, want, dtype):
    """What a failed byte comparison saw: which output differs (the value, or
    gradient i), its first differing element in both, and the BLAS thread
    settings in effect."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    if got_dtype != dtype:
        return f"fused output is {got_dtype}, expected {np.dtype(dtype)}; {threads}"
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    what = "the value" if i == 0 else f"gradient {i - 1}"
    a, b = np.frombuffer(got[i], dtype), np.frombuffer(want[i], dtype)
    if a.size != b.size:
        return f"{what} has {a.size} elements, the chain's has {b.size}; {threads}"
    k = int(np.flatnonzero(a.view(f"u{a.itemsize}") != b.view(f"u{b.itemsize}"))[0])
    return (f"{what} differs first at flat index {k} of {a.size}: fused "
            f"{float(a[k])!r}, chain {float(b[k])!r}; {threads}")


def _proximity_build(loss, labels, alpha):
    return lambda ts: loss(ts[0], labels, proto_set(ts[1]), alpha)


_RNG = np.random.default_rng(39)
PROXIMITY_CASES = {
    "one_class": (_RNG.normal(size=(3, 4)), _RNG.normal(size=(1, 4)), [0, 0, 0], None),
    "few": (_RNG.normal(size=(5, 3)), _RNG.normal(size=(3, 3)), [2, 0, 2, 1, 2],
            {0: 0.5, 1: 1.0, 2: 0.25}),
    "many": (_RNG.normal(size=(60, 16)) * 2, _RNG.normal(size=(40, 16)),
             _RNG.integers(0, 40, size=60), None),
    # a query on its own prototype: a zero distance, clipped and given no gradient
    "on_prototype": ([[1.0, 2.0], [0.0, 3.0]], [[1.0, 2.0], [4.0, -1.0]], [0, 1], None),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(PROXIMITY_CASES))
def test_proximity_is_byte_equal_to_the_op_chain(case, dtype):
    queries, protos, labels, alpha = PROXIMITY_CASES[case]
    _assert_byte_equal_to_chain(_proximity_build(ls.proximity_loss, labels, alpha),
                                _proximity_build(chain_proximity_loss, labels, alpha),
                                [queries, protos], dtype)


SEPARABILITY_CASES = {
    "one_old": (_RNG.normal(size=(2, 3)), _RNG.normal(size=(1, 3))),
    "few": (_RNG.normal(size=(3, 4)), _RNG.normal(size=(5, 4))),
    "many": (_RNG.normal(size=(10, 16)), _RNG.normal(size=(60, 16))),
    # exact ties: each novel prototype is equally near two old ones
    "tie": ([[0.0, 0.0], [2.0, 2.0]], [[1.0, 0.0], [3.0, 3.0], [-1.0, 0.0], [1.0, 3.0]]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(SEPARABILITY_CASES))
def test_separability_is_byte_equal_to_the_op_chain(case, dtype):
    _assert_byte_equal_to_chain(lambda ts: ls.separability_loss(*ts),
                                lambda ts: chain_separability_loss(*ts),
                                list(SEPARABILITY_CASES[case]), dtype)


def test_separability_tie_routes_to_the_first_nearest_old_prototype():
    # the novel prototype at the origin is at squared distance 1 from old
    # prototypes 0 and 2: only old 0 gets gradient, 2 (x - o) e^-1 / 1 for x
    novel, old = t64([[0.0, 0.0]]), t64([[1.0, 0.0], [5.0, 5.0], [-1.0, 0.0]])
    _, (g_novel, g_old) = dm.value_and_grad(ls.separability_loss(novel, old), [novel, old])
    np.testing.assert_allclose(g_novel, [[2.0 * np.exp(-1.0), 0.0]], rtol=1e-12)
    np.testing.assert_allclose(g_old, [[-2.0 * np.exp(-1.0), 0.0], [0.0, 0.0], [0.0, 0.0]],
                               rtol=1e-12)


SOFTENED_CASES = {
    "one_class": (_RNG.normal(size=(4, 3)), _RNG.normal(size=(1, 3)), 2.0),
    "vector": (_RNG.normal(size=(1, 5)), _RNG.normal(size=(3, 5)), 0.5),
    "many": (_RNG.normal(size=(30, 16)), _RNG.normal(size=(20, 16)), 2.0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(SOFTENED_CASES))
def test_softened_logits_is_byte_equal_to_the_op_chain(case, dtype):
    emb, protos, tau = SOFTENED_CASES[case]
    _assert_byte_equal_to_chain(
        lambda ts: ls.softened_logits(ts[0], proto_set(ts[1]), tau),
        lambda ts: chain_softened_logits(ts[0], proto_set(ts[1]), tau),
        [emb, protos], dtype)


def _distributions(rng, shape):
    raw = rng.random(size=shape)
    return raw / raw.sum(axis=1, keepdims=True)


DISTILLATION_CASES = {
    "one_class": (np.ones((3, 1)), np.ones((3, 1))),
    "few": (_distributions(_RNG, (4, 3)), _distributions(_RNG, (4, 3))),
    "many": (_distributions(_RNG, (30, 20)), _distributions(_RNG, (30, 20))),
    # student probabilities at and below the clamp, teacher ones below it
    "clamped": ([[ls.LOG_CLAMP, 1e-20, 0.0, 1.0 - ls.LOG_CLAMP], [0.5, 0.25, 0.25, 0.0]],
                [[0.25, 0.25, 0.5, 0.0], [1e-30, 0.5, 0.5, 0.0]]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(DISTILLATION_CASES))
def test_distillation_is_byte_equal_to_the_op_chain(case, dtype):
    student, teacher = DISTILLATION_CASES[case]
    teacher = np.asarray(teacher, dtype=dtype)
    _assert_byte_equal_to_chain(lambda ts: ls.distillation_loss(ts[0], teacher),
                                lambda ts: chain_distillation_loss(ts[0], teacher),
                                [student], dtype)


def test_distillation_clip_blocks_the_log_gradient():
    # at or below LOG_CLAMP only the product term reaches the student:
    # d/ds of s (log clip(s) - log t) is log clip(s) - log t there, not + 1
    student = t64([[ls.LOG_CLAMP, 0.5, 0.5 - ls.LOG_CLAMP], [0.0, 0.25, 0.75]])
    teacher = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
    _, (grad,) = dm.value_and_grad(ls.distillation_loss(student, teacher), [student])
    log_ratio = np.log(np.clip(student.data, ls.LOG_CLAMP, None)) - np.log(teacher)
    blocked = student.data <= ls.LOG_CLAMP
    want = (log_ratio + np.where(blocked, 0.0, 1.0)) / 6.0
    np.testing.assert_allclose(grad, want, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("lambdas", [(1.0,), (1.0, 0.5), (0.3, 0.0, 2.0, 0.7), (1.0, 1.0, 1.0, 1.0)])
def test_weighted_terms_are_byte_equal_to_the_op_chain(lambdas, dtype):
    values = np.random.default_rng(40).normal(size=len(lambdas))

    def build(weighted):
        return lambda ts: weighted(list(zip(lambdas, ts)), np.dtype(dtype))

    _assert_byte_equal_to_chain(build(ls._weighted_terms), build(chain_weighted_terms),
                                list(values), dtype)


def test_weighted_terms_reject_mixed_dtypes():
    with pytest.raises(dm.ShapeError):
        ls.finetune_loss(t64(0.3), dm.tensor(np.float32(0.5)), None, None,
                         ls.LossWeights(lambda_s=0.0, lambda_kd=0.0))


# --- finite-difference gradient checks, 100 seeds per loss --------------------
#
# Each case builder returns (f, arrays) where f accepts ndarrays (for the
# finite-difference oracle) or Tensors (for the analytic gradient).  Seeds are
# salted with a CRC of the loss name, the same in every process.
#
# A central difference across a kink is no derivative, so a draw that puts a
# kink within reach of the step (1e-5) is replaced by the next draw of the
# same seeded stream:
#   * uniformity takes each prototype's largest cosine to another centered
#     direction: redraw the prototypes while a row's two largest cosines lie
#     within KINK_GAP of each other;
#   * separability takes each novel prototype's smallest squared distance to
#     an old one: redraw the prototypes while a row's two smallest distances
#     lie within KINK_GAP.
# At the unit-normal scales drawn here one step moves a cosine or a distance
# by far less than KINK_GAP.

KINK_GAP = 1e-3


def _top_gaps(matrix):
    """Per row, the gap between its two largest entries (inf with one entry)."""
    top = np.sort(matrix, axis=1)[:, -2:]
    return top[:, 1] - top[:, 0] if matrix.shape[1] > 1 else np.full(len(matrix), np.inf)


def _uniformity_clear(vectors):
    dirs = vectors - vectors.mean(axis=0)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cos = dirs @ dirs.T
    np.fill_diagonal(cos, -np.inf)
    return _top_gaps(cos).min() >= KINK_GAP


def _separability_clear(novel, old):
    dist = ((novel[:, None, :] - old[None, :, :]) ** 2).sum(axis=2)
    return _top_gaps(-dist).min() >= KINK_GAP


def _draw_until(rng, draw, clear):
    """``draw(rng)``, drawn again from the same stream until ``clear`` holds."""
    arrays = draw(rng)
    while not clear(*arrays):
        arrays = draw(rng)
    return arrays


def _fd_case_proximity(rng):
    protos_v = rng.normal(size=(3, 4))
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 3, size=4)

    def f(arrs):
        q, pv = arrs
        return ls.proximity_loss(as_t(q), labels, proto_set(as_t(pv)), {0: 0.7, 1: 1.0, 2: 0.4})

    return f, [queries, protos_v]


def _fd_case_uniformity(rng):
    (protos_v,) = _draw_until(rng, lambda r: (r.normal(size=(4, 5)),), _uniformity_clear)

    def f(arrs):
        return ls.uniformity_loss(proto_set(as_t(arrs[0])))

    return f, [protos_v]


def _fd_case_separability(rng):
    novel, old = _draw_until(rng, lambda r: (r.normal(size=(2, 4)), r.normal(size=(3, 4))),
                             _separability_clear)

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
    (protos_v,) = _draw_until(rng, lambda r: (r.normal(size=(3, 4)),), _uniformity_clear)
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 3, size=4)

    def f(arrs):
        q, pv = arrs
        protos = proto_set(as_t(pv))
        lp = ls.proximity_loss(as_t(q), labels, protos)
        lu = ls.uniformity_loss(protos)
        return ls.finetune_loss(lp, lu, None, None, ls.LossWeights(
            lambda_p=1.0, lambda_u=0.5, lambda_s=0.0, lambda_kd=0.0))

    return f, [queries, protos_v]


def _fd_case_finetune(rng):
    old_v, novel_v = _draw_until(
        rng, lambda r: (r.normal(size=(2, 4)), r.normal(size=(2, 4))),
        lambda o, n: _uniformity_clear(np.concatenate([o, n])) and _separability_clear(n, o))
    queries = rng.normal(size=(4, 4))
    labels = rng.integers(0, 4, size=4)
    teacher = rng.random(size=(4, 2))
    teacher /= teacher.sum(axis=1, keepdims=True)

    def f(arrs):
        q, ov, nv = (as_t(a) for a in arrs)
        protos = pt.PrototypeSet((0, 1, 2, 3), dm.concat([ov, nv], axis=0))
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
        rng = np.random.default_rng([seed, zlib.crc32(loss_name.encode())])
        f, arrays = _FD_CASES[loss_name](rng)
        tensors = [t64(a) for a in arrays]
        _, analytic = dm.value_and_grad(f(tensors), tensors)
        numeric = central_differences(lambda arrs: f(arrs).item(), arrays)
        err = grad_relative_error(analytic, numeric)
        assert err < 1e-4, f"{loss_name}, seed {seed}: rel err {err}"
