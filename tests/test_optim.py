import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import geometer.backbone as bb
import geometer.diffmath as dm
import geometer.optim as optim
import geometer.runner as rn
from geometer.backbone import init_backbone
from geometer.prototypes import init_class_attention
from oracles import TextbookAdam

# 0-d, 1-d and 2-d parameters; under a block of 7, (3, 4) and (10, 10) end in a
# ragged block and (13, 7) fills whole blocks; (300, 301) is over one default block
SHAPES = [(), (5,), (3, 4), (13, 7), (10, 10), (300, 301)]


def _params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [dm.tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in SHAPES]


def _grads(dtype, step):
    rng = np.random.default_rng([1, step])
    return [(rng.normal(size=s) * 10.0 ** rng.integers(-3, 2)).astype(dtype) for s in SHAPES]


@pytest.mark.parametrize("block", [None, 7], ids=["default_block", "block7"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_is_byte_equal_to_the_textbook_form(dtype, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(optim, "_BLOCK", block)
    ours, ref = optim.Adam(_params(dtype), lr=0.01), TextbookAdam(_params(dtype), lr=0.01)
    for step in range(11):
        ours.step(_grads(dtype, step))
        ref.step(_grads(dtype, step))
    for arrays in ((ours.m, ref.m), (ours.v, ref.v),
                   ([p.data for p in ours.params], [p.data for p in ref.params])):
        for a, b in zip(*arrays):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_adam_updates_the_parameter_arrays_in_place(monkeypatch):
    monkeypatch.setattr(optim, "_BLOCK", 7)
    params = _params(np.float32)
    held = [p.data for p in params]
    before = [a.copy() for a in held]
    opt = optim.Adam(params, lr=0.01)
    moments = [*opt.m, *opt.v]
    opt.step(_grads(np.float32, 0))
    for p, a, b in zip(params, held, before):
        assert p.data is a and not np.array_equal(a, b)
    assert all(x is y for x, y in zip([*opt.m, *opt.v], moments))


def test_adam_writes_through_a_strided_parameter():
    p = dm.tensor(np.asfortranarray(np.arange(12.0).reshape(3, 4)), requires_grad=True)
    ref = dm.tensor(p.data.copy(), requires_grad=True)
    ours, oracle = optim.Adam([p], lr=0.1), TextbookAdam([ref], lr=0.1)
    g = np.ones((3, 4))
    ours.step([g])
    oracle.step([g])
    assert p.data.tobytes() == np.ascontiguousarray(ref.data).tobytes()


def test_adam_step_allocates_no_parameter_sized_array():
    p = dm.tensor(np.zeros(1 << 20, dtype=np.float32), requires_grad=True)
    g = np.ones(p.shape, dtype=np.float32)
    opt = optim.Adam([p], lr=0.01)
    tracemalloc.start()
    try:
        opt.step([g])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes // 4      # the two scratch blocks are 512 KiB in all


def test_adam_steps_after_the_first_allocate_no_block(monkeypatch):
    monkeypatch.setattr(optim, "_BLOCK", 1 << 14)
    params = [dm.tensor(np.zeros(s, dtype=dt), requires_grad=True)
              for s, dt in (((300, 301), np.float32), ((5,), np.float64), ((1 << 16,), np.float32))]
    grads = [np.ones(p.shape, dtype=p.dtype) for p in params]
    opt = optim.Adam(params, lr=0.01)
    opt.step(grads)
    tracemalloc.start()
    try:
        opt.step(grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < optim._BLOCK * 4      # one float32 block


def test_student_steps_leave_the_cloned_teacher_unchanged():
    teacher = rn.ModelState(init_backbone(9, 8, 4, seed=2),
                            init_class_attention(4, 2, seed=2), None, 0)
    before = [t.data.tobytes() for t in teacher.trainable()]
    student = rn.clone_state(teacher)
    opt = optim.Adam(student.trainable(), lr=0.05)
    rng = np.random.default_rng(3)
    for _ in range(3):
        opt.step([rng.normal(size=t.shape).astype(t.dtype) for t in student.trainable()])
    assert [t.data.tobytes() for t in teacher.trainable()] == before
    assert all(s.data.tobytes() != b for s, b in zip(student.trainable(), before))


# --- gradients formed by the step ---------------------------------------------------

def _episode_product(features, width, rows=60, untouched=(), seed=0):
    """CSR feature rows (float32, about 2% nonzero) with no entry in the
    ``untouched`` columns, and a z gradient for them."""
    rng = np.random.default_rng([seed, features, width])
    dense = np.where(rng.random((rows, features)) < 0.02,
                     rng.normal(size=(rows, features)), 0).astype(np.float32)
    dense[:, list(untouched)] = 0
    g_z = rng.normal(size=(rows, width)).astype(np.float32)
    return sparse.csr_matrix(dense), g_z


# width 48 does not divide the default block, so its blocks of 1,365 rows end
# ragged; under a block of 40 a row of 48 is wider than a block, one row each
@pytest.mark.parametrize("block, features, width, untouched", [
    (None, 3000, 48, ()),
    (40, 30, 48, ()),
    (None, 3000, 48, (0, 1364, 1365, 2999)),
    (None, 500, 1, (7,)),
], ids=["ragged_rows", "row_wider_than_block", "untouched_columns", "one_column"])
def test_adam_forming_a_deferred_gradient_gives_the_bytes_of_the_formed_one(
        block, features, width, untouched, monkeypatch):
    if block is not None:
        monkeypatch.setattr(optim, "_BLOCK", block)
    rng = np.random.default_rng(4)
    weight = rng.normal(size=(features, width)).astype(np.float32)
    attn = rng.normal(size=2 * width).astype(np.float32)
    runs = []
    for deferred in (True, False):
        params = [dm.tensor(weight.copy(), requires_grad=True),
                  dm.tensor(attn.copy(), requires_grad=True)]
        opt = optim.Adam(params, lr=0.01)
        for step in range(3):
            x, g_z = _episode_product(features, width, untouched=untouched, seed=step)
            grad = bb._sparse_weight_grad(x, g_z) if deferred else x.T @ g_z
            opt.step([grad, np.full(attn.shape, 0.1 * step, dtype=np.float32)])
        runs.append([a.tobytes() for a in (*opt.m, *opt.v, *(p.data for p in params))])
        if not deferred:
            formed = x.T @ g_z
            assert not formed[list(untouched)].any()
    assert runs[0] == runs[1]


def test_adam_rejects_a_non_finite_block_of_a_deferred_gradient(monkeypatch):
    monkeypatch.setattr(optim, "_BLOCK", 64)
    x, g_z = _episode_product(200, 8)
    good = bb._sparse_weight_grad(x, g_z)

    def rows_into(out, lo):
        good.rows_into(out, lo)
        if lo >= 40:                    # blocks of 8 rows: the sixth one
            out[0, 0] = np.nan
        return out

    p = dm.tensor(np.ones((200, 8), dtype=np.float32), requires_grad=True)
    opt = optim.Adam([p], lr=0.1)
    with pytest.raises(dm.NonFiniteError, match="^Adam.step: non-finite gradient$"):
        opt.step([dm.DeferredGrad(good.shape, good.dtype, rows_into)])
    # the blocks before it were applied, and nothing from it on
    touched = np.flatnonzero((p.data != 1).any(axis=1))
    assert touched.max() < 40 and len(touched) > 0


def test_adam_forms_a_deferred_gradient_without_allocating_it():
    x, g_z = _episode_product(20000, 64, rows=40)
    p = dm.tensor(np.zeros((20000, 64), dtype=np.float32), requires_grad=True)
    opt = optim.Adam([p], lr=0.01)
    grad = bb._sparse_weight_grad(x, g_z)
    tracemalloc.start()
    try:
        opt.step([grad])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < optim._BLOCK * 4      # one float32 block; the weight is 5 MiB
