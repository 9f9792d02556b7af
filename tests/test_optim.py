import tracemalloc

import numpy as np
import pytest

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
