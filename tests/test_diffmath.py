import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import geometer.diffmath as dm
import oracles
from oracles import (central_differences, chain_pairwise_sq_euclidean, grad_relative_error,
                     loop_squared_euclidean, where_elu)

F64 = np.float64


def t64(arr, grad=True):
    return dm.tensor(np.asarray(arr, dtype=F64), requires_grad=grad, dtype=F64)


def test_softmax_symmetry():
    out = oracles.softmax(t64([0.0, 0.0, 0.0], grad=False))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(3)
    x = dm.tensor(rng.normal(size=(40, 7)) * 10, dtype=F64)
    s = oracles.softmax(x, axis=1).data
    assert np.all(s >= 0) and np.all(s <= 1)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_squared_euclidean_values():
    def dist(a, b):
        return float(dm.pairwise_sq_euclidean(t64([a]), t64([b])).data[0, 0])

    assert dist([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert dist([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=6), rng.normal(size=6)
    assert dist(a, b) == pytest.approx(loop_squared_euclidean(a, b), rel=1e-12)


def test_squared_euclidean_gradient_analytic():
    # x - p = (1, 2) -> d loss / d x = 2 (x - p) = (2, 4)
    x = t64([[3.0, 5.0]])
    p = t64([[2.0, 3.0]], grad=False)
    _, (gx,) = dm.value_and_grad(oracles.sum(dm.pairwise_sq_euclidean(x, p)), [x])
    np.testing.assert_allclose(gx, [[2.0, 4.0]], atol=1e-12)


def _value_and_grads(fn, arrays, dtype, tracked):
    """fn's output and the gradients of a fixed random functional of it
    with respect to the tracked arrays."""
    ts = [dm.tensor(np.asarray(a, dtype=dtype), requires_grad=t, dtype=dtype)
          for a, t in zip(arrays, tracked)]
    out = fn(*ts)
    probe = np.random.default_rng(34).normal(size=out.shape).astype(dtype)
    loss = oracles.sum(oracles.mul(out, dm.constant(probe, dtype=dtype)))
    _, grads = dm.value_and_grad(loss, [t for t in ts if t.requires_grad])
    return out.data, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pairwise_sq_euclidean_is_byte_equal_to_the_op_chain(dtype):
    rng = np.random.default_rng(33)
    cases = [(rng.normal(size=(5, 3)), rng.normal(size=(4, 3))),
             (rng.normal(size=(1, 6)), rng.normal(size=(1, 6))),
             (rng.normal(size=(12, 16)) * 3, rng.normal(size=(30, 16))),
             # exact zero distances: clipped, and given no gradient
             ([[1.0, 2.0], [3.0, -1.0]], [[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])]
    for a, b in cases:
        for tracked in ((True, True), (True, False), (False, True)):
            out, grads = _value_and_grads(dm.pairwise_sq_euclidean, [a, b], dtype, tracked)
            want, want_grads = _value_and_grads(chain_pairwise_sq_euclidean, [a, b], dtype,
                                                tracked)
            assert out.dtype == dtype and out.tobytes() == want.tobytes()
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]


def test_pairwise_sq_euclidean_zero_distance_gets_no_gradient():
    a, b = t64([[1.0, 2.0], [0.5, 0.0]]), t64([[1.0, 2.0], [4.0, 4.0]])
    d = dm.pairwise_sq_euclidean(a, b)
    assert d.data[0, 0] == 0.0
    _, (ga, gb) = dm.value_and_grad(_probe(d, np.array([1.0, 0.0, 0.0, 0.0])), [a, b])
    assert not ga.any() and not gb.any()


def test_value_and_grad_simple_analytic():
    x = t64([1.0, 2.0, 3.0])
    value, (gx,) = dm.value_and_grad(oracles.sum(oracles.mul(x, x)), [x])
    assert value == pytest.approx(14.0)
    np.testing.assert_allclose(gx, [2.0, 4.0, 6.0])


def test_value_and_grad_constant_expression():
    x = t64([1.0, 2.0])
    c = dm.constant([5.0], dtype=F64)
    value, (gx,) = dm.value_and_grad(oracles.sum(c), [x])
    assert value == 5.0
    np.testing.assert_allclose(gx, np.zeros(2))


def test_unreachable_parameter_gets_zero_gradient():
    x, y = t64([2.0]), t64([4.0])
    _, grads = dm.value_and_grad(oracles.sum(oracles.mul(x, x)), [x, y])
    np.testing.assert_allclose(grads[1], [0.0])


@pytest.mark.parametrize("op, shapes", [
    (oracles.mul, [(3, 4), (3, 4)]), (oracles.mul, [(3, 4), (1, 4)]),
    (dm.matmul, [(3, 4), (4, 2)]), (dm.matmul, [(4,), (4, 2)]),
    (dm.matmul, [(3, 4), (4,)]), (dm.matmul, [(4,), (4,)]),
], ids=["mul", "mul_broadcast", "matmul", "matmul_vec_mat", "matmul_mat_vec", "matmul_dot"])
def test_vjp_returns_none_for_a_constant_operand(op, shapes):
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=s) for s in shapes]
    g = rng.normal(size=op(*(t64(a) for a in arrays)).shape)
    both = op(*(t64(a) for a in arrays))._vjp(g)
    for const in (0, 1):
        out = op(*(t64(a, grad=i != const) for i, a in enumerate(arrays)))
        grads = out._vjp(g)
        assert grads[const] is None
        assert grads[1 - const].tobytes() == both[1 - const].tobytes()


def test_non_finite_intermediate_raises():
    with pytest.raises(dm.NonFiniteError):
        oracles.log(t64([-1.0]))
    big = dm.tensor(np.array([400.0], dtype=np.float32), requires_grad=True)
    with pytest.raises(dm.NonFiniteError):
        oracles.exp(big)  # overflows float32


def test_fused_scope_names_the_op_and_restores_the_error_state():
    before = np.geterr()
    with pytest.raises(dm.NonFiniteError,
                       match=r"^proximity_loss: non-finite result \(divide by zero "
                             r"encountered in log\)$"):
        with dm.fused("proximity_loss"):
            np.log(np.zeros(2))
    with dm.fused("outer") as op:
        assert op.name == "outer"
        with dm.fused("inner"):
            pass
        with pytest.raises(dm.NonFiniteError, match="^outer: "):
            with dm.fused("outer"):
                np.float32(3e38) * np.float32(10)
    with pytest.raises(KeyError):               # other errors pass through unchanged
        with dm.fused("op"):
            raise KeyError("x")
    assert np.geterr() == before


def test_non_finite_product_names_the_op():
    # a product is checked by value, and numpy reports no warning of its own
    # for it, whether or not the BLAS kernel set a floating-point flag
    big = np.full((2, 2), 1e30, dtype=np.float32)
    with pytest.raises(dm.NonFiniteError, match=r"^matmul: non-finite result$"):
        dm.matmul(dm.tensor(big), big)


def test_fused_scope_checks_products_and_arrays_by_name():
    big = np.full((2, 2), 1e30, dtype=np.float32)
    small = np.arange(4, dtype=np.float32).reshape(2, 2)
    op = dm.fused("refine_prototype")
    with pytest.raises(dm.NonFiniteError, match=r"^refine_prototype: non-finite result$"):
        op.matmul(big, big)
    with pytest.raises(dm.NonFiniteError, match=r"^refine_prototype: non-finite result$"):
        with op:                                    # the same error inside the frame
            op.matmul(big, big)
    assert op.matmul(small, small).tobytes() == (small @ small).tobytes()
    op.finite(big, "non-finite projection")
    with pytest.raises(dm.NonFiniteError, match=r"^refine_prototype: non-finite projection$"):
        op.finite(np.array([1.0, np.nan]), "non-finite projection")


def test_only_diffmath_names_its_private_attributes():
    # the fused ops of the other modules use the public frame: ``dm.fused``
    # and ``dm.node``, never a ``dm._`` name
    src = Path(dm.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "diffmath.py":
            assert not re.findall(r"\bdm\._\w+", path.read_text()), path.name


@pytest.mark.parametrize("inplace", [False, True])
@pytest.mark.parametrize("rows", [0, 1, 7, 100])
def test_elu_grad_gives_the_bytes_of_the_three_pass_form(rows, inplace, monkeypatch):
    monkeypatch.setattr(dm, "_ELU_BLOCK", 16)      # several blocks, the last one partial
    rng = np.random.default_rng(rows)
    out = dm.elu_inplace((3 * rng.normal(size=(rows, 3))).astype(np.float32))
    g = rng.normal(size=out.shape).astype(np.float32)
    want = np.minimum(out, 0)           # the arithmetic elu_grad had in one new array
    want += 1
    want *= g
    kept = g.copy()
    got = dm.elu_grad(out, g, inplace=inplace)
    assert got.tobytes() == want.tobytes()
    assert (got is g) == inplace
    assert inplace or g.tobytes() == kept.tobytes()


def test_elu_grad_rejects_a_gradient_it_cannot_use():
    out = np.zeros((4, 4), dtype=np.float32)
    for g in (np.zeros((4, 5), np.float32), np.zeros((4, 4), np.float64)):
        with pytest.raises(ValueError, match="elu_grad"):
            dm.elu_grad(out, g)
    with pytest.raises(ValueError, match="in-place gradient must be C-contiguous"):
        dm.elu_grad(out, np.zeros((4, 8), np.float32)[:, ::2], inplace=True)
    strided = np.arange(32, dtype=np.float32).reshape(4, 8)[:, ::2]
    assert dm.elu_grad(out, strided).tobytes() == np.ascontiguousarray(strided).tobytes()


@pytest.mark.parametrize("size", [1, 77, dm._FINITE_MASK_MAX, dm._FINITE_MASK_MAX + 1, 100000])
def test_all_finite_on_both_sides_of_the_mask_size(size):
    for dtype in (np.float32, np.float64):
        a = np.random.default_rng(size).normal(size=size).astype(dtype)
        assert dm._all_finite(a)
        for bad in (np.nan, np.inf, -np.inf):
            b = a.copy()
            b[size // 2] = bad
            assert not dm._all_finite(b)
    assert dm._all_finite(np.zeros((0, 3), dtype=np.float32))


def test_shape_mismatch_raises():
    with pytest.raises(dm.ShapeError):
        dm.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
    with pytest.raises(dm.ShapeError, match="1-D/2-D operands"):
        dm.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3, 4))))
    with pytest.raises(dm.ShapeError):
        dm.pairwise_sq_euclidean(t64([[1.0]]), t64([[1.0, 2.0]]))


def test_tensor_repr_names_shape_dtype_and_gradient():
    # the parameter dataclasses print their tensors this way
    assert repr(dm.tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)) == (
        "Tensor(shape=(2, 3), dtype=float32, requires_grad=True)")


def test_determinism_bit_identical():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 20)).astype(np.float32)
    b = rng.normal(size=(20, 10)).astype(np.float32)
    r1 = oracles.softmax(dm.matmul(dm.tensor(a), dm.tensor(b)), axis=1).data
    r2 = oracles.softmax(dm.matmul(dm.tensor(a), dm.tensor(b)), axis=1).data
    assert r1.tobytes() == r2.tobytes()


def test_random_composite_expression_matches_finite_differences():
    rng = np.random.default_rng(42)
    w = rng.normal(size=(4, 5))
    x = rng.normal(size=(5, 3))
    v = rng.normal(size=3)

    def f(arrays):
        tw, tx, tv = (t64(a) for a in arrays)
        h = oracles.elu(dm.matmul(tw, tx))
        s = oracles.softmax(h, axis=1)
        z = dm.matmul(s, tv)
        return oracles.mean(oracles.mul(z, z))

    tw, tx, tv = t64(w), t64(x), t64(v)
    h = oracles.elu(dm.matmul(tw, tx))
    s = oracles.softmax(h, axis=1)
    z = dm.matmul(s, tv)
    _, analytic = dm.value_and_grad(oracles.mean(oracles.mul(z, z)), [tw, tx, tv])
    numeric = central_differences(lambda arrs: f(arrs).item(), [w, x, v])
    assert grad_relative_error(analytic, numeric) < 1e-4


# --- per-operation gradient checks, 100 random seeds each -----------------
#
# Each op's seeds are salted with a CRC of its name, the same in every
# process.  A central difference across a kink is no derivative, so a draw
# that puts a kink within reach of the step (1e-5) is replaced by the next
# draw of the same seeded stream:
#   * leaky_relu kinks at 0: redraw while any entry lies within 10 steps of 0;
#   * max kinks where a row's two largest entries tie, and one step moves the
#     gap by one step at most: redraw while any row's gap is under 10 steps.
# Every other op here is smooth at its drawn inputs.

KINK_MARGIN = 10 * 1e-5


def _off_zero(rng, shape, shift):
    x = rng.normal(size=shape) + shift
    while np.abs(x).min() < KINK_MARGIN:
        x = rng.normal(size=shape) + shift
    return x


def _untied_rows(rng, shape):
    while True:
        x = rng.normal(size=shape)
        top = np.sort(x, axis=1)[:, -2:]
        if (top[:, 1] - top[:, 0]).min() >= KINK_MARGIN:
            return x


def _probe(expr, weights):
    """Random linear functional of an op output, making the check scalar."""
    flat = oracles.reshape(expr, (-1,))
    return oracles.sum(oracles.mul(flat, dm.constant(weights, dtype=F64)))


def _op_cases(rng):
    n, m, k = 3, 4, 2
    return {
        "matmul": (lambda ts: dm.matmul(ts[0], ts[1]), [rng.normal(size=(n, m)), rng.normal(size=(m, k))], (n, k)),
        "add": (lambda ts: oracles.add(ts[0], ts[1]), [rng.normal(size=(n, m)), rng.normal(size=(1, m))], (n, m)),
        "mul": (lambda ts: oracles.mul(ts[0], ts[1]), [rng.normal(size=(n, m)), rng.normal(size=(n, m))], (n, m)),
        "div": (lambda ts: oracles.div(ts[0], ts[1]), [rng.normal(size=(n, m)), rng.normal(size=(n, m)) + 3.0], (n, m)),
        "scale": (lambda ts: oracles.scale(ts[0], 1.7), [rng.normal(size=(n, m))], (n, m)),
        "concat": (lambda ts: dm.concat(ts, axis=0), [rng.normal(size=(n, m)), rng.normal(size=(2, m))], (n + 2, m)),
        "softmax": (lambda ts: oracles.softmax(ts[0], axis=1), [rng.normal(size=(n, m))], (n, m)),
        "log_softmax": (lambda ts: oracles.log_softmax(ts[0], axis=1), [rng.normal(size=(n, m))], (n, m)),
        "leaky_relu": (lambda ts: dm.leaky_relu(ts[0]), [_off_zero(rng, (n, m), 0.01)], (n, m)),
        "elu": (lambda ts: oracles.elu(ts[0]), [rng.normal(size=(n, m)) + 0.01], (n, m)),
        "exp": (lambda ts: oracles.exp(ts[0]), [rng.normal(size=(n, m))], (n, m)),
        "log": (lambda ts: oracles.log(ts[0]), [rng.random(size=(n, m)) + 0.5], (n, m)),
        "sqrt": (lambda ts: oracles.sqrt(ts[0]), [rng.random(size=(n, m)) + 0.5], (n, m)),
        "sum": (lambda ts: oracles.sum(ts[0], axis=1), [rng.normal(size=(n, m))], (n,)),
        "mean": (lambda ts: oracles.mean(ts[0], axis=0), [rng.normal(size=(n, m))], (m,)),
        "max": (lambda ts: oracles.amax(ts[0], axis=1), [_untied_rows(rng, (n, m))], (n,)),
        "take_rows": (lambda ts: dm.take_rows(ts[0], [2, 0, 2]), [rng.normal(size=(n, m))], (3, m)),
        "pairwise_sq_euclidean": (lambda ts: dm.pairwise_sq_euclidean(ts[0], ts[1]), [rng.normal(size=(n, m)), rng.normal(size=(k, m))], (n, k)),
    }


@pytest.mark.parametrize("op_name", sorted(_op_cases(np.random.default_rng(0)).keys()))
def test_gradient_check_per_op_100_seeds(op_name):
    for seed in range(100):
        rng = np.random.default_rng([seed, zlib.crc32(op_name.encode())])
        build, arrays, out_shape = _op_cases(rng)[op_name]
        probe_w = rng.normal(size=int(np.prod(out_shape)) if out_shape else 1)

        def f(arrs):
            ts = [t64(a) for a in arrs]
            return _probe(build(ts), probe_w)

        ts = [t64(a) for a in arrays]
        _, analytic = dm.value_and_grad(_probe(build(ts), probe_w), ts)
        numeric = central_differences(lambda arrs: f(arrs).item(), arrays)
        err = grad_relative_error(analytic, numeric)
        assert err < 1e-4, f"{op_name}, seed {seed}: rel err {err}"


def test_op_vocabulary_is_complete():
    # the module's exported names are its differentiable-operation contract:
    # the ops the library builds its tapes from, each one used by the library;
    # the elementary ops that only the oracle chains use live in the tests
    for name in ["matmul", "concat", "take_rows", "leaky_relu",
                 "segment_softmax", "pairwise_sq_euclidean"]:
        assert name in dm.__all__
    for name in dm.__all__:
        assert callable(getattr(dm, name))
    src = Path(dm.__file__).parent
    library = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "diffmath.py")
    own = Path(dm.__file__).read_text()
    for name in dm.__all__:
        # a bare call in the module itself: not a method call such as
        # ``grad.sum(``, nor the op's own ``def``
        assert (re.search(rf"\bdm\.{name}\b", library)
                or re.search(rf"(?<![\w.])(?<!def ){name}\(", own)), f"{name} is unused"
    for name in ["add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "clip", "softmax",
                 "log_softmax", "amax", "amin", "transpose", "elu",
                 "reshape", "mean", "scale", "sum"]:
        assert not hasattr(dm, name) and callable(getattr(oracles, name))


def test_elu_passes_large_positive_inputs_through():
    # expm1 would overflow float32 here; only the non-positive part reaches it
    x = dm.tensor(np.array([200.0, 1.5, 0.0, -3.0], dtype=np.float32), requires_grad=True)
    out = oracles.elu(x)
    np.testing.assert_allclose(out.data, [200.0, 1.5, 0.0, np.expm1(-3.0)], rtol=1e-6)
    _, (grad,) = dm.value_and_grad(oracles.sum(out), [x])
    np.testing.assert_allclose(grad, [1.0, 1.0, 1.0, np.exp(-3.0)], rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_is_byte_equal_to_the_two_branch_form(dtype):
    rng = np.random.default_rng(31)
    tiny = np.finfo(dtype).smallest_subnormal
    special = [0.0, tiny, -tiny, 100 * tiny, -100 * tiny, 1e30, -1e30, 88.0, -88.0,
               1.0, -1.0, 1e-3, -1e-3]
    a = np.concatenate([special, rng.normal(size=500) * 10.0 ** rng.integers(-6, 3, 500)])
    a = a.astype(dtype)
    x = dm.tensor(a, requires_grad=True)
    g = rng.normal(size=a.shape).astype(dtype)
    out = oracles.elu(x)
    (grad,) = out._vjp(g)
    want, want_vjp = where_elu(a)
    assert out.dtype == grad.dtype == dtype
    assert out.data.tobytes() == want.tobytes()
    assert grad.tobytes() == want_vjp(g).tobytes()


def test_elu_blocks_equal_the_two_branch_form(monkeypatch):
    # 33 entries in blocks of 7: four full blocks and a ragged one
    monkeypatch.setattr(dm, "_ELU_BLOCK", 7)
    a = np.random.default_rng(32).normal(size=(3, 11)).astype(np.float32) * 3
    want, _ = where_elu(a)
    assert oracles.elu(dm.tensor(a)).data.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        dm.elu_inplace(a[:, ::2])


def test_elu_of_negative_zero_equals_the_two_branch_value():
    # the branch-free sum may turn -0.0 into +0.0; the values are equal
    for dtype in (np.float32, np.float64):
        a = np.array([-0.0, -0.0], dtype=dtype)
        g = np.array([1.5, -2.0], dtype=dtype)
        out = oracles.elu(dm.tensor(a, requires_grad=True))
        want, want_vjp = where_elu(a)
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(out._vjp(g)[0], want_vjp(g))


def test_value_and_grad_returns_c_contiguous_gradients():
    # the transpose vjp yields a Fortran-order array; optimizers get C order
    rng = np.random.default_rng(30)
    w = dm.tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
    x = dm.constant(rng.normal(size=(4, 5)))
    _, (grad,) = dm.value_and_grad(oracles.sum(dm.matmul(x, oracles.transpose(w))), [w])
    assert grad.flags.c_contiguous and grad.dtype == np.float32
    np.testing.assert_allclose(grad, np.tile(x.data.sum(axis=0), (3, 1)), rtol=1e-6)
