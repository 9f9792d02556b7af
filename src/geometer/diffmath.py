"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every learning component in this package expresses its forward computation
with the operations defined here; gradients come from a tape-free backward
pass over the implicit expression graph (each Tensor remembers its parents
and a vector-Jacobian callback).

Conventions:
  * float32 is the working precision for parameters and activations,
    float64 is available for oracle/verification work; mixed-dtype
    arithmetic is rejected rather than silently promoted.
  * Tensors are immutable once created.  Optimizers may swap the ``data``
    array of parameter leaves *between* steps, never during a forward pass.
  * Non-finite values are trapped at op boundaries: numpy floating-point
    faults (overflow, invalid, divide-by-zero) raise ``NonFiniteError``,
    and matrix products are checked explicitly since BLAS bypasses the
    FPU-flag machinery.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "NonFiniteError", "ZeroNormError",
    "tensor", "constant",
    "add", "sub", "mul", "div", "neg", "scale",
    "matmul", "concat", "stack", "reshape", "transpose", "take_rows",
    "exp", "log", "sqrt", "clip", "leaky_relu", "elu",
    "softmax", "log_softmax", "segment_softmax",
    "sum", "mean", "amax", "amin",
    "squared_euclidean", "cosine_sim", "pairwise_sq_euclidean",
    "dropout", "dropout_mask",
    "backward", "value_and_grad", "op_vocabulary",
]

COSINE_NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Operands have incompatible shapes or dtypes."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ZeroNormError(ValueError):
    """Cosine similarity requested for a vector with norm below 1e-12."""


@contextlib.contextmanager
def _fpe_guard(op: str):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NonFiniteError(f"{op}: non-finite result ({exc})") from None


class Tensor:
    """An immutable n-d array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; all routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Create a leaf Tensor, validating finiteness up front."""
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32 if dtype is None else dtype)
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor: input contains NaN or Inf")
    return Tensor(arr, requires_grad=requires_grad)


def constant(data, dtype=np.float32) -> Tensor:
    return tensor(data, requires_grad=False, dtype=dtype)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != like.dtype:
            raise ShapeError(f"mixed dtypes {x.dtype} vs {like.dtype}")
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _result(data, parents: tuple, vjp) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if needs:
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.dtype))
    b = _as_tensor(b, a)
    with _fpe_guard("add"):
        out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.dtype))
    b = _as_tensor(b, a)
    with _fpe_guard("sub"):
        out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.dtype))
    b = _as_tensor(b, a)
    with _fpe_guard("mul"):
        out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return _result(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.dtype))
    b = _as_tensor(b, a)
    with _fpe_guard("div"):
        out = a.data / b.data

    def vjp(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _result(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    with _fpe_guard("scale"):
        out = a.data * a.dtype.type(s)
    return _result(out, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    if a.ndim > 2 or b.ndim > 2 or a.ndim == 0 or b.ndim == 0:
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    if out.size and not np.all(np.isfinite(out)):
        raise NonFiniteError("matmul: non-finite result")

    def vjp(g):
        ad, bd = a.data, b.data
        if a.ndim == 1 and b.ndim == 1:          # dot -> scalar
            return g * bd, g * ad
        if a.ndim == 1:                          # (k,) @ (k,n) -> (n,)
            return g @ bd.T, np.outer(ad, g)
        if b.ndim == 1:                          # (m,k) @ (k,) -> (m,)
            return np.outer(g, bd), ad.T @ g
        return g @ bd.T, ad.T @ g                # (m,k) @ (k,n)

    return _result(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# structure

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: empty input")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(out, parts, vjp)


def stack(vectors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length 1-D tensors into a matrix, one row each."""
    vectors = tuple(vectors)
    if not vectors:
        raise ShapeError("stack: empty input")
    out = np.stack([v.data for v in vectors], axis=0)

    def vjp(g):
        return tuple(g[i] for i in range(len(vectors)))

    return _result(out, vectors, vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _result(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _result(a.data.T, (a,), lambda g: (g.T,))


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows by index; duplicate indices accumulate in the backward pass."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def vjp(g):
        if a.ndim == 1:
            return (np.bincount(idx, weights=g, minlength=a.shape[0]).astype(a.dtype),)
        ga = np.zeros(a.shape, dtype=a.dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _result(out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and transcendentals

def exp(a: Tensor) -> Tensor:
    with _fpe_guard("exp"):
        out = np.exp(a.data)
    return _result(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    with _fpe_guard("log"):
        out = np.log(a.data)

    def vjp(g):
        with _fpe_guard("log/backward"):
            return (g / a.data,)

    return _result(out, (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    with _fpe_guard("sqrt"):
        out = np.sqrt(a.data)

    def vjp(g):
        with _fpe_guard("sqrt/backward"):
            return (g * 0.5 / out,)

    return _result(out, (a,), vjp)


def clip(a: Tensor, lo=None, hi=None) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = np.ones(a.shape, dtype=bool)
    if lo is not None:
        inside &= a.data > lo
    if hi is not None:
        inside &= a.data < hi

    def vjp(g):
        return (np.where(inside, g, 0),)

    return _result(out, (a,), vjp)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    pos = a.data >= 0
    out = np.where(pos, a.data, a.data * a.dtype.type(negative_slope))

    def vjp(g):
        return (np.where(pos, g, g * negative_slope),)

    return _result(out, (a,), vjp)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    neg = a.data <= 0
    with _fpe_guard("elu"):
        # expm1 sees only the non-positive part, so large inputs cannot overflow
        out = np.where(neg, alpha * np.expm1(np.minimum(a.data, 0)), a.data)

    def vjp(g):
        return (np.where(neg, g * (out + alpha), g),)

    return _result(out, (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    with _fpe_guard("softmax"):
        shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _result(out, (a,), vjp)


def segment_softmax(scores: Tensor, starts, lens) -> Tensor:
    """Stable softmax over contiguous row segments of [E] or [E x H] scores.

    Segment i holds rows ``starts[i]`` to ``starts[i] + lens[i]``; every
    segment is non-empty and together they cover all rows in order.  Each
    column of a 2-D input is normalized on its own.
    """
    s = scores.data
    m = np.maximum.reduceat(s, starts)
    e = np.exp(s - np.repeat(m, lens, axis=0))
    z = np.add.reduceat(e, starts)
    out = e / np.repeat(z, lens, axis=0)

    def vjp(g):
        inner = np.add.reduceat(g * out, starts)
        return (out * (g - np.repeat(inner, lens, axis=0)),)

    return _result(out.astype(s.dtype, copy=False), (scores,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    with _fpe_guard("log_softmax"):
        shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _result(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions

def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _result(out, (a,), vjp)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return scale(sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def amax(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; the subgradient routes to the first maximal entry."""
    out = a.data.max(axis=axis, keepdims=keepdims)
    if axis is None:
        flat_idx = int(a.data.argmax())
    else:
        arg = a.data.argmax(axis=axis)

    def vjp(g):
        ga = np.zeros(a.shape, dtype=a.dtype)
        if axis is None:
            ga.flat[flat_idx] = g
        else:
            g_arr = np.asarray(g)
            if keepdims:
                g_arr = np.squeeze(g_arr, axis=axis)
            np.put_along_axis(ga, np.expand_dims(arg, axis), np.expand_dims(g_arr, axis), axis)
        return (ga,)

    return _result(out, (a,), vjp)


def amin(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return neg(amax(neg(a), axis=axis, keepdims=keepdims))


# ---------------------------------------------------------------------------
# metric-space helpers

def squared_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """sum_i (a_i - b_i)^2 for equal-length vectors."""
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"squared_euclidean expects equal-length vectors, got {a.shape} vs {b.shape}")
    d = sub(a, b)
    return sum(mul(d, d))


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """a·b / (|a||b|), clamped into [-1, 1] against round-off."""
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"cosine_sim expects equal-length vectors, got {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na <= COSINE_NORM_EPS or nb <= COSINE_NORM_EPS:
        raise ZeroNormError(f"cosine_sim: vector norm below {COSINE_NORM_EPS}")
    raw = div(sum(mul(a, b)), mul(sqrt(sum(mul(a, a))), sqrt(sum(mul(b, b)))))
    return clip(raw, -1.0, 1.0)


def pairwise_sq_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between all row pairs: [n x d], [m x d] -> [n x m]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sq_euclidean: incompatible shapes {a.shape}, {b.shape}")
    a2 = sum(mul(a, a), axis=1, keepdims=True)            # [n,1]
    b2 = reshape(sum(mul(b, b), axis=1), (1, b.shape[0]))  # [1,m]
    cross = matmul(a, transpose(b))                        # [n,m]
    d = add(add(a2, b2), scale(cross, -2.0))
    return clip(d, 0.0, None)


def dropout_mask(shape, rate: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout factors: 0 where dropped, 1 / (1 - rate) where kept."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    dtype = np.dtype(dtype)
    return (rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return a
    return mul(a, Tensor(dropout_mask(a.shape, rate, rng, a.dtype)))


# ---------------------------------------------------------------------------
# backward machinery

def _topo_order(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(output: Tensor, seed_grad=None) -> dict:
    """Reverse-mode sweep from ``output``; returns {id(tensor): grad array}.

    Leaf tensors (no parents) additionally get their ``.grad`` attribute set.
    """
    if not output.requires_grad:
        return {}
    if seed_grad is None:
        seed_grad = np.ones(output.shape, dtype=output.dtype)
    grads: dict = {id(output): np.asarray(seed_grad, dtype=output.dtype)}
    with _fpe_guard("backward"):
        for node in reversed(_topo_order(output)):
            g = grads.pop(id(node)) if node._parents else grads.get(id(node))
            if g is None:
                continue
            if node._parents:
                parent_grads = node._vjp(g)
                for parent, pg in zip(node._parents, parent_grads):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            else:
                node.grad = g if node.grad is None else node.grad + g
    return grads


def value_and_grad(output: Tensor, wrt: Iterable[Tensor]):
    """Evaluate a scalar expression and the gradients w.r.t. ``wrt``.

    Parameters not reachable from the expression get zero gradients.
    """
    wrt = list(wrt)
    if output.data.size != 1:
        raise ShapeError(f"value_and_grad expects a scalar output, got shape {output.shape}")
    value = float(output.data)
    if not np.isfinite(value):
        raise NonFiniteError("value_and_grad: non-finite value")
    for p in wrt:
        p.grad = None
    grad_map = backward(output) if output.requires_grad else {}
    grads = []
    for p in wrt:
        g = grad_map.get(id(p))
        if g is None:
            g = p.grad if p.grad is not None else np.zeros(p.shape, dtype=p.dtype)
        # C order: a transposed vjp would otherwise hand the optimizer a strided array
        g = np.ascontiguousarray(g, dtype=p.dtype).reshape(p.shape)
        if g.size and not np.all(np.isfinite(g)):
            raise NonFiniteError("value_and_grad: non-finite gradient")
        grads.append(g)
    return value, grads


def op_vocabulary() -> dict:
    """The differentiable operation contract: name -> callable."""
    return {
        "matmul": matmul,
        "add": add,
        "mul": mul,
        "scale": scale,
        "concat": concat,
        "softmax": softmax,
        "leaky_relu": leaky_relu,
        "elu": elu,
        "exp": exp,
        "log": log,
        "sum": sum,
        "mean": mean,
        "max": amax,
        "squared_euclidean": squared_euclidean,
        "cosine_sim": cosine_sim,
    }
