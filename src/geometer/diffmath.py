"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every learning component in this package expresses its forward computation
with the operations defined here; gradients come from a tape-free backward
pass over the implicit expression graph (each Tensor remembers its parents
and a vector-Jacobian callback).

Conventions:
  * float32 is the working precision for parameters and activations,
    float64 is available for oracle/verification work; mixed-dtype
    arithmetic is rejected rather than silently promoted.
  * Tensors are immutable once created.  Optimizers update the ``data``
    array of parameter leaves in place *between* steps, never during a
    forward pass.
  * An op that can overflow computes in ``with fused(name) as op:``.  A numpy
    floating-point fault (overflow, invalid, divide-by-zero) in it raises
    ``NonFiniteError`` naming the op.  Whether a product sets such flags
    depends on the kernel that computes it, so ``op.matmul`` is a product
    checked for NaN and Inf that reports no flag, and ``op.finite`` checks
    any other array; both work outside the ``with`` too.
    ``node(data, parents, vjp)`` makes the result one tape node.  The fused
    ops of other modules use this frame and no private name of this one.
  * A vjp returns None for an operand that tracks no gradient instead of
    computing a gradient the backward sweep would drop.
  * A vjp may write into a gradient array only when its op owns that
    array.  The one case: ``backbone``'s layer 0 owns a gradient that lies
    in a training stage's ``backbone.Workspace``, which layer 1's backward
    wrote there, and multiplies the ELU derivative into it in place
    (``elu_grad(..., inplace=True)``).  Such a workspace also holds the
    layer-0 output of a training encode until the next one overwrites it,
    so the tape of one step must be dropped before the next step's forward.
  * A vjp may leave a leaf's gradient unformed, as a ``DeferredGrad`` that
    computes its rows on demand.  The one case: ``backbone``'s layer 0,
    through a workspace, over CSR input rows, leaves its weight gradient
    ``x.T @ g_z`` for ``optim.Adam.step`` to form a row block at a time
    (no [features x hidden] array).  ``value_and_grad`` hands it on as is,
    so its consumer checks it finite block by block; it must be its leaf's
    only gradient term (the backward sweep cannot add it to another), and
    it keeps its operands alive until it is consumed.

Fused ops.  Each tape node costs far more Python than its arithmetic on the
small arrays of an episode, so the hot compositions are single ops with a
hand-derived vjp, written with the numpy expressions of the op chains they
replaced, in the same order (the chains are kept in the tests as oracles):
``pairwise_sq_euclidean`` here, ``backbone.gat_layer``,
``prototypes.refine_prototype``, and in ``losses`` each loss term after its
distance op and the weighted objective.  ``pairwise_sq_euclidean`` keeps
its operands and the mask of distances above 0.  An input that the chain
read in several places is a parent once per place, and the vjp returns one
gradient term per place: the tape adds the terms in the chain's order, also
when the input collects gradient from outside the op, so gradients stay
byte-identical.

The elementary ops here are the ones the library builds its tapes from.
Those that only the op chains and the tests use (``add``, ``mul``, ``exp``,
``sum``, ``mean``, ``scale``, ``reshape`` and the like) live with the chains
in the tests.  ``matmul`` keeps its 1-D branches, which no library caller
takes, because the chains call it on vectors, and a second copy of it in the
tests would duplicate it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "DeferredGrad", "ShapeError", "NonFiniteError", "TapeReleasedError",
    "fused", "node", "tensor", "constant",
    "matmul", "concat", "take_rows",
    "leaky_relu", "elu_inplace", "elu_grad", "segment_softmax",
    "pairwise_sq_euclidean",
    "backward", "value_and_grad",
]


# entries per block of ``elu_inplace`` (256 KiB of float32): its only scratch
_ELU_BLOCK = 65536
# largest array ``_all_finite`` checks through a mask: below about this size
# (measured with numpy 2.4 on float32) the mask is faster than a min and a max
_FINITE_MASK_MAX = 32768


class ShapeError(ValueError):
    """Operands have incompatible shapes or dtypes."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class TapeReleasedError(RuntimeError):
    """A backward pass reached an op whose saved arrays an earlier backward
    through it released."""


class DeferredGrad:
    """A leaf gradient left unformed (see the module docstring): ``shape`` and
    ``dtype`` are the gradient's, and ``rows_into(out, lo)`` writes its rows
    ``lo`` to ``lo + len(out)`` into the C-order array ``out`` and returns
    ``out``, unchecked for NaN and Inf."""

    __slots__ = ("shape", "dtype", "rows_into")

    def __init__(self, shape, dtype, rows_into):
        self.shape, self.dtype, self.rows_into = tuple(shape), np.dtype(dtype), rows_into


class fused:
    """The frame of the op ``name`` (see the module docstring).  Almost every op
    enters one, so it is a slotted class: entering it costs about two thirds
    of a generator-based context manager."""

    __slots__ = ("name", "_state")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self._state = np.errstate(over="raise", invalid="raise", divide="raise")
        self._state.__enter__()
        return self

    def __exit__(self, kind, exc, tb):
        self._state.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise NonFiniteError(f"{self.name}: non-finite result ({exc})") from None
        return False

    def matmul(self, x: np.ndarray, y: np.ndarray,
               what: str = "non-finite result") -> np.ndarray:
        """x @ y, checked for NaN and Inf as ``finite(out, what)`` checks; ``x``
        may be a scipy sparse matrix.  The check names the fault, so the
        product runs with numpy's own floating-point reports off, whether
        they would warn or raise."""
        with np.errstate(all="ignore"):
            out = x @ y
        self.finite(out, what)
        return out

    def finite(self, arr: np.ndarray, what: str) -> None:
        """Raise ``NonFiniteError("<name>: <what>")`` if ``arr`` holds NaN or Inf."""
        if not _all_finite(arr):
            raise NonFiniteError(f"{self.name}: {what}")


def _all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN or Inf.  Up to ``_FINITE_MASK_MAX``
    entries through an elementwise mask; above, through its min and max,
    which are finite exactly when every entry is (both propagate NaN), so no
    mask the size of a large array is built."""
    if arr.size <= _FINITE_MASK_MAX:
        return bool(np.isfinite(arr).all())
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


class Tensor:
    """An immutable n-d array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
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


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    """Create a leaf Tensor, validating finiteness up front."""
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32 if dtype is None else dtype)
    fused("tensor").finite(arr, "input contains NaN or Inf")
    return Tensor(arr, requires_grad=requires_grad)


def constant(data, dtype=np.float32) -> Tensor:
    return tensor(data, requires_grad=False, dtype=dtype)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != like.dtype:
            raise ShapeError(f"mixed dtypes {x.dtype} vs {like.dtype}")
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def node(data, parents: tuple, vjp) -> Tensor:
    """An op's result: a tape node when any of ``parents`` tracks a gradient."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape``, that of an operand of the same
    rank that broadcast along its size-1 axes.  No library caller broadcasts
    across ranks: ``pairwise_sq_euclidean`` takes 2-D operands only."""
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic

def matmul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    if a.ndim > 2 or b.ndim > 2 or a.ndim == 0 or b.ndim == 0:
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = fused("matmul").matmul(a.data, b.data)

    def vjp(g):
        ad, bd = a.data, b.data
        ga = gb = None
        if a.requires_grad:
            if b.ndim == 1:                      # dot -> scalar, or (m,k) @ (k,) -> (m,)
                ga = g * bd if a.ndim == 1 else np.outer(g, bd)
            else:                                # (k,) or (m,k) @ (k,n)
                ga = g @ bd.T
        if b.requires_grad:
            if a.ndim == 1:                      # dot -> scalar, or (k,) @ (k,n) -> (n,)
                gb = g * ad if b.ndim == 1 else np.outer(ad, g)
            else:                                # (m,k) @ (k,) or (k,n)
                gb = ad.T @ g
        return ga, gb

    return node(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# structure

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return node(out, parts, vjp)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows by index; duplicate indices accumulate in the backward pass."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def vjp(g):
        ga = np.zeros(a.shape, dtype=a.dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and transcendentals

def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    pos = a.data >= 0
    out = np.where(pos, a.data, a.data * a.dtype.type(negative_slope))

    def vjp(g):
        return (np.where(pos, g, g * negative_slope),)

    return node(out, (a,), vjp)


def elu_inplace(x: np.ndarray) -> np.ndarray:
    """ELU, max(x, 0) + expm1(min(x, 0)), written into C-contiguous ``x``, a
    block of ``_ELU_BLOCK`` entries at a time through one small scratch
    buffer; returns ``x``.

    No branch per element: each entry takes its value from one term and 0
    from the other, so the result equals the two-branch form bit for bit (a
    -0.0 input may give +0.0).  expm1 sees only the non-positive part, so
    large inputs cannot overflow.
    """
    if not x.flags.c_contiguous:
        raise ValueError("elu_inplace needs a C-contiguous array")
    flat = x.reshape(-1)
    neg = np.empty(min(flat.size, _ELU_BLOCK), dtype=x.dtype)
    for lo in range(0, flat.size, _ELU_BLOCK):
        xb = flat[lo:lo + _ELU_BLOCK]
        nb = neg[:xb.size]
        np.minimum(xb, 0, out=nb)
        np.expm1(nb, out=nb)
        np.maximum(xb, 0, out=xb)
        xb += nb
    return x


def elu_grad(out: np.ndarray, g: np.ndarray, inplace: bool = False) -> np.ndarray:
    """ELU's input gradient g * (min(out, 0) + 1), from its output ``out``:
    the derivative is out + 1 = exp(x) below 0 and 1 above, which is
    min(out, 0) + 1 either way.  Written into ``g`` itself when ``inplace``
    (only an op that owns ``g`` may ask, see the module docstring), else
    into a C-order copy of it, a block of ``_ELU_BLOCK`` entries at a time
    through one small scratch buffer; returns the result.
    """
    if g.shape != out.shape or g.dtype != out.dtype:
        raise ValueError(f"elu_grad: gradient {g.shape} {g.dtype} for output "
                         f"{out.shape} {out.dtype}")
    if not inplace:
        g = np.array(g, order="C")
    elif not g.flags.c_contiguous:
        raise ValueError("elu_grad: an in-place gradient must be C-contiguous")
    flat_out, flat_g = out.reshape(-1), g.reshape(-1)
    d = np.empty(min(flat_g.size, _ELU_BLOCK), dtype=g.dtype)
    for lo in range(0, flat_g.size, _ELU_BLOCK):
        gb = flat_g[lo:lo + _ELU_BLOCK]
        db = d[:gb.size]
        np.minimum(flat_out[lo:lo + _ELU_BLOCK], 0, out=db)
        db += 1
        gb *= db
    return g


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

    return node(out.astype(s.dtype, copy=False), (scores,), vjp)


# ---------------------------------------------------------------------------
# metric-space helpers

def pairwise_sq_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between all row pairs: [n x d], [m x d] -> [n x m].

    One op: |a_i|^2 + |b_j|^2 - 2 a_i . b_j, clipped at 0, with the
    arithmetic of the op chain it replaced.  It keeps the operands and the
    mask of entries above 0; a distance clipped to 0 gets no gradient.  Each
    operand is a parent once per place the chain read it (two squared-norm
    factors and the cross product), so the tape adds its three gradient terms
    in the chain's order and gradients stay byte-identical to it.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sq_euclidean: incompatible shapes {a.shape}, {b.shape}")
    b = _as_tensor(b, a)
    ad, bd = a.data, b.data
    with fused("pairwise_sq_euclidean") as op:
        a2 = (ad * ad).sum(axis=1, keepdims=True)                    # [n,1]
        b2 = (bd * bd).sum(axis=1).reshape(1, bd.shape[0])           # [1,m]
        d = a2 + b2
        d += op.matmul(ad, bd.T) * ad.dtype.type(-2.0)
    inside = d > 0
    out = np.clip(d, 0.0, None)

    def vjp(g):
        g = np.where(inside, g, 0)
        g_cross = g * -2.0
        ta = _unbroadcast(g, a2.shape) * ad if a.requires_grad else None
        tb = _unbroadcast(g, b2.shape).reshape(bd.shape[0], 1) * bd if b.requires_grad else None
        return (ta, ta, None if ta is None else g_cross @ bd,
                tb, tb, None if tb is None else (ad.T @ g_cross).T)

    return node(out, (a, a, a, b, b, b), vjp)


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
    """Reverse-mode sweep from ``output``, which tracks a gradient (its
    library caller ``value_and_grad`` checks); returns {id(tensor): grad
    array} for the leaves (tensors without parents) it reaches.  No tensor
    keeps a reference to its gradient, and the sweep hands each vjp its
    output's gradient without keeping a reference, so a vjp that drops the
    only other one frees it.  An op may release its saved arrays in its vjp; a
    second sweep through it then raises ``TapeReleasedError``."""
    if seed_grad is None:
        seed_grad = np.ones(output.shape, dtype=output.dtype)
    grads: dict = {id(output): np.asarray(seed_grad, dtype=output.dtype)}
    with fused("backward"):
        for node in reversed(_topo_order(output)):
            if not node._parents or id(node) not in grads:
                continue
            for parent, pg in zip(node._parents, node._vjp(grads.pop(id(node)))):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
    return grads


def value_and_grad(output: Tensor, wrt: Iterable[Tensor]):
    """Evaluate a scalar expression and the gradients w.r.t. ``wrt``.

    Parameters not reachable from the expression get zero gradients.  Each
    gradient is a C-order array checked finite, or a ``DeferredGrad`` that
    a vjp left unformed, handed on unchecked for its consumer to form.
    """
    wrt = list(wrt)
    op = fused("value_and_grad")
    op.finite(output.data, "non-finite value")
    value = float(output.data)
    grad_map = backward(output) if output.requires_grad else {}
    grads = []
    for p in wrt:
        g = grad_map.get(id(p))
        if g is None:
            g = np.zeros(p.shape, dtype=p.dtype)
        if not isinstance(g, DeferredGrad):
            # C order: a transposed vjp would otherwise hand the optimizer a strided array
            g = np.ascontiguousarray(g, dtype=p.dtype).reshape(p.shape)
            op.finite(g, "non-finite gradient")
        grads.append(g)
    return value, grads
