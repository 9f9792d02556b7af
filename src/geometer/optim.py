"""Gradient-descent steps over parameter tensors.

``Adam.step`` updates each parameter's ``data`` and its two moment arrays in
place, over fixed blocks of ``_BLOCK`` elements.  Each block's temporaries
live in scratch buffers per dtype, allocated once with the optimizer, so a
step allocates no array at all, and the elementwise operations run in the
same order as the textbook form, so the update is bit-identical to it.

A gradient may come unformed, as a ``diffmath.DeferredGrad`` (layer 0's
[features x hidden] weight gradient over CSR features): the step forms it
``_BLOCK // width`` rows at a time (one row when a row is wider than
``_BLOCK``) into a third scratch buffer, checks each block finite and
updates that block while it is in cache, so no gradient-sized array exists;
the update is elementwise, so its bytes do not depend on the blocks.  A
block with NaN or Inf raises ``NonFiniteError`` after the blocks before it
were applied, so the caller discards the model it was training.
"""

from __future__ import annotations

import math

import numpy as np

from . import diffmath as dm

__all__ = ["Adam"]

# elements per block of the Adam update (256 KiB of float32): the most a
# scratch buffer holds, unless one row of an unformed gradient is wider
_BLOCK = 65536


class Adam:
    """Adaptive-moment estimation with bias correction (default coefficients)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(p.shape, dtype=p.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, dtype=p.dtype) for p in self.params]
        self._flat_m = [m.reshape(-1) for m in self.m]
        self._flat_v = [v.reshape(-1) for v in self.v]
        largest = {}
        for p in self.params:
            width = p.shape[1] if p.ndim == 2 else 1       # a deferred gradient's row
            largest[p.dtype] = max(largest.get(p.dtype, 1), min(p.data.size, max(_BLOCK, width)))
        # two for the update's temporaries, one for a block of an unformed gradient
        self._scratch = {dtype: tuple(np.empty(size, dtype) for _ in range(3))
                         for dtype, size in largest.items()}

    def step(self, grads):
        """Apply one update; ``grads`` holds one array or ``DeferredGrad`` per
        parameter.  Raises ``dm.NonFiniteError`` if a deferred gradient
        block holds NaN or Inf."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # plain-float scalars: numpy 2 treats np.float64 scalars as strong types
        # and would silently widen float32 parameters
        correction = math.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        step_size = self.lr * correction
        for p, g, flat_m, flat_v in zip(self.params, grads, self._flat_m, self._flat_v):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)   # so the flat view below writes through
            flat_p = p.data.reshape(-1)
            num, den, formed = self._scratch[p.dtype]
            for block, gb in _gradient_blocks(g, formed):
                pb, mb, vb = flat_p[block], flat_m[block], flat_v[block]
                t, d = num[:pb.size], den[:pb.size]
                # m += (1 - b1) * (g - m)
                np.subtract(gb, mb, out=t)
                t *= 1.0 - b1
                mb += t
                # v += (1 - b2) * (g * g - v)
                np.multiply(gb, gb, out=t)
                t -= vb
                t *= 1.0 - b2
                vb += t
                # p -= (step_size * m) / (sqrt(v) + eps)
                np.multiply(mb, step_size, out=t)
                np.sqrt(vb, out=d)
                d += self.eps
                t /= d
                pb -= t


def _gradient_blocks(g, formed: np.ndarray):
    """(slice of the flat parameter, flat gradient block) pairs over ``g``: a
    formed array in ``_BLOCK``-element blocks, or a ``DeferredGrad`` in blocks
    of whole rows formed into ``formed`` and checked finite."""
    if not isinstance(g, dm.DeferredGrad):
        flat = g.reshape(-1)
        for lo in range(0, flat.size, _BLOCK):
            yield slice(lo, lo + _BLOCK), flat[lo:lo + _BLOCK]
        return
    op = dm.fused("Adam.step")
    rows, width = g.shape
    step = max(1, _BLOCK // width)
    for lo in range(0, rows, step):
        n = min(step, rows - lo)
        gb = g.rows_into(formed[:n * width].reshape(n, width), lo).reshape(-1)
        op.finite(gb, "non-finite gradient")
        yield slice(lo * width, (lo + n) * width), gb
