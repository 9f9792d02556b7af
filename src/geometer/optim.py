"""Gradient-descent steps over parameter tensors.

``Adam.step`` updates each parameter's ``data`` and its two moment arrays in
place, over fixed blocks of ``_BLOCK`` elements.  Each block's temporaries
live in two scratch buffers per dtype, allocated once with the optimizer, so
a step allocates no array at all, and the elementwise operations run in the
same order as the textbook form, so the update is bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Adam"]

# elements per block of the Adam update (256 KiB of float32): the most a
# scratch buffer holds, whatever the size of the parameter
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
            largest[p.dtype] = max(largest.get(p.dtype, 1), min(p.data.size, _BLOCK))
        self._scratch = {dtype: (np.empty(size, dtype), np.empty(size, dtype))
                         for dtype, size in largest.items()}

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # plain-float scalars: numpy 2 treats np.float64 scalars as strong types
        # and would silently widen float32 parameters
        correction = math.sqrt(1.0 - b2 ** self.t) / (1.0 - b1 ** self.t)
        step_size = self.lr * correction
        for p, g, flat_m, flat_v in zip(self.params, grads, self._flat_m, self._flat_v):
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)   # so the flat view below writes through
            flat_p, flat_g = p.data.reshape(-1), g.reshape(-1)
            num, den = self._scratch[p.dtype]
            for lo in range(0, flat_p.size, _BLOCK):
                block = slice(lo, lo + _BLOCK)
                pb, gb, mb, vb = flat_p[block], flat_g[block], flat_m[block], flat_v[block]
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
