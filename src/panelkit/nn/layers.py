"""Neural building blocks composed from tensor primitives.

Layers register their parameters into a ``ParameterStore`` under a name
prefix, so the whole model is one flat named collection that the
checkpoint format can serialize.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatch
from . import tensor as T


def _init(rng, shape, fan_in):
    scale = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-scale, scale, size=shape)


class Linear:
    def __init__(self, store, prefix, d_in, d_out, rng):
        self.w = store.add(f"{prefix}/w", _init(rng, (d_in, d_out), d_in))
        # nonzero bias keeps all-zero input rows off exact relu kinks
        self.b = store.add(f"{prefix}/b", _init(rng, (d_out,), d_in))

    def __call__(self, x):
        return T.matmul(x, self.w) + self.b


class MLP:
    """Stack of linear layers with ReLU between (none after the last)."""

    def __init__(self, store, prefix, dims, rng):
        self.layers = [
            Linear(store, f"{prefix}/l{i}", dims[i], dims[i + 1], rng)
            for i in range(len(dims) - 1)
        ]

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = T.relu(x)
        return x


def scaled_dot_attention(q, k, v, heads):
    """Multi-head scaled dot-product attention on (seq, dim) inputs.

    Splits the feature dimension into ``heads`` groups; each attention
    matrix row sums to 1.
    """
    if q.shape[-1] != k.shape[-1] or q.shape[-1] != v.shape[-1]:
        raise ShapeMismatch(q.shape, (k.shape, v.shape), "attention dim")
    if k.shape[0] != v.shape[0]:
        raise ShapeMismatch(k.shape, v.shape, "key/value length")
    dim = q.shape[-1]
    if dim % heads:
        raise ShapeMismatch(f"dim divisible by {heads}", dim, "attention heads")
    n_q, n_k = q.shape[0], k.shape[0]
    hd = dim // heads

    def split(x, n):
        # (n, dim) -> (heads, n, hd)
        return T.transpose(T.reshape(x, (n, heads, hd)), (1, 0, 2))

    qh, kh, vh = split(q, n_q), split(k, n_k), split(v, n_k)
    logits = T.matmul(qh, T.transpose(kh, (0, 2, 1))) * (1.0 / math.sqrt(hd))
    attn = T.softmax(logits, axis=-1)
    mixed = T.matmul(attn, vh)  # (heads, n_q, hd)
    return T.reshape(T.transpose(mixed, (1, 0, 2)), (n_q, dim))


class MultiHeadAttention:
    """Attention with learned query/key/value/output projections."""

    def __init__(self, store, prefix, dim, heads, rng):
        if dim % heads:
            raise ShapeMismatch(f"dim divisible by {heads}", dim, prefix)
        self.dim = dim
        self.heads = heads
        self.wq = Linear(store, f"{prefix}/q", dim, dim, rng)
        self.wk = Linear(store, f"{prefix}/k", dim, dim, rng)
        self.wv = Linear(store, f"{prefix}/v", dim, dim, rng)
        self.wo = Linear(store, f"{prefix}/o", dim, dim, rng)

    def __call__(self, q, k, v):
        mixed = scaled_dot_attention(self.wq(q), self.wk(k), self.wv(v), self.heads)
        return self.wo(mixed)


class FeedForward:
    def __init__(self, store, prefix, dim, hidden, rng):
        self.l1 = Linear(store, f"{prefix}/ff1", dim, hidden, rng)
        self.l2 = Linear(store, f"{prefix}/ff2", hidden, dim, rng)

    def __call__(self, x):
        return self.l2(T.relu(self.l1(x)))


class SelfAttentionBlock:
    """Pre-norm transformer block: self-attention + feed-forward, residual."""

    def __init__(self, store, prefix, dim, heads, rng, ff_mult=2):
        self.attn = MultiHeadAttention(store, f"{prefix}/attn", dim, heads, rng)
        self.ff = FeedForward(store, f"{prefix}", dim, dim * ff_mult, rng)

    def __call__(self, x):
        h = T.layer_norm(x)
        x = x + self.attn(h, h, h)
        x = x + self.ff(T.layer_norm(x))
        return x


class CrossAttentionBlock:
    """Pre-norm cross-attention + feed-forward; all ops are per-query-row."""

    def __init__(self, store, prefix, dim, heads, rng, ff_mult=2):
        self.attn = MultiHeadAttention(store, f"{prefix}/attn", dim, heads, rng)
        self.ff = FeedForward(store, f"{prefix}", dim, dim * ff_mult, rng)

    def __call__(self, q, kv):
        h = T.layer_norm(q)
        kvn = T.layer_norm(kv)
        q = q + self.attn(h, kvn, kvn)
        q = q + self.ff(T.layer_norm(q))
        return q


class Conv2d:
    def __init__(self, store, prefix, c_in, c_out, k, rng, stride=1, pad=0):
        self.w = store.add(f"{prefix}/w", _init(rng, (c_out, c_in, k, k), c_in * k * k))
        self.b = store.add(f"{prefix}/b", _init(rng, (c_out,), c_in * k * k))
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        y = T.conv2d(x, self.w, stride=self.stride, pad=self.pad)
        return y + T.reshape(self.b, (1, -1, 1, 1))


class ConvTranspose2d:
    def __init__(self, store, prefix, c_in, c_out, k, rng, stride=2, pad=1):
        self.w = store.add(f"{prefix}/w", _init(rng, (c_in, c_out, k, k), c_in * k * k))
        self.b = store.add(f"{prefix}/b", _init(rng, (c_out,), c_in * k * k))
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        y = T.conv_transpose2d(x, self.w, stride=self.stride, pad=self.pad)
        return y + T.reshape(self.b, (1, -1, 1, 1))
