"""Dense float64 tensors with reverse-mode differentiation.

Every operation records a vector-Jacobian product so a scalar loss can be
backpropagated to any reachable leaf. The graph is dynamic: each result
keeps references to its parents, and ``backward`` walks the graph in
reverse topological order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import NotScalar, ShapeMismatch


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "parents", "_vjp", "grad")

    def __init__(self, data, parents=(), vjp=None):
        self.data = _as_array(data)
        self.parents = tuple(parents)
        self._vjp = vjp  # grad_out -> tuple of per-parent gradients
        self.grad = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return mul(self, pow_const(_wrap(other), -1.0))

    def __rtruediv__(self, other):
        return mul(_wrap(other), pow_const(self, -1.0))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x):
    """A leaf tensor that never receives gradients."""
    return Tensor(x)


# -- autodiff core -----------------------------------------------------------


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable tensor."""
    if loss.data.shape != ():
        raise NotScalar(f"backward needs a scalar, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones(())
    for node in reversed(order):
        if node.grad is None or node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                # broadcast scalars up front so accumulation keeps the shape
                parent.grad = np.broadcast_to(g, parent.data.shape).copy() if g.shape != parent.data.shape else g
            else:
                parent.grad = parent.grad + g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives --------------------------------------------------


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, (a, b), vjp)


def neg(a):
    a = _wrap(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def pow_const(a, c):
    a = _wrap(a)
    out = a.data ** c
    return Tensor(out, (a,), lambda g: (g * c * a.data ** (c - 1.0),))


def exp(a):
    a = _wrap(a)
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a):
    a = _wrap(a)
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def sigmoid(a):
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    a = _wrap(a)
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a):
    a = _wrap(a)
    mask = a.data > 0
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def clamp(a, lo, hi):
    """Clip values; gradient passes only where unclipped."""
    a = _wrap(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)
    return Tensor(out, (a,), lambda g: (g * mask,))


def abs_(a):
    a = _wrap(a)
    s = np.sign(a.data)
    return Tensor(np.abs(a.data), (a,), lambda g: (g * s,))


# -- structural primitives ---------------------------------------------------


def reshape(a, shape):
    a = _wrap(a)
    out = a.data.reshape(shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes=None):
    a = _wrap(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)
    return Tensor(out, (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tuple(tensors), vjp)


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(a.shape, b.shape, "matmul")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(out, (a, b), vjp)


# -- reductions --------------------------------------------------------------


def sum_(a, axis=None, keepdims=False):
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor(out, (a,), vjp)


def mean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def max_(a, axis):
    """Max over one axis; gradient flows to the first maximal element."""
    a = _wrap(a)
    out = a.data.max(axis=axis)
    idx = np.argmax(a.data, axis=axis)

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(
            ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis
        )
        return (ga,)

    return Tensor(out, (a,), vjp)


def _windows2x2(x):
    """The four corners of every 2x2 window of (B, C, H, W): tl, tr, bl, br."""
    return x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]


def max_pool2x2(a):
    """(B, C, H, W) -> (B, C, H/2, W/2) max over each 2x2 window.

    The gradient goes to one element per window: the first maximal row
    (top wins ties), then that row's first maximal column (left wins ties),
    as ``max_`` over the window's columns and then its rows would route it.
    """
    a = _wrap(a)
    if a.ndim != 4 or a.shape[2] % 2 or a.shape[3] % 2:
        raise ShapeMismatch("(B, C, even H, even W)", a.shape, "max_pool2x2")
    tl, tr, bl, br = _windows2x2(a.data)
    out = np.maximum(np.maximum(tl, tr), np.maximum(bl, br))

    def vjp(g):
        tl, tr, bl, br = _windows2x2(a.data)
        top = np.maximum(tl, tr) >= np.maximum(bl, br)
        left = np.where(top, tl >= tr, bl >= br)
        ga = np.zeros_like(a.data)
        for corner, picked in zip(
            _windows2x2(ga), (top & left, top & ~left, ~top & left, ~top & ~left)
        ):
            corner[...] = np.where(picked, g, 0.0)
        return (ga,)

    return Tensor(out, (a,), vjp)


def softmax(a, axis=-1):
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, (a,), vjp)


def layer_norm(a, eps=1e-6):
    """Normalize over the last axis to zero mean, unit variance."""
    a = _wrap(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (a.data - mu) * inv
    n = a.shape[-1]

    def vjp(g):
        gy = g * inv
        return (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - y * inv * ((g * y).mean(axis=-1, keepdims=True)),
        )

    return Tensor(y, (a,), vjp)


# -- embedding ---------------------------------------------------------------


def embedding(table, indices):
    """Row lookup into a (V, D) parameter table with scatter-add gradient."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return Tensor(out, (table,), vjp)


# -- 2D convolutions ---------------------------------------------------------


def _conv2d_fwd(x, w, stride, pad):
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bcijkl,ockl->boij", win, w, optimize=True)


def _conv2d_dw(x, g, wshape, stride, pad):
    kh, kw = wshape[2], wshape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bcijkl,boij->ockl", win, g, optimize=True)


def _conv2d_dx(g, w, xshape, stride, pad):
    kh, kw = w.shape[2], w.shape[3]
    b, o, oh, ow = g.shape
    gd = np.zeros((b, o, (oh - 1) * stride + 1, (ow - 1) * stride + 1))
    gd[:, :, ::stride, ::stride] = g
    gp = np.pad(gd, ((0, 0), (0, 0), (kh - 1 - pad, kh - 1 - pad), (kw - 1 - pad, kw - 1 - pad)))
    win = sliding_window_view(gp, (kh, kw), axis=(2, 3))
    out = np.einsum("boijkl,ockl->bcij", win, w[:, :, ::-1, ::-1], optimize=True)
    if out.shape != tuple(xshape):
        raise ShapeMismatch(tuple(xshape), out.shape, "conv2d input gradient")
    return out


def _check_conv_geometry(h, w, kh, kw, stride, pad):
    if (h + 2 * pad - kh) % stride or (w + 2 * pad - kw) % stride:
        raise ShapeMismatch(
            (h, w), (kh, kw), f"conv geometry not exact at stride {stride}, pad {pad}"
        )


def conv2d(x, w, stride=1, pad=0):
    """Cross-correlation of (B,C,H,W) input with (O,C,kh,kw) weights."""
    x, w = _wrap(x), _wrap(w)
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch(x.shape, w.shape, "conv2d channels")
    _check_conv_geometry(x.shape[2], x.shape[3], w.shape[2], w.shape[3], stride, pad)
    out = _conv2d_fwd(x.data, w.data, stride, pad)

    def vjp(g):
        return (
            _conv2d_dx(g, w.data, x.shape, stride, pad),
            _conv2d_dw(x.data, g, w.shape, stride, pad),
        )

    return Tensor(out, (x, w), vjp)


def conv_transpose2d(x, w, stride=2, pad=1):
    """Transposed convolution: the adjoint of ``conv2d`` as a forward map.

    ``x`` is (B,O,h,w), weights are (O,C,kh,kw); output is
    (B, C, (h-1)*stride + kh - 2*pad, ...).
    """
    x, w = _wrap(x), _wrap(w)
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(x.shape, w.shape, "conv_transpose2d channels")
    b = x.shape[0]
    oh = (x.shape[2] - 1) * stride + w.shape[2] - 2 * pad
    ow = (x.shape[3] - 1) * stride + w.shape[3] - 2 * pad
    xshape = (b, w.shape[1], oh, ow)
    out = _conv2d_dx(x.data, w.data, xshape, stride, pad)

    def vjp(g):
        gx = _conv2d_fwd(g, w.data, stride, pad)
        gw = _conv2d_dw(g, x.data, w.shape, stride, pad)
        return gx, gw

    return Tensor(out, (x, w), vjp)
