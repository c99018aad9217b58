"""Neural layers: attention against a numpy oracle, pooling, parameter wiring."""

import numpy as np
import pytest

from panelkit.errors import ShapeMismatch
from panelkit.nn import tensor as T
from panelkit.nn.layers import (
    Conv2d,
    ConvTranspose2d,
    CrossAttentionBlock,
    Linear,
    MLP,
    MultiHeadAttention,
    SelfAttentionBlock,
    scaled_dot_attention,
)
from panelkit.nn.optim import ParameterStore
from panelkit.nn.tensor import Tensor, backward, max_pool2x2

from conftest import assert_grad_close, fd_grad, reference_max_pool2x2

RNG = np.random.default_rng(77)


def _attention_oracle(q, k, v, heads):
    """Reference multi-head attention computed with explicit loops."""
    n_q, dim = q.shape
    n_k = k.shape[0]
    hd = dim // heads
    out = np.zeros((n_q, dim))
    for h in range(heads):
        qs = q[:, h * hd : (h + 1) * hd]
        ks = k[:, h * hd : (h + 1) * hd]
        vs = v[:, h * hd : (h + 1) * hd]
        logits = qs @ ks.T / np.sqrt(hd)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        out[:, h * hd : (h + 1) * hd] = w @ vs
    return out


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_scaled_dot_attention_matches_oracle(heads):
    q = RNG.normal(size=(5, 8))
    k = RNG.normal(size=(7, 8))
    v = RNG.normal(size=(7, 8))
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads).data
    np.testing.assert_allclose(got, _attention_oracle(q, k, v, heads), atol=1e-12)


def test_attention_single_key_returns_value():
    # with one key every query attends to it with weight exactly 1
    q = RNG.normal(size=(4, 6))
    k = RNG.normal(size=(1, 6))
    v = RNG.normal(size=(1, 6))
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    np.testing.assert_allclose(got, np.broadcast_to(v, (4, 6)), atol=1e-12)


def test_attention_head_divisibility():
    with pytest.raises(ShapeMismatch):
        scaled_dot_attention(Tensor(np.ones((2, 6))), Tensor(np.ones((2, 6))), Tensor(np.ones((2, 6))), 4)


def test_attention_key_value_length_mismatch():
    with pytest.raises(ShapeMismatch):
        scaled_dot_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), 2)


def test_attention_gradient_matches_fd():
    k = RNG.normal(size=(3, 4))
    v = RNG.normal(size=(3, 4))
    q0 = RNG.normal(size=(2, 4))
    leaf = Tensor(q0.copy())
    backward(T.sum_(scaled_dot_attention(leaf, Tensor(k), Tensor(v), 2)))
    numeric = fd_grad(
        lambda a: float(
            scaled_dot_attention(Tensor(a), Tensor(k), Tensor(v), 2).data.sum()
        ),
        q0.copy(),
    )
    assert_grad_close(leaf.grad, numeric)


def test_multi_head_attention_param_gradient_matches_fd():
    store = ParameterStore()
    mha = MultiHeadAttention(store, "a", 4, 2, RNG)
    x = RNG.normal(size=(3, 4))

    def loss_value():
        return T.sum_(mha(Tensor(x), Tensor(x), Tensor(x))).item()

    store.zero_grad()
    backward(T.sum_(mha(Tensor(x), Tensor(x), Tensor(x))))
    p = store["a/q/w"]
    analytic = p.grad.copy()

    def f(vals):
        p.data = vals
        return loss_value()

    orig = p.data.copy()
    numeric = fd_grad(f, orig.copy())
    p.data = orig
    assert_grad_close(analytic, numeric)


def test_linear_matches_manual():
    store = ParameterStore()
    lin = Linear(store, "l", 3, 2, RNG)
    x = RNG.normal(size=(4, 3))
    got = lin(Tensor(x)).data
    expect = x @ store["l/w"].data + store["l/b"].data
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_mlp_single_stage_is_affine():
    store = ParameterStore()
    mlp = MLP(store, "m", [3, 2], RNG)
    x = RNG.normal(size=(5, 3))
    expect = x @ store["m/l0/w"].data + store["m/l0/b"].data
    np.testing.assert_allclose(mlp(Tensor(x)).data, expect, atol=1e-12)


def test_mlp_hidden_relu():
    store = ParameterStore()
    mlp = MLP(store, "m", [2, 4, 1], RNG)
    x = RNG.normal(size=(3, 2))
    h = np.maximum(x @ store["m/l0/w"].data + store["m/l0/b"].data, 0.0)
    expect = h @ store["m/l1/w"].data + store["m/l1/b"].data
    np.testing.assert_allclose(mlp(Tensor(x)).data, expect, atol=1e-12)


def test_blocks_preserve_shape_and_are_differentiable():
    store = ParameterStore()
    sa = SelfAttentionBlock(store, "sa", 8, 2, RNG)
    ca = CrossAttentionBlock(store, "ca", 8, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 8)))
    kv = Tensor(RNG.normal(size=(3, 8)))
    y = ca(sa(x), kv)
    assert y.shape == (5, 8)
    backward(T.sum_(y))
    assert x.grad is not None and x.grad.shape == (5, 8)
    assert store["sa/attn/q/w"].grad is not None


def test_max_pool2x2_matches_loops():
    x = RNG.normal(size=(2, 3, 4, 6))
    got = max_pool2x2(Tensor(x)).data
    expect = np.zeros((2, 3, 2, 3))
    for b in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(3):
                    expect[b, c, i, j] = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_max_pool2x2_odd_raises():
    with pytest.raises(ShapeMismatch):
        max_pool2x2(Tensor(np.ones((1, 1, 3, 4))))


def _tied_pool_input(rng):
    """ReLU output with many exact zeros (of both signs) and equal positive pairs."""
    x = np.round(rng.normal(size=(3, 4, 6, 8)), 1)
    x[0, 0, 0:2, 0:2] = 0.7                      # a whole window tied
    x[0, 1, 0, 0:2] = x[0, 1, 1, 0:2] = 0.3      # tied rows and columns
    x[1, 0, 0:2, 2:4] = [[0.0, -0.0], [-0.0, 0.0]]
    return T.relu(Tensor(x)).data


def test_max_pool2x2_bitwise_equals_reference_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = _tied_pool_input(rng)
        g = rng.normal(size=(3, 4, 3, 4))
        got = []
        for pool in (reference_max_pool2x2, max_pool2x2):
            leaf = Tensor(x.copy())
            y = pool(leaf)
            backward(T.sum_(y * Tensor(g)))
            got.append((y.data.tobytes(), leaf.grad.tobytes()))
        assert got[0] == got[1]


def test_max_pool2x2_routes_ties_top_then_left():
    x = np.zeros((1, 1, 2, 2))
    x[0, 0] = [[1.0, 2.0], [2.0, 2.0]]
    leaf = Tensor(x)
    backward(T.sum_(max_pool2x2(leaf)))
    np.testing.assert_array_equal(leaf.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


def test_conv2d_layer_adds_bias_per_channel():
    store = ParameterStore()
    conv = Conv2d(store, "c", 2, 3, 3, RNG, stride=1, pad=1)
    x = np.zeros((1, 2, 4, 4))
    got = conv(Tensor(x)).data
    # zero input leaves only the broadcast bias
    expect = np.broadcast_to(store["c/b"].data.reshape(1, 3, 1, 1), got.shape)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_conv_transpose_layer_doubles_resolution():
    store = ParameterStore()
    up = ConvTranspose2d(store, "u", 4, 2, 4, RNG, stride=2, pad=1)
    y = up(Tensor(RNG.normal(size=(1, 4, 4, 4))))
    assert y.shape == (1, 2, 8, 8)


def test_parameter_names_are_prefixed_and_unique():
    store = ParameterStore()
    MultiHeadAttention(store, "block", 4, 2, RNG)
    names = store.names()
    assert all(n.startswith("block/") for n in names)
    assert len(names) == 8  # 4 projections x (w, b)
