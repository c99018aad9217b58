"""Central finite-difference verification of every differentiable part."""

from __future__ import annotations

import numpy as np

from .config import Config
from .nn import layers, losses, tensor as T
from .nn.optim import ParameterStore
from .nn.tensor import Tensor, backward

H_STEP = 1e-4


def relative_error(analytic, numeric):
    diff = abs(analytic - numeric)
    if diff < 1e-7:
        # below the central-difference noise floor at h = 1e-4
        return diff
    return diff / max(abs(analytic), abs(numeric), 1e-8)


def check_scalar_fn(make_loss, tensors, h=H_STEP, samples=4, rng=None):
    """Max relative error between tape and central-difference gradients.

    make_loss() must rebuild the scalar loss from the tensors' current
    data. A few random coordinates are probed per tensor.
    """
    rng = rng or np.random.default_rng(0)
    loss = make_loss()
    for t in tensors:
        t.grad = None
    backward(loss)
    base = float(loss.data)
    worst = 0.0
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        count = min(samples, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        for c in coords:
            keep = flat[c]
            best = None
            for step in (h, h / 10.0, h / 100.0, h / 1000.0):
                flat[c] = keep + step
                up = float(make_loss().data)
                flat[c] = keep - step
                down = float(make_loss().data)
                flat[c] = keep
                fwd = (up - base) / step
                bwd = (base - down) / step
                # allowance: relative slope curvature plus evaluation noise,
                # which grows as the probe window shrinks
                tol = 1e-4 * max(abs(fwd), abs(bwd)) + 1e-6 * (h / step)
                if abs(fwd - bwd) <= tol:
                    numeric = (up - down) / (2.0 * step)
                    err = relative_error(float(gflat[c]), numeric)
                    best = err if best is None else min(best, err)
                    if err < 1e-5:
                        break
                    # agreeing slopes with a large mismatch can still hide a
                    # tiny kink inside the window; shrink further to confirm
                # one-sided slopes disagree: a relu/max kink sits inside the
                # probe window, where the derivative is not defined; shrink
                # the window, and give up on the coordinate if it never clears
            if best is not None:
                worst = max(worst, best)
    return worst


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def _checks_primitives(rng):
    a = _rand(rng, 3, 4)
    b = _rand(rng, 3, 4)
    c = _rand(rng, 4, 5)
    pos = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5)
    probs = Tensor(rng.uniform(0.1, 0.9, size=(3, 4)))
    targets = rng.uniform(0.1, 0.9, size=(3, 4))
    idx = np.array([0, 2, 1, 2])
    img = _rand(rng, 2, 2, 6, 6)
    kern = _rand(rng, 3, 2, 3, 3)
    kern_t = _rand(rng, 2, 3, 4, 4)
    pool_in = _rand(rng, 2, 3, 4, 6)  # continuous draws: no ties inside a window
    return [
        ("add", lambda: T.sum_((a + b) * (a + b)), [a, b]),
        ("mul", lambda: T.sum_(a * b + a * 2.0), [a, b]),
        ("div", lambda: T.sum_(a / pos), [a, pos]),
        ("matmul", lambda: T.sum_(T.matmul(a, c)), [a, c]),
        ("exp", lambda: T.sum_(T.exp(a * 0.3)), [a]),
        ("log", lambda: T.sum_(T.log(pos)), [pos]),
        ("pow", lambda: T.sum_(T.pow_const(pos, 1.7)), [pos]),
        ("sigmoid", lambda: T.sum_(T.sigmoid(a)), [a]),
        ("tanh", lambda: T.sum_(T.tanh(a)), [a]),
        ("relu", lambda: T.sum_(T.relu(a + 0.05)), [a]),
        ("clamp", lambda: T.sum_(T.clamp(a, -0.5, 0.5) * a), [a]),
        ("abs", lambda: T.sum_(T.abs_(a + 0.05)), [a]),
        ("reshape", lambda: T.sum_(T.reshape(a, (4, 3)) * 3.0), [a]),
        ("transpose", lambda: T.sum_(T.transpose(a) * T.transpose(b)), [a, b]),
        ("concat", lambda: T.sum_(T.concat([a, b], axis=0) * 2.0), [a, b]),
        ("sum", lambda: T.sum_(T.sum_(a, axis=1) * T.sum_(b, axis=1)), [a, b]),
        ("mean", lambda: T.sum_(T.mean(a, axis=0) * T.mean(b, axis=0)), [a, b]),
        ("max", lambda: T.sum_(T.max_(a, axis=1)), [a]),
        ("max_pool2x2", lambda: T.sum_(T.pow_const(T.max_pool2x2(pool_in), 2.0)), [pool_in]),
        ("softmax", lambda: T.sum_(T.softmax(a, axis=1) * b), [a, b]),
        ("layer_norm", lambda: T.sum_(T.layer_norm(a) * b), [a, b]),
        ("embedding", lambda: T.sum_(T.embedding(a, idx) * 1.5), [a]),
        ("conv2d", lambda: T.sum_(T.conv2d(img, kern, stride=1, pad=1)), [img, kern]),
        (
            "conv_transpose2d",
            lambda: T.sum_(T.conv_transpose2d(img, kern_t, stride=2, pad=1)),
            [img, kern_t],
        ),
        ("mse", lambda: losses.mse(a, b), [a]),
        ("l1", lambda: losses.l1(a, b), [a]),
        ("bce", lambda: losses.bce(probs, Tensor(targets)), [probs]),
    ]


def _checks_attention(rng):
    q = _rand(rng, 3, 8)
    k = _rand(rng, 5, 8)
    v = _rand(rng, 5, 8)
    store = ParameterStore()
    mha = layers.MultiHeadAttention(store, "mha", 8, 2, rng)
    sab = layers.SelfAttentionBlock(store, "sab", 8, 2, rng)
    cab = layers.CrossAttentionBlock(store, "cab", 8, 2, rng)
    params = list(store.params.values())
    return [
        (
            "scaled_dot_attention",
            lambda: T.sum_(layers.scaled_dot_attention(q, k, v, heads=2)),
            [q, k, v],
        ),
        ("multi_head_attention", lambda: T.sum_(mha(q, k, v)), [q] + params),
        ("self_attention_block", lambda: T.sum_(sab(q)), [q] + params),
        ("cross_attention_block", lambda: T.sum_(cab(q, k)), [q, k] + params),
    ]


def _tiny_config():
    return Config(
        num_points=48,
        num_patches=4,
        patch_k=4,
        feature_dim=16,
        prompt_raw_dim=24,
        num_classes=5,
        heads=2,
        ot_iters=50,
    )


def _checks_model(rng):
    from .model import PatternModel
    from .training import SampleTargets, composite_loss

    cfg = _tiny_config()
    model = PatternModel(cfg)
    points = rng.standard_normal((cfg.num_points, 3)) * 5.0
    # rebuild the instruction per probe so prompt-encoder parameters are covered
    instruction = lambda: model.prompts.encode_text([0, 2, 3])

    n, e = 3, cfg.e_max
    targets = SampleTargets(
        gt_slots=np.array([0, 2, 3]),
        conf=np.array([1.0, 0.0, 1.0, 1.0, 0.0]),
        # generic (non-binary) masks: exact value ties in max pooling sit on
        # kinks where finite differences are undefined
        masks=rng.uniform(0.05, 0.95, size=(cfg.num_classes, cfg.mask_size, cfg.mask_size)),
        rotation=rng.uniform(-90, 90, size=(n, 3)),
        translation=rng.uniform(-20, 20, size=(n, 3)),
        vertices=rng.uniform(-8, 8, size=(n, e, 2)),
        curvatures=np.tile(np.array([0.5, 0.0]), (n, e, 1)),
        validity=(rng.uniform(size=(n, e)) > 0.4).astype(float),
        edge_weight=np.ones((n, e)),
    )

    params = list(model.store.params.values())
    # the transport plan is a constant during backprop, so pin it for the
    # finite-difference probe as well
    plan0 = model.forward(points, instruction()).plan

    def loss_total():
        output = model.forward(points, instruction())
        output.plan = plan0
        total, _ = composite_loss(model, output, targets)
        return total

    def loss_heads():
        output = model.forward(points, instruction())
        return (
            T.sum_(output.rotation * 0.01)
            + T.sum_(output.translation * 0.01)
            + T.sum_(output.confidence)
            + T.sum_(output.mask_probs) * 0.01
        )

    def loss_smooth():
        verts, curvs, validity = model.smooth_head(Tensor(targets.masks[:3]))
        return T.sum_(verts * 0.1) + T.sum_(curvs) + T.sum_(validity)

    return [
        ("model_heads", loss_heads, params),
        ("smooth_head", loss_smooth, params),
        ("composite_loss", loss_total, params),
    ]


def run_suite(seed=0, samples=3):
    """All checks; returns list of (name, max relative error)."""
    rng = np.random.default_rng(seed)
    checks = _checks_primitives(rng) + _checks_attention(rng) + _checks_model(rng)
    results = []
    for name, fn, tensors in checks:
        err = check_scalar_fn(fn, tensors, samples=samples, rng=rng)
        results.append((name, err))
    return results
