"""Shared helpers: an independent central-difference gradient oracle, the
reference 2x2 max-pool and the ungated smooth head."""

import numpy as np

from panelkit.decoder import PanelPrediction
from panelkit.nn import tensor as T


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar ``f`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, tol=1e-5):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
    np.testing.assert_allclose(analytic, numeric, rtol=0, atol=tol * scale)


def reference_max_pool2x2(x):
    """2x2 max-pool composed as a 6-D reshape and ``max_`` over columns, then rows."""
    b, c, h, w = x.shape
    x = T.reshape(x, (b, c, h // 2, 2, w // 2, 2))
    return T.max_(T.max_(x, axis=5), axis=3)


def full_smooth_predictions(model, output):
    """PanelPredictions with the smooth head run on every slot, gated or not."""
    verts, curvs, validity = model.smooth_head(T.Tensor(output.mask_probs.data))
    return [
        PanelPrediction(
            slot=j,
            mask_probs=output.mask_probs.data[j],
            confidence=float(output.confidence.data[j]),
            rotation=output.rotation.data[j],
            translation=output.translation.data[j],
            vertices=verts.data[j],
            curvatures=curvs.data[j],
            edge_validity=validity.data[j],
        )
        for j in range(model.config.num_classes)
    ]
