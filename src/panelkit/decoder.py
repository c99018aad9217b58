"""Panel set decoder: M slot queries conditioned on the global cloud
feature, with placement, confidence and mask heads plus mask-to-Bezier
smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import tensor as T
from .nn.layers import MLP, Conv2d, ConvTranspose2d, CrossAttentionBlock, Linear, SelfAttentionBlock
from .nn.tensor import Tensor, max_pool2x2
from .pattern.types import Panel, SewingPattern


@dataclass
class PanelPrediction:
    slot: int
    mask_probs: np.ndarray       # (H, W) in (0, 1)
    confidence: float
    rotation: np.ndarray         # (3,) degrees
    translation: np.ndarray      # (3,) cm
    vertices: np.ndarray         # (E_max, 2) cm, centroid-relative
    curvatures: np.ndarray       # (E_max, 2) chord-frame
    edge_validity: np.ndarray    # (E_max,) in (0, 1)

    @property
    def num_valid_edges(self):
        return int((self.edge_validity > 0.5).sum())

    def to_panel(self, class_id):
        """Panel from the valid-edge prefix ordering; no invariant check."""
        keep = np.flatnonzero(self.edge_validity > 0.5)
        verts = tuple((float(x), float(y)) for x, y in self.vertices[keep])
        curvs = tuple((float(cx), float(cy)) for cx, cy in self.curvatures[keep])
        return Panel(
            class_id=class_id,
            vertices=verts,
            curvatures=curvs,
            rotation=tuple(float(v) for v in self.rotation),
            translation=tuple(float(v) for v in self.translation),
        )


class PanelDecoder:
    """Two blocks of slot self-attention + cross-attention with F_global."""

    def __init__(self, store, config, rng, prefix="decoder"):
        m, d = config.num_classes, config.feature_dim
        self.pos_embed = store.add(
            f"{prefix}/pos_embed", rng.normal(0.0, 0.5, size=(m, d))
        )
        self.blocks = []
        for i in range(2):
            self.blocks.append(
                (
                    SelfAttentionBlock(store, f"{prefix}/self{i}", d, config.heads, rng),
                    CrossAttentionBlock(store, f"{prefix}/cross{i}", d, config.heads, rng),
                )
            )

    def __call__(self, f_cm, f_global):
        q = f_cm + self.pos_embed
        g = T.reshape(f_global, (1, -1))  # length-1 key/value sequence
        for self_block, cross_block in self.blocks:
            q = self_block(q)
            q = cross_block(q, g)
        return q


class PlacementHead:
    """Bounded per-slot rotation (degrees) and translation (cm)."""

    def __init__(self, store, config, rng, prefix="head/place"):
        d = config.feature_dim
        self.rot = Linear(store, f"{prefix}/rot", d, 3, rng)
        self.tr = Linear(store, f"{prefix}/tr", d, 3, rng)
        self.rot_range = config.rotation_range
        self.tr_range = config.translation_range

    def __call__(self, f_comp):
        rotation = T.tanh(self.rot(f_comp)) * self.rot_range
        translation = T.tanh(self.tr(f_comp)) * self.tr_range
        return rotation, translation


class ConfidenceHead:
    def __init__(self, store, config, rng, prefix="head/conf"):
        self.mlp = MLP(store, prefix, [config.feature_dim, config.feature_dim, 1], rng)

    def __call__(self, f_comp):
        return T.sigmoid(T.reshape(self.mlp(f_comp), (-1,)))


class MaskHead:
    """Projected 4x4 seed grid + three stride-2 up-convolutions to (M, H, W).

    The slot feature is projected to a 16-channel seed so the deconv stack
    keeps enough width to express panel silhouettes at any feature_dim.
    """

    SEED_CHANNELS = 16

    def __init__(self, store, config, rng, prefix="head/mask"):
        d = config.feature_dim
        c0 = self.SEED_CHANNELS
        self.seed = Linear(store, f"{prefix}/seed", d, c0 * 16, rng)
        channels = [c0, c0 // 2, c0 // 4, 1]
        self.c0 = c0
        self.ups = [
            ConvTranspose2d(store, f"{prefix}/up{i}", channels[i], channels[i + 1], 4, rng)
            for i in range(3)
        ]
        self.mask_size = config.mask_size
        if config.mask_size != 32:
            raise ValueError("mask head produces 32x32 masks (4 -> 8 -> 16 -> 32)")

    def __call__(self, f_comp):
        m = f_comp.shape[0]
        x = T.reshape(T.relu(self.seed(f_comp)), (m, self.c0, 4, 4))
        for i, up in enumerate(self.ups):
            x = up(x)
            if i < len(self.ups) - 1:
                x = T.relu(x)
        return T.sigmoid(T.reshape(x, (m, self.mask_size, self.mask_size)))


class SmoothHead:
    """Mask -> closed Bezier loop: conv stack, MLP, tanh-bounded outputs.

    Vertices are scaled by the mask grid's half-extent in cm, so they
    always stay inside the mask's coverage box.
    """

    def __init__(self, store, config, rng, prefix="head/smooth"):
        s = config.mask_size
        self.conv1 = Conv2d(store, f"{prefix}/c1", 1, 8, 3, rng, pad=1)
        self.conv2 = Conv2d(store, f"{prefix}/c2", 8, 16, 3, rng, pad=1)
        flat = 16 * (s // 4) * (s // 4)
        self.e_max = config.e_max
        out_dim = config.e_max * 5  # 2 vertex + 2 curvature + 1 validity per edge
        self.mlp = MLP(store, f"{prefix}/mlp", [flat, 256, out_dim], rng)
        self.half_extent = s * config.mask_scale / 2.0

    def __call__(self, mask_probs):
        """(B, H, W) mask probabilities -> (vertices, curvatures, validity)."""
        b, h, w = mask_probs.shape
        x = T.reshape(mask_probs, (b, 1, h, w))
        x = max_pool2x2(T.relu(self.conv1(x)))
        x = max_pool2x2(T.relu(self.conv2(x)))
        x = T.reshape(x, (b, -1))
        raw = self.mlp(x)
        e = self.e_max
        verts = T.tanh(T.reshape(_slice_cols(raw, 0, 2 * e), (b, e, 2))) * self.half_extent
        curv_raw = T.tanh(T.reshape(_slice_cols(raw, 2 * e, 4 * e), (b, e, 2)))
        # cx in [0, 1], cy signed fraction of the chord
        cx = (_slice_last(curv_raw, 0) + 1.0) * 0.5
        cy = _slice_last(curv_raw, 1)
        curls = T.concat([T.reshape(cx, (b, e, 1)), T.reshape(cy, (b, e, 1))], axis=2)
        validity = T.sigmoid(T.reshape(_slice_cols(raw, 4 * e, 5 * e), (b, e)))
        return verts, curls, validity


def _slice_cols(x, lo, hi):
    n, c = x.shape
    sel = np.zeros((c, hi - lo))
    sel[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return T.matmul(x, Tensor(sel))


def _slice_last(x, idx):
    # (b, e, 2) -> (b, e) picking one component
    sel = np.zeros((x.shape[-1], 1))
    sel[idx, 0] = 1.0
    return T.reshape(T.matmul(x, Tensor(sel)), x.shape[:-1])


def select_panels(predictions, instruction_active=None, threshold=0.5, k=14):
    """Confidence-gated top-k panel selection into an unstitched pattern.

    Slots inactive in the instruction are excluded before thresholding;
    ties in confidence break toward the lower slot index. Predictions
    with fewer than 3 valid edges are dropped.
    """
    kept = []
    for pred in predictions:
        if instruction_active is not None and not instruction_active[pred.slot]:
            continue
        if pred.confidence <= threshold:
            continue
        if pred.num_valid_edges < 3:
            continue
        kept.append(pred)
    # stable sort by descending confidence keeps slot order among ties
    kept.sort(key=lambda p: (-p.confidence, p.slot))
    kept = kept[:k]
    kept.sort(key=lambda p: p.slot)
    panels = tuple(p.to_panel(class_id=p.slot) for p in kept)
    return SewingPattern(panels=panels, stitches=())
