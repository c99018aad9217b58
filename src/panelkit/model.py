"""End-to-end model: cloud encoders, prompt fusion, panel decoder, heads."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .config import Config
from .crossmodal import FusionBlock, cost_matrix, solve_transport
from .decoder import (
    ConfidenceHead,
    MaskHead,
    PanelDecoder,
    PanelPrediction,
    PlacementHead,
    SmoothHead,
    select_panels,
)
from .errors import CheckpointMismatch, NonFiniteCloud
from .nn import tensor as T
from .nn.checkpoint import load_arrays, save_arrays
from .nn.optim import ParameterStore
from .nn.tensor import Tensor
from .pointcloud import GlobalEncoder, PatchEmbedder, farthest_point_sample, knn_group
from .prompt import PromptEncoder


@dataclass
class ModelOutput:
    """Tape-connected forward results for one sample."""

    f_loc: object          # (g, D)
    f_global: object       # (D,)
    f_cm: object           # (M, D)
    f_comp: object         # (M, D)
    rotation: object       # (M, 3) degrees
    translation: object    # (M, 3) cm
    confidence: object     # (M,)
    mask_probs: object     # (M, H, W)
    plan: object           # TransportPlan or None (no active slots)
    cost: object           # CostMatrix or None
    active: np.ndarray     # (M,) bool, the instruction's active mask


_ENCODER_PREFIXES = ("local/", "global/")  # parameters encode_cloud reads


@dataclass
class _CloudEncoding:
    """Detached encoder features of one subsampled cloud, with everything
    they depend on: the cloud's bytes, the config and the encoder weights."""

    cloud: bytes
    shape: tuple
    config: Config
    params: dict           # encoder parameter name -> copy of its values
    f_loc: np.ndarray
    f_global: np.ndarray

    def matches(self, cloud, config, store):
        return (
            self.shape == cloud.shape
            and self.cloud == cloud.tobytes()
            and self.config == config
            and all(np.array_equal(store[n].data, v) for n, v in self.params.items())
        )


class PatternModel:
    def __init__(self, config=None, seed=None):
        self.config = config or Config()
        rng = np.random.default_rng(self.config.seed if seed is None else seed)
        self.store = ParameterStore()
        self.patch_embed = PatchEmbedder(self.store, self.config, rng)
        self.global_enc = GlobalEncoder(self.store, self.config, rng)
        self.prompts = PromptEncoder(self.store, self.config, rng)
        self.fusion = FusionBlock(self.store, self.config, rng)
        self.decoder = PanelDecoder(self.store, self.config, rng)
        self.place_head = PlacementHead(self.store, self.config, rng)
        self.conf_head = ConfidenceHead(self.store, self.config, rng)
        self.mask_head = MaskHead(self.store, self.config, rng)
        self.smooth_head = SmoothHead(self.store, self.config, rng)
        self._last_encoding = None  # the cloud infer encoded last

    # -- encoding ------------------------------------------------------------

    def subsample(self, points):
        """The cloud the encoders see: at most num_points of its points,
        drawn by a seeded permutation. Raises NonFiniteCloud on NaN or inf."""
        n = self.config.num_points
        points = np.asarray(points, dtype=np.float64)
        if not np.isfinite(points).all():
            raise NonFiniteCloud("point cloud has NaN or infinite coordinates")
        if len(points) <= n:
            return points
        idx = np.random.default_rng(self.config.seed).permutation(len(points))[:n]
        return points[idx]

    def encode_cloud(self, points):
        points = self.subsample(points)
        centers = farthest_point_sample(points, self.config.num_patches, self.config.seed)
        patches = knn_group(points, centers, self.config.patch_k)
        f_loc = self.patch_embed(patches)
        _, f_global = self.global_enc(points)
        return f_loc, f_global

    def _reusable_encoding(self, points):
        """encode_cloud(points), detached, reused while the subsampled cloud,
        the config and the encoder parameters match the last cloud's."""
        cloud = self.subsample(points)
        entry = self._last_encoding
        if entry is None or not entry.matches(cloud, self.config, self.store):
            f_loc, f_global = self.encode_cloud(cloud)
            entry = self._last_encoding = _CloudEncoding(
                cloud=cloud.tobytes(),
                shape=cloud.shape,
                config=copy.deepcopy(self.config),
                params={
                    name: t.data.copy()
                    for name, t in self.store.params.items()
                    if name.startswith(_ENCODER_PREFIXES)
                },
                f_loc=f_loc.data,
                f_global=f_global.data,
            )
        return Tensor(entry.f_loc), Tensor(entry.f_global)

    # -- full forward ---------------------------------------------------------

    def forward(self, points, instruction, encoding=None):
        """Tape-connected forward pass; ``encoding``, the (f_loc, f_global)
        of ``encode_cloud(points)``, skips the cloud encoders."""
        f_loc, f_global = encoding if encoding is not None else self.encode_cloud(points)
        active = instruction.active_indices()
        if len(active) > 0:
            p_active = T.embedding(instruction.features, active)
            cost = cost_matrix(p_active, f_loc)
            plan = solve_transport(
                cost, epsilon=self.config.ot_epsilon, iters=self.config.ot_iters
            )
        else:
            cost, plan = None, None
        f_cm = self.fusion(instruction.features, f_loc)
        f_comp = self.decoder(f_cm, f_global)
        rotation, translation = self.place_head(f_comp)
        confidence = self.conf_head(f_comp)
        mask_probs = self.mask_head(f_comp)
        return ModelOutput(
            f_loc=f_loc,
            f_global=f_global,
            f_cm=f_cm,
            f_comp=f_comp,
            rotation=rotation,
            translation=translation,
            confidence=confidence,
            mask_probs=mask_probs,
            plan=plan,
            cost=cost,
            active=np.asarray(instruction.active, dtype=bool),
        )

    # -- inference -----------------------------------------------------------

    def predictions(self, output):
        """Detach a forward pass into per-slot PanelPredictions.

        The smooth head runs only on the slots select_panels can keep:
        active in the instruction and above the confidence threshold. The
        other slots get all-zero vertices, curvatures and edge validity.
        """
        cfg = self.config
        m, e = cfg.num_classes, cfg.e_max
        conf = output.confidence.data
        rows = np.flatnonzero(output.active & (conf > cfg.confidence_threshold))
        verts, curvs, validity = np.zeros((m, e, 2)), np.zeros((m, e, 2)), np.zeros((m, e))
        if len(rows):
            smoothed = self.smooth_head(Tensor(output.mask_probs.data[rows]))
            for full, part in zip((verts, curvs, validity), smoothed):
                full[rows] = part.data
        return [
            PanelPrediction(
                slot=j,
                mask_probs=output.mask_probs.data[j],
                confidence=float(conf[j]),
                rotation=output.rotation.data[j].copy(),
                translation=output.translation.data[j].copy(),
                vertices=verts[j],
                curvatures=curvs[j],
                edge_validity=validity[j],
            )
            for j in range(m)
        ]

    def infer(self, points, instruction):
        """Unstitched pattern for a cloud under the given instruction.

        Re-prompting the cloud of the previous call reuses its encoding.
        """
        output = self.forward(points, instruction, self._reusable_encoding(points))
        preds = self.predictions(output)
        return select_panels(
            preds,
            instruction_active=instruction.active,
            threshold=self.config.confidence_threshold,
            k=self.config.top_k,
        ), preds

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        arrays = {name: t.data for name, t in self.store.params.items()}
        for cid, proto in self.prompts.prototypes.items():
            arrays[f"__prototype__/{cid}"] = proto
        cfg_bytes = json.dumps(self.config.__dict__, sort_keys=True).encode("utf-8")
        arrays["__meta__/config"] = np.frombuffer(cfg_bytes, dtype=np.uint8).astype(
            np.float64
        )
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path):
        arrays = load_arrays(path)
        if "__meta__/config" not in arrays:
            raise CheckpointMismatch(f"{path}: missing config record")
        cfg_doc = json.loads(
            arrays.pop("__meta__/config").astype(np.uint8).tobytes().decode("utf-8")
        )
        config = Config.from_dict(cfg_doc)
        model = cls(config)
        prototypes = {}
        for name in list(arrays):
            if name.startswith("__prototype__/"):
                prototypes[int(name.split("/", 1)[1])] = arrays.pop(name)
        model.prompts.prototypes = prototypes
        try:
            model.store.load_values(arrays)
        except KeyError as exc:
            raise CheckpointMismatch(str(exc)) from exc
        return model
