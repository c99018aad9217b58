"""Training objective, training loops and dataset-level evaluation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import Config
from .crossmodal import wasserstein_loss
from .errors import DivergenceDetected, EmptyInput
from .model import PatternModel
from .nn import losses, tensor as T
from .nn.optim import ParameterStore, adam_step
from .nn.tensor import Tensor, backward
from .pattern.metrics import average_report, pattern_metrics, stitch_pr
from .pattern.raster import panel_iou, rasterize_panel
from .pattern.types import Panel, SewingPattern
from .prompt import PanelVocabulary, SketchPrompt
from .stitcher import StitchNet, build_edge_graph, gnn_score, match_stitches
from .synthetic import ALL_FAMILIES, build_pattern, draw_spec

LOSS_PARTS = ("place", "conf", "mask", "con", "asso")


# -- targets -------------------------------------------------------------------


@dataclass
class SampleTargets:
    gt_slots: np.ndarray      # (n,) class ids present in the garment
    conf: np.ndarray          # (M,)
    masks: np.ndarray         # (M, H, W); empty at non-GT slots
    rotation: np.ndarray      # (n, 3)
    translation: np.ndarray   # (n, 3)
    vertices: np.ndarray      # (n, E_max, 2)
    curvatures: np.ndarray    # (n, E_max, 2)
    validity: np.ndarray      # (n, E_max)
    edge_weight: np.ndarray   # (n, E_max): 1 where the edge exists


def canonical_panel(panel):
    """Vertex order rotated to start at the lowest-leftmost vertex (CCW kept)."""
    v = panel.vertex_array()
    start = min(range(len(v)), key=lambda i: (v[i][1], v[i][0]))
    if start == 0:
        return panel
    order = list(range(start, len(v))) + list(range(start))
    return Panel(
        class_id=panel.class_id,
        vertices=tuple(panel.vertices[i] for i in order),
        curvatures=tuple(panel.curvatures[i] for i in order),
        rotation=panel.rotation,
        translation=panel.translation,
    )


def build_targets(sample, config):
    m, e_max = config.num_classes, config.e_max
    size = (config.mask_size, config.mask_size)
    panels = sorted(
        (canonical_panel(p) for p in sample.pattern.panels), key=lambda p: p.class_id
    )
    n = len(panels)
    t = SampleTargets(
        gt_slots=np.array([p.class_id for p in panels], dtype=np.int64),
        conf=np.zeros(m),
        masks=np.zeros((m, *size)),
        rotation=np.zeros((n, 3)),
        translation=np.zeros((n, 3)),
        vertices=np.zeros((n, e_max, 2)),
        curvatures=np.tile(np.array([0.5, 0.0]), (n, e_max, 1)),
        validity=np.zeros((n, e_max)),
        edge_weight=np.zeros((n, e_max)),
    )
    for i, p in enumerate(panels):
        t.conf[p.class_id] = 1.0
        t.masks[p.class_id] = rasterize_panel(p, size, config.mask_scale)
        t.rotation[i] = p.rotation
        t.translation[i] = p.translation
        ne = p.num_edges
        t.vertices[i, :ne] = p.vertex_array()
        for j, c in enumerate(p.curvatures):
            if c is not None:
                t.curvatures[i, j] = c
        t.validity[i, :ne] = 1.0
        t.edge_weight[i, :ne] = 1.0
    return t


# -- instructions ---------------------------------------------------------------


def panel_silhouette(panel, per_edge=16):
    """Panel outline polyline normalized into the unit box."""
    from .pattern.bezier import sample_boundary

    boundary = sample_boundary(panel, per_edge=per_edge)
    boundary = np.concatenate([boundary, boundary[:1]], axis=0)  # close the loop
    lo = boundary.min(axis=0)
    extent = boundary.max(axis=0) - lo
    extent[extent == 0] = 1.0
    return (boundary - lo) / extent


def training_sketches(sample):
    return [
        SketchPrompt(strokes=(panel_silhouette(p),), class_index=p.class_id)
        for p in sample.pattern.panels
    ]


def build_training_instruction(model, sample, mode):
    """GT-class instruction: active at ground-truth slots, null elsewhere."""
    if mode == "text":
        return model.prompts.encode_text(sorted(sample.panel_class_set))
    if mode == "sketch":
        return model.prompts.encode_sketch(training_sketches(sample))
    raise ValueError(f"unknown instruction mode {mode!r}")


# -- composite loss --------------------------------------------------------------


def _weighted_l1(pred, target, weight):
    w = Tensor(weight)
    total = T.sum_(T.abs_(pred - Tensor(target)) * w)
    return total * (1.0 / max(weight.sum(), 1.0))


def composite_loss(model, output, targets, supervise_empty_masks=True):
    """Sum of placement, confidence, mask, contour and association losses.

    Placement terms are computed in head-normalized units so the plain
    sum stays balanced across cm/degree scales. The smooth head is
    supervised on the ground-truth masks (teacher forcing).
    """
    cfg = model.config
    slots = targets.gt_slots
    parts = {}

    rot_pred = T.embedding(output.rotation, slots) * (1.0 / cfg.rotation_range)
    tr_pred = T.embedding(output.translation, slots) * (1.0 / cfg.translation_range)
    parts["place"] = losses.mse(rot_pred, Tensor(targets.rotation / cfg.rotation_range)) + losses.mse(
        tr_pred, Tensor(targets.translation / cfg.translation_range)
    )

    parts["conf"] = losses.bce(output.confidence, Tensor(targets.conf))

    if supervise_empty_masks:
        parts["mask"] = losses.bce(output.mask_probs, Tensor(targets.masks))
    else:
        gt_masks = T.embedding(output.mask_probs, slots)
        parts["mask"] = losses.bce(gt_masks, Tensor(targets.masks[slots]))

    verts, curvs, validity = model.smooth_head(Tensor(targets.masks[slots]))
    vw = np.repeat(targets.edge_weight[:, :, None], 2, axis=2)
    parts["con"] = (
        _weighted_l1(verts * (1.0 / model.smooth_head.half_extent),
                     targets.vertices / model.smooth_head.half_extent, vw)
        + _weighted_l1(curvs, targets.curvatures, vw)
        + losses.bce(validity, Tensor(targets.validity))
    )

    if output.plan is not None:
        parts["asso"] = wasserstein_loss(output.plan, output.cost)
    else:
        parts["asso"] = Tensor(0.0)

    total = None
    for name in LOSS_PARTS:
        term = parts[name] * cfg.loss_weights[name]
        total = term if total is None else total + term
    return total, parts


# -- training loop ----------------------------------------------------------------


def train(dataset, config=None, model=None, log=None):
    """Mini-batch Adam over shuffled samples; returns (model, loss curve)."""
    if not dataset:
        raise EmptyInput("training dataset is empty")
    config = config or Config()
    model = model or PatternModel(config)
    rng = np.random.default_rng(config.seed + 1)
    curve = []  # (epoch, part, value)
    n = len(dataset)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_parts = {p: 0.0 for p in LOSS_PARTS}
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = None
            for idx in batch:
                sample = dataset[idx]
                mode = _draw_mode(config, rng)
                use_standard = rng.random() < config.standard_instruction_prob
                if use_standard:
                    # fall back to text prompts until sketch prototypes exist
                    std_mode = mode if _standard_available(model, mode) else "text"
                    instruction = model.prompts.build_standard_instruction(std_mode)
                else:
                    instruction = build_training_instruction(model, sample, mode)
                targets = build_targets(sample, config)
                output = model.forward(sample.points, instruction)
                total, parts = composite_loss(
                    model, output, targets, supervise_empty_masks=not use_standard
                )
                if not np.isfinite(total.data):
                    raise DivergenceDetected(f"loss is {total.data} at epoch {epoch}")
                model.store.zero_grad()
                backward(total)
                g = model.store.gradients()
                if grads is None:
                    grads = g
                else:
                    grads = {k: grads[k] + g[k] for k in grads}
                epoch_total += float(total.data)
                for p in LOSS_PARTS:
                    epoch_parts[p] += float(parts[p].data)
            grads = {k: v / len(batch) for k, v in grads.items()}
            adam_step(model.store, config.learning_rate, grads=grads)
        for p in LOSS_PARTS:
            curve.append((epoch, p, epoch_parts[p] / n))
        curve.append((epoch, "total", epoch_total / n))
        if log:
            log(epoch, epoch_total / n, {p: epoch_parts[p] / n for p in LOSS_PARTS})
        if (
            config.mask_loss_stop > 0
            and epoch_parts["mask"] / n < config.mask_loss_stop
            and (
                config.place_loss_stop <= 0
                or epoch_parts["place"] / n < config.place_loss_stop
            )
        ):
            break
    _refresh_prototypes(model, dataset)
    return model, curve


def _draw_mode(config, rng):
    mode = getattr(config, "prompt_mode", "mixed")
    if mode == "mixed":
        return "text" if rng.random() < 0.5 else "sketch"
    return mode


def _standard_available(model, mode):
    if mode == "text":
        return True
    return len(model.prompts.prototypes) == model.config.num_classes


def _refresh_prototypes(model, dataset):
    """Mean raw sketch embedding per class over the training silhouettes."""
    by_class = {}
    for sample in dataset:
        for sk in training_sketches(sample):
            by_class.setdefault(sk.class_index, []).append(sk)
    missing = set(range(model.config.num_classes)) - set(by_class)
    if missing:
        # datasets not covering every class keep text-only standard mode
        for cid, sks in by_class.items():
            model.prompts.prototypes[cid] = np.mean(
                [model.prompts._raw_sketch(sk).data[0] for sk in sks], axis=0
            )
        return
    model.prompts.build_prototypes(by_class)


def save_loss_curve(curve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "part", "value"])
        for epoch, part, value in curve:
            writer.writerow([epoch, part, f"{value:.8f}"])


# -- stitcher training --------------------------------------------------------------


def _class_stitches(pattern):
    """Stitches keyed by (class_id, edge) so patterns are comparable."""
    out = set()
    for a, b in pattern.stitches:
        ca = (pattern.panels[a[0]].class_id, a[1])
        cb = (pattern.panels[b[0]].class_id, b[1])
        out.add((min(ca, cb), max(ca, cb)))
    return out


def _stitch_training_patterns(model, dataset, config):
    """Panel sets the stitcher trains on: predicted edges by default."""
    patterns = []
    for sample in dataset:
        if config.stitch_use_gt_edges:
            patterns.append((sample.pattern, sample.pattern))
            continue
        instruction = build_training_instruction(model, sample, "text")
        pattern, _ = model.infer(sample.points, instruction)
        patterns.append((pattern, sample.pattern))
    return patterns


def train_stitcher(model, dataset, config=None, log=None):
    """Fit the stitch scorer with BCE + Adam on candidate edge pairs."""
    config = config or model.config
    rng = np.random.default_rng(config.seed + 7)
    store = ParameterStore()
    net = StitchNet(store, rng, rounds=config.stitch_rounds, width=config.stitch_width)
    graphs = []
    for pred_pattern, gt_pattern in _stitch_training_patterns(model, dataset, config):
        nodes, pairs = build_edge_graph(pred_pattern, candidates=config.stitch_candidates)
        if not pairs:
            continue
        truth = _class_stitches(gt_pattern)
        labels = []
        for i, j in pairs:
            key_a = (pred_pattern.panels[nodes[i].panel_index].class_id, nodes[i].edge_index)
            key_b = (pred_pattern.panels[nodes[j].panel_index].class_id, nodes[j].edge_index)
            labels.append(1.0 if (min(key_a, key_b), max(key_a, key_b)) in truth else 0.0)
        graphs.append((nodes, pairs, np.asarray(labels)))
    if not graphs:
        raise EmptyInput("no stitch training graphs")
    for epoch in range(config.stitch_epochs):
        total = 0.0
        for nodes, pairs, labels in graphs:
            _, probs = net.score_pairs(nodes, pairs)
            loss = losses.bce(probs, Tensor(labels))
            store.zero_grad()
            backward(loss)
            adam_step(store, config.stitch_lr)
            total += float(loss.data)
        if log:
            log(epoch, total / len(graphs))
    return net, store


def predict_stitches(net, pattern, candidates=6, threshold=0.5):
    nodes, pairs = build_edge_graph(pattern, candidates=candidates)
    scores = gnn_score(net, nodes, pairs)
    return tuple(match_stitches(scores, threshold=threshold))


# -- evaluation ---------------------------------------------------------------------


def evaluate_standard(model, dataset, mode="text", stitch_net=None):
    """Standard inference protocol: all slots active, metrics vs ground truth."""
    if not dataset:
        raise EmptyInput("evaluation dataset is empty")
    cfg = model.config
    reports = []
    mask_ious = []
    stitch_ps, stitch_rs = [], []
    if mode == "sketch" and not _standard_available(model, mode):
        # partial prototype coverage: activate every class that has one
        standard = _instruction_for_classes(model, sorted(model.prompts.prototypes), mode)
    else:
        standard = None
    for sample in dataset:
        instruction = standard or model.prompts.build_standard_instruction(mode)
        pattern, preds = model.infer(sample.points, instruction)
        if stitch_net is not None:
            stitches = predict_stitches(
                stitch_net, pattern, candidates=cfg.stitch_candidates
            )
            pattern = SewingPattern(panels=pattern.panels, stitches=stitches)
            p, r = stitch_pr(
                _class_stitches(pattern), _class_stitches(sample.pattern)
            )
            stitch_ps.append(p)
            stitch_rs.append(r)
        reports.append(pattern_metrics(pattern, sample.pattern))
        for panel in sample.pattern.panels:
            gt_mask = rasterize_panel(
                panel, (cfg.mask_size, cfg.mask_size), cfg.mask_scale
            )
            mask_ious.append(
                panel_iou(preds[panel.class_id].mask_probs > 0.5, gt_mask)
            )
    report = average_report(reports)
    extras = {"mask_iou": float(np.mean(mask_ious))}
    if stitch_ps:
        extras["stitch_precision"] = float(np.mean(stitch_ps))
        extras["stitch_recall"] = float(np.mean(stitch_rs))
    return report, extras


def family_classes(family, vocabulary=None):
    vocabulary = vocabulary or PanelVocabulary()
    spec = draw_spec(family, np.random.default_rng(0))
    pattern = build_pattern(spec, vocabulary)
    return sorted(p.class_id for p in pattern.panels)


def average_family_masks(dataset, family, config):
    """Per-class mean panel geometry of a family, rasterized."""
    by_class = {}
    for sample in dataset:
        if sample.garment_class != family:
            continue
        for p in sample.pattern.panels:
            by_class.setdefault(p.class_id, []).append(p)
    masks = {}
    for cid, panels in by_class.items():
        verts = np.mean([p.vertex_array() for p in panels], axis=0)
        curvs = []
        for j in range(panels[0].num_edges):
            cs = [p.curvatures[j] if p.curvatures[j] is not None else (0.5, 0.0) for p in panels]
            curvs.append(tuple(np.mean(cs, axis=0)))
        avg = Panel(
            class_id=cid,
            vertices=tuple(map(tuple, verts)),
            curvatures=tuple(curvs),
        )
        masks[cid] = rasterize_panel(avg, (config.mask_size, config.mask_size), config.mask_scale)
    return masks


def _instruction_for_classes(model, classes, mode):
    if mode == "text":
        return model.prompts.encode_text(classes)
    rows = {}
    for cid in classes:
        if cid not in model.prompts.prototypes:
            raise EmptyInput(f"no sketch prototype for class {cid}")
    from .nn.tensor import Tensor as _T

    raw = {cid: _T(model.prompts.prototypes[cid][None, :]) for cid in classes}
    return model.prompts._instruction(raw, {cid: "sketch" for cid in classes})


def personalization_iou(model, sample, classes, target_masks, mode="text"):
    """Mean IOU of the garment's predicted panels against target-class masks."""
    cfg = model.config
    instruction = _instruction_for_classes(model, classes, mode)
    output = model.forward(sample.points, instruction)
    empty = np.zeros((cfg.mask_size, cfg.mask_size))
    ious = []
    for cid, target in sorted(target_masks.items()):
        present = (
            instruction.active[cid]
            and float(output.confidence.data[cid]) > cfg.confidence_threshold
        )
        pred = output.mask_probs.data[cid] > 0.5 if present else empty
        ious.append(panel_iou(pred, target))
    return float(np.mean(ious))


def evaluate_personalized(model, dataset, cases, mode="text"):
    """Panel IOU vs the target family's average panels, before and after
    switching the instruction from source to target classes."""
    if not dataset:
        raise EmptyInput("evaluation dataset is empty")
    results = []
    for source_family, target_family in cases:
        target_masks = average_family_masks(dataset, target_family, model.config)
        if not target_masks:
            raise EmptyInput(f"no samples of target family {target_family!r}")
        src_classes = family_classes(source_family)
        tgt_classes = sorted(target_masks)
        before, after = [], []
        for sample in dataset:
            if sample.garment_class != source_family:
                continue
            before.append(
                personalization_iou(model, sample, src_classes, target_masks, mode)
            )
            after.append(
                personalization_iou(model, sample, tgt_classes, target_masks, mode)
            )
        results.append(
            {
                "source": source_family,
                "target": target_family,
                "mode": mode,
                "before": float(np.mean(before)),
                "after": float(np.mean(after)),
            }
        )
    return results
