"""Target assembly, composite loss, training loop and evaluation protocols."""

import csv

import numpy as np
import pytest

from panelkit.config import Config
from panelkit.errors import EmptyInput
from panelkit.model import PatternModel
from panelkit.nn import tensor as T
from panelkit.nn.tensor import Tensor
from panelkit.decoder import select_panels
from panelkit.pattern.metrics import average_report, pattern_metrics
from panelkit.pattern.raster import panel_iou, rasterize_panel
from panelkit.pattern.types import Panel
from panelkit.synthetic import generate_dataset, generate_sample
from panelkit.training import (
    build_targets,
    build_training_instruction,
    canonical_panel,
    composite_loss,
    evaluate_personalized,
    evaluate_standard,
    family_classes,
    panel_silhouette,
    save_loss_curve,
    train,
    train_stitcher,
)

RNG = np.random.default_rng(71)


def _tiny():
    return Config(
        num_points=48,
        num_patches=4,
        patch_k=4,
        feature_dim=16,
        prompt_raw_dim=24,
        heads=2,
        ot_iters=100,
        epochs=2,
        batch_size=4,
        stitch_epochs=2,
    )


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(("skirt-2p", "tee"), 4, seed=3)


@pytest.fixture(scope="module")
def model():
    return PatternModel(_tiny(), seed=5)


# -- targets ------------------------------------------------------------------------


def test_canonical_panel_starts_lowest_leftmost():
    panel = Panel(
        class_id=0,
        vertices=((5.0, 5.0), (-5.0, 5.0), (-5.0, -5.0), (5.0, -5.0)),
        curvatures=(None, (0.5, 0.2), None, None),
    )
    canon = canonical_panel(panel)
    assert canon.vertices[0] == (-5.0, -5.0)
    # curvature follows its edge through the rotation
    assert canon.curvatures[3] == (0.5, 0.2)
    np.testing.assert_allclose(
        sorted(map(tuple, canon.vertex_array())),
        sorted(map(tuple, panel.vertex_array())),
    )


def test_canonical_panel_identity_when_already_canonical():
    panel = Panel(
        class_id=0,
        vertices=((-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)),
        curvatures=(None,) * 4,
    )
    assert canonical_panel(panel) is panel


def test_build_targets_shapes_and_slots(dataset):
    cfg = _tiny()
    sample = dataset[0]
    t = build_targets(sample, cfg)
    n = len(sample.pattern.panels)
    assert t.gt_slots.shape == (n,)
    assert list(t.gt_slots) == sorted(t.gt_slots)
    assert t.conf.shape == (cfg.num_classes,)
    assert t.conf.sum() == n
    assert t.masks.shape == (cfg.num_classes, cfg.mask_size, cfg.mask_size)
    assert t.rotation.shape == (n, 3) and t.translation.shape == (n, 3)
    assert t.vertices.shape == (n, cfg.e_max, 2)
    assert t.validity.shape == (n, cfg.e_max)


def test_build_targets_masks_match_rasterizer(dataset):
    cfg = _tiny()
    sample = dataset[0]
    t = build_targets(sample, cfg)
    size = (cfg.mask_size, cfg.mask_size)
    for p in sample.pattern.panels:
        expect = rasterize_panel(canonical_panel(p), size, cfg.mask_scale)
        np.testing.assert_array_equal(t.masks[p.class_id], expect)
    # non-GT slots stay empty
    inactive = [c for c in range(cfg.num_classes) if c not in set(t.gt_slots)]
    assert t.masks[inactive].sum() == 0.0


def test_build_targets_edge_weight_marks_real_edges(dataset):
    t = build_targets(dataset[0], _tiny())
    np.testing.assert_array_equal(t.edge_weight, t.validity)
    for i, slot in enumerate(t.gt_slots):
        ne = next(
            p.num_edges for p in dataset[0].pattern.panels if p.class_id == slot
        )
        assert t.validity[i].sum() == ne


def test_panel_silhouette_fits_unit_box():
    panel = Panel(
        class_id=0,
        vertices=((-7.0, -3.0), (7.0, -3.0), (7.0, 3.0), (-7.0, 3.0)),
        curvatures=(None,) * 4,
    )
    sil = panel_silhouette(panel)
    assert sil.min() >= 0.0 and sil.max() <= 1.0
    assert sil[:, 0].max() == 1.0 and sil[:, 1].max() == 1.0
    np.testing.assert_allclose(sil[0], sil[-1])  # closed loop


def test_training_instruction_activates_gt_classes(model, dataset):
    sample = dataset[0]
    for mode in ("text", "sketch"):
        ins = build_training_instruction(model, sample, mode)
        assert set(np.flatnonzero(ins.active)) == sample.panel_class_set
    with pytest.raises(ValueError):
        build_training_instruction(model, sample, "audio")


# -- composite loss -------------------------------------------------------------------


def _forward(model, sample, mode="text"):
    instruction = build_training_instruction(model, sample, mode)
    return model.forward(sample.points, instruction)


def test_composite_loss_parts_sum_to_total(model, dataset):
    sample = dataset[0]
    targets = build_targets(sample, model.config)
    total, parts = composite_loss(model, _forward(model, sample), targets)
    assert set(parts) == {"place", "conf", "mask", "con", "asso"}
    expect = sum(
        float(parts[k].data) * model.config.loss_weights[k] for k in parts
    )
    assert float(total.data) == pytest.approx(expect, rel=1e-12)
    assert all(float(v.data) >= 0.0 for v in parts.values())


def test_composite_loss_weights_scale_linearly(dataset):
    cfg = _tiny()
    model = PatternModel(cfg, seed=5)
    sample = dataset[0]
    targets = build_targets(sample, cfg)
    output = _forward(model, sample)
    base_total, base_parts = composite_loss(model, output, targets)
    cfg.loss_weights["place"] = 3.0
    new_total, new_parts = composite_loss(model, output, targets)
    assert float(new_parts["place"].data) == float(base_parts["place"].data)
    gained = float(new_total.data) - float(base_total.data)
    assert gained == pytest.approx(2.0 * float(base_parts["place"].data), rel=1e-9)


def test_composite_loss_gt_only_mask_variant(model, dataset):
    sample = dataset[0]
    targets = build_targets(sample, model.config)
    output = _forward(model, sample)
    _, full = composite_loss(model, output, targets, supervise_empty_masks=True)
    _, gt_only = composite_loss(model, output, targets, supervise_empty_masks=False)
    # hand-computed BCE restricted to ground-truth slots
    probs = np.clip(output.mask_probs.data[targets.gt_slots], 1e-7, 1 - 1e-7)
    want = -np.mean(
        targets.masks[targets.gt_slots] * np.log(probs)
        + (1 - targets.masks[targets.gt_slots]) * np.log(1 - probs)
    )
    assert float(gt_only["mask"].data) == pytest.approx(want, rel=1e-12)
    assert float(gt_only["mask"].data) != float(full["mask"].data)


def test_placement_loss_is_range_normalized(model, dataset):
    sample = dataset[0]
    targets = build_targets(sample, model.config)
    output = _forward(model, sample)
    _, parts = composite_loss(model, output, targets)
    cfg = model.config
    rot = output.rotation.data[targets.gt_slots] / cfg.rotation_range
    tr = output.translation.data[targets.gt_slots] / cfg.translation_range
    want = np.mean((rot - targets.rotation / cfg.rotation_range) ** 2) + np.mean(
        (tr - targets.translation / cfg.translation_range) ** 2
    )
    assert float(parts["place"].data) == pytest.approx(want, rel=1e-9)


def test_composite_loss_gradients_reach_parameters(model, dataset):
    sample = dataset[0]
    targets = build_targets(sample, model.config)
    total, _ = composite_loss(model, _forward(model, sample), targets)
    model.store.zero_grad()
    T.backward(total)
    grads = model.store.gradients()
    nonzero = sum(1 for g in grads.values() if np.abs(g).max() > 0)
    assert nonzero > len(grads) * 0.5


# -- training loop ---------------------------------------------------------------------


def test_train_rejects_empty_dataset():
    with pytest.raises(EmptyInput):
        train([], _tiny())


def test_train_zero_lr_leaves_parameters_unchanged(dataset):
    cfg = _tiny()
    cfg.learning_rate = 0.0
    cfg.epochs = 1
    model = PatternModel(cfg, seed=9)
    before = {k: model.store[k].data.copy() for k in model.store.names()}
    train(dataset, cfg, model=model)
    for k, v in before.items():
        np.testing.assert_array_equal(model.store[k].data, v)


def test_train_reduces_loss_and_is_deterministic(dataset):
    cfg = _tiny()
    cfg.epochs = 4
    cfg.prompt_mode = "text"
    _, curve_a = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    _, curve_b = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    assert curve_a == curve_b
    totals = [v for e, p, v in curve_a if p == "total"]
    assert totals[-1] < totals[0]


def test_train_matches_reference_max_pool_bitwise(dataset, monkeypatch):
    from panelkit import decoder

    from conftest import reference_max_pool2x2

    cfg = _tiny()
    cfg.epochs = 1
    fast, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    monkeypatch.setattr(decoder, "max_pool2x2", reference_max_pool2x2)
    ref, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    for name in fast.store.names():
        assert fast.store[name].data.tobytes() == ref.store[name].data.tobytes(), name


def test_train_builds_sketch_prototypes(dataset):
    cfg = _tiny()
    cfg.epochs = 1
    model, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    trained_classes = set()
    for sample in dataset:
        trained_classes |= sample.panel_class_set
    assert set(model.prompts.prototypes) == trained_classes


def test_loss_curve_csv_round_trip(tmp_path, dataset):
    cfg = _tiny()
    cfg.epochs = 2
    _, curve = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    path = tmp_path / "curve.csv"
    save_loss_curve(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "part", "value"]
    assert len(rows) == len(curve) + 1
    for (epoch, part, value), row in zip(curve, rows[1:]):
        assert row[0] == str(epoch) and row[1] == part
        assert float(row[2]) == pytest.approx(value, abs=1e-8)


def test_mask_loss_stop_halts_early(dataset):
    cfg = _tiny()
    cfg.epochs = 50
    cfg.mask_loss_stop = 1e9  # trivially satisfied after the first epoch
    _, curve = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    assert max(e for e, _, _ in curve) == 0


def test_place_loss_stop_keeps_training(dataset):
    cfg = _tiny()
    cfg.epochs = 3
    cfg.mask_loss_stop = 1e9
    cfg.place_loss_stop = 1e-12  # unreachable: both conditions must hold
    _, curve = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    assert max(e for e, _, _ in curve) == 2


# -- stitcher + evaluation ----------------------------------------------------------


def test_train_stitcher_returns_scoring_network(dataset):
    cfg = _tiny()
    cfg.stitch_use_gt_edges = True
    model = PatternModel(cfg, seed=9)
    net, store = train_stitcher(model, dataset, cfg)
    from panelkit.stitcher import build_edge_graph, gnn_score

    nodes, pairs = build_edge_graph(dataset[0].pattern, candidates=cfg.stitch_candidates)
    scores = gnn_score(net, nodes, pairs)
    assert len(scores) == len(pairs)
    assert all(0.0 < s.score < 1.0 for s in scores)


def test_evaluate_standard_empty_dataset_rejected(model):
    with pytest.raises(EmptyInput):
        evaluate_standard(model, [])


def test_evaluate_standard_returns_report_and_mask_iou(dataset):
    cfg = _tiny()
    cfg.epochs = 1
    model, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    report, extras = evaluate_standard(model, dataset, mode="text")
    d = report.as_dict()
    for key in ("panel_l2", "num_panels_acc", "num_edges_acc", "panel_iou"):
        assert key in d
    assert 0.0 <= extras["mask_iou"] <= 1.0


def test_evaluate_standard_report_matches_the_ungated_chain(dataset):
    from conftest import full_smooth_predictions

    cfg = _tiny()
    cfg.epochs = 1
    model, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    # this short a training keeps no panel; lower the gate and lift the edge
    # validity logits so that the report covers kept panels
    standard = model.prompts.build_standard_instruction("text")
    cfg.confidence_threshold = float(np.median(model.forward(dataset[0].points, standard).confidence.data))
    model.store["head/smooth/mlp/l1/b"].data[4 * cfg.e_max :] += 1.0
    reports, ious = [], []
    for sample in dataset:
        ins = model.prompts.build_standard_instruction("text")
        out = model.forward(sample.points, ins)
        preds = full_smooth_predictions(model, out)
        pattern = select_panels(preds, ins.active, cfg.confidence_threshold, cfg.top_k)
        reports.append(pattern_metrics(pattern, sample.pattern))
        size = (cfg.mask_size, cfg.mask_size)
        ious.extend(
            panel_iou(out.mask_probs.data[p.class_id] > 0.5, rasterize_panel(p, size, cfg.mask_scale))
            for p in sample.pattern.panels
        )
    report, extras = evaluate_standard(model, dataset, mode="text")
    expect = average_report(reports).as_dict()
    assert expect["rot_l2"] > 0  # kept panels matched ground-truth classes
    assert report.as_dict() == pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert extras["mask_iou"] == float(np.mean(ious))


def test_evaluate_standard_sketch_with_partial_prototypes(dataset):
    cfg = _tiny()
    cfg.epochs = 1
    model, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    # training families cover only part of the vocabulary
    assert len(model.prompts.prototypes) < cfg.num_classes
    report, extras = evaluate_standard(model, dataset, mode="sketch")
    assert 0.0 <= extras["mask_iou"] <= 1.0


def test_family_classes_are_disjoint_for_skirts():
    two = family_classes("skirt-2p")
    four = family_classes("skirt-4p")
    assert len(two) == 2 and len(four) == 4
    assert not (set(two) & set(four))


def test_evaluate_personalized_identity_case(dataset):
    cfg = _tiny()
    cfg.epochs = 1
    model, _ = train(dataset, cfg, model=PatternModel(cfg, seed=9))
    rows = evaluate_personalized(model, dataset, [("skirt-2p", "skirt-2p")])
    (row,) = rows
    assert row["source"] == row["target"] == "skirt-2p"
    # same instruction before and after: identical scores
    assert row["before"] == pytest.approx(row["after"])


def test_evaluate_personalized_missing_family_rejected(model, dataset):
    with pytest.raises(EmptyInput):
        evaluate_personalized(model, dataset, [("skirt-2p", "jacket")])
