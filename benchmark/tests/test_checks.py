"""Each output check passes on a right output and fails on a wrong one.

    python3 -m pytest benchmark/tests -q
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
import tracing
from panelkit.config import Config
from panelkit.decoder import select_panels
from panelkit.model import PatternModel
from panelkit.synthetic import build_pattern, draw_spec, generate_sample


@pytest.fixture(scope="module")
def prediction():
    """An untrained model's standard prediction for one garment, with every
    edge marked valid so that confidence alone decides what is kept."""
    model = PatternModel(Config())
    rng = np.random.default_rng(0)
    sample = generate_sample(draw_spec("tee", rng), rng)
    instruction = model.prompts.build_standard_instruction("text")
    _, preds = model.infer(sample.points, instruction)
    preds = [replace(p, edge_validity=np.ones_like(p.edge_validity)) for p in preds]
    cfg = model.config
    pattern = select_panels(
        preds, instruction_active=instruction.active, threshold=cfg.confidence_threshold, k=cfg.top_k
    )
    assert 0 < len(pattern.panels) < len(preds)
    return model, instruction, pattern, preds


def _slots(preds):
    return {p.slot: (p.confidence, int((p.edge_validity > 0.5).sum())) for p in preds}


def _gating(model, instruction, pattern, preds, requested=None):
    cfg = model.config
    returned = [(p.class_id, p.num_edges) for p in pattern.panels]
    return checks.gating(
        returned, _slots(preds), instruction.active, cfg.confidence_threshold, cfg.top_k, requested
    )


def test_gating_passes_on_the_program_output(prediction):
    assert _gating(*prediction) == []


def test_gating_fails_when_the_confidence_gate_is_dropped(prediction):
    model, instruction, pattern, preds = prediction
    ungated = select_panels(preds, instruction_active=instruction.active, threshold=-1.0, k=23)
    assert len(ungated.panels) > len(pattern.panels)
    assert _gating(model, instruction, ungated, preds)


def test_gating_fails_on_a_class_outside_the_request(prediction):
    model, instruction, pattern, preds = prediction
    kept = {p.class_id for p in pattern.panels}
    requested = kept - {min(kept)}
    assert _gating(model, instruction, pattern, preds, requested)


def test_gating_fails_over_top_k_and_on_missing_panels():
    slots = {0: (0.9, 4), 1: (0.8, 4), 2: (0.7, 4), 3: (0.2, 4)}
    active = np.ones(4, dtype=bool)
    right = [(0, 4), (1, 4)]
    assert checks.gating(right, slots, active, 0.5, 2) == []
    assert checks.gating(right + [(2, 4)], slots, active, 0.5, 2)   # over top_k
    assert checks.gating(right[:1], slots, active, 0.5, 2)          # dropped panel
    assert checks.gating([(0, 4), (3, 4)], slots, active, 0.5, 2)   # below threshold
    few_edges = {**slots, 1: (0.8, 2)}
    assert checks.gating(right, few_edges, active, 0.5, 2)          # < 3 edges
    inactive = active.copy()
    inactive[1] = False
    assert checks.gating(right, slots, inactive, 0.5, 2)            # inactive slot


def _garment_stitches():
    pattern = build_pattern(draw_spec("waistband-variants", np.random.default_rng(1)))
    return [p.num_edges for p in pattern.panels], list(pattern.stitches)


def test_stitches_pass_on_ground_truth_stitches():
    counts, pairs = _garment_stitches()
    assert checks.stitches(counts, pairs) == []


def test_stitches_fail_on_a_reused_edge():
    counts, pairs = _garment_stitches()
    a, _ = pairs[0]
    reused = pairs + [(a, (2, 2))]
    assert any("used twice" in m for m in checks.stitches(counts, reused))


def test_stitches_fail_on_bad_references():
    counts, pairs = _garment_stitches()
    assert checks.stitches(counts, [((0, 0), (0, 2))])               # same panel
    assert checks.stitches(counts, [((0, 0), (len(counts), 0))])     # no such panel
    assert checks.stitches(counts, [((0, counts[0]), (1, 0))])       # no such edge


def test_gradient_fails_when_perturbed():
    analytic = [1.25e-3, -4.0e-2, 7.5]
    numeric = [[1.25e-3 * (1 + 1e-9)], [-4.0e-2], [7.5 * (1 - 1e-10)]]
    assert checks.gradient(analytic, numeric, 1e-5) == []
    perturbed = list(analytic)
    perturbed[1] *= 1.001
    assert checks.gradient(perturbed, numeric, 1e-5)
    assert checks.gradient([0.0], [[1e-3]], 1e-5)


def test_gradient_passes_when_one_step_clears_a_kink():
    # the first step straddled a kink; the smaller one agrees
    assert checks.gradient([2.0e-2], [[2.01e-2, 2.0e-2 * (1 + 1e-8)]], 1e-5) == []
    assert checks.gradient([2.0e-2], [[2.01e-2, 1.99e-2]], 1e-5)


def test_translation_check_fails_on_a_moved_output():
    ref = {"mask_probs": np.linspace(0, 1, 12).reshape(3, 4), "classes": (0, 1)}
    same = {"mask_probs": ref["mask_probs"] + 1e-13, "classes": (0, 1)}
    assert checks.same_outputs(ref, same, 1e-10) == []
    assert checks.same_outputs(ref, {**same, "mask_probs": ref["mask_probs"] + 1e-6}, 1e-10)
    assert checks.same_outputs(ref, {**same, "classes": (0,)}, 1e-10)


def test_ground_truth_checks_fail_on_wrong_classes_or_low_iou():
    assert checks.same_classes([0, 1], [1, 0]) == []
    assert checks.same_classes([0, 16], [0, 1])
    assert checks.same_classes([0], [0, 1])
    assert checks.iou_floor([0.9, 0.8], 0.8) == []
    assert checks.iou_floor([0.9, 0.6], 0.8)
    assert checks.match_rate(6, 10, 0.5) == []
    assert checks.match_rate(4, 10, 0.5)


def test_mask_iou():
    a = np.zeros((4, 4), dtype=bool)
    b = a.copy()
    assert checks.mask_iou(a, b) == 1.0
    a[0, :2] = True
    b[0, 1:3] = True
    assert checks.mask_iou(a, b) == pytest.approx(1 / 3)


def test_loss_falls():
    assert checks.loss_falls(1.0, 0.9, 0.05) == []
    assert checks.loss_falls(1.0, 0.97, 0.05)
    assert checks.loss_falls(1.0, float("nan"), 0.05)


def test_bitwise_equal_fails_on_one_ulp():
    a = {"w": np.array([1.0, 2.0])}
    b = {"w": np.array([1.0, np.nextafter(2.0, 3.0)])}
    assert checks.bitwise_equal(a, {"w": a["w"].copy()}) == []
    assert checks.bitwise_equal(a, b)
    assert checks.bitwise_equal(a, {"v": a["w"]})


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [
        ["outer", 0, 100, -1, 0],
        ["inner", 10, 40, 0, 0],
        ["inner", 50, 60, 0, 0],
    ]
    total, calls = t.self_ns()
    assert total["outer"] == 60
    assert total["inner"] == 40
    assert calls["inner"] == 2
