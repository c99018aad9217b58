"""End-to-end model forward/inference contracts and checkpointing."""

from dataclasses import replace

import numpy as np
import pytest

from panelkit import model as model_module
from panelkit.config import Config
from panelkit.decoder import select_panels
from panelkit.errors import CheckpointMismatch, NonFiniteCloud
from panelkit.model import PatternModel
from panelkit.nn.checkpoint import load_arrays, save_arrays
from panelkit.nn.optim import adam_step

from conftest import full_smooth_predictions

RNG = np.random.default_rng(41)


def _tiny():
    return Config(
        num_points=48,
        num_patches=4,
        patch_k=4,
        feature_dim=16,
        prompt_raw_dim=24,
        num_classes=5,
        heads=2,
        ot_iters=100,
    )


@pytest.fixture(scope="module")
def model():
    return PatternModel(_tiny())


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(7).normal(size=(600, 3)) * 8.0


def test_forward_shapes(model, cloud):
    ins = model.prompts.encode_text([0, 2])
    out = model.forward(cloud, ins)
    m = model.config.num_classes
    assert out.f_loc.shape == (4, 16)
    assert out.f_global.shape == (16,)
    assert out.f_cm.shape == (m, 16)
    assert out.f_comp.shape == (m, 16)
    assert out.rotation.shape == (m, 3)
    assert out.translation.shape == (m, 3)
    assert out.confidence.shape == (m,)
    assert out.mask_probs.shape == (m, 32, 32)
    assert out.plan.f.shape == (4, 2)  # patches x active slots


def test_forward_without_active_slots_has_no_plan(model, cloud):
    out = model.forward(cloud, model.prompts.encode_text([]))
    assert out.plan is None and out.cost is None


def test_forward_deterministic(model, cloud):
    ins = model.prompts.encode_text([1])
    a = model.forward(cloud, ins)
    b = model.forward(cloud, ins)
    np.testing.assert_array_equal(a.confidence.data, b.confidence.data)
    np.testing.assert_array_equal(a.mask_probs.data, b.mask_probs.data)


def test_subsample_caps_point_count(model):
    pts = RNG.normal(size=(1000, 3))
    sub = model.subsample(pts)
    assert sub.shape == (48, 3)
    small = RNG.normal(size=(30, 3))
    np.testing.assert_array_equal(model.subsample(small), small)


def test_predictions_cover_every_slot(model, cloud):
    out = model.forward(cloud, model.prompts.encode_text([0]))
    preds = model.predictions(out)
    assert [p.slot for p in preds] == list(range(model.config.num_classes))


def test_infer_only_returns_instructed_classes(model, cloud):
    pattern, preds = model.infer(cloud, model.prompts.encode_text([1, 3]))
    assert len(preds) == model.config.num_classes
    assert {p.class_id for p in pattern.panels} <= {1, 3}


def test_checkpoint_round_trip(tmp_path, model, cloud):
    path = tmp_path / "m.ptck"
    model.prompts.prototypes = {0: RNG.normal(size=(24,))}
    model.save(path)
    loaded = PatternModel.load(path)
    assert loaded.config == model.config
    np.testing.assert_array_equal(
        loaded.prompts.prototypes[0], model.prompts.prototypes[0]
    )
    ins_a = model.prompts.encode_text([0, 2])
    ins_b = loaded.prompts.encode_text([0, 2])
    a = model.forward(cloud, ins_a)
    b = loaded.forward(cloud, ins_b)
    np.testing.assert_array_equal(a.mask_probs.data, b.mask_probs.data)
    np.testing.assert_array_equal(a.confidence.data, b.confidence.data)


def test_checkpoint_missing_config_rejected(tmp_path):
    path = tmp_path / "bad.ptck"
    save_arrays(path, {"some/param": np.zeros(3)})
    with pytest.raises(CheckpointMismatch):
        PatternModel.load(path)


def test_checkpoint_unknown_parameter_rejected(tmp_path, model):
    path = tmp_path / "extra.ptck"
    model.save(path)
    arrays = load_arrays(path)
    arrays["bogus/param"] = np.zeros(2)
    save_arrays(path, arrays)
    with pytest.raises(CheckpointMismatch):
        PatternModel.load(path)


def test_seeded_construction_is_reproducible(cloud):
    a = PatternModel(_tiny(), seed=11)
    b = PatternModel(_tiny(), seed=11)
    for name in a.store.names():
        np.testing.assert_array_equal(a.store[name].data, b.store[name].data)


# -- non-finite clouds --------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["infer", "forward"])
def test_non_finite_cloud_raises(model, cloud, bad, entry):
    points = cloud.copy()
    points[17, 1] = bad
    ins = model.prompts.encode_text([0, 2])
    with pytest.raises(NonFiniteCloud):
        getattr(model, entry)(points, ins)


def test_non_finite_cloud_is_never_reused(cloud, monkeypatch):
    model = PatternModel(_tiny(), seed=4)
    ins = model.prompts.encode_text([0, 2])
    calls = _count_fps(monkeypatch)
    model.infer(cloud, ins)
    points = cloud.copy()
    points[0, 0] = np.nan
    with pytest.raises(NonFiniteCloud):
        model.infer(points, ins)
    model.infer(cloud.copy(), ins)
    assert calls == [1]


# -- gated smooth head --------------------------------------------------------


def test_gated_smooth_head_keeps_the_full_heads_panels(cloud):
    model = PatternModel(Config(), seed=3)
    # untrained, the head marks 2 edges valid per slot; lift the validity
    # logits so that slots pass select_panels' 3-edge rule
    e = model.config.e_max
    model.store["head/smooth/mlp/l1/b"].data[4 * e :] += 1.0
    ins = model.prompts.encode_text(list(range(0, 23, 2)))
    out = model.forward(cloud, ins)
    # a threshold inside the active slots' confidences gates some of them out
    model.config.confidence_threshold = float(np.median(out.confidence.data[ins.active]))
    cfg = model.config
    full = full_smooth_predictions(model, out)
    expect = select_panels(full, ins.active, cfg.confidence_threshold, cfg.top_k)
    assert len(expect.panels) >= 2

    pattern, preds = model.infer(cloud, ins)
    assert [p.class_id for p in pattern.panels] == [p.class_id for p in expect.panels]
    for got, ref in zip(pattern.panels, expect.panels):
        np.testing.assert_allclose(got.vertex_array(), ref.vertex_array(), rtol=0, atol=1e-12)
    gated = ins.active & (out.confidence.data > cfg.confidence_threshold)
    assert 0 < gated.sum() < ins.active.sum()
    for p, ref in zip(preds, full):
        assert p.vertices.shape == ref.vertices.shape
        assert p.edge_validity.shape == ref.edge_validity.shape
        if gated[p.slot]:
            np.testing.assert_allclose(p.vertices, ref.vertices, rtol=0, atol=1e-12)
        else:
            assert not p.vertices.any() and not p.curvatures.any()
            assert not p.edge_validity.any()


# -- reused encoding ------------------------------------------------------------


def _count_fps(monkeypatch):
    calls = [0]
    fps = model_module.farthest_point_sample

    def counted(*args, **kwargs):
        calls[0] += 1
        return fps(*args, **kwargs)

    monkeypatch.setattr(model_module, "farthest_point_sample", counted)
    return calls


def _outputs(pattern, preds):
    """Returned panels and every per-slot array, as exact values."""
    return (
        pattern.panels,
        [
            np.concatenate(
                [np.ravel(a) for a in (p.mask_probs, p.rotation, p.translation,
                                       p.vertices, p.curvatures, p.edge_validity)]
                + [np.array([p.confidence])]
            ).tobytes()
            for p in preds
        ],
    )


def test_copied_cloud_reuses_encoding(cloud, monkeypatch):
    model = PatternModel(_tiny(), seed=4)
    calls = _count_fps(monkeypatch)
    model.infer(cloud, model.prompts.encode_text([0, 1]))
    ins = model.prompts.encode_text([2, 3])
    reused = model.infer(cloud.copy(), ins)
    assert calls == [1]
    fresh = PatternModel(_tiny(), seed=4).infer(cloud.copy(), ins)
    assert calls == [2]
    assert _outputs(*reused) == _outputs(*fresh)


def _edit_encoder_param(model, cloud):
    model.store["local/pointnet/l0/w"].data[0, 0] += 1e-3
    return cloud


def _adam(model, cloud):
    grads = {name: np.ones_like(t.data) for name, t in model.store.params.items()}
    adam_step(model.store, 1e-3, grads=grads)
    return cloud


def _translate(model, cloud):
    return cloud + np.array([3.0, -2.0, 0.5])


def _new_config(model, cloud):
    model.config = replace(model.config, top_k=model.config.top_k - 1)
    return cloud


@pytest.mark.parametrize("change", [_edit_encoder_param, _adam, _translate, _new_config])
def test_changed_input_recomputes_encoding(cloud, monkeypatch, change):
    model = PatternModel(_tiny(), seed=4)
    ins = model.prompts.encode_text([0, 2])
    calls = _count_fps(monkeypatch)
    model.infer(cloud, ins)
    points = change(model, cloud.copy())
    pattern, preds = model.infer(points, ins)
    assert calls == [2]
    expect = model.predictions(model.forward(points, ins))
    assert _outputs(pattern, preds)[1] == _outputs(pattern, expect)[1]
