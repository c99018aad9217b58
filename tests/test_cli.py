"""Command-line workflows: data generation, training, inference, rendering."""

import json
import pathlib

import numpy as np
import pytest

from panelkit.cli import load_dataset, run
from panelkit.config import Config
from panelkit.pattern.io import save_point_cloud
from panelkit.pattern.svg import count_paths
from panelkit.pattern.io import parse_pattern

FIXTURE = str(pathlib.Path(__file__).parent / "data" / "skirt_quarters.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: dataset, config, checkpoint, cloud file."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.pkl"
    assert run(["gen-data", "--families", "skirt-2p,tee", "--count", "4",
                "--out", str(data)]) == 0
    config = Config(
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
    cfg_path = root / "config.json"
    config.save(cfg_path)
    ckpt = root / "model.ptck"
    curve = root / "curve.csv"
    assert run(["train", "--data", str(data), "--config", str(cfg_path),
                "--out-checkpoint", str(ckpt), "--loss-curve", str(curve)]) == 0
    cloud = root / "cloud.csv"
    save_point_cloud(load_dataset(data)[0].points, cloud)
    return {"root": root, "data": data, "config": cfg_path,
            "checkpoint": ckpt, "curve": curve, "cloud": cloud}


def test_gen_data_writes_pickled_samples(workdir, capsys):
    samples = load_dataset(workdir["data"])
    assert len(samples) == 4
    assert {s.garment_class for s in samples} == {"skirt-2p", "tee"}


def test_gen_data_unknown_family_fails(tmp_path, capsys):
    out = tmp_path / "bad.pkl"
    assert run(["gen-data", "--families", "cape", "--count", "1",
                "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_writes_checkpoint_and_curve(workdir):
    assert workdir["checkpoint"].stat().st_size > 0
    lines = workdir["curve"].read_text().strip().splitlines()
    assert lines[0] == "epoch,part,value"
    assert len(lines) > 1


def test_train_seed_flag_reproduces_checkpoint(workdir, tmp_path):
    a = tmp_path / "a.ptck"
    b = tmp_path / "b.ptck"
    for out in (a, b):
        assert run(["--seed", "3", "train", "--data", str(workdir["data"]),
                    "--config", str(workdir["config"]),
                    "--out-checkpoint", str(out)]) == 0
    # seed lives in the config, not the flag, so runs are identical anyway
    assert a.read_bytes() == b.read_bytes()


def test_infer_writes_parseable_pattern_and_svg(workdir, tmp_path, capsys):
    out = tmp_path / "pred.json"
    svg = tmp_path / "pred.svg"
    assert run(["infer", "--cloud", str(workdir["cloud"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--out-pattern", str(out), "--out-svg", str(svg)]) == 0
    pattern = parse_pattern(out)
    assert count_paths(svg) == len(pattern.panels)
    assert "predicted" in capsys.readouterr().out


def test_infer_missing_cloud_fails(workdir, tmp_path, capsys):
    assert run(["infer", "--cloud", str(tmp_path / "nope.csv"),
                "--checkpoint", str(workdir["checkpoint"]),
                "--out-pattern", str(tmp_path / "p.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_infer_non_finite_cloud_fails(workdir, tmp_path, capsys, bad):
    lines = pathlib.Path(workdir["cloud"]).read_text().splitlines()
    lines[3] = f"{bad} 0.0 1.0"
    cloud = tmp_path / "bad.csv"
    cloud.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.json"
    assert run(["infer", "--cloud", str(cloud),
                "--checkpoint", str(workdir["checkpoint"]),
                "--out-pattern", str(out)]) == 1
    assert "error: point cloud has NaN or infinite coordinates" in capsys.readouterr().err
    assert not out.exists()


def test_personalize_restricts_classes(workdir, tmp_path):
    out = tmp_path / "pers.json"
    assert run(["personalize", "--cloud", str(workdir["cloud"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--activate", "skirt-front,skirt-back",
                "--out-pattern", str(out)]) == 0
    pattern = parse_pattern(out)
    names = {"skirt-front", "skirt-back"}
    from panelkit.prompt import PanelVocabulary

    vocab = PanelVocabulary()
    allowed = {vocab.index_of(n) for n in names}
    assert {p.class_id for p in pattern.panels} <= allowed


def test_personalize_with_sketch_prompt(workdir, tmp_path):
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    sketch = tmp_path / "sketch.json"
    sketch.write_text(json.dumps([
        {"class": "skirt-front", "strokes": [square]},
    ]))
    out = tmp_path / "pers.json"
    assert run(["personalize", "--cloud", str(workdir["cloud"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--activate", "skirt-front", "--sketch", str(sketch),
                "--out-pattern", str(out)]) == 0
    pattern = parse_pattern(out)
    assert {p.class_id for p in pattern.panels} <= {0}  # skirt-front slot


def test_personalize_unknown_class_fails(workdir, tmp_path, capsys):
    assert run(["personalize", "--cloud", str(workdir["cloud"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--activate", "cape-back",
                "--out-pattern", str(tmp_path / "p.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_standard_prints_metrics(workdir, capsys):
    assert run(["eval", "--data", str(workdir["data"]),
                "--checkpoint", str(workdir["checkpoint"])]) == 0
    out = capsys.readouterr().out
    for key in ("panel_iou", "num_panels_acc", "mask_iou"):
        assert key in out


def test_eval_personalized_requires_cases(workdir, capsys):
    assert run(["eval", "--data", str(workdir["data"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--mode", "personalized"]) == 1
    assert "--cases" in capsys.readouterr().err


def test_eval_personalized_with_cases(workdir, tmp_path, capsys):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps([{"source": "skirt-2p", "target": "tee"}]))
    assert run(["eval", "--data", str(workdir["data"]),
                "--checkpoint", str(workdir["checkpoint"]),
                "--mode", "personalized", "--cases", str(cases)]) == 0
    out = capsys.readouterr().out
    assert "skirt-2p -> tee" in out


def test_render_golden_fixture(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert run(["render", "--pattern", FIXTURE, "--out-svg", str(svg)]) == 0
    assert count_paths(svg) == 4
    assert "rendered 4 panels" in capsys.readouterr().out


def test_render_malformed_pattern_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["render", "--pattern", str(bad),
                "--out-svg", str(tmp_path / "o.svg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["infer", "--bogus"])
    assert exc.value.code == 2


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run(["--jobs", "2", "gradcheck"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
