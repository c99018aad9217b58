"""Command-line entry point for the full pipeline."""

from __future__ import annotations

import argparse
import json
import pickle
import sys

import numpy as np

from .config import Config
from .errors import PanelkitError
from .model import PatternModel
from .pattern.io import parse_pattern, load_point_cloud, serialize_pattern
from .pattern.svg import pattern_to_svg
from .prompt import PanelVocabulary, SketchPrompt
from .synthetic import ALL_FAMILIES, generate_dataset


def _parser():
    p = argparse.ArgumentParser(prog="panelkit", description=__doc__)
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic garments")
    g.add_argument("--families", default=",".join(ALL_FAMILIES))
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="fit a model on a generated dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--config")
    t.add_argument("--out-checkpoint", required=True)
    t.add_argument("--loss-curve")

    i = sub.add_parser("infer", help="predict a pattern for one point cloud")
    i.add_argument("--cloud", required=True)
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--mode", choices=("text", "sketch"), default="text")
    i.add_argument("--out-pattern", required=True)
    i.add_argument("--out-svg")

    pz = sub.add_parser("personalize", help="predict only the requested panel classes")
    pz.add_argument("--cloud", required=True)
    pz.add_argument("--checkpoint", required=True)
    pz.add_argument("--activate", required=True, help="comma-separated class names")
    pz.add_argument("--sketch", help="JSON sketch prompt file")
    pz.add_argument("--out-pattern", required=True)
    pz.add_argument("--out-svg")

    e = sub.add_parser("eval", help="metrics on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--mode", choices=("standard", "personalized"), default="standard")
    e.add_argument("--cases", help="JSON list of {source, target} family pairs")
    e.add_argument("--prompt-mode", choices=("text", "sketch"), default="text")

    r = sub.add_parser("render", help="pattern JSON to SVG")
    r.add_argument("--pattern", required=True)
    r.add_argument("--out-svg", required=True)

    sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    return p


def load_dataset(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def save_dataset(samples, path):
    with open(path, "wb") as fh:
        pickle.dump(samples, fh)


def _load_sketches(path, vocabulary):
    """JSON: [{"class": name, "strokes": [[[x, y], ...], ...]}, ...]"""
    with open(path) as fh:
        doc = json.load(fh)
    sketches = []
    for item in doc:
        strokes = tuple(np.asarray(s, dtype=np.float64) for s in item["strokes"])
        sketches.append(
            SketchPrompt(strokes=strokes, class_index=vocabulary.index_of(item["class"]))
        )
    return sketches


def _write_pattern(pattern, path, svg_path=None):
    serialize_pattern(pattern, path, vocabulary=PanelVocabulary())
    if svg_path:
        pattern_to_svg(pattern, svg_path)


def cmd_gen_data(args):
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    samples = generate_dataset(families, args.count, seed=args.seed)
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")


def cmd_train(args):
    from .training import save_loss_curve, train

    config = Config.load(args.config) if args.config else Config()
    dataset = load_dataset(args.data)
    model, curve = train(
        dataset,
        config,
        log=lambda e, total, parts: print(f"epoch {e}: total {total:.5f}"),
    )
    model.save(args.out_checkpoint)
    if args.loss_curve:
        save_loss_curve(curve, args.loss_curve)
    print(f"wrote checkpoint to {args.out_checkpoint}")


def cmd_infer(args):
    model = PatternModel.load(args.checkpoint)
    points = load_point_cloud(args.cloud)
    instruction = model.prompts.build_standard_instruction(args.mode)
    pattern, _ = model.infer(points, instruction)
    _write_pattern(pattern, args.out_pattern, args.out_svg)
    print(f"predicted {len(pattern.panels)} panels")


def cmd_personalize(args):
    model = PatternModel.load(args.checkpoint)
    points = load_point_cloud(args.cloud)
    vocabulary = PanelVocabulary()
    names = [n.strip() for n in args.activate.split(",") if n.strip()]
    classes = [vocabulary.index_of(n) for n in names]
    if args.sketch:
        sketches = [
            sk for sk in _load_sketches(args.sketch, vocabulary) if sk.class_index in classes
        ]
        instruction = model.prompts.encode_sketch(sketches)
    else:
        instruction = model.prompts.encode_text(classes)
    pattern, _ = model.infer(points, instruction)
    _write_pattern(pattern, args.out_pattern, args.out_svg)
    print(f"predicted {len(pattern.panels)} panels for {len(classes)} active slots")


def cmd_eval(args):
    from .training import evaluate_personalized, evaluate_standard

    model = PatternModel.load(args.checkpoint)
    dataset = load_dataset(args.data)
    if args.mode == "standard":
        report, extras = evaluate_standard(model, dataset, mode=args.prompt_mode)
        for key, value in {**report.as_dict(), **extras}.items():
            print(f"{key}: {value:.4f}")
        return
    if not args.cases:
        raise PanelkitError("--cases is required for personalized evaluation")
    with open(args.cases) as fh:
        cases = [(c["source"], c["target"]) for c in json.load(fh)]
    for row in evaluate_personalized(model, dataset, cases, mode=args.prompt_mode):
        print(
            f"{row['source']} -> {row['target']} [{row['mode']}]: "
            f"panel IOU {row['before']:.4f} -> {row['after']:.4f}"
        )


def cmd_render(args):
    pattern = parse_pattern(args.pattern)
    pattern_to_svg(pattern, args.out_svg)
    print(f"rendered {len(pattern.panels)} panels to {args.out_svg}")


def cmd_gradcheck(args):
    from .gradcheck import run_suite

    results = run_suite(seed=args.seed)
    worst = 0.0
    for name, err in results:
        print(f"{name}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error {worst:.3e}")
    if worst >= 1e-4:
        raise PanelkitError(f"gradient check failed: {worst:.3e} >= 1e-4")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "infer": cmd_infer,
    "personalize": cmd_personalize,
    "eval": cmd_eval,
    "render": cmd_render,
    "gradcheck": cmd_gradcheck,
}


def run(argv=None):
    args = _parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except (PanelkitError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
