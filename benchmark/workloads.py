"""The three workloads: inputs made from the seed, the closed loop that times
the program, and the output checks run on what it returned.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned. A run repeats whole rounds of the same
make-up until `seconds` have passed, so every run attempts the same mix.
Inputs of a round are generated before its operations are timed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from panelkit import training
from panelkit.config import Config
from panelkit.errors import PanelkitError
from panelkit.model import PatternModel
from panelkit.pattern.io import pattern_to_dict
from panelkit.pattern.raster import rasterize_panel
from panelkit.pattern.types import SewingPattern
from panelkit.prompt import PanelVocabulary, SketchPrompt
from panelkit.synthetic import ALL_FAMILIES, TRAIN_FAMILIES, build_pattern, draw_spec, generate_sample

import build
import checks

# train: 30 garments, 5 per training family; each round trains a fresh
# default-Config model for this many epochs
TRAIN_GARMENTS = 30
TRAIN_EPOCHS_PER_ROUND = 2
LOSS_FALL_MARGIN = 0.05
GRADIENT_COORDS = 12
GRADIENT_STEPS = (1e-6, 1e-7, 1e-5)  # tried in order until one agrees
GRADIENT_MIN = 1e-4                  # smallest |gradient| a coordinate is drawn from
GRADIENT_TOL = 1e-4                  # the repo gradcheck threshold
DETERMINISM_SLICE = 3

# infer and personalize: at least 100 requests a run, so p90 has 10 above it
MIN_REQUESTS = 100
TRANSLATION_TOL = 1e-10
# ground truth on resampled clouds of the set-up model's garments: the mask
# head is accurate there (mean IoU ~0.99), the confidence gate less so
# (classes exactly right on ~60%); both floors sit well below what it does
IOU_FLOOR = 0.8
CLASS_MATCH_FLOOR = 0.35
SESSIONS_PER_ROUND = 4

# sibling family whose panel classes a personalize request may borrow
SIBLING = {
    "skirt-2p": "skirt-4p",
    "skirt-4p": "skirt-2p",
    "tee": "tank",
    "tank": "tee",
    "pants": "skirt-4p",
    "dress": "skirt-2p",
    "jacket": "tee",
    "waistband-variants": "skirt-4p",
}

VOCABULARY = PanelVocabulary()


@dataclass
class Outcome:
    """What a run measured and what its checks found."""

    latencies: list = field(default_factory=list)  # seconds per operation
    busy: float = 0.0                               # seconds spent in operations
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)    # check messages
    errors: list = field(default_factory=list)      # operations that raised
    tracer: object = None

    def start(self, ops=1):
        """Count `ops` attempted operations; traced spans until the next
        call carry this operation's id."""
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += ops

    def timed(self, where, fn, *args):
        """Run and time one operation; its result, or None if it raised."""
        self.start()
        begin = time.perf_counter()
        try:
            result = fn(*args)
        except PanelkitError as exc:
            self.failed += 1
            self.errors.append(f"{where}: {exc!r}")
            return None
        elapsed = time.perf_counter() - begin
        self.busy += elapsed
        self.latencies.append(elapsed)
        return result

    def fail(self, where, messages):
        self.failures.extend(f"{where}: {m}" for m in messages)


def serialize(pattern):
    """The pattern document `panelkit infer` writes, as a string."""
    return json.dumps(pattern_to_dict(pattern, VOCABULARY), indent=2)


def _rng(*key):
    return np.random.default_rng(list(key))


def _classes(pattern):
    return sorted(p.class_id for p in pattern.panels)


# -- train ------------------------------------------------------------------


class TrainWorkload:
    """`training.train` with the default Config on seeded garments."""

    min_ops = 0

    def __init__(self, seed, paths):
        self.seed = seed
        self.dataset = []
        for i in range(TRAIN_GARMENTS):
            rng = _rng(seed, 0, i)
            family = TRAIN_FAMILIES[i % len(TRAIN_FAMILIES)]
            self.dataset.append(generate_sample(draw_spec(family, rng), rng))
        self.config = Config(epochs=TRAIN_EPOCHS_PER_ROUND)
        self.model = None
        self.curves = []

    def ops_per_round(self):
        return TRAIN_EPOCHS_PER_ROUND * len(self.dataset)

    def run_round(self, out):
        """One `train` call; latency per sample-step is taken per epoch."""
        out.start(self.ops_per_round())
        marks = [time.perf_counter()]
        try:
            self.model, curve = training.train(
                self.dataset, self.config, log=lambda *_: marks.append(time.perf_counter())
            )
        except PanelkitError as exc:
            out.failed += self.ops_per_round()
            out.errors.append(f"train: {exc!r}")
            return
        end = time.perf_counter()
        out.busy += end - marks[0]
        n = len(self.dataset)
        out.latencies.extend((b - a) / n for a, b in zip(marks, marks[1:]))
        self.curves.append(curve)

    def check(self, out):
        for curve in self.curves[:1]:
            totals = [v for _, part, v in curve if part == "total"]
            out.fail("loss falls", checks.loss_falls(totals[0], totals[-1], LOSS_FALL_MARGIN))
        if self.model is not None:
            out.fail("gradient", self._check_gradient())
        out.fail("determinism", self._check_determinism())

    def _check_gradient(self):
        """backward vs central differences of composite_loss at seeded
        coordinates; the transport term (a constant plan) is weighted out."""
        model = self.model
        model.config = replace(
            model.config, loss_weights=dict(model.config.loss_weights, asso=0.0)
        )
        sample = self.dataset[0]
        targets = training.build_targets(sample, model.config)

        def loss():
            instruction = training.build_training_instruction(model, sample, "text")
            output = model.forward(sample.points, instruction)
            total, _ = training.composite_loss(model, output, targets)
            return total

        total = loss()
        model.store.zero_grad()
        training.backward(total)
        grads = {n: g.reshape(-1) for n, g in model.store.gradients().items()}
        names = sorted(n for n, g in grads.items() if (np.abs(g) > GRADIENT_MIN).any())
        rng = _rng(self.seed, 1)
        analytic, numeric = [], []
        for _ in range(GRADIENT_COORDS):
            name = names[rng.integers(len(names))]
            candidates = np.flatnonzero(np.abs(grads[name]) > GRADIENT_MIN)
            i = candidates[rng.integers(len(candidates))]
            a = float(grads[name][i])
            flat = model.store[name].data.reshape(-1)
            orig = flat[i]
            estimates = []
            for h in GRADIENT_STEPS:
                flat[i] = orig + h
                hi = float(loss().data)
                flat[i] = orig - h
                lo = float(loss().data)
                flat[i] = orig
                estimates.append((hi - lo) / (2.0 * h))
                if not checks.gradient([a], [estimates[-1:]], GRADIENT_TOL):
                    break
            analytic.append(a)
            numeric.append(estimates)
        return checks.gradient(analytic, numeric, GRADIENT_TOL)

    def _check_determinism(self):
        data = self.dataset[:DETERMINISM_SLICE]
        config = Config(epochs=1, batch_size=DETERMINISM_SLICE)
        runs = []
        for _ in range(2):
            model, _ = training.train(data, config)
            params = {k: t.data for k, t in model.store.params.items()}
            params.update({f"prototype/{c}": p for c, p in model.prompts.prototypes.items()})
            runs.append(params)
        return checks.bitwise_equal(*runs)


# -- infer and personalize ---------------------------------------------------


class _ServedModel:
    """Set-up shared by infer and personalize: the cached set-up model,
    reloaded cold, and the garments it was trained on."""

    min_ops = MIN_REQUESTS

    def __init__(self, seed, paths):
        self.seed = seed
        self.round = 0
        self.model = PatternModel.load(paths["model"])
        self.config = self.model.config
        self.stitch_net = build.load_stitcher(paths["stitch"], self.config)
        self.train_specs = [spec for _, spec in build.training_specs()]

    def slot_table(self, preds):
        return {
            p.slot: (p.confidence, int(np.count_nonzero(p.edge_validity > 0.5)))
            for p in preds
        }

    def check_gating(self, out, where, pattern, preds, instruction, requested=None):
        returned = [(p.class_id, p.num_edges) for p in pattern.panels]
        out.fail(
            where,
            checks.gating(
                returned,
                self.slot_table(preds),
                instruction.active,
                self.config.confidence_threshold,
                self.config.top_k,
                requested,
            ),
        )

    def outputs(self, pattern, preds):
        """Everything a request returns, for the translation check."""
        doc = {"classes": tuple(_classes(pattern)), "stitches": tuple(pattern.stitches)}
        for attr in ("mask_probs", "rotation", "translation", "vertices", "curvatures", "edge_validity"):
            doc[attr] = np.stack([getattr(p, attr) for p in preds])
        doc["confidence"] = np.array([p.confidence for p in preds])
        return doc

    def offset(self):
        return _rng(self.seed, 2).uniform(-60.0, 60.0, size=3)


class InferWorkload(_ServedModel):
    """Standard prediction: all 23 slots active, one fresh cloud per request."""

    def __init__(self, seed, paths):
        super().__init__(seed, paths)
        size = (self.config.mask_size, self.config.mask_size)
        self.true_masks = [
            {
                p.class_id: rasterize_panel(p, size, self.config.mask_scale) > 0.5
                for p in build_pattern(spec, VOCABULARY).panels
            }
            for spec in self.train_specs
        ]
        self.class_hits = 0
        self.class_total = 0

    def round_clouds(self, r):
        """Resampled clouds of the six training garments, then one unseen
        garment of each of the eight families (two of them held out)."""
        clouds = []
        for i, spec in enumerate(self.train_specs):
            clouds.append((generate_sample(spec, _rng(self.seed, 3, r, i)), i))
        for j, family in enumerate(ALL_FAMILIES):
            rng = _rng(self.seed, 4, r, j)
            clouds.append((generate_sample(draw_spec(family, rng), rng), None))
        return clouds

    def request(self, points):
        instruction = self.model.prompts.build_standard_instruction("text")
        pattern, preds = self.model.infer(points, instruction)
        return instruction, pattern, preds, serialize(pattern)

    def run_round(self, out):
        r = self.round
        self.round += 1
        for n, (sample, train_index) in enumerate(self.round_clouds(r)):
            where = f"infer round {r} cloud {n}"
            result = out.timed(where, self.request, sample.points)
            if result is None:
                continue
            instruction, pattern, preds, doc = result
            self.check_gating(out, where, pattern, preds, instruction)
            written = json.loads(doc)
            if [p["class"] for p in written["panels"]] != [p.class_id for p in pattern.panels]:
                out.fail(where, ["serialized pattern does not list the predicted panels"])
            if train_index is not None:
                truth = self.true_masks[train_index]
                ious = [checks.mask_iou(preds[c].mask_probs > 0.5, m) for c, m in truth.items()]
                out.fail(where, checks.iou_floor(ious, IOU_FLOOR))
                self.class_total += 1
                self.class_hits += not checks.same_classes(_classes(pattern), list(truth))

    def check(self, out):
        out.fail(
            "infer ground truth",
            checks.match_rate(self.class_hits, self.class_total, CLASS_MATCH_FLOOR),
        )
        # on the very clouds it was trained on, the set-up model is exact
        copy = self.seed % build.BUILD_CLOUDS
        for i, truth in enumerate(self.true_masks):
            sample = build.training_cloud(i, copy)
            _, pattern, _, _ = self.request(sample.points)
            out.fail(f"infer training cloud {i}/{copy}", checks.same_classes(_classes(pattern), list(truth)))
        clouds = self.round_clouds(0)
        for sample, _ in (clouds[0], clouds[-1]):
            _, pattern, preds, _ = self.request(sample.points)
            _, moved_pattern, moved_preds, _ = self.request(sample.points + self.offset())
            out.fail(
                "infer translation",
                checks.same_outputs(
                    self.outputs(pattern, preds), self.outputs(moved_pattern, moved_preds), TRANSLATION_TOL
                ),
            )


class PersonalizeWorkload(_ServedModel):
    """Sessions of requests for one cloud, each naming 1-4 panel classes by
    text or by sketch, followed by stitch prediction."""

    def session(self, r, s):
        """(garment, [(kind, classes, sketches)]) of session s of round r.

        Even sessions use a resampled training garment, odd ones an unseen
        garment, cycling through all eight families."""
        rng = _rng(self.seed, 5, r, s)
        if s % 2 == 0:
            i = (r * SESSIONS_PER_ROUND // 2 + s // 2) % len(self.train_specs)
            garment = generate_sample(self.train_specs[i], rng)
        else:
            family = ALL_FAMILIES[(r * SESSIONS_PER_ROUND // 2 + s // 2) % len(ALL_FAMILIES)]
            garment = generate_sample(draw_spec(family, rng), rng)
        sibling = generate_sample(draw_spec(SIBLING[garment.garment_class], rng), rng, num_points=64)
        own = {p.class_id: p for p in garment.pattern.panels}
        other = {p.class_id: p for p in sibling.pattern.panels if p.class_id not in own}

        def pick(pool, lo, hi):
            k = int(rng.integers(lo, min(hi, len(pool)) + 1))
            return sorted(int(c) for c in rng.choice(sorted(pool), size=k, replace=False))

        def sketches(classes):
            panels = {**own, **other}
            return [
                SketchPrompt(strokes=(training.panel_silhouette(panels[c]),), class_index=c)
                for c in classes
            ]

        own_text = pick(own, 1, 4)
        own_sketch = pick(own, 1, 4)
        mixed = pick(own, 1, 2) + pick(other, 1, 2)
        sibling_sketch = pick(other, 1, 4)
        requests = [
            ("text", own_text, None),
            ("sketch", own_sketch, sketches(own_sketch)),
            ("text", sorted(mixed), None),
            ("sketch", sibling_sketch, sketches(sibling_sketch)),
        ]
        return garment, requests

    def request(self, points, kind, classes, sketches):
        prompts = self.model.prompts
        if kind == "text":
            instruction = prompts.encode_text(classes)
        else:
            instruction = prompts.encode_sketch(sketches)
        pattern, preds = self.model.infer(points, instruction)
        stitches = training.predict_stitches(
            self.stitch_net, pattern, candidates=self.config.stitch_candidates
        )
        return instruction, SewingPattern(panels=pattern.panels, stitches=stitches), preds

    def run_round(self, out):
        r = self.round
        self.round += 1
        sessions = [self.session(r, s) for s in range(SESSIONS_PER_ROUND)]
        for s, (garment, requests) in enumerate(sessions):
            for q, (kind, classes, sketches) in enumerate(requests):
                points = garment.points.copy()
                where = f"personalize round {r} session {s} request {q}"
                result = out.timed(where, self.request, points, kind, classes, sketches)
                if result is None:
                    continue
                instruction, pattern, preds = result
                self.check_gating(out, where, pattern, preds, instruction, set(classes))
                edge_counts = [p.num_edges for p in pattern.panels]
                out.fail(where, checks.stitches(edge_counts, pattern.stitches))

    def check(self, out):
        garment, requests = self.session(0, 0)
        for kind, classes, sketches in requests[2:]:
            ref = self.request(garment.points.copy(), kind, classes, sketches)
            moved = self.request(garment.points + self.offset(), kind, classes, sketches)
            out.fail(
                "personalize translation",
                checks.same_outputs(self.outputs(*ref[1:]), self.outputs(*moved[1:]), TRANSLATION_TOL),
            )


WORKLOADS = {"train": TrainWorkload, "infer": InferWorkload, "personalize": PersonalizeWorkload}
