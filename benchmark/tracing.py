"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions and layer `__call__`s of each
panelkit module in place, so the program's own code is unchanged. Each
wrapped call records a span (name, start, end, parent span, operation id)
in memory; hooks record counts at the same boundaries. Spans are written
out when the run ends. With the tracer inactive a wrapper costs one
attribute check, and untraced runs install no wrappers at all.

A layer's self time is its span's duration minus the time its child spans
cover. Work the tracer does itself (tape walks, cloud hashing) runs in
`trace.hook` spans, so it is charged to no layer.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

HOOK = "trace.hook"

# per-layer metric -> span names whose self time it sums
LAYER_SPANS = {
    "pointcloud.fps_ms": ("pointcloud.fps",),
    "pointcloud.knn_ms": ("pointcloud.knn",),
    "pointcloud.patch_embed_ms": ("pointcloud.patch_embed",),
    "pointcloud.global_encoder_ms": ("pointcloud.global_encoder",),
    "prompt.encode_ms": ("prompt.encode",),
    "crossmodal.cost_matrix_ms": ("crossmodal.cost_matrix",),
    "crossmodal.transport_ms": ("crossmodal.transport",),
    "crossmodal.fusion_ms": ("crossmodal.fusion",),
    "decoder.decoder_ms": ("decoder.decoder",),
    "decoder.heads_ms": ("decoder.heads",),
    "decoder.mask_head_ms": ("decoder.mask_head",),
    "decoder.smooth_head_ms": ("decoder.smooth_head",),
    "decoder.select_ms": ("decoder.select",),
    "model.glue_ms": ("model.infer", "model.forward", "model.predictions", "model.encode_cloud"),
    "training.build_targets_ms": ("training.build_targets",),
    "training.loss_ms": ("training.loss",),
    "training.train_self_ms": ("training.train",),
    "nn.backward_ms": ("nn.backward",),
    "nn.adam_ms": ("nn.adam",),
    "stitcher.graph_ms": ("stitcher.graph",),
    "stitcher.score_ms": ("stitcher.score",),
    "stitcher.match_ms": ("stitcher.match",),
    "pattern.serialize_ms": ("pattern.serialize",),
}

# per-layer metric -> span name; reported per call rather than per operation
PER_CALL_SPANS = {
    "model.checkpoint_save_ms": "model.checkpoint_save",
    "model.checkpoint_load_ms": "model.checkpoint_load",
}

# units of the per-layer metrics that are not times
UNITS = {
    "pointcloud.encodes_per_cloud": "count",
    "decoder.smooth_rows": "count",
    "decoder.kept_panels": "count",
    "decoder.smooth_useful_ratio": "ratio",
    "training.targets_per_sample": "count",
    "nn.tape_nodes": "count",
    "nn.tape_mib": "MiB",
    "stitcher.pairs": "count",
}


def tape_size(roots):
    """(nodes, bytes of node data) reachable from `roots` through `.parents`."""
    seen = set()
    stack = list(roots)
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node.parents)
    return len(seen), nbytes


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1              # id of the current end-to-end operation
        self.spans = []           # [name, start_ns, end_ns, parent, op]
        self.stack = []           # indices of open spans
        self.counts = defaultdict(float)
        self.keys = defaultdict(set)
        self._bench_modules = ()

    # -- spans ------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def ancestor(self, name):
        """Index of the innermost open span called `name`, or None."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return None

    def wrap(self, fn, name, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                tracer.open(HOOK)
                try:
                    after(tracer, args, result)
                finally:
                    tracer.close()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr, name, after=None):
        """Replace `module.attr` in every module that imported it: panelkit's
        own and the benchmark's."""
        fn = getattr(module, attr)
        traced = self.wrap(fn, name, after)
        targets = [
            m
            for key, m in list(sys.modules.items())
            if key == "panelkit" or key.startswith("panelkit.")
        ]
        targets.extend(self._bench_modules)
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, after))
        else:
            new = self.wrap(raw, name, after)
        setattr(cls, attr, new)

    def install(self, bench_modules=()):
        """Wrap every layer boundary the per-layer metrics are taken at."""
        from panelkit import crossmodal, decoder, model, pointcloud, prompt, stitcher, training
        from panelkit.nn import optim, tensor

        self._bench_modules = tuple(bench_modules)
        f = self.patch_function
        m = self.patch_method
        f(pointcloud, "farthest_point_sample", "pointcloud.fps", after=_count_encode)
        f(pointcloud, "knn_group", "pointcloud.knn")
        m(pointcloud.PatchEmbedder, "__call__", "pointcloud.patch_embed")
        m(pointcloud.GlobalEncoder, "__call__", "pointcloud.global_encoder")
        for attr in ("encode_text", "encode_sketch", "build_standard_instruction"):
            m(prompt.PromptEncoder, attr, "prompt.encode")
        f(crossmodal, "cost_matrix", "crossmodal.cost_matrix")
        f(crossmodal, "solve_transport", "crossmodal.transport")
        m(crossmodal.FusionBlock, "__call__", "crossmodal.fusion")
        m(decoder.PanelDecoder, "__call__", "decoder.decoder")
        m(decoder.PlacementHead, "__call__", "decoder.heads")
        m(decoder.ConfidenceHead, "__call__", "decoder.heads")
        m(decoder.MaskHead, "__call__", "decoder.mask_head")
        m(decoder.SmoothHead, "__call__", "decoder.smooth_head", after=_count_smooth_rows)
        f(decoder, "select_panels", "decoder.select", after=_count_kept)
        m(model.PatternModel, "infer", "model.infer")
        m(model.PatternModel, "forward", "model.forward", after=_count_forward_tape)
        m(model.PatternModel, "predictions", "model.predictions")
        m(model.PatternModel, "encode_cloud", "model.encode_cloud")
        m(model.PatternModel, "save", "model.checkpoint_save")
        m(model.PatternModel, "load", "model.checkpoint_load")
        f(training, "train", "training.train")
        f(training, "build_targets", "training.build_targets", after=_count_targets)
        f(training, "composite_loss", "training.loss")
        f(tensor, "backward", "nn.backward", after=_count_backward_tape)
        f(optim, "adam_step", "nn.adam")
        f(stitcher, "build_edge_graph", "stitcher.graph", after=_count_pairs)
        f(stitcher, "gnn_score", "stitcher.score")
        f(stitcher, "match_stitches", "stitcher.match")
        for mod in bench_modules:
            if hasattr(mod, "serialize"):
                f(mod, "serialize", "pattern.serialize")

    # -- results ----------------------------------------------------------

    def self_ns(self):
        """Total self time and call count per span name."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(int)
        calls = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[idx]
            calls[name] += 1
        return total, calls

    def metrics(self, ops):
        """Every per-layer metric, times per operation of the workload."""
        total, calls = self.self_ns()
        c = self.counts
        out = {}
        for metric, names in LAYER_SPANS.items():
            out[metric] = sum(total[n] for n in names) / 1e6 / ops
        for metric, name in PER_CALL_SPANS.items():
            out[metric] = total[name] / 1e6 / calls[name] if calls[name] else 0.0
        rows = c["smooth_rows_infer"] + c["smooth_rows_other"]
        out.update(
            {
                "pointcloud.encodes_per_cloud": _ratio(c["fps_calls"], len(self.keys["cloud"])),
                "decoder.smooth_rows": rows / ops,
                "decoder.kept_panels": c["kept_panels"] / ops,
                # rows outside inference (loss teacher forcing) are all used
                "decoder.smooth_useful_ratio": _ratio(c["kept_panels"] + c["smooth_rows_other"], rows),
                "training.targets_per_sample": _ratio(c["target_builds"], len(self.keys["sample"])),
                "nn.tape_nodes": c["tape_nodes"] / ops,
                "nn.tape_mib": c["tape_bytes"] / 2**20 / ops,
                "stitcher.pairs": c["stitch_pairs"] / ops,
            }
        )
        return out

    def write(self, path, summary):
        spans = [
            [name, round(start / 1e3, 3), round((end - start) / 1e3, 3), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        doc = {
            "columns": ["name", "start_us", "duration_us", "parent", "op"],
            "spans": spans,
            "counts": dict(self.counts),
            "summary": summary,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _ratio(num, den):
    return num / den if den else 0.0


def _scope(tracer):
    """Distinct inputs are counted per `training.train` call (or per run)."""
    return tracer.ancestor("training.train")


def _count_encode(tracer, args, result):
    points = args[0]
    digest = hashlib.blake2b(points.tobytes(), digest_size=16).digest()
    tracer.counts["fps_calls"] += 1
    tracer.keys["cloud"].add((_scope(tracer), digest))


def _count_targets(tracer, args, result):
    tracer.counts["target_builds"] += 1
    tracer.keys["sample"].add((_scope(tracer), id(args[0])))


def _count_smooth_rows(tracer, args, result):
    where = "infer" if tracer.ancestor("model.infer") is not None else "other"
    tracer.counts[f"smooth_rows_{where}"] += args[1].shape[0]


def _count_kept(tracer, args, result):
    tracer.counts["kept_panels"] += len(result.panels)


def _count_backward_tape(tracer, args, result):
    nodes, nbytes = tape_size([args[0]])
    tracer.counts["tape_nodes"] += nodes
    tracer.counts["tape_bytes"] += nbytes


def _count_forward_tape(tracer, args, result):
    # training steps are counted from the loss at backward instead
    if tracer.ancestor("model.infer") is None:
        return
    from panelkit.nn.tensor import Tensor

    roots = [v for v in vars(result).values() if isinstance(v, Tensor)]
    nodes, nbytes = tape_size(roots)
    tracer.counts["tape_nodes"] += nodes
    tracer.counts["tape_bytes"] += nbytes


def _count_pairs(tracer, args, result):
    tracer.counts["stitch_pairs"] += len(result[1])


def all_metric_units():
    units = {m: "ms" for m in list(LAYER_SPANS) + list(PER_CALL_SPANS)}
    units.update(UNITS)
    return units
