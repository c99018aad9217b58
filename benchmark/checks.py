"""Output checks, written apart from the code under test.

Each check takes plain values (numbers, arrays, tuples) extracted from the
program's outputs and returns a list of failure messages; an empty list
means the output passed. None of them calls panelkit, so a fault in the
program cannot hide in the check.
"""

from __future__ import annotations

import numpy as np


def gating(returned, slots, active, threshold, top_k, requested=None):
    """Confidence/instruction gating of one prediction.

    returned:  [(class_id, num_edges)] of the panels in the returned pattern
    slots:     {slot: (confidence, valid_edges)} for every decoder slot
    active:    per-slot bool, the instruction's active mask
    requested: the classes the request named, or None for all

    Every returned class must be active, requested, above the threshold and
    have >= 3 edges; at most top_k are returned, and they are exactly the
    top_k eligible slots by confidence (ties to the lower slot).
    """
    out = []
    classes = [c for c, _ in returned]
    if len(set(classes)) != len(classes):
        out.append(f"duplicate classes {classes}")
    if len(classes) > top_k:
        out.append(f"{len(classes)} panels > top_k {top_k}")
    for c, n_edges in returned:
        if c not in slots:
            out.append(f"class {c} is not a decoder slot")
            continue
        conf, valid = slots[c]
        if not active[c]:
            out.append(f"class {c} returned but inactive")
        if requested is not None and c not in requested:
            out.append(f"class {c} returned but not requested")
        if not conf > threshold:
            out.append(f"class {c} returned at confidence {conf:.4f} <= {threshold}")
        if valid < 3 or n_edges < 3:
            out.append(f"class {c} returned with {min(valid, n_edges)} edges < 3")
        elif n_edges != valid:
            out.append(f"class {c} has {n_edges} edges, {valid} valid")
    eligible = [
        s
        for s, (conf, valid) in slots.items()
        if active[s]
        and (requested is None or s in requested)
        and conf > threshold
        and valid >= 3
    ]
    expected = sorted(sorted(eligible, key=lambda s: (-slots[s][0], s))[:top_k])
    if sorted(classes) != expected:
        out.append(f"returned classes {sorted(classes)} != gated top-k {expected}")
    return out


def stitches(edge_counts, pairs):
    """Stitch references: existing panels and edges, two different panels,
    no edge used twice. edge_counts[i] is the edge count of kept panel i."""
    out = []
    used = set()
    for a, b in pairs:
        for panel, edge in (a, b):
            if not 0 <= panel < len(edge_counts):
                out.append(f"stitch {a}-{b} references panel {panel} of {len(edge_counts)}")
            elif not 0 <= edge < edge_counts[panel]:
                out.append(f"stitch {a}-{b} references edge {edge} of {edge_counts[panel]}")
            if (panel, edge) in used:
                out.append(f"edge {(panel, edge)} used twice")
            used.add((panel, edge))
        if a[0] == b[0]:
            out.append(f"stitch {a}-{b} joins a panel to itself")
    return out


def same_outputs(reference, moved, tol):
    """Outputs of the original and of the rigidly translated cloud agree.

    Both are {name: array or tuple}; arrays must agree within `tol` relative
    to max(1, |value|), everything else exactly."""
    out = []
    for name, ref in reference.items():
        other = moved[name]
        if isinstance(ref, np.ndarray):
            if ref.shape != other.shape:
                out.append(f"{name}: shape {ref.shape} != {other.shape}")
                continue
            err = np.abs(ref - other) / np.maximum(1.0, np.abs(ref))
            worst = float(err.max()) if err.size else 0.0
            if not worst <= tol:
                out.append(f"{name}: translated output differs by {worst:.3e} > {tol:.0e}")
        elif ref != other:
            out.append(f"{name}: {ref!r} != {other!r} after translation")
    return out


def mask_iou(pred, truth):
    """IoU of two boolean masks; 1.0 when both are empty."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    union = np.logical_or(pred, truth).sum()
    return 1.0 if union == 0 else float(np.logical_and(pred, truth).sum() / union)


def same_classes(pred_classes, true_classes):
    """Predicted panel classes are exactly the garment's."""
    if sorted(pred_classes) != sorted(true_classes):
        return [f"predicted classes {sorted(pred_classes)} != true {sorted(true_classes)}"]
    return []


def iou_floor(ious, floor):
    """Mean mask IoU of a garment's true panels clears the floor."""
    mean = float(np.mean(ious))
    if not mean >= floor:
        return [f"mean mask IoU {mean:.3f} < floor {floor}"]
    return []


def match_rate(hits, total, floor):
    """Share of garments whose predicted classes were exactly right."""
    if total and not hits / total >= floor:
        return [f"classes right on {hits}/{total} garments, below the floor {floor:.0%}"]
    return []


def loss_falls(first, last, margin):
    """Final epoch-mean loss at least `margin` (a share) below the first."""
    if not np.isfinite(last) or not last <= first * (1.0 - margin):
        return [f"loss went {first:.5f} -> {last:.5f}, needs a fall of {margin:.0%}"]
    return []


def gradient(analytic, numeric, tol):
    """Backward gradient vs central differences, coordinate by coordinate.

    numeric[i] holds the central-difference estimates of coordinate i at one
    or more step sizes. A coordinate passes when some estimate has relative
    error |a - n| / max(|a|, |n|) below tol: a step that straddles a ReLU or
    max-pool kink spoils one estimate, a wrong backward spoils them all.
    """
    out = []
    for i, (a, estimates) in enumerate(zip(analytic, numeric)):
        errors = [_relative(a, n) for n in estimates]
        if not min(errors) < tol:
            shown = ", ".join(f"{n:.9e}" for n in estimates)
            out.append(
                f"coordinate {i}: backward {a:.9e} vs central differences {shown} "
                f"(best rel {min(errors):.2e})"
            )
    return out


def _relative(a, n):
    scale = max(abs(a), abs(n))
    return abs(a - n) / scale if scale > 0 else 0.0


def bitwise_equal(a, b):
    """Two {name: array} parameter sets are identical bit for bit."""
    out = []
    if sorted(a) != sorted(b):
        return [f"parameter names differ: {sorted(set(a) ^ set(b))}"]
    for name in sorted(a):
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            out.append(f"{name} differs between two same-seed trainings")
    return out
