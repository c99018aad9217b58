"""Build step of the benchmark: train the set-up model once per source tree.

The `infer` and `personalize` workloads need a trained `PatternModel` and a
trained `StitchNet`. Training them takes two to three minutes, far longer than a
run's set-up, so they are built once, like a compiled binary, and cached
under the build directory keyed by a hash of `src/panelkit` and this file.
Every run then reloads them cold with `PatternModel.load`.

Run directly to build (or verify) the cache:

    python3 benchmark/build.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The set-up model: one garment per training family, each sampled as
# BUILD_CLOUDS clouds, trained with the default Config except for the epoch
# count and a batch size that gives six Adam steps per epoch. The garments
# are fixed, independent of any run's --seed; runs resample clouds of them.
BUILD_SEED = 2303
BUILD_CLOUDS = 5
BUILD_EPOCHS = 100
BUILD_BATCH = 5
BUILD_VERSION = "1"

# single-threaded BLAS; must be set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "panelkit-bench"


def source_key():
    """Hash of everything the built artifacts depend on."""
    h = hashlib.sha256(BUILD_VERSION.encode())
    files = sorted((SRC / "panelkit").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def artifact_paths():
    d = build_dir() / source_key()
    return {
        "dir": d,
        "model": d / "model.ptck",
        "stitch": d / "stitch.ptck",
        "meta": d / "meta.json",
    }


def training_specs():
    """(family, SyntheticSpec) of the set-up model's garments."""
    import numpy as np

    from panelkit.synthetic import TRAIN_FAMILIES, draw_spec

    out = []
    for i, family in enumerate(TRAIN_FAMILIES):
        spec = draw_spec(family, np.random.default_rng([BUILD_SEED, i]))
        out.append((family, spec))
    return out


def training_cloud(i, copy):
    """Cloud `copy` of garment i, exactly as the set-up model saw it."""
    import numpy as np

    from panelkit.synthetic import generate_sample

    spec = training_specs()[i][1]
    return generate_sample(spec, np.random.default_rng([BUILD_SEED, i, 1 + copy]))


def training_dataset():
    n = len(training_specs())
    return [training_cloud(i, c) for c in range(BUILD_CLOUDS) for i in range(n)]


def build():
    """Train and save the set-up model and stitcher unless already cached."""
    paths = artifact_paths()
    if paths["meta"].exists():
        return paths, 0.0
    from panelkit.config import Config
    from panelkit.nn.checkpoint import save_arrays
    from panelkit.training import train, train_stitcher

    start = time.perf_counter()
    dataset = training_dataset()
    config = Config(epochs=BUILD_EPOCHS, batch_size=BUILD_BATCH)
    model, curve = train(dataset, config)
    # the stitcher fits on one cloud per garment
    net, store = train_stitcher(model, dataset[: len(training_specs())], config)
    tmp = paths["dir"].with_name(paths["dir"].name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True, exist_ok=True)
    model.save(tmp / "model.ptck")
    save_arrays(tmp / "stitch.ptck", {k: t.data for k, t in store.params.items()})
    final = {part: value for epoch, part, value in curve if epoch == curve[-1][0]}
    meta = {
        "epochs": BUILD_EPOCHS,
        "clouds": len(dataset),
        "final_loss": final,
        "seconds": time.perf_counter() - start,
    }
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    try:
        tmp.rename(paths["dir"])
    except OSError:
        # another process finished the same build first; keep its result
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()
    return paths, time.perf_counter() - start


def load_stitcher(path, config):
    """StitchNet with the parameters saved by `build`."""
    import numpy as np

    from panelkit.nn.checkpoint import load_arrays
    from panelkit.nn.optim import ParameterStore
    from panelkit.stitcher import StitchNet

    store = ParameterStore()
    net = StitchNet(
        store,
        np.random.default_rng(0),
        rounds=config.stitch_rounds,
        width=config.stitch_width,
    )
    values = load_arrays(path)
    if set(values) != set(store.params):
        raise ValueError(f"{path}: stitcher parameters do not match StitchNet")
    store.load_values(values)
    return net


def main():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "panelkit" / "__init__.py").exists():
        print(f"error: no panelkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    paths, seconds = build()
    print(f"set-up model at {paths['dir']} ({seconds:.1f}s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
