"""panelkit benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload {train,infer,personalize} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout, single-process with
single-threaded BLAS. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it wraps every layer (see tracing.py), prints the per-layer
metrics and writes the spans to benchmark/out/. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import time

START = time.perf_counter()  # before numpy loads: set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_TIMEOUT_S = 840


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "infer", "personalize"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated q-th percentile (0-100)."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def ensure_build():
    """(seconds spent building the set-up model, its artifact paths)."""
    import build

    paths = build.artifact_paths()
    if paths["meta"].exists():
        return 0.0, paths
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "build.py")], check=True, timeout=BUILD_TIMEOUT_S
    )
    return time.perf_counter() - start, paths


def main(argv=None):
    args = parse_args(argv)
    import build

    for var in build.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "panelkit" / "__init__.py").exists():
        print(f"error: no panelkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    build_s, paths = ensure_build()
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(bench_modules=(workloads,))

    workload = workloads.WORKLOADS[args.workload](args.seed, paths)
    setup_s = time.perf_counter() - START - build_s

    out = workloads.Outcome(tracer=tracer)
    if tracer:
        tracer.active = True
    begin = time.perf_counter()
    while True:
        workload.run_round(out)
        done = time.perf_counter() - begin >= args.seconds
        if done and out.attempted >= workload.min_ops:
            break
    wall_s = time.perf_counter() - begin
    if tracer:
        tracer.active = False
        probe_checkpoint(tracer, workload)
    workload.check(out)

    for msg in out.errors + out.failures:
        print(msg, file=sys.stderr)
    ops = out.attempted - out.failed
    if ops == 0:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if tracer:
        metrics = tracer.metrics(ops)
        units = tracing.all_metric_units()
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": ops,
            "wall_s": wall_s,
            "latency_ms_p50": statistics.median(out.latencies) * 1e3,
            "throughput_per_s": ops / out.busy,
            "metrics": metrics,
        }
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json", summary)
        print(
            f"traced: {ops} ops, latency p50 {summary['latency_ms_p50']:.3f} ms, "
            f"{summary['throughput_per_s']:.3f}/s",
            file=sys.stderr,
        )
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
            "throughput_per_s": {"value": ops / out.busy, "unit": "1/s"},
            "latency_ms_p50": {"value": statistics.median(out.latencies) * 1e3, "unit": "ms"},
            "latency_ms_p90": {"value": percentile(out.latencies, 90) * 1e3, "unit": "ms"},
        }
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


def probe_checkpoint(tracer, workload):
    """Traced save and cold load of the workload's model, for the
    model.checkpoint_* metrics."""
    from panelkit.model import PatternModel

    model = workload.model
    path = HERE / "out" / "probe.ptck"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.active = True
    model.save(path)
    PatternModel.load(path)
    tracer.active = False
    path.unlink()


if __name__ == "__main__":
    sys.exit(main())
