"""Benchmark for sierpspec: certify, dimension and cli-roundtrip workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Runs passes of one workload while they fit in ``--seconds``, checks every
call against a known answer, and prints two JSON lines: a full report (run
environment, input sizes, per-call times and counts, errors) and, last, the
result ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` passes alternate
between untraced and traced, and the metrics are the per-layer ones taken
from the traced passes.  Spans and the report are written to
``.bench_out/`` at the root of the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "gen_s": "s", "verify_s": "s",
             "dim_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("treemap", "construct", "verify", "dimension", "cli")
LAYER_TIMES = (
    "treemap.enumerate_s", "construct.pattern_s",
    "verify.orthogonality_s", "verify.lines_s", "verify.projections_s",
    "verify.unitarity_s", "verify.qsum_s",
    "dimension.estimate_s", "dimension.estimate_symbolic_s", "dimension.estimate_concrete_s",
    "cli.gen_s", "cli.verify_s", "cli.dim_s", "cli.startup_s",
)
LAYER_COUNTS = (
    "treemap.points", "treemap.kicked_points", "treemap.max_kick_exponent",
    "verify.orthogonality_pairs", "verify.orthogonality_symbolic_pairs",
    "verify.orthogonality_sampled", "verify.violations", "dimension.triples",
    "cli.file_bytes", "cli.max_coord_digits", "cli.exit_code_mismatches",
)
MAX_COUNTS = ("treemap.max_kick_exponent", "cli.max_coord_digits")  # the rest add up
TIMING_NOTE = ("process-local wall-clock timing (time.perf_counter) and getrusage "
               "only; no hardware counters, no cache dropping, no machine settings "
               "changed")


def cap_threads() -> None:
    """Keep numpy/BLAS thread pools at or below the CPUs this process may use."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = None
        if current is None or current > NPROC:
            os.environ[var] = str(NPROC)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "dimension", "cli-roundtrip"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def summarize(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs), "p": None, "p_value": None}
    if len(xs) > 10:
        out["p"] = int(100 * (len(xs) - 10) / len(xs))
        out["p_value"] = xs[len(xs) - 11]
    return out


def setup_times(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where the
    workload could make its first timed call, measured SETUP_PROBES times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(args) -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "sierpspec"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timing": TIMING_NOTE,
        "client": "closed loop, one client: each call starts after the previous returned",
    }


def pass_stages(p) -> dict[str, float]:
    stages = {"gen_s": 0.0, "verify_s": 0.0, "dim_s": 0.0}
    for c in p.calls:
        key = f"{c.stage}_s"
        if key in stages:
            stages[key] += c.seconds
    stages["wall_s"] = sum(c.seconds for c in p.calls)
    return stages


def pass_layers(p, tracer) -> dict[str, float]:
    out = {m: 0.0 for m in LAYER_TIMES}
    out.update({m: 0 for m in LAYER_COUNTS})
    for c in p.calls:
        for m in c.metrics:
            out[m] += c.seconds
        for m, v in c.counts.items():
            out[m] = max(out[m], v) if m in MAX_COUNTS else out[m] + v
    orth, est = out["verify.orthogonality_s"], out["dimension.estimate_s"]
    out["verify.orthogonality_pairs_per_s"] = (
        out["verify.orthogonality_pairs"] / orth if orth else 0.0)
    out["dimension.triples_per_s"] = out["dimension.triples"] / est if est else 0.0
    own = tracer.self_times(p.index)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sierpspec", "__init__.py")):
        print(f"error: no sierpspec sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, SRC)
    import workloads  # after the thread cap: numpy reads it on import

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.make_inputs(args.seed)
        workload = workloads.WORKLOADS[args.workload](inputs, workdir)
        if args.setup_probe:
            return 0
        return measure(args, workload, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workloads) -> int:
    from tracing import Tracer

    setups = setup_times(args)
    tracer = Tracer(args.workload, args.seed)
    passes = []
    lengths = []  # seconds per pass, checks included
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = workloads.Pass(len(passes), tracer if traced else None)
        gc.collect()  # every pass starts from the same heap state
        t_pass = time.perf_counter()
        if traced:
            with tracer.span(f"{args.workload} pass", "bench", p.index):
                workload.run_pass(p)
        else:
            workload.run_pass(p)
        lengths.append(time.perf_counter() - t_pass)
        passes.append((traced, p))
        both = not args.trace or len({t for t, _ in passes}) == 2
        # start another pass only if it should end within --seconds
        if both and time.perf_counter() - t0 + lengths[-1] > args.seconds:
            break

    calls = [c for _, p in passes for c in p.calls]
    failed = [c for c in calls if c.error]
    plain = [pass_stages(p) for t, p in passes if not t]
    e2e = {m: summarize([s[m] for s in plain]) for m in ("wall_s", "gen_s", "verify_s", "dim_s")}
    e2e["setup_s"] = summarize(setups)
    rss = peak_rss_mb()
    e2e["peak_rss_mb"] = {"median": rss, "n": 1, "p": None, "p_value": None}

    if args.trace:
        layered = [pass_layers(p, tracer) for t, p in passes if t]
        traced_wall = statistics.median(pass_stages(p)["wall_s"] for t, p in passes if t)
        names = list(layered[0])
        metrics = {m: statistics.median(row[m] for row in layered) for m in names}
        metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"]["median"]
    else:
        metrics = {m: e2e[m]["median"] for m in E2E_UNITS}

    report = {
        "environment": environment(args),
        "passes": len(passes),
        "traced_passes": sum(1 for t, _ in passes if t),
        "pass_seconds": lengths,
        "pass_stages": plain,
        "end_to_end": e2e,
        "error_rate": len(failed) / len(calls) if calls else 1.0,
        "errors": [f"pass {i} {c.label}: {c.error}" for i, (_, p) in enumerate(passes)
                   for c in p.calls if c.error][:20],
        "calls": summarize_calls(passes),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")

    units = E2E_UNITS if not args.trace else {m: unit_of(m) for m in metrics}
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if not failed else 1


def summarize_calls(passes) -> list[dict]:
    """Per call label: stage, layer, time summary over all samples, counts."""
    by_label: dict[str, dict] = {}
    for traced, p in passes:
        for c in p.calls:
            row = by_label.setdefault(c.label, {
                "label": c.label, "stage": c.stage, "layer": c.layer,
                "samples": [], "traced_samples": [], "counts": c.counts,
            })
            row["traced_samples" if traced else "samples"].extend(c.samples)
    out = []
    for row in by_label.values():
        for key in ("samples", "traced_samples"):
            row[key] = summarize(row[key]) if row[key] else None
        out.append(row)
    return out


if __name__ == "__main__":
    sys.exit(main())
