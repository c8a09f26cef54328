#!/usr/bin/env python3
"""Pipeline benchmark for dclimba: seeded workloads, end-to-end metrics
measured plainly, per-layer metrics from a traced run.

Run from the repository root:

    python3 pipebench/run.py --workload train8 --seed 1 --seconds 35 --trace 0
    python3 pipebench/run.py --workload all --seed 1

``--workload all`` runs train8, correct16 and evaluate32, each in a fresh
process so that peak memory is per workload. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(layers.json) with ``--trace 1``. The line before it is the full report:
environment, each timing's median, tail percentile and sample count, the
figures under their workload-specific names, and the computed counts;
``--out`` also writes that report to a file.

The seed selects the generated world and nothing else. BLAS runs on one
thread, so each workload is a single-core process, as in the paper's
"trains in minutes on one CPU core"; a second BLAS thread made step times
spread twice as much between runs on a shared two-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train8", "correct16", "evaluate32")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
ROOT_SPANS = ("setup", "prep", "op")


def per_layer_spec() -> list[dict]:
    with open(HERE / "layers.json") as f:
        return json.load(f)["per_layer"]


def summary(samples: list[float]) -> dict:
    """Median, the highest of p75/p90/p95/p99 with at least ten samples
    beyond it, the sample count and the samples."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def environment(seed: int) -> dict:
    import importlib.util

    import numpy as np
    import scipy

    from dclimba import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_active": bool(_kernels.USE_NUMBA),
        "machine": platform.machine(),
        "seed": seed,
    }


def layer_metrics(tracer, traced, plain) -> dict:
    """Per-layer values: self seconds per sample of the stage they ran in,
    counts per op, flop and bytes per kernel call."""
    n = {stage: len(traced.samples[stage]) for stage in ROOT_SPANS}
    vals = defaultdict(float)
    calls = defaultdict(float)
    for (phase, name), (secs, count) in tracer.self_times().items():
        if not n.get(phase):
            continue
        if name in ROOT_SPANS:
            key = "unattributed.s"
        elif name.endswith((".fwd", ".bwd")):
            key = name + "_s"
        else:
            key = name + ".s"
        vals[key] += secs / n[phase]
        vals[name + ".calls"] += count / n[phase]
        calls[name] += count
    work = defaultdict(float)
    for (phase, name), total in tracer.counts.items():
        if not n.get(phase):
            continue
        if name.endswith((".flop", ".bytes")):
            work[name] += total
        else:
            vals[name] += total / n[phase]
    for name, total in work.items():
        kernel = name.rsplit(".", 1)[0]
        vals[name] = total / calls[kernel] if calls[kernel] else 0.0
    vals["trace.overhead_s"] = (statistics.median(traced.samples["op"])
                                - statistics.median(plain.samples["op"]))
    return {m["name"]: {"value": vals.get(m["name"], 0.0), "unit": m["unit"]}
            for m in per_layer_spec()}


def run_one(args) -> int:
    if not (ROOT / "src" / "dclimba" / "__init__.py").is_file():
        print(f"pipebench: no dclimba sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".pipebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        plain, traced, state = workloads.measure(workload, args.seed, args.seconds,
                                                 workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = plain.attempted + (traced.attempted if traced else 0)
    failed = plain.failed + (traced.failed if traced else 0)
    timings = {f"{stage}_s": summary(plain.samples[stage])
               for stage in ROOT_SPANS if plain.samples[stage]}
    scaled = {f"{stage}_s": summary(plain.scaled[stage])
              for stage in ROOT_SPANS if plain.scaled[stage]}
    named = {}
    for stage, (name, cell_days) in workload.named.items():
        median = (scaled or timings)[f"{stage}_s"]["median"]
        named[name] = ({"value": cell_days / median, "unit": "cell-days/s"}
                       if cell_days else {"value": median, "unit": "s"})
    named.update(workload.extra(state))
    named["failed_ops_frac"] = {"value": failed / attempted, "unit": "failed/attempted"}

    if tracer is None:
        metrics = {k: {"value": v["median"], "unit": "s"} for k, v in scaled.items()}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    else:
        metrics = layer_metrics(tracer, traced, plain)
    report = {"workload": args.workload, "why": workload.why,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "timings": timings, "scaled": scaled,
              "named": named, "metrics": metrics,
              "computed": {k: v for k, v in metrics.items()
                           if k.endswith((".flop", ".bytes", ".calls", ".tape_nodes"))}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    for name, m in {**metrics, **named}.items():
        print(f"{args.workload:<11} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", f"{args.out}.{name}.json"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pipebench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"report"')))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full report here")
    args = parser.parse_args(argv)

    for var in BLAS_VARS:      # read by BLAS when numpy is first imported
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
