#!/usr/bin/env python3
"""orbitcal end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 40 --trace 0

Workloads: decide-sparse, elim-cones, battery (see
workloads.py and README.md).  Every run is one process, a closed loop
that runs one op at a time.

--trace 0 measures the end-to-end metrics: it repeats whole passes of
the workload until --seconds would be exceeded (always at least one
pass), and reports the median pass time, the quantiles of all op
latencies of the run and the median set-up time of fresh interpreters,
each in seconds at the reference host speed (see HostProbe).  --trace 1
runs one pass untraced and the same pass again under the span tracer,
and reports the per-layer metrics.  Both check every answer, print a
context line, then as the last line one JSON object with the keys
correct, attempted, failed and metrics, and write the full record (and,
traced, the spans) under .bench_out/.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("decide-sparse", "elim-cones", "battery")
# Between ops the run times the reference loop once per CALIB_EVERY_S
# elapsed (about a quarter of the run) and takes a set-up sample once
# per SETUP_EVERY_S (HostProbe).
CALIB_EVERY_S = 0.5
SETUP_EVERY_S = 2.5
# The reference loop's time at the reference host speed, about its median
# on a 2-vCPU x86-64 VM with CPython 3.11 (it ranged from 0.09 to 0.26 s).
CALIB_REF_S = 0.150
END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.overhead_s": "s"}


def import_program():
    """Put the checkout's src/ first on the path and import orbitcal from
    it; refuse an orbitcal found anywhere else."""
    if not (SRC / "orbitcal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orbitcal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orbitcal

    if Path(orbitcal.__file__).resolve().parent != SRC / "orbitcal":
        raise SystemExit(f"perfbench: imported orbitcal from {orbitcal.__file__}, not {SRC}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop, a reference for the
    host's speed at the time it runs."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 20_001):
        acc += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, 7)
    return perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed: {err.strip()}")
    return elapsed


class HostProbe:
    """Samples taken between ops, spread evenly over the run: the
    reference loop, once per CALIB_EVERY_S elapsed, and set-up, once per
    SETUP_EVERY_S.

    The host's speed drifts by up to 2x over seconds to minutes, and the
    program, the reference loop and set-up all slow down together.  So
    every end-to-end time is reported at the reference host speed: the
    measured seconds times CALIB_REF_S over the run's mean reference
    time.  The loop runs in this process, so that it meets the same CPU
    as the ops, with the collector off, so that the program's heap does
    not slow it.  The raw times are kept in the run's record."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.calib, self.setup = [], []
        self.last_calib = self.last_setup = perf_counter()

    def _calibrate(self) -> float:
        gc.disable()
        try:
            return calibrate()
        finally:
            gc.enable()

    def __call__(self, force: bool = False):
        """Take the samples that are due, or one of each if force."""
        now = perf_counter()
        due = int((now - self.last_calib) / CALIB_EVERY_S)
        if due or force:
            self.calib += [self._calibrate() for _ in range(max(due, 1))]
            self.last_calib = perf_counter()
        if force or now - self.last_setup >= SETUP_EVERY_S:
            self.setup.append(time_setup(self.workload, self.seed))
            self.last_setup = perf_counter()

    def factor(self) -> float:
        """Measured seconds to seconds at the reference host speed.  The
        mean, not the median: a single sample is either fast or slow, and
        the mean follows the share of slow time smoothly."""
        return CALIB_REF_S / statistics.mean(self.calib)


def run_pass(ops, tracer=None, between=None):
    """Run ops one at a time; time each call, then check its answer, then
    call between() if given.  Returns the latencies (infinite for a failed
    op) and the failures."""
    latencies, failures = [], []
    for op_id, op in enumerate(ops):
        result = None  # free the previous answer before the next op runs
        if tracer is not None:
            tracer.op_id = op_id
        start = perf_counter()
        try:
            result = op.run()
            latency = perf_counter() - start
            op.check(result)
        except Exception as exc:  # an error or a wrong answer fails this op only
            latency = math.inf
            failures.append(f"{op.name}: {exc!r}")
        latencies.append(latency)
        if between is not None:
            between()
    if tracer is not None:
        tracer.op_id = -1
    return latencies, failures


def p90(values) -> float:
    """90th percentile, interpolated between samples; infinite when an op
    failed."""
    if len(values) < 2 or not all(map(math.isfinite, values)):
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def context(args, probe) -> dict:
    from orbitcal import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel_backend": _kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "host.calib_s": {
            "before": probe.calib[0], "after": probe.calib[-1], "mean": statistics.mean(probe.calib),
        },
    }


def measure(args, workload, probe):
    """End-to-end metrics from whole passes, repeated until the next pass
    would overrun --seconds (and at least once), with the host probed
    between ops."""
    passes, failures = [], []
    start = perf_counter()
    while True:
        ops = workload.make_pass(len(passes))
        gc.collect()
        latencies, fail = run_pass(ops, between=probe)
        passes.append(latencies)
        failures += fail
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    probe(force=True)
    pooled = [latency for latencies in passes for latency in latencies]
    raw = {
        "wall_s": statistics.median(sum(latencies) for latencies in passes),
        "op_p50_s": statistics.median(pooled),
        "op_p90_s": p90(pooled),
        "setup_s": statistics.median(probe.setup),
    }
    factor = probe.factor()
    metrics = {name: value * factor for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "raw_s": raw,
        "host_factor": factor,
        "calib_samples_s": probe.calib,
        "setup_samples_s": probe.setup,
        "op_latencies_s": passes,
    }
    return metrics, len(pooled), failures, record


def trace(args, workload):
    """One untraced pass, then the same pass under the tracer."""
    from tracer import Tracer, input_properties, layer_metrics, layer_self_shares

    ops = workload.make_pass(0)
    gc.collect()
    untraced, failures = run_pass(ops)
    ops = workload.make_pass(0)
    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        traced, traced_failures = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    wall = sum(traced)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (wall - sum(untraced), TRACE_UNITS["trace.overhead_s"])
    names = [op.name for op in ops]
    spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "ops": names, "spans": tracer.spans()}, fh)
    record = {
        "wall_s": {"untraced": sum(untraced), "traced": wall},
        "layer_self_share": layer_self_shares(tracer, wall),
        "input_properties": input_properties(tracer, names),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, len(untraced) + len(traced), failures + traced_failures, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.setup_only:  # in a directory of its own: the run's files stay as they are
        workdir = OUT / f"setup-{args.workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload](args.seed, workdir).make_pass(0)
        print("ready", flush=True)
        return 0

    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    probe = HostProbe(args.workload, args.seed)
    probe(force=True)
    if args.trace:
        metrics, attempted, failures, record = trace(args, workload)
        probe(force=True)
    else:
        values, attempted, failures, record = measure(args, workload, probe)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    ctx = context(args, probe)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "result": result, "failures": failures, **record}, fh, indent=1)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
