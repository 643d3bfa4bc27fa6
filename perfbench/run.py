"""Benchmark of the toralrank library, run from the root of a source checkout.

    python3 perfbench/run.py --workload nilmanifold --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one returns.  The run sets up the library seven times (import,
input generation, warm-up) and reports the median as setup_s, then runs
timed passes over fresh seeded inputs until --seconds have passed (at
least two passes), checks every exact result, and runs the matching CLI
command once in a child process to confirm it prints the fields the
in-process run computed.

Times are reported in reference seconds (speed.py): wall time weighted by
the speed of the machine, sampled every 20 ms with a fixed Fraction kernel
while the run measures, so that the speed changes of a shared machine
cancel out.  Each pass line shows its raw wall time and its scale, the
reference seconds per wall second of the pass.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 every second pass runs under the layer spans of tracing.py
and the run reports the per-layer metrics instead: medians over the traced
passes, plus the tracing overhead against the untraced passes.  Spans are
written to .bench_build/perfbench/ at the end.  Information lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import clock, probe, ref_clock
from tracing import LAYERS, Tracer, span_metrics, traced
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 2


def load_library():
    """Import toralrank afresh from the checkout's src/ and return its layers."""
    for name in [n for n in sys.modules if n == "toralrank" or n.startswith("toralrank.")]:
        del sys.modules[name]
    pkg = importlib.import_module("toralrank")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "toralrank":
        raise ImportError(f"toralrank was imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{m: importlib.import_module(f"toralrank.{m}") for m in LAYERS})


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup(workload):
    """Median reference time of SETUP_REPEATS set-ups; returns (seconds, library)."""
    times = []
    for k in range(SETUP_REPEATS):
        with probe():
            t0 = ref_clock()
            lib = load_library()
            workload.prepare(lib, workload.inputs(k))
            workload.warm_up(lib)
            times.append(ref_clock() - t0)
    return statistics.median(times), lib


@dataclass
class Pass:
    tracer: object  # the pass's Tracer, or None when untraced
    wall: float  # seconds
    ref: float  # reference seconds
    result: object  # workloads.PassResult

    @property
    def scale(self) -> float:
        """Reference seconds per wall second of the pass."""
        return self.ref / self.wall

    @property
    def work_s(self) -> float:
        """Reference time of the pass's checked operations."""
        return self.result.pipeline_s + self.result.check_s


def cli_check(command, text, expected, tmp_dir):
    """Run `python -m toralrank <command> --in <text> --porcelain`; compare fields."""
    path = Path(tmp_dir) / "input.txt"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "toralrank", *command, "--in", str(path), "--porcelain"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
    )
    fields = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)
    ok = proc.returncode == 0 and fields == expected
    if not ok:
        print(f"CLI {command} exited {proc.returncode}: {fields} != {expected}\n{proc.stderr}", file=sys.stderr)
    return ok


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toralrank benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toralrank" / "__init__.py").is_file():
        print(f"error: no toralrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit_id(),
    }
    print("env " + json.dumps(env), flush=True)

    workload = make_workload(args.workload, args.seed)
    setup_s, lib = setup(workload)

    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        k = len(passes)
        items = workload.prepare(lib, workload.inputs(k))
        tracer = Tracer() if args.trace and k % 2 == 1 else None
        with traced(tracer) if tracer else nullcontext(), probe():
            t0, ref0 = clock(), ref_clock()
            result = workload.run_pass(lib, items, tracer.begin_op if tracer else lambda: None)
            wall, ref = clock() - t0, ref_clock() - ref0
        passes.append(Pass(tracer, wall, ref, result))
        label, slowest = max(result.ops, key=lambda x: x[1], default=("-", 0.0))
        print(
            f"pass {k}{' traced' if tracer else ''}: wall {wall:.3f} s, scale {passes[-1].scale:.3f}, "
            f"reference s: pipeline {result.pipeline_s:.3f}, check {result.check_s:.3f}, "
            f"slowest {label} {slowest:.3f}; digest {result.digest[:16]}",
            flush=True,
        )
        # Kept, the invariants would make peak_rss_mb grow with the number of passes.
        result.invariants.clear()

    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    correct = failed == 0
    last_check = passes[-1].result.last_check
    if last_check is None:
        correct = False
    else:
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build", prefix="perfbench-") as tmp_dir:
            correct = cli_check(*last_check, tmp_dir) and correct
    print(f"checks: {attempted} ops, {failed} failed, error_rate {failed / attempted:.6f}", flush=True)

    if args.trace:
        metrics = traced_metrics(passes)
        write_spans(args, passes)
    else:
        metrics = untraced_metrics(passes, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def untraced_metrics(passes, setup_s):
    """End-to-end metrics, in reference seconds."""
    items = [s for p in passes for s in p.result.items]
    values = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(p.result.pipeline_s for p in passes), "s"),
        "check_s": (statistics.median(p.result.check_s for p in passes), "s"),
        "items_per_s": (statistics.median(len(p.result.items) / p.work_s for p in passes), "1/s"),
        "item_p50_ms": (1000 * percentile(items, 50), "ms"),
        "item_p90_ms": (1000 * percentile(items, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def traced_metrics(passes):
    """Per-layer metrics; span times are scaled by their pass's scale."""
    traced_passes = [p for p in passes if p.tracer]
    per_pass = []
    for p in traced_passes:
        m = span_metrics(p.tracer.spans, p.tracer.counts, p.wall)
        per_pass.append({k: v * p.scale if k.endswith("_s") else v for k, v in m.items()})
    out = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "share" if name == "trace.coverage" else "count"
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": median(m[name] for m in per_pass), "unit": unit}
    plain = statistics.median(p.work_s for p in passes if not p.tracer)
    overhead = statistics.median(p.work_s for p in traced_passes) / plain - 1
    out["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    return out


def write_spans(args, passes):
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    data = {
        "fields": ["name", "start", "end", "parent", "op"],
        "passes": [{"pass": i, "scale": p.scale, "spans": p.tracer.spans} for i, p in enumerate(passes) if p.tracer],
    }
    path.write_text(json.dumps(data))
    print(f"spans written to {path.relative_to(ROOT)}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
