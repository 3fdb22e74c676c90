"""Run one workload in this process and print its result as one JSON line.

run.py starts this script with the BLAS thread count fixed to 1, once per
set-up probe (--setup-only) and once for the measured run.  The program is
imported from the checkout's src/ and from nowhere else.

The run is closed-loop and single-caller: operations run one after another,
in whole passes over the workload's fixed inputs, until another pass would
overrun --seconds (there is always at least one pass).  With --trace 1 the
first half of the time runs untraced and the second half traced, which gives
the per-layer numbers and the tracing overhead.  Each operation's result is
checked once, in the first pass, between operations and outside their
timing; every later pass must reproduce the first pass's fingerprints.
Every latency is scaled to the reference host speed of hostclock.py, and
the end-to-end and per-layer times are computed from the scaled latencies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from hostclock import HostClock
from tracer import LAYERS, OP_SPAN, REPORTED_CALLS, TRACED, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DECIDED = ("CERTIFIED_YES", "CERTIFIED_NO")
READY_SLICES = 9  # reference slices right after set-up, to scale set-up time


def load_program():
    """Import hypersos from this checkout's src/ and the workload definitions."""
    sys.path[:0] = [SRC, HERE]
    import hypersos

    if not os.path.abspath(hypersos.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hypersos was imported from {hypersos.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- passes --------------------------------------------------------------------


class Pass:
    """Latencies and verdict fingerprints of one pass, checked when asked.

    Each result is fingerprinted (and, in a checked pass, checked) right after
    its operation and then dropped, so results do not pile up in the heap.
    `gross` is the sum of the operations' latencies, which leaves that
    bookkeeping out.  `scale(clock)` sets `net` (each latency less the host
    clock's reference slices that ran inside it) and `scaled` (net, in
    seconds at the reference speed), and their sums `wall` and `scaled_wall`.
    """

    def __init__(self, ops, tracer=None, check=False):
        self.intervals, self.errors, self.fps, self.op_counts = [], [], [], []
        self.problems = [] if check else None
        for op in ops:
            before = tracer.counts() if tracer else None
            t = time.perf_counter()
            try:
                result = tracer.call(OP_SPAN, op.run) if tracer else op.run()
                error = None
            except Exception:  # noqa: BLE001 - a raising operation is a failed operation
                result, error = None, traceback.format_exc(limit=6)
            self.intervals.append((t, time.perf_counter()))
            if tracer:
                self.op_counts.append(dict(sorted((tracer.counts() - before).items())))
            self.errors.append(error)
            self.fps.append(fingerprint(op, result, error))
            if check:
                self.problems.append(check_result(op, result, error))
        self.gross = sum(end - start for start, end in self.intervals)

    def scale(self, clock) -> None:
        self.net = [end - start - clock.inside_s(start, end) for start, end in self.intervals]
        self.scaled = [clock.scaled(start, end) for start, end in self.intervals]
        self.wall = sum(self.net)
        self.scaled_wall = sum(self.scaled)


def fingerprint(op, result, error) -> dict:
    if error is not None:
        return {"status": "raised", "error": error.strip().splitlines()[-1]}
    try:
        return op.fingerprint(result)
    except Exception:  # noqa: BLE001 - reported as a failure of the operation
        return {"status": "fingerprint raised", "error": traceback.format_exc(limit=3)}


def check_result(op, result, error) -> list:
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    try:
        return list(op.check(result))
    except Exception:  # noqa: BLE001 - a check that raises fails the operation
        return [f"check raised: {traceback.format_exc(limit=3)}"]


def run_passes(ops, seconds: float, tracer=None, check_first=True) -> list:
    """Whole passes until another one would overrun `seconds` (at least one)."""
    passes = []
    started = time.perf_counter()
    while True:
        p = Pass(ops, tracer, check=check_first and not passes)
        passes.append(p)
        if time.perf_counter() - started + p.gross > seconds:
            return passes


def tail_mean(latencies: list) -> tuple[float, int]:
    """Mean latency of the slowest tenth of the operations (at least one).

    The operations are a fixed list, so a single percentile is one
    particular operation, and which one sits there can change with the seed;
    the mean over the slowest tenth moves smoothly.  Returns (mean, count).
    """
    k = max(1, math.ceil(len(latencies) / 10))
    slowest = sorted(latencies)[-k:]
    return sum(slowest) / k, k


# -- checks --------------------------------------------------------------------


def count_failures(passes: list) -> int:
    """Operations that raised, failed their check, or changed fingerprint or counts."""
    first = passes[0]
    problems = first.problems
    first_counts = next((p.op_counts for p in passes if p.op_counts), None)
    failed = 0
    for p in passes:
        for i, fp in enumerate(p.fps):
            changed = fp != first.fps[i] or (p.op_counts and p.op_counts[i] != first_counts[i])
            failed += bool(p.errors[i] or problems[i] or changed)
    return failed


# -- metrics -------------------------------------------------------------------


def end_to_end(passes: list, n_ops: int) -> tuple[dict, dict]:
    """Metrics from the latencies scaled to the reference speed.

    Each operation's latency is its median over the passes, so a pass slowed
    by a burst on the host does not count.  wall_s is one pass at those
    latencies.  op_gmean_ms is their geometric mean: the operations are a
    fixed mix from well under a millisecond to seconds, so the median
    operation is whichever one the seed puts in the middle, while the
    geometric mean moves with a speed-up of any share of them.
    op_tail_mean_ms is the mean over the slowest tenth of the operations.
    The raw (unscaled) figures and the median go to the details.
    """
    typical = [statistics.median(p.scaled[i] for p in passes) for i in range(n_ops)]
    raw = [statistics.median(p.net[i] for p in passes) for i in range(n_ops)]
    tail_value, tail_ops = tail_mean(typical)
    attempted = len(passes) * n_ops
    metrics = {
        "wall_s": sum(typical),
        "op_gmean_ms": statistics.geometric_mean(typical) * 1000,
        "op_tail_mean_ms": tail_value * 1000,
        "decided_frac": sum(fp.get("status") in DECIDED for p in passes for fp in p.fps)
        / attempted,
    }
    details = {
        "op_tail_ops": tail_ops,
        "raw_wall_s": sum(raw),
        "raw_op_gmean_ms": statistics.geometric_mean(raw) * 1000,
        "op_p50_ms": statistics.median(typical) * 1000,
    }
    return metrics, details


def per_layer(tracer, traced: list, untraced: list) -> dict:
    """Self times per pass, scaled to the reference speed like the end-to-end times.

    Span times include the reference slices that ran inside them, in
    proportion to their length, so they are scaled by scaled over gross time.
    """
    n = len(traced)
    gross = sum(p.gross for p in traced)
    scale = sum(p.scaled_wall for p in traced) / gross
    calls = tracer.calls
    values = tracer.values
    out = {}
    for layer in LAYERS:
        names = [f"{layer}.{q}" for q in TRACED[layer]]
        for name in names:
            out[f"{name}.self_s"] = tracer.self_ns[name] / 1e9 / n * scale
        layer_s = sum(tracer.self_ns[name] for name in names) / 1e9
        out[f"{layer}.self_s"] = layer_s / n * scale
        out[f"{layer}.self_frac"] = layer_s / gross
    for name in REPORTED_CALLS:
        out[f"{name}.calls"] = calls[name] / n
    out[f"{OP_SPAN}.self_s"] = tracer.self_ns[OP_SPAN] / 1e9 / n * scale
    for key in ("soscert.scan.zeros", "soscert.basis.before", "soscert.basis.after"):
        out[key] = values[key] / n
    before = values["soscert.basis.before"]
    out["soscert.basis.after_frac"] = values["soscert.basis.after"] / before if before else 0.0
    sdp = calls["soscert.solve_sdp"]
    out["soscert.solve_sdp.none_frac"] = values["soscert.solve_sdp.none"] / sdp if sdp else 0.0
    attempts = calls["soscert.GramSystem.project_exact"]
    out["soscert.rounding.attempts"] = attempts / n
    successes = values["soscert.rounding.successes"]
    out["soscert.rounding.success_frac"] = successes / attempts if attempts else 0.0
    out["trace_overhead_frac"] = (
        statistics.median(p.scaled_wall for p in traced)
        / statistics.median(p.scaled_wall for p in untraced) - 1
    )
    return out


def machine_info() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- main ----------------------------------------------------------------------


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads = load_program()
    # relative paths keep the command-line outputs identical in any checkout
    os.chdir(ROOT)
    scratch = os.path.relpath(os.path.join(RESULTS, "tmp", args.workload))
    wl = workloads.build(args.workload, args.seed, scratch)
    ready = time.time()
    clock = HostClock()
    for _ in range(READY_SLICES):
        clock.tick()
    ready_slice_s = clock.median_slice_s()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_slice_s": ready_slice_s}))
        return 0
    os.makedirs(scratch, exist_ok=True)

    ops = wl.ops
    tracer = None
    if args.trace:
        with clock.sampling():
            untraced = run_passes(ops, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(ops, args.seconds / 2, tracer, check_first=False)
            finally:
                tracer.uninstall()
        passes = untraced + traced
    else:
        with clock.sampling():
            passes = untraced = run_passes(ops, args.seconds)
        traced = []
    for p in passes:
        p.scale(clock)

    for path in wl.files:
        if os.path.exists(path):
            os.remove(path)
    os.rmdir(scratch)

    problems = passes[0].problems
    failed = count_failures(passes)
    metrics, details = end_to_end(untraced, len(ops))
    attempted = len(passes) * len(ops)
    details.update({
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "passes": len(passes),
        "traced_passes": len(traced),
        "reference_slice_ms": clock.median_slice_s() * 1000,
        "reference_slices": len(clock.durations),
    })
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        metrics = per_layer(tracer, traced, untraced)

    machine = machine_info()
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ops_out = {}
    for i, op in enumerate(ops):
        entry = {"fingerprint": passes[0].fps[i], "problems": problems[i]}
        if op.reference is not None:
            entry["reference"] = op.reference
            entry["reference_matches"] = passes[0].fps[i].get("status") == op.reference
        if traced:
            entry["counts"] = traced[0].op_counts[i]
        ops_out[op.id] = entry
    verdicts = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops_out,
        "ops_per_pass": len(ops),
        "decided_per_pass": sum(fp.get("status") in DECIDED for fp in passes[0].fps),
        "failed_per_pass": sum(bool(p) for p in problems),
    }
    if traced:
        verdicts["counts_per_pass"] = {
            k: v / len(traced) for k, v in sorted(tracer.counts().items())
        }
    write_json(stem + ".verdicts.json", verdicts)
    write_json(stem + ".timings.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine,
        "metrics": metrics,
        "details": details,
        "pass_wall_s": [p.wall for p in passes],
        "pass_scaled_wall_s": [p.scaled_wall for p in passes],
        "first_traced_pass": len(untraced) if traced else None,
        "op_order": [op.id for op in ops],
        "op_latency_s": {op.id: [p.net[i] for p in passes] for i, op in enumerate(ops)},
        "op_scaled_latency_s": {op.id: [p.scaled[i] for p in passes] for i, op in enumerate(ops)},
        "reference_slices_s": list(zip(clock.starts, clock.durations)),
    })
    if traced:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_jsonable(), fh, separators=(",", ":"))
    print(json.dumps({
        "ready": ready,
        "ready_slice_s": ready_slice_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
        "machine": machine,
        "problems": {op.id: problems[i] for i, op in enumerate(ops) if problems[i]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
