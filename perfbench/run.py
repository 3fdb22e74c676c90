"""hypersos benchmark launcher: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sos --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads are vamos, sos, lines and detrep; `all` runs each of them untraced
and traced and prints every metric by name, with its unit.  Run it from the
root of a checkout: the program is imported from ./src.

An untraced run starts SETUP_PROBES fresh interpreters that only import
hypersos and build the seeded inputs, then one process for the measured run;
`setup_s` is the median set-up time over all of them.  Every time is in
seconds at the reference host speed of hostclock.py, which takes out the
shared host's own speed swings; the raw times are in the details.  Every
child runs with one BLAS thread, so the float path of the SDP solver and its
timings repeat on a small shared machine.  Per-run outputs (verdict
fingerprints, timings, spans) are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from hostclock import REFERENCE_SLICE_S  # noqa: E402

WORKLOADS = ("vamos", "sos", "lines", "detrep")
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # a run, set-up probes included, ends within this
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def start_worker(args: list, deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; returns (set-up seconds, its JSON line).

    Set-up runs from the spawn to the moment the inputs are ready, scaled to
    the reference host speed by the reference slices the worker ran then.
    """
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish in time: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    out = json.loads(lines[-1])
    out["raw_setup_s"] = out["ready"] - spawned
    return out["raw_setup_s"] * REFERENCE_SLICE_S / out["ready_slice_s"], out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups, raw_setups = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup, out = start_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            setups.append(setup)
            raw_setups.append(out["raw_setup_s"])
    argv = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    setup, out = start_worker(argv, deadline)
    metrics = dict(out["metrics"])
    if not trace:
        setups.append(setup)
        raw_setups.append(out["raw_setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        out["details"]["raw_setup_s"] = statistics.median(raw_setups)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "details": out["details"],
        "machine": out["machine"],
        "problems": out["problems"],
    }


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:7s} {name:58s} {m['value']:>16.6f} {m['unit']}")


def print_header(result: dict) -> None:
    machine = result["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hypersos benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(os.path.dirname(HERE), "src", "hypersos")):
        print("no src/hypersos next to the benchmark: run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_once(args.workload, args.seed, args.seconds, args.trace)
            print_header(result)
            print(f"details: {json.dumps(result['details'], sort_keys=True)}")
            print_table(args.workload, result)
            for op_id, problems in result["problems"].items():
                print(f"FAILED {op_id}: {problems}")
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_once(workload, args.seed, args.seconds, trace)
                if not total["metrics"]:
                    print_header(result)
                print_table(workload, result)
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    total["metrics"][f"{workload}.{name}"] = m
        print(json.dumps(total))
        return 0
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
