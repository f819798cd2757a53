"""Run a beatnote benchmark workload and print its metrics.

Run from the root of a checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run starts worker.py several times: twice to time set-up alone, and once to
set up and run the workload's ops in a closed loop for --seconds.  It prints
the environment, one line per metric with its unit, and as its last line a
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
# A nominal ComputeCalibration time (the kernel's time on the baseline
# machine in a fast phase; see README).  A set-up time over the kernel's time
# just after it, times this, is the set-up time in seconds on a machine where
# the kernel takes this long.
REFERENCE_S = 0.008
RUN_LIMIT_S = 170.0  # a run gives up (and kills its workers) after this


def environment(seed):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    if os.path.exists(".git"):  # a checkout without .git must not report a parent repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit or "unknown (not a git checkout)",
    }


def start_worker(argv, deadline):
    """Run worker.py to completion; return (spawn time, its JSON output)."""
    spawn = time.monotonic()
    timeout = max(deadline - spawn, 1.0)
    proc = subprocess.Popen([sys.executable, WORKER] + argv,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or run.py itself being stopped
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"worker {' '.join(argv)} timed out after {timeout:.0f} s")
        raise
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker {' '.join(argv)} exited {proc.returncode}")
    return spawn, json.loads(out.strip().splitlines()[-1])


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, label).

    Below 20 ops that percentile would sit under the median, so the maximum
    is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 10
    if 2 * k < n:
        return ordered[-1], (f"max of {n} ops (with fewer than 20, no percentile "
                             "from p50 up has ten ops beyond it)")
    return ordered[k - 1], f"p{100.0 * k / n:.1f} of {n} ops, {n - k} beyond"


def run_one(workload, seed, seconds, trace):
    """One run of one workload; returns (result JSON, human-readable lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds),
              "--workdir", os.path.join(OUT_DIR, f"work-{os.getpid()}")]
    setups = []  # (spawn time, set-up stamps, calibration just after set-up)
    for _ in range(SETUP_SAMPLES - 1):
        spawn, out = start_worker(common + ["--setup-only"], deadline)
        setups.append((spawn, out["stamps"], out["setup_cal"]))
    argv = common + ["--trace", str(trace)]
    if trace:
        argv += ["--spans-out",
                 os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    spawn, out = start_worker(argv, deadline)
    setups.append((spawn, out["stamps"], out["setup_cal"]))

    ops = out["ops"]
    failed = sum(op["error"] for op in ops)
    lines = [f"workload {workload}: {len(ops)} ops, {failed} failed, "
             f"closed loop with one client, {'traced' if trace else 'untraced'}"]
    times = [op["time"] for op in ops]
    if trace:
        metrics = dict(out["per_layer"])
        metrics["cli.interpreter_s"] = statistics.median(
            s["start"] - spawn for spawn, s, _ in setups)
        metrics["cli.import_s"] = statistics.median(
            s["imported"] - s["start"] for spawn, s, _ in setups)
        traced = [op["time"] for op in ops if op["traced"]]
        plain = [op["time"] for op in ops if not op["traced"]]
        loop_times = plain or times
        base = statistics.median(loop_times)
        metrics["trace.overhead_s"] = statistics.median(traced) - base if plain else 0.0
        metrics["run.op_p50_s"] = base
        metrics["run.op_tail_s"], tail_label = tail(loop_times)
        lines.append(f"  trace overhead: traced op p50 {statistics.median(traced):.6g} s "
                     f"({len(traced)} ops) - untraced op p50 {base:.6g} s "
                     f"({len(plain)} ops) = {metrics['trace.overhead_s']:.6g} s")
        notes = {"run.op_p50_s": f"{len(loop_times)} untraced ops",
                 "run.op_tail_s": tail_label}
        names = PER_LAYER
    else:
        rels = [op["rel_err"] for op in ops if op["rel_err"] is not None]
        cals = [op["cal"] for op in ops]
        ratios = [op["time"] / op["cal"] for op in ops]
        setup_times = [s["ready"] - spawn for spawn, s, _ in setups]
        setup_cals = [cal for _, _, cal in setups]
        metrics = {
            "setup_s": REFERENCE_S * statistics.median(
                t / cal for t, cal in zip(setup_times, setup_cals)),
            "op_p50_cal": statistics.median(ratios),
            "ok_ratio": (len(ops) - failed) / len(ops),
            # 1.0 (100 %) when no op produced a result to compare.
            "rel_err": statistics.median(rels) if rels else 1.0,
            "peak_rss_mb": out["peak_rss_mb"],
        }
        notes = {
            "setup_s": ("median of " + ", ".join(
                f"{t:.4g} s / {1e3 * cal:.3g} ms" for t, cal in
                zip(setup_times, setup_cals))
                + f" (set-up / calibration) x {1e3 * REFERENCE_S:g} ms"),
            "op_p50_cal": (f"{len(times)} ops, each over the calibration before it "
                           f"(median {statistics.median(cals):.4g} s)"),
            "ok_ratio": f"fail_ratio = {failed}/{len(ops)} = {failed / len(ops):.4g}",
            "rel_err": f"median of {len(rels)} ops (reruns of an input left out)",
        }
        names = END_TO_END
    for name, (unit, _) in names.items():
        lines.append(f"  {name:40s} {metrics[name]:<14.6g} {unit:6s} "
                     f"{notes.get(name, '')}".rstrip())
    if not trace:
        # Raw wall times, printed for the reader: on a shared machine they
        # drift too much to gate on (see README).
        tail_value, tail_label = tail(times)
        lines.append(f"  {'op_p50_s':40s} {statistics.median(times):<14.6g} {'s':6s} "
                     f"{len(times)} ops (not in the JSON; see README)")
        lines.append(f"  {'op_tail_s':40s} {tail_value:<14.6g} {'s':6s} "
                     f"{tail_label} (not in the JSON; see README)")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in names.items()},
    }
    return result, lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "beatnote", "__init__.py")):
        sys.exit("run from the root of a beatnote checkout: src/beatnote is missing")
    os.makedirs(OUT_DIR, exist_ok=True)
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))

    if args.workload != "all":
        result, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    # Every workload, untraced then traced.
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run_one(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            summary[f"{workload} trace={trace}"] = result
    print(json.dumps(summary))


if __name__ == "__main__":
    # Stopped by SIGTERM, unwind so that start_worker stops the worker too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        main()
    finally:
        shutil.rmtree(os.path.join(OUT_DIR, f"work-{os.getpid()}"),
                      ignore_errors=True)
