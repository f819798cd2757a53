"""Quick self-test of the benchmark harness (about a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload for one second, untraced and traced, and checks that
each run ends in the result JSON with every metric of metrics.py under its
unit, that the printed lines name every metric (fail_ratio included), and that
BENCHMARK.json lists the same metrics.  It also checks that run.py refuses to
run, without printing a result, where there is no beatnote source.
"""

import json
import os
import shutil
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def check_run(workload, trace, problems):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    expected = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {name: unit for name, (unit, _) in expected.items()}
    if got != want:
        problems.append(f"{where}: metrics {got} differ from {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    text = "\n".join(lines[:-1])
    names = list(want) + ([] if trace else ["op_p50_s", "op_tail_s", "fail_ratio"])
    missing = [n for n in names if n not in text]
    if missing or "env: " not in text:
        problems.append(f"{where}: printed lines lack {missing or 'the environment'}")
    print(f"{where}: {result['attempted']} ops", flush=True)


def check_benchmark_json(problems):
    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from metrics.py")


def check_refuses_without_source(problems):
    bare = os.path.join(".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("run.py did not refuse to run without src/beatnote")


def main():
    problems = []
    check_benchmark_json(problems)
    check_refuses_without_source(problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
