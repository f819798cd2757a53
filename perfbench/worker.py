"""One benchmark process: set up one workload, then run its ops in a closed loop.

Started by run.py from the root of a checkout.  It imports beatnote from the
checkout's src/ and prints one JSON object on stdout: the time stamps of its
set-up and, unless --setup-only, every op's wall time, check outcome and
relative error, plus the per-layer metrics of a traced run.
"""

import time

T_START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import beatnote.cli  # noqa: E402,F401  (the import every CLI call pays)

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from calibration import CAL_EVERY_S, ComputeCalibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def run_loop(workload, tracer, seconds, traced):
    """Closed loop: op i + 1 starts when op i and its check have ended.

    A traced run gives each input case twice, once traced and once not, in
    alternating order, so traced and untraced ops see the same inputs.
    """
    calibration = workload.CALIBRATION()
    ops = []
    begin = time.perf_counter()
    calibrated_at = -CAL_EVERY_S
    i = 0
    while True:
        if time.perf_counter() - calibrated_at >= CAL_EVERY_S:
            cal = calibration.measure()
            calibrated_at = time.perf_counter()
        case = i // 2 if traced else i
        traced_op = traced and (i + case) % 2 == 0
        tracer.begin_op(i, traced_op)
        start = time.perf_counter()
        try:
            result = workload.op(case)
            error = None
        except Exception:  # an op that raises counts as failed; keep going
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        rel = None
        if error is None:
            try:
                rel = workload.check(case, result)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:  # e.g. the CLI wrote a file its reader rejects
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None and sum(1 for op in ops if op["error"]) < 3:
            print(f"op {i} failed: {error}", file=sys.stderr)
        ops.append({"time": elapsed, "cal": cal, "traced": traced_op,
                    "rel_err": None if rel is None else float(rel),
                    "error": error is not None})
        i += 1
        spent = time.perf_counter() - begin
        if spent * (i + 1) / i > seconds:  # the next op would likely overrun
            return ops


def speed_after_setup():
    """Calibration time just after set-up, which run.py divides set-up by.

    The first run only warms up; the kernel's arrays are freed on return.
    """
    calibration = ComputeCalibration()
    calibration.once()
    return calibration.measure()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.abspath(beatnote.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported beatnote from {beatnote.__file__}, not from {SRC}")

    tracer = Tracer(active=bool(args.trace))
    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed),
                                            tracer, args.workdir, SRC)
        stamps = {"start": T_START, "imported": T_IMPORTED,
                  "ready": time.monotonic()}
        setup_cal = speed_after_setup()
        if args.setup_only:
            print(json.dumps({"stamps": stamps, "setup_cal": setup_cal}))
            return
        ops = run_loop(workload, tracer, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    out = {"stamps": stamps, "setup_cal": setup_cal, "ops": ops,
           "peak_rss_mb": workload.peak_rss_mb()}
    if args.trace:
        traced = [i for i, op in enumerate(ops) if op["traced"]]
        out["per_layer"] = tracer.per_layer(traced)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="ascii") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
