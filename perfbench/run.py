"""distilkit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload certify|extend|cli --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the run starts ``SETUP_SAMPLES``
fresh workers, each timed from process start to the end of its set-up; the
last one then measures whole rounds of the workload until ``--seconds`` of
item time have passed.  With ``--trace 1`` one worker runs one round with
spans recorded around distilkit's public calls.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("certify", "extend", "cli")
#: fresh set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
#: a worker still running after this many seconds is killed
WORKER_TIMEOUT_S = 170.0
BLAS_THREADS = "1"


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def spawn(args, role: str, timeout: float) -> dict:
    """Run one worker; returns its set-up time, RESULT payload and peak RSS."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready is None or (role == "measure" and result is None):
        raise SystemExit(f"{role} worker exited with code {proc.returncode}")
    return {"setup_s": ready, "result": result, "rss_kb": usage.ru_maxrss}


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "distilkit" / "__init__.py").is_file():
        print(f"error: no distilkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.role is not None:
        sys.path.insert(0, str(HERE))
        import worker
        return worker.main(args)

    # Threaded OpenBLAS makes small eigensolvers erratic on a 2-vCPU host (a
    # 128x128 eigvalsh took 1 to 18 ms per call); every process started
    # from here inherits one BLAS thread.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    deadline = perf_counter() + WORKER_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, "setup", deadline - perf_counter())["setup_s"])
    run = spawn(args, "measure", deadline - perf_counter())
    res = run["result"]
    if args.trace:
        metrics = res["layers"]
    else:
        setups.append(run["setup_s"])
        rss_kb = res["peak_child_kb"] if args.workload == "cli" else run["rss_kb"]
        metrics = {
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "item_p50_s": {"value": res["item_p50_s"], "unit": "s"},
            "item_tail_s": {"value": res["item_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"{args.workload}: rounds of {res['items']} items took "
              f"{', '.join(f'{s:.3f}' for s in res['round_s'])} s of item time; "
              f"set-ups took {', '.join(f'{s:.4f}' for s in setups)} s")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
