"""Benchmark of the dsapf slot engine.

    python3 perfbench/run.py --workload ref-50 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded process (``worker.py``); set-up time adds the median of
several fresh-interpreter ``import dsapf`` timings (``import_probe.py``).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Exits non-zero, printing no result, when
the checkout has no ``src/dsapf`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBES = 5
TIME_LIMIT_S = 170.0
UNITS = {"setup_s": "s", "run_s": "s", "agent_slots_per_s": "1/s",
         "slot_ms_p50": "ms", "slot_ms_tail": "ms", "peak_rss_mb": "MB"}


def _single_threaded_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run a benchmark script to completion; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, *args], cwd=BENCH.parent,
                          env=_single_threaded_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    result = _child([str(BENCH / "worker.py"), workload, str(seed), str(seconds),
                     str(trace)], deadline)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if trace == 0:
        imports = [_child([str(BENCH / "import_probe.py")], deadline)["import_s"]
                   for _ in range(IMPORT_PROBES)]
        result["metrics"]["setup_s"] = (statistics.median(imports)
                                        + result["setup_engine_s"])
        units = UNITS
        print(f"# {workload} seed={seed}: {result['trajectories']} timed trajectories, "
              f"{result['slot_samples']} per-slot medians, "
              f"tail = p{WORKLOADS[workload].tail_pct:g}, "
              f"import median {statistics.median(imports):.4f} s, "
              f"facts {result['facts']}")
    else:
        units = {k: "count" if not k.endswith(".ms") else "ms" for k in result["metrics"]}
        print(f"# {workload} seed={seed}: {result['trajectories']} traced trajectories, "
              f"untraced run_s {result['untraced_run_s']:.4f}, "
              f"tracing overhead {result['tracing_overhead_s']:+.4f} s, "
              f"facts {result['facts']}")
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(result["metrics"].items())},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dsapf" / "__init__.py").is_file():
        print(f"error: no dsapf package under {SRC}", file=sys.stderr)
        return 2
    runs = ([(args.workload, args.trace)] if args.workload else
            [(w, t) for w in WORKLOADS for t in (0, 1)])
    try:
        for workload, trace in runs:
            print(json.dumps(measure(workload, args.seed, args.seconds, trace)),
                  flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
