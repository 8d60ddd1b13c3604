"""One benchmark workload, run in its own single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Repeats one seeded trajectory through the public API for SECONDS (at least
three times untraced), untraced when TRACE is 0 and alternating untraced
and traced when it is 1.  One untraced trajectory keeps its slot
snapshots and goes through the output checks afterwards; every other one
must reproduce its summary bit for bit.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import astuple
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
MIN_TIMED = 3   # timed trajectories per run at least, so each slot time is a median

sys.path.insert(0, str(BENCH))
from checks import Scenario, TrajectoryChecker, exhaustive_best  # noqa: E402
from import_probe import import_dsapf  # noqa: E402
from tracer import Tracer, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SlotClock:
    """Marks the end of set-up: the engine's first per-slot call.

    It replaces the one name ``dsapf.engine.sample_availability``, which the
    engine looks up once per slot; the wrapper costs one attribute test.
    """

    def __init__(self, engine):
        self.start = None
        inner = engine.sample_availability

        def first_slot(*args, **kwargs):
            if self.start is None:
                self.start = time.perf_counter()
            return inner(*args, **kwargs)
        engine.sample_availability = first_slot


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Bench:
    def __init__(self, dsapf, workload, seed: int):
        self.dsapf = dsapf
        self.w = workload
        self.cfg = dsapf.SystemConfig(**workload.fields, seed=seed)
        self.seed = seed
        self.clock = SlotClock(dsapf.engine)
        self.out_dir = str(OUT / workload.name)
        self.modules = {name: sys.modules[name] for name in sys.modules
                        if name == "dsapf" or name.startswith("dsapf.")}

    def trajectory(self, keep=False, tracer=None) -> dict:
        """One seeded trajectory as ``dsa-pf run`` (or ``oracle-check``)
        does it, timed from before ``validate`` to the written CSVs.  With
        ``keep`` the slot snapshots are kept for the output checks; the hook
        then only appends a reference, as ``oracle-check`` itself does."""
        d, w = self.dsapf, self.w
        call = tracer.call if tracer is not None else _plain
        stamps: list[float] = []
        snaps: list = []
        keep_snaps = keep or w.oracle

        def hook(snap):
            stamps.append(time.perf_counter())
            if keep_snaps:
                snaps.append(snap)

        self.clock.start = None
        t0 = time.perf_counter()
        vcfg = d.validate(self.cfg)
        summary, records = call("engine.self", d.run, vcfg, slot_hook=hook)
        bests = self._oracle_check(vcfg, snaps, call, tracer) if w.oracle else []
        call("metrics_io.write_run", d.metrics_io.write_run, records, summary, self.out_dir)
        t1 = time.perf_counter()
        start = self.clock.start
        return {
            "summary": summary, "records": records, "snaps": snaps,
            "key": (astuple(summary), bests),
            "setup_s": start - t0, "run_s": t1 - start,
            "agent_slots": vcfg.n_users * vcfg.n_slots,
            "slots_ms": np.diff([start] + stamps) * 1e3,
            "bests": bests,
        }

    def _oracle_check(self, vcfg, snaps, call, tracer) -> list[float]:
        """What ``dsa-pf oracle-check`` does after the trajectory: the
        exhaustive optimum of every slot's snapshot."""
        d = self.dsapf
        objective = vcfg.objective if vcfg.objective != "intrinsic" else "sum"
        thresholds = d.phy.draw_rate_thresholds(vcfg, d.RngStream(vcfg.seed))
        bests = []
        for snap in snaps:
            inst = d.TinyInstance(
                gains_sq=snap.gains_sq, availability=snap.availability,
                thresholds=thresholds, bandwidth_hz=vcfg.bandwidth_hz,
                noise_band_w=vcfg.noise_band_w, p_total_w=vcfg.p_total_max_w,
                p_band_cap_w=vcfg.p_band_max_w,
                max_bands_per_user=vcfg.max_bands_per_user, beta=vcfg.beta,
                power_rule="waterfill")
            if tracer is not None:
                n_open = int(np.sum(snap.availability))
                k = min(vcfg.max_bands_per_user, n_open)
                options = 1 + (math.comb(n_open, k) if k else 0)
                tracer.counts["oracle.assignments"] += options ** vcfg.n_users
            bests.append(call("oracle.solve_exhaustive", d.solve_exhaustive,
                              inst, objective)[1])
        return bests

    def check(self, result: dict) -> tuple[list[str], dict]:
        """Every output check on a trajectory run with ``keep``."""
        d = self.dsapf
        thresholds = d.phy.draw_rate_thresholds(d.validate(self.cfg), d.RngStream(self.seed))
        sc = Scenario(self.cfg, thresholds)
        checker = TrajectoryChecker(sc, self.seed, self.w.random_draws)
        for snap in result["snaps"]:
            checker.hook(snap)
        facts = checker.finish(result["summary"], result["records"], self.out_dir)
        for t in self.w.oracle_sample:
            snap = result["snaps"][t]
            own = exhaustive_best(sc, snap.gains_sq, snap.availability)
            oracle = result["bests"][t]
            if not abs(own - oracle) <= 1e-9 * abs(oracle):
                checker.fail(f"slot {t}: oracle optimum {oracle!r} != own enumeration {own!r}")
        facts["oracle_slots_checked"] = len(self.w.oracle_sample)
        return checker.errors, facts


def _median(values) -> float:
    return float(np.median(values))


def _lean(result: dict) -> dict:
    """The timings and key of a trajectory, without its bulky outputs."""
    return {k: v for k, v in result.items() if k not in ("summary", "records", "snaps")}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    dsapf, _ = import_dsapf()
    bench = Bench(dsapf, WORKLOADS[name], seed)
    timed, traced, per_layer = [], [], []
    tracer = kept = peak_rss_mb = None
    attempted = failed = 0

    def attempt(**kwargs):
        nonlocal attempted, failed
        attempted += 1
        try:
            return bench.trajectory(**kwargs)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            return None

    # Start another round while the run would end nearer to the deadline
    # with it than without it, so a run measures ``seconds`` on average.
    # The untraced trajectory of a round predicted to be among the last two
    # keeps its snapshots for the checks, which run after the loop; peak
    # memory is read before it, so the kept snapshots do not count.
    minimum = MIN_TIMED if trace == 0 else 1
    deadline = time.perf_counter() + seconds
    rounds, last_round = 0, 0.0
    while rounds < minimum or time.perf_counter() + last_round / 2 < deadline:
        round_start = time.perf_counter()
        keep = (kept is None and rounds + 1 >= minimum
                and round_start + 2.5 * last_round >= deadline)
        if keep:
            peak_rss_mb = _peak_rss_mb()
        result = attempt(keep=keep)
        if result is not None:
            timed.append(result if keep else _lean(result))
            kept = result if keep else kept
        if trace:
            tracer = Tracer()
            with installed(tracer, bench.modules):
                result = attempt(tracer=tracer)
            if result is not None:
                traced.append(_lean(result))
                per_layer.append(tracer.metrics())
        rounds += 1
        last_round = time.perf_counter() - round_start
    if kept is None:  # the last round came sooner than predicted
        peak_rss_mb = _peak_rss_mb()
        kept = attempt(keep=True)
    if not timed or kept is None or (trace and not traced):
        raise SystemExit("no trajectory completed")

    errors, facts = bench.check(kept)
    for label, results in (("untraced", timed), ("traced", traced)):
        if any(r["key"] != kept["key"] for r in results):
            errors.append(f"an {label} trajectory differs from the checked one")

    out = {"attempted": attempted, "failed": failed, "errors": errors,
           "facts": facts, "trajectories": len(timed)}
    if trace == 0:
        # Every trajectory repeats the same seeded work, so each slot's time
        # is the median over its repeats; a slow spell of the host that
        # covers less than half of them does not move it.
        slots_ms = np.median([r["slots_ms"] for r in timed], axis=0)
        out["setup_engine_s"] = _median([r["setup_s"] for r in timed])
        out["slot_samples"] = int(slots_ms.size)
        out["metrics"] = {
            "run_s": _median([r["run_s"] for r in timed]),
            "agent_slots_per_s": timed[0]["agent_slots"] / (slots_ms.sum() / 1e3),
            "slot_ms_p50": _median(slots_ms),
            "slot_ms_tail": float(np.percentile(slots_ms, bench.w.tail_pct)),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        out["metrics"] = {k: _median([m[k] for m in per_layer]) for k in per_layer[0]}
        out["tracing_overhead_s"] = (_median([r["run_s"] for r in traced])
                                     - _median([r["run_s"] for r in timed]))
        out["untraced_run_s"] = _median([r["run_s"] for r in timed])
        tracer.write(os.path.join(bench.out_dir, "spans.tsv"))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    print(json.dumps(run(name, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
