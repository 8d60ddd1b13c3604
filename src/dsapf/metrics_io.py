"""CSV output: per-slot traces, run summaries, and sweep tables.

Floats are written with ``repr`` so files round-trip exactly and reruns of
the same seeded scenario are byte-identical.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .engine import SUMMARY_METRICS, RunSummary, SlotRecord, summary_metric

SLOT_COLUMNS = ("slot", "occupancy", "jain", "messages",
                "mean_rate_bps", "min_rate_bps", "max_rate_bps")
SUMMARY_COLUMNS = ("seed", "objective", "n_users", "n_bands", "ell",
                   "n_particles", "pu_busy_prob", "avg_throughput_bps",
                   "avg_jain", "total_messages")
SWEEP_COLUMNS = ("parameter", "value", "metric", "mean", "std")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def summary_row(summary: RunSummary) -> list:
    cfg = summary.config
    return [summary.seed, cfg.objective, cfg.n_users, cfg.n_bands,
            cfg.max_bands_per_user, cfg.n_particles, cfg.pu_busy_prob,
            summary.per_user_avg_throughput, summary.avg_jain,
            summary.total_messages]


def write_run(records: Sequence[SlotRecord], summary: RunSummary,
              out_dir: str) -> tuple[str, str]:
    """Write slots.csv and summary.csv under ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    slots_path = os.path.join(out_dir, "slots.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(slots_path, SLOT_COLUMNS,
               ([r.slot, r.occupancy, r.jain, r.messages,
                 float(r.realized_rates.mean()),
                 float(r.realized_rates.min()),
                 float(r.realized_rates.max())] for r in records))
    _write_csv(summary_path, SUMMARY_COLUMNS, [summary_row(summary)])
    return slots_path, summary_path


def _config_key(summary: RunSummary, ignore: tuple[str, ...]) -> tuple:
    items = asdict(summary.config)
    return tuple(v for k, v in sorted(items.items()) if k not in ignore)


def sweep_table(groups: Sequence[tuple[object, Sequence[RunSummary]]],
                parameter: str) -> list[list]:
    """Long-format rows (parameter, value, metric, mean, std) per swept value.

    Groups are sorted ascending by value.  Summaries must differ only in the
    swept parameter and the seed; anything else is a mixed sweep and raises.
    """
    reference = None
    for value, summaries in groups:
        for s in summaries:
            key = _config_key(s, ignore=(parameter, "seed"))
            if reference is None:
                reference = key
            elif key != reference:
                raise ValueError(
                    "sweep mixes configurations that differ beyond "
                    f"'{parameter}' and the seed")

    rows: list[list] = []
    for value, summaries in sorted(groups, key=lambda g: g[0]):
        for metric in SUMMARY_METRICS:
            values = np.array([summary_metric(s, metric) for s in summaries])
            rows.append([parameter, value, metric,
                         float(values.mean()), float(values.std())])
    return rows


def write_sweep(rows: Sequence[Sequence], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    _write_csv(path, SWEEP_COLUMNS, rows)
    return path
