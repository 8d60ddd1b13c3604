"""Command-line front end.

Subcommands:

* ``run``           one seeded scenario -> slots.csv + summary.csv
* ``sweep``         one parameter x seeds grid -> per-cell CSVs + sweep.csv
* ``oracle-check``  tiny scenario -> per-slot ratio against the exhaustive optimum

Scenario files are flat ``key = value`` text (``#`` comments); keys mirror
``SystemConfig`` fields and every field has a default, so an empty file is a
valid scenario.  Exit codes: 0 success, 2 bad configuration or arguments,
3 I/O failure.  The ``DSA_PF_OUT`` environment variable overrides the
default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

from .engine import run as run_engine
from .metrics_io import summary_row, sweep_table, write_run, write_sweep
from .objectives import evaluate
from .oracle import InstanceTooLargeError, TinyInstance, solve_exhaustive
from .system import ConfigError, SystemConfig, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_FIELD_NAMES = tuple(f.name for f in fields(SystemConfig))


def _converters() -> dict:
    hints = typing.get_type_hints(SystemConfig)
    table = {}
    for name in _FIELD_NAMES:
        hint = hints[name]
        if hint is int:
            table[name] = lambda s: int(s.strip())
        elif hint is float:
            table[name] = lambda s: float(s.strip())
        elif hint is str:
            table[name] = lambda s: s.strip()
        else:  # the rate-threshold pair
            def pair(s: str):
                parts = [p for p in s.replace(",", " ").split() if p]
                if len(parts) != 2:
                    raise ValueError("expected two comma-separated numbers")
                return (float(parts[0]), float(parts[1]))
            table[name] = pair
    return table


_CONVERT = _converters()


def load_scenario(path: str | None) -> SystemConfig:
    """Parse a scenario file; None or an empty file yields the defaults."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _FIELD_NAMES:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                try:
                    values[key] = _CONVERT[key](value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return SystemConfig(**values)


def _default_out() -> str:
    return os.environ.get("DSA_PF_OUT", "out")


def _summary_line(summary) -> str:
    from .metrics_io import SUMMARY_COLUMNS
    cells = summary_row(summary)
    return " ".join(f"{k}={_plain(v)}" for k, v in zip(SUMMARY_COLUMNS, cells))


def _plain(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_run(args) -> int:
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    vcfg = validate(config)
    summary, records = run_engine(vcfg)
    write_run(records, summary, args.out)
    print(_summary_line(summary))
    return EXIT_OK


def _run_cell(config: SystemConfig, out_dir: str):
    summary, records = run_engine(validate(config))
    write_run(records, summary, out_dir)
    return summary


def cmd_sweep(args) -> int:
    config = load_scenario(args.config)
    if args.param not in _FIELD_NAMES:
        raise ConfigError(f"unknown sweep parameter '{args.param}'; valid: "
                          + ", ".join(_FIELD_NAMES))
    if args.param == "seed":
        raise ConfigError("the seed axis is given by --seeds, not --param")
    convert = _CONVERT[args.param]
    try:
        values = [convert(v) for v in args.values.split(",") if v.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}")
    if not values or not seeds:
        raise ConfigError("sweep needs at least one value and one seed")

    cells = []
    for value in values:
        for seed in seeds:
            cell_cfg = replace(config, seed=seed, **{args.param: value})
            cell_dir = os.path.join(args.out, f"{args.param}-{value}", f"seed-{seed}")
            validate(cell_cfg)  # fail fast before any engine work
            cells.append((value, cell_cfg, cell_dir))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_cell, cfg, out) for _, cfg, out in cells]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_cell(cfg, out) for _, cfg, out in cells]

    groups = []
    for value in values:
        group = [s for (v, _, _), s in zip(cells, summaries) if v == value]
        groups.append((value, group))
    path = write_sweep(sweep_table(groups, args.param), args.out)
    print(f"param={args.param} cells={len(cells)} sweep_csv={path}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    config = replace(config, n_slots=args.slots)
    vcfg = validate(config)

    objective = config.objective if config.objective != "intrinsic" else "sum"
    snapshots = []
    run_engine(vcfg, slot_hook=snapshots.append)

    ratio = float("nan")
    for snap in snapshots:
        inst = TinyInstance(
            gains_sq=snap.gains_sq, availability=snap.availability,
            thresholds=snap.thresholds, bandwidth_hz=config.bandwidth_hz,
            noise_band_w=vcfg.noise_band_w, p_total_w=vcfg.p_total_max_w,
            p_band_cap_w=vcfg.p_band_max_w,
            max_bands_per_user=config.max_bands_per_user, beta=config.beta,
            power_rule="waterfill")
        _, best = solve_exhaustive(inst, objective)
        achieved = evaluate(objective, snap.rewards)
        ratio = achieved / best if best > 0 else (1.0 if achieved == best else float("nan"))
        print(f"slot={snap.slot} achieved={achieved!r} oracle={best!r} ratio={ratio:.6f}")
    print(f"final_ratio={ratio:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsa-pf",
        description="Distributed spectrum/power sharing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one seeded scenario")
    p_run.add_argument("--config", default=None, help="scenario file (key = value)")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=_default_out(), help="output directory")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter across seeds")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--param", required=True, help="SystemConfig field to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (use --values=... for negatives)")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--out", default=_default_out())
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel cells")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare a tiny scenario against brute force")
    p_oracle.add_argument("--config", default=None)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--slots", type=int, default=50)
    p_oracle.set_defaults(handler=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
