"""Command-line front end.

Subcommands:

* ``run``           one seeded scenario -> slots.csv + summary.csv
* ``sweep``         one parameter x seeds grid -> per-cell CSVs + sweep.csv
* ``oracle-check``  tiny scenario -> per-slot ratio against the exhaustive optimum

Scenario files are flat ``key = value`` text (``#`` comments); keys mirror
``SystemConfig`` fields, each set at most once, and every field has a
default, so an empty file is a valid scenario.  Exit codes: 0 success,
2 bad configuration or arguments, 3 I/O failure.  The ``DSA_PF_OUT``
environment variable overrides the default output directory.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .engine import run as run_engine
from .metrics_io import summary_line, sweep_table, write_run, write_sweep
from .oracle import check_enumerable, compare
from .system import ConfigError, SystemConfig, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_HINTS = typing.get_type_hints(SystemConfig)
_FIELD_NAMES = tuple(_HINTS)


def _convert(name: str, text: str):
    """Parse one value of the ``SystemConfig`` field ``name`` by its type."""
    hint = _HINTS[name]
    if hint in (int, float, str):
        return hint(text.strip())
    # the rate-threshold pair
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return (float(parts[0]), float(parts[1]))


def load_scenario(path: str | None) -> SystemConfig:
    """Parse a scenario file; None or an empty file yields the defaults."""
    values, first_line = {}, {}
    if path is not None:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte offset {exc.start})")
        # Universal newlines, as a file opened in text mode reads them.
        for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELD_NAMES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: repeated key '{key}' "
                                  f"(first set on line {first_line[key]})")
            first_line[key] = lineno
            try:
                values[key] = _convert(key, value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return SystemConfig(**values)


def _default_out() -> str:
    return os.environ.get("DSA_PF_OUT", "out")


def _scenario(args) -> SystemConfig:
    """The ``--config`` scenario, with ``--seed`` applied when given."""
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _run_cell(config: SystemConfig, out_dir: str):
    summary, records = run_engine(validate(config))
    write_run(records, summary, out_dir)
    return summary


def cmd_run(args) -> int:
    print(summary_line(_run_cell(_scenario(args), args.out)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    config = load_scenario(args.config)
    if args.param not in _FIELD_NAMES:
        raise ConfigError(f"unknown sweep parameter '{args.param}'; valid: "
                          + ", ".join(_FIELD_NAMES))
    if args.param == "seed":
        raise ConfigError("the seed axis is given by --seeds, not --param")
    try:
        values = [_convert(args.param, v)
                  for v in args.values.split(",") if v.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}")
    if not values or not seeds:
        raise ConfigError("sweep needs at least one value and one seed")
    for axis, items in (("value", values), ("seed", seeds)):
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise ConfigError(f"duplicate sweep {axis} {repeated[0]}")

    cells = []
    for value in values:
        for seed in seeds:
            cell_cfg = replace(config, seed=seed, **{args.param: value})
            cell_dir = os.path.join(args.out, f"{args.param}-{value}", f"seed-{seed}")
            validate(cell_cfg)  # fail fast before any engine work
            cells.append((cell_cfg, cell_dir))

    # A fork-started pool launches all of its workers at the first submit,
    # so never ask for more workers than there are cells or CPUs.
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, cfg, out) for cfg, out in cells]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_cell(cfg, out) for cfg, out in cells]

    # Cells run value-major: each value's seeds are one consecutive slice.
    k = len(seeds)
    groups = [(value, summaries[i * k:(i + 1) * k]) for i, value in enumerate(values)]
    path = write_sweep(sweep_table(groups, args.param), args.out)
    print(f"param={args.param} cells={len(cells)} sweep_csv={path}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    config = _scenario(args)
    if args.slots is not None:
        config = replace(config, n_slots=args.slots)
    vcfg = validate(config)
    check_enumerable(config.n_users, config.n_bands, config.max_bands_per_user)

    snapshots = []
    run_engine(vcfg, slot_hook=snapshots.append)

    ratio = float("nan")
    for slot, achieved, best, ratio in compare(vcfg, snapshots):
        print(f"slot={slot} achieved={achieved!r} oracle={best!r} ratio={ratio:.6f}")
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
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel cells (>= 1; capped at the number of cells "
                              "and of CPUs)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare a tiny scenario against brute force")
    p_oracle.add_argument("--config", default=None)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--slots", type=int, default=None)
    p_oracle.set_defaults(handler=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
