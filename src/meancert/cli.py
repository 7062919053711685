"""Command-line driver: verify / sweep / probe.

Exit codes: 0 all certified, 1 at least one certified violation, 2 invalid
input (bad flags, config, grid, or probe name or values, or a report path
that cannot be written), 3 a trial failed numerically (a typed error such as
``IllConditioned`` or ``PowerOverflow``; a report already at the path keeps
its bytes).  Reports are written beside their path and replace it when done.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .config import GRID_PARSERS, convert, float_list, load_config, read_kv_file
from .errors import ConfigError, TrialFailed
from . import runner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meancert",
        description="Numerically certify weighted arithmetic/geometric/harmonic "
        "mean inequalities for positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run certifier suites over seeded instance families")
    verify.add_argument("--config", help="flat key=value config file")
    verify.add_argument("--select", help="comma-separated certifier tags (default: all)")
    verify.add_argument("--seed", type=int, help="master seed")
    verify.add_argument("--trials", type=int, help="trials per inequality")
    verify.add_argument("--dims", type=str, help="comma-separated dimensions")
    verify.add_argument("--cond-caps", type=str, help="comma-separated condition caps")
    verify.add_argument("--tol-scale", type=float, help="tolerance scale factor")
    verify.add_argument("--workers", type=int, help="parallel worker processes")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="grid sweep of one ratio-family certifier")
    sweep.add_argument("--grid", required=True, help="key=value grid file: v, tau, lambda, dim")
    sweep.add_argument("--config", help="flat key=value config file")
    sweep.add_argument(
        "--select", default="det_root_gap",
        help=f"certifier to sweep, one of: {', '.join(runner.SWEEPABLE_IDS)}",
    )
    sweep.add_argument("--seed", type=int, help="master seed")
    sweep.add_argument("--trials", type=int, help="trials per grid cell")
    sweep.set_defaults(func=cmd_sweep)

    probe = sub.add_parser("probe", help="sharpness probes (limit tables)")
    probe.add_argument("--name", required=True, choices=runner.PROBE_NAMES, help="probe to run")
    probe.add_argument("--v", type=float, help="weight v (gap_ratio_limits)")
    probe.add_argument("--tau", type=float, help="weight tau (gap_ratio_limits)")
    probe.add_argument("--lams", type=float_list, help="comma-separated powers (gap_ratio_limits)")
    probe.add_argument("--b", type=float, help="fixed operand b (gap_ratio_limits)")
    probe.add_argument("--eps", type=float_list, dest="eps_list", help="comma-separated eps values")
    probe.add_argument("--v-values", type=float_list, help="weights (gap_factor_sharpness)")
    probe.add_argument(
        "--t-values", type=float_list, dest="t_list", help="t values > 1 (gap_factor_sharpness)"
    )
    probe.set_defaults(func=cmd_probe)
    for command, name in ((verify, "verify"), (sweep, "sweep"), (probe, "probe")):
        command.add_argument("--out", help=f"report path (default {name}_report.<format>)")
        command.add_argument("--format", choices=("json", "csv"), help="report format")
    return parser


def _base_overrides(args) -> dict:
    overrides = {
        "master_seed": getattr(args, "seed", None),
        "trials_per_inequality": getattr(args, "trials", None),
        "output_format": getattr(args, "format", None),
        "output_path": getattr(args, "out", None),
        "workers": getattr(args, "workers", None),
        "tolerance_scale": getattr(args, "tol_scale", None),
    }
    if args.command == "verify":  # sweep's --select names one certifier, not a selection
        lists = {"inequality_selection": args.select, "dims": args.dims, "cond_caps": args.cond_caps}
        overrides.update((key, convert(key, text)) for key, text in lists.items() if text)
    return overrides


@contextlib.contextmanager
def _replacing(path: str):
    """A file beside ``path`` that replaces it when the block ends, or is removed
    if it raises; ConfigError, before the block, if ``path`` cannot be written."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # already gone once it has replaced path


def _write_run(cfg, stem: str, run, to_json) -> tuple[str, runner.Tally]:
    """Run ``run(sink)`` into the report, CSV rows as their trials finish or
    ``to_json(tally)`` at the end; return the report's path and the tally."""
    out_path = cfg.resolved_output_path(stem)
    csv = cfg.output_format == "csv"
    with _replacing(out_path) as fh:
        if csv:
            fh.write(runner.CSV_HEADER)
            tally = run(lambda record: fh.write(runner.csv_row(record)))
        else:
            tally = run(lambda record: None)
            fh.write(to_json(tally))
    # the CSV columns cannot carry witnesses; a sidecar holds them, if there are any
    sidecar = out_path + ".witnesses.json"
    if csv and tally.failures:
        with _replacing(sidecar) as fh:
            fh.write(runner.witnesses_json(tally))
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(sidecar)
    return out_path, tally


def cmd_verify(args) -> int:
    cfg = load_config(getattr(args, "config", None), _base_overrides(args))
    out_path, tally = _write_run(
        cfg, "verify_report", lambda sink: runner.run_verify(cfg, sink),
        lambda tally: runner.suite_json(cfg, tally),
    )
    print(runner.summary_table(runner.summarize(tally)))
    print(f"report written to {out_path}; failures={tally.failures}")
    return 1 if tally.failures else 0


def cmd_sweep(args) -> int:
    cfg = load_config(getattr(args, "config", None), _base_overrides(args))
    grid = read_kv_file(args.grid, GRID_PARSERS)
    out_path, tally = _write_run(
        cfg, "sweep_report", lambda sink: runner.run_sweep(cfg, grid, args.select, sink),
        lambda tally: runner.sweep_json(cfg, args.select, tally),
    )
    rows = sum(s.trials for s in tally.by_id.values())
    print(f"skipped_cells={tally.skipped_cells}")
    print(f"report written to {out_path}; rows={rows}; failures={tally.failures}")
    return 1 if tally.failures else 0


def cmd_probe(args) -> int:
    cfg = load_config(None, {"output_format": args.format, "output_path": args.out})
    if args.v_values is None and args.v is not None:
        args.v_values = (args.v,)  # a single --v is a one-weight --v-values
    defaults = runner.PROBES[args.name].defaults
    params = {**defaults, **{k: v for k, v in vars(args).items() if k in defaults and v is not None}}
    rows, reports = runner.run_probe(args.name, params)
    holds = all(r.holds for r in reports)
    out_path = cfg.resolved_output_path("probe_report")
    with _replacing(out_path) as fh:
        if cfg.output_format == "csv":
            fh.write(runner.probe_rows_to_csv(rows))
        else:
            fh.write(runner.probe_json(args.name, params, rows, holds))
    print(f"probe {args.name}: {'pass' if holds else 'FAIL'}; report written to {out_path}")
    return 0 if holds else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrialFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
