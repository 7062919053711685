"""Suite orchestration: sample instances, run certifiers, aggregate reports.

Each (certifier, trial) pair is an independent task whose randomness derives
only from ``(master_seed, global_trial_index)``, where the global index is
``canonical_rank * trials + local_index``.  Records are therefore identical
no matter how trials are scheduled; the writers sort before serializing so
output files are byte-identical across runs and worker counts.  Runs hold
BLAS to one thread (:mod:`meancert.blas`), in this process and in each pool
worker, so the bits do not depend on the BLAS thread count either.

A typed :class:`~meancert.errors.MeanCertError` raised inside one trial
escapes as :class:`~meancert.errors.TrialFailed`, whose message names the
trial.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas, certifiers
from .certifiers import BoundsHypothesis, CertificateReport
from .config import CANONICAL_IDS, RunConfig, config_echo
from .errors import ConfigError, MeanCertError, TrialFailed
from .means import ScalarPair
from .sampling import (
    ParamRules,
    SeedPath,
    SpectrumSpec,
    random_invertible,
    random_ordered_pair,
    random_spd,
    sample_params,
)

REPORT_SCHEMA_VERSION = "1.0"

CSV_COLUMNS = (
    "inequality_id",
    "dim",
    "v",
    "tau",
    "lambda",
    "cond_cap",
    "trial_index",
    "margin_lower",
    "margin_upper",
    "tol",
    "verdict",
    "degenerate",
)

PROBE_CSV_COLUMNS = ("probe", "v", "tau", "lambda", "b", "side", "param", "value", "target", "gap")

#: Certifier families that consume the sweep grid (v, tau, lambda, dim).
SWEEPABLE_IDS = ("gap_ratio", "matrix_gap_ratio", "hs_gap_ratio", "det_root_gap")


@dataclass(frozen=True)
class TrialRecord:
    """One certifier evaluation, flattened for reporting."""

    inequality_id: str
    dim: int
    v: float | None
    tau: float | None
    lam: float | None
    cond_cap: float
    trial_index: int
    margin_lower: float | None
    margin_upper: float | None
    tol: float
    verdict: str
    degenerate: bool
    witness: dict | None


def primary_margins(report: CertificateReport) -> tuple[float | None, float | None]:
    """Map a report's named margins onto the (lower, upper) CSV columns."""
    vals = [m for key, m in report.margins.items() if key != "equality_observed"]
    lower = vals[0] if vals else None
    upper = vals[1] if len(vals) > 1 else None
    return lower, upper


# ---------------------------------------------------------------------------
# per-certifier instance families
# ---------------------------------------------------------------------------


def _spd_pair(rng, dim, cond_cap):
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    dist = "clustered" if rng.random() < 0.25 else "log-uniform"
    spec = SpectrumSpec(dim, scale / np.sqrt(cond_cap), scale * np.sqrt(cond_cap), dist)
    return random_spd(spec, rng), random_spd(spec, rng)


def _weight(rng, lo=0.0, hi=1.0, endpoints=False):
    if endpoints and rng.random() < 0.04:
        return float(lo if rng.random() < 0.5 else hi)
    return float(rng.uniform(lo, hi))


def _trial_scalar_agh(rng, dim, cap, tol_scale):
    params, pair = sample_params(ParamRules(ratio_cap=cap), rng)
    rep = certifiers.check_scalar_agh(pair, params.v, tol_scale)
    return rep, {"v": params.v}


def _trial_matrix_agh(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    v = _weight(rng, endpoints=True)
    return certifiers.check_matrix_agh(a, b, v, tol_scale), {"v": v}


def _trial_gap_ratio(rng, dim, cap, tol_scale):
    params, pair = sample_params(ParamRules(require_v_lt_tau=True, ratio_cap=cap), rng)
    rep = certifiers.check_gap_ratio(pair, params.v, params.tau, params.lam, tol_scale)
    return rep, {"v": params.v, "tau": params.tau, "lam": params.lam}


def _trial_half_weight_gap(rng, dim, cap, tol_scale):
    params, pair = sample_params(ParamRules(ratio_cap=cap), rng)
    squared = rng.random() < 0.5
    rep = certifiers.check_half_weight_gap(pair, params.v, squared, tol_scale)
    return rep, {"v": params.v, "lam": 2.0 if squared else 1.0}


def _trial_inverse_convexity(rng, dim, cap, tol_scale):
    params, pair = sample_params(ParamRules(require_ordered_pair=True, ratio_cap=cap), rng)
    return certifiers.check_inverse_convexity_gap(pair, params.v, tol_scale), {"v": params.v}


def _trial_one_sided_gap(rng, dim, cap, tol_scale):
    params, pair = sample_params(ParamRules(require_ordered_pair=True, ratio_cap=cap), rng)
    return certifiers.check_one_sided_gap(pair, params.v, tol_scale), {"v": params.v}


def _trial_matrix_gap_ratio(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    params, _ = sample_params(ParamRules(require_v_lt_tau=True), rng)
    rep = certifiers.check_matrix_gap_ratio(a, b, params.v, params.tau, tol_scale)
    return rep, {"v": params.v, "tau": params.tau}


def _trial_matrix_half_weight_gap(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    v = _weight(rng, 0.02, 0.5)
    return certifiers.check_matrix_half_weight_gap(a, b, v, tol_scale), {"v": v, "tau": 0.5}


def _trial_spread_gap_cap(rng, dim, cap, tol_scale):
    m = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    ratio = float(np.exp(rng.uniform(0.0, np.log(cap))))
    bounds = BoundsHypothesis(m, m * ratio)
    a, b = random_ordered_pair(dim, bounds.m, bounds.M, rng)
    v = _weight(rng, endpoints=True)
    return certifiers.check_spread_gap_cap(a, b, v, bounds, tol_scale), {"v": v}


def _trial_hs_gap_ratio(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    x = random_invertible(dim, cap, rng)
    params, _ = sample_params(ParamRules(require_v_lt_tau=True), rng)
    rep = certifiers.check_hs_gap_ratio(a, b, x, params.v, params.tau, tol_scale)
    return rep, {"v": params.v, "tau": params.tau, "lam": 2.0}


def _trial_hs_agh_chain(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    x = random_invertible(dim, cap, rng)
    v = _weight(rng, endpoints=True)
    return certifiers.check_hs_agh_chain(a, b, x, v, tol_scale), {"v": v}


def _trial_hs_half_weight_gap(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    x = random_invertible(dim, cap, rng)
    v = _weight(rng, 0.02, 0.5)
    return certifiers.check_hs_half_weight_gap(a, b, x, v, tol_scale), {"v": v, "lam": 2.0}


def _trial_det_power_order(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    v = _weight(rng, endpoints=True)
    lam = 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 3.0))
    return certifiers.check_det_power_order(a, b, v, lam, tol_scale), {"v": v, "lam": lam}


def _trial_minkowski(rng, dim, cap, tol_scale):
    a_vec = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=dim))
    if rng.random() < 0.05:
        b_vec = a_vec.copy()
    else:
        b_vec = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=dim))
    return certifiers.check_minkowski_products(a_vec, b_vec, tol_scale), {}


def _trial_power_difference(rng, dim, cap, tol_scale):
    b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    a = b * float(np.exp(rng.uniform(np.log(1.01), np.log(cap))))
    lam = 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 3.0))
    return certifiers.check_power_difference(a, b, lam, tol_scale), {"lam": lam}


def _trial_det_root_gap(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    params, _ = sample_params(ParamRules(require_v_lt_tau=True), rng)
    rep = certifiers.check_det_root_gap(a, b, params.v, params.tau, params.lam, tol_scale)
    return rep, {"v": params.v, "tau": params.tau, "lam": params.lam}


def _trial_det_gap(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    params, _ = sample_params(ParamRules(require_v_lt_tau=True), rng)
    rep = certifiers.check_det_gap(a, b, params.v, params.tau, tol_scale)
    return rep, {"v": params.v, "tau": params.tau}


def _trial_det_half_weight_gap(rng, dim, cap, tol_scale):
    a, b = _spd_pair(rng, dim, cap)
    v = _weight(rng, 0.0, 0.5, endpoints=True)
    return certifiers.check_det_half_weight_gap(a, b, v, tol_scale), {"v": v, "tau": 0.5}


BUILDERS = {
    "scalar_agh": _trial_scalar_agh,
    "matrix_agh": _trial_matrix_agh,
    "gap_ratio": _trial_gap_ratio,
    "half_weight_gap": _trial_half_weight_gap,
    "inverse_convexity": _trial_inverse_convexity,
    "one_sided_gap": _trial_one_sided_gap,
    "matrix_gap_ratio": _trial_matrix_gap_ratio,
    "matrix_half_weight_gap": _trial_matrix_half_weight_gap,
    "spread_gap_cap": _trial_spread_gap_cap,
    "hs_gap_ratio": _trial_hs_gap_ratio,
    "hs_agh_chain": _trial_hs_agh_chain,
    "hs_half_weight_gap": _trial_hs_half_weight_gap,
    "det_power_order": _trial_det_power_order,
    "minkowski_products": _trial_minkowski,
    "power_difference": _trial_power_difference,
    "det_root_gap": _trial_det_root_gap,
    "det_gap": _trial_det_gap,
    "det_half_weight_gap": _trial_det_half_weight_gap,
}

assert tuple(BUILDERS) == CANONICAL_IDS


def run_trial(cfg: RunConfig, inequality_id: str, local_index: int) -> TrialRecord:
    """Run one seeded trial of one certifier; pure function of its arguments."""
    rank = CANONICAL_IDS.index(inequality_id)
    global_index = rank * cfg.trials_per_inequality + local_index
    rng = SeedPath(cfg.master_seed, global_index).rng()
    dim = cfg.dims[local_index % len(cfg.dims)]
    cap = cfg.cond_caps[(local_index // len(cfg.dims)) % len(cfg.cond_caps)]
    report, params = BUILDERS[inequality_id](rng, dim, cap, cfg.tolerance_scale)
    lower, upper = primary_margins(report)
    return TrialRecord(
        inequality_id=inequality_id,
        dim=dim,
        v=params.get("v"),
        tau=params.get("tau"),
        lam=params.get("lam"),
        cond_cap=cap,
        trial_index=local_index,
        margin_lower=lower,
        margin_upper=upper,
        tol=report.tol_used,
        verdict=report.verdict,
        degenerate=report.degenerate,
        witness=report.witness,
    )


def _failed(label: str, exc: MeanCertError) -> TrialFailed:
    return TrialFailed(f"trial {label} failed: {type(exc).__name__}: {exc}")


def _run_task(task) -> TrialRecord:
    cfg, ineq, idx = task
    try:
        return run_trial(cfg, ineq, idx)
    except MeanCertError as exc:
        raise _failed(f"{ineq}:{idx}", exc) from exc


def run_verify(cfg: RunConfig) -> tuple[list[TrialRecord], dict]:
    """Run every selected certifier over its instance family; return records
    sorted canonically plus per-inequality summaries.

    Raises :class:`TrialFailed` for the first failed trial in selection
    order, then trial order, whatever the worker count.
    """
    tasks = [
        (cfg, ineq, idx)
        for ineq in cfg.inequality_selection
        for idx in range(cfg.trials_per_inequality)
    ]
    with blas.one_thread():
        if cfg.workers > 1:
            with ProcessPoolExecutor(
                max_workers=cfg.workers, initializer=blas.pin_one_thread
            ) as pool:
                records = list(pool.map(_run_task, tasks, chunksize=64))
        else:
            records = [_run_task(t) for t in tasks]
    records.sort(key=lambda r: (CANONICAL_IDS.index(r.inequality_id), r.trial_index))
    return records, summarize(records)


def summarize(records: list[TrialRecord]) -> dict:
    """Per-inequality tallies; trials = passes + failures + degenerate."""
    summaries: dict[str, dict] = {}
    for ineq in dict.fromkeys(r.inequality_id for r in records):
        rows = [r for r in records if r.inequality_id == ineq]
        failures = [f"{r.inequality_id}:{r.trial_index}" for r in rows if r.verdict == "fail"]
        degenerate = sum(1 for r in rows if r.degenerate)
        margins = []
        per_trial_min = []
        for r in rows:
            if r.degenerate:
                continue
            vals = [m for m in (r.margin_lower, r.margin_upper) if m is not None]
            margins.extend(vals)
            if vals:
                per_trial_min.append(min(vals))
        summaries[ineq] = {
            "trials": len(rows),
            "passes": len(rows) - len(failures) - degenerate,
            "degenerate_skipped": degenerate,
            "min_margin": min(margins) if margins else None,
            "median_margin": float(np.median(per_trial_min)) if per_trial_min else None,
            "failures": failures,
        }
    return summaries


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip; normalizes numpy scalars
    return str(value)


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    r.inequality_id,
                    r.dim,
                    r.v,
                    r.tau,
                    r.lam,
                    r.cond_cap,
                    r.trial_index,
                    r.margin_lower,
                    r.margin_upper,
                    r.tol,
                    r.verdict,
                    r.degenerate,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _witness_map(records: list[TrialRecord]) -> dict:
    return {
        f"{r.inequality_id}:{r.trial_index}": r.witness
        for r in records
        if r.witness is not None
    }


def witnesses_json(records: list[TrialRecord]) -> str:
    payload = {"spec_version": REPORT_SCHEMA_VERSION, "witnesses": _witness_map(records)}
    return json.dumps(payload, indent=2) + "\n"


def suite_json(cfg: RunConfig, summaries: dict, records: list[TrialRecord]) -> str:
    payload = {
        "spec_version": REPORT_SCHEMA_VERSION,
        "config": config_echo(cfg),
        "summaries": summaries,
        "witnesses": _witness_map(records),
    }
    return json.dumps(payload, indent=2) + "\n"


def summary_table(summaries: dict) -> str:
    header = f"{'inequality':<24}{'trials':>8}{'pass':>8}{'fail':>6}{'degen':>7}  {'min margin':>13}"
    lines = [header, "-" * len(header)]
    for ineq, s in summaries.items():
        mm = "n/a" if s["min_margin"] is None else f"{s['min_margin']:.3e}"
        lines.append(
            f"{ineq:<24}{s['trials']:>8}{s['passes']:>8}{len(s['failures']):>6}"
            f"{s['degenerate_skipped']:>7}  {mm:>13}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep_constraints_ok(select: str, v: float, tau: float, lam: float) -> bool:
    if not (0 < v < 1 and 0 < tau < 1):
        return False
    if select == "gap_ratio":
        return v < tau and lam >= 1
    if select in ("matrix_gap_ratio", "hs_gap_ratio"):
        return v <= tau
    if select == "det_root_gap":
        return v <= tau and lam >= 1
    return False


def _sweep_report(select, rng, dim, cap, v, tau, lam, tol_scale) -> CertificateReport:
    if select == "gap_ratio":
        _, pair = sample_params(ParamRules(ratio_cap=cap), rng)
        return certifiers.check_gap_ratio(pair, v, tau, lam, tol_scale)
    a, b = _spd_pair(rng, dim, cap)
    if select == "matrix_gap_ratio":
        return certifiers.check_matrix_gap_ratio(a, b, v, tau, tol_scale)
    if select == "hs_gap_ratio":
        x = random_invertible(dim, cap, rng)
        return certifiers.check_hs_gap_ratio(a, b, x, v, tau, tol_scale)
    return certifiers.check_det_root_gap(a, b, v, tau, lam, tol_scale)


def run_sweep(cfg: RunConfig, grid: dict, select: str) -> tuple[list[TrialRecord], int]:
    """Run ``select`` over the cartesian grid; returns (records, skipped_cells)."""
    if select not in SWEEPABLE_IDS:
        raise ConfigError(f"sweep supports {', '.join(SWEEPABLE_IDS)}; got {select!r}")
    vs = grid.get("v", (0.25,))
    taus = grid.get("tau", (0.5,))
    lams = grid.get("lambda", (1.0,))
    dims = grid.get("dim", (2,))
    if any(d < 1 or d > 64 for d in dims):
        raise ConfigError("grid dims must lie within [1, 64]")
    cells = [(v, tau, lam, dim) for v in vs for tau in taus for lam in lams for dim in dims]
    records: list[TrialRecord] = []
    skipped = 0
    kept_rank = 0
    with blas.one_thread():
        for v, tau, lam, dim in cells:
            if not _sweep_constraints_ok(select, v, tau, lam):
                skipped += 1
                continue
            for t in range(cfg.trials_per_inequality):
                rng = SeedPath(cfg.master_seed, kept_rank * cfg.trials_per_inequality + t).rng()
                cap = cfg.cond_caps[t % len(cfg.cond_caps)]
                try:
                    report = _sweep_report(select, rng, dim, cap, v, tau, lam, cfg.tolerance_scale)
                except MeanCertError as exc:
                    cell = f"v={v!r} tau={tau!r} lambda={lam!r} dim={dim}"
                    raise _failed(f"{select}[{cell}]:{t}", exc) from exc
                lower, upper = primary_margins(report)
                records.append(
                    TrialRecord(
                        inequality_id=select,
                        dim=dim,
                        v=v,
                        tau=tau,
                        lam=lam,
                        cond_cap=cap,
                        trial_index=t,
                        margin_lower=lower,
                        margin_upper=upper,
                        tol=report.tol_used,
                        verdict=report.verdict,
                        degenerate=report.degenerate,
                        witness=report.witness,
                    )
                )
            kept_rank += 1
    if kept_rank == 0:
        raise ConfigError("sweep grid is empty after constraint filtering")
    return records, skipped


def sweep_json(cfg: RunConfig, select: str, records: list[TrialRecord], skipped: int) -> str:
    payload = {
        "spec_version": REPORT_SCHEMA_VERSION,
        "config": config_echo(cfg),
        "selection": select,
        "skipped_cells": skipped,
        "summaries": summarize(records),
        "witnesses": _witness_map(records),
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def run_probe_gap_ratio_limits(
    v: float = 0.25,
    tau: float = 0.5,
    lams: tuple[float, ...] = (1.0, 2.0),
    b: float = 1.0,
    eps_list: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8),
    tol_scale: float = 1.0,
) -> tuple[list[dict], list[CertificateReport]]:
    """Gap-vs-eps table for the powered-gap ratio limits, plus probe reports."""
    from .means import gap_power_ratio

    rows, reports = [], []
    for lam in lams:
        reports.append(
            certifiers.probe_gap_ratio_limits(v, tau, lam, b, eps_list, tol_scale)
        )
        upper = ((1 - v) / (1 - tau)) ** lam
        lower = (v / tau) ** lam
        for eps in sorted(eps_list, reverse=True):
            r_small = gap_power_ratio(v, tau, lam, ScalarPair(b * eps, b))
            r_large = gap_power_ratio(v, tau, lam, ScalarPair(b / eps, b))
            rows.append(
                {
                    "probe": "gap_ratio_limits", "v": v, "tau": tau, "lambda": lam, "b": b,
                    "side": "small_a", "param": eps, "value": r_small, "target": upper,
                    "gap": abs(r_small - upper),
                }
            )
            rows.append(
                {
                    "probe": "gap_ratio_limits", "v": v, "tau": tau, "lambda": lam, "b": b,
                    "side": "large_a", "param": eps, "value": r_large, "target": lower,
                    "gap": abs(r_large - lower),
                }
            )
    return rows, reports


def run_probe_gap_factor_sharpness(
    v_values: tuple[float, ...] = (0.1, 0.3, 0.5),
    t_list: tuple[float, ...] = (1 + 1e-6, 1 + 1e-4, 1 + 1e-2, 2.0, 10.0),
    tol_scale: float = 1.0,
) -> tuple[list[dict], list[CertificateReport]]:
    """Gap-vs-t table for the normalized-gap factor limit, plus probe reports."""
    from .means import normalized_gap

    rows, reports = [], []
    for v in v_values:
        reports.append(certifiers.probe_normalized_gap(v, t_list, tol_scale))
        sharp = v * (1 - v)
        for t in sorted(t_list):
            g = normalized_gap(v, t)
            rows.append(
                {
                    "probe": "gap_factor_sharpness", "v": v, "tau": None, "lambda": None,
                    "b": None, "side": "t_to_1", "param": t, "value": g, "target": sharp,
                    "gap": abs(g - sharp),
                }
            )
    return rows, reports


def probe_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(PROBE_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in PROBE_CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def probe_json(name: str, params: dict, rows: list[dict], holds: bool) -> str:
    payload = {
        "spec_version": REPORT_SCHEMA_VERSION,
        "probe": name,
        "params": params,
        "holds": holds,
        "rows": rows,
    }
    return json.dumps(payload, indent=2) + "\n"
