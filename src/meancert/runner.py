"""Suite orchestration: one table of certifiers, run as seeded trials.

:data:`CERTIFIERS` declares each certifier id once, in canonical order, as a
:class:`Certifier`: its instance draw, its recorded weights and, for
sweepable ids, the sweep's operand draw and weight constraint.  The check of
id ``<id>`` is ``certifiers.check_<id>``; its report names its margins,
which fill the CSV margin columns in order.  Verify trials
(:func:`run_trial`) and sweep trials (:func:`_sweep_report`) both check
through :func:`_check`, record through :func:`_record` and run on one
executor, :func:`_run`, so a new certifier is one new entry.

Each (certifier, trial) pair's randomness derives only from
``(master_seed, global_trial_index)``, where the global index is
``canonical_rank * trials + local_index``.  Trials run in canonical order
(id rank or grid cell, then trial), cut into consecutive *blocks* within
an entry budget (:data:`_BLOCK_ENTRIES`: 64 trials up to n = 8, one at
n = 64).  A block runs in three phases: each trial draws its randoms from
its own seed, in order; the block forms its matrix operands in one stacked
QR and one stacked certificate per kind and dimension
(:func:`_draw_block`); then each trial is checked and recorded, in order.
Every stacked item has the bits of its per-matrix computation, and a trial
run alone (:func:`run_trial` without its draw) draws on a block of one, so
records do not depend on how trials are cut into blocks or scheduled.  A
block is also the unit of the process pool, and records reach the writer
in canonical order, so output files are byte-identical across runs and
worker counts.  Runs hold BLAS to one thread (:mod:`meancert.blas`), in
this process and in each pool worker, so the bits do not depend on the
BLAS thread count either.

A typed :class:`~meancert.errors.MeanCertError` raised by one trial's draw
or check escapes as :class:`~meancert.errors.TrialFailed`, whose message
names the trial; a draw's error is raised in its trial's turn
(:func:`_in_turn`), so the trial named is the first to fail in canonical order.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from collections import deque
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from . import blas, certifiers
from .certifiers import BoundsHypothesis, CertificateReport
from .errors import ConfigError, MeanCertError, TrialFailed
from .sampling import (
    SeedPath,
    SpectrumSpec,
    draw_invertible,
    draw_spd,
    form_operands,
    random_ordered_pair,
    sample_params,
    sample_power,
)

if TYPE_CHECKING:  # config imports this module for the certifier ids
    from .config import RunConfig

REPORT_SCHEMA_VERSION = "1.1"

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

#: The matrix dimensions a run or a sweep grid may ask for.
DIM_RANGE = (1, 64)

PROBE_CSV_COLUMNS = ("probe", "v", "tau", "lambda", "b", "side", "param", "value", "target", "gap")


@dataclass(frozen=True)
class TrialRecord:
    """One certifier evaluation, flattened for reporting: the CSV columns in
    order (``lam`` is ``lambda``), then the witness."""

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


# ---------------------------------------------------------------------------
# the certifier table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certifier:
    """One certifier ``<id>``.  A trial draws ``(operands, params) = draw(rng,
    dim, cap)`` and reports ``certifiers.check_<id>(*operands, **params,
    tol_scale)``.

    The report's first margin fills the ``margin_lower`` column and its
    second (if any) ``margin_upper``, so a check reports at most two.
    ``row(params)`` is the recorded ``(v, tau, lambda)``.  A sweepable id
    draws a sweep trial's operands with ``sweep_draw`` and takes its params
    from ``sweep_cell(v, tau, lam)``, which is None for a cell outside the
    weight hypotheses.

    A draw may return its matrix operands as :class:`~meancert.sampling.MatrixDraw`
    randoms, which the trial's block forms (:func:`_draw_block`).  A draw
    makes no eigensolve: it runs in its block's draw phase, before the
    block's trials, where the benchmark's traced run, which counts
    eigensolver calls per trial, would count it in another trial.
    """

    draw: Callable
    row: Callable = lambda params: (params.get("v"), params.get("tau"), params.get("lam"))
    sweep_draw: Callable | None = None
    sweep_cell: Callable | None = None


def _spd_pair(rng, dim, cond_cap):
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    dist = "clustered" if rng.random() < 0.25 else "log-uniform"
    spec = SpectrumSpec(dim, scale / np.sqrt(cond_cap), scale * np.sqrt(cond_cap), dist)
    return draw_spd(spec, rng), draw_spd(spec, rng)


def _spd_pair_x(rng, dim, cap):
    a, b = _spd_pair(rng, dim, cap)
    return a, b, draw_invertible(dim, cap, rng)


def _weight(rng, lo=0.0, hi=1.0, endpoints=False):
    if endpoints and rng.random() < 0.04:
        return float(lo if rng.random() < 0.5 else hi)
    return float(rng.uniform(lo, hi))


def _then(operands, params):
    """A draw of ``operands(rng, dim, cap)``, then of ``params(rng)``."""
    return lambda rng, dim, cap: (operands(rng, dim, cap), params(rng))


def _v(lo=0.0, hi=1.0, endpoints=False):
    return lambda rng: {"v": _weight(rng, lo, hi, endpoints)}


def _v_power(rng):
    return {"v": _weight(rng, endpoints=True), "lam": sample_power(rng)}


def _ordered(*names):
    """The named params of a :func:`sample_params` draw with ``v < tau``."""
    def draw(rng):
        params, _ = sample_params(rng, v_lt_tau=True)
        return {name: params[name] for name in names}
    return draw


def _scalar(*names, **rules):
    """The scalar pair and the named params of one :func:`sample_params` draw."""
    def draw(rng, dim, cap):
        params, pair = sample_params(rng, ratio_cap=cap, **rules)
        return (pair,), {name: params[name] for name in names}
    return draw


def _scalar_pair(rng, dim, cap):
    _, pair = sample_params(rng, ratio_cap=cap)
    return (pair,)


def _cell(*names, strict=False):
    """Sweep params ``names`` of a grid cell, or None unless ``v <= tau``
    (``v < tau`` if ``strict``) and, where a power is taken, ``lam >= 1``."""
    def cell(v, tau, lam):
        ok = (v < tau if strict else v <= tau) and ("lam" not in names or lam >= 1)
        return dict(zip(names, (v, tau, lam))) if ok else None
    return cell


def _draw_half_weight_gap(rng, dim, cap):
    params, pair = sample_params(rng, ratio_cap=cap)
    return (pair,), {"v": params["v"], "squared": rng.random() < 0.5}


def _draw_spread_gap_cap(rng, dim, cap):
    m = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    ratio = float(np.exp(rng.uniform(0.0, np.log(cap))))
    bounds = BoundsHypothesis(m, m * ratio)
    a, b = random_ordered_pair(dim, bounds.m, bounds.M, rng)
    return (a, b), {"v": _weight(rng, endpoints=True), "bounds": bounds}


def _draw_minkowski(rng, dim, cap):
    a_vec = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=dim))
    if rng.random() < 0.05:
        b_vec = a_vec.copy()
    else:
        b_vec = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=dim))
    return (a_vec, b_vec), {}


def _draw_power_difference(rng, dim, cap):
    b = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    a = b * float(np.exp(rng.uniform(np.log(1.01), np.log(cap))))
    return (a, b), {"lam": sample_power(rng)}


ORDERED_PAIR = _scalar("v", ordered_pair=True)

#: Every certifier in canonical order.  Ranks index the per-trial seed
#: streams, so a certifier's instances do not depend on which others run.
CERTIFIERS = {
    "scalar_agh": Certifier(_scalar("v")),
    "matrix_agh": Certifier(_then(_spd_pair, _v(endpoints=True))),
    "gap_ratio": Certifier(
        _scalar("v", "tau", "lam", v_lt_tau=True),
        sweep_draw=_scalar_pair,
        sweep_cell=_cell("v", "tau", "lam", strict=True),
    ),
    "half_weight_gap": Certifier(
        _draw_half_weight_gap, row=lambda p: (p["v"], None, 2.0 if p["squared"] else 1.0)
    ),
    "inverse_convexity": Certifier(ORDERED_PAIR),
    "one_sided_gap": Certifier(ORDERED_PAIR),
    "matrix_gap_ratio": Certifier(
        _then(_spd_pair, _ordered("v", "tau")), sweep_draw=_spd_pair, sweep_cell=_cell("v", "tau")
    ),
    "matrix_half_weight_gap": Certifier(
        _then(_spd_pair, _v(0.02, 0.5)), row=lambda p: (p["v"], 0.5, None)
    ),
    "spread_gap_cap": Certifier(_draw_spread_gap_cap),
    # the Hilbert-Schmidt bounds compare squared norms: power 2
    "hs_gap_ratio": Certifier(
        _then(_spd_pair_x, _ordered("v", "tau")),
        row=lambda p: (p["v"], p["tau"], 2.0), sweep_draw=_spd_pair_x, sweep_cell=_cell("v", "tau"),
    ),
    "hs_agh_chain": Certifier(_then(_spd_pair_x, _v(endpoints=True))),
    "hs_half_weight_gap": Certifier(
        _then(_spd_pair_x, _v(0.02, 0.5)), row=lambda p: (p["v"], None, 2.0)
    ),
    "det_power_order": Certifier(_then(_spd_pair, _v_power)),
    "minkowski_products": Certifier(_draw_minkowski),
    "power_difference": Certifier(_draw_power_difference),
    "det_root_gap": Certifier(
        _then(_spd_pair, _ordered("v", "tau", "lam")),
        sweep_draw=_spd_pair, sweep_cell=_cell("v", "tau", "lam"),
    ),
    "det_gap": Certifier(_then(_spd_pair, _ordered("v", "tau"))),
    "det_half_weight_gap": Certifier(
        _then(_spd_pair, _v(0.0, 0.5, endpoints=True)), row=lambda p: (p["v"], 0.5, None)
    ),
}

CANONICAL_IDS = tuple(CERTIFIERS)

#: Certifier families that consume the sweep grid (v, tau, lambda, dim).
SWEEPABLE_IDS = tuple(i for i, entry in CERTIFIERS.items() if entry.sweep_draw is not None)


def check_dims(dims, name: str = "dims"):
    """ConfigError unless ``dims`` is a nonempty list within :data:`DIM_RANGE`."""
    lo, hi = DIM_RANGE
    if not dims or any(not lo <= d <= hi for d in dims):
        raise ConfigError(f"{name} must be a nonempty list within [{lo}, {hi}]")


def _check(ineq: str, operands: tuple, params: dict, tol_scale: float) -> CertificateReport:
    # looked up per call, so a wrapper set on the certifiers module is seen
    return getattr(certifiers, f"check_{ineq}")(*operands, **params, tol_scale=tol_scale)


def _record(ineq: str, dim: int, cap: float, trial_index: int, row: tuple, report) -> TrialRecord:
    """The report row of one trial; ``row`` is its recorded (v, tau, lambda),
    and the report's first two margins are ``margin_lower`` and ``margin_upper``."""
    margins = iter(report.margins.values())
    return TrialRecord(
        ineq, dim, *row, cap, trial_index, next(margins, None), next(margins, None),
        report.tol_used, report.verdict, report.degenerate, report.witness,
    )


def _draw_block(jobs) -> list:
    """The draws of a block of trials, for each trial's ``(draw, rng, dim,
    cap)``: every ``draw(rng, dim, cap) -> (operands, params)`` in trial
    order, then their :class:`~meancert.sampling.MatrixDraw` operands formed
    at once (:func:`~meancert.sampling.form_operands`).  A trial whose draw
    or forming raised gets the exception in place of its ``(operands,
    params)``, so that it is raised in the trial's turn."""
    drawn = []
    for draw, rng, dim, cap in jobs:
        try:
            drawn.append(draw(rng, dim, cap))
        except Exception as exc:  # raised in the trial's turn, after every earlier trial
            drawn.append(exc)
    live = [k for k, d in enumerate(drawn) if not isinstance(d, Exception)]
    for k, operands in zip(live, form_operands([drawn[k][0] for k in live])):
        drawn[k] = operands if isinstance(operands, Exception) else (operands, drawn[k][1])
    return drawn


def _drawn_alone(job) -> tuple:
    """One trial's ``(operands, params)``, drawn on a block of its own."""
    (drawn,) = _draw_block([job])
    if isinstance(drawn, Exception):
        raise drawn
    return drawn


def _dim_cap(cfg: RunConfig, local_index: int) -> tuple:
    dim = cfg.dims[local_index % len(cfg.dims)]
    return dim, cfg.cond_caps[(local_index // len(cfg.dims)) % len(cfg.cond_caps)]


def _trial_job(cfg: RunConfig, inequality_id: str, local_index: int) -> tuple:
    """The ``(draw, rng, dim, cap)`` of a verify trial."""
    global_index = CANONICAL_IDS.index(inequality_id) * cfg.trials_per_inequality + local_index
    rng = SeedPath(cfg.master_seed, global_index).rng()
    return (CERTIFIERS[inequality_id].draw, rng, *_dim_cap(cfg, local_index))


def run_trial(cfg: RunConfig, inequality_id: str, local_index: int, drawn=None) -> TrialRecord:
    """Run one seeded trial of one certifier; pure function of its arguments.

    ``drawn`` is the trial's ``(operands, params)`` as its block drew them
    (:func:`_draw_block`); without it the trial draws them itself, on a
    block of one, with the same bits."""
    if drawn is None:
        drawn = _drawn_alone(_trial_job(cfg, inequality_id, local_index))
    operands, params = drawn
    dim, cap = _dim_cap(cfg, local_index)
    report = _check(inequality_id, operands, params, cfg.tolerance_scale)
    row = CERTIFIERS[inequality_id].row(params)
    return _record(inequality_id, dim, cap, local_index, row, report)


#: A block's budget of matrix entries, a trial counting ``max(dim, 8)^2``:
#: 64 trials up to n = 8, 4 at n = 32 and 1 at n = 64.  It bounds the draws
#: a block holds until it forms them, and the records a pool call returns.
_BLOCK_ENTRIES = 64 * 8 * 8
#: Pool calls (one block each) in flight per worker: a run's memory then
#: does not grow with its trial count.
_BLOCKS_PER_WORKER = 8


def _blocks(trials, dim_of):
    """Consecutive ``trials`` in lists within the :data:`_BLOCK_ENTRIES` budget."""
    block, entries = [], 0
    for trial in trials:
        cost = max(dim_of(trial), 8) ** 2
        if block and entries + cost > _BLOCK_ENTRIES:
            yield block
            block, entries = [], 0
        block.append(trial)
        entries += cost
    if block:
        yield block


def _listed(block_fn: Callable, block) -> list:
    return list(block_fn(block))


def _pool_map(pool: ProcessPoolExecutor, workers: int, block_fn: Callable, blocks):
    """``chain.from_iterable(map(block_fn, blocks))``, in order, for an iterator
    ``blocks`` on ``pool``, one pool call per block."""
    pending = deque()
    for block in blocks:
        pending.append(pool.submit(_listed, block_fn, block))
        if len(pending) == _BLOCKS_PER_WORKER * workers:
            yield from pending.popleft().result()
    while pending:
        yield from pending.popleft().result()


def _run(cfg: RunConfig, block_fn: Callable, blocks, tally: Tally, sink: Callable) -> Tally:
    """Fold the records of ``block_fn`` of each block into ``tally`` and hand
    them to ``sink``, in order: in this process, or as ``cfg.workers`` pool
    processes deliver them, with BLAS held to one thread either way.  The
    first trial to raise, in trial order, raises here whatever the worker
    count."""
    with blas.one_thread(), contextlib.ExitStack() as stack:
        if cfg.workers == 1:
            records = chain.from_iterable(map(block_fn, blocks))
        else:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=cfg.workers, initializer=blas.pin_one_thread)
            )
            stack.callback(pool.shutdown, cancel_futures=True)  # drops calls a failure left queued
            records = _pool_map(pool, cfg.workers, block_fn, blocks)
        for record in records:
            tally.add(record)
            sink(record)
    return tally


def _in_turn(trials: list, jobs: list, label: Callable, record: Callable):
    """``record(trial, drawn)`` of each trial in order, after the block's draws
    (:func:`_draw_block` of ``jobs``).  A held draw error or a check's error
    raises in its trial's turn, as a :class:`TrialFailed` naming ``label(trial)``."""
    for trial, drawn in zip(trials, _draw_block(jobs)):
        try:
            if isinstance(drawn, Exception):
                raise drawn
            yield record(trial, drawn)
        except MeanCertError as exc:
            raise TrialFailed(f"trial {label(trial)} failed: {type(exc).__name__}: {exc}") from exc


def _verify_block(block):
    """The records of a block ``(cfg, [(id, trial), ...])`` of verify trials, in order."""
    cfg, trials = block
    # run_trial is looked up per call, so a wrapper set on this module is seen
    return _in_turn(trials, [_trial_job(cfg, *t) for t in trials], lambda t: f"{t[0]}:{t[1]}",
                    lambda t, drawn: run_trial(cfg, *t, drawn))


def run_verify(cfg: RunConfig, sink: Callable = lambda record: None) -> Tally:
    """Run each selected certifier (once, however often selected) over its
    instance family, handing each record to ``sink``; return the run's tally.

    Raises :class:`TrialFailed` for the first failed trial in canonical
    order, whatever the selection order or the worker count.
    """
    trials = (
        (ineq, idx)
        for ineq in CANONICAL_IDS if ineq in cfg.inequality_selection
        for idx in range(cfg.trials_per_inequality)
    )
    blocks = _blocks(trials, lambda t: _dim_cap(cfg, t[1])[0])
    return _run(cfg, _verify_block, ((cfg, block) for block in blocks), Tally(), sink)


def _cell_label(ineq: str, v, tau, lam, dim: int) -> str:
    """The sweep grid cell of a trial label: ``<id>[v=… tau=… lambda=… dim=…]``."""
    return f"{ineq}[v={v!r} tau={tau!r} lambda={lam!r} dim={dim}]"


def _ref(r: TrialRecord, sweep: bool) -> str:
    """The label of a record's trial, as :class:`TrialFailed` names it:
    ``<id>:<trial>``, or in a sweep, whose trial index restarts in every
    grid cell, ``<cell>:<trial>`` (:func:`_cell_label`)."""
    head = _cell_label(r.inequality_id, r.v, r.tau, r.lam, r.dim) if sweep else r.inequality_id
    return f"{head}:{r.trial_index}"


@dataclass
class _IdTally:
    trials: int = 0
    degenerate: int = 0
    min_margin: float | None = None
    minima: array = field(default_factory=lambda: array("d"))  # each trial's minimum margin
    failures: list[str] = field(default_factory=list)  # the failing trials' labels (_ref)


class Tally:
    """The fold of a run's records, in the order they arrive, into what its
    report needs (:func:`summarize`): per-id counts and minimum margin, each
    trial's minimum margin (8 bytes a trial, for the median), failure labels
    and witnesses.  A sweep's tally also counts its skipped grid cells."""

    def __init__(self, sweep: bool = False, skipped_cells: int = 0):
        self.sweep, self.skipped_cells, self.failures, self.witnesses = sweep, skipped_cells, 0, {}
        self.by_id: dict[str, _IdTally] = {}

    def add(self, r: TrialRecord) -> None:
        s = self.by_id.get(r.inequality_id) or self.by_id.setdefault(r.inequality_id, _IdTally())
        s.trials += 1
        if r.verdict == "fail":
            s.failures.append(_ref(r, self.sweep))
            self.failures += 1
        if r.witness is not None:
            self.witnesses[_ref(r, self.sweep)] = r.witness
        if r.degenerate:
            s.degenerate += 1
            return
        vals = [m for m in (r.margin_lower, r.margin_upper) if m is not None]
        if vals:  # min() over every margin in order, so a NaN is kept or passed over alike
            s.minima.append(min(vals))
            s.min_margin = min(vals) if s.min_margin is None else min(s.min_margin, *vals)


def summarize(tally: Tally) -> dict:
    """Per-inequality summaries of a run; trials = passes + failures + degenerate."""
    return {
        ineq: {
            "trials": s.trials,
            "passes": s.trials - len(s.failures) - s.degenerate,
            "degenerate_skipped": s.degenerate,
            "min_margin": s.min_margin,
            "median_margin": float(np.median(s.minima)) if s.minima else None,
            "failures": s.failures,
        }
        for ineq, s in tally.by_id.items()
    }


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


def config_echo(cfg: RunConfig) -> dict:
    """JSON-ready mapping of the config fields (for report embedding), less
    ``output_path``: a report's bytes must not depend on where it is written."""
    out = {}
    for f in fields(cfg):
        if f.name != "output_path":
            value = getattr(cfg, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _csv_line(row) -> str:
    return ",".join(map(_fmt, row)) + "\n"


_CSV_ROW = attrgetter(*[f.name for f in fields(TrialRecord)][: len(CSV_COLUMNS)])

#: The first line of a CSV report; :func:`csv_row` gives each line after it.
CSV_HEADER = _csv_line(CSV_COLUMNS)


def csv_row(record: TrialRecord) -> str:
    """The CSV report line of one record."""
    return _csv_line(_CSV_ROW(record))


def records_to_csv(records: list[TrialRecord]) -> str:
    return CSV_HEADER + "".join(map(csv_row, records))


def _report_json(**payload) -> str:
    return json.dumps({"spec_version": REPORT_SCHEMA_VERSION, **payload}, indent=2) + "\n"


def witnesses_json(tally: Tally) -> str:
    return _report_json(witnesses=tally.witnesses)


def suite_json(cfg: RunConfig, tally: Tally) -> str:
    return _report_json(
        config=config_echo(cfg), summaries=summarize(tally), witnesses=tally.witnesses
    )


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


def _sweep_job(cfg: RunConfig, draw: Callable, rank: int, cell: tuple, t: int) -> tuple:
    """The ``(draw, rng, dim, cap)`` of trial ``t`` of the ``rank``-th kept grid cell."""
    rng = SeedPath(cfg.master_seed, rank * cfg.trials_per_inequality + t).rng()
    return draw, rng, cell[3], cfg.cond_caps[t % len(cfg.cond_caps)]


def _sweep_draw(select: str) -> Callable:
    """A sweep trial's draw as ``(operands, None)``: its params are its grid cell's."""
    draw = CERTIFIERS[select].sweep_draw
    return lambda rng, dim, cap: (draw(rng, dim, cap), None)


def _sweep_report(select, cfg, rank, cell, t, operands=None) -> CertificateReport:
    """The report of trial ``t`` of the ``rank``-th kept grid cell ``cell =
    (v, tau, lam, dim)``; ``operands`` as its block drew them, or without
    them drawn on a block of one, with the same bits."""
    if operands is None:
        operands, _ = _drawn_alone(_sweep_job(cfg, _sweep_draw(select), rank, cell, t))
    v, tau, lam, _ = cell
    return _check(select, operands, CERTIFIERS[select].sweep_cell(v, tau, lam), cfg.tolerance_scale)


def _sweep_block(block):
    """The records of a block ``(cfg, select, [(rank, cell, t), ...])`` of sweep trials, in order."""
    cfg, select, trials = block
    draw = _sweep_draw(select)

    def record(trial, drawn):
        rank, cell, t = trial
        report = _sweep_report(select, cfg, rank, cell, t, drawn[0])  # looked up per call
        return _record(select, cell[3], cfg.cond_caps[t % len(cfg.cond_caps)], t, cell[:3], report)

    return _in_turn(trials, [_sweep_job(cfg, draw, *t) for t in trials],
                    lambda t: f"{_cell_label(select, *t[1])}:{t[2]}", record)


def run_sweep(cfg: RunConfig, grid: dict, select: str, sink: Callable = lambda record: None) -> Tally:
    """Run ``select`` over the cartesian grid, handing each record to ``sink``;
    return the run's tally, which counts the cells the hypotheses skip."""
    if select not in SWEEPABLE_IDS:
        raise ConfigError(f"sweep supports {', '.join(SWEEPABLE_IDS)}; got {select!r}")
    if not grid or not all(len(values) for values in grid.values()):
        raise ConfigError("a sweep grid needs at least one axis, and a value on each")
    vs = grid.get("v", (0.25,))
    taus = grid.get("tau", (0.5,))
    lams = grid.get("lambda", (1.0,))
    dims = grid.get("dim", (2,))
    if not all(np.isfinite(x) for x in (*vs, *taus, *lams)):
        raise ConfigError("grid values must be finite")
    check_dims(dims, "grid dims")
    cells = [(v, tau, lam, dim) for v in vs for tau in taus for lam in lams for dim in dims]
    sweep_cell = CERTIFIERS[select].sweep_cell
    kept = [
        (v, tau, lam, dim) for v, tau, lam, dim in cells
        if 0 < v < 1 and 0 < tau < 1 and sweep_cell(v, tau, lam) is not None
    ]
    if not kept:
        raise ConfigError("sweep grid is empty after constraint filtering")
    trials = (
        (rank, cell, t) for rank, cell in enumerate(kept) for t in range(cfg.trials_per_inequality)
    )
    blocks = ((cfg, select, block) for block in _blocks(trials, lambda trial: trial[1][3]))
    return _run(cfg, _sweep_block, blocks, Tally(True, len(cells) - len(kept)), sink)


def sweep_json(cfg: RunConfig, select: str, tally: Tally) -> str:
    return _report_json(
        config=config_echo(cfg), selection=select, skipped_cells=tally.skipped_cells,
        summaries=summarize(tally), witnesses=tally.witnesses,
    )


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One sharpness probe: ``probe(**params)`` returns ``(rows, report)`` and
    runs once per value of the list param ``over``, passed as its argument
    ``each``.  ``defaults`` names every param, in report order."""

    probe: Callable
    over: str
    each: str
    defaults: dict


PROBES = {
    "gap_ratio_limits": Probe(
        certifiers.probe_gap_ratio_limits, "lams", "lam",
        {"v": 0.25, "tau": 0.5, "lams": (1.0, 2.0), "b": 1.0,
         "eps_list": (1e-2, 1e-4, 1e-6, 1e-8)},
    ),
    "gap_factor_sharpness": Probe(
        certifiers.probe_normalized_gap, "v_values", "v",
        {"v_values": (0.1, 0.3, 0.5), "t_list": (1 + 1e-6, 1 + 1e-4, 1 + 1e-2, 2.0, 10.0)},
    ),
}

PROBE_NAMES = tuple(PROBES)


def run_probe(name: str, params: dict) -> tuple[list[dict], list[CertificateReport]]:
    """The gap table of probe ``name`` and one report per value of its list
    param; ``params`` overrides the probe's defaults.  A bad param value
    raises :class:`ConfigError` naming the probe."""
    entry = PROBES[name]
    fixed = {**entry.defaults, **params}
    values = fixed.pop(entry.over)
    if not values:
        raise ConfigError(f"probe {name}: {entry.over} must not be empty")
    rows, reports = [], []
    for value in values:
        try:
            table, report = entry.probe(**{entry.each: value}, **fixed)
        except (MeanCertError, ValueError) as exc:
            raise ConfigError(f"probe {name}: {exc}") from exc
        rows.extend({**dict.fromkeys(PROBE_CSV_COLUMNS), "probe": name, **row} for row in table)
        reports.append(report)
    return rows, reports


def probe_rows_to_csv(rows: list[dict]) -> str:
    values = map(itemgetter(*PROBE_CSV_COLUMNS), rows)
    return _csv_line(PROBE_CSV_COLUMNS) + "".join(map(_csv_line, values))


def probe_json(name: str, params: dict, rows: list[dict], holds: bool) -> str:
    return _report_json(probe=name, params=params, holds=holds, rows=rows)
