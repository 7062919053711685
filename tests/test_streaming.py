"""Streamed reports: each trial's record goes to the report as it finishes,
and a run keeps only its :class:`~meancert.runner.Tally`, so memory does not
grow with the trial count (beyond 8 bytes a trial for the median margin)."""

import dataclasses
import json
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from meancert import cli, means, runner
from meancert.config import load_config
from meancert.errors import IllConditioned, TrialFailed

SWEEP_GRID = "v = 0.25\ntau = 0.5\nlambda = 2\ndim = 1\n"


def _grid(tmp_path, text=SWEEP_GRID):
    path = tmp_path / "grid.cfg"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        "verify --select scalar_agh --format csv",
        "verify --select scalar_agh --format json",
        "sweep --select gap_ratio --format csv",
        "verify --select scalar_agh --format csv --workers 2",
    ],
)
def test_peak_memory_flat_in_trials(tmp_path, command):
    argv = command.split() + (["--grid", _grid(tmp_path)] if command.startswith("sweep") else [])
    out = tmp_path / "report"

    def peak(trials):
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--trials", str(trials), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)  # lazy imports and caches fill outside the measured runs
    small, large = peak(500), peak(5000)
    assert large - small <= 64 * (5000 - 500), (small, large)


# ---------------------------------------------------------------------------
# the fold
# ---------------------------------------------------------------------------


def _summaries_of_list(records, sweep=False):
    """The per-inequality summaries of a list of records, computed from the
    whole list: the reference that a run's fold must equal."""
    summaries = {}
    for ineq in dict.fromkeys(r.inequality_id for r in records):
        rows = [r for r in records if r.inequality_id == ineq]
        failures = [runner._ref(r, sweep) for r in rows if r.verdict == "fail"]
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


def _folded(run, sweep=False):
    """Run ``run(sink)``, collecting its records through the sink, and check
    that :func:`runner.summarize` of its tally equals the list reference bit
    for bit."""
    records = []
    tally = run(records.append)
    # json renders each float by repr, so equal text is equal bits, NaN included
    assert json.dumps(runner.summarize(tally)) == json.dumps(_summaries_of_list(records, sweep))
    refs = [runner._ref(r, sweep) for r in records]
    witnesses = {ref: r.witness for ref, r in zip(refs, records) if r.witness is not None}
    assert tally.witnesses == witnesses
    assert tally.failures == sum(r.verdict == "fail" for r in records)
    return tally, records


def test_fold_matches_summarize_on_a_default_verify_slice(tmp_path):
    select = "scalar_agh,gap_ratio,half_weight_gap,minkowski_products,power_difference"
    cfg = load_config(None, {"inequality_selection": tuple(select.split(","))})
    tally, records = _folded(lambda sink: runner.run_verify(cfg, sink))
    assert len(records) == 5000 and not tally.failures
    # the streamed CSV is the reference serializer's text of the same records
    out = tmp_path / "slice.csv"
    assert cli.main(["verify", "--select", select, "--out", str(out)]) == 0
    assert out.read_text() == runner.records_to_csv(records)


def test_fold_matches_summarize_with_failures(monkeypatch):
    cfg = load_config(None, {"inequality_selection": ("matrix_agh",), "master_seed": 5,
                             "trials_per_inequality": 20})
    with monkeypatch.context() as patch:
        patch.setattr(means, "harm_map", means.arith_map)
        tally, _ = _folded(lambda sink: runner.run_verify(cfg, sink))
    assert tally.failures and tally.witnesses

    # a sweep labels its trials by grid cell
    monkeypatch.setattr(means, "gap_map", means.harm_map)
    grid = {"v": (0.25, 0.3), "tau": (0.5,), "dim": (3,)}
    tally, _ = _folded(lambda sink: runner.run_sweep(cfg, grid, "matrix_gap_ratio", sink), True)
    assert tally.failures and all("[v=" in ref for ref in tally.witnesses)


def test_fold_matches_summarize_with_a_degenerate_row():
    # hs_gap_ratio:824 has a vanishing denominator D(tau)
    cfg = load_config(None, {"inequality_selection": ("hs_gap_ratio",)})
    tally, _ = _folded(lambda sink: runner.run_verify(cfg, sink))
    assert runner.summarize(tally)["hs_gap_ratio"]["degenerate_skipped"] == 1


def test_fold_keeps_min_rule_on_nan_margins():
    # min() keeps a NaN met first and passes over a later one, also where a
    # trial's first margin is NaN and its second is the new minimum
    margins = {
        "scalar_agh": [(math.nan, 2.0), (1.0, 0.5)],
        "gap_ratio": [(5.0, 4.0), (math.nan, 1.0), (3.0, None)],
    }
    records = [
        runner.TrialRecord(ineq, 1, 0.5, None, None, 100.0, t, lo, hi, 1e-9, "pass", False, None)
        for ineq, rows in margins.items()
        for t, (lo, hi) in enumerate(rows)
    ]
    tally = runner.Tally()
    for r in records:
        tally.add(r)
    summaries = runner.summarize(tally)
    assert json.dumps(summaries) == json.dumps(_summaries_of_list(records))
    assert math.isnan(summaries["scalar_agh"]["min_margin"])
    assert summaries["gap_ratio"]["min_margin"] == 1.0


# ---------------------------------------------------------------------------
# run order
# ---------------------------------------------------------------------------


def _raising(*args, **kwargs):
    raise IllConditioned("injected")


def test_trial_failure_names_the_first_in_canonical_order(monkeypatch):
    for ineq in ("scalar_agh", "gap_ratio"):
        entry = dataclasses.replace(runner.CERTIFIERS[ineq], draw=_raising)
        monkeypatch.setitem(runner.CERTIFIERS, ineq, entry)
    # both ids in one block, and (40 trials each at dim 8) across two blocks
    for trials in (2, 40):
        cfg = load_config(None, {"inequality_selection": ("gap_ratio", "scalar_agh"),
                                 "trials_per_inequality": trials, "dims": (8,)})
        with pytest.raises(TrialFailed, match=r"^trial scalar_agh:0 failed"):
            runner.run_verify(cfg)


class _EagerPool:
    """A pool that runs each call as it is submitted, and counts the calls
    submitted but not yet read."""

    def __init__(self):
        self.in_flight = self.most_in_flight = 0

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        read = future.result

        def result():
            self.in_flight -= 1
            return read()

        future.result = result
        return future


def _fail_above_1000(t):
    if t > 1000:
        raise TrialFailed(f"trial {t}")
    return t


def _abs_block(block):
    return map(abs, block)


def _fail_above_1000_block(block):
    return map(_fail_above_1000, block)


def test_pool_map_keeps_task_order_in_a_bounded_window():
    # one pool call per block; dims up to 8 make blocks of 64 trials
    pool, workers = _EagerPool(), 2
    window = runner._BLOCKS_PER_WORKER * workers
    size = runner._BLOCK_ENTRIES // 64
    n = 3 * window * size + 5

    def blocks(values):
        return runner._blocks(values, lambda t: 8)

    got = list(runner._pool_map(pool, workers, _abs_block, blocks(-t for t in range(n))))
    assert got == list(range(n))
    assert pool.most_in_flight == window
    # every block past trial 1000 raises: the first of them raises, after every earlier record
    seen = []
    with pytest.raises(TrialFailed, match=r"^trial 1001$"):
        failing = blocks(iter(range(n)))
        seen.extend(runner._pool_map(_EagerPool(), workers, _fail_above_1000_block, failing))
    assert seen == list(range(1000 // size * size))


def test_blocks_keep_within_the_entry_budget():
    dims = [1, 8, 32, 64, 2, 32, 32, 32, 32, 5] * 20
    blocks = list(runner._blocks(iter(range(len(dims))), dims.__getitem__))
    assert [t for block in blocks for t in block] == list(range(len(dims)))
    for block in blocks:
        costs = [max(dims[t], 8) ** 2 for t in block]
        assert sum(costs) <= runner._BLOCK_ENTRIES or len(block) == 1
    # each block is as long as the budget allows: the next trial would not fit
    for block, after in zip(blocks, blocks[1:]):
        assert sum(max(dims[t], 8) ** 2 for t in block + after[:1]) > runner._BLOCK_ENTRIES
    assert max(map(len, blocks)) <= 64
    assert all(len(b) == 1 for b in runner._blocks(iter(range(10)), lambda t: 64))


def test_an_id_selected_twice_runs_once():
    cfg = load_config(None, {"inequality_selection": ("gap_ratio", "scalar_agh", "gap_ratio"),
                             "trials_per_inequality": 3})
    records = []
    runner.run_verify(cfg, records.append)
    assert [(r.inequality_id, r.trial_index) for r in records] == [
        (ineq, t) for ineq in ("scalar_agh", "gap_ratio") for t in range(3)
    ]


# ---------------------------------------------------------------------------
# the report file
# ---------------------------------------------------------------------------


def _exit_three_argv(tmp_path, command):
    """Arguments whose run exits 3 after it has written rows."""
    if command == "verify":
        # matrix_agh:17 is IllConditioned (see tests/test_cli.py)
        return ["verify", "--select", "matrix_agh", "--cond-caps", "1e10", "--trials", "60",
                "--dims", "4,8,32", "--seed", "3"]
    # det_root_gap[...]:2 overflows
    grid = _grid(tmp_path, "v = 0.25\ntau = 0.5\nlambda = 300\ndim = 1\n")
    return ["sweep", "--grid", grid, "--select", "det_root_gap", "--trials", "50"]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_trial_failure_leaves_the_out_directory_as_it_was(
    tmp_path, capsys, monkeypatch, command, fmt, workers
):
    monkeypatch.setenv("MEANCERT_WORKERS", workers)
    argv = _exit_three_argv(tmp_path, command)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / f"report.{fmt}"
    argv += ["--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 3
    assert list(out_dir.iterdir()) == []
    out.write_bytes(b"an earlier report\n")
    assert cli.main(argv) == 3
    assert list(out_dir.iterdir()) == [out] and out.read_bytes() == b"an earlier report\n"
    assert "failed: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("where", ["missing/report.csv", "."])
def test_unwritable_out_exits_two_before_any_trial(tmp_path, capsys, monkeypatch, command, where):
    calls = []
    for name in ("run_trial", "_sweep_report"):
        original = getattr(runner, name)
        monkeypatch.setattr(
            runner, name, lambda *a, _original=original: calls.append(a) or _original(*a)
        )
    out = tmp_path / where
    argv = ["--trials", "2", "--out", str(out)]
    if command == "verify":
        argv = ["verify", "--select", "scalar_agh"] + argv
    else:
        argv = ["sweep", "--grid", _grid(tmp_path), "--select", "gap_ratio"] + argv
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_witness_sidecar_exists_exactly_when_the_report_fails(tmp_path, monkeypatch, command):
    out = tmp_path / "report.csv"
    sidecar = tmp_path / "report.csv.witnesses.json"
    if command == "verify":
        argv = ["verify", "--select", "matrix_agh", "--trials", "3", "--seed", "5"]
        broken = ("harm_map", means.arith_map)
    else:
        grid = _grid(tmp_path, "v = 0.25\ntau = 0.5\ndim = 3\n")
        argv = ["sweep", "--grid", grid, "--select", "matrix_gap_ratio", "--trials", "4"]
        broken = ("gap_map", means.harm_map)
    argv += ["--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(means, *broken)
        assert cli.main(argv) == 1
    assert json.loads(sidecar.read_text())["witnesses"]
    assert cli.main(argv) == 0
    assert not sidecar.exists()
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
