"""BLAS threading and the process pool: reports depend on neither.

Runs hold OpenBLAS to one thread in the calling process and in each pool
worker, so a report is the same bytes whatever ``OPENBLAS_NUM_THREADS`` or
``--workers`` says, and the caller's thread count is back once a run ends.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from meancert import blas, cli, runner
from meancert.config import load_config
from meancert.errors import HypothesisViolated, IllConditioned, TrialFailed

SRC = Path(__file__).resolve().parents[1] / "src"

#: At dims 32 and 64 the bits of a report depended on the BLAS thread count.
LARGE_VERIFY = ["verify", "--select", "matrix_agh", "--dims", "64", "--trials", "6",
                "--format", "csv"]


def _verify_in_subprocess(out: Path, threads: str) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "meancert.cli", *LARGE_VERIFY, "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return out.read_bytes()


def test_report_independent_of_openblas_num_threads(tmp_path):
    one = _verify_in_subprocess(tmp_path / "t1.csv", "1")
    two = _verify_in_subprocess(tmp_path / "t2.csv", "2")
    assert one == two


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # a one-worker run never starts a pool, so its start-up does not pay for the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import sys, meancert.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_two_workers_match_one_at_dim_64(tmp_path):
    outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
    for out, workers in zip(outs, ("1", "2")):
        assert cli.main([*LARGE_VERIFY, "--out", str(out), "--workers", workers]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_sweep_two_workers_match_one(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    # the runner imports the pool when a run asks for more than one worker
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    grid = tmp_path / "grid.cfg"
    grid.write_text("v = 0.25, 0.6\ntau = 0.5, 0.75\ndim = 2, 32\n")
    outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
    for out, workers in zip(outs, ("1", "2")):
        monkeypatch.setenv("MEANCERT_WORKERS", workers)
        args = ["sweep", "--grid", str(grid), "--select", "matrix_gap_ratio", "--trials", "8",
                "--out", str(out)]
        assert cli.main(args) == 0
    assert pools == [2]
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.fixture
def control():
    """The OpenBLAS control with the caller's count set to 2, restored after."""
    ctl = blas.openblas_control()
    if ctl is None:
        pytest.skip("no OpenBLAS thread control among the loaded shared objects")
    original = ctl.get_num_threads()
    ctl.set_num_threads(2)
    try:
        if ctl.get_num_threads() != 2:
            pytest.skip("this OpenBLAS build does not hold 2 threads")
        yield ctl
    finally:
        ctl.set_num_threads(original)


def _recording(ctl, seen, builder):
    def wrapped(*args, **kwargs):
        seen.append(ctl.get_num_threads())
        return builder(*args, **kwargs)

    return wrapped


def _raising(*args, **kwargs):
    raise IllConditioned("injected")


def _config(**overrides):
    return load_config(None, {"trials_per_inequality": 3, "dims": (2,), **overrides})


def test_verify_runs_trials_on_one_thread_and_restores(control, monkeypatch):
    seen = []
    entry = runner.CERTIFIERS["matrix_agh"]
    recorder = replace(entry, draw=_recording(control, seen, entry.draw))
    monkeypatch.setitem(runner.CERTIFIERS, "matrix_agh", recorder)
    runner.run_verify(_config(inequality_selection=("matrix_agh",)))
    assert seen == [1, 1, 1]
    assert control.get_num_threads() == 2


def test_verify_restores_thread_count_when_a_trial_fails(control, monkeypatch):
    entry = replace(runner.CERTIFIERS["matrix_agh"], draw=_raising)
    monkeypatch.setitem(runner.CERTIFIERS, "matrix_agh", entry)
    with pytest.raises(TrialFailed, match=r"matrix_agh:0"):
        runner.run_verify(_config(inequality_selection=("matrix_agh",)))
    assert control.get_num_threads() == 2


def test_sweep_runs_trials_on_one_thread_and_restores(control, monkeypatch):
    seen = []
    monkeypatch.setattr(runner, "_sweep_report", _recording(control, seen, runner._sweep_report))
    grid = {"v": (0.25,), "tau": (0.5,), "lambda": (1.0,), "dim": (2,)}
    records = []
    runner.run_sweep(_config(), grid, "matrix_gap_ratio", records.append)
    assert len(records) == 3 and seen == [1, 1, 1]
    assert control.get_num_threads() == 2

    monkeypatch.setattr(runner, "_sweep_report", _raising)
    with pytest.raises(TrialFailed, match=r"v=0\.25 tau=0\.5 lambda=1\.0 dim=2\]:0"):
        runner.run_sweep(_config(), grid, "matrix_gap_ratio")
    assert control.get_num_threads() == 2


def _worker_threads(_):
    return blas.openblas_control().get_num_threads()


def test_pool_initializer_pins_a_fresh_worker(control):
    # a spawned worker starts from the environment's count, not the parent's
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=ctx, initializer=blas.pin_one_thread) as pool:
        assert pool.submit(_worker_threads, None).result(timeout=120) == 1


def test_hypothesis_violated_pickles():
    # errors cross the pool by pickling; this one takes two arguments
    exc = pickle.loads(pickle.dumps(HypothesisViolated("first_leq_second", -1.5e-3)))
    assert (exc.check_name, exc.margin) == ("first_leq_second", -1.5e-3)
    assert str(exc) == "hypothesis check 'first_leq_second' failed (margin -1.500e-03)"
