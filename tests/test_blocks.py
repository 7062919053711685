"""Block execution: a run draws its operands a block of trials at a time,
forms them in stacks, then checks each trial in order.  A stacked item has
the bits of its per-matrix computation, so a record does not depend on the
block its trial ran in, and the first trial to fail in canonical order is
the one named, whichever phase it failed in.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from meancert import runner
from meancert.config import load_config
from meancert.errors import ConvergenceFailure, IllConditioned, NotPositiveDefinite, TrialFailed
from meancert.linalg import EPS, SpdMatrix, _frobenius
from meancert import sampling
from meancert.sampling import MatrixDraw, SeedPath, SpectrumSpec, form_operands, random_unitaries

SIZES = (*range(1, 17), 32, 64)


def _gaussians(count, n, seed):
    rng = np.random.default_rng((seed, n, count))
    return rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))


def _unitary_alone(z):
    """Mezzadri's phase-fixed QR of one Gaussian matrix."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _certified_alone(u, w):
    """``from_spectrum``'s matrix, decomposition and bound, one matrix at a
    time with ``np.linalg.norm``."""
    product = (u * w) @ u.conj().T
    mat = (product + product.conj().T) / 2.0
    defect = float(np.linalg.norm(u @ u.conj().T - np.eye(w.size)))
    resid = float(np.linalg.norm(mat - product))
    lower = (1.0 - defect) * float(w.min()) - resid - (w.size + 2) * EPS * float(w.max())
    order = np.argsort(-w, kind="stable")
    return mat, u[:, order], w[order], lower


# ---------------------------------------------------------------------------
# the stacked route, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_stacked_route_matches_per_matrix_formulas(n):
    for count in (1, 2, 64):
        z = _gaussians(count, n, 1)
        u = random_unitaries(z)
        w = np.exp(np.random.default_rng((2, n, count)).uniform(-3.0, 3.0, size=(count, n)))
        items = SpdMatrix.from_spectra(u, w)
        for k in range(count):
            assert np.array_equal(u[k], _unitary_alone(z[k])), (n, count, k)
            mat, vectors, values, lower = _certified_alone(u[k], w[k])
            p = items[k]
            assert np.array_equal(p.mat, mat), (n, count, k)
            assert np.array_equal(p.eig.unitary, vectors)
            assert np.array_equal(p.eig.eigenvalues, values)
            assert p.min_eig == lower, (n, count, k)
        # the stacked Frobenius norm is numpy's, bit for bit, at any scale
        x = z * np.exp(np.random.default_rng((3, n)).uniform(-40.0, 40.0, size=(count, 1, 1)))
        assert np.array_equal(_frobenius(x), [np.linalg.norm(m) for m in x]), (n, count)


@pytest.mark.parametrize("n", (1, 3, 8, 32))
def test_one_bad_item_fails_alone(n):
    count = 5
    u = random_unitaries(_gaussians(count, n, 4))
    w = np.exp(np.random.default_rng((5, n)).uniform(-2.0, 2.0, size=(count, n)))
    good = SpdMatrix.from_spectra(u, w)

    bad_u = u.copy()
    bad_u[1] *= 2.0  # not unitary
    bad_w = w.copy()
    bad_w[3, -1] = 0.0  # under the positivity gate
    items = SpdMatrix.from_spectra(bad_u, bad_w)
    for k, item in enumerate(items):
        if k == 1:
            assert isinstance(item, ConvergenceFailure) and "unitarity defect" in str(item)
        elif k == 3:
            assert isinstance(item, NotPositiveDefinite)
        else:  # the others are certified as in a stack without the bad items
            assert np.array_equal(item.mat, good[k].mat) and item.min_eig == good[k].min_eig
    for k in (1, 3):
        with pytest.raises(type(items[k]), match="exceeds|not positive definite"):
            SpdMatrix.from_spectrum(bad_u[k], bad_w[k])


def test_form_operands_keeps_each_trials_operands_apart():
    rng = np.random.default_rng(6)

    def spd(n):
        return MatrixDraw(np.exp(rng.uniform(-1, 1, n)), (_gaussians(1, n, rng.integers(1e9))[0],))

    def invertible(n):
        z = _gaussians(2, n, rng.integers(1e9))
        return MatrixDraw(np.exp(rng.uniform(-1, 1, n)), (z[0], z[1]))

    under = MatrixDraw(np.array([1.0, -1.0]), spd(2).gaussians)
    trials = [
        (spd(3), spd(3), invertible(3)), (spd(2), 7.0), (under, spd(2)), ("x",), (invertible(5),)
    ]
    formed = form_operands(trials)
    assert isinstance(formed[2], NotPositiveDefinite)
    assert formed[1][1] == 7.0 and formed[3] == ("x",)
    for ops, draws in zip(formed, trials):
        if isinstance(ops, Exception):
            continue
        for got, draw in zip(ops, draws):
            if not isinstance(draw, MatrixDraw):
                continue
            units = [_unitary_alone(z) for z in draw.gaussians]
            if len(units) == 1:
                assert np.array_equal(got.mat, _certified_alone(units[0], draw.values)[0])
            else:
                assert np.array_equal(got, (units[0] * draw.values) @ units[1].conj().T)


@pytest.mark.parametrize("n", (45, 46, 64))
def test_draws_a_stack_would_hold_alone_are_formed_at_once(n):
    # above n = 45 the draw forms its operand at once, with the bits of its
    # randoms formed in a stack
    spec = SpectrumSpec(n, 0.1, 10.0)
    rng = SeedPath(8, n).rng()
    w = sampling._draw_spectrum(spec, rng)
    z = sampling._gaussian(n, rng)
    s = np.exp(rng.uniform(-0.5 * np.log(1e4), 0.5 * np.log(1e4), size=n))
    zu, zv = sampling._gaussian(n, rng), sampling._gaussian(n, rng)
    rng = SeedPath(8, n).rng()
    a, x = sampling.draw_spd(spec, rng), sampling.draw_invertible(n, 1e4, rng)
    if n <= 45:
        assert isinstance(a, MatrixDraw) and isinstance(x, MatrixDraw)
        a, x = form_operands([(a, x)])[0]
    u, v, uu = (random_unitaries(g[None])[0] for g in (zu, zv, z))
    assert np.array_equal(a.mat, SpdMatrix.from_spectrum(uu, w).mat)
    assert a.min_eig == SpdMatrix.from_spectrum(uu, w).min_eig
    assert np.array_equal(x, (u * s) @ v.conj().T)


# ---------------------------------------------------------------------------
# a record does not depend on its block
# ---------------------------------------------------------------------------


def _text(record) -> str:
    """A record's CSV line and witness: equal text is equal bits, NaN included."""
    return runner.csv_row(record) + json.dumps(record.witness)


#: Not a multiple of any block length; dims up to 8 mixed with 32 make
#: blocks of several lengths, and a partial last block.
MIXED = {"trials_per_inequality": 70, "dims": (1, 2, 3, 4, 5, 6, 7, 8, 32)}


def test_streamed_verify_records_equal_standalone_trials():
    cfg = load_config(None, MIXED)
    records = []
    runner.run_verify(cfg, records.append)
    assert [(r.inequality_id, r.trial_index) for r in records] == [
        (ineq, t) for ineq in runner.CANONICAL_IDS for t in range(70)
    ]
    for r in records:
        alone = runner.run_trial(cfg, r.inequality_id, r.trial_index)
        assert _text(r) == _text(alone), (r.inequality_id, r.trial_index)


@pytest.mark.parametrize("select", runner.SWEEPABLE_IDS)
def test_streamed_sweep_records_equal_per_trial_reports(select):
    cfg = load_config(None, {"trials_per_inequality": 13})
    grid = {"v": (0.25, 0.4), "tau": (0.5,), "lambda": (2.0,), "dim": (1, 3, 8, 32)}
    records = []
    runner.run_sweep(cfg, grid, select, records.append)
    kept = [(v, tau, lam, dim) for v in grid["v"] for tau in grid["tau"]
            for lam in grid["lambda"] for dim in grid["dim"]]
    assert len(records) == len(kept) * 13
    for k, r in enumerate(records):
        rank, t = divmod(k, 13)
        cell = kept[rank]
        report = runner._sweep_report(select, cfg, rank, cell, t)
        cap = cfg.cond_caps[t % len(cfg.cond_caps)]
        alone = runner._record(select, cell[3], cap, t, cell[:3], report)
        assert _text(r) == _text(alone), (select, cell, t)


# ---------------------------------------------------------------------------
# failure order across the phases of a block
# ---------------------------------------------------------------------------


def _draw_failing_at(k, phase):
    """matrix_agh's draw, failing at its ``k``-th call: raising (phase 1), or
    with a spectrum under the positivity gate (phase 2)."""
    draw, calls = runner.CERTIFIERS["matrix_agh"].draw, itertools.count()

    def failing(rng, dim, cap):
        (a, b), params = draw(rng, dim, cap)
        if next(calls) == k:
            if phase == 1:
                raise IllConditioned("injected draw failure")
            a = a._replace(values=-a.values)
        return (a, b), params

    return failing


def _check_failing_at(j):
    original = runner.run_trial

    def run_trial(cfg, ineq, idx, drawn=None):
        if idx == j:
            raise IllConditioned("injected check failure")
        return original(cfg, ineq, idx, drawn)

    return run_trial


@pytest.mark.parametrize("phase", (1, 2))
@pytest.mark.parametrize("draw_at, check_at", ((5, 3), (3, 5)))
def test_first_failure_in_trial_order_is_named_across_phases(monkeypatch, phase, draw_at, check_at):
    cfg = load_config(None, {"inequality_selection": ("matrix_agh",), "trials_per_inequality": 9,
                             "dims": (2, 3)})
    assert len(next(runner._blocks(iter(range(9)), lambda t: 3))) == 9  # one block
    failing = _draw_failing_at(draw_at, phase)
    entry = dataclasses.replace(runner.CERTIFIERS["matrix_agh"], draw=failing)
    monkeypatch.setitem(runner.CERTIFIERS, "matrix_agh", entry)
    monkeypatch.setattr(runner, "run_trial", _check_failing_at(check_at))
    first = min(draw_at, check_at)
    error = NotPositiveDefinite if first == draw_at and phase == 2 else IllConditioned
    records = []
    with pytest.raises(TrialFailed, match=rf"^trial matrix_agh:{first} failed: {error.__name__}"):
        runner.run_verify(cfg, records.append)
    # every trial before it was checked and streamed
    assert [r.trial_index for r in records] == list(range(first))
