"""Block execution: a run draws its operands a block of trials at a time,
forms them in stacks, runs the stacked checks of the Hilbert-Schmidt and
determinant ids, then checks each trial in order.  A stacked item has the
bits of its per-matrix computation, so a record does not depend on the block
its trial ran in, and the first trial to fail in canonical order is the one
named, whichever phase it failed in.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from meancert import certifiers, runner
from meancert.config import load_config
from meancert.errors import (
    ConvergenceFailure,
    IllConditioned,
    MeanCertError,
    NotPositiveDefinite,
    PowerOverflow,
    Singular,
    TrialFailed,
)
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


def test_no_draw_makes_an_eigensolve(monkeypatch):
    # every draw runs in its block's draw phase, before the block's trials;
    # the benchmark's traced run counts eigensolver calls per trial span, so
    # an eigensolve made there would be counted in another trial
    def refuse(*args, **kwargs):
        raise AssertionError("a draw made an eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    draws = {ineq: entry.draw for ineq, entry in runner.CERTIFIERS.items()}
    draws.update({f"{s} (sweep)": runner._sweep_draw(s) for s in runner.SWEEPABLE_IDS})
    cases = itertools.product(draws.items(), (1, 2, 8, 32, 64), (1e2, 1e6, 1e8))
    for k, ((name, draw), dim, cap) in enumerate(cases):
        jobs = [(draw, SeedPath(26, 3 * k + t).rng(), dim, cap) for t in range(3)]
        for drawn in runner._draw_block(jobs):
            assert not isinstance(drawn, Exception), (name, dim, cap, drawn)


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


def _draw_failing_at(ineq, k, phase):
    """``ineq``'s draw, failing at its ``k``-th call: raising (phase 1), with a
    spectrum under the positivity gate (phase 2), or with a singular ``X``,
    which its stacked check holds (phase 3)."""
    draw, calls = runner.CERTIFIERS[ineq].draw, itertools.count()

    def failing(rng, dim, cap):
        (a, *rest), params = draw(rng, dim, cap)
        if next(calls) == k:
            if phase == 1:
                raise IllConditioned("injected draw failure")
            if phase == 2:
                a = a._replace(values=-a.values)
            else:
                b, x = rest
                rest = [b, x._replace(values=np.concatenate([x.values[:-1], [0.0]]))]
        return (a, *rest), params

    return failing


def _check_failing_at(j):
    original = runner.run_trial

    def run_trial(cfg, ineq, idx, drawn=None, held=None):
        if idx == j:
            raise IllConditioned("injected check failure")
        return original(cfg, ineq, idx, drawn, held)

    return run_trial


@pytest.mark.parametrize("phase", (1, 2, 3))
@pytest.mark.parametrize("draw_at, check_at", ((5, 3), (3, 5)))
def test_first_failure_in_trial_order_is_named_across_phases(monkeypatch, phase, draw_at, check_at):
    ineq = "matrix_agh" if phase < 3 else "hs_gap_ratio"
    cfg = load_config(None, {"inequality_selection": (ineq,), "trials_per_inequality": 9,
                             "dims": (2, 3)})
    assert len(next(runner._blocks(iter(range(9)), lambda t: 3))) == 9  # one block
    failing = _draw_failing_at(ineq, draw_at, phase)
    entry = dataclasses.replace(runner.CERTIFIERS[ineq], draw=failing)
    monkeypatch.setitem(runner.CERTIFIERS, ineq, entry)
    monkeypatch.setattr(runner, "run_trial", _check_failing_at(check_at))
    first = min(draw_at, check_at)
    error = {1: IllConditioned, 2: NotPositiveDefinite, 3: Singular}[phase]
    error = error if first == draw_at else IllConditioned
    records = []
    with pytest.raises(TrialFailed, match=rf"^trial {ineq}:{first} failed: {error.__name__}"):
        runner.run_verify(cfg, records.append)
    # every trial before it was checked and streamed
    assert [r.trial_index for r in records] == list(range(first))


# ---------------------------------------------------------------------------
# stacked checks: each item is its trial's check alone
# ---------------------------------------------------------------------------


STACKED_IDS = tuple(i for i in runner.CANONICAL_IDS if hasattr(certifiers, f"stacked_{i}"))


def _outcome(check, operands, params, **stacked) -> str:
    """The text of a check's report, or of the error it raises: equal text is equal bits."""
    try:
        r = check(*operands, **params, **stacked)
    except (MeanCertError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps([r.margins, r.tol_used, r.verdict, r.degenerate, r.witness])


def _drawn(ineq, n, count, seed):
    draw = runner.CERTIFIERS[ineq].draw
    caps = (1e2, 1e4, 1e6)
    return runner._draw_block(
        [(draw, SeedPath(seed, k).rng(), n, caps[k % 3]) for k in range(count)]
    )


def _items(ineq, trials) -> list:
    """Each trial's outcome through its item of one stacked call, as the runner checks it."""
    check, stacked = (getattr(certifiers, f"{kind}_{ineq}") for kind in ("check", "stacked"))
    return [_outcome(check, *trial, stacked=item) for trial, item in zip(trials, stacked(trials))]


@pytest.mark.parametrize("n", (*range(1, 9), 32, 64))
def test_stacked_checks_match_each_trial_alone(n):
    assert STACKED_IDS == ("hs_gap_ratio", "hs_agh_chain", "hs_half_weight_gap", "det_power_order",
                           "det_root_gap", "det_gap", "det_half_weight_gap")
    cap = max(1, sampling._STACK_ENTRIES // (n * n))  # the largest stack a block forms
    for ineq in STACKED_IDS:
        trials = _drawn(ineq, n, 8, 100 + n)
        check = getattr(certifiers, f"check_{ineq}")
        alone = [_outcome(check, *trial) for trial in trials]
        for size in (1, 2, 8, cap):
            got = _items(ineq, [trials[k % 8] for k in range(size)])
            assert got == [alone[k % 8] for k in range(size)], (ineq, n, size)


def test_stacked_checks_at_endpoints_and_degenerate_items():
    spec = SpectrumSpec(3, 0.5, 4.0)
    a, b = (sampling.random_spd(spec, SeedPath(28, k)) for k in range(2))
    eye = np.eye(3, dtype=complex)
    cases = {
        # v = 0 is det_half_weight_gap's own endpoint; v = 0.7 raises in the trial's turn
        "det_half_weight_gap": [((a, b), {"v": 0.0}), ((a, b), {"v": 0.3}), ((a, b), {"v": 0.7})],
        # A = B with a diagonal Y = U* X V: the denominator D(tau) vanishes
        "hs_gap_ratio": [((a, b, eye), {"v": 0.3, "tau": 0.6}),
                         ((a, a, eye), {"v": 0.3, "tau": 0.6})],
        # A = B: G_tau is singular, the bound is 0 and the item a pass
        "det_root_gap": [((a, b), {"v": 0.3, "tau": 0.6, "lam": 2.0}),
                         ((a, a), {"v": 0.3, "tau": 0.6, "lam": 2.0})],
    }
    outcomes = []
    for ineq, trials in cases.items():
        check = getattr(certifiers, f"check_{ineq}")
        outcomes.append(_items(ineq, trials))
        assert outcomes[-1] == [_outcome(check, *trial) for trial in trials], ineq
    half, hs, root = ([json.loads(r) if r.startswith("[") else r for r in o] for o in outcomes)
    assert [r[2] for r in half[:2]] == ["pass", "pass"]
    assert half[2] == "ValueError: weight must lie in [0, 1/2], got 0.7"
    assert [r[3] for r in hs] == [False, True]  # degenerate
    assert [r[2] for r in root] == ["pass", "pass"]
    # a held margin error raises in its trial's turn
    held = PowerOverflow("held")
    with pytest.raises(PowerOverflow, match="held"):
        certifiers.check_det_root_gap(a, b, 0.3, 0.6, 2.0, stacked=held)


def _singular_x(trial):
    (a, b, x), params = trial
    u, s, vh = np.linalg.svd(x)
    return (a, b, (u * np.concatenate([s[:-1], [0.0]])) @ vh), params


def _failing_cholesky(monkeypatch, target):
    """``np.linalg.cholesky``, failing on any stack that holds the matrix ``target``."""
    original = np.linalg.cholesky

    def cholesky(m, *args, **kwargs):
        if any(np.array_equal(item, target) for item in np.reshape(m, (-1, *target.shape))):
            raise np.linalg.LinAlgError("injected factorization failure")
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)


def test_a_failing_item_holds_its_error_and_leaves_the_others(monkeypatch):
    hs = _drawn("hs_gap_ratio", 3, 5, 29)
    det = _drawn("det_gap", 3, 5, 30)
    good_hs, good_det = _items("hs_gap_ratio", hs), _items("det_gap", det)
    hs[1] = _singular_x(hs[1])
    _failing_cholesky(monkeypatch, det[2][0][0].mat)
    got_hs, got_det = _items("hs_gap_ratio", hs), _items("det_gap", det)
    assert got_hs[1].startswith("Singular: X is numerically singular")
    assert got_det[2].startswith("IllConditioned: Cholesky factorization failed")
    assert got_hs[:1] + got_hs[2:] == good_hs[:1] + good_hs[2:]
    assert got_det[:2] + got_det[3:] == good_det[:2] + good_det[3:]


def test_a_failed_factorization_raises_in_its_trials_turn(monkeypatch):
    cfg = load_config(None, {"inequality_selection": ("det_gap",), "trials_per_inequality": 9,
                             "dims": (2, 3)})
    unpatched = []
    runner.run_verify(cfg, unpatched.append)
    (a, _), _ = runner._drawn_alone(runner._trial_job(cfg, "det_gap", 4))
    _failing_cholesky(monkeypatch, a.mat)
    records = []
    with pytest.raises(TrialFailed, match=r"^trial det_gap:4 failed: IllConditioned"):
        runner.run_verify(cfg, records.append)
    assert list(map(_text, records)) == list(map(_text, unpatched[:4]))
