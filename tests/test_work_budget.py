"""Work budgets: the LAPACK work of each certifier per trial, as an exact table.

Wall time on a shared host is noisy; the calls a trial makes are not.  Each
row is a one-id verify at the default seed, with ``np.linalg`` counted per
routine: *items* count a stacked call over ``(N, n, n)`` as N, and *calls*
count it as 1.  Batching work lowers calls and leaves items as they are; a
change that moves work shows in items.  Each row's ``n3`` is the sum of the
items weighted by ``n^3`` for their ``n x n`` matrices, so work moved to a
larger matrix shows too.  Ids absent from a table make no LAPACK call.
"""

import numpy as np
import pytest

from meancert import runner
from meancert.config import load_config

ROUTINES = ("cholesky", "inv", "eigh", "eigvalsh", "qr", "svd", "slogdet")

#: The default verify's block shape: 64 trials cycling dims 1-8 are one block,
#: so a stack holds the 8 trials of one dimension.
SMALL = (64, tuple(range(1, 9)))
#: The benchmark's suite-large dims: a block holds one or two trials.
LARGE = (4, (32, 64))

#: Per trial: ``{routine: (items, calls)}``, and the ``n3``-weighted items.
TWO_SIDED = {"cholesky": (1, 1), "inv": (1, 1), "eigh": (1, 1), "eigvalsh": (2, 2)}
#: The four determinant ids are one Cholesky kernel: the log-determinants of five
#: matrices and one ``slogdet``, stacked per dimension.
DET_SMALL = {"cholesky": (5, 0.625), "qr": (2, 0.125), "slogdet": (1, 0.125)}
DET_LARGE = {"cholesky": (5, 5), "qr": (2, 1.5), "slogdet": (1, 1)}
BUDGETS = {
    SMALL: {
        "matrix_agh": {**TWO_SIDED, "qr": (2, 0.125), "n3": 1134},
        "matrix_gap_ratio": {**TWO_SIDED, "qr": (2, 0.125), "n3": 1134},
        "matrix_half_weight_gap": {**TWO_SIDED, "qr": (2, 0.125), "n3": 1134},
        "spread_gap_cap": {**TWO_SIDED, "eigvalsh": (4, 4), "qr": (2, 1), "n3": 1458},
        "hs_gap_ratio": {"qr": (4, 0.375), "svd": (1, 0.125), "n3": 810},
        "hs_agh_chain": {"qr": (4, 0.375), "svd": (1, 0.125), "n3": 810},
        "hs_half_weight_gap": {"qr": (4, 0.375), "svd": (1, 0.125), "n3": 810},
        "det_power_order": {"cholesky": (4, 0.5), "qr": (2, 0.125), "n3": 972},
        "det_root_gap": {**DET_SMALL, "n3": 1296},
        "det_gap": {**DET_SMALL, "n3": 1296},
        "det_half_weight_gap": {**DET_SMALL, "n3": 1296},
    },
    LARGE: {
        "matrix_agh": {**TWO_SIDED, "qr": (2, 1.5), "n3": 1032192},
        "matrix_gap_ratio": {**TWO_SIDED, "qr": (2, 1.5), "n3": 1032192},
        "matrix_half_weight_gap": {**TWO_SIDED, "qr": (2, 1.5), "n3": 1032192},
        "spread_gap_cap": {**TWO_SIDED, "eigvalsh": (4, 4), "qr": (2, 1), "n3": 1327104},
        "hs_gap_ratio": {"qr": (4, 3.5), "svd": (1, 1), "n3": 737280},
        "hs_agh_chain": {"qr": (4, 3.5), "svd": (1, 1), "n3": 737280},
        "hs_half_weight_gap": {"qr": (4, 3.5), "svd": (1, 1), "n3": 737280},
        "det_power_order": {"cholesky": (4, 4), "qr": (2, 1.5), "n3": 884736},
        "det_root_gap": {**DET_LARGE, "n3": 1179648},
        "det_gap": {**DET_LARGE, "n3": 1179648},
        "det_half_weight_gap": {**DET_LARGE, "n3": 1179648},
    },
}


def _work_per_trial(monkeypatch, ineq: str, trials: int, dims: tuple) -> dict:
    tally = {name: [0, 0] for name in ROUTINES}
    n3 = [0]

    def counted(name, fn):
        def call(m, *args, **kwargs):
            items = len(m) if np.ndim(m) == 3 else 1
            tally[name][0] += items
            tally[name][1] += 1
            n3[0] += items * np.shape(m)[-1] ** 3
            return fn(m, *args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        for name in ROUTINES:
            patch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        cfg = load_config(None, {"inequality_selection": (ineq,), "trials_per_inequality": trials,
                                 "dims": dims})
        runner.run_verify(cfg)
    work = {name: (n / trials, calls / trials) for name, (n, calls) in tally.items() if n}
    return {**work, "n3": n3[0] / trials} if work else work


@pytest.mark.parametrize("run", (SMALL, LARGE), ids=("dims_1_to_8", "dims_32_64"))
@pytest.mark.parametrize("ineq", runner.CANONICAL_IDS)
def test_lapack_work_per_trial(monkeypatch, run, ineq):
    assert set(BUDGETS[run]) <= set(runner.CANONICAL_IDS)
    assert _work_per_trial(monkeypatch, ineq, *run) == BUDGETS[run].get(ineq, {})
