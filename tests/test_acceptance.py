"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run).
"""

import contextlib
import csv
import hashlib
import json
import time

import numpy as np
import pytest

import scalar_oracles as oracle
from hermitian import random_hermitian
from test_cli import (
    HASWELL,
    HASWELL_NO_AVX512,
    PINNED_NUMPY,
    SKYLAKEX,
    SKYLAKEX_NO_AVX512,
    report_platform,
)
from meancert import (
    BoundsHypothesis,
    SpdMatrix,
    WeightOrder,
    check_matrix_gap_ratio,
    eig_hermitian,
    means,
    normalized_gap,
    probe_gap_ratio_limits,
    probe_normalized_gap,
    spread_hypothesis_verdicts,
)
from meancert import certifiers, cli
from meancert.sampling import SeedPath, random_ordered_pair


#: SHA-256 of the default verify CSV at seed 20260808, by report platform.
DEFAULT_VERIFY_SHA256 = {
    SKYLAKEX: "a436818fa025f8a950f7be31b4e874a8e5a7a6baa99b33d1456a96154c2e451b",
    SKYLAKEX_NO_AVX512: "a5523014bcf24cb9fcddccff21c8bca5d957abace681871890cf696650e2cf80",
    HASWELL: "51c639c68cccc8aac130d7d4f4e5ee9cabf1f47765849b466e5c587f719bcf2e",
    HASWELL_NO_AVX512: "7f6e3bdb3b20df401f0dd13bf220a78e7f131681e08dbc2500e0b1489c61c5b1",
}
#: The columns that match on every platform pinned above: all but the
#: margins and the tolerance, which carry the BLAS kernels' and the SIMD
#: dispatch's rounding.
PORTABLE_COLUMNS = (
    "inequality_id", "dim", "v", "tau", "lambda", "cond_cap", "trial_index", "verdict", "degenerate",
)
#: SHA-256 of the default verify CSV's PORTABLE_COLUMNS (a line per row, no
#: header) under PINNED_NUMPY, on any CPU.
DEFAULT_VERIFY_PORTABLE_SHA256 = "2a6f29ac26561926b892bf3c5977a20ee6c4efac12c2c6b79f4f745463eb71ad"


def portable_sha256(path) -> str:
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        lines = "".join(",".join(row[c] for c in PORTABLE_COLUMNS) + "\n" for row in rows)
    return hashlib.sha256(lines.encode()).hexdigest()


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_full_suite_pass(tmp_path):
    """All 18 certifiers x 1000 seeded instances, dims 1-8, cond caps up to
    1e6: exit 0, no margin below -10*tol, within the runtime budget."""
    with criterion(1, "full-suite verify exits 0"):
        out = tmp_path / "full.csv"
        start = time.monotonic()
        code = cli.main(
            ["verify", "--trials", "1000", "--seed", "20260808", "--out", str(out)]
        )
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed <= 300.0, f"suite took {elapsed:.0f}s, budget is 5 minutes"
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 18 * 1000
        for row in rows:
            cells = row.split(",")
            tol = float(cells[9])
            for margin_text in (cells[7], cells[8]):
                if margin_text:
                    assert float(margin_text) >= -10.0 * tol, row
        if np.__version__ == PINNED_NUMPY:
            assert portable_sha256(out) == DEFAULT_VERIFY_PORTABLE_SHA256
        raw = DEFAULT_VERIFY_SHA256.get(report_platform())
        if raw is not None:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == raw


def test_criterion_2_scalar_oracle_equivalence():
    """Diagonal instances: matrix certifier margins equal the scalar
    certifiers applied entrywise, within 1e-10 absolute; verdicts agree."""
    with criterion(2, "diagonal scalar-oracle equivalence"):
        rng = np.random.default_rng(424242)
        per_family = 910  # 11 families x 910 = 10010 >= 1e4 instances
        checked = 0
        for k in range(per_family):
            n = k % 8 + 1
            av = rng.uniform(0.5, 2.0, size=n)
            bv = rng.uniform(0.5, 2.0, size=n)
            v = float(rng.uniform(0.1, 0.9))
            tau = float(rng.uniform(v, 0.92))
            lam = float(rng.uniform(1.0, 2.0))
            a, b = SpdMatrix(np.diag(av)), SpdMatrix(np.diag(bv))
            eye = np.eye(n)
            vhalf = float(rng.uniform(0.1, 0.5))

            # the spread cap needs entrywise-ordered operands for its hypothesis
            lo_v, hi_v = np.minimum(av, bv), np.maximum(av, bv)
            lo_m, hi_m = SpdMatrix(np.diag(lo_v)), SpdMatrix(np.diag(hi_v))

            pairs = [
                (certifiers.check_matrix_agh(a, b, v), oracle.agh_margins(av, bv, v)),
                (
                    certifiers.check_matrix_gap_ratio(a, b, v, tau),
                    oracle.gap_ratio_margins(av, bv, v, tau),
                ),
                (
                    certifiers.check_matrix_half_weight_gap(a, b, vhalf),
                    oracle.gap_ratio_margins(av, bv, vhalf, 0.5),
                ),
                (
                    certifiers.check_spread_gap_cap(lo_m, hi_m, v, BoundsHypothesis(0.45, 2.1)),
                    oracle.spread_cap_margin(lo_v, hi_v, v, 0.45, 2.1),
                ),
                (
                    certifiers.check_hs_gap_ratio(a, b, eye, v, tau),
                    oracle.hs_ratio_margins(av, bv, v, tau),
                ),
                (
                    certifiers.check_hs_agh_chain(a, b, eye, v),
                    oracle.hs_chain_margins(av, bv, v),
                ),
                (
                    certifiers.check_hs_half_weight_gap(a, b, eye, vhalf),
                    oracle.hs_half_margins(av, bv, vhalf),
                ),
                (
                    certifiers.check_det_power_order(a, b, v, lam),
                    oracle.det_power_margin(av, bv, v, lam),
                ),
                (
                    certifiers.check_det_root_gap(a, b, v, tau, lam),
                    oracle.det_root_margin(av, bv, v, tau, lam),
                ),
                (certifiers.check_det_gap(a, b, v, tau), oracle.det_gap_margin(av, bv, v, tau)),
                (
                    certifiers.check_det_half_weight_gap(a, b, vhalf),
                    oracle.det_half_margin(av, bv, vhalf),
                ),
            ]
            for report, expected in pairs:
                assert not report.degenerate
                expected = (expected,) if isinstance(expected, float) else expected
                got = list(report.margins.values())
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    assert abs(g - e) <= 1e-10, (report.margins, g, e)
                assert report.verdict == ("pass" if min(expected) >= -report.tol_used else "fail")
                checked += 1
        assert checked == per_family * 11


def test_criterion_3_gap_ratio_limit_sharpness():
    """Powered-gap ratio approaches its bounds: within 1e-4 relative at
    eps=1e-8, gaps non-increasing over eps in {1e-2..1e-8}."""
    with criterion(3, "gap-ratio limit sharpness"):
        v, tau, b = 0.25, 0.5, 1.0
        eps_list = (1e-2, 1e-4, 1e-6, 1e-8)
        for lam in (1.0, 2.0):
            upper = ((1 - v) / (1 - tau)) ** lam
            lower = (v / tau) ** lam
            _, rep = probe_gap_ratio_limits(v, tau, lam, b, eps_list)
            assert rep.holds
            assert rep.margins["small_a_gap[1e-08]"] <= 1e-4 * upper
            assert rep.margins["large_a_gap[1e-08]"] <= 1e-4 * lower
            assert rep.margins["small_a_monotone"] >= 0.0
            assert rep.margins["large_a_monotone"] >= 0.0
            small = [rep.margins[f"small_a_gap[{e!r}]"] for e in eps_list]
            large = [rep.margins[f"large_a_gap[{e!r}]"] for e in eps_list]
            assert all(x >= y for x, y in zip(small, small[1:]))
            assert all(x >= y for x, y in zip(large, large[1:]))


def test_criterion_4_normalized_gap_factor_sharpness():
    """|g_0.5(1+1e-6) - 0.25| <= 1e-5; gaps shrink monotonically toward t=1
    for v in {0.1, 0.3, 0.5}."""
    with criterion(4, "normalized-gap factor sharpness"):
        assert abs(normalized_gap(0.5, 1 + 1e-6) - 0.25) <= 1e-5
        t_list = (1 + 1e-6, 1 + 1e-4, 1 + 1e-2, 2.0, 10.0)
        for v in (0.1, 0.3, 0.5):
            _, rep = probe_normalized_gap(v, t_list)
            assert rep.holds
            assert rep.margins["gap_monotone"] >= 0.0
            gaps = [rep.margins[f"gap[{t!r}]"] for t in sorted(t_list)]
            assert all(x <= y for x, y in zip(gaps, gaps[1:]))


def test_criterion_5_eigensolver_quality_gate():
    """1000 seeded Hermitian matrices (n <= 8, condition <= 1e6):
    reconstruction <= 1e-10*max(1, ||A||_F), unitarity defect <= 1e-12*n."""
    with criterion(5, "eigensolver quality gate"):
        for k in range(1000):
            n = k % 8 + 1
            scale = float(np.exp(SeedPath(900, k).rng().uniform(np.log(1e-2), np.log(1e2))))
            h = random_hermitian(n, scale * 1e-3, scale * 1e3, SeedPath(901, k))
            dec = eig_hermitian(h)
            resid = np.linalg.norm(h.mat - dec.apply(dec.eigenvalues))
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(h.mat))
            defect = np.linalg.norm(dec.unitary @ dec.unitary.conj().T - np.eye(n))
            assert defect <= 1e-12 * n


def test_criterion_6_ordered_pair_hypothesis_validity():
    """1e4 ordered-pair draws all pass the four order checks at tol = 0."""
    with criterion(6, "ordered-pair hypothesis validity at tol=0"):
        for k in range(10_000):
            n = k % 8 + 1
            rng = SeedPath(777, k).rng()
            m = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            big = m * float(np.exp(rng.uniform(0.0, np.log(1e6))))
            a, b = random_ordered_pair(n, m, big, rng)
            verdicts = spread_hypothesis_verdicts(a, b, BoundsHypothesis(m, big), tol=0.0)
            assert len(verdicts) == 4
            for name, verdict in verdicts.items():
                assert verdict.holds, (name, verdict.margin, k)


def test_criterion_7_byte_identical_reports(tmp_path):
    """Identical config => byte-identical CSV, including a parallel run."""
    with criterion(7, "byte-identical reports across runs and workers"):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "master_seed = 31415\n"
            "trials_per_inequality = 24\n"
            "dims = 1, 2, 3, 4\n"
            "cond_caps = 1e2, 1e4\n"
            "inequality_selection = scalar_agh, matrix_agh, hs_gap_ratio, det_root_gap\n"
            "output_format = csv\n"
        )
        outs = [tmp_path / f"r{i}.csv" for i in range(3)]
        for out, workers in zip(outs, ("1", "1", "2")):
            code = cli.main(
                ["verify", "--config", str(cfg_file), "--out", str(out), "--workers", workers]
            )
            assert code == 0
        blobs = [out.read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_8_negative_controls(tmp_path, monkeypatch):
    """Reversed weights are rejected; a corrupted harmonic mean must fail
    with a serialized witness -- the harness can detect violations."""
    with criterion(8, "negative controls"):
        a, b = (
            SpdMatrix(np.diag([1.0, 2.0])),
            SpdMatrix(np.diag([2.0, 3.0])),
        )
        with pytest.raises(WeightOrder):
            check_matrix_gap_ratio(a, b, 0.7, 0.3)

        monkeypatch.setattr(means, "harm_map", means.arith_map)
        out = tmp_path / "corrupted.json"
        code = cli.main(
            [
                "verify", "--select", "matrix_agh", "--trials", "5",
                "--seed", "88", "--out", str(out), "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        failures = payload["summaries"]["matrix_agh"]["failures"]
        assert failures
        witness = payload["witnesses"][failures[0]]
        rebuilt = np.array(witness["A"])
        assert rebuilt.ndim == 3 and rebuilt.shape[-1] == 2
        assert np.isfinite(rebuilt).all()
