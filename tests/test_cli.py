import hashlib
import json

import numpy as np
import pytest

from meancert import certifiers, cli
from meancert.config import CANONICAL_IDS, load_config
from meancert.errors import ConfigError
from meancert.sampling import MIN_REL_SEPARATION
from meancert import runner


def run_cli(args):
    return cli.main(args)


class TestConfig:
    def test_defaults_valid(self):
        cfg = load_config(None, {})
        assert cfg.trials_per_inequality == 1000
        assert cfg.dims == (1, 2, 3, 4, 5, 6, 7, 8)
        assert cfg.inequality_selection == CANONICAL_IDS

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "master_seed = 42\n"
            "trials_per_inequality = 7\n"
            "dims = 1, 2, 3\n"
            "cond_caps = 1e2\n"
            "inequality_selection = scalar_agh, gap_ratio\n"
            "output_format = json\n"
        )
        cfg = load_config(str(path), {})
        assert cfg.master_seed == 42
        assert cfg.trials_per_inequality == 7
        assert cfg.dims == (1, 2, 3)
        assert cfg.inequality_selection == ("scalar_agh", "gap_ratio")
        assert cfg.output_format == "json"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_key = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials_per_inequality = banana\n")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"inequality_selection": ("nope",)})

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MEANCERT_TRIALS_PER_INEQUALITY", "3")
        monkeypatch.setenv("MEANCERT_DIMS", "2,4")
        cfg = load_config(None, {})
        assert cfg.trials_per_inequality == 3
        assert cfg.dims == (2, 4)


class TestVerifyCommand:
    def test_small_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            [
                "verify", "--select", "scalar_agh,gap_ratio,matrix_agh",
                "--trials", "5", "--dims", "1,2,3", "--seed", "11",
                "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(runner.CSV_COLUMNS)
        assert len(lines) == 1 + 3 * 5
        captured = capsys.readouterr().out
        assert "scalar_agh" in captured and "failures=0" in captured

    def test_summary_conservation(self, tmp_path):
        cfg = load_config(None, {"trials_per_inequality": 8, "dims": (1, 2)})
        summaries = runner.summarize(runner.run_verify(cfg))
        for s in summaries.values():
            assert s["trials"] == s["passes"] + len(s["failures"]) + s["degenerate_skipped"]

    def test_json_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "verify", "--select", "power_difference", "--trials", "4",
                "--seed", "9", "--out", str(out), "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["spec_version"] == runner.REPORT_SCHEMA_VERSION
        assert payload["config"]["master_seed"] == 9
        assert payload["summaries"]["power_difference"]["trials"] == 4
        assert payload["witnesses"] == {}

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("trials_per_inequality banana\n")
        assert run_cli(["verify", "--config", str(path)]) == 2

    def test_unknown_selection_exit_two(self):
        assert run_cli(["verify", "--select", "not_a_tag", "--trials", "1"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            "--dims a", "--dims 2.5", "--cond-caps x", "--tol-scale nan", "--tol-scale inf",
            "--cond-caps nan", "--cond-caps inf",
        ],
    )
    def test_bad_flag_value_exit_two(self, tmp_path, capsys, flags):
        # malformed or non-finite values are input errors, as from a config file
        out = tmp_path / "report.csv"
        args = ["verify", "--select", "scalar_agh,matrix_agh", "--trials", "3", "--out", str(out)]
        assert run_cli(args + flags.split()) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        # exit 1 is reserved for a certified violation
        out = tmp_path / "missing" / "report.csv"
        args = ["verify", "--select", "scalar_agh", "--trials", "2", "--out", str(out)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "verify", "--select", "matrix_agh,det_gap", "--trials", "6",
            "--dims", "1,2,3", "--seed", "123", "--format", "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_corrupted_mean_exits_one_with_witness(self, tmp_path, monkeypatch):
        from meancert import means

        monkeypatch.setattr(means, "harm_map", means.arith_map)
        out = tmp_path / "bad.json"
        code = run_cli(
            [
                "verify", "--select", "matrix_agh", "--trials", "3",
                "--seed", "5", "--out", str(out), "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["summaries"]["matrix_agh"]["failures"]
        ref = payload["summaries"]["matrix_agh"]["failures"][0]
        assert ref in payload["witnesses"]
        assert payload["witnesses"][ref]["A"]

    def test_csv_failures_write_witness_sidecar(self, tmp_path, monkeypatch):
        from meancert import means

        monkeypatch.setattr(means, "harm_map", means.arith_map)
        out = tmp_path / "bad.csv"
        code = run_cli(
            [
                "verify", "--select", "matrix_agh", "--trials", "2",
                "--seed", "5", "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 1
        sidecar = json.loads((tmp_path / "bad.csv.witnesses.json").read_text())
        assert sidecar["witnesses"]


class TestHighConditionCaps:
    MATRIX_IDS = (
        "matrix_agh", "matrix_gap_ratio", "matrix_half_weight_gap", "spread_gap_cap",
        "hs_gap_ratio", "hs_agh_chain", "hs_half_weight_gap", "det_power_order",
        "det_root_gap", "det_gap", "det_half_weight_gap",
    )

    def verdicts(self, path):
        rows = path.read_text().strip().split("\n")[1:]
        return [row.split(",")[10] for row in rows]

    def test_matrix_agh_cap_1e8_runs_to_verdicts(self, tmp_path):
        # the direct geometric mean rejects its inner A^(-1/2) B A^(-1/2) at this cap
        out = tmp_path / "cap.csv"
        code = run_cli(
            ["verify", "--select", "matrix_agh", "--cond-caps", "1e8", "--trials", "100",
             "--out", str(out)]
        )
        assert code == 0
        verdicts = self.verdicts(out)
        assert len(verdicts) == 100 and "fail" not in verdicts

    @pytest.mark.parametrize("ineq", MATRIX_IDS)
    def test_matrix_valued_ids_cap_1e8(self, tmp_path, ineq):
        out = tmp_path / "cap.csv"
        code = run_cli(
            ["verify", "--select", ineq, "--cond-caps", "1e8", "--trials", "20",
             "--dims", "4,8,32", "--out", str(out)]
        )
        assert code == 0
        verdicts = self.verdicts(out)
        assert len(verdicts) == 20 and "fail" not in verdicts


class TestLowConditionCaps:
    # the scalar draws need a ratio cap of at least 1/(1 - MIN_REL_SEPARATION)
    FLOOR = 1.0 / (1.0 - MIN_REL_SEPARATION)

    @pytest.mark.parametrize(
        "command, ineq",
        [("verify", i) for i in CANONICAL_IDS] + [("sweep", i) for i in runner.SWEEPABLE_IDS],
    )
    def test_caps_below_the_floor_exit_two(self, tmp_path, capsys, monkeypatch, command, ineq):
        out = tmp_path / "report.csv"
        grid = tmp_path / "grid.cfg"
        grid.write_text("v = 0.25\ntau = 0.5\ndim = 1, 2, 8\n")
        argv = [command, "--select", ineq, "--trials", "10", "--out", str(out)]
        argv += ["--dims", "1,2,8"] if command == "verify" else ["--grid", str(grid)]
        for cap in (1.0, 1.005, 1.05, self.FLOOR, 1.2):
            monkeypatch.setenv("MEANCERT_COND_CAPS", repr(cap))
            want = 2 if cap < self.FLOOR else 0
            assert run_cli(argv) == want, (cap, capsys.readouterr().err)
            err = capsys.readouterr().err  # nothing, or one error line: never a traceback
            if want == 2:
                assert err.startswith("error: cond_caps") and err.count("\n") == 1
            else:
                assert err == ""


class TestTrialFailure:
    """A typed numerical error inside a trial exits 3 naming the trial, with
    no traceback and no report; exit 1 stays reserved for a violation."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cap_1e10_exits_three(self, tmp_path, capsys, workers):
        out = tmp_path / "cap.json"
        code = run_cli(
            ["verify", "--select", "matrix_agh,matrix_gap_ratio,det_root_gap,hs_agh_chain,det_gap",
             "--cond-caps", "1e10", "--trials", "60", "--dims", "4,8,32", "--seed", "3",
             "--workers", workers, "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "trial matrix_agh:17 failed: IllConditioned" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_cap_1e12_failed_positivity_gate_exits_three(self, tmp_path, capsys):
        # a sampled matrix under SpdMatrix's gate is a typed NotPositiveDefinite
        out = tmp_path / "cap.csv"
        code = run_cli(
            ["verify", "--select", "det_gap", "--cond-caps", "1e12", "--trials", "40",
             "--dims", "1,2,8,16,64", "--seed", "5", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "trial det_gap:19 failed: NotPositiveDefinite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_failure_names_cell_and_trial(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("v = 0.25\ntau = 0.5\nlambda = 1\ndim = 32\n")
        config = tmp_path / "run.cfg"
        config.write_text("cond_caps = 1e12\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--grid", str(grid), "--config", str(config), "--select",
             "matrix_gap_ratio", "--trials", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 3
        assert "trial matrix_gap_ratio[v=0.25 tau=0.5 lambda=1.0 dim=32]:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_power_overflow_exits_three(self, tmp_path, capsys):
        # ((1-v)/(1-tau))^lam is finite in exact arithmetic, not in double precision
        grid = tmp_path / "grid.cfg"
        grid.write_text("v = 0.25\ntau = 0.5\nlambda = 1e300\ndim = 2\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--grid", str(grid), "--select", "gap_ratio", "--trials", "2",
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "trial gap_ratio[v=0.25 tau=0.5 lambda=1e+300 dim=2]:0 failed: PowerOverflow" in err
        assert "Traceback" not in err
        assert not out.exists()


    def test_sweep_det_root_gap_overflow_exits_three(self, tmp_path, capsys, recwarn):
        # det(.)^(lam/n) exceeds double precision: a typed failure, not nan margins read as fail
        grid = tmp_path / "grid.cfg"
        grid.write_text("v = 0.25\ntau = 0.5\nlambda = 300\ndim = 1\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--grid", str(grid), "--select", "det_root_gap", "--trials", "50",
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "trial det_root_gap[v=0.25 tau=0.5 lambda=300.0 dim=1]:2 failed: PowerOverflow" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestSweepCommand:
    def grid_file(self, tmp_path, text):
        path = tmp_path / "grid.cfg"
        path.write_text(text)
        return str(path)

    def test_cell_cardinality(self, tmp_path):
        grid = self.grid_file(tmp_path, "v = 0.1, 0.3\ntau = 0.5\nlambda = 1, 2\ndim = 2, 4\n")
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep", "--grid", grid, "--select", "det_root_gap",
                "--trials", "3", "--seed", "2", "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 8 * 3  # 8 cells x 3 trials

    def test_skipped_cells_counted(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path, "v = 0.1, 0.7\ntau = 0.5\nlambda = 1\ndim = 2\n")
        out = tmp_path / "sweep.json"
        code = run_cli(
            [
                "sweep", "--grid", grid, "--select", "det_root_gap",
                "--trials", "2", "--out", str(out), "--format", "json",
            ]
        )
        assert code == 0
        assert "skipped_cells=1" in capsys.readouterr().out
        assert json.loads(out.read_text())["skipped_cells"] == 1

    def test_empty_effective_grid_exit_two(self, tmp_path):
        grid = self.grid_file(tmp_path, "v = 0.9\ntau = 0.5\nlambda = 1\ndim = 2\n")
        assert run_cli(["sweep", "--grid", grid, "--select", "det_root_gap"]) == 2

    def test_unknown_grid_key_exit_two(self, tmp_path):
        grid = self.grid_file(tmp_path, "weights = 0.1\n")
        assert run_cli(["sweep", "--grid", grid]) == 2

    @pytest.mark.parametrize(
        "select, text",
        [
            ("gap_ratio", "lambda = inf\n"),
            ("det_root_gap", "lambda = inf\n"),
            ("gap_ratio", "lambda = 1, nan\n"),
            ("det_root_gap", "v = 0.25, nan\n"),
            ("det_root_gap", "v = 0.25\ntau =\n"),
            ("det_root_gap", "# no axes\n"),
            ("det_root_gap", "dim = 2, 65\n"),
        ],
    )
    def test_bad_grid_exit_two(self, tmp_path, capsys, select, text):
        # non-finite values, empty axes, no axes and dims out of range are input errors
        grid = self.grid_file(tmp_path, text)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--grid", grid, "--select", select, "--trials", "2", "--out", str(out)]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_grid_rules_hold_for_dict_grids(self):
        cfg = load_config(None, {"trials_per_inequality": 2})
        for grid in ({}, {"v": ()}, {"lambda": (float("inf"),)}, {"dim": (0,)}):
            with pytest.raises(ConfigError):
                runner.run_sweep(cfg, grid, "gap_ratio")

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        grid = self.grid_file(tmp_path, "v = 0.2\ntau = 0.6\n")
        out = tmp_path / "missing" / "sweep.csv"
        args = ["sweep", "--grid", grid, "--select", "gap_ratio", "--trials", "2", "--out", str(out)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_csv_failures_write_witness_sidecar(self, tmp_path, monkeypatch):
        from meancert import means

        # a harmonic mean in place of the gap breaks the gap-ratio upper bound
        monkeypatch.setattr(means, "gap_map", means.harm_map)
        grid = self.grid_file(tmp_path, "v = 0.25\ntau = 0.5\ndim = 3\n")
        out = tmp_path / "bad.csv"
        code = run_cli(
            ["sweep", "--grid", grid, "--select", "matrix_gap_ratio", "--trials", "4",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 1
        failed = [row.split(",")[6] for row in out.read_text().split("\n") if ",fail," in row]
        sidecar = json.loads((tmp_path / "bad.csv.witnesses.json").read_text())
        cell = "matrix_gap_ratio[v=0.25 tau=0.5 lambda=1.0 dim=3]"
        assert failed and set(sidecar["witnesses"]) == {f"{cell}:{t}" for t in failed}

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_failures_in_two_cells_keep_every_witness(self, tmp_path, monkeypatch, fmt):
        from meancert import means

        # a sweep's trial index restarts in every cell: refs carry the cell
        monkeypatch.setattr(means, "gap_map", means.harm_map)
        grid = self.grid_file(tmp_path, "v = 0.25, 0.3\ntau = 0.5\ndim = 3\n")
        out = tmp_path / f"bad.{fmt}"
        args = ["sweep", "--grid", grid, "--select", "matrix_gap_ratio", "--trials", "10",
                "--seed", "5", "--format", fmt, "--out", str(out)]
        assert run_cli(args) == 1
        if fmt == "json":
            payload = json.loads(out.read_text())
            refs = payload["summaries"]["matrix_gap_ratio"]["failures"]
        else:
            payload = json.loads((tmp_path / "bad.csv.witnesses.json").read_text())
            rows = [row.split(",") for row in out.read_text().split("\n") if ",fail," in row]
            refs = [f"matrix_gap_ratio[v={r[2]} tau=0.5 lambda=1.0 dim=3]:{r[6]}" for r in rows]
        assert len(refs) == 12 and len(set(refs)) == 12
        assert set(payload["witnesses"]) == set(refs)
        assert {ref.split("]")[0] for ref in refs} == {
            f"matrix_gap_ratio[v={v} tau=0.5 lambda=1.0 dim=3" for v in (0.25, 0.3)
        }

    def test_byte_identical_reruns(self, tmp_path):
        # the same sweep written to two paths: the bytes must not echo the path
        grid = self.grid_file(tmp_path, "v = 0.2\ntau = 0.6\nlambda = 1, 2\ndim = 2, 3\n")
        args = ["sweep", "--grid", grid, "--select", "gap_ratio", "--trials", "4", "--seed", "7"]
        for fmt in ("csv", "json"):
            out1, out2 = tmp_path / f"s1.{fmt}", tmp_path / f"s2.{fmt}"
            assert run_cli(args + ["--format", fmt, "--out", str(out1)]) == 0
            assert run_cli(args + ["--format", fmt, "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()


class TestProbeCommand:
    def test_gap_ratio_limits_table(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = run_cli(["probe", "--name", "gap_ratio_limits", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(runner.PROBE_CSV_COLUMNS)
        # 2 powers x 4 eps x 2 sides
        assert len(lines) == 1 + 16

    def test_factor_sharpness_json(self, tmp_path):
        out = tmp_path / "probe.json"
        code = run_cli(
            ["probe", "--name", "gap_factor_sharpness", "--v-values", "0.5",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["probe"] == "gap_factor_sharpness"
        assert payload["holds"] is True
        assert payload["rows"]

    def test_unknown_probe_exit_two(self):
        assert run_cli(["probe", "--name", "bogus"]) == 2

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("gap_ratio_limits", "--v 0.7"),
            ("gap_ratio_limits", "--eps 2"),
            ("gap_ratio_limits", "--lams 0.5"),
            ("gap_ratio_limits", "--b -1"),
            ("gap_ratio_limits", "--lams 1e300"),
            ("gap_ratio_limits", "--lams ,"),
            ("gap_ratio_limits", "--eps ,"),
            ("gap_factor_sharpness", "--t-values 0.5"),
            ("gap_factor_sharpness", "--v-values 1.5"),
            ("gap_factor_sharpness", "--v-values ,"),
            ("gap_factor_sharpness", "--t-values ,"),
        ],
    )
    def test_bad_probe_value_exit_two(self, tmp_path, capsys, name, flags):
        # exit 1 is reserved for a certified violation; an empty list is not the default
        out = tmp_path / "probe.csv"
        assert run_cli(["probe", "--name", name, "--out", str(out)] + flags.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: probe {name}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "probe.csv"
        assert run_cli(["probe", "--name", "gap_ratio_limits", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_usage_error_exit_two(self):
        assert run_cli(["probe"]) == 2

    def test_unknown_command_exit_two(self):
        assert run_cli(["frobnicate"]) == 2


def test_each_certifier_id_names_its_check():
    # certifiers.check_<id> is the check of table entry <id>, and every check has an entry
    checks = {name for name in dir(certifiers) if name.startswith("check_")}
    assert checks == {f"check_{ineq}" for ineq in runner.CERTIFIERS}
    assert all(callable(getattr(certifiers, name)) for name in checks)


@pytest.mark.parametrize("ineq", CANONICAL_IDS)
def test_margin_columns_follow_the_report(monkeypatch, ineq):
    # the CSV has two margin columns, so a third margin would be dropped silently
    check = f"check_{ineq}"
    original, reports = getattr(certifiers, check), []

    def capture(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(certifiers, check, capture)
    record = runner.run_trial(load_config(None, {"trials_per_inequality": 1}), ineq, 0)
    (report,) = reports
    margins = list(report.margins.values())
    assert not report.degenerate and 1 <= len(margins) <= 2
    assert [record.margin_lower, record.margin_upper] == margins + [None] * (2 - len(margins))


#: numpy version the report pins below were taken under.  The matrix rows
#: carry LAPACK's bits, so another numpy (or its bundled OpenBLAS) may move
#: them without any change to meancert.
PINNED_NUMPY = "2.4.6"

#: SHA-256 of each sweepable id's JSON sweep over PIN_GRID at seed 7, 20
#: trials (report schema 1.1, which no longer echoes the output path).
SWEEP_PINS = {
    "gap_ratio": "b27a652a95d85a5d3fae7d01fca17dc16cc56379dc77dd2cb1a26d5576906244",
    "matrix_gap_ratio": "f01ce9b9e6f0df3dc018ea4677896782fbc60cf06ef3aeba16074ff542c7cf0b",
    "hs_gap_ratio": "12a776b1399b524097b413ab882655bd71f1f197ff92fc2536193e32b60185d7",
    "det_root_gap": "b191f3a3637167b2ecbe11dd6d6d1eb3354a2f4935848728182edcdee66e5f9f",
}
#: SHA-256 of probe reports, keyed by the probe flags and the report format.
PROBE_PINS = {
    ("--name gap_ratio_limits", "csv"):
        "38cea49d9f3f2c29f20eb7eddf4ed7c95882795d40f112ba630fe01dedeacd97",
    ("--name gap_ratio_limits", "json"):
        "3c90532a7ec46df5a97be6e210dc0e8d0785995163539e3b47760d55bf92fe6c",
    ("--name gap_factor_sharpness", "csv"):
        "06e551e69b536fca4d3bab4270fa37cab5c357ba53044fa91c4a0592d2e6eb87",
    ("--name gap_factor_sharpness", "json"):
        "2a944407f98c7cfc643385fff3b4a9bffbcdfdc413cbed60b123003c05ff71bf",
    ("--name gap_ratio_limits --v 0.1 --tau 0.7 --lams 1,1.5,3 --b 2 --eps 1e-3,1e-9", "csv"):
        "97d2292ef3217cdb146eec4258a227df7cfb9806cfea21fff8bb3ae2c5514fd4",
    ("--name gap_ratio_limits --v 0.1 --tau 0.7 --lams 1,1.5,3 --b 2 --eps 1e-3,1e-9", "json"):
        "35e2f33133ece7f2eb311d08156ee2208b8dd048ab7a310860e0a22094ce4685",
    ("--name gap_factor_sharpness --v 0.2", "csv"):
        "ca4ab8720382b6500a06740595da0bfa2b4d070db89fc50b7b18e1c5b1278e5b",
    ("--name gap_factor_sharpness --v 0.2", "json"):
        "9e9639bab4b4cff6ed35856eaeb36fa945c7a5990902d14ec1af3cc47ef88aeb",
    ("--name gap_factor_sharpness --v-values 0.5,0.05 --t-values 3,1.001", "csv"):
        "6379a8dfa51a6977be67878df0d64190e53575664b40f5ac0594243f59aebd9f",
    ("--name gap_factor_sharpness --v-values 0.5,0.05 --t-values 3,1.001", "json"):
        "35a8f170cd3d1e5a768f3eac022241a60170affea9ac5d577115542f2b025f2c",
}
PIN_GRID = "v = 0.25, 0.6\ntau = 0.5, 0.75\nlambda = 1, 2\ndim = 1, 3, 8\n"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY, reason=f"report pins were taken under numpy {PINNED_NUMPY}"
)
def test_sweep_and_probe_reports_pinned(tmp_path, monkeypatch):
    # every report takes its default path inside tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.cfg").write_text(PIN_GRID)
    got = {}
    for select in SWEEP_PINS:
        args = ["sweep", "--grid", "grid.cfg", "--select", select, "--seed", "7",
                "--trials", "20", "--format", "json"]
        assert run_cli(args) == 0
        got[select] = sha256(tmp_path / "sweep_report.json")
    for flags, fmt in PROBE_PINS:
        assert run_cli(["probe", *flags.split(), "--format", fmt]) == 0
        got[flags, fmt] = sha256(tmp_path / f"probe_report.{fmt}")
    assert got == {**SWEEP_PINS, **PROBE_PINS}
