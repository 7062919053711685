"""meancert benchmark: four verify/sweep workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload suite-small --seed 20260808 --seconds 24 --trace 0

``--trace 0`` times repeated warm calls of ``meancert.cli.main`` and prints
the end-to-end metrics; ``--trace 1`` makes one traced call and prints the
per-layer metrics (see ``perfbench/METRICS.md``).  Every run checks the
reports it wrote and exits 1 when they are wrong.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

The program under test is imported from ``src/`` next to this directory;
nothing of meancert (or numpy) is imported at module level, so that the
set-up probe can time those imports in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ".perfbench_out"  # relative to ROOT: the JSON report echoes this path
DEFAULT_SEED = 20260808
SETUP_PROBES = 9
#: Criterion 1 of the paper's acceptance suite: no margin below -10 tol.
MARGIN_FLOOR = -10.0
#: Every tenth trial of a traced run is traced again to check its eig count.
RETRACE_EVERY = 10

# Spelled out rather than read from meancert: the per-certifier metric names
# listed in BENCHMARK.json must not follow a change of the program.
ALL_IDS = (
    "scalar_agh", "matrix_agh", "gap_ratio", "half_weight_gap", "inverse_convexity",
    "one_sided_gap", "matrix_gap_ratio", "matrix_half_weight_gap", "spread_gap_cap",
    "hs_gap_ratio", "hs_agh_chain", "hs_half_weight_gap", "det_power_order",
    "minkowski_products", "power_difference", "det_root_gap", "det_gap", "det_half_weight_gap",
)
LARGE_IDS = (
    "matrix_agh", "matrix_gap_ratio", "matrix_half_weight_gap", "spread_gap_cap",
    "hs_gap_ratio", "hs_agh_chain", "hs_half_weight_gap", "det_power_order",
    "det_root_gap", "det_gap", "det_half_weight_gap",
)
COND_CAPS = (1e2, 1e4, 1e6)
SWEEP_GRID = {"v": (0.1, 0.25, 0.4, 0.6), "tau": (0.5, 0.75), "lambda": (1.0, 2.0, 3.0), "dim": (1,)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "sweep"
    select: tuple[str, ...]
    trials: int
    dims: tuple[int, ...]
    workers: int
    fmt: str

    @property
    def report(self) -> str:
        return f"{OUT}/{self.name}.{self.fmt}"

    @property
    def n_trials(self) -> int:
        if self.command == "sweep":
            cells = sum(1 for v in SWEEP_GRID["v"] for t in SWEEP_GRID["tau"] if v < t)
            return cells * len(SWEEP_GRID["lambda"]) * len(SWEEP_GRID["dim"]) * self.trials
        return len(self.select) * self.trials

    def overrides(self, seed: int) -> dict:
        """RunConfig fields, as the CLI arguments below set them."""
        return {
            "master_seed": seed,
            "trials_per_inequality": self.trials,
            "dims": self.dims,
            "cond_caps": COND_CAPS,
            "tolerance_scale": 1.0,
            "inequality_selection": self.select,
            "output_format": self.fmt,
            "output_path": self.report,
            "workers": self.workers,
        }

    def argv(self, seed: int, out: str | None = None, trials: int | None = None) -> list[str]:
        common = ["--seed", str(seed), "--trials", str(trials or self.trials),
                  "--format", self.fmt, "--out", out or self.report]
        if self.command == "sweep":
            return ["sweep", "--select", self.select[0], "--grid", f"{OUT}/sweep_grid.cfg", *common]
        return [
            "verify", "--select", ",".join(self.select), "--dims", ",".join(map(str, self.dims)),
            "--cond-caps", ",".join(map(repr, COND_CAPS)), "--tol-scale", "1",
            "--workers", str(self.workers), *common,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-small", "verify", ALL_IDS, 1000, tuple(range(1, 9)), 1, "csv"),
        Workload("suite-large", "verify", LARGE_IDS, 24, (32, 64), 1, "json"),
        Workload("suite-small-2w", "verify", ALL_IDS, 1000, tuple(range(1, 9)), 2, "csv"),
        Workload("sweep-scalar", "sweep", ("gap_ratio",), 1000, (1,), 1, "csv"),
    )
}


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def setup_probe(wl: Workload, seed: int) -> float:
    """Fresh interpreter: seconds from before ``import meancert`` to the
    return of the workload's first trial."""
    start = time.perf_counter()
    from meancert import runner
    from meancert.config import load_config

    if wl.command == "sweep":
        cfg = load_config(None, {**wl.overrides(seed), "trials_per_inequality": 1})
        runner.run_sweep(cfg, {k: vals[:1] for k, vals in SWEEP_GRID.items()}, wl.select[0])
    else:
        cfg = load_config(None, wl.overrides(seed))
        runner.run_trial(cfg, cfg.inequality_selection[0], 0)
    return time.perf_counter() - start


def measure_setup(wl: Workload, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", wl.name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# calls and the correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    exit_code: int
    digest: str


def _cpu():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


def call_main(argv: list[str], report: str) -> Call:
    """One call of ``meancert.cli.main``; an exception counts as exit code -1."""
    from meancert import cli

    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    sink = io.StringIO()
    gc.collect()
    self0, child0 = _cpu()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as exc:  # an aborted run is a measured failure, not a crash
        print(f"aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    wall = time.perf_counter() - start
    self1, child1 = _cpu()
    digest = ""
    if code != -1 and os.path.exists(report):
        digest = hashlib.sha256(Path(report).read_bytes()).hexdigest()
    return Call(wall, self1 - self0 + child1 - child0, child1 - child0, code, digest)


def check_report(wl: Workload, path: str) -> dict:
    """Parse a report: trial rows, failures, degenerate rows, min(margin/tol)."""
    if wl.fmt == "json":
        summaries = json.loads(Path(path).read_text())["summaries"]
        return {
            "rows": sum(s["trials"] for s in summaries.values()),
            "fail": sum(len(s["failures"]) for s in summaries.values()),
            "degenerate": sum(s["degenerate_skipped"] for s in summaries.values()),
            "min_margin_over_tol": None,  # JSON summaries carry no per-trial tol
        }
    rows = fail = degenerate = 0
    worst = float("inf")
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            fail += row["verdict"] == "fail"
            degenerate += row["degenerate"] == "1"
            tol = float(row["tol"])
            for key in ("margin_lower", "margin_upper"):
                if row[key] and tol > 0:
                    worst = min(worst, float(row[key]) / tol)
    return {"rows": rows, "fail": fail, "degenerate": degenerate,
            "min_margin_over_tol": worst if worst != float("inf") else None}


def pinned_digest(wl: Workload, seed: int) -> str | None:
    pins = json.loads((Path(__file__).parent / "digests.json").read_text())
    return pins.get(str(seed), {}).get(wl.name)


class Gate:
    """Collects correctness problems; a digest mismatch is only a flag."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.checked: dict[str, dict] = {}

    def add(self, call: Call):
        """Account one full-size call of the workload and check its report."""
        wl = self.wl
        self.attempted += wl.n_trials
        if call.exit_code == -1 or not call.digest:
            self.failed += wl.n_trials
            self.problems.append(f"run aborted or wrote no report (exit {call.exit_code})")
            return
        if call.digest not in self.checked:
            self.checked[call.digest] = check_report(wl, wl.report)
            if len(self.checked) > 1:
                self.problems.append("reports differ between identical calls")
        info = self.checked[call.digest]
        self.failed += info["fail"]
        if call.exit_code != 0:
            self.problems.append(f"cli exit code {call.exit_code}")
        if info["rows"] != wl.n_trials:
            self.problems.append(f"report has {info['rows']} trials, expected {wl.n_trials}")
        if info["fail"]:
            self.problems.append(f"{info['fail']} trials certified a violation")
        worst = info["min_margin_over_tol"]
        if worst is not None and worst < MARGIN_FLOOR:
            self.problems.append(f"min(margin/tol) = {worst:.3g} < {MARGIN_FLOOR}")

    def print_digest(self, digest: str):
        pin = pinned_digest(self.wl, self.seed)
        flag = "unpinned seed" if pin is None else ("match" if pin == digest else "MISMATCH (flag)")
        print(f"report_sha256 {self.wl.name} {digest} pinned: {flag}")

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def prepare(wl: Workload, seed: int):
    os.makedirs(OUT, exist_ok=True)
    grid = "\n".join(f"{k} = {', '.join(map(str, v))}" for k, v in SWEEP_GRID.items())
    Path(f"{OUT}/sweep_grid.cfg").write_text(grid + "\n")
    # warm-up: imports, lazy numpy/LAPACK initialization, first-call costs
    call_main(wl.argv(seed, out=f"{OUT}/warmup.{wl.fmt}", trials=2), f"{OUT}/warmup.{wl.fmt}")


def timed_run(wl: Workload, seed: int, seconds: float) -> tuple[Gate, dict]:
    prepare(wl, seed)
    gate = Gate(wl, seed)
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        call = call_main(wl.argv(seed), wl.report)
        calls.append(call)
        gate.add(call)
        # stop at the call count nearest to filling ``seconds``
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(c.wall_s for c in calls) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers > 1:  # pool workers were reaped at pool shutdown
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_s = measure_setup(wl, seed)  # after the calls: its children must not count above
    # Totals over the whole run, not a median over calls: the host's CPU
    # speed drifts between regimes lasting seconds to minutes, and the total
    # averages over them where a median reports whichever held longest.
    trials = wl.n_trials * len(calls)
    metrics = {
        "trials_per_s": (trials / sum(c.wall_s for c in calls), "trials/s"),
        "setup_s": (setup_s, "s"),
        "cpu_s_per_ktrial": (sum(c.cpu_s for c in calls) / (trials / 1000), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    print(f"{wl.name}: {len(calls)} timed calls x {wl.n_trials} trials, "
          f"walls {', '.join(f'{c.wall_s:.3f}' for c in calls)} s")
    gate.print_digest(calls[0].digest)
    return gate, metrics


def traced_run(wl: Workload, seed: int) -> tuple[Gate, dict]:
    prepare(wl, seed)
    import tracer
    from meancert import runner
    from meancert.config import load_config

    gate = Gate(wl, seed)
    one = dataclasses.replace(wl, workers=1)  # the traced call runs on one worker
    plain = call_main(one.argv(seed), one.report)
    gate.add(plain)
    worker_cpu = speedup = 0.0
    if wl.workers > 1:  # pool metrics are read from outside, untraced
        pooled = call_main(wl.argv(seed), wl.report)
        gate.add(pooled)
        if pooled.digest != plain.digest:
            gate.problems.append("2-worker report differs from the 1-worker report")
        worker_cpu, speedup = pooled.child_cpu_s, plain.wall_s / pooled.wall_s
    with tracer.Tracer() as tr:
        traced = call_main(one.argv(seed), one.report)
    gate.add(traced)
    gate.print_digest(traced.digest)
    if traced.digest != plain.digest:
        gate.problems.append("traced report differs from the untraced report")
    tr.save(f"{OUT}/{wl.name}.spans.npz")
    layers, trial_spans = tracer.layer_metrics(tr, ALL_IDS)
    if trial_spans != wl.n_trials:
        gate.problems.append(f"{trial_spans} trial spans for {wl.n_trials} trials")

    first = tr.eig_calls_by_label()
    cfg = load_config(None, one.overrides(seed))
    with tracer.Tracer() as again:
        if wl.command == "sweep":
            runner.run_sweep(cfg, SWEEP_GRID, wl.select[0])
        else:
            for label in list(first)[::RETRACE_EVERY]:
                cid, idx = label.split(":")
                runner.run_trial(cfg, cid, int(idx))
    second = again.eig_calls_by_label()
    differ = [lab for lab, n in second.items() if first.get(lab) != n]
    print(f"eig-call repeat check: {len(second)} trials traced again, {len(differ)} differ")
    if differ:
        gate.problems.append(f"eig calls differ on re-trace for {differ[:5]}")

    info = gate.checked.get(traced.digest, {"degenerate": 0, "rows": 1})
    layers["runner.report_bytes"] = (os.path.getsize(one.report), "bytes")
    layers["runner.worker_cpu_s"] = (worker_cpu, "s")
    layers["runner.speedup_2w"] = (speedup, "ratio")
    layers["certifiers.degenerate_frac"] = (info["degenerate"] / max(info["rows"], 1), "ratio")
    layers["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    print(f"trace overhead: traced {traced.wall_s:.3f} s vs untraced {plain.wall_s:.3f} s")
    return gate, layers


def emit(wl: Workload, gate: Gate, metrics: dict):
    failed_frac = gate.failed / max(gate.attempted, 1)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<42} {failed_frac:>14.6g} ratio "
          f"({gate.failed} of {gate.attempted} trials attempted)")
    for info in gate.checked.values():
        print(f"  report: {info}")
    for problem in gate.problems:
        print(f"  CORRECTNESS: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "meancert" / "__init__.py").is_file():
        print(f"error: meancert sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).parent))
    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        print(repr(setup_probe(wl, args.seed)))
        return 0
    print("environment:", json.dumps(environment()))
    print(f"workload {wl.name} seed {args.seed}: meancert {' '.join(wl.argv(args.seed))}")
    if args.trace:
        gate, metrics = traced_run(wl, args.seed)
    else:
        gate, metrics = timed_run(wl, args.seed, args.seconds)
    emit(wl, gate, metrics)
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
