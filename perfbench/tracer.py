"""In-memory span tracer that wraps meancert's public functions from outside.

Each wrapped function records one span: name, start, end, parent span and
the ``id:trial`` label of the trial that was running.  Functions are wrapped
in every meancert module that binds them (``from .linalg import ...`` makes
several bindings of one function), and the numpy eigensolver and
factorization entry points are wrapped on ``numpy.linalg`` so that their
calls from meancert are counted.  Spans live in flat typed arrays until the
run ends; :meth:`Tracer.save` writes them out and :func:`layer_metrics`
reduces them to the per-layer numbers.

Nothing here is imported by the timed runs.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

import meancert
from meancert import certifiers, cli, config, linalg, means, runner, sampling

MODULES = (meancert, cli, config, runner, sampling, linalg, means, certifiers)

#: Spans whose call starts one trial, and so sets the trial label.
TRIAL_SPANS = ("runner.run_trial", "runner._sweep_report")
RUN_SPANS = ("runner.run_verify", "runner.run_sweep")
SERIALIZE_SPANS = (
    "runner.records_to_csv",
    "runner.suite_json",
    "runner.sweep_json",
    "runner.witnesses_json",
    "runner.summary_table",
)
EIG_SPANS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
LAPACK_SPANS = EIG_SPANS + ("numpy.linalg.qr", "numpy.linalg.svd")

#: (owner, attribute) pairs wrapped per layer; module functions are also
#: replaced in every other meancert module that binds the same object.
TARGETS = {
    "cli": [(cli, "main"), (config, "load_config")],
    "runner": [
        (runner, name)
        for name in (
            "run_verify", "run_sweep", "run_trial", "_sweep_report", "summarize",
            "records_to_csv", "suite_json", "sweep_json", "witnesses_json", "summary_table",
        )
    ],
    "sampling": [(sampling.SeedPath, "rng")]
    + [
        (sampling, name)
        for name in (
            "random_spd", "random_ordered_pair", "random_invertible", "random_unitary",
            "sample_params",
        )
    ],
    "linalg": [(linalg.SpdMatrix, "__init__")]
    + [
        (linalg, name)
        for name in (
            "complex_matrix", "eig_hermitian", "inverse", "matrix_power", "loewner_leq",
            "logdet_spd", "det_hermitian", "hs_norm", "default_loewner_tol",
        )
    ]
    + [(np.linalg, name) for name in ("eigh", "eigvalsh", "qr", "svd")],
    "means": [
        (means, name)
        for name in (
            "mat_arith", "mat_harm", "mat_geo", "x_arith", "x_geo", "x_harm",
            "scalar_arith", "scalar_harm", "scalar_geo", "arith_harm_gap", "gap_power_ratio",
        )
    ],
    "certifiers": [(certifiers, name) for name in dir(certifiers) if name.startswith("check_")],
}


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.split('.')[-1]}.{owner.__name__}.{attr}"
    if owner is np.linalg:
        return f"numpy.linalg.{attr}"
    return f"{owner.__name__.split('.')[-1]}.{attr}"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = -1
        self.sweep_calls = 0
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.size = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        names, parents, trials, sizes = self.name, self.parent, self.trial, self.size
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        records_size = name in LAPACK_SPANS  # first argument is the matrix

        if name == "runner.run_trial":
            def set_label(args):
                self.label = self._label_id(f"{args[1]}:{args[2]}")
        elif name == "runner._sweep_report":
            def set_label(args):
                self.label = self._label_id(f"{args[0]}:{self.sweep_calls}")
                self.sweep_calls += 1
        else:
            set_label = None

        def wrapper(*args, **kwargs):
            if set_label is not None:
                set_label(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            trials.append(self.label)
            sizes.append(args[0].shape[-1] if records_size else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def __enter__(self):
        for layer, targets in TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapped = self._wrap(original, _span_name(owner, attr), layer)
                bindings = [(owner, attr)]
                if not isinstance(owner, type):
                    bindings += [
                        (m, key)
                        for m in MODULES
                        for key, value in vars(m).items()
                        if value is original and (m, key) != (owner, attr)
                    ]
                for obj, key in bindings:
                    setattr(obj, key, wrapped)
                    self._undo.append((obj, key, original))
        return self

    def __exit__(self, *exc):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()
        return False

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: str):
        """Write every span (columns) plus the name and label tables."""
        np.savez(path, **self.arrays())
        with open(path + ".names.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.layer_of, "labels": self.labels}, fh)

    def eig_calls_by_label(self) -> dict[str, int]:
        cols = self.arrays()
        eig = np.isin(cols["name"], [self.names.index(n) for n in EIG_SPANS])
        counts = np.bincount(cols["trial"][eig & (cols["trial"] >= 0)], minlength=len(self.labels))
        return dict(zip(self.labels, counts.tolist()))


def _has_ancestor_in(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """For every span, whether some ancestor span is in ``member``."""
    found = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= member[anc[live]]
        anc[live] = parent[anc[live]]


def layer_metrics(tr: Tracer, certifier_ids) -> tuple[dict, dict]:
    """Reduce the spans of one traced ``cli.main`` call to per-layer metrics.

    Returns ``(metrics, trial_spans)``: metrics maps name -> (value, unit),
    and ``trial_spans`` is the number of trial spans recorded.  A metric of a
    layer or certifier the workload never calls reads 0.
    """
    cols = tr.arrays()
    name, parent, trial, size = cols["name"], cols["parent"], cols["trial"], cols["size"]
    dur = (cols["end"] - cols["start"]).astype(np.float64) / 1e3  # microseconds
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    ids = {n: i for i, n in enumerate(tr.names)}
    layer = np.array(tr.layer_of)[name] if name.size else np.array([], dtype=str)

    def mask(*span_names):
        return np.isin(name, [ids[n] for n in span_names])

    def mean_us(span_name):
        m = mask(span_name)
        return float(dur[m].mean()) if m.any() else 0.0

    trial_spans = mask(*TRIAL_SPANS)
    n_trials = int(trial_spans.sum())
    per_trial = 1.0 / max(n_trials, 1)
    run_us = float(dur[mask(*RUN_SPANS)].sum())

    def share(layer_name):
        member = layer == layer_name
        top = member & ~_has_ancestor_in(parent, member)
        return float(dur[top].sum()) / run_us if run_us else 0.0

    out: dict[str, tuple[float, str]] = {}
    trial_dur = dur[trial_spans]
    out["runner.trial_us_p50"] = (float(np.percentile(trial_dur, 50)) if n_trials else 0.0, "us")
    out["runner.trial_us_p99"] = (float(np.percentile(trial_dur, 99)) if n_trials else 0.0, "us")
    trial_ids = np.array([lab.split(":")[0] for lab in tr.labels])[trial[trial_spans]] if n_trials else []
    for cid in certifier_ids:
        sel = trial_ids == cid if n_trials else np.zeros(0, dtype=bool)
        out[f"runner.trial_us.{cid}"] = (float(trial_dur[sel].mean()) if np.any(sel) else 0.0, "us")
    out["runner.self_us_per_trial"] = (float(self_time[trial_spans].sum()) * per_trial, "us")
    out["runner.sweep_self_us_per_trial"] = (
        float(self_time[mask("runner.run_sweep")].sum()) * per_trial, "us"
    )
    main = mask("cli.main")
    child_of_main = has_parent & main[np.maximum(parent, 0)]
    top_serialize = mask(*SERIALIZE_SPANS) & child_of_main
    out["runner.serialize_ms"] = (float(dur[top_serialize].sum()) / 1e3, "ms")
    out["runner.summarize_ms"] = (float(dur[mask("runner.summarize")].sum()) / 1e3, "ms")

    out["sampling.rng_us"] = (mean_us("sampling.SeedPath.rng"), "us")
    for fn in ("random_spd", "random_ordered_pair", "random_invertible", "sample_params"):
        key = "sample_params_us" if fn == "sample_params" else f"{fn}_us"
        out[f"sampling.{key}"] = (mean_us(f"sampling.{fn}"), "us")
    out["sampling.share"] = (share("sampling"), "fraction")
    pairs = int(mask("sampling.random_ordered_pair").sum())
    in_pair = mask("linalg.loewner_leq") & has_parent & (
        name[np.maximum(parent, 0)] == ids["sampling.random_ordered_pair"]
    )
    # random_ordered_pair evaluates its four hypothesis checks once per attempt
    out["sampling.ordered_pair_attempts_per_call"] = (
        int(in_pair.sum()) / 4 / pairs if pairs else 0.0, "count"
    )

    eig = mask(*EIG_SPANS)
    out["linalg.eig_calls_per_trial"] = (int(eig.sum()) * per_trial, "count")
    out["linalg.eig_n3_per_trial"] = (float((size[eig].astype(np.float64) ** 3).sum()) * per_trial, "count")
    out["linalg.lapack_share"] = (float(dur[mask(*LAPACK_SPANS)].sum()) / run_us if run_us else 0.0, "fraction")
    eig_h = mask("linalg.eig_hermitian")
    out["linalg.eig_hermitian_us"] = (mean_us("linalg.eig_hermitian"), "us")
    out["linalg.eig_gate_us"] = (float(self_time[eig_h].mean()) if eig_h.any() else 0.0, "us")
    out["linalg.spd_constructs_per_trial"] = (int(mask("linalg.SpdMatrix.__init__").sum()) * per_trial, "count")
    out["linalg.spd_construct_us"] = (mean_us("linalg.SpdMatrix.__init__"), "us")
    out["linalg.inverse_calls_per_trial"] = (int(mask("linalg.inverse").sum()) * per_trial, "count")
    out["linalg.complex_matrix_calls_per_trial"] = (
        int(mask("linalg.complex_matrix").sum()) * per_trial, "count"
    )

    for fn in ("mat_harm", "mat_geo", "mat_arith", "x_harm", "x_geo"):
        out[f"means.{fn}_us"] = (mean_us(f"means.{fn}"), "us")
    out["means.share"] = (share("means"), "fraction")
    out["certifiers.self_us_per_trial"] = (
        float(self_time[layer == "certifiers"].sum()) * per_trial if n_trials else 0.0, "us"
    )

    runner_children = (layer == "runner") & child_of_main
    out["cli.overhead_ms"] = ((float(dur[main].sum()) - float(dur[runner_children].sum())) / 1e3, "ms")
    return out, n_trials
