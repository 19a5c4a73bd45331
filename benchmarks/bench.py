"""Measurement loops of the benchmark: untraced end-to-end runs, cold-start
set-up, per-layer timings and the traced run.

All load comes from this one process with `workers=1`; the set-up samples are
fresh interpreters started one at a time.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from donorpair import experiments
from donorpair.config import validate_config

import checks
import layers
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".bench_out"
MIN_SAMPLES = 3
SELECTIVITY_TEXT = "exceeds a quarter of the"

# The host's CPU speed drifts by up to 1.9x over minutes (a fixed 16x16 eigh
# loop on a 2-vCPU Intel Xeon host ran 96-188 ms per batch), which moves
# whole runs. The median wall time of a run is therefore scaled by
# REFERENCE_S over the mean time of a fixed calibration kernel, timed in short
# chunks before the first sample and after each one: run_s is in
# reference-speed seconds, and the raw wall times go in the report. On ten
# seeds per workload the spread of run_s between runs, as quartile distance
# over median, was 0.04-0.11 scaled against 0.05-0.17 raw.
CALIBRATION_REPS = 1000
CALIBRATION_CHUNKS = 3
CALIBRATION_REFERENCE_S = 0.1

# what a user waits for before the first experiment can start
SETUP_CODE = """
import json, sys
import donorpair.cli, donorpair.experiments
from donorpair.config import validate_config
from donorpair.pulses import SequenceEngine
SequenceEngine(validate_config(json.loads(sys.argv[1])).system)
"""


@dataclass
class RunRecord:
    seconds: float
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    output_bytes: int = 0


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_seconds() -> float:
    """Wall time of the calibration kernel: 16x16 eigendecompositions and
    propagator products driven from Python, the workloads' instruction mix."""
    h = np.random.default_rng(0).standard_normal((16, 16, 2)) @ np.array([1.0, 1j])
    h = h + h.conj().T
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        w, v = np.linalg.eigh(h)
        (v * np.exp(-0.1j * w)) @ v.conj().T
    return time.perf_counter() - t0


class CalibratedSamples:
    """Raw sample times, with calibration-kernel times before the first
    sample and after each one."""

    def __init__(self):
        self.raw = []
        self.calibration = []
        self._calibrate()

    def _calibrate(self) -> None:
        self.calibration += [calibration_seconds() for _ in range(CALIBRATION_CHUNKS)]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._calibrate()

    def scaled_median(self) -> float:
        return statistics.median(self.raw) * CALIBRATION_REFERENCE_S / statistics.mean(self.calibration)

    def report(self) -> dict:
        return {
            "scaled_median": self.scaled_median(),
            "raw": {**quartiles(self.raw), "values": self.raw},
            "calibration_s": self.calibration,
        }


def measure_setup(doc: dict, samples: int) -> list:
    """Wall seconds of `samples` cold starts, after one unrecorded start that
    fills the bytecode cache. Not scaled: a cold start is mostly file reads
    and unmarshalling, which the calibration kernel does not track."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(doc)]
    times = []
    for _ in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times[1:]


def run_once(config, doc, out_dir, reference, tracer=None) -> RunRecord:
    """One `experiments.run`, timed; its outputs are checked after the clock
    stops. A run that raises or fails the check is recorded, not fatal."""
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    manifest = None
    with warnings.catch_warnings(record=True) as caught, traced:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            manifest = experiments.run(config, out_dir, workers=1)
        except Exception as err:  # noqa: BLE001 - counted as a failed run
            problems = [f"run raised {type(err).__name__}: {err}"]
        elapsed = time.perf_counter() - t0
    rec = RunRecord(elapsed, warnings=[str(w.message) for w in caught])
    if manifest is None:
        rec.problems = problems
        return rec
    try:
        rec.problems = checks.check_run(config, doc, out_dir, manifest, reference)
    except Exception as err:  # noqa: BLE001 - a check that cannot run is a failure
        rec.problems = [f"output check raised {type(err).__name__}: {err}"]
    rec.outputs = sorted(manifest.outputs)
    rec.output_bytes = sum((Path(out_dir) / name).stat().st_size for name in rec.outputs)
    return rec


class Session:
    """One benchmark invocation: a workload at a seed, with its outputs in a
    private directory under .bench_out that is removed at the end."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.doc = workload.config_doc(seed)
        self.config = validate_config(self.doc)
        self.reference = checks.load_reference(workload.name)
        self.records = []
        self.dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
        self.out_dir = self.dir / "run"

    def __enter__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, tracer=None) -> RunRecord:
        rec = run_once(self.config, self.doc, self.out_dir, self.reference, tracer)
        self.records.append(rec)
        return rec

    def result(self, metrics: dict, report: dict) -> tuple[dict, dict]:
        failed = sum(1 for r in self.records if r.problems)
        texts = collections.Counter(w for r in self.records for w in r.warnings)
        report = {
            "workload": self.workload.name,
            "config": self.doc,
            "error_ratio": failed / len(self.records),
            "problems": sorted({p for r in self.records for p in r.problems})[:20],
            "warnings_per_run": {t: n / len(self.records) for t, n in texts.items()},
            "environment": environment(),
            **report,
        }
        line = {
            "correct": failed == 0,
            "attempted": len(self.records),
            "failed": failed,
            "metrics": metrics,
        }
        return line, report


def end_to_end(workload, seed: int, seconds: float, setup_samples: int = 4):
    """Untraced runs: run_s, work_per_s, setup_s and peak_rss_mb."""
    with Session(workload, seed) as s:
        setup = measure_setup(s.doc, setup_samples)
        s.run()  # warm-up: fills caches, checked like every run
        samples = CalibratedSamples()
        t_start = time.perf_counter()
        while len(samples.raw) < MIN_SAMPLES or time.perf_counter() - t_start < seconds:
            samples.add(s.run().seconds)
        run_s = samples.scaled_median()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "work_per_s": {"value": workloads.work_items(s.config) / run_s, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        report = {
            "run_s": samples.report(),
            "setup_s": {**quartiles(setup), "values": setup},
            "work_items": workloads.work_items(s.config),
        }
        return s.result(metrics, report)


def per_layer(workload, seed: int, seconds: float):
    """Layer timings from outside, then alternating untraced and traced runs
    for self times, call counts and the tracing overhead."""
    with Session(workload, seed) as s:
        warm = s.run()
        timings = layers.measure(s.config, s.doc, s.out_dir, warm.outputs)
        tracer = tracing.Tracer()
        plain, traced = [], []
        t_start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - t_start < seconds:
            plain.append(s.run().seconds)
            tracer.run_id += 1
            traced.append(s.run(tracer))
        ids = range(1, tracer.run_id + 1)
        self_s = {
            layer: statistics.median(tracing.layer_self_times(tracer.spans, i)[layer] for i in ids)
            for layer in tracing.LAYERS
        }
        total = sum(self_s.values())
        calls = tracing.call_counts(tracer.spans, 1)
        OUT_ROOT.mkdir(exist_ok=True)
        tracer.dump(OUT_ROOT / f"spans-{workload.name}-seed{seed}.json")

        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in timings.items()}
        counts = {
            "pulses.grid_points": workloads.grid_points(s.config),
            "tomography.resamples": workloads.resamples(s.config),
            "pulses.selectivity_warnings": sum(SELECTIVITY_TEXT in w for w in traced[0].warnings),
            "experiments.output_bytes": warm.output_bytes,
        }
        for name, n in counts.items():
            metrics[name] = {"value": n, "unit": "count"}
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = {"value": self_s[layer], "unit": "s"}
            metrics[f"{layer}.self_frac"] = {"value": self_s[layer] / total, "unit": "fraction"}
        for name, n in calls.items():
            metrics[f"{name}.calls"] = {"value": n, "unit": "count"}
        # each traced run against the untraced run just before it, so that a
        # drift in host speed between pairs cancels
        overhead = statistics.median(r.seconds / p for r, p in zip(traced, plain)) - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "fraction"}
        report = {
            "dominant_layer": max(self_s, key=self_s.get),
            "predicted_dominant_layer": workload.dominant_layer,
            "untraced_run_s": quartiles(plain),
            "traced_run_s": quartiles([r.seconds for r in traced]),
            "spans_per_run": len(tracer.spans) / len(traced),
        }
        return s.result(metrics, report)


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)
