"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest benchmarks/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from donorpair import experiments
from donorpair.config import validate_config

import bench
import checks
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY_GRID = {
    "freq_offset": {"start": -10.0, "stop": 10.0, "count": 3},
    "duration": {"start": 0.0, "stop": 10.0, "count": 4},
}
TINY_OPTIONS = {
    "phase_map_gate": TINY_GRID,
    "phase_sim_full": TINY_GRID,
    "bell_bootstrap": {"shots_per_axis": 200, "groups": 3, "resamples": 100},
    "pirs_drift_full": {"max_turns": 1, "points_per_turn": 4},
}


def tiny(name):
    workload = WORKLOADS[name]
    doc = copy.deepcopy(workload.doc)
    doc["options"] = {**doc.get("options", {}), **TINY_OPTIONS[name]}
    return dataclasses.replace(workload, doc=doc)


def units(spec_section):
    return {m["name"]: m["unit"] for m in spec_section}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name):
    line, report = bench.end_to_end(tiny(name), 0, 0.01, setup_samples=1)
    assert line["correct"] and line["failed"] == 0, report["problems"]
    assert line["attempted"] == 1 + bench.MIN_SAMPLES
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in line["metrics"].values())

    line, report = bench.per_layer(tiny(name), 0, 0.01)
    assert line["correct"], report["problems"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units(SPEC["per_layer"])
    assert report["dominant_layer"] in ("pulses", "linalg", "tomography", "experiments")


def test_corrupted_output_is_a_failure_not_a_crash(monkeypatch):
    monkeypatch.setattr(experiments, "fmt", lambda x: "2")  # every CSV number reads 2
    line, report = bench.end_to_end(tiny("phase_map_gate"), 0, 0.01, setup_samples=1)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 1 + bench.MIN_SAMPLES
    assert any("outside [0, 1]" in p for p in report["problems"])


def test_reference_comparison_uses_its_tolerance(tmp_path):
    workload = tiny("pirs_drift_full")
    doc = workload.config_doc(0)
    config = validate_config(doc)
    manifest = experiments.run(config, tmp_path, workers=1)
    arrays = {f: checks.read_output(tmp_path / f)[1] for f in manifest.outputs}
    assert checks.check_run(config, doc, tmp_path, manifest, (doc, arrays)) == []

    arrays["pirs_cz.csv"][2, 2] += 1e-12  # re-association scale: accepted
    assert checks.check_run(config, doc, tmp_path, manifest, (doc, arrays)) == []
    arrays["pirs_cz.csv"][2, 2] += 1e-8
    problems = checks.check_run(config, doc, tmp_path, manifest, (doc, arrays))
    assert problems and "differ from the reference" in problems[0]


def test_same_seed_gives_identical_counts():
    first, _ = bench.per_layer(tiny("bell_bootstrap"), 7, 0.01)
    second, _ = bench.per_layer(tiny("bell_bootstrap"), 7, 0.01)
    counts = [
        {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}
        for line in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["tomography.resamples"] == 200
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_seed_reaches_config_seed_only(name):
    a, b = WORKLOADS[name].config_doc(0), WORKLOADS[name].config_doc(12345)
    assert {k for k in a if a[k] != b[k]} == {"seed"}
    config_a, config_b = validate_config(a), validate_config(b)
    assert config_b.seed == 12345
    assert dataclasses.replace(config_a, seed=12345) == config_b


def test_recorded_references_match_the_workloads():
    for name, workload in WORKLOADS.items():
        ref_doc, arrays = checks.load_reference(name)
        assert ref_doc == workload.config_doc(0)
        assert all(np.all(np.isfinite(a)) for a in arrays.values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(bench.ROOT / "benchmarks", tmp_path / "benchmarks")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "bell_bootstrap", "--seed", "0", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
