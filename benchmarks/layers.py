"""Per-layer timings, taken by calling each layer's public functions from
outside with the workload's own inputs.

A workload that does not reach a layer still reports it, on a small probe
input built from the workload's system, noise and mode: an 11 x 11 phase-map
grid, a 2-turn drift curve, 200 bootstrap resamples, and 1000-shot x 5-group
Bell tables. The probe sizes are fixed, so each figure compares across
commits on the same workload.
"""

from __future__ import annotations

import json
import statistics
import time
import warnings

import numpy as np

from donorpair import experiments
from donorpair.config import GridSpec, validate_config
from donorpair.linalg import nearest_physical_density, unitary_exp
from donorpair.pulses import (
    MeasureStep,
    PIRSModel,
    ProjectStep,
    PulseSpec,
    PulseStep,
    SequenceEngine,
    bell_prep,
    cz_flip_curve,
    phase_map,
    phase_map_center_frequency,
    run_sequence,
)
from donorpair.tomography import (
    bootstrap_ci,
    concurrence,
    density_from_stokes,
    mean_table,
    sample_table,
    sequence_table,
    stokes_from_probabilities,
)

import checks

PROBE_GRID = (GridSpec(-10.0, 10.0, 11), GridSpec(0.0, 10.0, 11))
PROBE_TURNS, PROBE_POINTS_PER_TURN = 2, 8
PROBE_RESAMPLES = 200
PROBE_SHOTS, PROBE_GROUPS = 1000, 5
# the drift that run_pirs_cz falls back to when the config leaves PIRS off
FALLBACK_PIRS = PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)


def per_call(fn, reps: int = 1, rounds: int = 5) -> float:
    """Median over `rounds` of the mean seconds per call in a batch of `reps`."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def _phase_map_inputs(config, engine):
    opts = config.options
    if config.experiment in ("phase_map", "full_phase_sim"):
        freq_grid, dur_grid = opts["freq_offset"], opts["duration"]
        center, observables = opts["center_mhz"], opts["observables"]
    else:
        (freq_grid, dur_grid), center, observables = PROBE_GRID, "auto", False
    if center == "auto":
        center = phase_map_center_frequency(engine)
    return center + freq_grid.points(), dur_grid.points(), observables


def _drift_inputs(config, engine):
    """Durations and drift model of the pirs_cz runner (or the probe)."""
    if config.experiment == "pirs_cz":
        turns, per_turn = config.options["max_turns"], config.options["points_per_turn"]
    else:
        turns, per_turn = PROBE_TURNS, PROBE_POINTS_PER_TURN
    tr = engine.electron_transition("e2", 0, 1)
    turn = 1.0 / (engine.rabi["ESR"] * tr.amplitude)
    durations = np.linspace(0.0, turns * turn, turns * per_turn + 1)
    pirs = config.pirs if config.pirs.enabled else FALLBACK_PIRS
    return tr, turn, durations, pirs


def _bell_groups(config, table):
    opts = config.options
    if config.experiment == "bell_tomography":
        shots, groups, resamples = opts["shots_per_axis"], opts["groups"], opts["resamples"]
    else:
        shots, groups, resamples = PROBE_SHOTS, PROBE_GROUPS, PROBE_RESAMPLES
    rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, g])) for g in range(groups)]
    return [sample_table(table, shots, rng) for rng in rngs], resamples


def _serialize_seconds(out_dir, output_names) -> float:
    """csv_bytes/json_bytes on the rows and payloads parsed back from a run."""
    parsed = []
    for name in sorted(output_names):
        path = out_dir / name
        if path.suffix == ".csv":
            header, values = checks.read_output(path)
            parsed.append((header, values.tolist()))
        else:
            parsed.append((None, json.loads(path.read_text())))

    def serialize():
        for header, rows in parsed:
            if header is None:
                experiments.json_bytes(rows)
            else:
                experiments.csv_bytes(header, rows)

    return per_call(serialize, rounds=3)


def measure(config, doc, out_dir, output_names) -> dict:
    """Per-layer timings in the units the metric names carry."""
    system, mode, noise = config.system, config.mode, config.noise
    m = {}
    m["config.validate_ms"] = 1e3 * per_call(lambda: validate_config(doc), reps=50)
    m["pulses.engine_build_ms"] = 1e3 * per_call(lambda: SequenceEngine(system), reps=5)
    engine = SequenceEngine(system)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # full-dynamics selectivity warnings

        freqs, durs, obs = _phase_map_inputs(config, engine)

        def pm(f, d):
            return phase_map(system, f, d, mode=mode, noise=noise, observables=obs, engine=engine)

        mid_f, mid_d = freqs[freqs.size // 2 : freqs.size // 2 + 1], durs[durs.size // 2 : durs.size // 2 + 1]
        m["pulses.phase_map.per_point_us"] = 1e6 * per_call(lambda: pm(mid_f, durs), rounds=3) / durs.size
        m["pulses.phase_map.per_freq_us"] = 1e6 * per_call(lambda: pm(freqs, mid_d), rounds=3) / freqs.size
        m["pulses.phase_map_s"] = per_call(lambda: pm(freqs, durs), rounds=1)

        tr, turn, durations, pirs = _drift_inputs(config, engine)
        m["pulses.cz_flip_curve_s"] = per_call(
            lambda: cz_flip_curve(system, durations, pirs=pirs, mode=mode, noise=noise, engine=engine),
            rounds=1,
        )
        pulse = PulseSpec(
            channel="ESR", carrier_mhz=abs(tr.frequency_mhz), rabi_mhz=engine.rabi["ESR"], duration_us=turn
        )
        step = PulseStep(pulse, apply_pirs=True)
        n_slices = max(16, int(turn / 0.05))  # the slicing of SequenceEngine.step_unitary
        m["pulses.pulse_propagator.per_slice_us"] = (
            1e6 * per_call(lambda: engine.step_unitary(step, mode, pirs=pirs), reps=5) / n_slices
        )

        readout = bell_prep() + [ProjectStep("n1", "X"), ProjectStep("n2", "X"), MeasureStep(("n1", "n2"))]
        m["pulses.run_sequence_ms"] = 1e3 * per_call(
            lambda: run_sequence(readout, system, noise=noise, mode=mode, engine=engine), reps=5
        )
        h = engine.free_hamiltonian() + engine.rabi["ESR"] * engine.channel_ops["ESR"][1]
        m["linalg.unitary_exp_us"] = 1e6 * per_call(lambda: unitary_exp(h, 0.05), reps=200)

        m["tomography.sequence_table_ms"] = 1e3 * per_call(
            lambda: sequence_table(system, bell_prep(), mode=mode, noise=noise, engine=engine), reps=2
        )
        table = sequence_table(system, bell_prep(), mode=mode, noise=noise, engine=engine)

    groups, resamples = _bell_groups(config, table)
    pooled = mean_table(groups)
    stokes = stokes_from_probabilities(pooled)
    raw = density_from_stokes(stokes)
    physical = nearest_physical_density(raw)
    m["tomography.mean_table_us"] = 1e6 * per_call(lambda: mean_table(groups), reps=200)
    m["tomography.stokes_from_probabilities_us"] = 1e6 * per_call(
        lambda: stokes_from_probabilities(pooled), reps=200
    )
    m["tomography.density_from_stokes_us"] = 1e6 * per_call(lambda: density_from_stokes(stokes), reps=200)
    m["linalg.nearest_physical_density_us"] = 1e6 * per_call(
        lambda: nearest_physical_density(raw), reps=200
    )
    m["tomography.concurrence_us"] = 1e6 * per_call(lambda: concurrence(physical), reps=200)
    m["tomography.bootstrap_ci.per_resample_us"] = (
        1e6
        * per_call(lambda: bootstrap_ci(groups, resamples, "fidelity", seed=config.seed), rounds=1)
        / resamples
    )
    m["experiments.serialize_s"] = _serialize_seconds(out_dir, output_names)
    return m
