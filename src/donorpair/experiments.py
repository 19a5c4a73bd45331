"""Configuration-driven experiment runners with deterministic outputs.

Every runner produces named text artifacts (CSV with stable column order and
LF endings, or JSON) plus a manifest recording the config hash, seed, package
version and per-output checksums. Re-running the same configuration and seed
reproduces identical checksums.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, GridSpec
from .pulses import (
    InitStep,
    PIRSModel,
    bell_prep,
    cz_flip_curve,
    engine_for,
    phase_map,
    phase_map_center_frequency,
    ramsey_trace,
    sigma_from_t2_star,
)
from .spam import (
    MEASURED_AMPLITUDE_RATIO,
    MEASURED_PHASE_OFFSET_RAD,
    compare_fits,
    fit_p_up,
    neutral_rabi_forward,
    phase_reversal_curve,
    read_trace_csv,
    sine_fit,
)
from .spinmodel import SPINS
from .tomography import sequence_table, tomography_pipeline

_NUMBERS = (int, float, np.floating)


def fmt(x) -> str:
    """Text of one CSV cell: numbers as stable 12-significant-digit floats,
    anything else through str."""
    return "%.12g" % x if isinstance(x, _NUMBERS) else str(x)


def csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class RunManifest:
    experiment: str
    config_sha256: str
    seed: int
    version: str
    outputs: dict
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "config_sha256": self.config_sha256,
                "seed": self.seed,
                "version": self.version,
                "outputs": self.outputs,
                "wall_time_s": self.wall_time_s,
            },
            indent=2,
            sort_keys=True,
        )


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(
        {
            "experiment": config.experiment,
            "system": vars(config.system),
            "noise": vars(config.noise),
            "pirs": vars(config.pirs),
            "mode": config.mode,
            "seed": config.seed,
            "options": {
                k: (vars(v) if isinstance(v, GridSpec) else v)
                for k, v in config.options.items()
            },
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run(config: ExperimentConfig, out_dir, workers: int = 1) -> RunManifest:
    """Execute one experiment and write its outputs plus a manifest.

    `workers` is accepted for older callers and ignored: every experiment
    runs in this process.
    """
    del workers
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise PermissionError(f"output directory not writable: {out}") from err

    t0 = time.perf_counter()
    runner = _RUNNERS[config.experiment]
    artifacts = runner(config)
    checksums = {}
    for name, blob in artifacts:
        (out / name).write_bytes(blob)
        checksums[name] = hashlib.sha256(blob).hexdigest()
    manifest = RunManifest(
        experiment=config.experiment,
        config_sha256=_config_hash(config),
        seed=config.seed,
        version=__version__,
        outputs=checksums,
        wall_time_s=time.perf_counter() - t0,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


# ---------------------------------------------------------------------------
# phase maps


def _phase_map_result(config: ExperimentConfig, observables: bool):
    center = config.options["center_mhz"]
    if center == "auto":
        center = phase_map_center_frequency(engine_for(config.system))
    return phase_map(
        config.system,
        center + config.options["freq_offset"].points(),
        config.options["duration"].points(),
        mode=config.mode,
        noise=config.noise,
        observables=observables,
    )


def _grid_csv(name, res, columns: dict):
    """One row per (frequency, duration) point, frequency-major."""
    freqs, durs = np.meshgrid(res.freqs_mhz, res.durations_us, indexing="ij")
    table = np.stack([freqs, durs, *columns.values()], axis=-1)
    header = ["freq_mhz", "duration_us", *columns]
    return (name, csv_bytes(header, table.reshape(-1, len(header)).tolist()))


def _phase_map_csv(res):
    return _grid_csv("phase_map.csv", res, {"p_flip": res.p_flip})


def _observable_csv(res):
    columns = {}
    for s in SPINS:
        columns[f"{s}_x_up"] = res.observables[s]["x"]
        columns[f"{s}_y_up"] = res.observables[s]["y"]
        columns[f"{s}_bloch_norm"] = res.observables[s]["norm"]
    return _grid_csv("spin_observables.csv", res, columns)


def run_phase_map(config: ExperimentConfig):
    res = _phase_map_result(config, config.options.get("observables", False))
    arts = [_phase_map_csv(res)]
    if res.observables:
        arts.append(_observable_csv(res))
    return arts


def run_full_phase_sim(config: ExperimentConfig):
    res = _phase_map_result(config, observables=True)
    return [_observable_csv(res), _phase_map_csv(res)]


# ---------------------------------------------------------------------------
# Bell tomography


def run_bell_tomography(config: ExperimentConfig):
    prep = bell_prep()
    if config.options["spam_spins"] == "electrons":
        prep = [InitStep(spins=("e1", "e2"))] + prep[1:]
        # nuclei start ideally spin-down; electrons carry the loading error
    table = sequence_table(
        config.system, prep, mode=config.mode, noise=config.noise
    )
    est = tomography_pipeline(
        table,
        n_shots_per_axis=config.options["shots_per_axis"],
        n_groups=config.options["groups"],
        n_resamples=config.options["resamples"],
        seed=config.seed,
    )
    zz = table.pairs[("Z", "Z")]
    zz_rows = [(f"{q1}{q2}", zz[2 * q1 + q2]) for q1 in (0, 1) for q2 in (0, 1)]
    return [
        ("bell_density.json", est.to_json().encode() + b"\n"),
        ("zz_probabilities.csv", csv_bytes(("state", "probability"), zz_rows)),
    ]


# ---------------------------------------------------------------------------
# drift, calibration and coherence experiments


def run_pirs_cz(config: ExperimentConfig):
    engine = engine_for(config.system)
    tr = engine.electron_transition("e2", 0, 1)
    turn = 1.0 / (engine.rabi["ESR"] * tr.amplitude)
    n = config.options["max_turns"] * config.options["points_per_turn"] + 1
    durations = np.linspace(0.0, config.options["max_turns"] * turn, n)
    ideal = cz_flip_curve(config.system, durations, pirs=None, mode=config.mode, noise=config.noise)
    pirs = config.pirs
    if not pirs.enabled:
        pirs = PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)
    drift = cz_flip_curve(config.system, durations, pirs=pirs, mode=config.mode, noise=config.noise)
    rows = list(zip(durations, ideal, drift))
    return [
        (
            "pirs_cz.csv",
            csv_bytes(("duration_us", "p_flip_ideal", "p_flip_drift"), rows),
        )
    ]


def run_rabi_spam(config: ExperimentConfig):
    durations = config.options["duration"].points()
    detuning = config.options["detuning_when_up_mhz"]
    if detuning is None:
        detuning = config.system.a2
    rabi = config.options["rabi_mhz"]
    trace = neutral_rabi_forward(config.noise.p_up, durations, rabi, detuning)
    shots = config.options["shots_per_point"]
    if shots > 0:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
        trace = rng.binomial(shots, np.clip(trace, 0, 1)) / shots
    fit = fit_p_up(durations, trace, rabi_mhz=rabi, detuning_when_up_mhz=detuning)
    rows = list(zip(durations, trace))
    report = {
        "p_up_true": config.noise.p_up,
        "p_up_fit": fit.p_up,
        "rabi_mhz": fit.rabi_mhz,
        "residual_rms": fit.residual_rms,
    }
    return [
        ("rabi_trace.csv", csv_bytes(("duration_us", "p_up_proportion"), rows)),
        ("rabi_fit.json", json_bytes(report)),
    ]


def run_phase_reversal(config: ExperimentConfig):
    phis = np.linspace(0.0, 2 * np.pi, config.options["points"], endpoint=False)
    ideal = phase_reversal_curve(0.0, phis, params=config.system)
    distorted = phase_reversal_curve(config.noise.p_up, phis, params=config.system)
    fit_ideal = sine_fit(phis, ideal)
    fit_sim = sine_fit(phis, distorted)
    report = {
        "ideal_fit": vars(fit_ideal),
        "simulation_fit": vars(fit_sim),
        "golden_targets": {
            "phase_offset_rad": MEASURED_PHASE_OFFSET_RAD,
            "amplitude_ratio": MEASURED_AMPLITUDE_RATIO,
        },
    }
    if config.options["data_csv"]:
        x, y, _ = read_trace_csv(config.options["data_csv"])
        fit_data = sine_fit(x, y)
        report["data_fit"] = vars(fit_data)
        report["data_vs_simulation"] = compare_fits(fit_sim, fit_data)
    rows = list(zip(phis, ideal, distorted))
    return [
        (
            "phase_reversal.csv",
            csv_bytes(("phi_rad", "p_up_ideal", "p_up_error_model"), rows),
        ),
        ("phase_reversal_fits.json", json_bytes(report)),
    ]


def run_ramsey(config: ExperimentConfig):
    sigma = config.options["sigma_f_mhz"]
    if sigma is None:
        sigma = sigma_from_t2_star(config.options["t2_star_us"])
    trace = ramsey_trace(
        config.options["spin"],
        config.options["wait"].points(),
        sigma,
        config.options["n_shots"],
        seed=config.seed,
    )
    rows = list(zip(trace.wait_us, trace.p_up, trace.envelope))
    return [
        ("ramsey.csv", csv_bytes(("wait_us", "p_up", "envelope"), rows)),
        (
            "ramsey_fit.json",
            json_bytes({"sigma_f_mhz": sigma, "t2_star_us": trace.t2_star_us}),
        ),
    ]


def donor_distance_fit(points, target_j_mhz: float):
    """Least-squares line on (distance, log j); inverts to the distance at
    the target exchange strength."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("need at least three (distance, exchange) points")
    if np.any(pts[:, 1] <= 0):
        raise ValueError("exchange strengths must be positive")
    slope, intercept = np.polyfit(pts[:, 0], np.log(pts[:, 1]), 1)
    distance = (np.log(target_j_mhz) - intercept) / slope
    return float(distance), float(slope), float(intercept)


def run_donor_distance(config: ExperimentConfig):
    points = config.options["points"]
    if points is None:
        raw = np.loadtxt(config.options["points_csv"], delimiter=",", skiprows=1)
        points = raw[:, :2]
    target = config.options["target_j_mhz"]
    distance, slope, intercept = donor_distance_fit(points, target)
    return [
        (
            "donor_distance.json",
            json_bytes(
                {
                    "target_j_mhz": target,
                    "distance_nm": distance,
                    "log_slope_per_nm": slope,
                    "log_intercept": intercept,
                }
            ),
        )
    ]


_RUNNERS = {
    "phase_map": run_phase_map,
    "full_phase_sim": run_full_phase_sim,
    "bell_tomography": run_bell_tomography,
    "pirs_cz": run_pirs_cz,
    "rabi_spam": run_rabi_spam,
    "phase_reversal": run_phase_reversal,
    "ramsey": run_ramsey,
    "donor_distance_fit": run_donor_distance,
}
