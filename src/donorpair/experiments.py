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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, phase_map_axes
from .pulses import (
    CURVE_CZ,
    InitStep,
    bell_prep,
    cz_flip_curve,
    engine_for,
    phase_map,
    ramsey_trace,
    t2_star_from_sigma,
)
from .spam import (
    MEASURED_AMPLITUDE_RATIO,
    MEASURED_PHASE_OFFSET_RAD,
    compare_fits,
    donor_distance_fit,
    fit_p_up,
    neutral_rabi_forward,
    phase_reversal_curve,
    sine_fit,
)
from .spinmodel import SPINS
from .tomography import sequence_table, tomography_pipeline

# One numeric CSV cell: a stable 12-significant-digit float, in one C-level call.
# Every number in every CSV written here passes through `fmt`, looked up at call
# time, so replacing `experiments.fmt` changes every number; text never reaches it.
fmt = "%.12g".__mod__


def _csv_lines(header, lines) -> bytes:
    """The header, then the already formatted lines; LF-terminated UTF-8."""
    return ("\n".join([",".join(header), *lines]) + "\n").encode("utf-8")


def csv_bytes(header, rows) -> bytes:
    """CSV of `rows` under `header`: `str` cells as they are, numbers through `fmt`."""
    cells = ([x if isinstance(x, str) else fmt(x) for x in row] for row in rows)
    return _csv_lines(header, map(",".join, cells))


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


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _fresh(path: Path) -> Path:
    """`path`, with any file there removed. Outputs are written as new files:
    ext4 flushes a file that was truncated and rewritten when it is closed
    (its replace-via-truncate heuristic), so a rerun into the same directory
    waited on the disk once per output."""
    path.unlink(missing_ok=True)
    return path


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
        _fresh(out / name).write_bytes(blob)
        checksums[name] = hashlib.sha256(blob).hexdigest()
    manifest = RunManifest(
        experiment=config.experiment,
        config_sha256=_config_hash(config),
        seed=config.seed,
        version=__version__,
        outputs=checksums,
        wall_time_s=time.perf_counter() - t0,
    )
    _fresh(out / "manifest.json").write_bytes(json_bytes(asdict(manifest)))
    return manifest


# ---------------------------------------------------------------------------
# phase maps


def _phase_map_result(config: ExperimentConfig):
    freqs, durs = phase_map_axes(config.options, engine_for(config.system))
    return phase_map(
        config.system,
        freqs,
        durs,
        mode=config.mode,
        noise=config.noise,
        observables=config.options["observables"],  # validation sets it for full_phase_sim
    )


def _grid_csv(name, res, columns: dict):
    """One row per (frequency, duration) point, frequency-major.

    Built column by column: each grid axis value (frequency or duration) is
    formatted once by `fmt` and its text repeated down the rows, and each
    value column is formatted by `fmt` in one pass over its flattened
    (frequency, duration) array. Every numeric cell thus goes through `fmt`,
    and the bytes equal those of `csv_bytes` on the float table.
    """
    freqs = np.asarray(res.freqs_mhz, dtype=float).tolist()
    durs = np.asarray(res.durations_us, dtype=float).tolist()
    freq_col = [text for text in map(fmt, freqs) for _ in durs]
    dur_col = list(map(fmt, durs)) * len(freqs)
    n = len(freq_col)
    values = [map(fmt, np.asarray(v, dtype=float).reshape(n).tolist()) for v in columns.values()]
    lines = map(",".join, zip(freq_col, dur_col, *values))
    return (name, _csv_lines(["freq_mhz", "duration_us", *columns], lines))


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
    res = _phase_map_result(config)
    arts = [_phase_map_csv(res)]
    if res.observables:
        arts.append(_observable_csv(res))
    return arts


def run_full_phase_sim(config: ExperimentConfig):
    res = _phase_map_result(config)
    return [_observable_csv(res), _phase_map_csv(res)]


# ---------------------------------------------------------------------------
# Bell tomography


def run_bell_tomography(config: ExperimentConfig):
    prep = bell_prep()
    if config.options["spam_spins"] == "electrons":
        # nuclei stay ideally spin-down; only the electrons carry loading error
        prep[0] = InitStep(("e1", "e2"))
    table = sequence_table(config.system, prep, mode=config.mode, noise=config.noise)
    est = tomography_pipeline(
        table,
        n_shots_per_axis=config.options["shots_per_axis"],
        n_groups=config.options["groups"],
        n_resamples=config.options["resamples"],
        seed=config.seed,
    )
    zz = table[-1]  # the last axis pair of AXIS_PAIRS is ("Z", "Z")
    zz_rows = [(f"{q1}{q2}", zz[2 * q1 + q2]) for q1 in (0, 1) for q2 in (0, 1)]
    return [
        ("bell_density.json", est.to_json().encode() + b"\n"),
        ("zz_probabilities.csv", csv_bytes(("state", "probability"), zz_rows)),
    ]


# ---------------------------------------------------------------------------
# drift, calibration and coherence experiments


def run_pirs_cz(config: ExperimentConfig):
    """`cz_flip_curve` without and with drift over `max_turns` turns of
    `CURVE_CZ`. Only the whole-turn rows compare the modes' selectivity. The
    mid-turn rows differ at any drive, because of the pi/2 readout pulses on
    n1, not the drive: they act with the electron partly excited, which the
    gate model's readout does not see."""
    turn = engine_for(config.system).compile(CURVE_CZ).duration_us
    n = config.options["max_turns"] * config.options["points_per_turn"] + 1
    durations = np.linspace(0.0, config.options["max_turns"] * turn, n)
    ideal = cz_flip_curve(config.system, durations, pirs=None, mode=config.mode, noise=config.noise)
    drift = cz_flip_curve(
        config.system, durations, pirs=config.pirs, mode=config.mode, noise=config.noise
    )
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
        "rabi_mhz": rabi,
        "residual_rms": fit.residual_rms,
    }
    return [
        ("rabi_trace.csv", csv_bytes(("duration_us", "p_up_proportion"), rows)),
        ("rabi_fit.json", json_bytes(report)),
    ]


def run_phase_reversal(config: ExperimentConfig):
    phis = np.linspace(0.0, 2 * np.pi, config.options["points"], endpoint=False)
    ideal = phase_reversal_curve(0.0, phis)
    distorted = phase_reversal_curve(config.noise.p_up, phis)
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
        x, y, _ = np.transpose(config.options["data_csv"])  # the validated rows
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
    sigma, t2 = config.options["sigma_f_mhz"], config.options["t2_star_us"]
    if sigma is None:
        sigma = t2_star_from_sigma(t2)  # the map is its own inverse
    trace = ramsey_trace(
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
            # a configured T2* is echoed as given: a round trip can move its last digit
            json_bytes({"sigma_f_mhz": sigma, "t2_star_us": trace.t2_star_us if t2 is None else t2}),
        ),
    ]


def run_donor_distance(config: ExperimentConfig):
    target = config.options["target_j_mhz"]
    distance, slope, intercept = donor_distance_fit(config.options["points"], target)
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
