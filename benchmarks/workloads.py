"""The benchmark's workloads: fixed experiment configs run through
`donorpair.experiments.run`.

Every workload sets the calibrated loading error p_up = 0.14. With p_up = 0
the phase-map kernel skips the n1-up branch and does half the work, so the
ROADMAP's older p_up = 0 timings are not comparable with these.

The workload seed reaches `config.seed` and nothing else. Only the Bell
bootstrap draws random numbers; the other three workloads give the same
outputs on every seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

P_UP = 0.14


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict  # config document, without the seed
    dominant_layer: str  # predicted largest self time in the traced run

    def config_doc(self, seed: int) -> dict:
        doc = copy.deepcopy(self.doc)
        doc["seed"] = seed
        return doc


def work_items(config) -> int:
    """Work done by one run: grid points for the phase maps, bootstrap
    resamples x statistics for Bell, drift-curve durations for PIRS."""
    opts = config.options
    if config.experiment in ("phase_map", "full_phase_sim"):
        return opts["freq_offset"].count * opts["duration"].count
    if config.experiment == "bell_tomography":
        return opts["resamples"] * 2  # fidelity and concurrence
    if config.experiment == "pirs_cz":
        return opts["max_turns"] * opts["points_per_turn"] + 1
    raise ValueError(f"no work-item count for {config.experiment}")


def grid_points(config) -> int:
    """Points evaluated by `phase_map` and `cz_flip_curve` in one run."""
    if config.experiment in ("phase_map", "full_phase_sim"):
        return work_items(config)
    if config.experiment == "pirs_cz":
        return 2 * work_items(config)  # ideal and drift curves
    return 0


def resamples(config) -> int:
    """Bootstrap resamples x statistics drawn in one run."""
    return work_items(config) if config.experiment == "bell_tomography" else 0


WORKLOADS = {
    w.name: w
    for w in (
        # per-point kron propagation and readout inside pulses.phase_map;
        # reaches neither tomography nor the sliced unitary_exp
        Workload(
            "phase_map_gate",
            {
                "experiment": "phase_map",
                "mode": "GATE_MODEL",
                "noise": {"p_up": P_UP},
                "options": {"observables": False},
            },
            "pulses",
        ),
        # the same layer another way: full-Hamiltonian eigh per frequency,
        # Bloch observables of all four spins and two ~5k-row CSVs
        Workload(
            "phase_sim_full",
            {
                "experiment": "full_phase_sim",
                "mode": "FULL_DYNAMICS",
                "noise": {"p_up": P_UP},
                "options": {
                    "freq_offset": {"start": -10.0, "stop": 10.0, "count": 51},
                    "duration": {"start": 0.0, "stop": 10.0, "count": 101},
                },
            },
            "pulses",
        ),
        # tomography.bootstrap_ci: reconstruction and projection per resample
        Workload(
            "bell_bootstrap",
            {
                "experiment": "bell_tomography",
                "mode": "GATE_MODEL",
                "noise": {"p_up": P_UP},
                "options": {"shots_per_axis": 1000, "groups": 5, "resamples": 1000},
            },
            "tomography",
        ),
        # sliced pulse_propagator: ~49k 16x16 linalg.unitary_exp calls under
        # the fallback drift (120 kHz, 3 us); raises 386 selectivity warnings
        Workload(
            "pirs_drift_full",
            {
                "experiment": "pirs_cz",
                "mode": "FULL_DYNAMICS",
                "noise": {"p_up": P_UP},
                "options": {"max_turns": 12, "points_per_turn": 16},
            },
            "linalg",
        ),
    )
}
