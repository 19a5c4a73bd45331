"""Reference oracles the tests compare the package against: direct,
per-element formulas for tomography tables and Bloch vectors, the
per-axis-pair replay of a tomography sequence, the per-resample bootstrap
draw, the solid-angle law of the geometric phase, and the locations of the
phase map's paper anchors (the CZ point and the entangling point)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from donorpair import pulses as pl
from donorpair.linalg import PAULIS, ContractError
from donorpair.spinmodel import pauli_op
from donorpair.tomography import AXIS_PAIRS, PAULI_LABELS


def bloch_vector(state: np.ndarray, spin: str) -> tuple[float, float, float]:
    """(<X>, <Y>, <Z>) of one spin of a 16-dim pure state or density matrix."""
    rho = np.asarray(state, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    return tuple(float(np.real(np.trace(pauli_op(spin, ax) @ rho))) for ax in "xyz")


def table_from_state(rho4: np.ndarray) -> np.ndarray:
    """Exact (9, 4) outcome probabilities of a two-qubit state in all nine
    bases (the direct-measurement oracle for the linear-inversion round trip)."""
    rho4 = np.asarray(rho4, dtype=complex)
    half = 1 / math.sqrt(2.0)
    eigvecs = {
        "Z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        "X": (np.array([half, half]), np.array([half, -half])),
        "Y": (np.array([half, 1j * half]), np.array([half, -1j * half])),
    }
    table = np.zeros((len(AXIS_PAIRS), 4))
    for row, (a1, a2) in enumerate(AXIS_PAIRS):
        for q1 in (0, 1):
            for q2 in (0, 1):
                proj = np.kron(eigvecs[a1][q1], eigvecs[a2][q2])
                table[row, 2 * q1 + q2] = float(np.real(proj.conj() @ rho4 @ proj))
    return table


def replayed_sequence_table(params, prep_steps, mode=pl.GATE_MODEL, noise=None, engine=None) -> np.ndarray:
    """(9, 4) table of a preparation by nine full replays, one per axis pair:
    the preparation, the two projection pulses and a joint nuclear readout,
    with each outcome distribution flipped to qubit order (outcome 1 = up =
    qubit 0), clipped at zero and normalized."""
    table = np.zeros((len(AXIS_PAIRS), 4))
    for row, (a1, a2) in enumerate(AXIS_PAIRS):
        tail = [pl.ProjectStep("n1", a1), pl.ProjectStep("n2", a2), pl.MeasureStep(("n1", "n2"))]
        steps = [*prep_steps, *tail]
        res = pl.run_sequence(steps, params, noise=noise, mode=mode, shots=0, engine=engine)
        quartet = np.zeros(4)
        for (o1, o2), prob in res.outcome_probabilities.items():
            quartet[2 * (1 - o1) + (1 - o2)] = max(prob, 0.0)
        table[row] = quartet / quartet.sum()
    return table


def resample_counts(n_groups: int, n_resamples: int, seed: int) -> np.ndarray:
    """(n_resamples, n_groups) counts of the group indices each bootstrap
    resample k draws, one generator per resample:
    default_rng(SeedSequence([seed, k])).integers(0, n_groups, size=n_groups)."""
    counts = np.zeros((n_resamples, n_groups), dtype=np.int64)
    for k in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        counts[k] = np.bincount(rng.integers(0, n_groups, size=n_groups), minlength=n_groups)
    return counts


def geometric_phase_of_drive(delta_f_mhz: float, rabi_mhz: float, n_loops: int) -> float:
    """Solid-angle phase of n closed detuned loops:
    -n pi (1 - |delta| / sqrt(rabi^2 + delta^2))."""
    if rabi_mhz <= 0:
        raise ContractError("rabi frequency must be positive")
    omega = math.hypot(rabi_mhz, delta_f_mhz)
    return -n_loops * math.pi * (1.0 - abs(delta_f_mhz) / omega)


def stokes_of_density(rho4: np.ndarray) -> np.ndarray:
    """Direct S_ab = Tr[(sigma_a (x) sigma_b) rho]."""
    rho4 = np.asarray(rho4, dtype=complex)
    s = np.zeros((4, 4))
    for ia, a in enumerate(PAULI_LABELS):
        for ib, b in enumerate(PAULI_LABELS):
            s[ia, ib] = float(np.real(np.trace(np.kron(PAULIS[a], PAULIS[b]) @ rho4)))
    return s


@dataclass(frozen=True)
class PhaseMapAnchors:
    """Nominal special points of the swept-electron-pulse map: the full-turn
    conditional-phase point on the electron-1 down-up line and the
    half-rotation point on the hybridized down-down line (where both
    electrons rotate, at the bare single-electron pi time)."""

    cz_freq_mhz: float
    cz_duration_us: float
    entangle_freq_mhz: float
    entangle_duration_us: float


def phase_map_anchors(engine: pl.SequenceEngine) -> PhaseMapAnchors:
    tr_cz = engine.electron_transition("e1", 1, 0)
    tr_hyb = engine.electron_transition("e1", 1, 1)
    rabi = engine.rabi["ESR"]
    return PhaseMapAnchors(
        cz_freq_mhz=abs(tr_cz.frequency_mhz),
        cz_duration_us=1.0 / (rabi * tr_cz.amplitude),
        entangle_freq_mhz=abs(tr_hyb.frequency_mhz),
        # near-degenerate two-rung ladder: each electron rotates pi in the
        # bare pi time, independent of the pair-element enhancement
        entangle_duration_us=1.0 / (2.0 * rabi),
    )


def calibrate_point(
    params,
    freq_mhz: float,
    duration_us: float,
    metric: str = "p_flip",
    span_mhz: float = 0.1,
    span_us: float = 0.1,
    steps: int = 9,
) -> tuple[float, float, float]:
    """Refine a nominal map point against AC level shifts, as the experiment
    does when re-tuning onto the driven resonance: minimize the gate-model
    metric ("p_flip" or the n2 Bloch "norm") over a small neighborhood.
    Returns (freq, duration, metric value)."""
    freqs = np.linspace(freq_mhz - span_mhz, freq_mhz + span_mhz, steps)
    durs = np.linspace(max(duration_us - span_us, 0.0), duration_us + span_us, steps)
    res = pl.phase_map(params, freqs, durs, observables=(metric != "p_flip"))
    grid = res.p_flip if metric == "p_flip" else res.observables["n2"]["norm"]
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    return float(freqs[i]), float(durs[j]), float(grid[i, j])
