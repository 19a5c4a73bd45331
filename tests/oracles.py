"""Reference oracles the tests compare the package against: direct,
per-element formulas for tomography tables and Bloch vectors, the
per-axis-pair replay of a tomography sequence, the per-resample bootstrap
draw, the solid-angle law of the geometric phase, the guarded barycentric
interpolation formula, the dense flip-readout states and projectors, the
gate model's CZ-curve drive on its addressed pair, the locations of the
phase map's paper anchors (the CZ point and the entangling point), and the
shot-by-shot Monte Carlo of a Ramsey fringe.

Also the one tolerance every kernel-oracle comparison takes
(`oracle_tolerance`), and helpers that only tests use: the bits of a
product-basis index (`basis_bits`), the partial trace (`partial_trace`), the
full non-secular static Hamiltonian (`build_static_hamiltonian`) and the
loading state as a kron of per-spin populations (`loading_state`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from donorpair import pulses as pl
from donorpair.linalg import PAULIS, ContractError
from donorpair.spinmodel import SPIN_INDEX, SPINS, pauli_op, spin_half_op
from donorpair.tomography import AXIS_PAIRS, PAULI_LABELS


def basis_bits(index: int) -> tuple[int, int, int, int]:
    """(n1, n2, e1, e2) bits of a product-basis index, 0 = up."""
    return ((index >> 3) & 1, (index >> 2) & 1, (index >> 1) & 1, index & 1)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Trace a 2^n x 2^n matrix down to the qubits in `keep` (order preserved)."""
    rho = np.asarray(rho, dtype=complex)
    dims = (2,) * n_qubits
    t = rho.reshape(dims + dims)
    drop = [q for q in range(n_qubits) if q not in keep]
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def build_static_hamiltonian(p) -> np.ndarray:
    """Full 16x16 static Hamiltonian in MHz, the reference that
    `spinmodel.secular_hamiltonian` truncates: Zeeman terms for both
    species, isotropic hyperfine contact terms a1 S1.I1 + a2 S2.I2 and the
    Heisenberg exchange j S1.S2."""

    def dot(a, b):
        return sum(spin_half_op(a, ax) @ spin_half_op(b, ax) for ax in "xyz")

    h = p.mu_b_over_h * p.b0 * (p.g1 * spin_half_op("e1", "z") + p.g2 * spin_half_op("e2", "z"))
    h += p.gamma_n * p.b0 * (spin_half_op("n1", "z") + spin_half_op("n2", "z"))
    h += p.a1 * dot("e1", "n1")
    h += p.a2 * dot("e2", "n2")
    h += p.j * dot("e1", "e2")
    return h


def loading_state(p_up: float, spins=SPINS) -> np.ndarray:
    """Loading state from its diagonal: the kron, in SPINS order, of each
    spin's (up, down) populations, (p_up, 1 - p_up) for a listed spin and
    (0, 1) for any other."""
    diag = np.ones(1)
    for s in SPINS:
        p = p_up if s in spins else 0.0
        diag = np.kron(diag, np.array([p, 1.0 - p]))
    return np.diag(diag.astype(complex))


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


def nuclear_distribution(rho: np.ndarray) -> dict:
    """Joint Z-basis outcome distribution of the nuclei, {(o1, o2): p} with
    outcome 1 = up, summed index by index over the 16 diagonal entries."""
    probs: dict[tuple, float] = {}
    diag = np.real(np.diag(rho))
    for idx in range(16):
        bits = basis_bits(idx)
        key = (1 - bits[SPIN_INDEX["n1"]], 1 - bits[SPIN_INDEX["n2"]])
        probs[key] = probs.get(key, 0.0) + float(diag[idx])
    return probs


def replayed_sequence_table(params, prep_steps, mode=pl.GATE_MODEL, noise=None, engine=None) -> np.ndarray:
    """(9, 4) table of a preparation by nine full replays, one per axis pair:
    the preparation and the two projection pulses, then a joint nuclear
    readout of the final state by `nuclear_distribution`, with each outcome
    distribution flipped to qubit order (outcome 1 = up = qubit 0), clipped
    at zero and normalized."""
    table = np.zeros((len(AXIS_PAIRS), 4))
    for row, (a1, a2) in enumerate(AXIS_PAIRS):
        steps = [*prep_steps, pl.ProjectStep("n1", a1), pl.ProjectStep("n2", a2)]
        res = pl.run_sequence(steps, params, noise=noise, mode=mode, engine=engine)
        quartet = np.zeros(4)
        for (o1, o2), prob in nuclear_distribution(res.final_state).items():
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


def ramsey_monte_carlo(waits, sigma_f_mhz: float, n_shots: int, seed: int) -> np.ndarray:
    """Up proportion of n_shots Ramsey shots at each wait, shot by shot: each
    shot draws its quasi-static detuning delta ~ N(0, sigma) and reads up
    with probability cos^2(pi delta t); one generator per wait i, from
    SeedSequence([seed, i])."""
    p_up = np.empty(len(waits))
    for i, t in enumerate(waits):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        deltas = rng.normal(0.0, sigma_f_mhz, size=n_shots)
        p_up[i] = np.mean(rng.random(n_shots) < np.cos(np.pi * deltas * t) ** 2)
    return p_up


def geometric_phase_of_drive(delta_f_mhz: float, rabi_mhz: float, n_loops: int) -> float:
    """Solid-angle phase of n closed detuned loops:
    -n pi (1 - |delta| / sqrt(rabi^2 + delta^2))."""
    if rabi_mhz <= 0:
        raise ContractError("rabi frequency must be positive")
    omega = math.hypot(rabi_mhz, delta_f_mhz)
    return -n_loops * math.pi * (1.0 - abs(delta_f_mhz) / omega)


def barycentric(x, nodes, weights) -> np.ndarray:
    """Second-form barycentric coefficients with every node difference
    guarded against zero, and unit rows for an x on a node."""
    diff = x[..., None] - nodes
    hit = diff == 0
    terms = weights / np.where(hit, 1.0, diff)
    c = terms / terms.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit, c)


def dense_flip_readout(engine: pl.SequenceEngine, target: str, mode: str, p_up: float):
    """(starts, projectors) of the consecutive-shot flip readout, matrix by
    matrix: starts[s, b] = O (|nuclei><nuclei| x rho_e) O^dag for each
    spectator state s of nonzero weight and target state b, and
    projectors[b] = O^dag M_b O for the outcome M_b that is a flip from b."""
    pulse = engine.step_unitary(pl.GateStep(target, math.pi / 2, math.pi / 2), mode)
    e_load = pl.spam_mixture(p_up, ("e1", "e2"))[12:, 12:]
    spectators = [s for s, w in ((0, p_up), (1, 1.0 - p_up)) if w != 0.0]
    starts = np.zeros((len(spectators), 2, 16, 16), dtype=complex)
    for i, s in enumerate(spectators):
        for b in (0, 1):
            k = 2 * b + s if target == "n1" else 2 * s + b  # nuclear index 2 n1 + n2
            nuc = np.zeros((4, 4), dtype=complex)
            nuc[k, k] = 1.0
            starts[i, b] = pulse @ np.kron(nuc, e_load) @ pulse.conj().T
    outcome = 1 - pl.spin_bits(target)
    projectors = np.array([pulse.conj().T @ ((outcome == b)[:, None] * pulse) for b in (0, 1)])
    return starts, projectors


def addressed_drive(engine: pl.SequenceEngine, durs, pirs: pl.PIRSModel | None = None) -> np.ndarray:
    """The gate model's `CURVE_CZ` drive at each duration, on the addressed
    pair alone: the line's generalized-Rabi 2x2, with the drift detuning
    its upper level, written on `electron_transition`'s (lo, hi) pair of
    product states, and the identity elsewhere: a (durations, 16, 16)
    stack."""
    tr = engine.electron_transition(pl.CURVE_CZ.electron, pl.CURVE_CZ.n1, pl.CURVE_CZ.n2)
    omega = engine.rabi["ESR"] * tr.amplitude
    h2 = np.array([[0.0, omega / 2], [omega / 2, 0.0]], dtype=complex)
    u2 = pl.sliced_propagators(h2, np.diag([0.0, 1.0]), np.asarray(durs, dtype=float), pirs)
    u = np.tile(np.eye(16, dtype=complex), (len(u2), 1, 1))
    pair = np.array([tr.lo_index, tr.hi_index])
    u[:, pair[:, None], pair[None, :]] = u2
    return u


def oracle_tolerance(h, durs, pirs: pl.PIRSModel | None = None) -> float:
    """Largest entry difference that rounding explains between a kernel's
    propagators of h (MHz; a d x d matrix or a stack) at `durs` (us) under the
    drift `pirs` and an oracle's; a value U rho U^dag carries it twice. With t
    the longest duration, w the largest |eigenvalue| of h plus the drift
    amplitude (the shift operators have unit norm) and d = h.shape[-1]:
    - phases: a duration rounds by eps t (the phase map's giant-step time plus
      a baby-step multiple), moving 2 pi w t by 2 pi t w eps on each side;
    - eigenvectors: each `hermitian_eig` is exact, eigenvalues and vectors
      alike, for a matrix within p eps w of its input; LAPACK's p grows
      modestly with the dimension, taken as d (at d = 16, 7.9 at most measured).
      As E moves exp(-2 pi i h t) by at most 2 pi t ||E||, the kernel's and
      the oracle's add 2 pi t d w eps each. Eigenbasis oracles also decompose
      h_sec for `engine.vectors`, of norm 28 GHz; but h_sec couples only the
      electron flip-flop pairs of each nuclear sector, where the electron
      Zeeman cancels, and returns its other levels as their diagonal entries.
      Assuming those 2 x 2 blocks' norm below w (59 MHz at the defaults),
      p = 2 adds 4 pi t w eps;
    - products: each exponential's V exp(-2 pi i w t) V^dag, slice step and
      product of unitaries rounds an entry by about d eps. A drifting duration
      takes n = max(MIN_SLICES, int(t / SLICE_US)) slices, a step and a
      product each: 2 n d eps on each side, with n = 1 without drift.
    Together: (2 pi t w (2 d + 4) + 4 n d) eps."""
    drift = pirs is not None and pirs.enabled
    w = np.abs(np.linalg.eigvalsh(h)).max() + (pirs.shift_khz / 1e3 if drift else 0.0)
    t, d = float(np.max(durs)), np.shape(h)[-1]
    n = max(pl.MIN_SLICES, int(t / pl.SLICE_US)) if drift else 1
    return np.finfo(float).eps * (2 * math.pi * t * w * (2 * d + 4) + 4 * n * d)


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
