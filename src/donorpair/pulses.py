"""Rotating-frame pulse-sequence engine for the four-spin system.

Two simulation modes:

* ``GATE_MODEL`` - labeled gates are exact conditioned SU(2) rotations on
  product-basis pairs (identity elsewhere); raw swept pulses evolve under the
  rotating-frame Hamiltonian truncated to the allowed-transition graph.
* ``FULL_DYNAMICS`` - every step evolves under the full rotating-frame
  Hamiltonian (secular static part, frame term, rotating-wave drive), so
  cross-talk, AC shifts and unintended transitions are included.

Frame bookkeeping: the engine state lives in a frame co-rotating with each
nucleus at its electron-down resonance and with the electrons at the active
microwave carrier. Those generators commute with the secular Hamiltonian, so
the frame change is exact. Nuclear pulses must run on their reference carrier
(all sequences here do); the electron carrier is free per pulse because the
protocols never carry electron coherence between pulses.

Drive normalization: ``rabi_frequency`` is the on-resonance Rabi frequency of
a bare (unhybridized) transition, i.e. the two-level reduction of the drive is
(rabi/2) sigma_x and a 2*pi rotation takes 1/rabi microseconds.

Shot records encode outcomes with 1 = measured spin up, 0 = spin down (the
up-proportion convention); note computational labels use |0> = up.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .linalg import ContractError, hermitian_eig, unitary_exp
from .spinmodel import (
    ELECTRONS,
    NUCLEI,
    SPINS,
    SPIN_INDEX,
    SystemParams,
    basis_bits,
    basis_index,
    pauli_op,
    secular_hamiltonian,
)

GATE_MODEL = "GATE_MODEL"
FULL_DYNAMICS = "FULL_DYNAMICS"
MODES = (GATE_MODEL, FULL_DYNAMICS)

DEFAULT_RABI_ELECTRON_MHZ = 0.5
DEFAULT_RABI_NUCLEAR_MHZ = 0.01

# pairs with |<f| sum sigma_x |i>| above this drive in the truncated model
GATE_PAIR_THRESHOLD = 0.02


# ---------------------------------------------------------------------------
# declarative steps and error-model carriers


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular drive pulse. Frequencies in MHz, duration in us."""

    channel: str  # "ESR" | "NMR"
    carrier_mhz: float
    rabi_mhz: float
    duration_us: float
    detuning_mhz: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self):
        if self.channel not in ("ESR", "NMR"):
            raise ContractError(f"unknown channel {self.channel!r}")
        if self.duration_us < 0:
            raise ContractError("pulse duration must be non-negative")
        if self.rabi_mhz < 0:
            raise ContractError("rabi frequency must be non-negative")


@dataclass(frozen=True)
class PIRSModel:
    """Drive-induced resonance drift: exponential approach to shift_khz while
    a radio-frequency drive is active, exponential relaxation to zero
    otherwise, both with the same time constant."""

    shift_khz: float = 0.0
    time_constant_us: float = 100.0
    enabled: bool = False
    accumulated_khz: float = 0.0

    def __post_init__(self):
        if self.shift_khz < 0:
            raise ContractError("shift amplitude must be non-negative")
        if self.time_constant_us <= 0:
            raise ContractError("time constant must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static per-spin detuning spread and spin-up loading probability."""

    sigma_f_mhz: float = 0.0
    p_up: float = 0.0

    def __post_init__(self):
        if self.sigma_f_mhz < 0:
            raise ContractError("sigma_f must be non-negative")
        if not 0.0 <= self.p_up <= 0.5:
            raise ContractError("p_up must lie in [0, 0.5]")


@dataclass(frozen=True)
class ShotRecord:
    shot_index: int
    outcomes: dict
    rng_stream_id: int


@dataclass(frozen=True)
class InitStep:
    """Reset spins to spin-down, each erring to spin-up with probability p_up."""

    spins: tuple = SPINS


@dataclass(frozen=True)
class GateStep:
    """Rotation R(theta, phase) of one nucleus, conditional on its own
    electron being spin-down. R(theta, phi) = exp(-i theta/2 (cos(phi) X
    - sin(phi) Y)); phi = +pi/2 is a -Y rotation, phi = -pi/2 a +Y one."""

    spin: str
    theta: float
    phase: float = 0.0


@dataclass(frozen=True)
class CzStep:
    """Integer number of full electron rotations on one electron, conditional
    on a nuclear sector and on the other electron being spin-down. Each full
    turn imparts a geometric pi phase on the conditioned sector."""

    electron: str
    n1: int  # 0 = up, 1 = down
    n2: int
    turns: int = 1


@dataclass(frozen=True)
class PulseStep:
    pulse: PulseSpec
    apply_pirs: bool = False


@dataclass(frozen=True)
class IdleStep:
    duration_us: float


@dataclass(frozen=True)
class ProjectStep:
    """Map the X or Y component of one nucleus onto Z before readout:
    X via a pi/2 rotation about -Y, Y via a pi/2 rotation about +X."""

    spin: str
    axis: str


@dataclass(frozen=True)
class MeasureStep:
    spins: tuple


def projection_gate(spin: str, axis: str) -> GateStep:
    """Projection pulse as a conditioned nuclear gate (Z means no pulse)."""
    axis = axis.upper()
    if axis == "X":
        return GateStep(spin, math.pi / 2, math.pi / 2)  # -Y axis
    if axis == "Y":
        return GateStep(spin, math.pi / 2, 0.0)  # +X axis
    raise ContractError(f"projection pulse undefined for axis {axis!r}")


def rot2(theta: float, phase: float) -> np.ndarray:
    """Two-level rotation in the (up, down) basis."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = np.exp(1j * phase)
    return np.array([[c, -1j * e * s], [-1j * np.conj(e) * s, c]])


def rotating_frame_hamiltonian(
    h_static: np.ndarray,
    pulse: PulseSpec,
    ops: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Rotating-wave Hamiltonian H - f Z + rabi (cos(phi) X + sin(phi) Y).

    `ops` are the summed spin-1/2 operators (Z, X, Y) of the driven species;
    counter-rotating drive terms are dropped. On resonance the two-level
    reduction is (rabi/2) sigma_x.
    """
    z, x, y = ops
    f = pulse.carrier_mhz + pulse.detuning_mhz
    drive = pulse.rabi_mhz * (
        math.cos(pulse.phase_rad) * x + math.sin(pulse.phase_rad) * y
    )
    return h_static - f * z + drive


# ---------------------------------------------------------------------------
# engine


@dataclass(frozen=True)
class Transition:
    """One addressable line: signed frequency (MHz), the product-basis pair
    (low index, high index), eigenlevel pair, and drive amplitude in units of
    a bare transition."""

    frequency_mhz: float
    lo_index: int
    hi_index: int
    lo_level: int
    hi_level: int
    amplitude: float


class SequenceEngine:
    """Eigenstructure cache and propagator factory for one parameter set."""

    def __init__(
        self,
        params: SystemParams,
        rabi_electron_mhz: float = DEFAULT_RABI_ELECTRON_MHZ,
        rabi_nuclear_mhz: float = DEFAULT_RABI_NUCLEAR_MHZ,
    ):
        self.params = params
        self.rabi = {"ESR": rabi_electron_mhz, "NMR": rabi_nuclear_mhz}

        self.h_sec = secular_hamiltonian(params)
        self.energies, self.vectors = hermitian_eig(self.h_sec)

        self._pauli = {
            (spin, ax): pauli_op(spin, ax) for spin in SPINS for ax in "xyz"
        }
        self.channel_ops = {
            "ESR": tuple(
                sum(self._pauli[(e, ax)] for e in ELECTRONS) / 2 for ax in "zxy"
            ),
            "NMR": tuple(
                sum(self._pauli[(n, ax)] for n in NUCLEI) / 2 for ax in "zxy"
            ),
        }

        v = self.vectors
        self._zdiag = {
            spin: np.rint(np.real(np.diag(v.conj().T @ self._pauli[(spin, "z")] @ v)))
            for spin in SPINS
        }
        # eigenlevel lookup by dominant product component
        self._level_of = {
            int(np.argmax(np.abs(v[:, k]) ** 2)): k for k in range(16)
        }
        self._drive_x = {
            ch: v.conj().T @ (2 * self.channel_ops[ch][1]) @ v for ch in ("ESR", "NMR")
        }
        self._gate_mask = {
            ch: np.abs(self._drive_x[ch]) > GATE_PAIR_THRESHOLD for ch in ("ESR", "NMR")
        }

        # standing frame references: nuclei at their electron-down lines,
        # electrons default to the bare Zeeman mean
        self.f_n1_ref = self.nuclear_transition("n1").frequency_mhz
        self.f_n2_ref = self.nuclear_transition("n2").frequency_mhz
        self.f_e_default = (
            params.mu_b_over_h * params.b0 * (params.g1 + params.g2) / 2
        )

    # -- level bookkeeping ---------------------------------------------------

    def level(self, n1: int, n2: int, e1: int, e2: int) -> int:
        """Eigenlevel whose dominant component is |n1 n2 e1 e2>."""
        return self._level_of[basis_index(n1, n2, e1, e2)]

    def nuclear_transition(self, spin: str, spectators=None) -> Transition:
        """Flip of one nucleus with every other spin down (signed gap)."""
        bits = [1, 1, 1, 1] if spectators is None else list(spectators)
        q = SPIN_INDEX[spin]
        hi_bits, lo_bits = list(bits), list(bits)
        hi_bits[q], lo_bits[q] = 0, 1  # up vs down target
        lo_l, hi_l = self.level(*lo_bits), self.level(*hi_bits)
        freq = self.energies[hi_l] - self.energies[lo_l]
        amp = abs(self._drive_x["NMR"][hi_l, lo_l])
        return Transition(
            float(freq), basis_index(*lo_bits), basis_index(*hi_bits), lo_l, hi_l, float(amp)
        )

    def electron_transition(self, electron: str, n1: int, n2: int) -> Transition:
        """Flip of one electron conditional on the nuclear sector, with the
        other electron down."""
        bits_lo = [n1, n2, 1, 1]
        bits_hi = list(bits_lo)
        bits_hi[SPIN_INDEX[electron]] = 0
        lo_l, hi_l = self.level(*bits_lo), self.level(*bits_hi)
        freq = self.energies[hi_l] - self.energies[lo_l]
        amp = abs(self._drive_x["ESR"][hi_l, lo_l])
        return Transition(
            float(freq),
            basis_index(*bits_lo),
            basis_index(*bits_hi),
            lo_l,
            hi_l,
            float(amp),
        )

    # -- exact gate-model unitaries -------------------------------------------

    def gate_unitary(self, step: GateStep) -> np.ndarray:
        """Exact SU(2) on the target nucleus wherever its electron is down."""
        q = SPIN_INDEX[step.spin]
        own_e = "e" + step.spin[-1]
        qe = SPIN_INDEX[own_e]
        r = rot2(step.theta, step.phase)
        u = np.eye(16, dtype=complex)
        for idx in range(16):
            bits = basis_bits(idx)
            if bits[q] == 0 and bits[qe] == 1:  # target up, own electron down
                partner = idx | (1 << (3 - q))
                u[idx, idx] = r[0, 0]
                u[partner, partner] = r[1, 1]
                u[idx, partner] = r[0, 1]
                u[partner, idx] = r[1, 0]
        return u

    def cz_unitary(self, step: CzStep) -> np.ndarray:
        """(-1)^turns on the conditioned electron pair, identity elsewhere."""
        qe = SPIN_INDEX[step.electron]
        other = "e2" if step.electron == "e1" else "e1"
        qo = SPIN_INDEX[other]
        u = np.eye(16, dtype=complex)
        sign = (-1.0) ** step.turns
        for idx in range(16):
            bits = basis_bits(idx)
            if bits[0] == step.n1 and bits[1] == step.n2 and bits[qo] == 1:
                u[idx, idx] = sign
        return u

    # -- pulse propagators -----------------------------------------------------

    def _frame_diag(self, f_e: float) -> np.ndarray:
        return (
            self.f_n1_ref * self._zdiag["n1"]
            + self.f_n2_ref * self._zdiag["n2"]
            + f_e * (self._zdiag["e1"] + self._zdiag["e2"])
        ) / 2.0

    def _frame_op(self, f_e: float) -> np.ndarray:
        v = self.vectors
        return (v * self._frame_diag(f_e)) @ v.conj().T

    def free_hamiltonian(self, f_e: float | None = None, offsets=None) -> np.ndarray:
        """Frame-stripped static Hamiltonian, optionally with per-spin
        quasi-static detuning offsets (MHz, added along each spin's Z)."""
        f_e = self.f_e_default if f_e is None else f_e
        h = self.h_sec - self._frame_op(f_e)
        if offsets:
            for spin, delta in offsets.items():
                h = h + delta * self._pauli[(spin, "z")] / 2.0
        return h

    def _pulse_frame(self, pulse: PulseSpec):
        """Per-pulse frame frequencies (f_n1, f_n2, f_e, signed) plus the
        diagonal that re-aligns nuclear phases to the standing frame.

        A radio pulse rotates both nuclei at its own carrier so the drive is
        static with the physical detunings; the re-alignment factor
        exp(+i 2 pi Delta t) restores the standing per-nucleus references
        afterwards. Electron transverse phases are reported in the active
        carrier frame (no protocol carries electron coherence across pulses).
        """
        f = pulse.carrier_mhz + pulse.detuning_mhz
        if pulse.channel == "NMR":
            s = -1.0 if self.f_n1_ref < 0 else 1.0
            fn1 = fn2 = s * f
            fe = self.f_e_default
        else:
            fn1, fn2 = self.f_n1_ref, self.f_n2_ref
            fe = f
        realign = (
            (self.f_n1_ref - fn1) * np.diag(self._pauli[("n1", "z")]).real
            + (self.f_n2_ref - fn2) * np.diag(self._pauli[("n2", "z")]).real
        ) / 2.0
        return fn1, fn2, fe, realign

    def _frame_diag_custom(self, fn1: float, fn2: float, fe: float) -> np.ndarray:
        return (
            fn1 * self._zdiag["n1"]
            + fn2 * self._zdiag["n2"]
            + fe * (self._zdiag["e1"] + self._zdiag["e2"])
        ) / 2.0

    def pulse_propagator(
        self,
        pulse: PulseSpec,
        mode: str,
        shift_profile=None,
        n_slices: int = 1,
        offsets=None,
    ) -> np.ndarray:
        """Unitary of one rectangular pulse, in the product basis and the
        standing frame.

        `shift_profile(t_us)` gives a resonance drift in MHz applied along the
        driven species' Z axis, integrated piecewise over `n_slices`.
        """
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}")
        self._check_selectivity(pulse, mode)
        fn1, fn2, fe, realign = self._pulse_frame(pulse)

        _, x_op, y_op = self.channel_ops[pulse.channel]
        drive = pulse.rabi_mhz * (
            math.cos(pulse.phase_rad) * x_op + math.sin(pulse.phase_rad) * y_op
        )

        v = self.vectors
        frame = self._frame_diag_custom(fn1, fn2, fe)
        if mode == FULL_DYNAMICS:
            h_free = self.h_sec - (v * frame) @ v.conj().T
            if offsets:
                for spin, delta in offsets.items():
                    h_free = h_free + delta * self._pauli[(spin, "z")] / 2.0
            h0 = h_free + drive
            z_shift = self.channel_ops[pulse.channel][0]
        else:
            diag = self.energies - frame
            if offsets:
                for spin, delta in offsets.items():
                    diag = diag + delta * self._zdiag[spin] / 2.0
            d_eig = v.conj().T @ drive @ v
            d_eig = np.where(self._gate_mask[pulse.channel], d_eig, 0.0)
            h0 = np.diag(diag) + d_eig
            if pulse.channel == "NMR":
                z_shift = np.diag(self._zdiag["n1"] + self._zdiag["n2"]) / 2.0
            else:
                z_shift = np.diag(self._zdiag["e1"] + self._zdiag["e2"]) / 2.0

        if shift_profile is None:
            u = unitary_exp(h0, pulse.duration_us)
        else:
            dt = pulse.duration_us / n_slices
            u = np.eye(16, dtype=complex)
            for k in range(n_slices):
                eps = shift_profile((k + 0.5) * dt)
                u = unitary_exp(h0 + eps * z_shift, dt) @ u
        if mode == GATE_MODEL:
            u = v @ u @ v.conj().T
        phases = np.exp(2j * np.pi * realign * pulse.duration_us)
        return (phases[:, None] * u) if np.any(realign) else u

    def _check_selectivity(self, pulse: PulseSpec, mode: str) -> None:
        if mode != FULL_DYNAMICS:
            return
        x = self._drive_x[pulse.channel]
        f = abs(pulse.carrier_mhz + pulse.detuning_mhz)
        gaps = []
        for i in range(16):
            for j in range(i + 1, 16):
                if abs(x[j, i]) > GATE_PAIR_THRESHOLD:
                    gaps.append(abs(abs(self.energies[j] - self.energies[i]) - f))
        gaps = sorted(g for g in gaps if g > 1e-9)
        if gaps and pulse.rabi_mhz > 0.25 * gaps[0]:
            warnings.warn(
                f"rabi {pulse.rabi_mhz} MHz exceeds a quarter of the "
                f"{gaps[0]:.3f} MHz splitting to the nearest off-target line",
                stacklevel=3,
            )

    def idle_propagator(self, duration_us: float, offsets=None) -> np.ndarray:
        return unitary_exp(self.free_hamiltonian(offsets=offsets), duration_us)

    # -- labeled-gate compilation to pulses ------------------------------------

    def compile_gate(self, step: GateStep) -> PulseSpec:
        tr = self.nuclear_transition(step.spin)
        rabi = self.rabi["NMR"]
        return PulseSpec(
            channel="NMR",
            carrier_mhz=abs(tr.frequency_mhz),
            rabi_mhz=rabi,
            duration_us=step.theta / (2 * math.pi * rabi * tr.amplitude),
            phase_rad=-step.phase,
        )

    def compile_cz(self, step: CzStep) -> PulseSpec:
        tr = self.electron_transition(step.electron, step.n1, step.n2)
        rabi = self.rabi["ESR"]
        return PulseSpec(
            channel="ESR",
            carrier_mhz=abs(tr.frequency_mhz),
            rabi_mhz=rabi,
            duration_us=step.turns / (rabi * tr.amplitude),
        )

    def step_unitary(self, step, mode: str, offsets=None, pirs: PIRSModel | None = None):
        if isinstance(step, GateStep):
            if mode == GATE_MODEL:
                return self.gate_unitary(step)
            return self.pulse_propagator(self.compile_gate(step), mode, offsets=offsets)
        if isinstance(step, CzStep):
            if mode == GATE_MODEL:
                return self.cz_unitary(step)
            return self.pulse_propagator(self.compile_cz(step), mode, offsets=offsets)
        if isinstance(step, ProjectStep):
            if step.axis.upper() == "Z":
                return np.eye(16, dtype=complex)
            return self.step_unitary(projection_gate(step.spin, step.axis), mode, offsets)
        if isinstance(step, PulseStep):
            shift = None
            n_slices = 1
            if step.apply_pirs and pirs is not None and pirs.enabled:
                shift = relaxation_detuning_profile(pirs)
                n_slices = max(16, int(step.pulse.duration_us / 0.05))
            return self.pulse_propagator(
                step.pulse, mode, shift_profile=shift, n_slices=n_slices, offsets=offsets
            )
        if isinstance(step, IdleStep):
            return self.idle_propagator(step.duration_us, offsets=offsets)
        raise ContractError(f"cannot build a unitary for step {step!r}")


@functools.lru_cache(maxsize=8)
def engine_for(
    params: SystemParams,
    rabi_electron_mhz: float = DEFAULT_RABI_ELECTRON_MHZ,
    rabi_nuclear_mhz: float = DEFAULT_RABI_NUCLEAR_MHZ,
) -> SequenceEngine:
    return SequenceEngine(params, rabi_electron_mhz, rabi_nuclear_mhz)


# ---------------------------------------------------------------------------
# resonance drift


def pirs_detuning(t_us: float, model: PIRSModel, drive_active: bool) -> float:
    """Drift of the electron resonance in kHz after a time t.

    While a radio-frequency drive is active the shift approaches the
    saturation amplitude; otherwise it relaxes back toward zero. The value is
    added to the detuning of electron pulses.
    """
    decay = math.exp(-t_us / model.time_constant_us)
    if drive_active:
        return model.shift_khz + (model.accumulated_khz - model.shift_khz) * decay
    return model.accumulated_khz * decay


def relaxation_detuning_profile(model: PIRSModel):
    """Detuning profile (MHz vs us) of an electron pulse that starts with the
    drift saturated and the carrier recalibrated onto the shifted line: as the
    shift relaxes, the effective detuning sweeps from 0 toward the full
    amplitude."""
    saturated = replace(model, accumulated_khz=model.shift_khz)

    def profile(t_us: float) -> float:
        return (pirs_detuning(t_us, saturated, drive_active=False) - saturated.shift_khz) / 1e3

    return profile


# ---------------------------------------------------------------------------
# sequence execution


@dataclass
class RunResult:
    final_state: np.ndarray
    outcome_probabilities: dict
    shot_records: list


def spam_mixture(p_up: float) -> np.ndarray:
    """Product initialization state: each spin down, erring up w.p. p_up."""
    one = np.array([p_up, 1.0 - p_up])  # (up, down) populations
    diag = np.ones(1)
    for _ in range(4):
        diag = np.kron(diag, one)
    return np.diag(diag.astype(complex))


def _reset_spins(rho: np.ndarray, spins, p_up: float) -> np.ndarray:
    """Replace each listed spin's marginal with the p_up-mixed loading state."""
    fresh = np.array([[p_up, 0.0], [0.0, 1.0 - p_up]], dtype=complex)
    for spin in spins:
        q = SPIN_INDEX[spin]
        left, right = 2**q, 2 ** (3 - q)
        t = rho.reshape(left, 2, right, left, 2, right)
        marg = np.trace(t, axis1=1, axis2=4)  # (left, right, left, right)
        out = np.einsum("ax,ijkl->iajkxl", fresh, marg)
        rho = out.reshape(16, 16)
    return rho


def _measure_distribution(rho: np.ndarray, spins) -> dict:
    """Z-basis outcome distribution; outcome 1 means spin up."""
    probs: dict[tuple, float] = {}
    diag = np.real(np.diag(rho))
    for idx in range(16):
        bits = basis_bits(idx)
        key = tuple(1 - bits[SPIN_INDEX[s]] for s in spins)
        probs[key] = probs.get(key, 0.0) + float(diag[idx])
    return probs


def _collapse(rho: np.ndarray, spins, outcome) -> np.ndarray:
    mask = np.ones(16, dtype=bool)
    for s, o in zip(spins, outcome):
        q = SPIN_INDEX[s]
        mask &= np.array([1 - basis_bits(i)[q] == o for i in range(16)])
    proj = np.where(mask, 1.0, 0.0)
    out = rho * np.outer(proj, proj)
    p = np.real(np.trace(out))
    if p <= 0:
        raise ContractError("measurement outcome has zero probability")
    return out / p


def _shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, shot_index]))


def run_sequence(
    steps,
    params: SystemParams,
    noise: NoiseModel | None = None,
    pirs: PIRSModel | None = None,
    mode: str = GATE_MODEL,
    seed: int = 0,
    shots: int = 0,
    initial_state: np.ndarray | None = None,
    engine: SequenceEngine | None = None,
) -> RunResult:
    """Execute a declarative sequence.

    With ``shots == 0`` the sequence runs once at the probability level (no
    randomness is consumed) and the outcome distribution of the measure step
    is returned. With ``shots > 0`` the sequence is repeated; the state
    persists between shots except where initialize steps reset it, measure
    steps collapse it, and quasi-static detunings are redrawn per shot from
    a counter-based stream indexed by (seed, shot).
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    steps = list(steps)
    seen_init = initial_state is not None
    for step in steps:
        if isinstance(step, MeasureStep) and not seen_init:
            raise ContractError("measure before any initialize step")
        if isinstance(step, InitStep):
            seen_init = True
        if isinstance(step, MeasureStep):
            for s in step.spins:
                if s not in NUCLEI:
                    raise ContractError("readout is defined on nuclei only")

    if initial_state is not None:
        rho0 = np.asarray(initial_state, dtype=complex)
        if rho0.ndim == 1:
            rho0 = np.outer(rho0, rho0.conj())
    else:
        rho0 = spam_mixture(noise.p_up)

    def one_pass(rho, offsets, rng, records, shot_index):
        probs_out = {}
        for step in steps:
            if isinstance(step, InitStep):
                rho = _reset_spins(rho, step.spins, noise.p_up)
            elif isinstance(step, MeasureStep):
                probs_out = _measure_distribution(rho, step.spins)
                if rng is not None:
                    keys = sorted(probs_out)
                    p = np.array([probs_out[k] for k in keys])
                    p = np.clip(p, 0, None)
                    choice = keys[rng.choice(len(keys), p=p / p.sum())]
                    rho = _collapse(rho, step.spins, choice)
                    records.append(
                        ShotRecord(
                            shot_index,
                            dict(zip(step.spins, choice)),
                            rng_stream_id=shot_index,
                        )
                    )
            else:
                u = engine.step_unitary(step, mode, offsets=offsets, pirs=pirs)
                rho = u @ rho @ u.conj().T
        return rho, probs_out

    records: list[ShotRecord] = []
    if shots == 0:
        rho, probs = one_pass(rho0, None, None, records, 0)
        return RunResult(rho, probs, records)

    rho = rho0
    probs = {}
    for shot in range(shots):
        rng = _shot_rng(seed, shot)
        offsets = None
        if noise.sigma_f_mhz > 0:
            draws = rng.normal(0.0, noise.sigma_f_mhz, size=len(SPINS))
            offsets = dict(zip(SPINS, draws))
        rho, probs = one_pass(rho, offsets, rng, records, shot)
    return RunResult(rho, probs, records)


# ---------------------------------------------------------------------------
# canonical sequences


def bell_prep(params: SystemParams | None = None, mode: str = GATE_MODEL):
    """Preparation of the nuclear Bell state (|01> + |10>)/sqrt(2).

    Initialize all spins down; pi/2 on n1 about -Y, pi/2 on n2 about +Y; a
    conditional full electron rotation on e2 for the nuclear down-up sector
    (the geometric controlled-Z); and a closing pi/2 on n1 about -Y. The axis
    choices make the +|01> +|10> phase exact.
    """
    del params, mode  # declarative; both simulation modes accept the steps
    return [
        InitStep(),
        GateStep("n1", math.pi / 2, math.pi / 2),
        GateStep("n2", math.pi / 2, -math.pi / 2),
        CzStep("e2", n1=1, n2=0, turns=1),
        GateStep("n1", math.pi / 2, math.pi / 2),
    ]


def crot_prep(params: SystemParams | None = None):
    """Controlled-rotation variant: the conditional-Z between two pi/2 pulses
    on the target nucleus implements a zero-controlled NOT on n2."""
    del params
    return [
        InitStep(),
        GateStep("n2", math.pi / 2, math.pi / 2),
        CzStep("e1", n1=1, n2=0, turns=1),
        GateStep("n2", math.pi / 2, math.pi / 2),
    ]


# ---------------------------------------------------------------------------
# estimators


def p_flip(outcomes) -> float:
    """Fraction of consecutive-shot changes, N_F / (N - 1)."""
    outcomes = np.asarray(list(outcomes))
    if outcomes.size < 2:
        raise ContractError("flip probability needs at least two shots")
    return float(np.count_nonzero(np.diff(outcomes) != 0) / (outcomes.size - 1))


def p_up(outcomes) -> float:
    """Up proportion N_up / N with outcome 1 meaning spin up."""
    outcomes = np.asarray(list(outcomes))
    if outcomes.size < 1:
        raise ContractError("up proportion needs at least one shot")
    return float(np.mean(outcomes))


# ---------------------------------------------------------------------------
# geometric phase


def geometric_phase_of_drive(delta_f_mhz: float, rabi_mhz: float, n_loops: int) -> float:
    """Solid-angle phase of n closed detuned loops:
    -n pi (1 - |delta| / sqrt(rabi^2 + delta^2))."""
    if rabi_mhz <= 0:
        raise ContractError("rabi frequency must be positive")
    omega = math.hypot(rabi_mhz, delta_f_mhz)
    return -n_loops * math.pi * (1.0 - abs(delta_f_mhz) / omega)


def measure_geometric_phase(
    delta_f_mhz: float, rabi_mhz: float, n_loops: int, f0_mhz: float = 1000.0
) -> float:
    """Geometric phase extracted from a two-level rotating-frame simulation.

    Drives a spin starting in the lower level through n closed generalized
    Rabi loops, subtracts the dynamical phase -2 pi t <H>, and returns the
    remainder wrapped to (-pi, pi]. The detuning sign is fixed so that a
    closed resonant cone gives the negative phase of the solid-angle law.
    """
    sz = np.diag([0.5, -0.5])
    sx = np.array([[0, 0.5], [0.5, 0]])
    sy = np.array([[0, -0.5j], [0.5j, 0]])
    h_static = f0_mhz * sz
    pulse = PulseSpec(
        channel="ESR",
        carrier_mhz=f0_mhz + delta_f_mhz,
        rabi_mhz=rabi_mhz,
        duration_us=n_loops / math.hypot(rabi_mhz, delta_f_mhz),
    )
    h = rotating_frame_hamiltonian(h_static, pulse, (sz, sx, sy))
    u = unitary_exp(h, pulse.duration_us)
    psi0 = np.array([0.0, 1.0])  # lower level
    amp = psi0.conj() @ u @ psi0
    total = np.angle(amp)
    dyn = -2 * math.pi * pulse.duration_us * np.real(psi0.conj() @ h @ psi0)
    return float((total - dyn + math.pi) % (2 * math.pi) - math.pi)


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2 * math.pi) - math.pi


# ---------------------------------------------------------------------------
# phase map


@dataclass
class PhaseMapResult:
    freqs_mhz: np.ndarray
    durations_us: np.ndarray
    p_flip: np.ndarray  # (n_freq, n_dur)
    observables: dict  # spin -> {"x": arr, "y": arr, "norm": arr}, post-drive


def phase_map_center_frequency(engine: SequenceEngine) -> float:
    """Midpoint between the electron-1 down-up line and the down-down line."""
    f_a = abs(engine.electron_transition("e1", 1, 0).frequency_mhz)
    f_b = abs(engine.electron_transition("e1", 1, 1).frequency_mhz)
    return 0.5 * (f_a + f_b)


def _electron_load(p_up: float) -> np.ndarray:
    return np.diag(
        [p_up * p_up, p_up * (1 - p_up), (1 - p_up) * p_up, (1 - p_up) * (1 - p_up)]
    ).astype(complex)


def _flip_readout(engine: SequenceEngine, target: str, mode: str, p_up: float):
    """Consecutive-shot flip readout of one nucleus between two identical
    pi/2 pulses O, as (weights, starts, projectors).

    The other (spectator) nucleus persists between shots in its loaded state
    s, up (s = 0) with weight p_up; a state of zero weight is left out. The
    electrons are reloaded every shot. starts[s, b] = O (|nuclei><nuclei| x
    rho_e) O^dag for target state b, and projectors[b] = O^dag M_b O is the
    projector onto the outcome that is a flip from b, pulled back through
    the closing pulse.
    """
    pulse = engine.step_unitary(GateStep(target, math.pi / 2, math.pi / 2), mode)
    q = SPIN_INDEX[target]
    e_load = _electron_load(p_up)
    spectators = [(s, w) for s, w in ((0, p_up), (1, 1.0 - p_up)) if w != 0.0]
    starts = np.zeros((len(spectators), 2, 16, 16), dtype=complex)
    for i, (s, _) in enumerate(spectators):
        for b in (0, 1):
            k = 2 * b + s if q == 0 else 2 * s + b  # nuclear index 2 n1 + n2
            nuc = np.zeros((4, 4), dtype=complex)
            nuc[k, k] = 1.0
            starts[i, b] = pulse @ np.kron(nuc, e_load) @ pulse.conj().T
    # outcome 1 = up; a flip from target state b (outcome 1 - b) lands on b
    outcome = 1 - ((np.arange(16) >> (3 - q)) & 1)
    projectors = np.array([pulse.conj().T @ ((outcome == b)[:, None] * pulse) for b in (0, 1)])
    return np.array([w for _, w in spectators]), starts, projectors


def _stationary_flip_rate(weights: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Consecutive-shot flip rate, weighted over spectator states, of the
    two-state chains with flip probabilities q[s, 1] (from spin-down) and
    q[s, 0] (from spin-up); a chain that never flips contributes 0."""
    q_down, q_up = q[:, 1], q[:, 0]
    total = q_down + q_up
    flips = total > 0
    rate = np.where(flips, 2.0 * q_down * q_up / np.where(flips, total, 1.0), 0.0)
    return np.tensordot(weights, rate, axes=1)


def phase_map(
    params: SystemParams,
    freqs_mhz,
    durations_us,
    mode: str = GATE_MODEL,
    noise: NoiseModel | None = None,
    observables: bool = False,
    engine: SequenceEngine | None = None,
) -> PhaseMapResult:
    """Sweep an electron pulse in frequency and duration between two pi/2
    pulses on n2 (-Y axis) and record the n2 flip probability.

    The flip probability is the stationary consecutive-shot flip rate of the
    repeated sequence: nuclei persist between shots while electrons are
    reloaded each shot with the noise model's p_up. With `observables` the
    post-drive X/Y up-proportions and Bloch-vector norm of every spin are
    recorded for the nominal all-down start.

    Closed form: at each frequency the drive Hamiltonian is diagonalized once,
    H = B diag(w) B^dag, so the drive propagator at duration t is
    B diag(E_t) B^dag with E_t = exp(-2 pi i w t). Every recorded value has
    the form Tr(A U rho U^dag) for a fixed state rho (a start state after the
    opening pulse) and a fixed operator A (a readout projector pulled back
    through the closing pulse, or a Pauli operator), which is

        Re sum_ij E_ti K_ij conj(E_tj),   K = (B^dag rho B) o (B^dag A B)^T,

    with o the elementwise product: one (values x durations x 16) product and
    a row sum per frequency.
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    freqs = np.asarray(freqs_mhz, dtype=float)
    durs = np.asarray(durations_us, dtype=float)
    if freqs.size == 0 or durs.size == 0:
        raise ContractError("frequency and duration grids must be non-empty")
    if np.any(durs < 0):
        raise ContractError(f"negative duration {durs.min()} us")

    weights, readout_starts, projectors = _flip_readout(engine, "n2", mode, noise.p_up)
    n_spectator = weights.size
    starts = readout_starts.reshape(-1, 16, 16)
    ops = np.tile(projectors, (n_spectator, 1, 1))
    if observables:
        # the spectator-down branch always has weight 1 - p_up > 0
        nominal = readout_starts[-1, 1]
        paulis = np.array([pauli_op(s, ax) for s in SPINS for ax in "xyz"])
        starts = np.concatenate([starts, np.broadcast_to(nominal, paulis.shape)])
        ops = np.concatenate([ops, paulis])

    v = engine.vectors
    drive_op = engine.rabi["ESR"] * engine.channel_ops["ESR"][1]
    if mode == GATE_MODEL:
        d_eig = np.where(engine._gate_mask["ESR"], v.conj().T @ drive_op @ v, 0.0)
    phase = -2j * np.pi * durs[:, None]
    grid = (freqs.size, durs.size)
    vals = np.zeros((starts.shape[0], *grid))  # every recorded value at every point
    for fi, f in enumerate(freqs):
        # one eigendecomposition per frequency, shared across all durations
        if mode == GATE_MODEL:
            w, q = np.linalg.eigh(np.diag(engine.energies - engine._frame_diag(float(f))) + d_eig)
            basis = v @ q
        else:
            w, basis = np.linalg.eigh(engine.free_hamiltonian(f_e=float(f)) + drive_op)
        bdag = basis.conj().T
        # kt = K^T, so that the sum over j runs along a matrix product
        kt = (bdag @ ops @ basis) * (bdag @ starts @ basis).transpose(0, 2, 1)
        e = np.exp(phase * w)  # (durations, 16)
        vals[:, fi] = np.real(np.sum((e.conj() @ kt) * e, axis=-1))

    pf = _stationary_flip_rate(weights, vals[: 2 * n_spectator].reshape(n_spectator, 2, *grid))
    obs = {}
    if observables:
        for s, (x, y, z) in zip(SPINS, vals[2 * n_spectator :].reshape(len(SPINS), 3, *grid)):
            obs[s] = {"x": 0.5 * (1 + x), "y": 0.5 * (1 + y), "norm": np.sqrt(x * x + y * y + z * z)}
    return PhaseMapResult(freqs, durs, pf, obs)


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


def phase_map_anchors(engine: SequenceEngine) -> PhaseMapAnchors:
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
    params: SystemParams,
    freq_mhz: float,
    duration_us: float,
    metric: str = "p_flip",
    span_mhz: float = 0.1,
    span_us: float = 0.1,
    steps: int = 9,
    mode: str = GATE_MODEL,
    noise: NoiseModel | None = None,
    engine: SequenceEngine | None = None,
) -> tuple[float, float, float]:
    """Refine a nominal map point against AC level shifts, as the experiment
    does when re-tuning onto the driven resonance: minimize the metric over a
    small neighborhood. Returns (freq, duration, metric value)."""
    engine = engine or engine_for(params)
    freqs = np.linspace(freq_mhz - span_mhz, freq_mhz + span_mhz, steps)
    durs = np.linspace(max(duration_us - span_us, 0.0), duration_us + span_us, steps)
    res = phase_map(
        params, freqs, durs, mode=mode, noise=noise,
        observables=(metric != "p_flip"), engine=engine,
    )
    grid = res.p_flip if metric == "p_flip" else res.observables["n2"]["norm"]
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    return float(freqs[i]), float(durs[j]), float(grid[i, j])


def addressed_pulse_unitary(
    engine: SequenceEngine,
    tr: Transition,
    duration_us: float,
    rabi_mhz: float | None = None,
    pirs: PIRSModel | None = None,
    n_slices: int | None = None,
) -> np.ndarray:
    """Ideal addressed drive: generalized-Rabi SU(2) on the addressed pair
    only, identity elsewhere, with an optional piecewise detuning drift."""
    rabi = engine.rabi["ESR"] if rabi_mhz is None else rabi_mhz
    omega = rabi * tr.amplitude
    if pirs is not None and pirs.enabled:
        profile = relaxation_detuning_profile(pirs)
        slices = n_slices or max(16, int(duration_us / 0.05))
    else:
        profile = None
        slices = 1
    u2 = np.eye(2, dtype=complex)
    dt = duration_us / slices if slices else 0.0
    for k in range(slices):
        delta = profile((k + 0.5) * dt) if profile else 0.0
        h2 = np.array([[0.0, omega / 2], [omega / 2, delta]], dtype=complex)
        u2 = unitary_exp(h2, dt) @ u2
    u = np.eye(16, dtype=complex)
    lo, hi = tr.lo_index, tr.hi_index
    u[lo, lo], u[lo, hi] = u2[0, 0], u2[0, 1]
    u[hi, lo], u[hi, hi] = u2[1, 0], u2[1, 1]
    return u


def cz_flip_curve(
    params: SystemParams,
    durations_us,
    pirs: PIRSModel | None = None,
    mode: str = GATE_MODEL,
    noise: NoiseModel | None = None,
    engine: SequenceEngine | None = None,
) -> np.ndarray:
    """Flip probability of n1 for a conditional electron-2 drive of swept
    duration between two pi/2 pulses on n1 (the conditional-phase sequence).

    The electron pulse runs on the up-down nuclear sector resonance; with a
    drift model the carrier is taken as recalibrated onto the saturated line,
    so the effective detuning relaxes away from zero during the pulse.
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    durs = np.asarray(durations_us, dtype=float)
    tr = engine.electron_transition("e2", n1=0, n2=1)
    carrier = abs(tr.frequency_mhz)
    rabi = engine.rabi["ESR"]

    weights, starts, projectors = _flip_readout(engine, "n1", mode, noise.p_up)
    q = np.zeros((weights.size, 2, durs.size))
    for di, t in enumerate(durs):
        if mode == GATE_MODEL:
            u_drive = addressed_pulse_unitary(engine, tr, float(t), pirs=pirs)
        else:
            step = PulseStep(
                PulseSpec(
                    channel="ESR", carrier_mhz=carrier, rabi_mhz=rabi, duration_us=float(t)
                ),
                apply_pirs=pirs is not None,
            )
            u_drive = engine.step_unitary(step, mode, pirs=pirs)
        evolved = u_drive @ starts @ u_drive.conj().T
        # q[s, b] = Tr(projector_b rho_sb)
        q[..., di] = np.einsum("bij,sbji->sb", projectors, evolved).real
    return _stationary_flip_rate(weights, q)


# ---------------------------------------------------------------------------
# coherence decay


@dataclass
class RamseyTrace:
    wait_us: np.ndarray
    p_up: np.ndarray
    envelope: np.ndarray  # analytic Gaussian envelope exp(-(t/T2*)^2)
    t2_star_us: float


def t2_star_from_sigma(sigma_f_mhz: float) -> float:
    return math.sqrt(2.0) / (2 * math.pi * sigma_f_mhz)


def sigma_from_t2_star(t2_star_us: float) -> float:
    return math.sqrt(2.0) / (2 * math.pi * t2_star_us)


def ramsey_trace(
    spin: str,
    wait_grid_us,
    sigma_f_mhz: float,
    n_shots: int,
    seed: int = 0,
) -> RamseyTrace:
    """Two pi/2 pulses separated by a wait, with a quasi-static detuning drawn
    per shot; returns the sampled up proportion and the analytic envelope.

    At zero detuning the pulse pair flips the spin, so p_up = (1 + E(t))/2
    with ensemble envelope E(t) = exp(-(t/T2*)^2), T2* = sqrt(2)/(2 pi sigma).
    """
    del spin  # the quasi-static model is identical for every spin
    if sigma_f_mhz < 0:
        raise ContractError("sigma_f must be non-negative")
    waits = np.asarray(wait_grid_us, dtype=float)
    pup = np.zeros_like(waits)
    for i, t in enumerate(waits):
        rng = _shot_rng(seed, i)
        if sigma_f_mhz == 0:
            pup[i] = 1.0
            continue
        deltas = rng.normal(0.0, sigma_f_mhz, size=n_shots)
        probs = np.cos(np.pi * deltas * t) ** 2
        pup[i] = float(np.mean(rng.random(n_shots) < probs))
    if sigma_f_mhz > 0:
        t2 = t2_star_from_sigma(sigma_f_mhz)
        env = np.exp(-((waits / t2) ** 2))
    else:
        t2 = math.inf
        env = np.ones_like(waits)
    return RamseyTrace(waits, pup, env, t2)
