"""Rotating-frame pulse-sequence engine for the four-spin system.

Two simulation modes, with one working basis: every Hamiltonian and
propagator is a 16x16 matrix in the product basis, and both modes evolve a
pulse under the same frame-stripped secular Hamiltonian (`free_hamiltonian`).

* ``GATE_MODEL`` - labeled gates are exact SU(2) rotations on the basis
  states that `gate_condition` selects (`labelled_unitary`); raw swept
  pulses see the rotating-wave drive truncated to the allowed-transition
  graph of the secular eigenlevels.
* ``FULL_DYNAMICS`` - every step, a labeled gate as its compiled pulse, sees
  the whole rotating-wave drive, so cross-talk, AC shifts and unintended
  transitions are included.

Frame bookkeeping: the engine state lives in a frame co-rotating with each
nucleus at its electron-down resonance and with the electrons at the active
microwave carrier. Those generators are sums of Z operators, diagonal in the
product basis, and commute with the secular Hamiltonian, so the frame change
is exact. Nuclear pulses must run on their reference carrier (all sequences
here do); the electron carrier is free per pulse because the protocols never
carry electron coherence between pulses.

Drive normalization: ``rabi_frequency`` is the on-resonance Rabi frequency of
a bare (unhybridized) transition, i.e. the two-level reduction of the drive is
(rabi/2) sigma_x and a 2*pi rotation takes 1/rabi microseconds.

Nuclear populations (`nuclear_populations`) are indexed 2 n1 + n2 with
0 = up, as the computational labels are (|0> = up); only a `MeasureStep`'s
outcome distribution keys its outcomes with 1 = measured spin up.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import SUPPORTED_DIMS, ContractError, hermitian_eig, require_finite, require_unitary, unitary_exp
from .spinmodel import (
    ELECTRONS,
    NUCLEI,
    SPINS,
    SPIN_INDEX,
    SystemParams,
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

# largest drift amplitude: 40x the default shift and 5x the 1 MHz gap to the
# nearest off-target line; with the engine's unit-norm shift operators it keeps
# `sliced_propagators` at <= 14 interpolation nodes, under the 16-slice minimum
MAX_SHIFT_KHZ = 5000.0
# a drifting pulse has int(t / SLICE_US) slices, and at least MIN_SLICES
SLICE_US = 0.05
MIN_SLICES = 16
# bytes of real-form node propagators and slice steps that `sliced_propagators`
# holds for one group of durations
DRIFT_GROUP_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# declarative steps and error-model carriers


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular drive pulse. Frequencies in MHz, duration in us."""

    channel: str  # "ESR" | "NMR"
    carrier_mhz: float
    rabi_mhz: float
    duration_us: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if self.channel not in ("ESR", "NMR"):
            raise ContractError(f"unknown channel {self.channel!r}")
        if not 0 <= self.duration_us:
            raise ContractError("pulse duration must be non-negative")
        if not 0 <= self.rabi_mhz:
            raise ContractError("rabi frequency must be non-negative")
        require_finite(self, "carrier_mhz", "rabi_mhz", "duration_us", "phase_rad")


@dataclass(frozen=True)
class PIRSModel:
    """Drive-induced resonance drift: exponential approach to shift_khz while
    a radio-frequency drive is active, exponential relaxation to zero
    otherwise, both with the same time constant. The defaults are the
    120 kHz / 3 us drift; a model that is not enabled adds none."""

    shift_khz: float = 120.0
    time_constant_us: float = 3.0
    enabled: bool = True

    def __post_init__(self):
        if not 0 <= self.shift_khz:
            raise ContractError("shift amplitude must be non-negative")
        if self.shift_khz > MAX_SHIFT_KHZ:
            raise ContractError(f"shift amplitude must be at most {MAX_SHIFT_KHZ} kHz")
        if not 0 < self.time_constant_us:
            raise ContractError("time constant must be positive")

    def detuning_mhz(self, t_us):
        """Detuning (MHz, vectorised over times in us) of an electron pulse that
        starts with the drift saturated and the carrier recalibrated onto the
        shifted line: it sweeps from 0 toward the full amplitude as the shift relaxes."""
        decay = np.exp(-np.asarray(t_us, dtype=float) / self.time_constant_us)
        return (self.shift_khz * decay - self.shift_khz) / 1e3


@dataclass(frozen=True)
class NoiseModel:
    """Spin-up loading probability. The quasi-static detuning spread
    sigma_f_mhz must be 0: no runner reads it here, and the Ramsey
    experiment takes its spread as an option of its own."""

    sigma_f_mhz: float = 0.0
    p_up: float = 0.0

    def __post_init__(self):
        if self.sigma_f_mhz != 0:
            raise ContractError("no experiment reads it; use the ramsey option sigma_f_mhz")
        if not 0.0 <= self.p_up <= 0.5:
            raise ContractError("p_up must lie in [0, 0.5]")


@dataclass(frozen=True)
class InitStep:
    """Reset the listed spins to spin-down, each erring to spin-up with
    probability p_up (`spam_mixture`); spins not listed are left untouched."""

    spins: tuple = SPINS

    def __post_init__(self):
        if isinstance(self.spins, str) or not set(self.spins) <= set(SPINS):
            raise ContractError(f"initialized spins must be drawn from {SPINS}, not {self.spins!r}")


@dataclass(frozen=True)
class GateStep:
    """Rotation R(theta, phase) of one nucleus, on the basis states that
    `gate_condition` selects. R(theta, phi) = exp(-i theta/2 (cos(phi) X
    - sin(phi) Y)); phi = +pi/2 is a -Y rotation, phi = -pi/2 a +Y one."""

    spin: str
    theta: float
    phase: float = 0.0

    def __post_init__(self):
        if self.spin not in NUCLEI:
            raise ContractError(f"gate target must be one of {NUCLEI}, not {self.spin!r}")


@dataclass(frozen=True)
class CzStep:
    """Integer number of full electron rotations on one electron in the
    nuclear sector (n1, n2), on the basis states that `gate_condition`
    selects. Each full turn imparts a geometric pi phase on the conditioned
    sector."""

    electron: str
    n1: int  # 0 = up, 1 = down
    n2: int
    turns: int = 1

    def __post_init__(self):
        if self.electron not in ELECTRONS:
            raise ContractError(f"CZ target must be one of {ELECTRONS}, not {self.electron!r}")
        if self.n1 not in (0, 1) or self.n2 not in (0, 1):
            raise ContractError("nuclear sector bits n1, n2 must be 0 or 1")


@dataclass(frozen=True)
class PulseStep:
    pulse: PulseSpec
    apply_pirs: bool = False


@dataclass(frozen=True)
class ProjectStep:
    """Map the X or Y component of one nucleus onto Z before readout:
    X via a pi/2 rotation about -Y, Y via a pi/2 rotation about +X; the
    axis is read in either case, and Z means no pulse."""

    spin: str
    axis: str

    def __post_init__(self):
        if self.spin not in NUCLEI:
            raise ContractError(f"projection target must be one of {NUCLEI}, not {self.spin!r}")
        if str(self.axis).upper() not in ("X", "Y", "Z"):
            raise ContractError(f"projection axis must be X, Y or Z, not {self.axis!r}")


@dataclass(frozen=True)
class MeasureStep:
    """Z-basis readout of the listed nuclei (see `run_sequence`)."""

    spins: tuple

    def __post_init__(self):
        if isinstance(self.spins, str) or not set(self.spins) <= set(NUCLEI):
            raise ContractError(f"readout is defined on nuclei only: {NUCLEI}, not {self.spins!r}")


def projection_gate(spin: str, axis: str) -> GateStep:
    """Projection pulse as a conditioned nuclear gate (Z means no pulse)."""
    axis = axis.upper()
    if axis == "X":
        return GateStep(spin, math.pi / 2, math.pi / 2)  # -Y axis
    if axis == "Y":
        return GateStep(spin, math.pi / 2, 0.0)  # +X axis
    raise ContractError(f"projection pulse undefined for axis {axis!r}")


def rot2(theta, phase) -> np.ndarray:
    """Two-level rotation in the (up, down) basis; array angles, broadcast
    together, give a (..., 2, 2) stack."""
    c, s = np.cos(np.divide(theta, 2)), np.sin(np.divide(theta, 2))
    e = np.exp(1j * np.asarray(phase))
    r = np.empty(np.broadcast(c, e).shape + (2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 0, 1] = -1j * e * s
    r[..., 1, 0] = -1j * np.conj(e) * s
    return r


def spin_bits(spin: str) -> np.ndarray:
    """Bit of one spin (0 = up, 1 = down) in every product-basis index."""
    return (np.arange(16) >> (3 - SPIN_INDEX[spin])) & 1


def conditional_rotation(r, target: str, where: dict) -> np.ndarray:
    """16x16 unitary (or stack) applying the 2x2 `r` (or (..., 2, 2) stack; in
    the target's (up, down) basis) to `target` on the basis states whose spins
    carry the bits in `where` ({spin: bit}), and the identity elsewhere."""
    cond = spin_bits(target) == 0  # the pairs' target-up states
    for spin, bit in where.items():
        cond &= spin_bits(spin) == bit
    up = np.flatnonzero(cond)
    pair = np.array([up, up | (1 << (3 - SPIN_INDEX[target]))])  # (2, pairs): up, down
    u = np.zeros(r.shape[:-2] + (256,), dtype=complex)  # flat: one index per entry
    u[..., ::17] = 1.0
    u[..., 16 * pair[:, None] + pair[None, :]] = r[..., None]
    return u.reshape(r.shape[:-2] + (16, 16))


def gate_condition(step) -> dict:
    """The spins ({spin: bit}, 1 = down) that condition a labelled step's
    gate-model rotation: a `GateStep` turns its nucleus where its own
    electron is down, and a `CzStep` turns its electron in its nuclear
    sector where the other electron is down.

    The own-electron rule holds while the shift that exchange gives a
    nucleus's NMR line when the other electron is up stays well below the
    NMR drive, 0.01 MHz by default. n2's line moves 0.0025 MHz at
    j = 0.1 MHz, 0.21 MHz at j = 1 MHz, 5.84 MHz at the default j = 12 MHz
    and 29.8 MHz at j = 50 MHz. Where the shift is far above the drive, the
    nucleus turns only where both electrons are down."""
    if isinstance(step, GateStep):
        return {"e" + step.spin[-1]: 1}
    other = "e2" if step.electron == "e1" else "e1"
    return {"n1": step.n1, "n2": step.n2, other: 1}


def labelled_unitary(step) -> np.ndarray:
    """Gate-model unitary of a `GateStep` (its exact SU(2) rotation) or a
    `CzStep` ((-1)^turns), on the states of `gate_condition`."""
    if isinstance(step, GateStep):
        return conditional_rotation(rot2(step.theta, step.phase), step.spin, gate_condition(step))
    return conditional_rotation((-1.0) ** step.turns * np.eye(2), step.electron, gate_condition(step))


# ---------------------------------------------------------------------------
# engine


@dataclass(frozen=True)
class Transition:
    """One addressable line: signed frequency (MHz), the product-basis pair
    (low index, high index), and drive amplitude in units of a bare one."""

    frequency_mhz: float
    lo_index: int
    hi_index: int
    amplitude: float


class SequenceEngine:
    """Eigenstructure cache and propagator factory for one parameter set.
    Its Hamiltonians and propagators are in the product basis in either
    mode; the secular eigenbasis serves the level bookkeeping and the gate
    model's drive truncation."""

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
        # each spin's Z diagonal in the product basis
        self._product_z = {spin: np.diag(self._pauli[(spin, "z")]).real for spin in SPINS}
        # eigenlevel lookup by dominant product component
        self._level_of = {
            int(np.argmax(np.abs(v[:, k]) ** 2)): k for k in range(16)
        }
        if len(self._level_of) < 16:
            raise ContractError(
                f"exchange j = {params.j} MHz leaves two secular eigenlevels with "
                "the same dominant product state, so the resonance lines are undefined"
            )
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

    def _transition(self, channel: str, spin: str, bits) -> Transition:
        """Flip of `spin` from down to up (signed gap), the other spins
        keeping their `bits`."""
        lo_bits, hi_bits = list(bits), list(bits)
        lo_bits[SPIN_INDEX[spin]], hi_bits[SPIN_INDEX[spin]] = 1, 0
        lo, hi = basis_index(*lo_bits), basis_index(*hi_bits)
        lo_l, hi_l = self._level_of[lo], self._level_of[hi]
        freq = self.energies[hi_l] - self.energies[lo_l]
        amp = abs(self._drive_x[channel][hi_l, lo_l])
        return Transition(float(freq), lo, hi, float(amp))

    def nuclear_transition(self, spin: str) -> Transition:
        """Flip of one nucleus with every other spin down (signed gap)."""
        return self._transition("NMR", spin, [1, 1, 1, 1])

    def electron_transition(self, electron: str, n1: int, n2: int) -> Transition:
        """Flip of one electron conditional on the nuclear sector, with the
        other electron down."""
        return self._transition("ESR", electron, [n1, n2, 1, 1])

    # -- pulse propagators -----------------------------------------------------

    def _frame_diag(self, f_e=None, f_n=None) -> np.ndarray:
        """Product-basis diagonal of the frame generator, a sum of Z
        operators: the electrons at f_e, by default the bare Zeeman mean, and
        the nuclei at f_n = (f_n1, f_n2), by default their standing
        references. An array of f_e gives one diagonal per frequency, a
        (..., 16) stack."""
        f_e = self.f_e_default if f_e is None else np.asarray(f_e, dtype=float)[..., None]
        f_n1, f_n2 = (self.f_n1_ref, self.f_n2_ref) if f_n is None else f_n
        z = self._product_z
        return (f_n1 * z["n1"] + f_n2 * z["n2"] + f_e * (z["e1"] + z["e2"])) / 2.0

    def free_hamiltonian(self, f_e=None, f_n=None) -> np.ndarray:
        """Secular Hamiltonian minus the frame generator (see `_frame_diag`),
        in the product basis; both modes evolve under it. An array of f_e
        gives a (..., 16, 16) stack whose every matrix equals the call at
        that frequency bit for bit."""
        return self.h_sec - self._frame_diag(f_e, f_n)[..., None] * np.eye(16)

    def drive_hamiltonian(self, mode: str, channel: str, rabi_mhz, phase_rad=0.0) -> np.ndarray:
        """Rotating-wave drive rabi (cos(phi) X + sin(phi) Y) of one channel,
        in the product basis. The gate model keeps only the pairs of secular
        eigenlevels on the allowed-transition graph: v (mask o v^dag D v) v^dag."""
        _, x_op, y_op = self.channel_ops[channel]
        drive = rabi_mhz * (math.cos(phase_rad) * x_op + math.sin(phase_rad) * y_op)
        if mode == FULL_DYNAMICS:
            return drive
        v = self.vectors
        return v @ np.where(self._gate_mask[channel], v.conj().T @ drive @ v, 0.0) @ v.conj().T

    def _pulse_frame(self, pulse: PulseSpec):
        """Per-pulse frame frequencies ((f_n1, f_n2), f_e, signed) plus the
        diagonal that re-aligns nuclear phases to the standing frame.

        A radio pulse rotates both nuclei at its own carrier so the drive is
        static with the physical detunings; the re-alignment factor
        exp(+i 2 pi Delta t) restores the standing per-nucleus references
        afterwards. Electron transverse phases are reported in the active
        carrier frame (no protocol carries electron coherence across pulses).
        """
        f = pulse.carrier_mhz
        if pulse.channel == "NMR":
            s = -1.0 if self.f_n1_ref < 0 else 1.0
            fn1 = fn2 = s * f
            fe = self.f_e_default
        else:
            fn1, fn2 = self.f_n1_ref, self.f_n2_ref
            fe = f
        realign = (
            (self.f_n1_ref - fn1) * self._product_z["n1"] + (self.f_n2_ref - fn2) * self._product_z["n2"]
        ) / 2.0
        return (fn1, fn2), fe, realign

    def pulse_propagator(
        self,
        pulse: PulseSpec,
        mode: str,
        pirs: PIRSModel | None = None,
        durations_us=None,
    ) -> np.ndarray:
        """Unitary of one rectangular pulse, in the product basis and the
        standing frame: the propagator of `free_hamiltonian` at the pulse's
        frame plus the mode's `drive_hamiltonian`.

        With an enabled `pirs` the resonance drifts along the driven species'
        Z axis with the model's relaxation profile (see `sliced_propagators`).
        Given `durations_us`, the pulse is evaluated at each of those
        durations in place of its own, and a (durations, 16, 16) stack is
        returned.
        """
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}")
        self._check_selectivity(pulse, mode)
        f_n, fe, realign = self._pulse_frame(pulse)

        h0 = self.free_hamiltonian(fe, f_n) + self.drive_hamiltonian(
            mode, pulse.channel, pulse.rabi_mhz, pulse.phase_rad
        )
        t = np.atleast_1d(pulse.duration_us if durations_us is None else durations_us)
        # the drift runs along the driven species' summed Z
        u = sliced_propagators(h0, self.channel_ops[pulse.channel][0], t, pirs)
        if np.any(realign):
            u = np.exp(2j * np.pi * realign * t[:, None])[..., None] * u
        return u[0] if durations_us is None else u

    def _check_selectivity(self, pulse: PulseSpec, mode: str) -> None:
        if mode != FULL_DYNAMICS:
            return
        f = abs(pulse.carrier_mhz)
        e = self.energies
        gaps = np.abs(np.abs(e[None, :] - e[:, None]) - f)  # [i, j]: ||E_j - E_i| - f|
        # driven pairs i < j, with the drive element taken as x[j, i]
        gaps = gaps[np.triu(self._gate_mask[pulse.channel].T, 1)]
        # the target is the driven line (or lines) nearest the carrier
        off_target = gaps[gaps > gaps.min(initial=np.inf) + 1e-9]
        if not off_target.size:
            return
        nearest = off_target.min()
        if pulse.rabi_mhz > 0.25 * nearest:
            warnings.warn(
                f"rabi {pulse.rabi_mhz} MHz exceeds a quarter of the "
                f"{nearest:.3f} MHz splitting to the nearest off-target line",
                stacklevel=3,
            )

    # -- labeled-gate compilation to pulses ------------------------------------

    def compile(self, step) -> PulseSpec:
        """Resonant pulse, at the engine's Rabi frequency, of a `GateStep` (a
        nuclear rotation by theta) or a `CzStep` (`turns` electron turns). Each
        keeps its own duration expression: theta / 2 pi turns rounds otherwise."""
        if isinstance(step, GateStep):
            tr, rabi = self.nuclear_transition(step.spin), self.rabi["NMR"]
            duration = step.theta / (2 * math.pi * rabi * tr.amplitude)
            return PulseSpec("NMR", abs(tr.frequency_mhz), rabi, duration, phase_rad=-step.phase)
        tr, rabi = self.electron_transition(step.electron, step.n1, step.n2), self.rabi["ESR"]
        return PulseSpec("ESR", abs(tr.frequency_mhz), rabi, step.turns / (rabi * tr.amplitude))

    def step_unitary(self, step, mode: str, pirs: PIRSModel | None = None):
        """Unitary of one step: a labeled gate's exact rotation (gate model) or
        compiled pulse; a `PulseStep` with `apply_pirs` drifts under `pirs`."""
        if isinstance(step, (GateStep, CzStep)):
            if mode == GATE_MODEL:
                return labelled_unitary(step)
            return self.pulse_propagator(self.compile(step), mode)
        if isinstance(step, ProjectStep):
            if step.axis.upper() == "Z":
                return np.eye(16, dtype=complex)
            return self.step_unitary(projection_gate(step.spin, step.axis), mode)
        if isinstance(step, PulseStep):
            return self.pulse_propagator(step.pulse, mode, pirs=pirs if step.apply_pirs else None)
        raise ContractError(f"cannot build a unitary for step {step!r}")


@functools.lru_cache(maxsize=8)
def engine_for(params: SystemParams) -> SequenceEngine:
    return SequenceEngine(params)


# ---------------------------------------------------------------------------
# resonance drift


def _diagonal_blocks(h0, z_shift):
    """(rows, cols) index arrays of the diagonal blocks that the joint
    nonzero pattern of h0 and z_shift splits into: its connected index sets
    when they all have one size that `unitary_exp` takes, else one block
    holding every index."""
    reach = (h0 != 0) | (z_shift != 0)
    dim = reach.shape[-1]
    reach = reach | reach.T | np.eye(dim, dtype=bool)
    for _ in range((dim - 1).bit_length()):  # paths of up to dim - 1 steps
        reach = reach @ reach
    size = reach.sum(axis=1)  # size of each index's component
    if np.any(size != size[0]) or size[0] not in SUPPORTED_DIMS:
        idx = np.arange(dim)[None]
    else:  # group the indices by the lowest index of their component
        idx = np.argsort(reach.argmax(axis=1), kind="stable").reshape(-1, size[0])
    return idx[:, :, None], idx[:, None, :]


def _chebyshev_node_count(rho: float) -> int:
    """Fewest Chebyshev nodes p whose interpolation bound 2 rho^p / p! is at
    or below double-precision rounding (see `sliced_propagators`)."""
    p, bound = 1, 2.0 * rho
    while bound > np.finfo(float).eps:
        p += 1
        bound *= rho / p
    return p


def _chebyshev_points(p: int):
    """The p Chebyshev points of the first kind on [-1, 1], cos((j + 1/2) pi / p),
    and their barycentric weights."""
    theta = (np.arange(p) + 0.5) * np.pi / p
    return np.cos(theta), (-1.0) ** np.arange(p) * np.sin(theta)


def _barycentric(x, nodes, weights) -> np.ndarray:
    """Coefficients c[..., j] of the interpolant through the nodes at each x,
    so that f(x) ~ sum_j c[..., j] f(nodes[j]) (the second barycentric form;
    Berrut and Trefethen, SIAM Review 46, 501, 2004). An x on a node takes
    that node's value: only when some x is, the node differences are
    guarded against division by zero and the hit rows replaced by unit rows.
    Without a hit the unguarded formula gives the same values bit for bit."""
    diff = x[..., None] - nodes
    hit = diff == 0
    if not hit.any():
        terms = weights / diff
        return terms / terms.sum(axis=-1, keepdims=True)
    terms = weights / np.where(hit, 1.0, diff)
    c = terms / terms.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit, c)


def _drifting_group(node_eig, n, dt, coefficients) -> np.ndarray:
    """Slice products of one group of durations, ascending, as a (durations,
    blocks, b, b) stack. `coefficients` gives the barycentric node weights of
    the shift at each slice midpoint time; one product of those weights with
    the node propagators forms the steps of MIN_SLICES slices."""
    at_nodes = unitary_exp(node_eig, dt[:, None, None])  # (durations, p, blocks, b, b)
    d, p = at_nodes.shape[:2]
    b = at_nodes.shape[-1]
    # real forms: each acts on [Re x; Im x] as its complex block acts on x
    real = np.empty(at_nodes.shape[:-2] + (2 * b, 2 * b))
    real[..., :b, :b] = real[..., b:, b:] = at_nodes.real
    real[..., b:, :b] = at_nodes.imag
    np.negative(at_nodes.imag, out=real[..., :b, b:])
    steps = np.empty((MIN_SLICES, d) + real.shape[2:])
    # each duration's blocks flattened, for the combination product
    flat_nodes, flat_steps = real.reshape(d, p, -1), steps.reshape(MIN_SLICES, d, -1)
    u = np.zeros(steps.shape[1:-1] + (b,))
    u[..., :b, :] = np.eye(b)  # [Re u; Im u] of the identity
    spare, done = np.empty_like(u), np.empty_like(u)
    # durations from first[k] on have a slice k; those before first[k + 1] end with it
    first = np.searchsorted(n, np.arange(n[-1] + 1), side="right").tolist()
    for k0 in range(0, n[-1], MIN_SLICES):
        s = first[k0]
        c = coefficients((k0 + 0.5 + np.arange(MIN_SLICES)) * dt[s:, None])
        np.matmul(c, flat_nodes[s:], out=flat_steps[:, s:].swapaxes(0, 1))
        for k in range(k0, min(k0 + MIN_SLICES, n[-1])):
            a, end = first[k], first[k + 1]
            np.matmul(steps[k - k0, a:], u[a:], out=spare[a:])
            u, spare = spare, u
            if end > a:
                done[a:end] = u[a:end]
    return done[..., :b, :] + 1j * done[..., b:, :]


def _drifting_blocks(h_blocks, z_blocks, t, pirs: PIRSModel) -> np.ndarray:
    """Slice products of `sliced_propagators` under drift, for a stack of
    diagonal blocks: one (blocks, b, b) stack per duration."""
    t, inverse = np.unique(t, return_inverse=True)  # ascending slice counts
    n = np.maximum(MIN_SLICES, (t / SLICE_US).astype(int))
    dt = t / n
    # one node range for the call: eps runs from 0 to 2 * half, its value at
    # the longest duration's last slice midpoint; node x sits at half * (1 + x)
    half = pirs.detuning_mhz(np.max((n - 0.5) * dt, initial=0.0)) / 2.0
    z_norm = np.abs(z_blocks).sum(axis=-1).max()
    p = _chebyshev_node_count(np.pi * np.max(dt, initial=0.0) * z_norm * abs(half))
    nodes, weights = _chebyshev_points(p)
    node_eig = hermitian_eig(h_blocks + (half * (1.0 + nodes))[:, None, None, None] * z_blocks)
    scale = half or 1.0  # no eps range: every node Hamiltonian is h_blocks

    def coefficients(times):
        return _barycentric(pirs.detuning_mhz(times) / scale - 1.0, nodes, weights)

    # real forms (4 floats for each complex entry) of the p node propagators
    # and MIN_SLICES slice steps of one duration
    per_duration = (p + MIN_SLICES) * 4 * h_blocks.size * 8
    group = max(1, DRIFT_GROUP_BYTES // per_duration)
    u = np.empty(t.shape + h_blocks.shape, dtype=complex)
    for g in range(0, t.size, group):
        part = slice(g, g + group)
        u[part] = _drifting_group(node_eig, n[part], dt[part], coefficients)
    return require_unitary(u)[inverse]


def sliced_propagators(h0, z_shift, durations_us, pirs: PIRSModel | None = None) -> np.ndarray:
    """Propagators of a drive Hamiltonian h0 + eps(t) z_shift at every
    duration, as a (durations, d, d) stack; eps(t) is the relaxation profile
    of `pirs`, or 0 when the model is None or off.

    The Hamiltonians are cut into the diagonal blocks of the joint nonzero
    pattern of h0 and z_shift, found for each call, so the kernel
    exponentiates blocks (four 4x4 nuclear sectors for an electron pulse in
    either mode) rather than whole matrices. Without drift every duration
    comes from one eigendecomposition of each block.

    With drift a pulse of duration t is cut into n = max(MIN_SLICES,
    int(t / SLICE_US)) slices of width dt = t / n. Slice k evolves under the
    shift eps_k = eps((k + 1/2) dt) at its midpoint, and the running product
    is left-multiplied one slice at a time (u = U_k @ u). Only the scalar
    eps_k changes between slices, and U(eps) = exp(-2 pi i dt (h0 + eps
    z_shift)) is entire in eps with ||d^m U / d eps^m|| <= (2 pi dt
    ||z_shift||)^m, so interpolating U at p Chebyshev points across an eps
    range of width W errs by at most 2 rho^p / p!, with rho = pi dt
    ||z_shift|| W / 2 (||z_shift|| bounded by its largest absolute row sum).

    One node set serves the whole call. Its range runs from eps = 0, where
    the drift starts, to eps at the last slice midpoint of the longest
    duration, so it holds every eps_k of every duration. p is the fewest
    nodes whose bound at the largest dt is at or below double-precision
    rounding: 7 for the 120 kHz default drift, 14 at the `MAX_SHIFT_KHZ`
    ceiling. Each block is decomposed once at each node, and `unitary_exp`
    turns those decompositions into node propagators for every slice width
    by phases alone. Each slice step is the barycentric combination of the
    node propagators at eps_k.

    The steps and the running product are real: a complex block U is held
    as its real form [[Re U, -Im U], [Im U, Re U]] and the product as
    [Re u; Im u], which the stacked real matrix product multiplies several
    times faster than the complex one; the real forms are written into one
    preallocated array. The combination coefficients and their product with
    the node propagators are formed MIN_SLICES slices at a time. Durations
    are sorted once, with repeats computed once, and taken in groups whose
    node propagators and steps fit in `DRIFT_GROUP_BYTES`, so the working
    set is flat in the number of durations for every block layout. Within a
    group the durations that still have a slice k are a contiguous tail.
    Each step multiplies that tail of the running product into the same
    rows of a second buffer, and the two buffers swap roles, so no slice
    allocates or copies the product; a duration's product is copied out
    once, after its last slice. The products must stay unitary to
    `linalg.UNITARITY_TOL`.
    """
    t = np.asarray(durations_us, dtype=float)
    drift = pirs is not None and pirs.enabled
    rows, cols = _diagonal_blocks(h0, z_shift)
    h_blocks, z_blocks = h0[rows, cols], z_shift[rows, cols]
    if drift:
        u = _drifting_blocks(h_blocks, z_blocks, t, pirs)
    else:
        u = unitary_exp(h_blocks, t[:, None])
    out = np.zeros(u.shape[:1] + h0.shape, dtype=complex)
    out[:, rows, cols] = u
    return out


# ---------------------------------------------------------------------------
# sequence execution


@dataclass
class RunResult:
    final_state: np.ndarray
    outcome_probabilities: dict  # the last MeasureStep's distribution, or {}


def spam_mixture(p_up: float, spins=SPINS) -> np.ndarray:
    """Product initialization state: each listed spin down, erring up w.p.
    p_up; the other spins exactly down. It is `_reset_spins` of the listed
    spins, taken in SPINS order, applied to every spin down."""
    down = np.zeros((16, 16), dtype=complex)
    down[-1, -1] = 1.0
    return _reset_spins(down, [s for s in SPINS if s in spins], p_up)


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


def nuclear_populations(rho) -> np.ndarray:
    """Joint Z populations of the nuclei of a (..., 16, 16) state, as a
    (..., 4) stack indexed 2 n1 + n2 (0 = up): the diagonal at product index
    8 n1 + 4 n2 + 2 e1 + e2, with the electrons summed left to right from
    zero."""
    d = np.real(np.diagonal(rho, axis1=-2, axis2=-1)).reshape(np.shape(rho)[:-2] + (4, 4))
    return 0.0 + d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]


def _measure_distribution(rho: np.ndarray, spins) -> dict:
    """Z-basis outcome distribution of the listed nuclei; outcome 1 = spin up."""
    probs: dict[tuple, float] = {}
    for bits, p in np.ndenumerate(nuclear_populations(rho).reshape(2, 2)):
        key = tuple(1 - bits[SPIN_INDEX[s]] for s in spins)
        probs[key] = probs.get(key, 0.0) + float(p)
    return probs


def run_sequence(
    steps,
    params: SystemParams,
    noise: NoiseModel | None = None,
    pirs: PIRSModel | None = None,
    mode: str = GATE_MODEL,
    engine: SequenceEngine | None = None,
) -> RunResult:
    """Run a declarative sequence once, at the probability level.

    The run starts with every spin down, so loading error enters only
    through `InitStep`s (with the noise model's p_up), on the spins they
    list. Other steps apply their unitaries; a `PulseStep` with `apply_pirs`
    drifts under `pirs`. A `MeasureStep` reads its nuclei's Z-basis
    distribution (`nuclear_populations`) without collapse; the last one is
    returned with the final state.
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    steps = list(steps)
    seen_init = False
    for step in steps:
        if isinstance(step, MeasureStep) and not seen_init:
            raise ContractError("measure before any initialize step")
        seen_init = seen_init or isinstance(step, InitStep)

    rho = spam_mixture(0.0, ())  # all down: loading error enters through InitStep only
    probs = {}
    for step in steps:
        if isinstance(step, InitStep):
            rho = _reset_spins(rho, step.spins, noise.p_up)
        elif isinstance(step, MeasureStep):
            probs = _measure_distribution(rho, step.spins)
        else:
            u = engine.step_unitary(step, mode, pirs=pirs)
            rho = u @ rho @ u.conj().T
    return RunResult(rho, probs)


# ---------------------------------------------------------------------------
# canonical sequences


def bell_prep():
    """Preparation of the nuclear Bell state (|01> + |10>)/sqrt(2).

    Initialize all spins down; pi/2 on n1 about -Y, pi/2 on n2 about +Y; a
    conditional full electron rotation on e2 for the nuclear down-up sector
    (the geometric controlled-Z); and a closing pi/2 on n1 about -Y. The axis
    choices make the +|01> +|10> phase exact.
    """
    return [
        InitStep(),
        GateStep("n1", math.pi / 2, math.pi / 2),
        GateStep("n2", math.pi / 2, -math.pi / 2),
        CzStep("e2", n1=1, n2=0, turns=1),
        GateStep("n1", math.pi / 2, math.pi / 2),
    ]


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


def _duration_grid(durations_us) -> np.ndarray:
    durs = np.atleast_1d(np.asarray(durations_us, dtype=float))
    if not np.all(np.isfinite(durs)):
        raise ContractError(f"non-finite duration {durs[~np.isfinite(durs)][0]} us")
    if np.any(durs < 0):
        raise ContractError(f"negative duration {durs.min()} us")
    return durs


def _flip_readout(engine: SequenceEngine, target: str, mode: str, p_up: float):
    """Consecutive-shot flip readout of one nucleus between two identical
    pi/2 pulses O, in factored form: (O, weights, flips, loads).

    The other (spectator) nucleus persists between shots in its loaded state
    s, up (s = 0) with weight p_up; a state of zero weight is left out. The
    electrons are reloaded every shot. Both the start states and the readout
    projectors are diagonal in the product basis before O is applied:
    loads[s, b] (s, 2, 16) holds the populations of the loaded state with
    target state b, whose start is O diag(loads[s, b]) O^dag, and flips[b]
    (2, 16) masks the outcome that is a flip from b, whose projector pulled
    back through the closing pulse is O^dag diag(flips[b]) O. So a drive U
    flips with

        q[s, b] = sum_rc flips[b, r] |(O U O)_rc|^2 loads[s, b, c].

    `cz_flip_curve` contracts in this form; `phase_map` takes the dense
    starts and projectors of `_dense_flip_readout`.
    """
    pulse = engine.step_unitary(GateStep(target, math.pi / 2, math.pi / 2), mode)
    q = SPIN_INDEX[target]
    e_load = np.diag(spam_mixture(p_up, ELECTRONS))[12:].real  # the nuclei-down block
    spectators = [(s, w) for s, w in ((0, p_up), (1, 1.0 - p_up)) if w != 0.0]
    loads = np.zeros((len(spectators), 2, 4, 4))  # [s, b, nuclear index 2 n1 + n2, electrons]
    for i, (s, _) in enumerate(spectators):
        for b in (0, 1):
            loads[i, b, 2 * b + s if q == 0 else 2 * s + b] = e_load
    # outcome 1 = up; a flip from target state b (outcome 1 - b) lands on b
    outcome = 1 - spin_bits(target)
    flips = np.array([outcome == b for b in (0, 1)], dtype=float)
    return pulse, np.array([w for _, w in spectators]), flips, loads.reshape(-1, 2, 16)


def _dense_flip_readout(pulse, flips, loads):
    """(starts, projectors) of a factored `_flip_readout`: the (s, 2, 16, 16)
    starts O diag(loads[s, b]) O^dag and the (2, 16, 16) projectors
    O^dag diag(flips[b]) O."""
    return (pulse * loads[..., None, :]) @ pulse.conj().T, pulse.conj().T @ (flips[:, :, None] * pulse)


def _stationary_flip_rate(weights: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Consecutive-shot flip rate, weighted over spectator states, of the
    two-state chains with flip probabilities q[s, 1] (from spin-down) and
    q[s, 0] (from spin-up); a chain that never flips contributes 0."""
    q_down, q_up = q[:, 1], q[:, 0]
    total = q_down + q_up
    flips = total > 0
    rate = np.where(flips, 2.0 * q_down * q_up / np.where(flips, total, 1.0), 0.0)
    return np.tensordot(weights, rate, axes=1)


def phase_map_eig(engine: SequenceEngine, mode: str, freqs: np.ndarray):
    """Eigenvalues w (F, 16) and product-basis eigenvector bases B (F, 16, 16)
    of the phase map's drive Hamiltonian H = `free_hamiltonian` + the mode's
    electron drive at each electron frequency.

    Exchange and the drive flip only electrons, so every H of the grid is
    block-diagonal over the nuclear sectors, and the frequency moves only its
    diagonal. The blocks come from `_diagonal_blocks` on the nonzero pattern
    of the drive and of the whole grid's free Hamiltonians: the four
    contiguous nuclear sectors in either mode, or one block of 16 if the
    pattern does not split evenly. One `hermitian_eig` call decomposes every
    block at every frequency (and raises ContractError on a grid whose
    Hamiltonians overflow), and each B holds its blocks' eigenvectors at
    their indices, with zeros elsewhere.
    """
    drive = engine.drive_hamiltonian(mode, "ESR", engine.rabi["ESR"])
    free = engine.free_hamiltonian(freqs)  # (frequencies, 16, 16)
    rows, cols = _diagonal_blocks(np.any(free != 0, axis=0), drive)
    w_blocks, b_blocks = hermitian_eig((free + drive)[:, rows, cols])
    w = np.empty((freqs.size, 16))
    w[:, rows[..., 0]] = w_blocks
    bases = np.zeros((freqs.size, 16, 16), dtype=complex)
    bases[:, rows, cols] = b_blocks
    return w, bases


def _phase_factors(durs: np.ndarray, w: np.ndarray, n_values: int):
    """Phase factors (giants, babies) over every frequency of eigenvalues
    w (F, ..., n): giants[b] = exp(-2 pi i w t[b m]) for b < ceil(D / m) and
    babies[a] = exp(-2 pi i w a step) for a < m, so E_t = exp(-2 pi i w t) at
    duration k = b m + a is giants[b] babies[a].

    If the D durations equal np.linspace(t[0], t[-1], D) bit for bit,
    step = (t[-1] - t[0]) / (D - 1) and m minimises ceil(D / m) + m n_values,
    the heights of `phase_map`'s tables, taking the smallest m on a tie;
    otherwise m = 1, whose only baby is exp(0) = 1 and whose giants are E
    itself. t[b m] + a step differs from linspace's point by a few eps t_max,
    which moves E by a few 2 pi t_max max|w| eps, the eigenvalue rounding.
    """
    d = durs.size
    m = 1
    if np.array_equal(durs, np.linspace(durs[0], durs[-1], d)):
        # n_values >= 1, so no m above ceil(sqrt(D)) does better
        m = min(range(1, math.isqrt(d - 1) + 2), key=lambda m: -(-d // m) + m * n_values)
    step = (durs[-1] - durs[0]) / (d - 1) if m > 1 else 0.0
    phase = -2j * np.pi
    w = w[..., None, :]
    return np.exp(phase * durs[::m, None] * w), np.exp(phase * (np.arange(m) * step)[:, None] * w)


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
    recorded for the nominal all-down start. A duration that is not finite
    and non-negative raises ContractError.

    Closed form: at each frequency the drive Hamiltonian is diagonalized once
    (`phase_map_eig`), H = B diag(w) B^dag, so the drive propagator at
    duration t is B diag(E_t) B^dag with E_t = exp(-2 pi i w t)
    (`_phase_factors`). Every recorded value has the form Tr(A U rho U^dag)
    for a fixed state rho (a start state after the opening pulse) and a fixed
    operator A (a readout projector pulled back through the closing pulse,
    or a Pauli operator), which is

        Re sum_ij E_ti K_ij conj(E_tj),   K = (B^dag rho B) o (B^dag A B)^T,

    with o the elementwise product. K is Hermitian, since rho and A are, so
    the sum is sum_{i <= j} w_ij Re(P_ij conj(K_ij)) with
    P_ij = conj(E_i) E_j, w = 1 on the diagonal and 2 off it.

    No P over every duration is formed: with E = G_b o B_a at duration
    k = b m + a (`_phase_factors`), P = PG_b o PB_a for the pair tables PG
    of the giants and PB of the babies, and the value at k is
    Re sum_p PG_bp conj(N_ap) with N = conj(PB) o K. One real product of the
    (giants, pairs) table PG with the (m values, pairs) table N gives every
    value at every duration. m minimises those heights, ceil(D / m) + m
    values: 5 for 101 durations and 4 values, 3 for 16 values. On a grid
    that is not a linspace m = 1, PB = 1 and N = K exactly.

    Rounding: each value differs from the dense per-point evaluation by a
    few 2 pi t_max max|w| eps, the rounding of the eigenvalues and, on a
    linspace grid, of the giant-step + baby-step times. PG o PB multiplies
    the same four unit-modulus factors as conj(E_i) E_j in another order,
    which moves P by a few eps.
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    freqs = np.atleast_1d(np.asarray(freqs_mhz, dtype=float))
    durs = _duration_grid(durations_us)
    if freqs.size == 0 or durs.size == 0:
        raise ContractError("frequency and duration grids must be non-empty")

    pulse, weights, flips, loads = _flip_readout(engine, "n2", mode, noise.p_up)
    readout_starts, projectors = _dense_flip_readout(pulse, flips, loads)
    n_spectator = weights.size
    # value v is Tr(A U rho U^dag) with A = matrices[op[v]], rho = matrices[start[v]];
    # the list holds each operator and start once
    matrices = [projectors, readout_starts.reshape(-1, 16, 16)]
    op = np.tile([0, 1], n_spectator)
    start = 2 + np.arange(2 * n_spectator)
    if observables:
        # the nominal start is the spectator-down branch's b = 1 start, whose
        # weight 1 - p_up is always > 0
        paulis = np.array([engine._pauli[(s, ax)] for s in SPINS for ax in "xyz"])
        matrices.append(paulis)
        op = np.concatenate([op, start[-1] + 1 + np.arange(paulis.shape[0])])
        start = np.concatenate([start, np.full(paulis.shape[0], start[-1])])
    matrices = np.concatenate(matrices)
    n_values = op.size

    w, bases = phase_map_eig(engine, mode, freqs)
    # value blocks: every B keeps each block of the bases' and the starts'
    # nonzero pattern, so K vanishes outside the block that holds rho
    rows, cols = _diagonal_blocks(np.any(bases != 0, axis=0), np.any(matrices[start] != 0, axis=0))
    n_blocks, size = rows.shape[:2]
    stacked = matrices[:, rows, cols].transpose(1, 2, 0, 3)  # [b, a, k, c], the shape of bxb below
    # each value is contracted in every block and read from the one that holds its start
    home = np.argmax(np.any(stacked[:, :, start] != 0, axis=(1, 3)), axis=0)
    bases, w = bases[:, rows, cols], w[:, rows[..., 0]]  # (F, blocks, size, size), (F, blocks, size)
    # k[b, v, pair] = K_ij at the pairs i <= j, from the flat places in bxb of
    # (B^dag rho B)_ij and (B^dag A B)_ji
    row, col = np.triu_indices(size)
    block = np.arange(n_blocks)[:, None, None]
    rho_at = np.ravel_multi_index((block, row, start[:, None], col), stacked.shape)
    a_at = np.ravel_multi_index((block, col, op[:, None], row), stacked.shape)
    weight = np.where(row == col, 1.0, 2.0)
    stacked = stacked.reshape(n_blocks, -1, size)

    giants, babies = _phase_factors(durs, w, n_values)
    n_giants, m = giants.shape[-2], babies.shape[-2]
    # one frequency's tables, reused: its giants and conjugated babies, their
    # pair tables [PG; conj(PB)] (blocks, giants + babies, pairs) and a
    # scratch, N = conj(PB) K (blocks, babies, values, pairs) and the product
    e = np.empty((n_blocks, n_giants + m, size), dtype=complex)
    pairs, scratch = np.empty((2, *e.shape[:2], row.size), dtype=complex)
    n = np.empty((n_blocks, m, n_values, row.size), dtype=complex)
    out = np.empty((n_blocks, n_giants, m * n_values))
    pg, n_real = pairs[:, :n_giants].view(float), n.view(float).reshape(n_blocks, m * n_values, -1)

    grid = (freqs.size, durs.size)
    vals = np.zeros((n_values, *grid))  # every recorded value at every point
    values = np.arange(n_values)
    for fi, basis in enumerate(bases):
        # bxb[b, i, k, j] = (B^dag X_k B)_ij: the rows (a, k) of `stacked`
        # make X_k B come out as [a, (k, j)], ready for B^dag on the left
        bxb = basis.conj().swapaxes(1, 2) @ (stacked @ basis).reshape(n_blocks, size, -1)
        k = bxb.reshape(-1)[rho_at] * bxb.reshape(-1)[a_at]
        k *= weight
        e[:, :n_giants] = giants[fi]
        np.conjugate(babies[fi], out=e[:, n_giants:])
        # pair tables conj(e_i) e_j; mode="clip" leaves `out` unbuffered
        np.take(e.conj(), row, axis=-1, out=pairs, mode="clip")
        pairs *= np.take(e, col, axis=-1, out=scratch, mode="clip")
        np.multiply(pairs[:, n_giants:, None], k[:, None], out=n)
        # out[b, g, (a, v)] = Re sum_p PG[g, p] conj(N[a, v, p]): value v at
        # duration g m + a
        np.matmul(pg, n_real.swapaxes(1, 2), out=out)
        vals[:, fi] = out.reshape(n_blocks, -1, n_values)[home, : durs.size, values]
    del giants, babies  # the readout below runs without the largest tables

    pf = _stationary_flip_rate(weights, vals[: 2 * n_spectator].reshape(n_spectator, 2, *grid))
    obs = {}
    if observables:
        for s, (x, y, z) in zip(SPINS, vals[2 * n_spectator :].reshape(len(SPINS), 3, *grid)):
            obs[s] = {"x": 0.5 * (1 + x), "y": 0.5 * (1 + y), "norm": np.sqrt(x * x + y * y + z * z)}
    return PhaseMapResult(freqs, durs, pf, obs)


# the single-turn CZ whose electron drive `cz_flip_curve` sweeps
CURVE_CZ = CzStep("e2", n1=0, n2=1)


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

    The electron pulse is the compiled `CURVE_CZ`, on the up-down nuclear
    sector resonance, at each duration; the gate model turns the electron
    by the line's two-level Rabi propagator on the states of
    `gate_condition` alone. With a drift model the carrier is taken as
    recalibrated onto the saturated line, so the effective detuning of the
    electron's up state relaxes away from zero during the pulse.

    The modes agree at whole turns, to a gap that falls as the square of the
    ESR drive. Mid-turn they differ at any drive, through the pi/2 readout
    pulses on n1 and not the drive (read out with the full-dynamics pulses,
    the gate model's drive tracks full dynamics as the drive squared): the
    pulses act with the electron partly excited, which the gate model's
    readout does not see. At half a turn the gate model reads 0.5 and the
    full dynamics 0.375.

    Every duration is read out at once in the factored form of
    `_flip_readout`: the drive stack becomes O U O in place, its squared
    magnitudes go into the buffer of the intermediate O U, and two matrix
    products with the flip masks and the loaded populations give each
    flip probability. The working set stays two (durations, 16, 16)
    complex stacks.
    """
    noise = noise or NoiseModel()
    engine = engine or engine_for(params)
    durs = _duration_grid(durations_us)

    pulse, weights, flips, loads = _flip_readout(engine, "n1", mode, noise.p_up)
    if mode == GATE_MODEL:
        tr = engine.electron_transition(CURVE_CZ.electron, CURVE_CZ.n1, CURVE_CZ.n2)
        omega = engine.rabi["ESR"] * tr.amplitude
        h2 = np.array([[0.0, omega / 2], [omega / 2, 0.0]], dtype=complex)
        # in the line's (lo, hi) = (down, up) order, the drift on the up state;
        # reversed into the (up, down) order of `conditional_rotation`
        u2 = sliced_propagators(h2, np.diag([0.0, 1.0]), durs, pirs)
        drives = conditional_rotation(u2[..., ::-1, ::-1], CURVE_CZ.electron, gate_condition(CURVE_CZ))
    else:
        drives = engine.pulse_propagator(engine.compile(CURVE_CZ), mode, pirs=pirs, durations_us=durs)
    # O U O over the whole stack, and its squared magnitude in the buffer of O U
    left = np.matmul(pulse, drives)
    np.matmul(left, pulse, out=drives)
    squared = np.abs(drives, out=left.real)
    np.square(squared, out=squared)
    # q[s, b] = sum_c (flips @ |O U O|^2)[b, c] loads[s, b, c]
    flipped = (flips @ squared).transpose(1, 0, 2)  # (2, durations, 16)
    q = (flipped @ loads.transpose(1, 2, 0)).transpose(2, 0, 1)  # (s, 2, durations)
    return _stationary_flip_rate(weights, q)


# ---------------------------------------------------------------------------
# coherence decay


@dataclass
class RamseyTrace:
    wait_us: np.ndarray
    envelope: np.ndarray  # Gaussian envelope exp(-(t/T2*)^2)
    t2_star_us: float


def t2_star_from_sigma(sigma_f_mhz: float) -> float:
    """T2* = sqrt(2) / (2 pi sigma); being its own inverse, also sigma from T2*."""
    return math.sqrt(2.0) / (2 * math.pi * sigma_f_mhz)


def ramsey_trace(wait_grid_us, sigma_f_mhz: float) -> RamseyTrace:
    """Two pi/2 pulses separated by a wait, under a quasi-static detuning
    delta ~ N(0, sigma) that is fixed within a shot; returns the ensemble
    envelope E(t) = exp(-(t/T2*)^2), T2* = sqrt(2)/(2 pi sigma).

    A shot with detuning delta reads up with probability cos^2(pi delta t),
    whose mean over delta is (1 + E(t))/2: shots are independent, so that is
    the exact up probability of every shot at wait t.
    """
    if sigma_f_mhz < 0:
        raise ContractError("sigma_f must be non-negative")
    waits = np.asarray(wait_grid_us, dtype=float)
    if sigma_f_mhz == 0:  # no spread: nothing decays
        return RamseyTrace(waits, np.ones_like(waits), math.inf)
    t2 = t2_star_from_sigma(sigma_f_mhz)
    with np.errstate(over="ignore"):  # (t/T2*)^2 may overflow far past T2*: E is then 0
        env = np.exp(-((waits / t2) ** 2))
    return RamseyTrace(waits, env, t2)
