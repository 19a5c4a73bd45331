"""Initialization-error calibration: the spin-up loading model, p_up from an
exact least-squares fit of the neutral nuclear Rabi trace, phase-reversal
tomography with fixed-period sine-fit comparison, and the donor-distance fit
of exchange strength against distance.

The loading model is `pulses.spam_mixture`: every loaded spin is spin-down,
erring to spin-up with the same probability p_up (the initialization projects
the readout electron's state onto the other spins, so one parameter captures
the error budget). A sequence loads spins only through its `InitStep`s, each
of which resets the spins it lists to that state. The phase-reversal
rotations are conditioned as `pulses.gate_condition` conditions a `GateStep`;
in the neutral Rabi model a spin-up bound electron detunes the drive by
roughly the hyperfine coupling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import ContractError
from . import pulses
from .pulses import GateStep, NoiseModel, conditional_rotation, rot2, spam_mixture
from .spinmodel import pauli_op

# Golden regression targets: measured-device sine fit against the p_up = 0.14
# simulation (phase offset in rad, amplitude reduction factor).
MEASURED_PHASE_OFFSET_RAD = -0.638
MEASURED_AMPLITUDE_RATIO = 0.61

# drive detuning of a nucleus whose electron loaded spin-up: about a2
DETUNING_WHEN_UP_MHZ = 113.0

# periods of the phase-reversal curve over one turn of phi: (1 - cos(4 phi)) / 2
FIXED_PERIODS = 4

# sine-fit amplitude below which the fitted phase is degenerate: above it the
# phase rounds by about eps / amplitude <= 2.2e-10 rad, under the 1e-9 to
# which outputs are compared
MIN_FIT_AMPLITUDE = 1e-6


def _flip_probabilities(durations_us, rabi_mhz: float, detuning_when_up_mhz: float):
    """Resonant (electron down) and detuned (electron up) nuclear flip
    probabilities after each drive duration."""
    if rabi_mhz <= 0:
        raise ContractError("rabi frequency must be positive")
    t = np.asarray(durations_us, dtype=float)
    omega = math.hypot(rabi_mhz, detuning_when_up_mhz)
    return np.sin(np.pi * rabi_mhz * t) ** 2, (rabi_mhz / omega) ** 2 * np.sin(np.pi * omega * t) ** 2


def neutral_rabi_forward(
    p_up: float,
    durations_us,
    rabi_mhz: float,
    detuning_when_up_mhz: float = DETUNING_WHEN_UP_MHZ,
) -> np.ndarray:
    """Up proportion of a driven neutral nucleus under loading errors.

    Mixes the resonant branch (electron down) with the off-resonant branch
    (electron up, drive detuned by about the hyperfine coupling) and accounts
    for the nucleus starting in the wrong state with the same probability.
    """
    flip_res, flip_det = _flip_probabilities(durations_us, rabi_mhz, detuning_when_up_mhz)
    NoiseModel(p_up=p_up)  # checks p_up
    p = p_up
    branch_down = (1 - p) * flip_res + p * (1 - flip_res)
    branch_up = (1 - p) * flip_det + p * (1 - flip_det)
    return (1 - p) * branch_down + p * branch_up


@dataclass(frozen=True)
class PupFit:
    p_up: float
    residual_rms: float


def fit_p_up(durations_us, trace, rabi_mhz: float, detuning_when_up_mhz: float = DETUNING_WHEN_UP_MHZ) -> PupFit:
    """Exact least-squares p_up in [0, 0.5] for a trace of at least eight
    points driven at the known rate `rabi_mhz`. With flip probabilities f_r
    (resonant) and f_d (detuned) the model is f_r + p (1 - 3 f_r + f_d) +
    2 p^2 (f_r - f_d), so the cost is a quartic in p whose minimum lies at 0,
    at 0.5 or at a real root of its cubic derivative (real part clipped into
    [0, 0.5]); of these candidates the least cost wins, on a tie the first, 0.
    """
    t = np.asarray(durations_us, dtype=float)
    if t.size < 8:
        raise ContractError("need at least eight points to fit")
    flip_res, flip_det = _flip_probabilities(t, rabi_mhz, detuning_when_up_mhz)
    # residual a + b p + c p^2, one row per coefficient; half the cost's
    # derivative is sum (a + b p + c p^2)(b + 2 c p)
    y = np.asarray(trace, dtype=float)
    coef = np.stack([flip_res - y, 1 - 3 * flip_res + flip_det, 2 * (flip_res - flip_det)])
    gram = coef @ coef.T
    cubic = [2 * gram[2, 2], 3 * gram[1, 2], gram[1, 1] + 2 * gram[0, 2], gram[0, 1]]
    candidates = np.concatenate([[0.0, 0.5], np.clip(np.roots(cubic).real, 0.0, 0.5)])
    mean_square = np.mean((np.vander(candidates, 3, increasing=True) @ coef) ** 2, axis=1)
    best = int(np.argmin(mean_square))
    return PupFit(float(candidates[best]), float(np.sqrt(mean_square[best])))


# ---------------------------------------------------------------------------
# phase-reversal tomography


def phase_reversal_curve(p_up: float, phi_grid) -> np.ndarray:
    """Up proportion of n1 after preparing the nuclear Bell pair and reversing
    it with phase-swept pulses, the second phase three times the first.

    Without loading errors the curve is exactly (1 - cos(4 phi))/2; loading
    errors distort both its amplitude and phase. Every rotation is an exact
    gate-level unitary, so no system parameter enters; a dynamical-pulse
    version of this composite is not defined.
    """
    phis = np.asarray(phi_grid, dtype=float)

    NoiseModel(p_up=p_up)  # checks p_up
    # each rotation as its `GateStep`'s, n2's controlled on n1 being spin-up
    n1_where = pulses.gate_condition(GateStep("n1", math.pi / 2))
    n2_where = {"n1": 0, **pulses.gate_condition(GateStep("n2", math.pi))}
    r1 = conditional_rotation(rot2(math.pi / 2, 0.0), "n1", n1_where)
    prep = conditional_rotation(rot2(math.pi, 0.0), "n2", n2_where) @ r1
    rho_bell = prep @ spam_mixture(p_up) @ prep.conj().T

    # one reversal per phase, as a stack
    rev = conditional_rotation(rot2(math.pi / 2, phis), "n1", n1_where) @ (
        conditional_rotation(rot2(math.pi, 3 * phis), "n2", n2_where)
    )
    rho = rev @ rho_bell @ rev.conj().swapaxes(-1, -2)
    return 0.5 * (1.0 + np.real(np.trace(pauli_op("n1", "z") @ rho, axis1=-2, axis2=-1)))


# ---------------------------------------------------------------------------
# fixed-period sine fits


@dataclass(frozen=True)
class SineFit:
    """offset + amplitude * cos(k phi - phase) with k fixed, the phase in
    [0, 2 pi): the cut sits at 0, opposite the phase-reversal curve's pi, so a
    rounding-level sine coefficient cannot flip that phase by 2 pi."""

    amplitude: float
    phase: float
    offset: float
    fixed_periods: int
    residual_rms: float


def sine_fit(phi_grid, values) -> SineFit:
    """Exact linear least squares for the cosine model, k = FIXED_PERIODS."""
    phis = np.asarray(phi_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    if phis.size < 12:
        raise ContractError("need at least twelve points for a sine fit")
    k = FIXED_PERIODS
    design = np.stack([np.ones_like(phis), np.cos(k * phis), np.sin(k * phis)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    offset, a, b = coef
    amplitude = math.hypot(a, b)
    phase = math.atan2(b, a) % (2 * math.pi)
    if phase == 2 * math.pi:  # a rounding-level negative angle
        phase = 0.0
    rms = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    if amplitude < MIN_FIT_AMPLITUDE:
        warnings.warn(f"oscillation amplitude below {MIN_FIT_AMPLITUDE}: fitted phase is degenerate")
    return SineFit(float(amplitude), float(phase), float(offset), k, rms)


def wrap_angle(a: float) -> float:
    """`a` wrapped to [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


def require_amplitude(fit: SineFit, name: str) -> None:
    """Reject a fit whose amplitude is below MIN_FIT_AMPLITUDE, where its
    phase is degenerate."""
    if fit.amplitude < MIN_FIT_AMPLITUDE:
        raise ContractError(
            f"{name} fit amplitude {fit.amplitude:.3g} is below {MIN_FIT_AMPLITUDE}: its phase is degenerate"
        )


def compare_fits(sim: SineFit, data: SineFit) -> dict:
    """Phase offset (wrapped) and amplitude ratio of a measured fit relative
    to the simulated reference fit; both must pass `require_amplitude`."""
    require_amplitude(sim, "simulated")
    require_amplitude(data, "data")
    return {
        "phase_offset_rad": float(wrap_angle(data.phase - sim.phase)),
        "amplitude_ratio": float(data.amplitude / sim.amplitude),
    }


# ---------------------------------------------------------------------------
# donor distance from exchange strength


def donor_distance_fit(points, target_j_mhz: float):
    """Least-squares line on (distance, log j); inverts to the distance at
    the target exchange strength. The points are as `validate_config` checks
    them: at least three, positive strengths, and neither the distances nor
    the strengths all equal, with a finite fit."""
    pts = np.asarray(points, dtype=float)
    slope, intercept = np.polyfit(pts[:, 0], np.log(pts[:, 1]), 1)
    distance = (np.log(target_j_mhz) - intercept) / slope
    return float(distance), float(slope), float(intercept)
