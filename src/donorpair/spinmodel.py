"""Static Hamiltonian, eigenstructure and resonance spectra of the two-donor,
four-spin system (nuclei n1, n2; exchange-coupled electrons e1, e2).

Basis convention: tensor order n1 (x) n2 (x) e1 (x) e2, qubit value 0 = spin up
(nuclear up / electron up), 1 = spin down, so the index of |n1 n2 e1 e2> is
8*n1 + 4*n2 + 2*e1 + e2 and index 0 is the all-up state. Spin operators are
Pauli matrices over two; every Hamiltonian is in MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ContractError,
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eig,
    kron_all,
)

# g * mu_B / h ~ 27.97 GHz/T for g ~ 1.9985; gamma_n is the 31P value.
BOHR_MAGNETON_MHZ_PER_T = 13996.245
GYROMAGNETIC_31P_MHZ_PER_T = 17.23
DEFAULT_G_FACTOR = 1.9985

SPINS = ("n1", "n2", "e1", "e2")
SPIN_INDEX = {s: i for i, s in enumerate(SPINS)}
NUCLEI = ("n1", "n2")
ELECTRONS = ("e1", "e2")

_PAULI_HALF = {"x": SIGMA_X / 2, "y": SIGMA_Y / 2, "z": SIGMA_Z / 2}


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and couplings of the four-spin system.

    b0 is in tesla; mu_b_over_h and gamma_n in MHz/T; hyperfine couplings
    a1, a2 and the exchange j in MHz. b0 defaults to 1.0 T, an arbitrary
    artifact choice: every rotating-frame result depends only on detunings.
    """

    b0: float = 1.0
    g1: float = DEFAULT_G_FACTOR
    g2: float = DEFAULT_G_FACTOR
    mu_b_over_h: float = BOHR_MAGNETON_MHZ_PER_T
    gamma_n: float = GYROMAGNETIC_31P_MHZ_PER_T
    a1: float = 111.0
    a2: float = 113.0
    j: float = 12.0

    def __post_init__(self):
        if self.a1 <= 0 or self.a2 <= 0:
            raise ContractError("hyperfine couplings a1, a2 must be positive")
        if self.j < 0:
            raise ContractError("exchange coupling j must be non-negative")
        if self.b0 <= 0:
            raise ContractError("magnetic field b0 must be positive")
        if self.g1 <= 0 or self.g2 <= 0:
            raise ContractError("electron g-factors g1, g2 must be positive")
        if abs(self.g1 - self.g2) / self.g1 >= 0.01:
            raise ContractError("electron g-factors differ by more than 1%")


@dataclass(frozen=True)
class TransitionLine:
    """One allowed resonance: frequency in MHz, driving channel, spectator
    configuration label and transition matrix element magnitude."""

    frequency: float
    channel: str
    condition: str
    amplitude: float
    merged: bool = False


def basis_index(n1: int, n2: int, e1: int, e2: int) -> int:
    """Index of |n1 n2 e1 e2> with 0 = up, 1 = down per spin."""
    return 8 * n1 + 4 * n2 + 2 * e1 + e2


def basis_bits(index: int) -> tuple[int, int, int, int]:
    return ((index >> 3) & 1, (index >> 2) & 1, (index >> 1) & 1, index & 1)


def basis_label(index: int) -> str:
    """Readable label, nuclei as U/D and electrons as u/d, e.g. 'DU|dd'."""
    n1, n2, e1, e2 = basis_bits(index)
    nuc = "UD"[n1] + "UD"[n2]
    ele = "ud"[e1] + "ud"[e2]
    return f"{nuc}|{ele}"


def spin_half_op(spin: str, axis: str) -> np.ndarray:
    """Spin-1/2 operator (sigma/2) of one spin embedded in the 16-dim space."""
    ops = [SIGMA_I] * 4
    ops[SPIN_INDEX[spin]] = _PAULI_HALF[axis]
    return kron_all(*ops)


def pauli_op(spin: str, axis: str) -> np.ndarray:
    return 2.0 * spin_half_op(spin, axis)


def _dot_coupling(spin_a: str, spin_b: str) -> np.ndarray:
    return sum(
        spin_half_op(spin_a, ax) @ spin_half_op(spin_b, ax) for ax in "xyz"
    )


def _zeeman_terms(p: SystemParams) -> np.ndarray:
    h = p.mu_b_over_h * p.b0 * (
        p.g1 * spin_half_op("e1", "z") + p.g2 * spin_half_op("e2", "z")
    )
    h += p.gamma_n * p.b0 * (spin_half_op("n1", "z") + spin_half_op("n2", "z"))
    return h


def build_static_hamiltonian(p: SystemParams) -> np.ndarray:
    """Full 16x16 static Hamiltonian in MHz.

    Zeeman terms for both species, isotropic hyperfine contact terms
    a1 S1.I1 + a2 S2.I2 and the Heisenberg exchange j S1.S2.
    """
    h = _zeeman_terms(p)
    h += p.a1 * _dot_coupling("e1", "n1")
    h += p.a2 * _dot_coupling("e2", "n2")
    h += p.j * _dot_coupling("e1", "e2")
    return h


def secular_hamiltonian(p: SystemParams) -> np.ndarray:
    """Static Hamiltonian with the hyperfine flip-flop terms dropped.

    Keeps a_k Sz_k Iz_k and the full exchange term (which commutes with the
    total electron Sz). This is the generator used by the rotating-frame
    pulse engine: transverse hyperfine terms oscillate at the carrier
    frequency in the frame and average away, and their residual effect is a
    level shift ~ (A/2)^2 / f0 that the engine treats as recalibrated.
    """
    h = _zeeman_terms(p)
    h += p.a1 * spin_half_op("e1", "z") @ spin_half_op("n1", "z")
    h += p.a2 * spin_half_op("e2", "z") @ spin_half_op("n2", "z")
    h += p.j * _dot_coupling("e1", "e2")
    return h


def hybridization_angle(j: float, delta: float) -> float:
    """Mixing angle theta of the electron pair states, tan(2 theta) = j/delta.

    Returns values in [0, pi/4] for non-negative j and delta; the angle is
    undefined when both vanish.
    """
    if j == 0 and delta == 0:
        raise ContractError("hybridization angle undefined for j = delta = 0")
    return 0.5 * math.atan2(j, delta)


def _dominant_bits(vec: np.ndarray) -> tuple[int, int, int, int]:
    return basis_bits(int(np.argmax(np.abs(vec) ** 2)))


def _condition_label(channel_spin: str, bits_lo, bits_hi) -> str:
    parts = []
    for spin in SPINS:
        if spin == channel_spin:
            continue
        q = SPIN_INDEX[spin]
        b_lo, b_hi = bits_lo[q], bits_hi[q]
        sym = "UD" if spin in NUCLEI else "ud"
        val = sym[b_lo] if b_lo == b_hi else sym[b_lo] + "/" + sym[b_hi]
        parts.append(f"{spin}={val}")
    return " ".join(parts)


def _spectrum(
    h: np.ndarray,
    drive_ops: dict[str, np.ndarray],
    amplitude_threshold: float,
    merge_tol_mhz: float,
) -> list[TransitionLine]:
    w, v = hermitian_eig(h)
    per_channel = {ch: [] for ch in drive_ops}
    elems = {ch: v.conj().T @ op @ v for ch, op in drive_ops.items()}
    total = sum(elems.values())
    dim = len(w)
    for i in range(dim):
        for f in range(i + 1, dim):
            amp = abs(total[f, i])
            if amp <= amplitude_threshold:
                continue
            channel = max(drive_ops, key=lambda ch: abs(elems[ch][f, i]))
            spin = "n" + channel[-1] if channel.startswith("nucleus") else "e" + channel[-1]
            cond = _condition_label(spin, _dominant_bits(v[:, i]), _dominant_bits(v[:, f]))
            per_channel[channel].append(
                TransitionLine(float(w[f] - w[i]), channel, cond, float(amp))
            )

    lines: list[TransitionLine] = []
    for channel, chan_lines in per_channel.items():
        chan_lines.sort(key=lambda ln: ln.frequency)
        for ln in chan_lines:
            if lines and lines[-1].channel == channel and (
                abs(lines[-1].frequency - ln.frequency) < merge_tol_mhz
            ):
                prev = lines.pop()
                strong = prev if prev.amplitude >= ln.amplitude else ln
                lines.append(
                    TransitionLine(
                        strong.frequency,
                        channel,
                        strong.condition,
                        strong.amplitude,
                        merged=True,
                    )
                )
            else:
                lines.append(ln)
    lines.sort(key=lambda ln: (ln.channel, ln.frequency))
    return lines


def esr_spectrum(
    p: SystemParams,
    amplitude_threshold: float = 0.05,
    merge_tol_mhz: float = 1e-3,
) -> list[TransitionLine]:
    """Allowed electron resonances of the full Hamiltonian.

    Enumerates eigenstate pairs connected by Sx_e1 + Sx_e2 with matrix element
    above the threshold, labels each line by the driven electron (larger
    single-spin element) and by the dominant spectator configuration, and
    merges degenerate same-channel lines (default 1 kHz) with a warning flag.

    The default threshold 0.05 keeps the six-line structure per electron at
    the reference couplings; lowering it to 0.01 additionally registers the
    weakly-allowed exchange-split lines of strongly hybridized sectors.
    """
    h = build_static_hamiltonian(p)
    ops = {
        "electron-1": spin_half_op("e1", "x"),
        "electron-2": spin_half_op("e2", "x"),
    }
    return _spectrum(h, ops, amplitude_threshold, merge_tol_mhz)


def nmr_spectrum(
    p: SystemParams,
    neutral: bool = True,
    amplitude_threshold: float = 0.05,
    merge_tol_mhz: float = 1e-3,
) -> list[TransitionLine]:
    """Allowed nuclear resonances.

    With `neutral` the full Hamiltonian applies and lines sit near
    |gamma_n B0 -/+ A/2| conditional on the bound electron. In the ionized
    case the hyperfine and exchange terms are removed, leaving a single line
    at gamma_n B0 per nucleus.
    """
    if neutral:
        h = build_static_hamiltonian(p)
    else:
        h = _zeeman_terms(p)
    ops = {
        "nucleus-1": spin_half_op("n1", "x"),
        "nucleus-2": spin_half_op("n2", "x"),
    }
    return _spectrum(h, ops, amplitude_threshold, merge_tol_mhz)


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def bloch_vector(state: np.ndarray, spin: str) -> tuple[float, float, float]:
    """(<X>, <Y>, <Z>) of one spin of a 16-dim pure state or density matrix."""
    rho = _as_density(state)
    return tuple(
        float(np.real(np.trace(pauli_op(spin, ax) @ rho))) for ax in "xyz"
    )


def expectation_axis(state: np.ndarray, spin: str, axis: str) -> float:
    """Up proportion (1 + <sigma_axis>)/2 of one spin along X, Y or Z."""
    x, y, z = bloch_vector(state, spin)
    comp = {"X": x, "Y": y, "Z": z}[axis.upper()]
    return 0.5 * (1.0 + comp)


def bloch_norm(state: np.ndarray, spin: str) -> float:
    """sqrt(<X>^2 + <Y>^2 + <Z>^2); tends to 0 as the spin becomes entangled."""
    x, y, z = bloch_vector(state, spin)
    return math.sqrt(x * x + y * y + z * z)
