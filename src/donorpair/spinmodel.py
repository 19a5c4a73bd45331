"""Static Hamiltonian of the two-donor, four-spin system (nuclei n1, n2;
exchange-coupled electrons e1, e2).

Basis convention: tensor order n1 (x) n2 (x) e1 (x) e2, qubit value 0 = spin up
(nuclear up / electron up), 1 = spin down, so the index of |n1 n2 e1 e2> is
8*n1 + 4*n2 + 2*e1 + e2 and index 0 is the all-up state. Spin operators are
Pauli matrices over two; every Hamiltonian is in MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    ContractError,
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    kron_all,
    require_finite,
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
        if not (0 < self.a1 and 0 < self.a2):
            raise ContractError("hyperfine couplings a1, a2 must be positive")
        if not 0 <= self.j:
            raise ContractError("exchange coupling j must be non-negative")
        if not 0 < self.b0:
            raise ContractError("magnetic field b0 must be positive")
        if not (0 < self.g1 and 0 < self.g2):
            raise ContractError("electron g-factors g1, g2 must be positive")
        require_finite(self, *(f.name for f in fields(self)))
        if abs(self.g1 - self.g2) / self.g1 >= 0.01:
            raise ContractError("electron g-factors differ by more than 1%")


def basis_index(n1: int, n2: int, e1: int, e2: int) -> int:
    """Index of |n1 n2 e1 e2> with 0 = up, 1 = down per spin."""
    return 8 * n1 + 4 * n2 + 2 * e1 + e2


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


def secular_hamiltonian(p: SystemParams) -> np.ndarray:
    """Static Hamiltonian with the hyperfine flip-flop terms dropped.

    Keeps a_k Sz_k Iz_k and the full exchange term (which commutes with the
    total electron Sz). This is the generator used by the rotating-frame
    pulse engine: transverse hyperfine terms oscillate at the carrier
    frequency in the frame and average away, and their residual effect is a
    level shift ~ (A/2)^2 / f0 that the engine treats as recalibrated.
    The engine's resonance lines are the gaps of this Hamiltonian;
    `test_engine_lines_match_full_hamiltonian` pins them to within that
    shift of the full Hamiltonian's.
    """
    h = _zeeman_terms(p)
    h += p.a1 * spin_half_op("e1", "z") @ spin_half_op("n1", "z")
    h += p.a2 * spin_half_op("e2", "z") @ spin_half_op("n2", "z")
    h += p.j * _dot_coupling("e1", "e2")
    return h
