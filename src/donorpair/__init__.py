"""Four-spin (two phosphorus donors, two exchange-coupled electrons) simulator.

Deterministic desk-scale toolkit covering the static spin Hamiltonian,
rotating-frame pulse sequences with SPAM/drift error models, the geometric
controlled-Z nuclear gate, two-qubit state tomography with bootstrap
confidence intervals, and configuration-driven experiment runners.
"""

__version__ = "0.1.0"

from .linalg import (
    ContractError,
    DimensionError,
    EigenSystem,
    NotPositiveSemidefiniteError,
    hermitian_eig,
    nearest_physical_density,
    psd_sqrt,
    unitary_exp,
)
from .spinmodel import (
    SystemParams,
    basis_index,
    secular_hamiltonian,
)

__all__ = [
    "ContractError",
    "DimensionError",
    "EigenSystem",
    "NotPositiveSemidefiniteError",
    "SystemParams",
    "basis_index",
    "hermitian_eig",
    "nearest_physical_density",
    "psd_sqrt",
    "secular_hamiltonian",
    "unitary_exp",
]
