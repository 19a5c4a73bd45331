"""Dense complex linear algebra kernels for Hermitian matrices of dimension <= 16.

All Hamiltonians are in frequency units (MHz) and all durations in
microseconds; propagators therefore carry an explicit 2*pi factor.
Matrix exponentials go through an eigendecomposition rather than a series
expansion so the result is unitary to machine precision at these sizes.
`require_unitary` checks propagators built from them to UNITARITY_TOL, such
as the drifting-drive products of `pulses.sliced_propagators`.
The eigendecomposition kernels (`hermitian_eig`, `unitary_exp`, `psd_sqrt`,
`project_to_simplex`, `physical_eig`, `nearest_physical_density`) also take a
stack along leading axes and apply their checks to the whole stack; a single
matrix goes through the same code. `unitary_exp` and `psd_sqrt` also take an
`EigenSystem`, such as the one `physical_eig` returns, so that a caller
holding a decomposition does not pay for another.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SUPPORTED_DIMS = (2, 4, 8, 16)

# 100x double-precision accumulation error at dim 16.
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
PSD_CLIP_TOL = 1e-10

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


class ContractError(ValueError):
    """An operation precondition was violated."""


class NotPositiveSemidefiniteError(ContractError):
    """Matrix has an eigenvalue below the PSD clipping tolerance."""


class DimensionError(ContractError):
    """Matrix dimension outside the supported set {2, 4, 8, 16}."""


class EigenSystem(NamedTuple):
    """Eigenvalues in ascending order and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex array, or a stack of them along leading
    axes, with a supported dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in SUPPORTED_DIMS:
        raise DimensionError(f"dimension {a.shape[-1]} not in {SUPPORTED_DIMS}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.swapaxes(-1, -2))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """`m`, or raise ContractError unless max |M - M^dag| < HERMITICITY_TOL."""
    m = as_matrix(m)
    dev = np.max(np.abs(m - dagger(m)))
    if not dev < HERMITICITY_TOL:  # a NaN deviation fails too
        raise ContractError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return m


def require_finite(record, *names: str) -> None:
    """Raise ContractError naming the first field of `record` among `names`
    that is not finite."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ContractError(f"{name} must be finite, got {value}")


def require_unitary(u: np.ndarray) -> np.ndarray:
    """`u`, or raise ContractError when max |U U^dag - I| over the stack
    exceeds UNITARITY_TOL or is not finite."""
    dev = np.max(np.abs(u @ dagger(u) - np.eye(u.shape[-1])), initial=0.0)
    if not dev <= UNITARITY_TOL:
        raise ContractError(f"propagator is not unitary: max |U U^dag - I| = {dev:.3e}")
    return u


def hermitian_eig(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues ascending and orthonormal eigenvectors such that
    M = V diag(w) V^dag.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    return EigenSystem(w, v)


def unitary_exp(h, t_us) -> np.ndarray:
    """Propagator U = exp(-i 2pi H t) for H in MHz and t in microseconds.

    `t_us` broadcasts against the stack axes of `h`, so one H and a vector
    of durations give one propagator per duration from one eigendecomposition.
    `h` may also be the `EigenSystem` of H, so that several calls share one
    decomposition.
    """
    t_us = np.asarray(t_us, dtype=float)
    if (t_us < 0).any():  # the method: np.any adds several us of dispatch per call
        raise ContractError(f"negative duration {t_us.min()} us")
    shared = isinstance(h, EigenSystem)
    w, v = h if shared else hermitian_eig(h)
    phases = np.exp(-2j * np.pi * w * t_us[..., None])
    scaled = v * phases[..., None, :]
    # V^dag from v conjugated in place when no caller keeps v: one (stack, d, d)
    # array fewer in flight
    return scaled @ np.conj(v, out=None if shared else v).swapaxes(-1, -2)


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix,
    or of the matrix an `EigenSystem` describes (no decomposition then).

    Eigenvalues in [-PSD_CLIP_TOL, 0) are clipped to zero; anything lower,
    in any matrix of a stack, raises NotPositiveSemidefiniteError.
    """
    w, v = m if isinstance(m, EigenSystem) else hermitian_eig(m)
    low = w[..., 0].min()
    if low < -PSD_CLIP_TOL:
        raise NotPositiveSemidefiniteError(f"minimum eigenvalue {low:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def project_to_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector, or of each vector along the
    last axis, onto the probability simplex.

    Sort descending, zero out entries that would go negative, and spread the
    resulting deficit uniformly over the surviving entries (waterfilling).
    This is the closed-form minimizer of ||x - vals||_2 over {x >= 0, sum x = 1}.
    The shift tau is the largest (sum of the j largest entries - 1) / j: that
    sequence rises while the j-th largest entry survives and falls after.
    """
    vals = np.asarray(vals, dtype=float)
    if not np.isfinite(vals).all():
        raise ContractError("cannot project non-finite values onto the simplex")
    mu = np.sort(vals, axis=-1)[..., ::-1]
    shifts = (np.cumsum(mu, axis=-1) - 1.0) / np.arange(1, vals.shape[-1] + 1)
    return np.clip(vals - shifts.max(axis=-1, keepdims=True), 0.0, None)


def physical_eig(m) -> EigenSystem:
    """Eigensystem of the Frobenius-nearest density matrix (PSD, Hermitian,
    trace one): the eigenvectors of M and its eigenvalues projected onto the
    probability simplex, still ascending.

    The input is hermitized as (M + M^dag)/2 and trace-normalized first. A
    stack is projected with one batched eigendecomposition (Smolin, Gambetta
    and Smith, PRL 108, 070502, 2012).
    """
    m = as_matrix(m)
    m = (m + dagger(m)) / 2.0
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if np.abs(tr).min() < 1e-12:
        raise ContractError("matrix has (near-)zero trace; cannot normalize")
    w, v = np.linalg.eigh(m / tr[..., None, None])
    return EigenSystem(project_to_simplex(w), v)


def compose(es: EigenSystem) -> np.ndarray:
    """The matrix V diag(w) V^dag of an eigensystem, or a stack of them."""
    w, v = es
    return (v * w[..., None, :]) @ dagger(v)


def nearest_physical_density(m) -> np.ndarray:
    """Frobenius-nearest density matrix: `physical_eig` composed."""
    return compose(physical_eig(m))


def kron_all(*ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out
