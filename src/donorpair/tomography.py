"""Two-qubit nuclear state tomography: projection pulses, Stokes-parameter
estimation, linear-inversion density reconstruction, physical projection,
fidelity, concurrence and nonparametric bootstrap confidence intervals.

Conventions: qubit value 0 is spin up, so <Z> of a spin-down qubit is -1.
Probability tables are indexed by the qubit pair (q1, q2) -> 2*q1 + q2.
The module boundary is probabilities; shot sampling lives in the pulse
engine.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ContractError,
    PAULIS,
    dagger,
    nearest_physical_density,
    psd_sqrt,
)

AXES = ("X", "Y", "Z")
AXIS_PAIRS = tuple((a, b) for a in AXES for b in AXES)
PAULI_LABELS = ("I", "X", "Y", "Z")

PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)

_SIGMA_YY = np.kron(PAULIS["Y"], PAULIS["Y"])

# sigma_a (x) sigma_b for a, b in PAULI_LABELS
_PAULI_BASIS = np.array(
    [[np.kron(PAULIS[a], PAULIS[b]) for b in PAULI_LABELS] for a in PAULI_LABELS]
)


def _stokes_signs() -> np.ndarray:
    """(9 pairs, 4 outcomes, 4, 4) weights: S[a, b] is the sum over pairs
    and outcomes of P[pair, outcome] * weight[pair, outcome, a, b]. S[a, b]
    reads the table of its designated axis pair (identity reads the Z table)
    with outcome sign (-1)^q on each non-identity qubit."""
    outcome_sign = {a: np.array([1.0, 1.0 if a == "I" else -1.0]) for a in PAULI_LABELS}
    signs = np.zeros((len(AXIS_PAIRS), 4, 4, 4))
    for ia, a in enumerate(PAULI_LABELS):
        for ib, b in enumerate(PAULI_LABELS):
            pair = AXIS_PAIRS.index(("Z" if a == "I" else a, "Z" if b == "I" else b))
            signs[pair, :, ia, ib] = np.kron(outcome_sign[a], outcome_sign[b])
    return signs


_STOKES_SIGNS = _stokes_signs()


@dataclass
class ProbabilityTable:
    """Outcome probabilities P(q1, q2) for each of the nine axis pairs."""

    pairs: dict

    def __post_init__(self):
        for key, quartet in self.pairs.items():
            arr = np.asarray(quartet, dtype=float)
            if arr.shape != (4,):
                raise ContractError(f"axis pair {key}: expected four outcomes")
            if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
                raise ContractError(f"axis pair {key}: probabilities out of range")
            if abs(arr.sum() - 1.0) > 1e-9:
                raise ContractError(f"axis pair {key}: probabilities sum to {arr.sum()}")
            self.pairs[key] = arr

    def require_complete(self):
        missing = [p for p in AXIS_PAIRS if p not in self.pairs]
        if missing:
            raise ContractError(f"missing axis pairs: {missing}")


def mean_table(tables) -> ProbabilityTable:
    tables = list(tables)
    pairs = {}
    for key in tables[0].pairs:
        pairs[key] = np.mean([t.pairs[key] for t in tables], axis=0)
    return ProbabilityTable(pairs)


def stokes_from_probabilities(table) -> np.ndarray:
    """16 Stokes parameters S[a, b], a, b in (I, X, Y, Z), from the signed
    outcome sums of the designated axis-pair tables (identity reads the Z
    table with the outcome sign dropped); S[I, I] is one by normalization.

    A ProbabilityTable gives one (4, 4) array; a sequence of tables gives a
    (tables, 4, 4) stack.
    """
    single = isinstance(table, ProbabilityTable)
    tables = [table] if single else list(table)
    for tab in tables:
        tab.require_complete()
    probs = np.array([[tab.pairs[pair] for pair in AXIS_PAIRS] for tab in tables])
    s = np.tensordot(probs, _STOKES_SIGNS, axes=2)
    return s[0] if single else s


def density_from_stokes(stokes: np.ndarray) -> np.ndarray:
    """Linear inversion rho = (1/4) sum_ab S_ab sigma_a (x) sigma_b, for one
    (4, 4) Stokes array or a stack of them along leading axes.

    Hermitian with unit trace; not necessarily positive semidefinite.
    """
    stokes = np.asarray(stokes, dtype=float)
    if np.abs(stokes[..., 0, 0] - 1.0).max() > 1e-9:
        raise ContractError("S[I, I] must equal one")
    return np.tensordot(stokes, _PAULI_BASIS, axes=2) / 4.0


def _scalar_or_stack(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def fidelity(rho: np.ndarray, psi: np.ndarray):
    """State fidelity <psi| rho |psi> against a pure target: a float for one
    state, an array for a stack of states along leading axes."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if rho.shape[-1] != psi.shape[0]:
        raise ContractError("dimension mismatch between state and target")
    return _scalar_or_stack(np.real(psi.conj() @ rho @ psi))


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y (x) sigma_y) conj(rho) (sigma_y (x) sigma_y), with the
    elementwise complex conjugate; stacks map matrix by matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ContractError("spin flip is defined for two-qubit states")
    return _SIGMA_YY @ rho.conj() @ _SIGMA_YY


def concurrence(rho: np.ndarray, discriminant_tol: float = 1e-10):
    """Entanglement monotone max(0, l1 - l2 - l3 - l4) with l_i the ordered
    eigenvalues of R = sqrt(sqrt(rho) rho_tilde sqrt(rho)): a float for one
    state, an array for a stack of states along leading axes.

    Discriminants (eigenvalues under the square root) within the tolerance of
    zero are clipped before the root: the square root otherwise amplifies
    double-precision noise on rank-deficient states to the 1e-8 scale.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ContractError("concurrence is defined for two-qubit states")
    low = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[..., 0]
    lowest = low.min()
    if lowest < -1e-3:
        raise ContractError(f"input violates positivity beyond rounding: {lowest:.2e}")
    if lowest < 0:
        # reconstructed matrices arrive with rounding-level negative
        # eigenvalues; project those onto the physical set first
        negative = low < 0
        rho = rho.copy()
        rho[negative] = nearest_physical_density(rho[negative])
    root = psd_sqrt(rho)
    inner = root @ spin_flip(rho) @ root
    disc = np.linalg.eigvalsh((inner + dagger(inner)) / 2.0)
    disc = np.where(disc < discriminant_tol, 0.0, disc)
    lam = np.sort(np.sqrt(disc), axis=-1)  # ascending
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return _scalar_or_stack(np.maximum(0.0, c))


def _statistic_fn(statistic, target):
    """The statistic as a function of a stack of states."""
    if callable(statistic):
        return lambda rhos: np.array([statistic(rho) for rho in rhos], dtype=float)
    if statistic == "fidelity":
        return lambda rhos: fidelity(rhos, target)
    if statistic == "concurrence":
        return concurrence
    raise ContractError(f"unknown statistic {statistic!r}")


def _bootstrap_states(groups, n_resamples: int, seed: int) -> np.ndarray:
    """(n_resamples, 4, 4) physical states, one per resample of the groups.

    Resample k draws len(groups) group indices with replacement from the
    SeedSequence([seed, k]) stream. Stokes parameters are linear in the
    tables, so each resample's Stokes array is the count-weighted mean of the
    per-group arrays; the stack is inverted and projected in one pass.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ContractError("bootstrap needs at least two groups")
    if n_resamples < 100:
        warnings.warn(f"{n_resamples} resamples is too few for stable percentiles")
    n = len(groups)
    counts = np.zeros((n_resamples, n))
    for k in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        counts[k] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    group_stokes = stokes_from_probabilities(groups).reshape(n, 16)
    stokes = (counts @ group_stokes).reshape(n_resamples, 4, 4) / n
    return nearest_physical_density(density_from_stokes(stokes))


def _percentile_ci(stats: np.ndarray) -> tuple[float, float]:
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def bootstrap_ci(
    groups,
    n_resamples: int,
    statistic="fidelity",
    seed: int = 0,
    target: np.ndarray = PSI_PLUS,
):
    """Nonparametric bootstrap over measurement groups.

    Resamples the group list with replacement, reconstructs the physical
    state of every resample as one stack (see `_bootstrap_states`), and
    returns the 2.5 and 97.5 percentiles (linear interpolation) of the
    statistic plus the resample statistics. `statistic` is "fidelity"
    (against `target`), "concurrence", or a function of one state.
    """
    fn = _statistic_fn(statistic, target)
    stats = fn(_bootstrap_states(groups, n_resamples, seed))
    return (*_percentile_ci(stats), stats)


@dataclass
class DensityEstimate:
    """Reconstruction output: raw linear inversion, its physical projection,
    the derived fidelity/concurrence and bootstrap percentile intervals."""

    raw: np.ndarray
    physical: np.ndarray
    fidelity: float
    concurrence: float
    ci: dict = field(default_factory=dict)
    stokes: np.ndarray | None = None

    def to_json(self) -> str:
        # bounds not computed (no sampled groups) are written as null
        fid = self.ci.get("fidelity", (None, None))
        conc = self.ci.get("concurrence", (None, None))
        payload = {
            "re": np.real(self.physical).tolist(),
            "im": np.imag(self.physical).tolist(),
            "fidelity": self.fidelity,
            "concurrence": self.concurrence,
            "ci": {"lo": fid[0], "hi": fid[1]},
            "ci_concurrence": {"lo": conc[0], "hi": conc[1]},
        }
        return json.dumps(payload, indent=2)


def sample_table(exact: ProbabilityTable, n_shots: int, rng) -> ProbabilityTable:
    """Finite-shot empirical table: multinomial per axis pair."""
    pairs = {}
    for key in AXIS_PAIRS:
        p = np.clip(exact.pairs[key], 0.0, None)
        counts = rng.multinomial(n_shots, p / p.sum())
        pairs[key] = counts / n_shots
    return ProbabilityTable(pairs)


def sequence_table(
    params,
    prep_steps,
    mode: str = "GATE_MODEL",
    noise=None,
    engine=None,
) -> ProbabilityTable:
    """Exact nine-basis outcome table of a preparation sequence.

    Appends the per-nucleus projection pulses and a joint Z readout to the
    preparation steps and collects the probability-level outcome
    distribution for every axis pair. Projection pulses are conditional
    nuclear gates, so initialization errors distort them faithfully.
    """
    from . import pulses  # deferred: tomography is importable standalone

    pairs = {}
    for a1, a2 in AXIS_PAIRS:
        steps = list(prep_steps)
        steps.append(pulses.ProjectStep("n1", a1))
        steps.append(pulses.ProjectStep("n2", a2))
        steps.append(pulses.MeasureStep(("n1", "n2")))
        res = pulses.run_sequence(steps, params, noise=noise, mode=mode, shots=0, engine=engine)
        quartet = np.zeros(4)
        for (o1, o2), prob in res.outcome_probabilities.items():
            q1, q2 = 1 - o1, 1 - o2  # outcome 1 = up = qubit 0
            quartet[2 * q1 + q2] = max(prob, 0.0)
        quartet = quartet / quartet.sum()
        pairs[(a1, a2)] = quartet
    return ProbabilityTable(pairs)


def tomography_pipeline(
    source: ProbabilityTable,
    n_shots_per_axis: int = 0,
    n_groups: int = 5,
    n_resamples: int = 1000,
    seed: int = 0,
    target: np.ndarray = PSI_PLUS,
) -> DensityEstimate:
    """Probabilities -> Stokes -> raw density -> physical projection ->
    fidelity/concurrence with bootstrap confidence intervals.

    `source` is the ProbabilityTable of exact outcome probabilities. With
    ``n_shots_per_axis == 0`` it is used directly (no randomness); otherwise
    `n_groups` empirical tables are sampled from counter-based per-group
    streams and averaged, mirroring the grouped acquisition used for error
    bars. The bootstrap reconstructs and projects its resamples once, as one
    stack, and both intervals are read from that stack.
    """
    source.require_complete()

    if n_shots_per_axis > 0:
        groups = [
            sample_table(
                source, n_shots_per_axis, np.random.default_rng(np.random.SeedSequence([seed, g]))
            )
            for g in range(n_groups)
        ]
        pooled = mean_table(groups)
    else:
        groups = None
        pooled = source

    stokes = stokes_from_probabilities(pooled)
    raw = density_from_stokes(stokes)
    physical = nearest_physical_density(raw)
    est = DensityEstimate(
        raw=raw,
        physical=physical,
        fidelity=fidelity(physical, target),
        concurrence=concurrence(physical),
        stokes=stokes,
    )
    if groups is not None:
        states = _bootstrap_states(groups, n_resamples, seed)
        for name in ("fidelity", "concurrence"):
            est.ci[name] = _percentile_ci(_statistic_fn(name, target)(states))
    return est
