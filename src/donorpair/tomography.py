"""Two-qubit nuclear state tomography: projection pulses, Stokes-parameter
estimation, linear-inversion density reconstruction, physical projection,
fidelity, concurrence and nonparametric bootstrap confidence intervals.

Conventions: qubit value 0 is spin up, so <Z> of a spin-down qubit is -1.
A probability table is a (9, 4) float array: one row per axis pair in
`AXIS_PAIRS` order, and in each row the outcome (q1, q2) at column
2*q1 + q2. A stack of tables is a (..., 9, 4) array.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ContractError,
    EigenSystem,
    PAULIS,
    compose,
    dagger,
    hermitian_eig,
    physical_eig,
    project_to_simplex,
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


def mean_table(tables) -> np.ndarray:
    """Pooled (9, 4) table: the mean of a (groups, 9, 4) stack of tables."""
    return np.mean(tables, axis=0)


def stokes_from_probabilities(tables) -> np.ndarray:
    """16 Stokes parameters S[a, b], a, b in (I, X, Y, Z), from the signed
    outcome sums of the designated axis-pair rows (identity reads the ZZ
    row with the outcome sign dropped); S[I, I] is one by normalization.

    One (9, 4) table gives one (4, 4) array; a (..., 9, 4) stack gives a
    (..., 4, 4) stack. Every row must hold four probabilities in [0, 1]
    that sum to one, each to 1e-9.
    """
    probs = np.asarray(tables, dtype=float)
    if probs.shape[-2:] != (len(AXIS_PAIRS), 4):
        raise ContractError(f"expected (..., 9, 4) tables in AXIS_PAIRS order, not shape {probs.shape}")
    ok = np.all(np.abs(probs - 0.5) <= 0.5 + 1e-9, axis=-1) & (np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)
    if not ok.all():
        *table, pair = bad = np.argwhere(~ok)[0]
        row, where = probs[tuple(bad)], f"table {tuple(map(int, table))}, " if table else ""
        raise ContractError(
            f"{where}axis pair {AXIS_PAIRS[pair]}: "
            f"probabilities {row.tolist()} must lie in [0, 1] and sum to one (sum {row.sum()})"
        )
    return np.tensordot(probs, _STOKES_SIGNS, axes=2)


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


def concurrence(rho):
    """Wootters' entanglement monotone max(0, l1 - l2 - l3 - l4) (PRL 80,
    2245, 1998): a float for one state, an array for a stack of states along
    leading axes. The l_i, descending, are the square roots of the
    eigenvalues of R rho~ R, with R = sqrt(rho) and the spin flip
    rho~ = S rho* S, S = sigma_y (x) sigma_y. S is real and R* R* = rho*, so
    R rho~ R = X X^dag with X = R S R*: the l_i are the singular values of X.

    `rho` may also be the `EigenSystem` of the state or stack, such as
    `physical_eig` returns; a matrix is decomposed once. A state with a
    negative eigenvalue (rounding, down to -1e-3) has its eigenvalues
    re-projected onto the probability simplex, on the same eigenvectors.
    """
    w, v = rho if isinstance(rho, EigenSystem) else hermitian_eig(rho)
    if v.shape[-2:] != (4, 4):
        raise ContractError("concurrence is defined for two-qubit states")
    lowest = w[..., 0].min()
    if lowest < -1e-3:
        raise ContractError(f"input violates positivity beyond rounding: {lowest:.2e}")
    if lowest < 0:
        negative = w[..., 0] < 0
        w = w.copy()
        w[negative] = project_to_simplex(w[negative] / w[negative].sum(axis=-1, keepdims=True))
    root = psd_sqrt(EigenSystem(w, v))
    lam = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)  # descending
    return _scalar_or_stack(np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)))


# statistics of an eigensystem or stack; each looks its function up when
# called, so a wrapper put on the module attribute (benchmarks/tracing.py) runs
_STATISTICS = {
    "fidelity": lambda states: fidelity(compose(states), PSI_PLUS),
    "concurrence": lambda states: concurrence(states),
}


# numpy's SeedSequence hash constants, and the 128-bit PCG64 multiplier as
# (high, low) 64-bit limbs
_MASK32 = 0xFFFFFFFF
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_LOW32, _U32 = np.uint64(_MASK32), np.uint64(32)


def _hash_consts(const: int, mult: int):
    """SeedSequence's hash constant before and after each multiply."""
    while True:
        yield const, (const := const * mult & _MASK32)


def _hashmix(word: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    word = (word ^ np.uint32(xor)) * np.uint32(mult)
    return word ^ word >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return x ^ x >> np.uint32(16)


def _seed_words(seed: int, n_resamples: int) -> list:
    """SeedSequence([seed, k]).generate_state(4, uint64) for every
    k < n_resamples: four uint64 arrays, hashed in uint32 arithmetic. The
    entropy is the seed's little-endian 32-bit words (0 gives [0]) followed
    by k; the pool holds four words."""
    seed = int(seed)
    words = [seed >> b & _MASK32 for b in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n_resamples, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n_resamples, dtype=np.uint32))
    entropy += [np.zeros(n_resamples, dtype=np.uint32)] * (4 - len(entropy))
    consts = _hash_consts(_HASH_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_HASH_B, _MULT_B)
    state = [_hashmix(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    return [state[2 * j] | state[2 * j + 1] << _U32 for j in range(4)]


def _mul_wide(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit limbs of the full 128-bit product of uint64 a and
    b, from their 32-bit halves."""
    a_hi, a_lo = a >> _U32, a & _LOW32
    b_hi, b_lo = b >> _U32, b & _LOW32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)  # below 3 * 2**32
    return a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), mid << _U32 | ll & _LOW32


def _add_wide(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on (high, low) uint64 limbs: the low sum wraps below
    a's low limb exactly when it carries."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _pcg_step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, state * _PCG_MULT + inc mod 2**128, on (high, low)
    limbs. uint64 products wrap mod 2**64, so of the three products that
    reach the high limb only low * low needs its carry."""
    (hi, lo), (m_hi, m_lo) = state, _PCG_MULT
    p_hi, p_lo = _mul_wide(lo, m_lo)
    return _add_wide((p_hi + lo * m_hi + hi * m_lo, p_lo), inc)


def _lemire_rejected(leftover: np.ndarray, n_groups: int) -> np.ndarray:
    """Rows of (resamples, groups) Lemire leftovers holding a draw that
    numpy rejects and redraws: a leftover below 2**32 mod n_groups."""
    return (leftover < np.uint64((1 << 32) % n_groups)).any(axis=1)


def _resample_counts(n_groups: int, n_resamples: int, seed: int) -> np.ndarray:
    """(n_resamples, n_groups) int counts. Row k is
    np.bincount(default_rng(SeedSequence([seed, k])).integers(0, n_groups,
    size=n_groups)), bit for bit, with every k computed at once.

    The steps are numpy's: the SeedSequence pool hash and its
    generate_state(4, uint64) in uint32 arithmetic; PCG64 seeding (state 0,
    inc = (initseq << 1) | 1, step, add initstate, step) and its XSL-RR
    output (O'Neill 2014) on (high, low) uint64 limbs of the 128-bit state,
    each 64-bit output giving its low 32 bits first; and Lemire's
    multiply-shift for the bounded draws (ACM TOMACS 29, 2019). A row in
    which Lemire would reject a draw (about one in 1e9 for five groups) is
    redrawn from its own generator.
    """
    w = _seed_words(seed, n_resamples)
    inc = (w[2] << np.uint64(1) | w[3] >> np.uint64(63), w[3] << np.uint64(1) | np.uint64(1))
    state = _pcg_step(_add_wide(inc, (w[0], w[1])), inc)
    draws = []
    for _ in range((n_groups + 1) // 2):  # two 32-bit draws per 64-bit output
        state = hi, lo = _pcg_step(state, inc)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
        draws += [out & _LOW32, out >> _U32]
    m = np.stack(draws[:n_groups], axis=1) * np.uint64(n_groups)
    picks = (m >> _U32).astype(np.intp) + n_groups * np.arange(n_resamples)[:, None]
    counts = np.bincount(picks.ravel(), minlength=n_resamples * n_groups).reshape(n_resamples, n_groups)
    for k in np.flatnonzero(_lemire_rejected(m & _LOW32, n_groups)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(k)]))
        counts[k] = np.bincount(rng.integers(0, n_groups, size=n_groups), minlength=n_groups)
    return counts


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first occurrence, in lexicographic
    row order, and every row's index among them: the index and inverse of
    np.unique(counts, axis=0), from one stable lexsort of the columns."""
    order = np.lexsort(counts.T[::-1])
    ranked = counts[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


_INVERT_ROWS = 128  # rows per inversion call, see `_bootstrap_states`


def _bootstrap_states(groups, n_resamples: int, seed: int) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystems of the physical states of the distinct resamples of the
    groups (`physical_eig`), and the (n_resamples,) index of each resample's
    state among them. A statistic of the states, expanded by that index, has
    the bits of the statistic of the expanded stack.

    Resample k draws len(groups) group indices with replacement from the
    unchanged stream SeedSequence([seed, k]) -> PCG64 -> integers(0, n, n),
    now computed for every k at once (`_resample_counts`). Stokes parameters
    are linear in the tables, so each resample's Stokes array is the
    count-weighted mean of the per-group arrays, formed for the whole stack
    so that a row's bits do not depend on the other rows. Each distinct count
    vector (at most C(2n-1, n) of them, found by `_distinct_rows`) is
    inverted and projected once. The projection's eigensystem is returned
    rather than the composed states, so that `concurrence` takes its root
    from it: a distinct resample costs one 4x4 eigendecomposition, the
    projection, and the concurrence's one 4x4 SVD. The inversion and the
    fidelity's vector product give a row the same bits in any stack of two
    or more rows, so a lone distinct row among several resamples is kept as
    two, and the distinct rows are inverted in near-equal chunks of at most
    128 rows (at most 126 distinct rows for five groups make one chunk). That
    keeps OpenBLAS's complex product on the calling thread: a product of
    several hundred rows wakes a worker thread that keeps spinning after the
    call returns.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ContractError("bootstrap needs at least two groups")
    if n_resamples < 100:
        warnings.warn(f"{n_resamples} resamples is too few for stable percentiles")
    n = len(groups)
    counts = _resample_counts(n, n_resamples, seed)
    group_stokes = stokes_from_probabilities(groups).reshape(n, 16)
    stokes = (counts.astype(float) @ group_stokes).reshape(n_resamples, 4, 4) / n
    first, inverse = _distinct_rows(counts)
    # numpy multiplies a one-row stack by its vector kernel, which rounds
    # otherwise than the matrix kernel of a taller stack
    rows = first.repeat(2) if len(first) == 1 < n_resamples else first
    # near-equal chunks of two or more rows each, unless rows is one row
    chunks = np.array_split(rows, -(-len(rows) // _INVERT_ROWS))
    raw = np.concatenate([density_from_stokes(stokes[chunk]) for chunk in chunks])
    return physical_eig(raw), inverse


def _percentile_ci(stats: np.ndarray) -> tuple[float, float]:
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def bootstrap_ci(groups, n_resamples: int, statistic="fidelity", seed: int = 0):
    """Nonparametric bootstrap over measurement groups.

    Resamples the group list with replacement, from the unchanged streams
    SeedSequence([seed, k]) -> PCG64 -> integers(0, n, n) computed for every
    resample k at once in uint64 arithmetic (see `_resample_counts`),
    reconstructs the physical state of each distinct resample once, at most
    128 at a time (see `_bootstrap_states`), and returns the 2.5 and 97.5
    percentiles (linear interpolation) of the statistic plus the
    `n_resamples` resample statistics. `statistic` is a key of
    `_STATISTICS`, "fidelity" (against PSI_PLUS) or "concurrence"; only that
    one is evaluated, on the eigensystems, once per distinct resample. A
    distinct resample costs one 4x4 eigh and, for the concurrence, one SVD.
    """
    if statistic not in _STATISTICS:
        raise ContractError(f"unknown statistic {statistic!r}")
    states, inverse = _bootstrap_states(groups, n_resamples, seed)
    stats = _STATISTICS[statistic](states)[inverse]
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


def sample_table(exact: np.ndarray, n_shots: int, rng) -> np.ndarray:
    """Finite-shot empirical (9, 4) table: one multinomial draw of `n_shots`
    per row of the exact (9, 4) table."""
    p = np.clip(exact, 0.0, None)
    return rng.multinomial(n_shots, p / p.sum(axis=-1, keepdims=True)) / n_shots


def sequence_table(
    params,
    prep_steps,
    mode: str = "GATE_MODEL",
    noise=None,
    engine=None,
) -> np.ndarray:
    """Exact (9, 4) outcome table of a preparation sequence.

    Propagates the preparation once, then for each axis pair applies the
    projection pulses of n1 and n2 and reads the joint Z populations of the
    nuclei as a `MeasureStep` does (`pulses.nuclear_populations`). Projection
    pulses are conditional nuclear gates, so initialization errors distort
    them faithfully.
    """
    from . import pulses  # deferred: tomography is importable standalone

    engine = engine or pulses.engine_for(params)
    rho = pulses.run_sequence(prep_steps, params, noise=noise, mode=mode, engine=engine).final_state
    t1, t2 = (np.array([engine.step_unitary(pulses.ProjectStep(s, a), mode) for a in AXES]) for s in ("n1", "n2"))
    # n1's tail on every axis, then n2's on every axis: the (3, 3) pairs in
    # AXIS_PAIRS order, each product associated as in a replay of the steps
    after_n1 = t1 @ rho @ dagger(t1)
    states = t2 @ after_n1[:, None] @ dagger(t2)
    table = np.maximum(pulses.nuclear_populations(states.reshape(len(AXIS_PAIRS), *rho.shape)), 0.0)
    return table / table.sum(axis=-1, keepdims=True)


def tomography_pipeline(
    source: np.ndarray,
    n_shots_per_axis: int = 0,
    n_groups: int = 5,
    n_resamples: int = 1000,
    seed: int = 0,
) -> DensityEstimate:
    """Probabilities -> Stokes -> raw density -> physical projection ->
    fidelity (against PSI_PLUS) and concurrence, with bootstrap confidence
    intervals.

    `source` is the (9, 4) table of exact outcome probabilities. With
    ``n_shots_per_axis == 0`` it is used directly (no randomness); otherwise
    `n_groups` empirical (9, 4) tables are sampled from counter-based
    per-group streams and averaged, mirroring the grouped acquisition used
    for error bars. The bootstrap draws its resamples from the unchanged
    streams SeedSequence([seed, k]) -> PCG64 -> integers(0, n, n), computed
    for every k at once in uint64 arithmetic; it reconstructs and projects
    each distinct resample once, at most 128 at a time, and evaluates both
    `_STATISTICS` once per distinct resample. The pooled state and each
    distinct resample take one 4x4 eigh, the projection (`physical_eig`),
    whose eigensystem also gives the concurrence its root, and one 4x4 SVD,
    the concurrence's singular values.
    """
    stokes = stokes_from_probabilities(source)  # checks the source before sampling from it
    groups = None
    if n_shots_per_axis > 0:
        groups = [
            sample_table(
                source, n_shots_per_axis, np.random.default_rng(np.random.SeedSequence([seed, g]))
            )
            for g in range(n_groups)
        ]
        stokes = stokes_from_probabilities(mean_table(groups))
    raw = density_from_stokes(stokes)
    pooled = physical_eig(raw)
    physical = compose(pooled)
    est = DensityEstimate(raw, physical, fidelity(physical, PSI_PLUS), concurrence(pooled))
    if groups is not None:
        states, inverse = _bootstrap_states(groups, n_resamples, seed)
        for name, stat in _STATISTICS.items():
            est.ci[name] = _percentile_ci(stat(states)[inverse])
    return est
