import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import pulses as pl
from donorpair import tomography as tm
from donorpair.linalg import (
    PAULIS,
    ContractError,
    EigenSystem,
    NotPositiveSemidefiniteError,
    compose,
    nearest_physical_density,
    physical_eig,
    project_to_simplex,
    psd_sqrt,
)
from donorpair.spinmodel import SystemParams

from conftest import random_density, random_hermitian, random_unitary
from oracles import bloch_vector, replayed_sequence_table, resample_counts, stokes_of_density, table_from_state

PSI_PLUS = tm.PSI_PLUS


def bell_rho():
    return np.outer(PSI_PLUS, PSI_PLUS.conj())


@pytest.fixture(scope="module")
def params():
    return SystemParams()


class TestTableChecks:
    """`stokes_from_probabilities` checks every (9, 4) table it is given."""

    def test_rejects_bad_sum(self):
        table = np.tile([0.5, 0.5, 0.1, 0.0], (9, 1))
        with pytest.raises(ContractError, match="sum to one"):
            tm.stokes_from_probabilities(table)

    def test_missing_pair_rejected(self):
        zz_only = np.array([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ContractError, match="shape"):
            tm.stokes_from_probabilities(zz_only)

    def test_out_of_range_row_rejected(self):
        table = table_from_state(bell_rho())
        table[4] = [1.5, -0.5, 0.0, 0.0]  # sums to one, but outside [0, 1]
        with pytest.raises(ContractError, match="\\('Y', 'Y'\\)"):
            tm.stokes_from_probabilities(table)

    def test_stack_with_one_bad_table_rejected(self):
        stack = np.array([table_from_state(bell_rho())] * 4)
        assert tm.stokes_from_probabilities(stack).shape == (4, 4, 4)
        stack[2, 0, 0] += 1e-6
        with pytest.raises(ContractError, match="table \\(2,\\), axis pair \\('X', 'X'\\)"):
            tm.stokes_from_probabilities(stack)

    def test_pipeline_checks_source_before_sampling(self):
        table = table_from_state(bell_rho())
        table[8] = [2.0, 0.0, 0.0, 0.0]  # sampling alone would renormalize it
        with pytest.raises(ContractError, match="\\('Z', 'Z'\\)"):
            tm.tomography_pipeline(table, n_shots_per_axis=100, n_resamples=100)


class TestStokes:
    def test_down_down_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0  # both qubits |1> = spin down
        s = tm.stokes_from_probabilities(table_from_state(rho))
        labels = tm.PAULI_LABELS
        assert s[labels.index("Z"), labels.index("Z")] == pytest.approx(1.0)
        assert s[labels.index("Z"), labels.index("I")] == pytest.approx(-1.0)
        assert s[labels.index("I"), labels.index("Z")] == pytest.approx(-1.0)
        for a in ("X", "Y"):
            assert np.allclose(s[labels.index(a), :], [0, 0, 0, 0], atol=1e-12)

    def test_bell_state_signature(self):
        s = tm.stokes_from_probabilities(table_from_state(bell_rho()))
        lab = tm.PAULI_LABELS
        assert s[lab.index("X"), lab.index("X")] == pytest.approx(1.0)
        assert s[lab.index("Y"), lab.index("Y")] == pytest.approx(1.0)
        assert s[lab.index("Z"), lab.index("Z")] == pytest.approx(-1.0)
        assert s[lab.index("X"), lab.index("I")] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        s = tm.stokes_from_probabilities(table_from_state(np.eye(4) / 4))
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(s, expect, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_trace_oracle(self, seed):
        rho = random_density(np.random.default_rng(seed), 4)
        via_probs = tm.stokes_from_probabilities(table_from_state(rho))
        direct = stokes_of_density(rho)
        assert np.max(np.abs(via_probs - direct)) < 1e-12


class TestDensityFromStokes:
    def test_identity_only(self):
        s = np.zeros((4, 4))
        s[0, 0] = 1.0
        assert np.allclose(tm.density_from_stokes(s), np.eye(4) / 4)

    def test_bell_exact(self):
        s = stokes_of_density(bell_rho())
        assert np.max(np.abs(tm.density_from_stokes(s) - bell_rho())) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_linear_inversion_round_trip(self, seed):
        rho = random_density(np.random.default_rng(seed), 4)
        s = tm.stokes_from_probabilities(table_from_state(rho))
        assert np.max(np.abs(tm.density_from_stokes(s) - rho)) < 1e-12

    def test_requires_normalized_identity(self):
        s = np.zeros((4, 4))
        s[0, 0] = 0.9
        with pytest.raises(ContractError):
            tm.density_from_stokes(s)


class TestProjectionPulse:
    def test_axis_conventions(self):
        gx = pl.projection_gate("n1", "X")
        assert (gx.theta, gx.phase) == (math.pi / 2, math.pi / 2)
        gy = pl.projection_gate("n1", "Y")
        assert (gy.theta, gy.phase) == (math.pi / 2, 0.0)
        with pytest.raises(ContractError):
            pl.projection_gate("n1", "Z")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bloch_vector_reconstruction(self, params, seed):
        # arbitrary pure qubit state on n1: projections recover its Bloch vector
        rng = np.random.default_rng(seed)
        theta, phi = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
        prep = [
            pl.InitStep(),
            pl.GateStep("n1", theta, phi),
        ]
        res = pl.run_sequence(prep, params, mode=pl.GATE_MODEL)
        want = bloch_vector(res.final_state, "n1")
        got = []
        for axis in ("X", "Y", "Z"):
            steps = list(prep)
            if axis != "Z":
                steps.append(pl.ProjectStep("n1", axis))
            steps.append(pl.MeasureStep(("n1",)))
            out = pl.run_sequence(steps, params, mode=pl.GATE_MODEL)
            p_up = out.outcome_probabilities.get((1,), 0.0)
            got.append(2 * p_up - 1)
        assert np.allclose(got, want, atol=1e-6)


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        assert tm.fidelity(bell_rho(), PSI_PLUS) == pytest.approx(1.0)

    def test_maximally_mixed_quarter(self):
        assert tm.fidelity(np.eye(4) / 4, PSI_PLUS) == pytest.approx(0.25)

    def test_published_matrix(self, published_bell_matrix):
        # (0.3463 + 0.4503 + 2 * 0.3733) / 2
        f = tm.fidelity(published_bell_matrix, PSI_PLUS)
        assert f == pytest.approx(0.7716, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            tm.fidelity(np.eye(4) / 4, np.array([1.0, 0.0]))


class TestConcurrence:
    def test_bell_states_unity(self):
        for vec in ([0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1]):
            psi = np.array(vec) / math.sqrt(2)
            assert tm.concurrence(np.outer(psi, psi.conj())) == pytest.approx(1.0)

    def test_separable_states_zero(self, rng):
        for _ in range(5):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            assert tm.concurrence(np.kron(a, b)) == pytest.approx(0.0, abs=1e-9)
        assert tm.concurrence(np.eye(4) / 4) == 0.0

    def test_werner_line(self):
        psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
        for p in (0.2, 0.4, 0.6, 0.9):
            rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
            assert tm.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)

    @pytest.mark.parametrize("corner", [1e-6, 5e-6, 1e-4])
    def test_x_state_closed_form(self, corner):
        # X state: C = 2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33))
        # (Yu and Eberly, QIC 7, 459, 2007); Wootters eigenvalues below 1e-5 count
        rho = np.diag([corner, 0.5 - corner, 0.5 - corner, corner]).astype(complex)
        rho[1, 2] = rho[2, 1] = 0.4
        exact = 2 * max(0.0, 0.4 - math.sqrt(corner * corner), 0.0 - math.sqrt((0.5 - corner) ** 2))
        assert abs(tm.concurrence(rho) - exact) < 1e-12
        assert abs(tm.concurrence(physical_eig(rho)) - exact) < 1e-12
        assert abs(_ref_concurrence(rho) - exact) < 1e-12

    def test_published_matrix_value(self, published_bell_matrix):
        # standard Wootters form on the published (rounded) reconstruction
        assert tm.concurrence(published_bell_matrix) == pytest.approx(0.608, abs=2e-3)

    @given(st.integers(0, 2**32 - 1))
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(tm.concurrence(rho) - tm.concurrence(rotated)) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    def test_bounded(self, seed):
        rho = random_density(np.random.default_rng(seed), 4)
        assert 0.0 <= tm.concurrence(rho) <= 1.0 + 1e-12

    def test_grossly_unphysical_rejected(self):
        with pytest.raises(ContractError):
            tm.concurrence(np.diag([1.5, 0.0, 0.0, -0.5]))


class TestBootstrap:
    def make_groups(self, params, n=5, p_up=0.0):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=p_up))
        return [tab] * n

    def test_identical_groups_zero_width(self, params):
        groups = self.make_groups(params)
        lo, hi, _ = tm.bootstrap_ci(groups, 200, "fidelity", seed=0)
        assert hi - lo == pytest.approx(0.0, abs=1e-12)

    def test_seed_reproducible(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.1))
        rng = np.random.default_rng(42)
        groups = [tm.sample_table(tab, 100, rng) for _ in range(5)]
        a = tm.bootstrap_ci(groups, 250, "fidelity", seed=9)
        b = tm.bootstrap_ci(groups, 250, "fidelity", seed=9)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])

    def test_width_shrinks_with_group_count(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.1))
        rng = np.random.default_rng(7)
        small = [tm.sample_table(tab, 200, rng) for _ in range(4)]
        large = [tm.sample_table(tab, 200, rng) for _ in range(16)]
        lo_s, hi_s, _ = tm.bootstrap_ci(small, 300, "fidelity", seed=1)
        lo_l, hi_l, _ = tm.bootstrap_ci(large, 300, "fidelity", seed=1)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_few_resamples_warns(self, params):
        groups = self.make_groups(params)
        with pytest.warns(UserWarning):
            tm.bootstrap_ci(groups, 50, "fidelity", seed=0)

    def test_needs_two_groups(self, params):
        with pytest.raises(ContractError):
            tm.bootstrap_ci(self.make_groups(params, n=1), 200, "fidelity")

    def test_unknown_statistic(self, params):
        with pytest.raises(ContractError, match="unknown statistic"):
            tm.bootstrap_ci(self.make_groups(params), 200, "purity")

    @pytest.mark.parametrize("statistic, other", [("fidelity", "concurrence"), ("concurrence", "fidelity")])
    def test_evaluates_only_the_statistic_asked_for(self, params, monkeypatch, statistic, other):
        calls = {statistic: 0, other: 0}
        for name in calls:

            def spy(*args, original=getattr(tm, name), name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(tm, name, spy)
        tm.bootstrap_ci(self.make_groups(params), 200, statistic)
        assert calls == {statistic: 1, other: 0}


# Reference for the stacked bootstrap: the per-resample loop and the
# single-matrix kernels it ran on (mean table -> Stokes sums -> 16 Kronecker
# products -> eigh and waterfilling per resample).


def _ref_stokes(table):
    s = np.zeros((4, 4))
    for ia, a in enumerate(tm.PAULI_LABELS):
        for ib, b in enumerate(tm.PAULI_LABELS):
            quartet = table[tm.AXIS_PAIRS.index(("Z" if a == "I" else a, "Z" if b == "I" else b))]
            total = 0.0
            for q1 in (0, 1):
                for q2 in (0, 1):
                    sign1 = 1.0 if (a == "I" or q1 == 0) else -1.0
                    sign2 = 1.0 if (b == "I" or q2 == 0) else -1.0
                    total += sign1 * sign2 * quartet[2 * q1 + q2]
            s[ia, ib] = total
    return s


def _ref_density(stokes):
    rho = np.zeros((4, 4), dtype=complex)
    for ia, a in enumerate(tm.PAULI_LABELS):
        for ib, b in enumerate(tm.PAULI_LABELS):
            rho += stokes[ia, ib] * np.kron(PAULIS[a], PAULIS[b])
    return rho / 4.0


def _ref_simplex(vals):
    mu = np.sort(vals)[::-1]
    shifted = mu - (np.cumsum(mu) - 1.0) / np.arange(1, len(vals) + 1)
    k = int(np.nonzero(shifted > 0)[0][-1]) + 1
    return np.clip(vals - (np.cumsum(mu)[k - 1] - 1.0) / k, 0.0, None)


def _ref_physical(m):
    m = (m + m.conj().T) / 2.0
    m = m / np.trace(m).real
    w, v = np.linalg.eigh(m)
    return (v * _ref_simplex(w)) @ v.conj().T


def _ref_sqrt(rho):
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _ref_concurrence(rho):
    # Uhlmann's form: the Wootters eigenvalues are the singular values of
    # sqrt(rho) sqrt(rho~), each root from its own eigh, with no clip
    rho = (rho + rho.conj().T) / 2.0
    if np.min(np.linalg.eigvalsh(rho)) < 0:
        rho = _ref_physical(rho)
    yy = np.kron(PAULIS["Y"], PAULIS["Y"])
    lam = np.linalg.svd(_ref_sqrt(rho) @ _ref_sqrt(yy @ rho.conj() @ yy), compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _ref_bootstrap_stats(groups, n_resamples, statistic, seed):
    stat = {"fidelity": lambda rho: tm.fidelity(rho, PSI_PLUS), "concurrence": _ref_concurrence}[statistic]
    stats = np.zeros(n_resamples)
    for k in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        pick = rng.integers(0, len(groups), size=len(groups))
        tab = tm.mean_table([groups[i] for i in pick])
        stats[k] = stat(_ref_physical(_ref_density(_ref_stokes(tab))))
    return stats


@pytest.fixture(scope="module")
def bell_tables(params):
    """Exact Bell-preparation tables at p_up = 0 (a pure, rank-one state) and
    at the calibrated p_up = 0.14."""
    return {
        p_up: tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=p_up))
        for p_up in (0.0, 0.14)
    }


def _oracle_groups(tables, kind, n_groups, seed):
    rng = np.random.default_rng(seed)
    if kind == "exact_p0":  # every resample is the pure Bell state
        return [tables[0.0]] * n_groups
    if kind == "mixed_p0":  # exact and sampled p_up = 0 tables: rank-deficient projections
        return [tables[0.0] if g % 2 else tm.sample_table(tables[0.0], 200, rng) for g in range(n_groups)]
    return [tm.sample_table(tables[0.14], 1000, rng) for _ in range(n_groups)]


class TestStackedBootstrapOracle:
    @pytest.mark.parametrize("statistic", ["fidelity", "concurrence"])
    @pytest.mark.parametrize("n_groups", [2, 5, 16])
    @pytest.mark.parametrize("kind", ["sampled_p014", "mixed_p0", "exact_p0"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_per_resample_loop(self, bell_tables, statistic, n_groups, kind, seed):
        groups = _oracle_groups(bell_tables, kind, n_groups, seed)
        lo, hi, stats = tm.bootstrap_ci(groups, 120, statistic, seed=seed)
        ref = _ref_bootstrap_stats(groups, 120, statistic, seed)
        assert np.max(np.abs(stats - ref)) < 1e-12
        ref_lo, ref_hi = np.percentile(ref, [2.5, 97.5])
        assert abs(lo - ref_lo) < 1e-12 and abs(hi - ref_hi) < 1e-12

    def test_rank_deficient_groups_project_to_low_rank(self, bell_tables):
        # the exact p_up = 0 groups project to states whose two smallest
        # eigenvalues are zero up to rounding, the input the oracle test feeds
        # to concurrence's root and singular values
        groups = _oracle_groups(bell_tables, "mixed_p0", 5, 0)
        states, inverse = tm._bootstrap_states(groups, 120, 0)
        assert inverse.shape == (120,)
        assert np.all(np.linalg.eigvalsh(compose(states)[inverse])[:, :2] < 1e-10)

    def test_pipeline_intervals_match_bootstrap_ci(self, bell_tables):
        est = tm.tomography_pipeline(bell_tables[0.14], n_shots_per_axis=1000, n_resamples=150, seed=4)
        groups = [
            tm.sample_table(bell_tables[0.14], 1000, np.random.default_rng(np.random.SeedSequence([4, g])))
            for g in range(5)
        ]
        for name in ("fidelity", "concurrence"):
            lo, hi, _ = tm.bootstrap_ci(groups, 150, name, seed=4)
            assert est.ci[name] == (lo, hi)


def pipeline_groups(source, n_shots, n_groups, seed):
    """The groups `tomography_pipeline` samples: one stream per group."""
    return [
        tm.sample_table(source, n_shots, np.random.default_rng(np.random.SeedSequence([seed, g])))
        for g in range(n_groups)
    ]


def expanded_stack_intervals(groups, n_resamples, seed):
    """2.5 and 97.5 percentiles of fidelity and concurrence over the expanded
    stack: every resample's state reconstructed as its own row, and each
    statistic evaluated once on the whole stack."""
    n = len(groups)
    group_stokes = tm.stokes_from_probabilities(groups).reshape(n, 16)
    stokes = (resample_counts(n, n_resamples, seed).astype(float) @ group_stokes).reshape(-1, 4, 4) / n
    states = physical_eig(tm.density_from_stokes(stokes))
    stats = {"fidelity": tm.fidelity(compose(states), PSI_PLUS), "concurrence": tm.concurrence(states)}
    return {name: tuple(float(x) for x in np.percentile(v, [2.5, 97.5])) for name, v in stats.items()}


class TestPipelineIntervalsOracle:
    """Both pipeline intervals, from statistics evaluated once per distinct
    resample, against the expanded-stack formula, bit for bit."""

    @pytest.mark.parametrize("n_groups", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
    def test_match_expanded_stack_percentiles(self, bell_tables, n_groups, seed):
        source = bell_tables[0.14]
        est = tm.tomography_pipeline(source, n_shots_per_axis=500, n_groups=n_groups, n_resamples=200, seed=seed)
        assert est.ci == expanded_stack_intervals(pipeline_groups(source, 500, n_groups, seed), 200, seed)

    def test_identical_groups(self):
        # one-hot rows sample to themselves: every group is the source table
        source = np.zeros((9, 4))
        source[:, 0] = 1.0
        groups = pipeline_groups(source, 100, 5, 2)
        assert all(np.array_equal(g, source) for g in groups)
        est = tm.tomography_pipeline(source, n_shots_per_axis=100, n_groups=5, n_resamples=150, seed=2)
        assert est.ci == expanded_stack_intervals(groups, 150, 2)

    @pytest.mark.parametrize("n_resamples", [2, 3])
    def test_one_distinct_resample(self, bell_tables, n_resamples):
        # with two groups and two or three resamples some seeds draw one
        # count vector for every resample
        source, lone = bell_tables[0.14], 0
        for seed in range(12):
            with pytest.warns(UserWarning, match="too few"):
                est = tm.tomography_pipeline(source, 500, n_groups=2, n_resamples=n_resamples, seed=seed)
            assert est.ci == expanded_stack_intervals(pipeline_groups(source, 500, 2, seed), n_resamples, seed)
            lone += len(np.unique(resample_counts(2, n_resamples, seed), axis=0)) == 1
        assert lone > 0


class TestResampleDraw:
    """The one-pass draw against one generator per resample."""

    @pytest.mark.parametrize("n_resamples", [1, 2, 1000])
    @pytest.mark.parametrize("n_groups", [2, 3, 5, 8, 33])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_matches_per_resample_generators(self, seed, n_groups, n_resamples):
        counts = tm._resample_counts(n_groups, n_resamples, seed)
        assert counts.shape == (n_resamples, n_groups)
        assert np.array_equal(counts, resample_counts(n_groups, n_resamples, seed))

    @pytest.mark.parametrize("n_groups", [3, 5])
    def test_rejected_rows_are_redrawn(self, monkeypatch, n_groups):
        # a Lemire rejection is about one draw in 1e9, so force some rows
        flagged = [0, 7, 199]
        mask = np.zeros(200, dtype=bool)
        mask[flagged] = True
        monkeypatch.setattr(tm, "_lemire_rejected", lambda leftover, n: mask)
        want = resample_counts(n_groups, 200, 11)
        assert np.array_equal(tm._resample_counts(n_groups, 200, 11), want)
        # the flagged rows, and only they, come from their own generators:
        # point those at seed 12 and find seed 12's rows there
        original, keys = np.random.SeedSequence, []

        def next_seed(entropy):
            keys.append(entropy[1])
            return original([entropy[0] + 1, entropy[1]])

        monkeypatch.setattr(np.random, "SeedSequence", next_seed)
        counts = tm._resample_counts(n_groups, 200, 11)
        monkeypatch.setattr(np.random, "SeedSequence", original)
        want[flagged] = resample_counts(n_groups, 200, 12)[flagged]
        assert keys == flagged
        assert np.array_equal(counts, want)

    def test_lemire_threshold(self):
        # numpy rejects a leftover below 2**32 mod n: 1 for five groups
        leftover = np.array([[5, 1, 9], [2, 3, 0]], dtype=np.uint64)
        assert tm._lemire_rejected(leftover, 5).tolist() == [False, True]
        assert not tm._lemire_rejected(leftover, 2).any()


EDGE_LIMBS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _limbs(values):
    """(high, low) uint64 limb arrays of Python ints below 2**128."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & (2**64 - 1) for v in values], dtype=np.uint64),
    )


def _joined(hi, lo):
    return [(int(h) << 64) + int(l) for h, l in zip(hi, lo)]


class TestWideArithmetic:
    """The 128-bit PCG64 arithmetic on (high, low) uint64 limbs against Python ints."""

    @pytest.fixture
    def limb_pairs(self, rng):
        randoms = [int(v) for v in rng.integers(0, 2**64, size=40, dtype=np.uint64)]
        values = EDGE_LIMBS + randoms
        a, b = zip(*[(x, y) for x in values for y in values])
        return list(a), list(b)

    def test_mul_wide(self, limb_pairs):
        a, b = limb_pairs
        hi, lo = tm._mul_wide(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert _joined(hi, lo) == [x * y for x, y in zip(a, b)]

    def test_add_wide(self, limb_pairs):
        # 128-bit values built from the edge and random limbs: sums that
        # carry out of the low limb, wrap past 2**128, or both
        a, b = limb_pairs
        a = [(x << 64) + y for x, y in zip(a, b)]
        b = a[::-1]
        hi, lo = tm._add_wide(_limbs(a), _limbs(b))
        assert _joined(hi, lo) == [(x + y) % 2**128 for x, y in zip(a, b)]

    def test_pcg_step(self, limb_pairs):
        a, b = limb_pairs
        state = [(x << 64) + y for x, y in zip(a, b)]
        inc = [s | 1 for s in state[::-1]]
        mult = (int(tm._PCG_MULT[0]) << 64) + int(tm._PCG_MULT[1])
        hi, lo = tm._pcg_step(_limbs(state), _limbs(inc))
        assert _joined(hi, lo) == [(s * mult + i) % 2**128 for s, i in zip(state, inc)]

    @given(
        seed=st.integers(0, 2**128 - 1),
        n_groups=st.integers(2, 40),
        n_resamples=st.integers(1, 50),
    )
    def test_counts_match_per_resample_generators(self, seed, n_groups, n_resamples):
        counts = tm._resample_counts(n_groups, n_resamples, seed)
        assert np.array_equal(counts, resample_counts(n_groups, n_resamples, seed))

    def test_draw_holds_no_python_ints(self):
        assert all(w.dtype == np.uint64 for w in tm._seed_words(2**127 + 3, 10))


def assert_same_states(states, inverse, raw):
    """The distinct states' eigensystems, expanded by `inverse`, have the
    bits of the projection of the full stack `raw`, and so do the composed
    states."""
    for got, want in zip(states, physical_eig(raw)):
        assert np.array_equal(got[inverse].view(np.uint64), want.view(np.uint64))
    full = nearest_physical_density(raw)
    assert np.array_equal(compose(states)[inverse].view(np.uint64), full.view(np.uint64))


class TestDistinctRows:
    """The dedup of `_bootstrap_states` against np.unique(axis=0), on count
    matrices put in place of the resample draw."""

    @staticmethod
    def _check(bell_tables, monkeypatch, counts):
        n_rows, n = counts.shape
        groups = _oracle_groups(bell_tables, "sampled_p014", n, 0)
        monkeypatch.setattr(tm, "_resample_counts", lambda *_: counts)
        if n_rows < 100:
            with pytest.warns(UserWarning, match="too few"):
                states, inverse = tm._bootstrap_states(groups, n_rows, 0)
        else:
            states, inverse = tm._bootstrap_states(groups, n_rows, 0)
        _, want_first, want_inverse = np.unique(counts, axis=0, return_index=True, return_inverse=True)
        # numpy 2.0.0 returns the inverse as a column
        want_inverse = want_inverse.reshape(-1)
        # one state per distinct row, and the same grouping of the rows
        assert len(states.eigenvalues) == len(want_first) and inverse.shape == (n_rows,)
        assert len(set(zip(inverse.tolist(), want_inverse.tolist()))) == len(want_first)
        group_stokes = tm.stokes_from_probabilities(groups).reshape(n, 16)
        stokes = (counts.astype(float) @ group_stokes).reshape(n_rows, 4, 4) / n
        assert_same_states(states, inverse, tm.density_from_stokes(stokes))

    @pytest.mark.parametrize("n_cols", [2, 3, 5, 16, 33])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 300])
    def test_random_counts(self, bell_tables, monkeypatch, rng, n_rows, n_cols):
        # rows picked from a pool of half as many count vectors, so that rows repeat
        pool = rng.multinomial(n_cols, np.full(n_cols, 1 / n_cols), size=max(1, n_rows // 2))
        self._check(bell_tables, monkeypatch, pool[rng.integers(0, len(pool), size=n_rows)])

    @pytest.mark.parametrize("n_cols", [2, 5, 33])
    def test_all_rows_equal(self, bell_tables, monkeypatch, rng, n_cols):
        row = rng.multinomial(n_cols, np.full(n_cols, 1 / n_cols))
        self._check(bell_tables, monkeypatch, np.tile(row, (50, 1)))


def stack_pieces(rng, n, height):
    """Indices into a stack of n rows: one sorted piece of `height` rows, or
    for height 1 (a one-row stack) and None (one row as a matrix) 50 lone
    rows, since a kernel that treats a lone row otherwise changes the bits of
    only some rows."""
    if height in (1, None):
        return [rows if height else rows[0] for rows in rng.choice(n, size=(50, 1), replace=False)]
    return [np.sort(rng.choice(n, size=height, replace=False))]


def spy_row_counts(monkeypatch):
    """The row count of every `physical_eig` and `density_from_stokes` call
    that tomography makes, by name."""
    seen = {"physical_eig": [], "density_from_stokes": []}
    for name, rows in seen.items():

        def spy(m, original=getattr(tm, name), rows=rows):
            rows.append(len(m))
            return original(m)

        monkeypatch.setattr(tm, name, spy)
    return seen


class TestDistinctResamples:
    def test_each_distinct_resample_projected_once(self, bell_tables, monkeypatch):
        # five groups allow C(9, 4) = 126 distinct count vectors among 1000 resamples
        seen = spy_row_counts(monkeypatch)
        groups = _oracle_groups(bell_tables, "sampled_p014", 5, 0)
        (w, v), inverse = tm._bootstrap_states(groups, 1000, 0)
        assert w.shape == (len(w), 4) and v.shape == (len(w), 4, 4)
        # each distinct resample is inverted and projected once
        assert seen == {name: [len(w)] for name in seen}
        assert len(w) <= math.comb(9, 4)
        counts = resample_counts(5, 1000, 0)
        assert len(w) == len(np.unique(counts, axis=0))
        assert inverse.shape == (1000,) and set(inverse.tolist()) == set(range(len(w)))
        # resamples with the same counts share a state
        for row in range(len(w)):
            assert len(np.unique(counts[inverse == row], axis=0)) == 1

    @pytest.mark.parametrize("height", [1, 2, 3, 126, 500, None])
    def test_inversion_bits_do_not_depend_on_stack_height(self, rng, height):
        stokes = rng.standard_normal((1000, 4, 4))
        stokes[:, 0, 0] = 1.0
        full = tm.density_from_stokes(stokes)
        for rows in stack_pieces(rng, 1000, height):
            assert np.array_equal(full[rows].view(np.uint64), tm.density_from_stokes(stokes[rows]).view(np.uint64))

    @pytest.mark.parametrize("height", [1, 2, 3, 126, 500, None])
    def test_fidelity_bits_do_not_depend_on_stack_height(self, rng, height):
        states = compose(physical_eig(rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))))
        full = tm.fidelity(states, PSI_PLUS)
        for rows in stack_pieces(rng, 1000, height):
            got = np.float64(tm.fidelity(states[rows], PSI_PLUS))
            assert np.array_equal(full[rows].view(np.uint64), got.view(np.uint64))

    @pytest.mark.parametrize("n_resamples", [1, 2, 3])
    def test_states_are_those_of_the_full_stack(self, bell_tables, n_resamples):
        # with two groups and few resamples every seed's resamples may share
        # one count vector; the states keep the bits of the full-stack inversion
        groups = _oracle_groups(bell_tables, "sampled_p014", 2, 0)
        group_stokes = tm.stokes_from_probabilities(groups).reshape(2, 16)
        lone = 0
        for seed in range(12):
            with pytest.warns(UserWarning, match="too few"):
                states, inverse = tm._bootstrap_states(groups, n_resamples, seed)
            counts = resample_counts(2, n_resamples, seed).astype(float)
            stokes = (counts @ group_stokes).reshape(n_resamples, 4, 4) / 2
            assert_same_states(states, inverse, tm.density_from_stokes(stokes))
            if inverse.max() == 0:  # one count vector: one state for every resample
                lone += 1
                assert len(states.eigenvalues) == 1
        assert lone > 0

    @pytest.mark.parametrize("seed", [0, 5, 2**100 + 1])
    def test_many_distinct_rows_inverted_in_one_call(self, bell_tables, monkeypatch, seed):
        # 16 groups x 300 resamples give about 300 distinct count vectors,
        # all inverted by one call and projected by one call
        groups = _oracle_groups(bell_tables, "sampled_p014", 16, seed)
        seen = spy_row_counts(monkeypatch)
        states, inverse = tm._bootstrap_states(groups, 300, seed)
        monkeypatch.undo()
        assert seen == {name: [len(states.eigenvalues)] for name in seen}
        assert len(states.eigenvalues) > 256
        # the states keep the bits of the full-stack inversion
        group_stokes = tm.stokes_from_probabilities(groups).reshape(16, 16)
        stokes = (resample_counts(16, 300, seed).astype(float) @ group_stokes).reshape(300, 4, 4) / 16
        assert_same_states(states, inverse, tm.density_from_stokes(stokes))


class TestStackedKernels:
    @pytest.fixture
    def stack(self, rng, bell_tables):
        """Random states, noisy unit-trace Hermitian matrices with negative
        eigenvalues, and rank-deficient reconstructions."""
        mats = [random_density(rng, 4) for _ in range(6)]
        for _ in range(6):
            noisy = random_density(rng, 4) + 0.2 * np.diag([1, -1, 1, -1])
            mats.append((noisy + noisy.conj().T) / 2)
        mats.append(bell_rho())
        mats.append(tm.density_from_stokes(_ref_stokes(bell_tables[0.0])))
        return np.array(mats)

    def test_stokes_and_inversion(self, rng, bell_tables):
        tables = [table_from_state(random_density(rng, 4)) for _ in range(4)] + [bell_tables[0.14]]
        stack = tm.stokes_from_probabilities(tables)
        assert stack.shape == (5, 4, 4)
        rhos = tm.density_from_stokes(stack)
        for tab, s, rho in zip(tables, stack, rhos):
            assert np.max(np.abs(s - _ref_stokes(tab))) < 1e-15
            assert np.max(np.abs(tm.stokes_from_probabilities(tab) - s)) < 1e-15
            assert np.max(np.abs(rho - _ref_density(s))) < 1e-15
            assert np.max(np.abs(tm.density_from_stokes(s) - rho)) < 1e-15

    def test_simplex(self, rng):
        vals = rng.normal(size=(50, 4)) * rng.uniform(0.1, 3.0, size=(50, 1))
        out = project_to_simplex(vals)
        for v, o in zip(vals, out):
            assert np.max(np.abs(o - _ref_simplex(v))) < 1e-15
            assert np.max(np.abs(project_to_simplex(v) - o)) < 1e-15
        for bad in (np.nan, np.inf):
            vals[7, 2] = bad
            with pytest.raises(ContractError, match="non-finite"):
                project_to_simplex(vals)

    def test_physical_projection_and_concurrence(self, stack):
        phys = nearest_physical_density(stack)
        conc = tm.concurrence(phys)
        # the projection's own eigensystem: the root needs no decomposition
        conc_eig = tm.concurrence(physical_eig(stack))
        fid = tm.fidelity(phys, PSI_PLUS)
        assert phys.shape == stack.shape and conc.shape == conc_eig.shape == fid.shape == (len(stack),)
        for m, p, c, ce, f in zip(stack, phys, conc, conc_eig, fid):
            single = nearest_physical_density(m)
            assert np.max(np.abs(single - p)) < 1e-15
            assert np.max(np.abs(single - _ref_physical(m))) < 1e-12
            assert abs(tm.concurrence(single) - c) < 1e-12
            assert abs(_ref_concurrence(single) - c) < 1e-12
            assert abs(tm.concurrence(physical_eig(m)) - ce) < 1e-12
            assert abs(_ref_concurrence(single) - ce) < 1e-12
            assert abs(tm.fidelity(single, PSI_PLUS) - f) < 1e-15
        assert isinstance(tm.concurrence(phys[0]), float)
        assert isinstance(tm.concurrence(physical_eig(stack[0])), float)
        assert isinstance(tm.fidelity(phys[0], PSI_PLUS), float)

    def test_concurrence_reprojects_slightly_negative_states(self, rng):
        # pure states plus a 1e-5 traceless perturbation: eigenvalues below
        # the PSD clip, within concurrence's rounding allowance
        mats = []
        for _ in range(8):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            h = random_hermitian(rng, 4)
            mats.append(np.outer(psi, psi.conj()) + 1e-5 * (h - np.trace(h) * np.eye(4) / 4))
        mats = np.array(mats)
        assert np.all(np.linalg.eigvalsh(mats)[:, 0] < -1e-8)
        conc = tm.concurrence(mats)
        for m, c in zip(mats, conc):
            assert abs(tm.concurrence(m) - c) < 1e-12
            assert abs(_ref_concurrence(m) - c) < 1e-12

    def test_psd_sqrt_stack(self, stack):
        phys = nearest_physical_density(stack)
        roots = psd_sqrt(phys)
        for p, r in zip(phys, roots):
            assert np.max(np.abs(psd_sqrt(p) - r)) < 1e-14
            assert np.max(np.abs(r @ r - p)) < 1e-12
        # from the projection's eigensystem, without a decomposition
        for p, r in zip(phys, psd_sqrt(physical_eig(stack))):
            assert np.max(np.abs(r @ r - p)) < 1e-12

    def test_checks_cover_every_matrix(self, stack):
        phys = nearest_physical_density(stack)
        bad_stokes = tm.stokes_from_probabilities([table_from_state(bell_rho())] * 3)
        bad_stokes[1, 0, 0] = 0.9
        with pytest.raises(ContractError, match="S\\[I, I\\]"):
            tm.density_from_stokes(bad_stokes)
        zero_trace = stack.copy()
        zero_trace[2] = 0.0
        with pytest.raises(ContractError, match="zero trace"):
            nearest_physical_density(zero_trace)
        unphysical = phys.copy()
        unphysical[3] = np.diag([1.5, 0.0, 0.0, -0.5])
        with pytest.raises(ContractError, match="positivity"):
            tm.concurrence(unphysical)
        not_psd = phys.copy()
        not_psd[4] = np.diag([1.0, 1e-3, 0.0, -1e-3])
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(not_psd)
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(EigenSystem(*np.linalg.eigh(not_psd)))
        not_hermitian = phys.copy()
        not_hermitian[5, 0, 1] += 1e-6
        with pytest.raises(ContractError, match="not Hermitian"):
            psd_sqrt(not_hermitian)


@pytest.mark.filterwarnings("ignore:rabi")  # full-dynamics selectivity warnings
class TestSequenceTable:
    """The one-pass table against nine full replays of the preparation."""

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("spins", [pl.SPINS, ("e1", "e2")], ids=["all_spins", "electrons"])
    @pytest.mark.parametrize("p_up", [0.0, 0.14])
    def test_matches_replay_bitwise(self, params, mode, spins, p_up):
        prep = [pl.InitStep(spins), *pl.bell_prep()[1:]]
        noise = pl.NoiseModel(p_up=p_up)
        table = tm.sequence_table(params, prep, mode=mode, noise=noise)
        assert table.shape == (9, 4)
        assert np.array_equal(table, replayed_sequence_table(params, prep, mode=mode, noise=noise))

    @pytest.mark.parametrize("mode", pl.MODES)
    def test_one_run_sequence_per_table(self, params, mode, monkeypatch):
        original, calls = pl.run_sequence, []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pl, "run_sequence", spy)
        tm.sequence_table(params, pl.bell_prep(), mode=mode)
        assert len(calls) == 1


class TestPipeline:
    def test_ideal_source_probability_mode(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.0))
        est = tm.tomography_pipeline(tab)
        assert est.fidelity >= 1 - 1e-9
        assert est.concurrence >= 1 - 1e-9

    def test_finite_shots_stay_above_statistical_floor(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.0))
        est = tm.tomography_pipeline(tab, n_shots_per_axis=10_000, n_groups=5, n_resamples=200, seed=2)
        assert est.fidelity >= 0.99
        assert "fidelity" in est.ci and "concurrence" in est.ci

    def test_projection_never_lowers_fidelity_much(self, rng):
        # fidelity after physical projection stays within the Frobenius
        # projection distance of the raw fidelity
        for _ in range(10):
            rho = random_density(rng, 4)
            noisy = rho + 0.05 * np.diag([1, -1, 1, -1])
            noisy = (noisy + noisy.conj().T) / 2
            noisy /= np.trace(noisy).real
            phys = nearest_physical_density(noisy)
            dist = np.linalg.norm(phys - noisy)
            f_raw = tm.fidelity(noisy, PSI_PLUS)
            f_phys = tm.fidelity(phys, PSI_PLUS)
            assert f_phys >= f_raw - dist - 1e-12

    def test_spam_source_band(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.14))
        est = tm.tomography_pipeline(tab)
        # loading errors on all four spins; see the acceptance notes on the
        # narrower electron-only reading
        assert 0.55 <= est.fidelity <= 0.85

    def test_two_decompositions_per_state_stack(self, params, monkeypatch):
        # at the benchmark's Bell options the pooled state, then the stack of
        # distinct resamples, take the projection's eigh and the Wootters
        # svd each: the concurrence's root comes from the projection
        source = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.14))
        calls = []
        for name in ("eigh", "svd"):

            def spy(m, *args, original=getattr(np.linalg, name), name=name, **kwargs):
                calls.append((name, np.shape(m)[:-2]))
                return original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        tm.tomography_pipeline(source, n_shots_per_axis=1000, n_groups=5, n_resamples=1000, seed=0)
        monkeypatch.undo()
        n = len(np.unique(resample_counts(5, 1000, 0), axis=0))
        assert calls == [("eigh", ()), ("svd", ()), ("eigh", (n,)), ("svd", (n,))]

    def test_json_emission(self, params):
        tab = tm.sequence_table(params, pl.bell_prep(), noise=pl.NoiseModel(p_up=0.0))
        est = tm.tomography_pipeline(tab)
        import json

        doc = json.loads(est.to_json())
        assert set(doc) >= {"re", "im", "fidelity", "concurrence", "ci"}
        assert np.allclose(np.array(doc["re"]) + 1j * np.array(doc["im"]), est.physical)
