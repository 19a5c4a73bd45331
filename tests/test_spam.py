import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import spam
from donorpair.linalg import ContractError
from donorpair.pulses import spam_mixture
from donorpair.spinmodel import SPINS

from oracles import loading_state, partial_trace


class TestInitialDensity:
    """The loading state of all four spins, `pulses.spam_mixture`."""

    def test_no_error_is_all_down(self):
        rho = spam_mixture(0.0)
        assert rho[15, 15] == pytest.approx(1.0)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_half_error_is_maximally_mixed(self):
        assert np.allclose(spam_mixture(0.5), np.eye(16) / 16)

    def test_diagonal_bernoulli_product(self):
        p = 0.14
        rho = spam_mixture(p)
        assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0
        diag = np.real(np.diag(rho))
        # each diagonal entry is the product of per-spin Bernoulli weights
        for idx in range(16):
            ups = 4 - bin(idx).count("1")
            assert diag[idx] == pytest.approx(p**ups * (1 - p) ** (4 - ups))

    def test_two_spin_marginal(self):
        p = 0.2
        rho = spam_mixture(p)
        nuc = partial_trace(rho, (0, 1), 4)
        want = np.diag([p * p, p * (1 - p), (1 - p) * p, (1 - p) * (1 - p)])
        assert np.allclose(nuc, want)

    def test_single_spin_marginal(self):
        p = 0.3
        rho = spam_mixture(p)
        one = partial_trace(rho, (2,), 4)
        assert np.allclose(one, np.diag([p, 1 - p]))

    @pytest.mark.parametrize("p_up", [0.0, 0.14, 0.3, 0.5])
    def test_matches_kron_of_populations(self, p_up):
        # every subset of the spins, values and signed zeros alike
        for mask in range(16):
            spins = tuple(s for k, s in enumerate(SPINS) if mask >> k & 1)
            got, want = spam_mixture(p_up, spins), loading_state(p_up, spins)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        # spins listed out of order are loaded in SPINS order
        got, want = spam_mixture(p_up, ("e2", "n2", "n1")), loading_state(p_up, ("n1", "n2", "e2"))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_invalid_probability(self):
        # the callers that build a loading state check p_up
        with pytest.raises(ContractError):
            spam.phase_reversal_curve(0.7, [0.0, 1.0])
        with pytest.raises(ContractError):
            spam.neutral_rabi_forward(0.7, [0.0, 1.0], 0.01)


class TestNeutralRabiForward:
    def test_no_error_full_contrast(self):
        t = np.linspace(0, 100, 201)
        y = spam.neutral_rabi_forward(0.0, t, 0.01)
        assert y.max() == pytest.approx(1.0, abs=1e-6)
        assert y.min() == pytest.approx(0.0, abs=1e-6)

    def test_amplitude_reduction(self):
        t = np.linspace(0, 100, 201)
        for p, expect in ((0.14, (1 - 0.14) * (1 - 2 * 0.14)), (0.2, 0.8 * 0.6)):
            y = spam.neutral_rabi_forward(p, t, 0.01)
            # peak-to-peak contrast of the dominant tone: (1-p)(1-2p)
            amp = y.max() - y.min()
            assert amp == pytest.approx(expect, abs=5e-3)

    def test_off_resonant_branch_negligible_at_hyperfine_detuning(self):
        t = np.linspace(0, 100, 50)
        frozen = spam.neutral_rabi_forward(0.5, t, 0.01, detuning_when_up_mhz=113.0)
        # electron up half: drive detuned by the hyperfine coupling, so the
        # curve stays at the classical mixture value
        assert np.allclose(frozen, 0.5, atol=1e-2)

    def test_requires_positive_rabi(self):
        with pytest.raises(ContractError):
            spam.neutral_rabi_forward(0.1, [0, 1], 0.0)


def mixture_cost(p, t, y, rabi_mhz, detuning_mhz):
    """Sum of squared residuals of the loading-error Rabi model at each p,
    written as the mixture over the four loading outcomes of electron and
    nucleus: a nucleus loaded up reads up unless it flips."""
    p = np.asarray(p, dtype=float)[..., None]
    omega = math.hypot(rabi_mhz, detuning_mhz)
    flip_res = np.sin(np.pi * rabi_mhz * t) ** 2
    flip_det = (rabi_mhz / omega) ** 2 * np.sin(np.pi * omega * t) ** 2
    up = (
        (1 - p) ** 2 * flip_res
        + (1 - p) * p * (1 - flip_res)
        + p * (1 - p) * flip_det
        + p**2 * (1 - flip_det)
    )
    return np.sum((up - y) ** 2, axis=-1)


class TestFitPup:
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.14, 0.2, 0.3, 0.5])
    def test_noiseless_round_trip(self, p):
        t = np.linspace(0, 100, 60)
        y = spam.neutral_rabi_forward(p, t, 0.01)
        fit = spam.fit_p_up(t, y, rabi_mhz=0.01)
        assert fit.p_up == pytest.approx(p, abs=1e-9)
        assert fit.residual_rms < 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cost_at_most_grid_minimum(self, seed):
        # random durations, rates and traces: noiseless, noisy and unrelated
        # to the model, so that the minimum falls inside and at either end
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 200, rng.integers(8, 40))
        rabi, detuning = rng.uniform(0.001, 0.1), rng.choice([0.0, 0.05, 113.0])
        p_true = rng.uniform(0, 0.5)
        sigma = rng.choice([0.0, 0.02, 1.0])
        model = spam.neutral_rabi_forward(p_true, t, rabi, detuning)
        y = model + sigma * rng.standard_normal(t.size)
        fit = spam.fit_p_up(t, y, rabi_mhz=rabi, detuning_when_up_mhz=detuning)
        assert 0.0 <= fit.p_up <= 0.5
        grid_min = mixture_cost(np.linspace(0, 0.5, 10_001), t, y, rabi, detuning).min()
        # the fitted cost, up to rounding of the sums
        assert mixture_cost(fit.p_up, t, y, rabi, detuning) <= grid_min * (1 + 1e-12) + 1e-15
        assert fit.residual_rms == pytest.approx(math.sqrt(mixture_cost(fit.p_up, t, y, rabi, detuning) / t.size))

    @pytest.mark.parametrize("shift", [-0.4, 0.0, 0.2, 0.6])
    def test_zero_durations_fit_the_clipped_mean(self, shift):
        # at t = 0 nothing flips, so the model is p itself
        y = shift + np.array([0.1, 0.3, 0.05, 0.2, 0.0, 0.15, 0.25, 0.12])
        fit = spam.fit_p_up(np.zeros(8), y, rabi_mhz=0.01)
        assert fit.p_up == pytest.approx(np.clip(np.mean(y), 0.0, 0.5), abs=1e-15)

    def test_binomial_noise_unbiased(self):
        rng = np.random.default_rng(2024)
        t = np.linspace(0, 100, 40)
        shots = 200
        estimates = []
        for _ in range(12):
            y = spam.neutral_rabi_forward(0.14, t, 0.01)
            sampled = rng.binomial(shots, y) / shots
            estimates.append(spam.fit_p_up(t, sampled, rabi_mhz=0.01).p_up)
        mean = np.mean(estimates)
        sem = np.std(estimates) / math.sqrt(len(estimates))
        assert abs(mean - 0.14) < 2 * sem + 5e-3

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            spam.fit_p_up([0, 1, 2], [0, 1, 0], rabi_mhz=0.01)

    @pytest.mark.parametrize("rabi", [0.0, -0.01])
    def test_requires_positive_rabi(self, rabi):
        with pytest.raises(ContractError, match="rabi frequency must be positive"):
            spam.fit_p_up(np.linspace(0, 100, 8), np.zeros(8), rabi_mhz=rabi)


class TestPhaseReversal:
    def test_no_error_closed_form(self):
        phis = np.linspace(0, 2 * math.pi, 64)
        got = spam.phase_reversal_curve(0.0, phis)
        want = 0.5 - 0.5 * np.cos(4 * phis)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_quarter_pi_is_unity(self):
        assert spam.phase_reversal_curve(0.0, [math.pi / 4])[0] == pytest.approx(1.0)

    def test_zero_phase_is_zero(self):
        assert spam.phase_reversal_curve(0.0, [0.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_monotone_in_loading_error(self):
        phis = np.linspace(0, 2 * math.pi, 96, endpoint=False)
        amps = []
        for p in (0.0, 0.1, 0.2, 0.3):
            fit = spam.sine_fit(phis, spam.phase_reversal_curve(p, phis))
            amps.append(fit.amplitude)
        assert all(a >= b - 1e-12 for a, b in zip(amps, amps[1:]))


class TestSineFit:
    def test_exact_reference_curve(self):
        phis = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        fit = spam.sine_fit(phis, 0.5 - 0.5 * np.cos(4 * phis))
        assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
        assert fit.offset == pytest.approx(0.5, abs=1e-12)
        assert fit.phase == pytest.approx(math.pi, abs=1e-12)  # -cos == cos(. - pi)
        assert fit.residual_rms < 1e-12

    @pytest.mark.parametrize("points", [24, 96])
    @pytest.mark.parametrize("p_up", [0.0, 0.14])
    def test_phase_reversal_phase_does_not_flip(self, p_up, points):
        # the curve's phase is pi, where atan2 cuts: a rounding-level sine
        # coefficient used to give +pi at 24 points and -pi at 96
        phis = np.linspace(0, 2 * math.pi, points, endpoint=False)
        fit = spam.sine_fit(phis, spam.phase_reversal_curve(p_up, phis))
        assert fit.phase == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("points", [24, 48, 96])
    def test_zero_phase_stays_in_range(self, points):
        # the cut sits at 0: a rounding-level negative angle (the sine
        # coefficient is -2.9e-17 at 24 points) rounds up to 2 pi, reported as 0
        phis = np.linspace(0, 2 * math.pi, points, endpoint=False)
        fit = spam.sine_fit(phis, 0.4 + 0.2 * np.cos(4 * phis))
        assert 0.0 <= fit.phase < 1e-15

    def test_shifted_curve_recovers_phase(self):
        phis = np.linspace(0, 2 * math.pi, 48, endpoint=False)
        fit = spam.sine_fit(phis, 0.4 + 0.2 * np.cos(4 * phis - 0.3))
        assert fit.phase == pytest.approx(0.3, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.2, abs=1e-9)

    def test_degenerate_amplitude_warns(self):
        # the floor from both sides: a flat curve and half its amplitude
        # warn, twice its amplitude does not
        phis = np.linspace(0, 2 * math.pi, 24)
        for scale, warns in ((0.0, True), (0.5, True), (2.0, False)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                spam.sine_fit(phis, 0.5 + scale * spam.MIN_FIT_AMPLITUDE * np.cos(4 * phis))
            assert bool(seen) == warns, scale

    def test_needs_points(self):
        with pytest.raises(ContractError):
            spam.sine_fit([0.0, 1.0], [0.0, 1.0])


class TestCompareFits:
    def test_identical_fits(self):
        f = spam.SineFit(0.5, 0.1, 0.5, 4, 0.0)
        out = spam.compare_fits(f, f)
        assert out["phase_offset_rad"] == 0.0
        assert out["amplitude_ratio"] == 1.0

    def test_synthetic_offset_recovered(self):
        phis = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        sim = spam.sine_fit(phis, 0.5 + 0.40 * np.cos(4 * phis))
        data = spam.sine_fit(phis, 0.5 + 0.244 * np.cos(4 * phis + 0.638))
        out = spam.compare_fits(sim, data)
        # phase convention: cos(4p + 0.638) = cos(4p - (-0.638))
        assert out["phase_offset_rad"] == pytest.approx(-0.638, abs=1e-9)
        assert out["amplitude_ratio"] == pytest.approx(0.61, abs=1e-9)

    def test_golden_targets_round_trip(self):
        # compose a synthetic measured curve from the p_up = 0.14 simulation
        # fit and the stored comparison constants, then recover them exactly
        phis = np.linspace(0, 2 * math.pi, 96, endpoint=False)
        sim = spam.sine_fit(phis, spam.phase_reversal_curve(0.14, phis))
        measured = (
            sim.offset
            + sim.amplitude
            * spam.MEASURED_AMPLITUDE_RATIO
            * np.cos(4 * phis - (sim.phase + spam.MEASURED_PHASE_OFFSET_RAD))
        )
        out = spam.compare_fits(sim, spam.sine_fit(phis, measured))
        assert out["phase_offset_rad"] == pytest.approx(
            spam.MEASURED_PHASE_OFFSET_RAD, abs=0.05
        )
        assert out["amplitude_ratio"] == pytest.approx(
            spam.MEASURED_AMPLITUDE_RATIO, abs=0.05
        )

    def test_degenerate_reference_rejected(self):
        sim = spam.SineFit(1e-9, 0.0, 0.5, 4, 0.0)
        with pytest.raises(ContractError, match="simulated fit amplitude"):
            spam.compare_fits(sim, sim)

    def test_degenerate_data_rejected(self):
        # the data's fit is held to the floor at which sine_fit warns
        sim = spam.SineFit(0.4, 0.0, 0.5, 4, 0.0)
        data = spam.SineFit(0.5 * spam.MIN_FIT_AMPLITUDE, 0.0, 0.5, 4, 0.0)
        with pytest.raises(ContractError, match="data fit amplitude"):
            spam.compare_fits(sim, data)
