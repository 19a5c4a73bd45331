import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import pulses as pl
from donorpair.linalg import ContractError, partial_trace
from donorpair.spinmodel import SPINS, SystemParams, basis_index, bloch_vector, pauli_op

PSI_PLUS = np.array([0, 1, 1, 0]) / np.sqrt(2)


@pytest.fixture(scope="module")
def params():
    return SystemParams()


@pytest.fixture(scope="module")
def engine(params):
    return pl.engine_for(params)


def nuclear_state(result):
    return partial_trace(result.final_state, (0, 1), 4)


def fidelity_to(rho, psi):
    return float(np.real(psi.conj() @ rho @ psi))


class TestRotatingFrame:
    def setup_method(self):
        self.sz = np.diag([0.5, -0.5])
        self.sx = np.array([[0, 0.5], [0.5, 0]])
        self.sy = np.array([[0, -0.5j], [0.5j, 0]])

    def test_no_drive_is_frame_shifted_static(self):
        h = 100.0 * self.sz
        pulse = pl.PulseSpec("ESR", carrier_mhz=40.0, rabi_mhz=0.0, duration_us=1.0)
        out = pl.rotating_frame_hamiltonian(h, pulse, (self.sz, self.sx, self.sy))
        assert np.allclose(out, 60.0 * self.sz)

    def test_on_resonance_reduction(self):
        h = 100.0 * self.sz
        pulse = pl.PulseSpec("ESR", carrier_mhz=100.0, rabi_mhz=0.4, duration_us=1.0)
        out = pl.rotating_frame_hamiltonian(h, pulse, (self.sz, self.sx, self.sy))
        # standard rotating-wave form (rabi/2) sigma_x
        assert np.allclose(out, 0.4 * self.sx)

    def test_detuned_generalized_rabi_splitting(self):
        delta, rabi = 0.3, 0.4
        h = 100.0 * self.sz
        pulse = pl.PulseSpec("ESR", carrier_mhz=100.0 - delta, rabi_mhz=rabi, duration_us=1.0)
        out = pl.rotating_frame_hamiltonian(h, pulse, (self.sz, self.sx, self.sy))
        w = np.linalg.eigvalsh(out)
        assert w[1] - w[0] == pytest.approx(math.hypot(rabi, delta), abs=1e-12)


class TestValidation:
    def test_noise_model_bounds(self):
        with pytest.raises(ContractError):
            pl.NoiseModel(p_up=0.7)
        with pytest.raises(ContractError):
            pl.NoiseModel(sigma_f_mhz=-1.0)

    def test_pirs_bounds(self):
        with pytest.raises(ContractError):
            pl.PIRSModel(time_constant_us=0.0)

    def test_pulse_bounds(self):
        with pytest.raises(ContractError):
            pl.PulseSpec("ESR", 100.0, rabi_mhz=0.1, duration_us=-1.0)
        with pytest.raises(ContractError):
            pl.PulseSpec("XYZ", 100.0, rabi_mhz=0.1, duration_us=1.0)

    def test_measure_before_initialize_rejected(self, params):
        with pytest.raises(ContractError):
            pl.run_sequence([pl.MeasureStep(("n1",))], params)

    def test_measure_on_electron_rejected(self, params):
        with pytest.raises(ContractError):
            pl.run_sequence([pl.InitStep(), pl.MeasureStep(("e1",))], params)


class TestGateModel:
    def test_pi_pulse_defining_action(self, params, engine):
        # pi on n2 conditional e2 down flips n2 wherever e2 is down
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 0, 1, 1)] = 1.0  # D U d d
        u = engine.gate_unitary(pl.GateStep("n2", math.pi, math.pi / 2))
        out = u @ psi
        target = basis_index(1, 1, 1, 1)
        assert abs(out[target]) == pytest.approx(1.0, abs=1e-12)

    def test_gate_identity_when_electron_up(self, engine):
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 0, 1, 0)] = 1.0  # e2 up: conditioned gate idles
        u = engine.gate_unitary(pl.GateStep("n2", math.pi, 0.0))
        assert abs((u @ psi)[basis_index(1, 0, 1, 0)]) == pytest.approx(1.0)

    def test_full_turn_imparts_minus_one(self, engine):
        u = engine.cz_unitary(pl.CzStep("e2", n1=1, n2=0, turns=1))
        idx = basis_index(1, 0, 1, 1)
        assert u[idx, idx] == pytest.approx(-1.0)
        other = basis_index(1, 1, 1, 1)
        assert u[other, other] == pytest.approx(1.0)

    def test_two_turns_restore_identity(self, engine):
        u = engine.cz_unitary(pl.CzStep("e2", n1=1, n2=0, turns=2))
        assert np.allclose(u, np.eye(16))


class TestFullDynamics:
    def test_resonant_full_turn_completes_in_two_us(self, params, engine):
        spec = engine.compile_cz(pl.CzStep("e2", n1=1, n2=0, turns=1))
        assert spec.duration_us == pytest.approx(2.0, abs=0.15)
        # conditional pi phase shows up on the down-down vs down-up coherence
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 1, 1, 1)] = 1 / math.sqrt(2)
        psi[basis_index(1, 0, 1, 1)] = 1 / math.sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = engine.pulse_propagator(spec, pl.FULL_DYNAMICS)
        rho = np.outer(u @ psi, (u @ psi).conj())
        coh = partial_trace(rho, (0, 1), 4)[3, 2]  # <DD| . |DU>
        assert abs(coh) == pytest.approx(0.5, abs=0.01)
        assert abs(pl.wrap_angle(np.angle(coh) - math.pi)) < 0.05

    def test_propagators_are_unitary(self, params, engine):
        spec = pl.PulseSpec("ESR", carrier_mhz=27970.0, rabi_mhz=0.5, duration_us=3.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = engine.pulse_propagator(spec, pl.FULL_DYNAMICS)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-9

    def test_trace_preserved_through_sequence(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pl.run_sequence(pl.bell_prep(), params, mode=pl.FULL_DYNAMICS)
        assert np.trace(res.final_state).real == pytest.approx(1.0, abs=1e-9)

    def test_gate_and_full_agree_for_selective_drive(self, params):
        # smallest off-target splitting is ~0.9 MHz; stay under 2% of it
        eng = pl.SequenceEngine(params, rabi_electron_mhz=0.015, rabi_nuclear_mhz=0.002)
        res = pl.run_sequence(pl.bell_prep(), params, mode=pl.FULL_DYNAMICS, engine=eng)
        assert fidelity_to(nuclear_state(res), PSI_PLUS) >= 0.999

    def test_selectivity_warning(self, params, engine):
        spec = engine.compile_cz(pl.CzStep("e2", n1=1, n2=0, turns=1))
        with pytest.warns(UserWarning, match="splitting"):
            engine.pulse_propagator(spec, pl.FULL_DYNAMICS)


class TestBellPrep:
    def test_gate_model_reaches_psi_plus(self, params):
        res = pl.run_sequence(pl.bell_prep(), params, mode=pl.GATE_MODEL)
        assert fidelity_to(nuclear_state(res), PSI_PLUS) >= 1 - 1e-12

    def test_intermediate_superposition_after_first_half_pulse(self, params, engine):
        # n2 alone in an equal superposition with positive relative phase
        steps = [pl.InitStep(), pl.GateStep("n2", math.pi / 2, math.pi / 2)]
        res = pl.run_sequence(steps, params, mode=pl.GATE_MODEL)
        rho = res.final_state
        a = basis_index(1, 1, 1, 1)
        b = basis_index(1, 0, 1, 1)
        assert rho[a, a].real == pytest.approx(0.5)
        assert rho[b, b].real == pytest.approx(0.5)
        assert rho[b, a].real == pytest.approx(0.5)

    def test_crot_variant_flips_target_on_up_control(self, params):
        # zero-controlled NOT: n2 flips when n1 stays up after the sequence
        res = pl.run_sequence(pl.crot_prep(), params, mode=pl.GATE_MODEL)
        probs = {}
        rho = nuclear_state(res)
        # input was down-down: control n1 = down = |1>, so n2 must NOT flip
        # (flip happens only for n1 = |0> = up); the sequence includes the
        # two half rotations which cancel through the conditional phase
        pop = np.real(np.diag(rho))
        assert pop[2 * 1 + 1] == pytest.approx(1.0, abs=1e-9), pop

    def test_bell_with_spam_is_degraded(self, params):
        res = pl.run_sequence(
            pl.bell_prep(), params, noise=pl.NoiseModel(p_up=0.14), mode=pl.GATE_MODEL
        )
        f = fidelity_to(nuclear_state(res), PSI_PLUS)
        assert 0.6 < f < 0.9


class TestRunSequence:
    def test_empty_sequence_keeps_input(self, params):
        rho0 = np.zeros((16, 16), dtype=complex)
        rho0[3, 3] = 1.0
        res = pl.run_sequence([], params, initial_state=rho0)
        assert np.allclose(res.final_state, rho0)

    def test_fixed_seed_bit_identical(self, params):
        steps = pl.bell_prep() + [pl.MeasureStep(("n1", "n2"))]
        noise = pl.NoiseModel(p_up=0.14)
        a = pl.run_sequence(steps, params, noise=noise, seed=11, shots=64)
        b = pl.run_sequence(steps, params, noise=noise, seed=11, shots=64)
        assert [r.outcomes for r in a.shot_records] == [r.outcomes for r in b.shot_records]

    def test_different_seed_differs(self, params):
        steps = pl.bell_prep() + [pl.MeasureStep(("n1", "n2"))]
        a = pl.run_sequence(steps, params, seed=1, shots=64)
        b = pl.run_sequence(steps, params, seed=2, shots=64)
        assert [r.outcomes for r in a.shot_records] != [r.outcomes for r in b.shot_records]

    def test_probability_mode_consumes_no_rng(self, params):
        steps = pl.bell_prep() + [pl.MeasureStep(("n1", "n2"))]
        res = pl.run_sequence(steps, params, shots=0)
        assert res.shot_records == []
        assert res.outcome_probabilities[(0, 1)] == pytest.approx(0.5)
        assert res.outcome_probabilities[(1, 0)] == pytest.approx(0.5)


class TestEstimators:
    def test_alternating_shots_give_unity(self):
        assert pl.p_flip([0, 1, 0, 1]) == 1.0

    def test_frozen_shots_give_zero(self):
        assert pl.p_flip([1, 1, 1, 1]) == 0.0

    def test_direct_count(self):
        assert pl.p_flip([0, 0, 1, 1, 0]) == 0.5

    def test_p_flip_needs_two_shots(self):
        with pytest.raises(ContractError):
            pl.p_flip([1])

    def test_p_up_counts(self):
        assert pl.p_up([1, 1, 1]) == 1.0
        assert pl.p_up([0, 0]) == 0.0
        assert pl.p_up([1, 0, 0, 1]) == 0.5

    def test_p_up_needs_shots(self):
        with pytest.raises(ContractError):
            pl.p_up([])

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=60))
    def test_p_flip_bounds(self, shots):
        assert 0.0 <= pl.p_flip(shots) <= 1.0


class TestGeometricPhase:
    def test_closed_resonant_loop(self):
        assert pl.geometric_phase_of_drive(0.0, 0.5, 1) == pytest.approx(-math.pi)

    def test_far_detuned_limit(self):
        assert pl.geometric_phase_of_drive(1e9, 0.5, 1) == pytest.approx(0.0, abs=1e-6)

    def test_three_quarter_detuning(self):
        # cos(alpha) = 0.75/1.25 = 0.6 -> -0.4 pi
        got = pl.geometric_phase_of_drive(0.375, 0.5, 1)
        assert got == pytest.approx(-0.4 * math.pi, abs=1e-12)

    def test_requires_positive_rabi(self):
        with pytest.raises(ContractError):
            pl.geometric_phase_of_drive(0.1, 0.0, 1)

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.375, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_dynamics_matches_solid_angle_law(self, delta, n):
        want = pl.geometric_phase_of_drive(delta, 0.5, n)
        got = pl.measure_geometric_phase(delta, 0.5, n)
        assert abs(pl.wrap_angle(got - want)) < 1e-3


class TestPirs:
    def test_rest_state_stays_zero(self):
        m = pl.PIRSModel(shift_khz=100.0, time_constant_us=50.0, enabled=True)
        assert pl.pirs_detuning(0.0, m, drive_active=True) == pytest.approx(0.0)

    def test_saturation(self):
        m = pl.PIRSModel(shift_khz=100.0, time_constant_us=10.0, enabled=True)
        assert pl.pirs_detuning(1000.0, m, drive_active=True) == pytest.approx(100.0)

    def test_relaxation_toward_zero(self):
        m = pl.PIRSModel(shift_khz=100.0, time_constant_us=10.0, accumulated_khz=100.0)
        assert pl.pirs_detuning(1000.0, m, drive_active=False) == pytest.approx(0.0)

    def test_recalibrated_profile_sweeps_zero_to_amplitude(self):
        m = pl.PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)
        prof = pl.relaxation_detuning_profile(m)
        assert prof(0.0) == pytest.approx(0.0)
        assert abs(prof(12.0)) * 1e3 == pytest.approx(120.0, rel=0.05)

    def test_ideal_curve_alternates_and_drift_deviates(self, params):
        eng = pl.engine_for(params)
        t_turn = 1.0 / (eng.rabi["ESR"] * eng.electron_transition("e2", 0, 1).amplitude)
        durs = np.arange(0, 7) * t_turn
        ideal = pl.cz_flip_curve(params, durs)
        expected = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        assert np.allclose(ideal, expected, atol=1e-9)
        drift = pl.cz_flip_curve(
            params, durs, pirs=pl.PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)
        )
        assert abs(drift[1] - ideal[1]) < 0.05  # first turn still a clean phase
        assert abs(drift[-1] - ideal[-1]) > 0.1


class TestPhaseMap:
    def test_zero_duration_column_flips(self, params):
        center = pl.phase_map_center_frequency(pl.engine_for(params))
        res = pl.phase_map(params, [center - 5, center, center + 5], [0.0])
        assert np.allclose(res.p_flip[:, 0], 1.0, atol=1e-9)

    def test_conditional_phase_point(self, params):
        anchors = pl.phase_map_anchors(pl.engine_for(params))
        f, t, v = pl.calibrate_point(
            params, anchors.cz_freq_mhz, anchors.cz_duration_us, metric="p_flip"
        )
        assert v <= 0.01

    def test_entangling_point_norm(self, params):
        anchors = pl.phase_map_anchors(pl.engine_for(params))
        f, t, v = pl.calibrate_point(
            params,
            anchors.entangle_freq_mhz,
            anchors.entangle_duration_us,
            metric="norm",
        )
        assert v <= 0.05

    def test_empty_grid_rejected(self, params):
        with pytest.raises(ContractError):
            pl.phase_map(params, [], [1.0])


class TestRamsey:
    def test_no_noise_no_decay(self):
        tr = pl.ramsey_trace("n1", [0.0, 5.0, 50.0], 0.0, 100, seed=1)
        assert np.allclose(tr.p_up, 1.0)

    def test_t2_constant_conversion_roundtrip(self):
        assert pl.t2_star_from_sigma(pl.sigma_from_t2_star(20.0)) == pytest.approx(20.0)

    def test_envelope_matches_gaussian(self):
        sigma = pl.sigma_from_t2_star(20.0)
        n = 20000
        waits = np.linspace(0.0, 50.0, 11)
        tr = pl.ramsey_trace("e1", waits, sigma, n, seed=5)
        for meas, env in zip(tr.p_up, (1 + tr.envelope) / 2):
            assert abs(meas - env) <= 3.0 / math.sqrt(n) + 1e-12

    def test_one_over_e_point(self):
        sigma = pl.sigma_from_t2_star(10.0)
        tr = pl.ramsey_trace("n1", [10.0], sigma, 40000, seed=9)
        envelope = 2 * tr.p_up[0] - 1
        assert envelope == pytest.approx(math.exp(-1.0), abs=3.0 / math.sqrt(40000) * 2)


# ---------------------------------------------------------------------------
# per-point loops that the closed-form kernels must reproduce


def _scalar_flip_rate(q_down, q_up):
    if q_down + q_up <= 0:
        return 0.0
    return 2.0 * q_down * q_up / (q_down + q_up)


def _flip_probabilities(pulse, u_drive, target, spectator_bit, p_up, observe=None):
    """q[b] for target start b, evolving each start state matrix by matrix."""
    e_fresh = pl._electron_load(p_up)
    q_flip = {}
    for b in (0, 1):
        k = 2 * b + spectator_bit if target == "n1" else 2 * spectator_bit + b
        nuc = np.zeros((4, 4), dtype=complex)
        nuc[k, k] = 1.0
        rho = np.kron(nuc, e_fresh)
        rho = pulse @ rho @ pulse.conj().T
        rho = u_drive @ rho @ u_drive.conj().T
        if observe is not None and spectator_bit == 1 and b == 1:
            observe(rho)
        rho = pulse @ rho @ pulse.conj().T
        q_flip[b] = pl._measure_distribution(rho, (target,)).get((b,), 0.0)
    return q_flip


def reference_phase_map(params, freqs, durs, mode, p_up, observables):
    engine = pl.engine_for(params)
    opening = engine.step_unitary(pl.GateStep("n2", math.pi / 2, math.pi / 2), mode)
    weights = {0: p_up, 1: 1.0 - p_up}
    pf = np.zeros((len(freqs), len(durs)))
    obs = {s: {k: np.zeros_like(pf) for k in ("x", "y", "norm")} for s in SPINS}
    drive_op = engine.rabi["ESR"] * engine.channel_ops["ESR"][1]
    for fi, f in enumerate(freqs):
        if mode == pl.GATE_MODEL:
            diag = engine.energies - engine._frame_diag(float(f))
            d_eig = engine.vectors.conj().T @ drive_op @ engine.vectors
            d_eig = np.where(engine._gate_mask["ESR"], d_eig, 0.0)
            w, q = np.linalg.eigh(np.diag(diag) + d_eig)
            basis = engine.vectors @ q
        else:
            w, basis = np.linalg.eigh(engine.free_hamiltonian(f_e=float(f)) + drive_op)
        for di, t in enumerate(durs):
            u_drive = (basis * np.exp(-2j * np.pi * w * t)) @ basis.conj().T

            def observe(rho):
                for s in SPINS:
                    x, y, z = (float(np.real(np.trace(pauli_op(s, ax) @ rho))) for ax in "xyz")
                    obs[s]["x"][fi, di] = 0.5 * (1 + x)
                    obs[s]["y"][fi, di] = 0.5 * (1 + y)
                    obs[s]["norm"][fi, di] = math.sqrt(x * x + y * y + z * z)

            rate = 0.0
            for b1, weight in weights.items():
                if weight == 0.0:
                    continue
                q_flip = _flip_probabilities(
                    opening, u_drive, "n2", b1, p_up, observe if observables else None
                )
                rate += weight * _scalar_flip_rate(q_flip[1], q_flip[0])
            pf[fi, di] = rate
    return pf, obs


def reference_cz_flip_curve(params, durs, pirs, mode, p_up):
    engine = pl.engine_for(params)
    tr = engine.electron_transition("e2", n1=0, n2=1)
    opening = engine.step_unitary(pl.GateStep("n1", math.pi / 2, math.pi / 2), mode)
    out = np.zeros(len(durs))
    for di, t in enumerate(durs):
        if mode == pl.GATE_MODEL:
            u_drive = pl.addressed_pulse_unitary(engine, tr, float(t), pirs=pirs)
        else:
            pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], float(t))
            step = pl.PulseStep(pulse, apply_pirs=pirs is not None)
            u_drive = engine.step_unitary(step, mode, pirs=pirs)
        for b2, weight in {0: p_up, 1: 1.0 - p_up}.items():
            if weight != 0.0:
                q_flip = _flip_probabilities(opening, u_drive, "n1", b2, p_up)
                out[di] += weight * _scalar_flip_rate(q_flip[1], q_flip[0])
    return out


ORACLE_TOL = 1e-12
FALLBACK_DRIFT = pl.PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)


@pytest.mark.filterwarnings("ignore:rabi")
class TestClosedFormKernels:
    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("p_up", [0.0, 0.14])
    def test_phase_map_matches_per_point_loop(self, params, mode, p_up):
        engine = pl.engine_for(params)
        anchors = pl.phase_map_anchors(engine)
        center = pl.phase_map_center_frequency(engine)
        freqs = [center - 4.0, anchors.cz_freq_mhz, center, anchors.entangle_freq_mhz]
        durs = [0.0, 0.7, anchors.cz_duration_us, 6.5]
        got = pl.phase_map(
            params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=p_up), observables=True
        )
        want_pf, want_obs = reference_phase_map(params, freqs, durs, mode, p_up, True)
        assert np.max(np.abs(got.p_flip - want_pf)) < ORACLE_TOL
        for s in SPINS:
            for k in ("x", "y", "norm"):
                assert np.max(np.abs(got.observables[s][k] - want_obs[s][k])) < ORACLE_TOL

    def test_phase_map_without_observables(self, params):
        center = pl.phase_map_center_frequency(pl.engine_for(params))
        freqs, durs = [center - 1.0, center + 2.0], [0.0, 1.5, 3.0]
        got = pl.phase_map(params, freqs, durs, noise=pl.NoiseModel(p_up=0.14))
        want, _ = reference_phase_map(params, freqs, durs, pl.GATE_MODEL, 0.14, False)
        assert got.observables == {}
        assert np.max(np.abs(got.p_flip - want)) < ORACLE_TOL

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("pirs", [None, FALLBACK_DRIFT], ids=["ideal", "drift"])
    def test_cz_flip_curve_matches_per_point_loop(self, params, mode, pirs):
        durs = np.linspace(0.0, 6.0, 7)
        noise = pl.NoiseModel(p_up=0.14)
        got = pl.cz_flip_curve(params, durs, pirs=pirs, mode=mode, noise=noise)
        want = reference_cz_flip_curve(params, durs, pirs, mode, 0.14)
        assert np.max(np.abs(got - want)) < ORACLE_TOL

    def test_negative_duration_rejected(self, params):
        with pytest.raises(ContractError, match="negative duration"):
            pl.phase_map(params, [28000.0], [0.0, -1.0])
