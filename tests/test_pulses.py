import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from donorpair import pulses as pl
from donorpair import spam
from donorpair.experiments import _shot_proportions
from donorpair.linalg import ContractError, unitary_exp
from donorpair.spinmodel import (
    SPIN_INDEX,
    SPINS,
    SystemParams,
    basis_index,
    pauli_op,
)

from oracles import (
    addressed_drive,
    barycentric,
    basis_bits,
    calibrate_point,
    dense_flip_readout,
    geometric_phase_of_drive,
    nuclear_distribution,
    oracle_tolerance,
    partial_trace,
    phase_map_anchors,
    ramsey_monte_carlo,
)

PSI_PLUS = np.array([0, 1, 1, 0]) / np.sqrt(2)
CHANNEL_SPINS = {"ESR": ("e1", "e2"), "NMR": ("n1", "n2")}


@pytest.fixture(scope="module")
def params():
    return SystemParams()


@pytest.fixture(scope="module")
def engine(params):
    return pl.engine_for(params)


@pytest.fixture
def exp_sizes(monkeypatch):
    """The size of every np.exp argument from here to the end of the test."""
    sizes = []
    exp = np.exp

    def counting_exp(x):
        sizes.append(np.size(x))
        return exp(x)

    monkeypatch.setattr(pl.np, "exp", counting_exp)
    return sizes


def nuclear_state(result):
    return partial_trace(result.final_state, (0, 1), 4)


def fidelity_to(rho, psi):
    return float(np.real(psi.conj() @ rho @ psi))


def frame_operator(f_e, f_n):
    """The frame generator in the product basis: the electrons at f_e and
    the nuclei at f_n = (f_n1, f_n2)."""
    electrons = pauli_op("e1", "z") + pauli_op("e2", "z")
    return (f_n[0] * pauli_op("n1", "z") + f_n[1] * pauli_op("n2", "z") + f_e * electrons) / 2


def eigenbasis_frame(engine, f_e, f_n=None):
    """Diagonal of the frame generator in the secular eigenbasis, where each
    spin's Z (read from `pauli_op`) is diagonal with entries +-1."""
    v = engine.vectors
    zd = {s: np.rint(np.real(np.diag(v.conj().T @ pauli_op(s, "z") @ v))) for s in SPINS}
    f_n1, f_n2 = (engine.f_n1_ref, engine.f_n2_ref) if f_n is None else f_n
    return (f_n1 * zd["n1"] + f_n2 * zd["n2"] + f_e * (zd["e1"] + zd["e2"])) / 2.0


def channel_drive(channel, rabi_mhz, phase_rad=0.0):
    """Rotating-wave drive rabi (cos(phi) X + sin(phi) Y) of one channel, with
    X and Y the summed spin operators of its two spins."""
    x_op, y_op = (sum(pauli_op(s, ax) for s in CHANNEL_SPINS[channel]) / 2 for ax in "xy")
    return rabi_mhz * (math.cos(phase_rad) * x_op + math.sin(phase_rad) * y_op)


def eigenbasis_drive(engine, channel, rabi_mhz, phase_rad=0.0, mode=pl.GATE_MODEL):
    """Rotating-wave drive in the secular eigenbasis, built from
    `engine.vectors` alone. The gate model keeps it on the pairs whose
    |<f| sum sigma_x |i>| exceeds GATE_PAIR_THRESHOLD; full dynamics keeps
    every pair."""
    v = engine.vectors
    drive = v.conj().T @ channel_drive(channel, rabi_mhz, phase_rad) @ v
    if mode == pl.FULL_DYNAMICS:
        return drive
    return np.where(np.abs(v.conj().T @ channel_drive(channel, 2.0) @ v) > pl.GATE_PAIR_THRESHOLD, drive, 0.0)


def eigenbasis_hamiltonian(engine, channel, f_e, rabi_mhz, phase_rad=0.0, f_n=None, mode=pl.GATE_MODEL):
    """Pulse Hamiltonian in the secular eigenbasis: the level energies minus
    the frame, plus the mode's `eigenbasis_drive`."""
    frame = eigenbasis_frame(engine, f_e, f_n)
    return np.diag(engine.energies - frame) + eigenbasis_drive(engine, channel, rabi_mhz, phase_rad, mode)


def addressed_block(engine, tr, carrier_mhz, rabi_mhz, phase_rad=0.0):
    """Gate-model rotating-frame Hamiltonian of one ESR pulse restricted to
    the addressed pair of eigenlevels (lower level first)."""
    h = eigenbasis_hamiltonian(engine, "ESR", carrier_mhz, rabi_mhz, phase_rad)
    levels = [engine._level_of[tr.lo_index], engine._level_of[tr.hi_index]]
    return h[np.ix_(levels, levels)]


class TestRotatingFrame:
    def setup_method(self):
        self.sx = np.array([[0, 0.5], [0.5, 0]])

    def test_no_drive_is_frame_shifted_static(self, engine):
        # moving the electron carrier from 100 to 40 MHz adds 60 MHz along
        # the summed electron Z, and a zero-amplitude drive adds nothing
        z = (pauli_op("e1", "z") + pauli_op("e2", "z")) / 2
        for mode in pl.MODES:
            out = engine.free_hamiltonian(40.0) + engine.drive_hamiltonian(mode, "ESR", 0.0)
            assert np.allclose(out, engine.free_hamiltonian(100.0) + 60.0 * z)

    def test_free_hamiltonian_is_secular_minus_frame(self, engine):
        # the frame generator is diagonal in the product basis: only the
        # diagonal moves, and it moves by the frame's Z operators
        f_e, f_n = 27940.0, (62.0, -49.0)
        got = engine.free_hamiltonian(f_e, f_n)
        off = ~np.eye(16, dtype=bool)
        assert np.array_equal(got[off], engine.h_sec[off])
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - (engine.h_sec - frame_operator(f_e, f_n)))) <= eps * f_e
        # in the eigenbasis it is the gate model's level energies minus the
        # frame, up to the backward error of the secular eigendecomposition
        v = engine.vectors
        eig = np.diag(engine.energies - eigenbasis_frame(engine, f_e, f_n))
        assert np.max(np.abs(v.conj().T @ got @ v - eig)) <= 4 * eps * np.abs(engine.energies).max()

    @pytest.mark.parametrize("j", [12.0, 50.0])
    @pytest.mark.parametrize("channel", ["ESR", "NMR"])
    @pytest.mark.parametrize("phase", [0.0, 0.7, -math.pi / 2])
    def test_gate_drive_is_truncated_in_the_eigenbasis(self, j, channel, phase):
        # v (mask o v^dag D v) v^dag: the drive with the pairs off the
        # allowed-transition graph removed, in the product basis
        engine = pl.engine_for(SystemParams(j=j))
        v = engine.vectors
        got = engine.drive_hamiltonian(pl.GATE_MODEL, channel, 0.3, phase)
        want = v @ eigenbasis_drive(engine, channel, 0.3, phase) @ v.conj().T
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(got - got.conj().T)) <= 1e-15
        full = engine.drive_hamiltonian(pl.FULL_DYNAMICS, channel, 0.3, phase)
        assert np.array_equal(full, channel_drive(channel, 0.3, phase))
        # at j = 50 MHz the electron drive has lines weaker than
        # GATE_PAIR_THRESHOLD, which the gate model cuts; elsewhere the
        # lines it cuts are zero up to rounding
        assert (np.max(np.abs(full - got)) > 1e-3) == (j == 50.0 and channel == "ESR")

    @pytest.mark.parametrize("channel", ["ESR", "NMR"])
    def test_modes_share_free_hamiltonian(self, engine, channel, monkeypatch):
        # a pulse evolves under free + drive in either mode, and drifts along
        # its species' summed Z; the modes differ only in the drive
        if channel == "ESR":
            carrier, rabi = abs(engine.electron_transition("e2", 0, 1).frequency_mhz), 0.05
        else:
            carrier, rabi = abs(engine.nuclear_transition("n1").frequency_mhz), 0.01
        pulse = pl.PulseSpec(channel, carrier + 0.02, rabi, 1.3, phase_rad=0.4)
        seen = []

        def record(h0, z_shift, durations_us, pirs=None):
            seen.append((h0, z_shift))
            return sliced(h0, z_shift, durations_us, pirs)

        sliced = pl.sliced_propagators
        monkeypatch.setattr(pl, "sliced_propagators", record)
        for mode in pl.MODES:
            engine.pulse_propagator(pulse, mode, pirs=pl.PIRSModel())
            h0, z_shift = seen.pop()
            assert np.array_equal(h0, pulse_hamiltonian(engine, pulse, mode))
            assert np.array_equal(z_shift, engine.channel_ops[channel][0])

    def test_on_resonance_reduction(self, engine):
        tr = engine.electron_transition("e1", 1, 0)
        out = addressed_block(engine, tr, abs(tr.frequency_mhz), 0.4)
        # standard rotating-wave form (rabi/2) sigma_x on the pair, scaled
        # by the line's drive amplitude, over a common level offset
        assert np.allclose(np.abs(out - out[0, 0] * np.eye(2)), 0.4 * tr.amplitude * self.sx)

    def test_detuned_generalized_rabi_splitting(self, engine):
        delta, rabi = 0.3, 0.4
        tr = engine.electron_transition("e1", 1, 0)
        out = addressed_block(engine, tr, abs(tr.frequency_mhz) - delta, rabi)
        w = np.linalg.eigvalsh(out)
        # the block's diagonal is a difference of ~1e4 MHz level energies,
        # so it carries a rounding error of order 1e-12 MHz
        assert w[1] - w[0] == pytest.approx(math.hypot(rabi * tr.amplitude, delta), abs=1e-9)


class TestValidation:
    def test_noise_model_bounds(self):
        with pytest.raises(ContractError):
            pl.NoiseModel(p_up=0.7)
        with pytest.raises(ContractError):
            pl.NoiseModel(sigma_f_mhz=-1.0)
        # no runner draws quasi-static offsets: a spread would be ignored
        with pytest.raises(ContractError, match="use the ramsey option sigma_f_mhz"):
            pl.NoiseModel(sigma_f_mhz=0.1)

    def test_pirs_bounds(self):
        with pytest.raises(ContractError):
            pl.PIRSModel(time_constant_us=0.0)

    def test_pirs_shift_ceiling(self):
        assert pl.PIRSModel(shift_khz=5000.0).shift_khz == pl.MAX_SHIFT_KHZ
        with pytest.raises(ContractError, match="at most 5000.0 kHz"):
            pl.PIRSModel(shift_khz=5000.1)

    def test_pulse_bounds(self):
        with pytest.raises(ContractError):
            pl.PulseSpec("ESR", 100.0, rabi_mhz=0.1, duration_us=-1.0)
        with pytest.raises(ContractError):
            pl.PulseSpec("XYZ", 100.0, rabi_mhz=0.1, duration_us=1.0)

    @pytest.mark.parametrize(
        "value, field, message",
        [
            (pl.PIRSModel(), "shift_khz", "shift amplitude must be non-negative"),
            (pl.PIRSModel(), "time_constant_us", "time constant must be positive"),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "duration_us", "pulse duration must be non-negative"),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "rabi_mhz", "rabi frequency must be non-negative"),
            (SystemParams(), "a1", "hyperfine couplings a1, a2 must be positive"),
            (SystemParams(), "a2", "hyperfine couplings a1, a2 must be positive"),
            (SystemParams(), "j", "exchange coupling j must be non-negative"),
            (SystemParams(), "b0", "magnetic field b0 must be positive"),
            (SystemParams(), "g1", "electron g-factors g1, g2 must be positive"),
            (SystemParams(), "g2", "electron g-factors g1, g2 must be positive"),
        ],
    )
    def test_nan_field_rejected(self, value, field, message):
        # every comparison with NaN is false, so each range check must be
        # one that NaN fails; accepted, a NaN surfaced only far downstream
        with pytest.raises(ContractError, match=message):
            replace(value, **{field: math.nan})

    @pytest.mark.parametrize(
        "value, field, bad",
        [
            (SystemParams(), "mu_b_over_h", math.nan),
            (SystemParams(), "gamma_n", math.nan),
            (SystemParams(), "j", math.inf),
            (SystemParams(), "a1", math.inf),
            (SystemParams(), "a2", math.inf),
            (SystemParams(), "b0", math.inf),
            (SystemParams(), "g1", math.inf),
            (SystemParams(), "g2", math.inf),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "carrier_mhz", math.nan),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "phase_rad", math.nan),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "rabi_mhz", math.inf),
            (pl.PulseSpec("ESR", 100.0, 0.1, 1.0), "duration_us", math.inf),
        ],
    )
    def test_non_finite_field_rejected(self, value, field, bad):
        # rejected where it is built, by name; accepted, each surfaced only
        # as a non-Hermitian NaN matrix far downstream
        with pytest.raises(ContractError, match=f"^{field} must be finite"):
            replace(value, **{field: bad})

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize(
        "step, args",
        [
            (pl.GateStep, ("e1", math.pi / 2)),
            (pl.CzStep, ("n1", 1, 0)),
            (pl.CzStep, ("e2", 2, 0)),
            (pl.CzStep, ("e2", 1, -1)),
            (pl.InitStep, (("x",),)),
            (pl.InitStep, ("n1",)),
            (pl.ProjectStep, ("e1", "Z")),
            (pl.ProjectStep, ("bogus", "z")),
            (pl.ProjectStep, ("n1", "w")),
            (pl.MeasureStep, (("n1", "e2"),)),
            (pl.MeasureStep, ("n1",)),
        ],
        ids=[
            "gate-on-electron", "cz-on-nucleus", "cz-n1-bit", "cz-n2-bit", "init-unknown-spin",
            "init-spin-string", "project-electron", "project-unknown-spin", "project-axis",
            "measure-electron", "measure-spin-string",
        ],
    )
    def test_step_targets_checked_at_construction(self, params, mode, step, args):
        # unchecked, the gate model ran a gate or CZ on a wrong target as the
        # identity and full dynamics divided by its zero drive amplitude; a
        # projection of a wrong spin ran as the identity, and initializing an
        # unknown spin failed with a KeyError only when the sequence ran
        with pytest.raises(ContractError):
            step(*args)
        valid = {
            pl.GateStep: ("n1", math.pi / 2),
            pl.CzStep: ("e2", 1, 0),
            pl.InitStep: (("e1", "n2"),),
            pl.ProjectStep: ("n2", "y"),
            pl.MeasureStep: (("n2", "n1"),),
        }[step]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # full dynamics' selectivity warning
            res = pl.run_sequence([pl.InitStep(), step(*valid), pl.MeasureStep(("n1",))], params, mode=mode)
            if step not in (pl.InitStep, pl.MeasureStep):
                u = pl.engine_for(params).step_unitary(step(*valid), mode)
                assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-10)
        assert np.trace(res.final_state).real == pytest.approx(1.0, abs=1e-9)
        assert sum(res.outcome_probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_measure_before_initialize_rejected(self, params):
        with pytest.raises(ContractError):
            pl.run_sequence([pl.MeasureStep(("n1",))], params)
        with pytest.raises(ContractError):
            pl.run_sequence([pl.GateStep("n1", math.pi), pl.MeasureStep(("n1",)), pl.InitStep()], params)

    def test_measure_on_electron_rejected(self, params):
        with pytest.raises(ContractError):
            pl.run_sequence([pl.InitStep(), pl.MeasureStep(("e1",))], params)


class TestGateModel:
    def test_pi_pulse_defining_action(self):
        # pi on n2 conditional e2 down flips n2 wherever e2 is down
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 0, 1, 1)] = 1.0  # D U d d
        u = pl.labelled_unitary(pl.GateStep("n2", math.pi, math.pi / 2))
        out = u @ psi
        target = basis_index(1, 1, 1, 1)
        assert abs(out[target]) == pytest.approx(1.0, abs=1e-12)

    def test_gate_identity_when_electron_up(self):
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 0, 1, 0)] = 1.0  # e2 up: conditioned gate idles
        u = pl.labelled_unitary(pl.GateStep("n2", math.pi, 0.0))
        assert abs((u @ psi)[basis_index(1, 0, 1, 0)]) == pytest.approx(1.0)

    def test_full_turn_imparts_minus_one(self):
        u = pl.labelled_unitary(pl.CzStep("e2", n1=1, n2=0, turns=1))
        idx = basis_index(1, 0, 1, 1)
        assert u[idx, idx] == pytest.approx(-1.0)
        other = basis_index(1, 1, 1, 1)
        assert u[other, other] == pytest.approx(1.0)

    def test_two_turns_restore_identity(self):
        u = pl.labelled_unitary(pl.CzStep("e2", n1=1, n2=0, turns=2))
        assert np.allclose(u, np.eye(16))


class TestFullDynamics:
    def test_resonant_full_turn_completes_in_two_us(self, params, engine):
        spec = engine.compile(pl.CzStep("e2", n1=1, n2=0, turns=1))
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
        assert abs(spam.wrap_angle(np.angle(coh) - math.pi)) < 0.05

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
        spec = engine.compile(pl.CzStep("e2", n1=1, n2=0, turns=1))
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

    def test_bell_with_spam_is_degraded(self, params):
        res = pl.run_sequence(
            pl.bell_prep(), params, noise=pl.NoiseModel(p_up=0.14), mode=pl.GATE_MODEL
        )
        f = fidelity_to(nuclear_state(res), PSI_PLUS)
        assert 0.6 < f < 0.9


class TestRunSequence:
    def test_partial_init_leaves_other_spins_down(self, params):
        # a run starts all down: the nuclei carry no loading error unless an
        # InitStep lists them
        steps = [pl.InitStep(("e1", "e2")), pl.MeasureStep(("n1", "n2"))]
        res = pl.run_sequence(steps, params, noise=pl.NoiseModel(p_up=0.14))
        assert res.outcome_probabilities == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
        e1 = partial_trace(res.final_state, (2,), 4)
        assert np.allclose(e1, np.diag([0.14, 0.86]))

    @pytest.mark.parametrize("spins", [("n1", "n2"), ("n2", "n1"), ("n1",), ("n2",), ()])
    def test_measure_step_matches_index_loop(self, params, spins):
        # a loaded Bell preparation gives every joint outcome some weight
        steps = [*pl.bell_prep(), pl.ProjectStep("n1", "X"), pl.MeasureStep(spins)]
        res = pl.run_sequence(steps, params, noise=pl.NoiseModel(p_up=0.14))
        joint = nuclear_distribution(res.final_state)
        if spins == ("n1", "n2"):  # the same sums in the same order
            assert res.outcome_probabilities == joint
        want = {}
        for (o1, o2), p in joint.items():
            key = tuple({"n1": o1, "n2": o2}[s] for s in spins)
            want[key] = want.get(key, 0.0) + p
        assert res.outcome_probabilities.keys() == want.keys()
        assert all(res.outcome_probabilities[k] == pytest.approx(want[k], abs=1e-15) for k in want)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    def test_idle_precesses_at_the_offset(self, engine, mode, delta):
        # n1 along +X from all down, then idles of t us with n1 offset by
        # delta MHz: (<X>, <Y>) turns to (cos 2 pi delta t, sin 2 pi delta t)
        psi = np.zeros(16, dtype=complex)
        psi[basis_index(1, 1, 1, 1)] = 1.0
        psi = engine.step_unitary(pl.GateStep("n1", math.pi / 2, math.pi / 2), mode) @ psi

        def bloch_xy(state):
            return [np.real(state.conj() @ pauli_op("n1", ax) @ state) for ax in "xy"]

        # the compiled full-dynamics pulse leaves <Y> at about 2.4e-12
        assert bloch_xy(psi) == pytest.approx([1.0, 0.0], abs=1e-12 if mode == pl.GATE_MODEL else 1e-11)
        x0, y0 = bloch_xy(psi)
        for t in (0.0, 1.3, 7.9, 25.0):
            idle = unitary_exp(engine.free_hamiltonian() + delta * pauli_op("n1", "z") / 2, t)
            c, s = math.cos(2 * math.pi * delta * t), math.sin(2 * math.pi * delta * t)
            assert bloch_xy(idle @ psi) == pytest.approx([c * x0 - s * y0, s * x0 + c * y0], abs=1e-12)

    def test_probability_mode_consumes_no_rng(self, params):
        steps = pl.bell_prep() + [pl.MeasureStep(("n1", "n2"))]
        res = pl.run_sequence(steps, params)
        assert res.outcome_probabilities[(0, 1)] == pytest.approx(0.5)
        assert res.outcome_probabilities[(1, 0)] == pytest.approx(0.5)


def measure_geometric_phase(engine, delta_f_mhz, rabi_mhz, n_loops):
    """Geometric phase of n closed generalized Rabi loops on the engine's
    electron-1 down-up line, at effective Rabi frequency `rabi_mhz` and the
    carrier `delta_f_mhz` above the line.

    The lower level evolves under the addressed pair's rotating-frame
    Hamiltonian; the dynamical phase -2 pi t <H> is subtracted and the
    remainder is wrapped to (-pi, pi].
    """
    tr = engine.electron_transition("e1", 1, 0)
    h = addressed_block(engine, tr, abs(tr.frequency_mhz) + delta_f_mhz, rabi_mhz / tr.amplitude)
    t = n_loops / math.hypot(rabi_mhz, delta_f_mhz)
    amp = unitary_exp(h, t)[0, 0]
    dyn = -2 * math.pi * t * np.real(h[0, 0])
    return float(spam.wrap_angle(np.angle(amp) - dyn))


class TestGeometricPhase:
    def test_closed_resonant_loop(self):
        assert geometric_phase_of_drive(0.0, 0.5, 1) == pytest.approx(-math.pi)

    def test_far_detuned_limit(self):
        assert geometric_phase_of_drive(1e9, 0.5, 1) == pytest.approx(0.0, abs=1e-6)

    def test_three_quarter_detuning(self):
        # cos(alpha) = 0.75/1.25 = 0.6 -> -0.4 pi
        got = geometric_phase_of_drive(0.375, 0.5, 1)
        assert got == pytest.approx(-0.4 * math.pi, abs=1e-12)

    def test_requires_positive_rabi(self):
        with pytest.raises(ContractError):
            geometric_phase_of_drive(0.1, 0.0, 1)

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.375, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_dynamics_matches_solid_angle_law(self, engine, delta, n):
        want = geometric_phase_of_drive(delta, 0.5, n)
        got = measure_geometric_phase(engine, delta, 0.5, n)
        assert abs(spam.wrap_angle(got - want)) < 1e-3


def read_out(readout, drives):
    """Flip rate of each drive of a (durations, 16, 16) stack, read out with
    a factored `pl._flip_readout` by the products `cz_flip_curve` takes."""
    pulse, weights, flips, loads = readout
    squared = np.abs(pulse @ drives @ pulse) ** 2
    q = ((flips @ squared).transpose(1, 0, 2) @ loads.transpose(1, 2, 0)).transpose(2, 0, 1)
    return pl._stationary_flip_rate(weights, q)


class TestPirs:
    def test_recalibrated_profile_sweeps_zero_to_amplitude(self):
        m = pl.PIRSModel(shift_khz=120.0, time_constant_us=3.0, enabled=True)
        assert m.detuning_mhz(0.0) == pytest.approx(0.0)
        assert abs(m.detuning_mhz(12.0)) * 1e3 == pytest.approx(120.0, rel=0.05)

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

    @pytest.mark.filterwarnings("ignore:rabi")
    def test_modes_agree_at_whole_turns_as_the_drive_squared(self, params):
        # the selective-drive limit: at two whole turns the gate-versus-full
        # gap falls about 4x per halving of the ESR drive; at half a turn the
        # modes read 0.5 and 0.375 at every drive, since the electron is left
        # partly excited when the readout pulse acts
        gaps = []
        for rabi in (0.1, 0.05, 0.025, 0.0125):
            engine = pl.SequenceEngine(params, rabi_electron_mhz=rabi)
            turn = engine.compile(pl.CURVE_CZ).duration_us
            durs = [0.5 * turn, 2 * turn]
            gate, full = (pl.cz_flip_curve(params, durs, mode=m, engine=engine) for m in pl.MODES)
            assert gate[0] == pytest.approx(0.5, abs=1e-9)
            assert full[0] == pytest.approx(0.375, abs=1e-4)
            gaps.append(abs(gate[1] - full[1]))
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios

    @pytest.mark.filterwarnings("ignore:rabi")
    def test_mid_turn_gap_is_the_readout_pulses(self, params):
        # the gate model's addressed drive, read out with the full-dynamics
        # pi/2 pulses on n1, tracks full dynamics over two turns to a gap
        # that falls as the drive squared, and reads 0.375 at half a turn:
        # the modes' mid-turn gap comes from the readout, not the drive
        gaps, half = [], []
        for rabi in (0.1, 0.05, 0.025):
            engine = pl.SequenceEngine(params, rabi_electron_mhz=rabi)
            durs = np.linspace(0.0, 2 * engine.compile(pl.CURVE_CZ).duration_us, 33)
            drives = addressed_drive(engine, durs)
            for p_up in (0.14, 0.0):
                noise = pl.NoiseModel(p_up=p_up)
                gate, full = (pl.cz_flip_curve(params, durs, mode=m, noise=noise, engine=engine) for m in pl.MODES)
                readouts = {m: pl._flip_readout(engine, "n1", m, p_up) for m in pl.MODES}
                tol = 2 * oracle_tolerance(drift_layout(engine, "addressed")[0], durs)
                assert np.max(np.abs(read_out(readouts[pl.GATE_MODEL], drives) - gate)) < tol
                hybrid = read_out(readouts[pl.FULL_DYNAMICS], drives)
                if p_up:
                    gaps.append(np.max(np.abs(hybrid - full)))
                else:
                    half.append(hybrid[8])
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert gaps[0] < 5e-3 and np.all((3.5 <= ratios) & (ratios <= 4.5)), gaps
        assert half == pytest.approx([0.375] * 3, abs=1e-6)

    @pytest.mark.parametrize("p_up", [0.0, 0.14, 0.5])
    @pytest.mark.parametrize(
        "pirs",
        [pl.PIRSModel(enabled=False), pl.PIRSModel(), pl.PIRSModel(shift_khz=5000.0, time_constant_us=0.3)],
        ids=["no_drift", "default_drift", "ceiling_drift"],
    )
    def test_gate_model_curve_is_the_addressed_drive(self, params, p_up, pirs):
        # the gate model's drive, built from `gate_condition`, is the
        # addressed-pair drive bit for bit, read out the same way
        engine = pl.engine_for(params)
        durs = np.linspace(0.0, 2 * engine.compile(pl.CURVE_CZ).duration_us, 17)
        got = pl.cz_flip_curve(params, durs, pirs=pirs, noise=pl.NoiseModel(p_up=p_up))
        want = read_out(pl._flip_readout(engine, "n1", pl.GATE_MODEL, p_up), addressed_drive(engine, durs, pirs))
        assert np.array_equal(got, want)


class TestPhaseMap:
    def test_zero_duration_column_flips(self, params):
        center = pl.phase_map_center_frequency(pl.engine_for(params))
        res = pl.phase_map(params, [center - 5, center, center + 5], [0.0])
        assert np.allclose(res.p_flip[:, 0], 1.0, atol=1e-9)

    def test_conditional_phase_point(self, params):
        anchors = phase_map_anchors(pl.engine_for(params))
        f, t, v = calibrate_point(
            params, anchors.cz_freq_mhz, anchors.cz_duration_us, metric="p_flip"
        )
        assert v <= 0.01

    def test_entangling_point_norm(self, params):
        anchors = phase_map_anchors(pl.engine_for(params))
        f, t, v = calibrate_point(
            params,
            anchors.entangle_freq_mhz,
            anchors.entangle_duration_us,
            metric="norm",
        )
        assert v <= 0.05

    def test_empty_grid_rejected(self, params):
        with pytest.raises(ContractError):
            pl.phase_map(params, [], [1.0])

    @pytest.mark.parametrize("mode", pl.MODES)
    def test_scalar_axes_are_one_element_grids(self, params, engine, mode):
        # a scalar duration or frequency is the one-element grid, bit for bit;
        # each full-dynamics CZ curve warns of its drive's selectivity once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for pirs in (None, pl.PIRSModel()):
                got = pl.cz_flip_curve(params, 1.3, pirs=pirs, mode=mode, engine=engine)
                assert got.shape == (1,)
                assert np.array_equal(got, pl.cz_flip_curve(params, [1.3], pirs=pirs, mode=mode, engine=engine))
        want = reference_selectivity_message(engine, engine.compile(pl.CURVE_CZ))
        assert want is not None and "rabi 0.5 MHz" in want
        assert [str(w.message) for w in caught] == ([want] * 4 if mode == pl.FULL_DYNAMICS else [])
        freqs, durs = workload_axes(params, 1, 1)
        noise = pl.NoiseModel(p_up=0.14)
        want = pl.phase_map(params, freqs, durs, mode=mode, noise=noise, observables=True, engine=engine)
        for f, t in ((freqs, durs[0]), (freqs[0], durs)):
            got = pl.phase_map(params, f, t, mode=mode, noise=noise, observables=True, engine=engine)
            assert got.p_flip.shape == (1, 1)
            assert np.array_equal(got.p_flip, want.p_flip)
            for s in SPINS:
                for k in ("x", "y", "norm"):
                    assert np.array_equal(got.observables[s][k], want.observables[s][k])


class TestRamsey:
    def test_no_noise_no_decay(self):
        tr = pl.ramsey_trace([0.0, 5.0, 50.0], 0.0)
        assert np.array_equal(tr.envelope, np.ones(3))
        assert tr.t2_star_us == math.inf

    def test_t2_constant_conversion_roundtrip(self):
        # sqrt(2) / (2 pi x) is its own inverse
        assert pl.t2_star_from_sigma(pl.t2_star_from_sigma(20.0)) == pytest.approx(20.0)

    def test_envelope_matches_monte_carlo(self):
        # the exact fringe (1 + E)/2 against shot-by-shot detuning draws,
        # within 4 standard errors of each binomial proportion
        sigma = pl.t2_star_from_sigma(20.0)
        n = 20000
        waits = np.linspace(0.0, 50.0, 11)
        p = (1 + pl.ramsey_trace(waits, sigma).envelope) / 2
        sampled = ramsey_monte_carlo(waits, sigma, n, seed=5)
        assert np.all(np.abs(sampled - p) <= 4 * np.sqrt(p * (1 - p) / n) + 1e-12)

    def test_one_over_e_point(self):
        # E(T2*) = 1/e, and the runner's binomial draw of (1 + E)/2 stays
        # within 3/sqrt(n) of it
        tr = pl.ramsey_trace([10.0], pl.t2_star_from_sigma(10.0))
        assert tr.envelope[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        n = 40000
        p = (1 + tr.envelope) / 2
        assert abs(_shot_proportions(p, n, seed=9)[0] - p[0]) <= 3.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# per-point loops that the closed-form kernels must reproduce


def _flip_rate(pulse, u_drive, target, p_up, observe=None):
    """Stationary flip rate of the target, weighted over the spectator's
    loading: from the flip probability q[b] of each target start b, evolved
    matrix by matrix, 2 q[0] q[1] / (q[0] + q[1]) for each spectator bit."""
    e_fresh = np.kron(np.diag([p_up, 1 - p_up]), np.diag([p_up, 1 - p_up])).astype(complex)
    rate = 0.0
    for spectator_bit, weight in ((0, p_up), (1, 1.0 - p_up)):
        if weight == 0.0:
            continue
        q = [0.0, 0.0]
        for b in (0, 1):
            k = 2 * b + spectator_bit if target == "n1" else 2 * spectator_bit + b
            nuc = np.zeros((4, 4), dtype=complex)
            nuc[k, k] = 1.0
            rho = pulse @ np.kron(nuc, e_fresh) @ pulse.conj().T
            rho = u_drive @ rho @ u_drive.conj().T
            if observe is not None and spectator_bit == 1 and b == 1:
                observe(rho)
            rho = pulse @ rho @ pulse.conj().T
            q[b] = pl._measure_distribution(rho, (target,)).get((b,), 0.0)
        if q[0] + q[1] > 0:
            rate += weight * 2.0 * q[1] * q[0] / (q[1] + q[0])
    return rate


def reference_phase_map(params, freqs, durs, mode, p_up, observables):
    engine = pl.engine_for(params)
    opening = engine.step_unitary(pl.GateStep("n2", math.pi / 2, math.pi / 2), mode)
    pf = np.zeros((len(freqs), len(durs)))
    obs = {s: {k: np.zeros_like(pf) for k in ("x", "y", "norm")} for s in SPINS}
    for fi, f in enumerate(freqs):
        w, q = np.linalg.eigh(eigenbasis_hamiltonian(engine, "ESR", float(f), engine.rabi["ESR"], mode=mode))
        basis = engine.vectors @ q
        for di, t in enumerate(durs):
            u_drive = (basis * np.exp(-2j * np.pi * w * t)) @ basis.conj().T

            def observe(rho):
                for s in SPINS:
                    x, y, z = (float(np.real(np.trace(pauli_op(s, ax) @ rho))) for ax in "xyz")
                    obs[s]["x"][fi, di] = 0.5 * (1 + x)
                    obs[s]["y"][fi, di] = 0.5 * (1 + y)
                    obs[s]["norm"][fi, di] = math.sqrt(x * x + y * y + z * z)

            pf[fi, di] = _flip_rate(opening, u_drive, "n2", p_up, observe if observables else None)
    return pf, obs


def reference_sliced_exp(h0, z_shift, t, pirs):
    """Drifting drive propagator, one `unitary_exp` per slice: a saturated,
    recalibrated drift relaxes the resonance during the pulse, sampled at
    each slice midpoint."""
    if pirs is None or not pirs.enabled:
        return unitary_exp(h0, t)
    n_slices = max(16, int(t / 0.05))
    dt = t / n_slices
    u = np.eye(h0.shape[0], dtype=complex)
    for k in range(n_slices):
        decay = math.exp(-(k + 0.5) * dt / pirs.time_constant_us)
        eps = (pirs.shift_khz * decay - pirs.shift_khz) / 1e3
        u = unitary_exp(h0 + eps * z_shift, dt) @ u
    return u


def reference_pulse_propagator(engine, pulse, mode, pirs=None):
    """Unitary of one rectangular pulse, built in the secular eigenbasis and
    returned through `engine.vectors`: `eigenbasis_hamiltonian` at the pulse
    frame, the drift along the driven species' Z in the same basis, and the
    re-alignment of the nuclei to their standing references, formed from the
    nuclear frame's shift alone (whole frames differ by cancelling electron
    Zeeman terms). A radio pulse turns both nuclei at its carrier."""
    v = engine.vectors
    f_ref = (engine.f_n1_ref, engine.f_n2_ref)
    if pulse.channel == "NMR":
        f_n, f_e = ((-1.0 if f_ref[0] < 0 else 1.0) * pulse.carrier_mhz,) * 2, engine.f_e_default
    else:
        f_n, f_e = f_ref, pulse.carrier_mhz
    h = eigenbasis_hamiltonian(engine, pulse.channel, f_e, pulse.rabi_mhz, pulse.phase_rad, f_n, mode)
    z_shift = v.conj().T @ sum(pauli_op(s, "z") for s in CHANNEL_SPINS[pulse.channel]) @ v / 2
    u = reference_sliced_exp(h, z_shift, pulse.duration_us, pirs)
    realign = eigenbasis_frame(engine, 0.0, (f_ref[0] - f_n[0], f_ref[1] - f_n[1]))
    return v @ (np.exp(2j * np.pi * realign * pulse.duration_us)[:, None] * u) @ v.conj().T


def reference_addressed_unitary(engine, tr, t, pirs):
    """Generalized-Rabi SU(2) on the addressed pair, drift on its upper level."""
    omega = engine.rabi["ESR"] * tr.amplitude
    h2 = np.array([[0.0, omega / 2], [omega / 2, 0.0]], dtype=complex)
    u2 = reference_sliced_exp(h2, np.diag([0.0, 1.0]), t, pirs)
    u = np.eye(16, dtype=complex)
    pair = [tr.lo_index, tr.hi_index]
    u[np.ix_(pair, pair)] = u2
    return u


def reference_selectivity_message(engine, pulse):
    """Selectivity warning text from the pair-by-pair scan, or None. The
    target is the driven line (or lines, within 1e-9 MHz) nearest the
    carrier; the warning measures the nearest other driven line."""
    x = engine._drive_x[pulse.channel]
    f = abs(pulse.carrier_mhz)
    gaps = []
    for i in range(16):
        for j in range(i + 1, 16):
            if abs(x[j, i]) > pl.GATE_PAIR_THRESHOLD:
                gaps.append(abs(abs(engine.energies[j] - engine.energies[i]) - f))
    target = min(gaps, default=math.inf)
    gaps = sorted(g for g in gaps if g > target + 1e-9)
    if gaps and pulse.rabi_mhz > 0.25 * gaps[0]:
        return (
            f"rabi {pulse.rabi_mhz} MHz exceeds a quarter of the "
            f"{gaps[0]:.3f} MHz splitting to the nearest off-target line"
        )
    return None


def reference_cz_flip_curve(params, durs, pirs, mode, p_up):
    engine = pl.engine_for(params)
    tr = engine.electron_transition("e2", n1=0, n2=1)
    opening = engine.step_unitary(pl.GateStep("n1", math.pi / 2, math.pi / 2), mode)
    out = np.zeros(len(durs))
    for di, t in enumerate(durs):
        if mode == pl.GATE_MODEL:
            u_drive = reference_addressed_unitary(engine, tr, float(t), pirs)
        else:
            pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], float(t))
            u_drive = reference_pulse_propagator(engine, pulse, mode, pirs)
        out[di] = _flip_rate(opening, u_drive, "n1", p_up)
    return out


def workload_axes(params, n_freq, n_dur):
    """Phase-map axes over the workloads' ranges: n_freq frequencies across
    +-10 MHz around the centre (the centre alone for one) and n_dur
    durations across 0 to 10 us (5 us alone for one)."""
    center = pl.phase_map_center_frequency(pl.engine_for(params))
    freqs = center + (np.linspace(-10.0, 10.0, n_freq) if n_freq > 1 else np.zeros(1))
    durs = np.linspace(0.0, 10.0, n_dur) if n_dur > 1 else np.array([5.0])
    return freqs, durs


def map_hamiltonians(params, mode, freqs):
    """The phase map's pulse Hamiltonian at each frequency, a (F, 16, 16) stack."""
    e = pl.engine_for(params)
    return e.free_hamiltonian(np.asarray(freqs, dtype=float)) + e.drive_hamiltonian(mode, "ESR", e.rabi["ESR"])


def pulse_hamiltonian(engine, pulse, mode):
    """The static Hamiltonian that `pulse_propagator` exponentiates for a pulse."""
    f_n, f_e, _ = engine._pulse_frame(pulse)
    drive = engine.drive_hamiltonian(mode, pulse.channel, pulse.rabi_mhz, pulse.phase_rad)
    return engine.free_hamiltonian(f_e, f_n) + drive


CEILING_DRIFT = pl.PIRSModel(shift_khz=pl.MAX_SHIFT_KHZ, time_constant_us=0.3, enabled=True)


def drift_layout(engine, layout):
    """(h0, z_shift) of a drive whose drift `sliced_propagators` slices:
    "esr" and "addressed" are `cz_flip_curve`'s in full dynamics and the gate model."""
    if layout == "esr":
        tr = engine.electron_transition("e2", 0, 1)
        z_e, x_e, _ = engine.channel_ops["ESR"]
        return engine.free_hamiltonian(f_e=abs(tr.frequency_mhz)) + engine.rabi["ESR"] * x_e, z_e
    if layout == "addressed":
        omega = engine.rabi["ESR"] * engine.electron_transition("e2", 0, 1).amplitude
        return np.array([[0.0, omega / 2], [omega / 2, 0.0]], dtype=complex), np.diag([0.0, 1.0])
    z_n, x_n, _ = engine.channel_ops["NMR"]
    return engine.free_hamiltonian() + 0.05 * x_n, z_n


@st.composite
def drift_cases(draw):
    """A drift in the model's range and 1-6 durations of at most 3 us, with
    0 and repeats among them."""
    pirs = pl.PIRSModel(
        shift_khz=draw(st.floats(0.0, pl.MAX_SHIFT_KHZ)), time_constant_us=draw(st.floats(0.1, 10.0))
    )
    durs = draw(st.lists(st.just(0.0) | st.floats(0.0, 3.0), min_size=1, max_size=6))
    durs += draw(st.lists(st.sampled_from(durs), max_size=6 - len(durs)))
    return pirs, np.array(durs)


@pytest.mark.filterwarnings("ignore:rabi")
class TestClosedFormKernels:
    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("p_up", [0.0, 0.14])
    def test_phase_map_matches_per_point_loop(self, params, mode, p_up):
        engine = pl.engine_for(params)
        anchors = phase_map_anchors(engine)
        center = pl.phase_map_center_frequency(engine)
        freqs = [center - 4.0, anchors.cz_freq_mhz, center, anchors.entangle_freq_mhz]
        durs = [0.0, 0.7, anchors.cz_duration_us, 6.5]
        got = pl.phase_map(
            params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=p_up), observables=True
        )
        want_pf, want_obs = reference_phase_map(params, freqs, durs, mode, p_up, True)
        tol = 2 * oracle_tolerance(map_hamiltonians(params, mode, freqs), durs)
        assert np.max(np.abs(got.p_flip - want_pf)) < tol
        for s in SPINS:
            for k in ("x", "y", "norm"):
                assert np.max(np.abs(got.observables[s][k] - want_obs[s][k])) < tol

    def test_phase_map_matches_per_point_loop_where_the_readout_condition_splits_the_modes(self, monkeypatch):
        # at j = 50 MHz the modes differ by more than 0.05 through the gate
        # model's pi/2 pulses on n2, which turn n2 wherever e2 is down
        # (`gate_condition`); in full dynamics the exchange moves n2's line
        # 29.8 MHz off the pulse when e1 is up, so conditioned on both
        # electrons the modes agree to below 1e-5
        params = SystemParams(j=50.0)
        center = pl.phase_map_center_frequency(pl.engine_for(params))
        freqs, durs = center + np.linspace(-40.0, 40.0, 9), np.array([0.0, 0.7, 3.3, 6.5])
        maps = {}
        for mode in pl.MODES:
            got = pl.phase_map(params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=0.14), observables=True)
            want_pf, want_obs = reference_phase_map(params, freqs, durs, mode, 0.14, True)
            tol = 2 * oracle_tolerance(map_hamiltonians(params, mode, freqs), durs)
            assert np.max(np.abs(got.p_flip - want_pf)) < tol
            for s in SPINS:
                for k in ("x", "y", "norm"):
                    assert np.max(np.abs(got.observables[s][k] - want_obs[s][k])) < tol
            maps[mode] = got.p_flip
        assert np.max(np.abs(maps[pl.GATE_MODEL] - maps[pl.FULL_DYNAMICS])) > 0.05
        condition_on_both_electrons(monkeypatch)
        both = pl.phase_map(params, freqs, durs, noise=pl.NoiseModel(p_up=0.14), observables=True)
        assert np.max(np.abs(both.p_flip - maps[pl.FULL_DYNAMICS])) < 1e-5

    def test_phase_map_without_observables(self, params):
        center = pl.phase_map_center_frequency(pl.engine_for(params))
        freqs, durs = [center - 1.0, center + 2.0], [0.0, 1.5, 3.0]
        got = pl.phase_map(params, freqs, durs, noise=pl.NoiseModel(p_up=0.14))
        want, _ = reference_phase_map(params, freqs, durs, pl.GATE_MODEL, 0.14, False)
        assert got.observables == {}
        tol = 2 * oracle_tolerance(map_hamiltonians(params, pl.GATE_MODEL, freqs), durs)
        assert np.max(np.abs(got.p_flip - want)) < tol

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("p_up", [0.0, 0.14])
    def test_phase_map_matches_per_point_loop_at_workload_scale(self, params, mode, p_up):
        # the workloads' ranges: +-10 MHz around the centre, 0 to 10 us
        freqs, durs = workload_axes(params, 11, 11)
        got = pl.phase_map(
            params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=p_up), observables=True
        )
        want_pf, want_obs = reference_phase_map(params, freqs, durs, mode, p_up, True)
        tol = 2 * oracle_tolerance(map_hamiltonians(params, mode, freqs), durs)
        assert np.max(np.abs(got.p_flip - want_pf)) < tol
        for s in SPINS:
            for k in ("x", "y", "norm"):
                assert np.max(np.abs(got.observables[s][k] - want_obs[s][k])) < tol

    @pytest.mark.parametrize(
        "mode, p_up, readout_blocks, value_blocks",
        [
            (pl.GATE_MODEL, 0.14, [], [list(range(8)), list(range(8, 16))]),
            (pl.GATE_MODEL, 0.0, [], [list(range(16))]),
            (pl.FULL_DYNAMICS, 0.14, [[list(range(16))]], [list(range(16))]),
        ],
        ids=["GATE_MODEL", "GATE_MODEL-p_up0", "FULL_DYNAMICS"],
    )
    def test_phase_map_splits_nuclear_sectors(
        self, params, mode, p_up, readout_blocks, value_blocks, monkeypatch
    ):
        # the full dynamics' n2 readout pulse is one propagator of a whole
        # block of 16; then one stacked eigendecomposition of four 4x4 blocks
        # per frequency: the contiguous nuclear sectors of the product basis,
        # in either mode; then the values run in the blocks of their starts:
        # the n1 halves when the gate model loads both, else the whole space
        sectors = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        blocks, eigs = [], []
        engine = pl.engine_for(params)  # built before the spies, whatever ran first

        def record_blocks(h0, z_shift):
            rows, cols = diagonal_blocks(h0, z_shift)
            blocks.append(rows[..., 0].tolist())
            return rows, cols

        def record_eig(m):
            eigs.append(m)
            return hermitian_eig(m)

        diagonal_blocks, hermitian_eig = pl._diagonal_blocks, pl.hermitian_eig
        monkeypatch.setattr(pl, "_diagonal_blocks", record_blocks)
        monkeypatch.setattr(pl, "hermitian_eig", record_eig)
        freqs, durs = workload_axes(params, 5, 4)
        pl.phase_map(params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=p_up), observables=True)
        assert blocks == [*readout_blocks, sectors, value_blocks]
        # the blocks of free_hamiltonian + the mode's drive, the same free
        # Hamiltonian in both modes
        h = map_hamiltonians(params, mode, freqs)
        idx = np.array(sectors)
        assert len(eigs) == 1 and np.array_equal(eigs[0], h[:, idx[:, :, None], idx[:, None, :]])

    @pytest.mark.parametrize("mode", pl.MODES)
    def test_phase_map_whole_matrix_fallback(self, params, mode, monkeypatch):
        freqs, durs = workload_axes(params, 5, 4)
        noise = pl.NoiseModel(p_up=0.14)
        split = pl.phase_map(params, freqs, durs, mode=mode, noise=noise, observables=True)
        whole = np.arange(16)[None]
        monkeypatch.setattr(pl, "_diagonal_blocks", lambda h0, z_shift: (whole[:, :, None], whole[:, None, :]))
        dense = pl.phase_map(params, freqs, durs, mode=mode, noise=noise, observables=True)
        tol = 2 * oracle_tolerance(map_hamiltonians(params, mode, freqs), durs)
        assert np.max(np.abs(split.p_flip - dense.p_flip)) < tol
        for s in SPINS:
            for k in ("x", "y", "norm"):
                assert np.max(np.abs(split.observables[s][k] - dense.observables[s][k])) < tol

    @pytest.mark.parametrize(
        "mode, observables, shape",
        [
            (pl.FULL_DYNAMICS, True, (1, 16, 18, 16)),
            (pl.GATE_MODEL, False, (2, 8, 6, 8)),
            (pl.GATE_MODEL, True, (2, 8, 18, 8)),
        ],
        ids=["full_observables", "phase_map_gate", "gate_observables"],
    )
    def test_phase_map_forms_each_distinct_matrix_once(self, params, mode, observables, shape, monkeypatch):
        # at p_up 0.14 the matrix list holds the 2 projectors, one start per
        # spectator and target state (4) and, with observables, the 12 Paulis:
        # each once, and every block takes all of them, cut to its indices.
        # The flat places of K's factors are read against that stack's shape
        dims = []

        def spy(multi_index, stack_shape, *args, **kwargs):
            dims.append(tuple(stack_shape))
            return ravel(multi_index, stack_shape, *args, **kwargs)

        ravel = np.ravel_multi_index
        monkeypatch.setattr(pl.np, "ravel_multi_index", spy)
        freqs, durs = workload_axes(params, 5, 7)
        pl.phase_map(params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=0.14), observables=observables)
        assert dims == [shape, shape]

    @pytest.mark.parametrize("mode", pl.MODES)
    def test_phase_factors_on_a_non_uniform_grid_are_the_exponential(self, params, mode):
        # m = 1: the baby table is exp(0) = 1 and the giants are every duration
        freqs, _ = workload_axes(params, 5, 1)
        w, _ = pl.phase_map_eig(pl.engine_for(params), mode, freqs)
        t = np.array([0.0, 0.3, 1.1, 2.0, 7.5, 10.0])
        giants, babies = pl._phase_factors(t, w, 4)
        assert np.array_equal(babies, np.ones((freqs.size, 1, 16)))
        assert giants.shape == (freqs.size, t.size, 16)
        for e, row in zip(giants, w):
            assert np.array_equal(e, np.exp(-2j * np.pi * t[:, None] * row))

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize(
        "n_dur, n_values, m",
        [(1, 4, 1), (2, 4, 1), (3, 4, 1), (16, 1, 4), (17, 4, 2), (101, 4, 5), (101, 16, 3)],
    )
    def test_phase_factors_on_a_linspace_grid(self, params, mode, n_dur, n_values, m, exp_sizes):
        # m minimises ceil(D / m) + m n_values, the smallest m on a tie: one
        # duration, two and three too few for a split, a perfect square, a
        # cut last giant row (17 = 9 x 2 - 1) and the two workload shapes
        freqs, _ = workload_axes(params, 5, 1)
        w, _ = pl.phase_map_eig(pl.engine_for(params), mode, freqs)
        t = np.linspace(0.0, 10.0, n_dur)
        exp_sizes.clear()
        giants, babies = pl._phase_factors(t, w, n_values)
        n_giants = -(-n_dur // m)
        # one table of giants t[::m] and one of m babies, over every frequency
        assert exp_sizes == [n_giants * w.size, m * w.size]
        assert giants.shape == (freqs.size, n_giants, 16) and babies.shape == (freqs.size, m, 16)
        if m == 1:
            assert np.array_equal(babies, np.ones_like(babies))
        tol = 4 * 2 * math.pi * t.max() * np.abs(w).max() * np.finfo(float).eps
        for giant, baby, row in zip(giants, babies, w):
            e = (giant[:, None] * baby).reshape(-1, 16)[:n_dur]
            assert np.max(np.abs(e - np.exp(-2j * np.pi * t[:, None] * row))) <= tol

    @pytest.mark.parametrize("n_dur", [1, 17])
    def test_phase_factors_of_blocks_are_the_columns_of_the_whole(self, params, n_dur):
        # eigenvalues grouped (F, blocks, size) give each block's columns of
        # the (F, rows, 16) giant and baby tables, bit for bit
        freqs, _ = workload_axes(params, 5, 1)
        w, _ = pl.phase_map_eig(pl.engine_for(params), pl.GATE_MODEL, freqs)
        t = np.linspace(0.0, 10.0, n_dur)
        for blocks, whole in zip(pl._phase_factors(t, w.reshape(-1, 2, 8), 4), pl._phase_factors(t, w, 4)):
            assert np.array_equal(blocks, whole.reshape(freqs.size, -1, 2, 8).swapaxes(1, 2))

    @pytest.mark.parametrize(
        "mode, n_freq, observables, m",
        [(pl.GATE_MODEL, 101, False, 5), (pl.FULL_DYNAMICS, 51, True, 3)],
        ids=["phase_map_gate", "phase_sim_full"],
    )
    def test_phase_map_split_of_the_workloads(self, params, mode, n_freq, observables, m, exp_sizes):
        # 4 values (two spectators x two target states) give m = 5 over 101
        # durations, 21 giants; 16 (with the 12 Pauli expectations) give
        # m = 3, 34 giants
        freqs, durs = workload_axes(params, n_freq, 101)
        pl.phase_map(params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=0.14), observables=observables)
        w_size = n_freq * 16
        assert exp_sizes[-2:] == [-(-101 // m) * w_size, m * w_size]

    def test_free_hamiltonian_stack_matches_scalar_calls(self, engine):
        freqs = pl.phase_map_center_frequency(engine) + np.linspace(-10.0, 10.0, 9)
        stack = engine.free_hamiltonian(freqs)
        each = np.array([engine.free_hamiltonian(float(f)) for f in freqs])
        assert np.array_equal(stack, each)
        # signed zeros too: they reach the CSVs through the readout
        assert np.array_equal(np.signbit(stack.real), np.signbit(each.real))
        assert np.array_equal(np.signbit(np.imag(stack)), np.signbit(np.imag(each)))

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize(
        "n_freq, n_dur, p_up, observables",
        [(1, 6, 0.14, True), (7, 1, 0.14, True), (4, 5, 0.0, True), (4, 5, 0.14, False)],
        ids=["one-frequency", "one-duration", "one-spectator", "no-observables"],
    )
    def test_phase_map_call_shapes(self, params, mode, n_freq, n_dur, p_up, observables):
        freqs, durs = workload_axes(params, n_freq, n_dur)
        got = pl.phase_map(
            params, freqs, durs, mode=mode, noise=pl.NoiseModel(p_up=p_up), observables=observables
        )
        want_pf, want_obs = reference_phase_map(params, freqs, durs, mode, p_up, observables)
        tol = 2 * oracle_tolerance(map_hamiltonians(params, mode, freqs), durs)
        assert got.p_flip.shape == (n_freq, n_dur)
        assert np.max(np.abs(got.p_flip - want_pf)) < tol
        assert set(got.observables) == (set(SPINS) if observables else set())
        for s, values in got.observables.items():
            for k in ("x", "y", "norm"):
                assert values[k].shape == (n_freq, n_dur)
                assert np.max(np.abs(values[k] - want_obs[s][k])) < tol

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("pirs", [None, pl.PIRSModel()], ids=["ideal", "drift"])
    @pytest.mark.parametrize("p_up", [0.0, 0.14, 0.5])
    def test_cz_flip_curve_matches_per_point_loop(self, params, mode, pirs, p_up):
        # p_up = 0 leaves out the spectator-up branch; 0.5 is the model's bound
        durs = np.linspace(0.0, 6.0, 7)
        noise = pl.NoiseModel(p_up=p_up)
        got = pl.cz_flip_curve(params, durs, pirs=pirs, mode=mode, noise=noise)
        want = reference_cz_flip_curve(params, durs, pirs, mode, p_up)
        h = drift_layout(pl.engine_for(params), "addressed" if mode == pl.GATE_MODEL else "esr")[0]
        assert np.max(np.abs(got - want)) < 2 * oracle_tolerance(h, durs, pirs)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("p_up", [0.0, 0.14, 0.5])
    def test_phase_map_readout_matches_dense_construction(self, params, engine, monkeypatch, mode, p_up):
        # the dense starts and projectors that phase_map builds from the
        # factored readout equal O (|nuclei><nuclei| x rho_e) O^dag and
        # O^dag M_b O formed matrix by matrix, bit for bit
        seen = []

        def spy(*args):
            seen.append(dense(*args))
            return seen[-1]

        dense = pl._dense_flip_readout
        monkeypatch.setattr(pl, "_dense_flip_readout", spy)
        pl.phase_map(params, [28000.0], [0.0, 1.0], mode=mode, noise=pl.NoiseModel(p_up=p_up), engine=engine)
        (starts, projectors), = seen
        want_starts, want_projectors = dense_flip_readout(engine, "n2", mode, p_up)
        assert starts.shape == ((1 if p_up == 0 else 2), 2, 16, 16)
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(projectors, want_projectors)
        # and for the curve's target, n1
        pulse, weights, flips, loads = pl._flip_readout(engine, "n1", mode, p_up)
        assert weights.shape == loads.shape[:1] and flips.shape == (2, 16)
        for got, want in zip(dense(pulse, flips, loads), dense_flip_readout(engine, "n1", mode, p_up)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("channel", ["ESR", "NMR"])
    @pytest.mark.parametrize("pirs", [None, pl.PIRSModel()], ids=["ideal", "drift"])
    def test_pulse_step_matches_per_slice_loop(self, params, engine, mode, channel, pirs):
        # one phased, drifting pulse step at a carrier 0.031 MHz off its
        # line, so that the static part stays asymmetric; the nuclear
        # pulse's slices do not split by nuclear sector
        if channel == "ESR":
            tr = engine.electron_transition("e2", n1=0, n2=1)
            rabi, duration = engine.rabi["ESR"], 3.1
        else:
            tr = engine.nuclear_transition("n1")
            rabi, duration = 0.05, 2.3
        pulse = pl.PulseSpec(channel, abs(tr.frequency_mhz) + 0.031, rabi, duration, phase_rad=0.7)
        step = pl.PulseStep(pulse, apply_pirs=True)
        got = engine.step_unitary(step, mode, pirs=pirs)
        want = reference_pulse_propagator(engine, pulse, mode, pirs)
        assert np.max(np.abs(got - want)) < oracle_tolerance(pulse_hamiltonian(engine, pulse, mode), [duration], pirs)
        # in a sequence the step drifts under the run's pirs, from all-down
        res = pl.run_sequence([step], params, pirs=pirs, mode=mode, engine=engine)
        u = engine.step_unitary(step, mode, pirs=pirs)
        down = pl.spam_mixture(0.0)
        assert np.array_equal(res.final_state, u @ down @ u.conj().T)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("pirs", [pl.PIRSModel(), CEILING_DRIFT], ids=["fallback", "ceiling"])
    def test_interpolated_drift_matches_per_slice_loop(self, params, engine, mode, pirs):
        # unsorted, one duration repeated, t = 0, the widest slices (just
        # under 0.85 us: 16 slices of 0.053 us) and 500 slices at 25 us
        durs = np.array([25.0, 3.7, 0.0, 0.8499, 12.3, 3.7, 0.4])
        got = pl.cz_flip_curve(params, durs, pirs=pirs, mode=mode, noise=pl.NoiseModel(p_up=0.14))
        want = reference_cz_flip_curve(params, durs, pirs, mode, 0.14)
        h = drift_layout(engine, "addressed" if mode == pl.GATE_MODEL else "esr")[0]
        assert np.max(np.abs(got - want)) < 2 * oracle_tolerance(h, durs, pirs)
        tr = engine.electron_transition("e2", n1=0, n2=1)
        pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], 0.0)
        got = engine.pulse_propagator(pulse, mode, pirs=pirs, durations_us=durs)
        for t, u in zip(durs, got):
            want = reference_pulse_propagator(engine, replace(pulse, duration_us=t), mode, pirs)
            assert np.max(np.abs(u - want)) < oracle_tolerance(pulse_hamiltonian(engine, pulse, mode), durs, pirs)

    @pytest.mark.parametrize(
        "pirs, nodes", [(pl.PIRSModel(), 7), (CEILING_DRIFT, 14)], ids=["fallback", "ceiling"]
    )
    def test_drift_decomposes_each_block_once_per_node(self, engine, monkeypatch, pirs, nodes):
        # one node set serves every duration of a call: nodes x blocks
        # eigendecompositions, however many durations there are; the ceiling
        # needs no more nodes than the 16-slice minimum
        calls = []

        def spy(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", spy)
        tr = engine.electron_transition("e2", n1=0, n2=1)
        pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], 0.0)
        for durs in (np.r_[np.linspace(0.0, 25.0, 51), 0.8499], np.linspace(0.0, 24.0, 193)):
            calls.clear()
            engine.pulse_propagator(pulse, pl.FULL_DYNAMICS, pirs=pirs, durations_us=durs)
            assert calls == [(nodes, 4, 4, 4)]
        assert nodes <= 16

    @pytest.mark.parametrize(
        "layout, blocks", [("esr", (4, 4)), ("addressed", (1, 2)), ("nmr", (1, 16))]
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=drift_cases())
    def test_sliced_propagators_match_per_slice_loop(self, engine, layout, blocks, case):
        # four 4x4 nuclear sectors (an electron pulse in full dynamics), the
        # gate model's addressed pair, and the whole-matrix fallback of a
        # nuclear pulse in full dynamics
        h0, z_shift = drift_layout(engine, layout)
        assert pl._diagonal_blocks(h0, z_shift)[0].shape[:2] == blocks
        pirs, durs = case
        got = pl.sliced_propagators(h0, z_shift, durs, pirs)
        for t, u in zip(durs, got):
            want = reference_sliced_exp(h0, z_shift, t, pirs)
            assert np.max(np.abs(u - want)) < oracle_tolerance(h0, durs, pirs)

    @pytest.mark.parametrize("layout", ["esr", "addressed", "nmr"])
    @pytest.mark.parametrize("pirs", [pl.PIRSModel(), CEILING_DRIFT], ids=["fallback", "ceiling"])
    @pytest.mark.parametrize("group_bytes", [pl.DRIFT_GROUP_BYTES, 1], ids=["one_group", "one_each"])
    def test_drift_products_end_at_every_chunk_offset(self, engine, monkeypatch, layout, pirs, group_bytes):
        # slice counts 16-33, two durations of each: every duration's last
        # slice falls at each offset 0-15 of a MIN_SLICES chunk, and its
        # product is taken from the buffer that holds it after that slice;
        # one_each puts every duration in a group of its own
        monkeypatch.setattr(pl, "DRIFT_GROUP_BYTES", group_bytes)
        n = np.arange(16, 34)
        durs = pl.SLICE_US * np.concatenate([n + 0.5, n + 0.1])
        assert set((np.maximum(16, (durs / pl.SLICE_US).astype(int)) - 1) % 16) == set(range(16))
        h0, z_shift = drift_layout(engine, layout)
        got = pl.sliced_propagators(h0, z_shift, durs, pirs)
        for t, u in zip(durs, got):
            want = reference_sliced_exp(h0, z_shift, t, pirs)
            assert np.max(np.abs(u - want)) < oracle_tolerance(h0, durs, pirs)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("pirs", [None, pl.PIRSModel()], ids=["ideal", "drift"])
    def test_cz_flip_curve_working_set_is_bounded(self, params, engine, mode, pirs):
        # the whole curve over the 12-turn, 193-point pirs_cz grid: the
        # propagator stack and O U (0.79 MB each) and the drift kernel's
        # group; a readout holding (193, 2, 16, 16) stacks would exceed it
        tr = engine.electron_transition("e2", 0, 1)
        durs = np.linspace(0.0, 12 / (engine.rabi["ESR"] * tr.amplitude), 193)
        noise = pl.NoiseModel(p_up=0.14)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pl.cz_flip_curve(params, durs, pirs=pirs, mode=mode, noise=noise, engine=engine)
            tracemalloc.start()
            try:
                pl.cz_flip_curve(params, durs, pirs=pirs, mode=mode, noise=noise, engine=engine)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.0e6

    def test_drift_working_set_is_bounded(self, engine):
        # one drifting electron pulse over the 12-turn, 193-point pirs_cz grid
        # in full dynamics: the (193, 16, 16) result is 0.79 MB of the peak
        tr = engine.electron_transition("e2", 0, 1)
        turn = 1.0 / (engine.rabi["ESR"] * tr.amplitude)
        pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], 0.0)
        durs = np.linspace(0.0, 12 * turn, 193)
        engine.pulse_propagator(pulse, pl.FULL_DYNAMICS, pirs=pl.PIRSModel(), durations_us=durs)
        tracemalloc.start()
        try:
            engine.pulse_propagator(pulse, pl.FULL_DYNAMICS, pirs=pl.PIRSModel(), durations_us=durs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4e6

    def test_phase_map_working_set_is_bounded(self, params, engine):
        # the 51 x 101 full-dynamics map with observables peaks at 2.24 MB,
        # one frequency's tables among it: the pair tables of 34 giants and
        # 3 babies with their scratch, 2 x 37 x 136, and N, 3 x 16 x 136
        # (0.27 MB); the bound is 3.01 MB. Pair tables over the whole grid
        # would take 11 MB
        freqs, durs = workload_axes(params, 51, 101)
        noise = pl.NoiseModel(p_up=0.14)
        pl.phase_map(params, freqs, durs, mode=pl.FULL_DYNAMICS, noise=noise, observables=True, engine=engine)
        tracemalloc.start()
        try:
            pl.phase_map(params, freqs, durs, mode=pl.FULL_DYNAMICS, noise=noise, observables=True, engine=engine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.74e6 + (2 * 37 + 3 * 16) * 136 * 16

    @pytest.mark.parametrize("rho", [0.4, 1.0])
    def test_chebyshev_interpolation_meets_its_bound(self, rho):
        # exp(-2i rho x) on [-1, 1] has |f^(p)| <= (2 rho)^p, the kernel's
        # derivative bound with the eps range mapped onto [-1, 1]
        x = np.linspace(-1.0, 1.0, 2001)
        f = lambda y: np.exp(-2j * rho * y)
        for p in range(1, 13):
            nodes, weights = pl._chebyshev_points(p)
            err = np.max(np.abs(pl._barycentric(x, nodes, weights) @ f(nodes) - f(x)))
            assert err <= 2.0 * rho**p / math.factorial(p) + 1e-15
        # a point on a node takes the node's value exactly
        c = pl._barycentric(nodes[[3]], nodes, weights)
        assert np.array_equal(c, np.eye(12)[[3]])

    @pytest.mark.parametrize("p", [1, 7, 14])
    def test_barycentric_without_hits_is_the_guarded_formula(self, p):
        # the unguarded branch gives the guarded formula's bits, signs included
        nodes, weights = pl._chebyshev_points(p)
        rng = np.random.default_rng(p)
        for shape in [(5,), (22, 16), (3, 4, 16)]:
            x = rng.uniform(-1.0, 1.0, shape)
            assert not np.any(x[..., None] == nodes)
            got, want = pl._barycentric(x, nodes, weights), barycentric(x, nodes, weights)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_barycentric_mixes_node_hits_and_interpolants(self):
        # rows on a node are unit rows; every other row is its interpolant,
        # the same as when it is computed without the hits around it
        nodes, weights = pl._chebyshev_points(7)
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (6, 16))
        on = np.zeros(x.shape, dtype=bool)
        on[0, 3], on[2, 0], on[5, 15] = True, True, True
        x[on] = nodes[[2, 6, 0]]
        got = pl._barycentric(x, nodes, weights)
        assert np.array_equal(got[on], np.eye(7)[[2, 6, 0]])
        assert np.array_equal(got[~on], pl._barycentric(x[~on], nodes, weights))
        assert np.array_equal(got, barycentric(x, nodes, weights))
        assert np.allclose(got.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15)

    def test_node_count_is_the_fewest_under_rounding(self):
        bound = lambda rho, p: 2.0 * rho**p / math.factorial(p)
        eps = np.finfo(float).eps
        for rho in (0.0, 1e-3, 0.0094, 0.1, 0.42, 1.0):
            p = pl._chebyshev_node_count(rho)
            assert bound(rho, p) <= eps
            assert p == 1 or bound(rho, p - 1) > eps

    def test_drift_kernel_checks_unitarity(self, engine, monkeypatch):
        monkeypatch.setattr(pl, "unitary_exp", lambda h, t_us: (1.0 + 1e-9) * unitary_exp(h, t_us))
        tr = engine.electron_transition("e2", n1=0, n2=1)
        pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], 2.0)
        with pytest.raises(ContractError, match="not unitary"):
            engine.pulse_propagator(pulse, pl.FULL_DYNAMICS, pirs=pl.PIRSModel())

    def test_block_split_follows_the_nonzero_pattern(self, engine):
        def sizes(*ops):
            rows, _ = pl._diagonal_blocks(*ops)
            return rows.shape[:2]

        z_e, x_e, _ = engine.channel_ops["ESR"]
        z_n, x_n, _ = engine.channel_ops["NMR"]
        h_free = engine.free_hamiltonian()
        assert sizes(h_free + x_e, z_e) == (4, 4)  # nuclear sectors
        assert sizes(h_free + 0.01 * x_n, z_n) == (1, 16)
        assert sizes(np.diag(np.arange(16.0)), np.zeros((16, 16))) == (1, 16)  # 1x1 blocks
        assert sizes(np.array([[0.0, 0.2], [0.2, 0.0]]), np.diag([0.0, 1.0])) == (1, 2)

    def test_negative_duration_rejected(self, params):
        with pytest.raises(ContractError, match="negative duration"):
            pl.phase_map(params, [28000.0], [0.0, -1.0])

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("curve", ["phase_map", "cz_flip_curve"])
    def test_non_finite_duration_rejected(self, params, mode, bad, curve):
        # a NaN or infinite duration is an error, not a point with no flip
        durs = [0.0, bad, 1.0]
        with pytest.raises(ContractError, match=f"non-finite duration {bad} us"):
            if curve == "phase_map":
                pl.phase_map(params, [28000.0], durs, mode=mode)
            else:
                pl.cz_flip_curve(params, durs, mode=mode)

    @pytest.mark.parametrize("mode", pl.MODES)
    @pytest.mark.parametrize("pirs", [None, pl.PIRSModel()], ids=["ideal", "drift"])
    def test_cz_flip_curve_rejects_negative_duration(self, params, mode, pirs):
        with pytest.raises(ContractError, match="negative duration -1.0 us"):
            pl.cz_flip_curve(params, [0.0, -1.0], pirs=pirs, mode=mode)

    def test_selectivity_warning_once_per_curve(self, params, engine):
        tr = engine.electron_transition("e2", n1=0, n2=1)
        pulse = pl.PulseSpec("ESR", abs(tr.frequency_mhz), engine.rabi["ESR"], 1.0)
        want = reference_selectivity_message(engine, pulse)
        assert want is not None and "1.000 MHz splitting" in want
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pl.cz_flip_curve(params, np.linspace(0.0, 6.0, 7), pirs=pl.PIRSModel(), mode=pl.FULL_DYNAMICS)
        assert [str(w.message) for w in caught] == [want]

    @pytest.mark.parametrize(
        "channel, carrier, rabi",
        [
            ("ESR", 27908.0, 0.5),
            ("ESR", 27970.0, 0.5),
            ("ESR", 27909.175121138687, 0.5),  # midway between two lines
            ("NMR", 38.27, 0.01),
            ("NMR", 38.27, 2.0),
        ],
    )
    def test_selectivity_check_matches_pair_scan(self, engine, channel, carrier, rabi):
        pulse = pl.PulseSpec(channel, carrier, rabi, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine._check_selectivity(pulse, pl.FULL_DYNAMICS)
        want = reference_selectivity_message(engine, pulse)
        assert [str(w.message) for w in caught] == ([want] if want else [])

    @pytest.mark.parametrize(
        "carrier, detuning, splitting",
        [
            (27908.675, 0.0, "1.000"),
            (27908.675121138687, 0.001, "0.999"),
            (27908.675121138687, -0.001, "1.001"),
        ],
        ids=["rounded-carrier", "detuned-up", "detuned-down"],
    )
    def test_selectivity_targets_nearest_line(self, engine, carrier, detuning, splitting):
        # the e2 line at 27908.6751 MHz stays the target of a drive slightly
        # off it; the next driven line is 1.0 MHz above it
        pulse = pl.PulseSpec("ESR", carrier + detuning, 0.5, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine._check_selectivity(pulse, pl.FULL_DYNAMICS)
        want = (
            f"rabi 0.5 MHz exceeds a quarter of the {splitting} MHz splitting "
            "to the nearest off-target line"
        )
        assert [str(w.message) for w in caught] == [want]
        assert reference_selectivity_message(engine, pulse) == want


# ---------------------------------------------------------------------------
# 16-index loops that the conditional-rotation helper must reproduce


def condition_on_both_electrons(monkeypatch):
    """Replace the rule of `pl.gate_condition` for a `GateStep` with the
    both-electrons rule: its nucleus turns where e1 and e2 are down."""
    own = pl.gate_condition

    def both(step):
        return {"e1": 1, "e2": 1} if isinstance(step, pl.GateStep) else own(step)

    monkeypatch.setattr(pl, "gate_condition", both)


def reference_gate_unitary(step):
    """SU(2) on the target nucleus wherever its own electron is down."""
    q = SPIN_INDEX[step.spin]
    qe = SPIN_INDEX["e" + step.spin[-1]]
    r = pl.rot2(step.theta, step.phase)
    u = np.eye(16, dtype=complex)
    for idx in range(16):
        bits = basis_bits(idx)
        if bits[q] == 0 and bits[qe] == 1:  # target up, own electron down
            partner = idx | (1 << (3 - q))
            u[idx, idx] = r[0, 0]
            u[partner, partner] = r[1, 1]
            u[idx, partner] = r[0, 1]
            u[partner, idx] = r[1, 0]
    return u


def reference_cz_unitary(step):
    """(-1)^turns on the conditioned electron pair, identity elsewhere."""
    other = "e2" if step.electron == "e1" else "e1"
    qo = SPIN_INDEX[other]
    u = np.eye(16, dtype=complex)
    sign = (-1.0) ** step.turns
    for idx in range(16):
        bits = basis_bits(idx)
        if bits[0] == step.n1 and bits[1] == step.n2 and bits[qo] == 1:
            u[idx, idx] = sign
    return u


def reference_controlled_rotation_n2(theta, phase):
    """Rotation of n2 where n1 is spin-up and e2 spin-down."""
    r = pl.rot2(theta, phase)
    u = np.eye(16, dtype=complex)
    for idx in range(16):
        n1, n2, _, e2 = basis_bits(idx)
        if n1 == 0 and n2 == 0 and e2 == 1:
            partner = idx | 4  # n2 bit set: spin down
            u[idx, idx] = r[0, 0]
            u[partner, partner] = r[1, 1]
            u[idx, partner] = r[0, 1]
            u[partner, idx] = r[1, 0]
    return u


ANGLES = [(math.pi / 2, math.pi / 2), (math.pi / 2, -math.pi / 2), (math.pi, 0.0), (0.3, 1.7), (2.9, -2.2)]


class TestConditionalRotation:
    @pytest.mark.parametrize("spin", ["n1", "n2"])
    @pytest.mark.parametrize("theta, phase", ANGLES)
    def test_labelled_gate_matches_loop(self, spin, theta, phase):
        step = pl.GateStep(spin, theta, phase)
        assert np.array_equal(pl.labelled_unitary(step), reference_gate_unitary(step))

    @pytest.mark.parametrize("electron", ["e1", "e2"])
    @pytest.mark.parametrize("n1, n2", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("turns", [1, 2])
    def test_labelled_cz_matches_loop(self, electron, n1, n2, turns):
        step = pl.CzStep(electron, n1=n1, n2=n2, turns=turns)
        assert np.array_equal(pl.labelled_unitary(step), reference_cz_unitary(step))

    @pytest.mark.parametrize("theta, phase", ANGLES + [(math.pi, 3 * 0.4)])
    def test_phase_reversal_rotation_matches_loop(self, theta, phase):
        where = {"n1": 0, **pl.gate_condition(pl.GateStep("n2", 0.0))}
        got = pl.conditional_rotation(pl.rot2(theta, phase), "n2", where)
        assert np.array_equal(got, reference_controlled_rotation_n2(theta, phase))

    @pytest.mark.parametrize("spin", SPINS)
    def test_spin_bits_match_basis_bits(self, spin):
        want = [basis_bits(i)[SPIN_INDEX[spin]] for i in range(16)]
        assert pl.spin_bits(spin).tolist() == want

    def test_unconditioned_rotation_acts_on_every_pair(self):
        r = pl.rot2(0.9, 0.2)
        u = pl.conditional_rotation(r, "e1", {})
        want = np.kron(np.kron(np.eye(4), r), np.eye(2))
        assert np.array_equal(u, want)


class TestGateCondition:
    def test_one_rule_conditions_every_gate_model_rotation(self, params, monkeypatch):
        # the rule lives in `gate_condition` alone: conditioning a GateStep
        # on both electrons moves the phase-reversal curve, the CZ curve's
        # readout and the gate model's phase map, which then meets the full
        # dynamics at the default drive
        phis = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
        engine = pl.engine_for(params)
        half_turn = [0.5 * engine.compile(pl.CURVE_CZ).duration_us]
        freqs, durs = workload_axes(params, 11, 11)

        def consumers():
            offset = spam.sine_fit(phis, spam.phase_reversal_curve(0.14, phis)).offset
            half = pl.cz_flip_curve(params, half_turn)[0]
            gaps = []
            for p_up in (0.0, 0.14, 0.5):
                noise = pl.NoiseModel(p_up=p_up)
                gate, full = (pl.phase_map(params, freqs, durs, mode=m, noise=noise).p_flip for m in pl.MODES)
                gaps.append(np.max(np.abs(gate - full)))
            return offset, half, gaps

        offset, half, gaps = consumers()
        assert offset == pytest.approx(0.4496, abs=1e-4)
        assert half == pytest.approx(0.5, abs=1e-9)
        assert gaps == pytest.approx([4.9e-2, 0.12, 0.25], abs=5e-3)
        condition_on_both_electrons(monkeypatch)
        offset, half, gaps = consumers()
        assert offset == pytest.approx(0.4063, abs=1e-4)
        assert half == pytest.approx(0.375, abs=1e-9)
        assert max(gaps) < 1e-5, gaps
