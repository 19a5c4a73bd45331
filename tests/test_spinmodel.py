import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import spinmodel as sm
from donorpair.linalg import ContractError
from donorpair.spinmodel import SystemParams


@pytest.fixture
def params():
    return SystemParams()


def zeeman_only(b0=1.0):
    # invariant requires a1, a2 > 0; epsilon couplings stand in for zero
    return SystemParams(b0=b0, a1=1e-9, a2=1e-9, j=0.0)


class TestSystemParams:
    def test_defaults_valid(self, params):
        assert params.j == 12.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a1=-1.0), dict(j=-0.1), dict(b0=0.0), dict(g1=2.1, g2=1.9985)],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ContractError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(g1=0.0), dict(g2=-1.9985)])
    def test_nonpositive_g_factor(self, kwargs):
        # checked before the spread, which divides by g1
        with pytest.raises(ContractError, match="must be positive"):
            SystemParams(**kwargs)


class TestStaticHamiltonian:
    def test_zeeman_only_diagonal_entry(self):
        p = zeeman_only()
        h = sm.build_static_hamiltonian(p)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-6
        expected = p.mu_b_over_h * p.b0 * p.g1 + p.gamma_n * p.b0
        assert abs(h[0, 0].real - expected) < 1e-6
        # quoted reference values: ~27.97 GHz/T Zeeman plus 17.23 MHz/T nuclear
        assert abs(h[0, 0].real - (27970.0 + 17.23)) < 5.0

    def test_hermitian_and_traceless(self, params):
        h = sm.build_static_hamiltonian(params)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-9

    def test_decoupled_donors_commute_blockwise(self):
        p = SystemParams(j=0.0)
        h = sm.build_static_hamiltonian(p)
        donor1 = (
            p.mu_b_over_h * p.b0 * p.g1 * sm.spin_half_op("e1", "z")
            + p.gamma_n * p.b0 * sm.spin_half_op("n1", "z")
            + p.a1
            * sum(
                sm.spin_half_op("e1", ax) @ sm.spin_half_op("n1", ax) for ax in "xyz"
            )
        )
        comm = h @ donor1 - donor1 @ h
        assert np.max(np.abs(comm)) < 1e-9

    def test_reference_couplings_trace(self, params):
        h = sm.build_static_hamiltonian(params)
        assert abs(np.trace(h)) < 1e-9

    def test_secular_preserves_diagonal_sector_energies(self, params):
        h_full = sm.build_static_hamiltonian(params)
        h_sec = sm.secular_hamiltonian(params)
        # secular keeps every diagonal entry of the full Hamiltonian
        assert np.allclose(np.diag(h_full), np.diag(h_sec))
        # and commutes with each nuclear Z operator
        for spin in ("n1", "n2"):
            z = sm.spin_half_op(spin, "z")
            assert np.max(np.abs(h_sec @ z - z @ h_sec)) < 1e-9


class TestHybridizationAngle:
    def test_zero_exchange(self):
        assert sm.hybridization_angle(0.0, 50.0) == 0.0

    def test_antiparallel_detuning(self):
        assert sm.hybridization_angle(12.0, 112.0) == pytest.approx(0.0534, abs=1e-4)

    def test_parallel_detuning(self):
        assert sm.hybridization_angle(12.0, 2.0) == pytest.approx(0.7028, abs=1e-4)

    def test_undefined_at_origin(self):
        with pytest.raises(ContractError):
            sm.hybridization_angle(0.0, 0.0)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    def test_monotone_in_exchange(self, j, dj, delta):
        a1 = sm.hybridization_angle(j, delta)
        a2 = sm.hybridization_angle(j + dj, delta)
        assert a2 > a1
        assert a2 < np.pi / 4 + 1e-12

    def test_limit_is_pi_over_4(self):
        assert sm.hybridization_angle(1e9, 1.0) == pytest.approx(np.pi / 4, abs=1e-6)


class TestEsrSpectrum:
    def test_zeeman_only_single_line_per_electron(self):
        p = zeeman_only()
        lines = sm.esr_spectrum(p)
        for ch in ("electron-1", "electron-2"):
            freqs = {round(ln.frequency, 6) for ln in lines if ln.channel == ch}
            assert len(freqs) == 1
            (f,) = freqs
            assert f == pytest.approx(p.mu_b_over_h * p.b0 * p.g1, abs=1e-3)

    def test_hyperfine_splits_electron_one(self):
        p = SystemParams(a1=111.0, a2=1e-9, j=0.0)
        lines = [ln for ln in sm.esr_spectrum(p) if ln.channel == "electron-1"]
        freqs = sorted({round(ln.frequency, 3) for ln in lines})
        assert len(freqs) == 2
        # split by a1 between the two nuclear orientations of n1
        assert freqs[1] - freqs[0] == pytest.approx(111.0, abs=1e-2)

    def test_reference_params_give_six_electron_one_lines(self, params):
        lines = [
            ln for ln in sm.esr_spectrum(params) if ln.channel == "electron-1"
        ]
        assert len(lines) == 6
        anti = [ln for ln in lines if ln.condition[3] != ln.condition[8]]
        par = [ln for ln in lines if ln.condition[3] == ln.condition[8]]
        assert len(anti) == 4
        assert len(par) == 2

    def test_low_threshold_registers_weak_exchange_satellites(self, params):
        lines = sm.esr_spectrum(params, amplitude_threshold=0.01)
        weak = [ln for ln in lines if ln.amplitude < 0.05]
        assert len(weak) == 4  # one satellite pair per parallel nuclear sector
        assert len([ln for ln in lines if ln.channel == "electron-1"]) == 8

    def test_swap_symmetry(self, params):
        swapped = SystemParams(
            b0=params.b0,
            g1=params.g2,
            g2=params.g1,
            a1=params.a2,
            a2=params.a1,
            j=params.j,
        )
        f1 = sorted(
            ln.frequency for ln in sm.esr_spectrum(params) if ln.channel == "electron-1"
        )
        f2 = sorted(
            ln.frequency
            for ln in sm.esr_spectrum(swapped)
            if ln.channel == "electron-2"
        )
        assert np.allclose(f1, f2, atol=1e-9)


class TestNmrSpectrum:
    def test_ionized_single_line_at_gamma_b0(self):
        lines = sm.nmr_spectrum(SystemParams(), neutral=False)
        assert {ln.channel for ln in lines} == {"nucleus-1", "nucleus-2"}
        for ln in lines:
            assert ln.frequency == pytest.approx(17.23, abs=1e-9)

    def test_neutral_line_electron_down_leading_order(self):
        p = SystemParams(a1=111.0, a2=1e-9, j=0.0)
        lines = [
            ln
            for ln in sm.nmr_spectrum(p)
            if ln.channel == "nucleus-1" and "e1=d" in ln.condition
        ]
        expected = abs(p.gamma_n * p.b0 - p.a1 / 2)
        assert any(abs(ln.frequency - expected) < 0.5 for ln in lines)

    def test_vanishing_hyperfine_matches_ionized(self):
        p = SystemParams(a1=1e-9, a2=1e-9, j=0.0)
        neutral = sorted(ln.frequency for ln in sm.nmr_spectrum(p))
        ionized = sorted(ln.frequency for ln in sm.nmr_spectrum(p, neutral=False))
        assert np.allclose(neutral, ionized, atol=1e-6)


class TestExpectationAxis:
    def down_state(self):
        # |D U | d d>  (n1 down, rest up/down mix); use all-down for clarity
        idx = sm.basis_index(1, 1, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[idx] = 1.0
        return psi

    def test_down_state_z(self):
        assert sm.expectation_axis(self.down_state(), "n1", "Z") == pytest.approx(0.0)

    def test_plus_state_x(self):
        up = sm.basis_index(0, 1, 1, 1)
        dn = sm.basis_index(1, 1, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[up] = psi[dn] = 1 / np.sqrt(2)
        assert sm.expectation_axis(psi, "n1", "X") == pytest.approx(1.0)

    def test_entangled_marginal_has_zero_bloch_norm(self):
        # Bell pair between n1 and n2, electrons down
        a = sm.basis_index(0, 1, 1, 1)
        b = sm.basis_index(1, 0, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[a] = psi[b] = 1 / np.sqrt(2)
        assert sm.bloch_norm(psi, "n1") == pytest.approx(0.0, abs=1e-12)
        assert sm.bloch_norm(psi, "n2") == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_bloch_norm_bounded(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        for spin in sm.SPINS:
            assert sm.bloch_norm(psi, spin) <= 1.0 + 1e-9
