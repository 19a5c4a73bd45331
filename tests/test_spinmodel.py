import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import pulses as pl
from donorpair import spinmodel as sm
from donorpair.linalg import ContractError
from donorpair.spinmodel import SystemParams

from oracles import bloch_vector, build_static_hamiltonian


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
        h = build_static_hamiltonian(p)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-6
        expected = p.mu_b_over_h * p.b0 * p.g1 + p.gamma_n * p.b0
        assert abs(h[0, 0].real - expected) < 1e-6
        # quoted reference values: ~27.97 GHz/T Zeeman plus 17.23 MHz/T nuclear
        assert abs(h[0, 0].real - (27970.0 + 17.23)) < 5.0

    def test_hermitian_and_traceless(self, params):
        h = build_static_hamiltonian(params)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-9

    def test_decoupled_donors_commute_blockwise(self):
        p = SystemParams(j=0.0)
        h = build_static_hamiltonian(p)
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
        h = build_static_hamiltonian(params)
        assert abs(np.trace(h)) < 1e-9

    def test_secular_preserves_diagonal_sector_energies(self, params):
        h_full = build_static_hamiltonian(params)
        h_sec = sm.secular_hamiltonian(params)
        # secular keeps every diagonal entry of the full Hamiltonian
        assert np.allclose(np.diag(h_full), np.diag(h_sec))
        # and commutes with each nuclear Z operator
        for spin in ("n1", "n2"):
            z = sm.spin_half_op(spin, "z")
            assert np.max(np.abs(h_sec @ z - z @ h_sec)) < 1e-9


class TestEngineLines:
    """The engine's secular gaps are the package's only answer to where a
    resonance line sits; they stay within the dropped hyperfine flip-flop
    shift (A/2)^2 / f_e of the full Hamiltonian's gaps."""

    @pytest.mark.parametrize(
        "kwargs",
        [{}, dict(j=0.0), dict(j=40.0), dict(b0=0.5)],
        ids=["defaults", "j0", "j40", "b0-half"],
    )
    def test_engine_lines_match_full_hamiltonian(self, kwargs):
        p = SystemParams(**kwargs)
        engine = pl.SequenceEngine(p)
        w, v = np.linalg.eigh(build_static_hamiltonian(p))
        # full-Hamiltonian levels by dominant product state, as the engine does
        level = {int(np.argmax(np.abs(v[:, k]) ** 2)): k for k in range(16)}
        assert len(level) == 16
        esr = [
            engine.electron_transition(e, n1, n2)
            for e in sm.ELECTRONS
            for n1 in (0, 1)
            for n2 in (0, 1)
        ]
        nmr = [engine.nuclear_transition(n) for n in sm.NUCLEI]
        bound = 1.05 * (max(p.a1, p.a2) / 2) ** 2 / engine.f_e_default
        for tr in esr + nmr:
            full_gap = w[level[tr.hi_index]] - w[level[tr.lo_index]]
            assert abs(tr.frequency_mhz - full_gap) <= bound, tr

    def test_indistinct_levels_rejected(self):
        # at j = 1e20 MHz two secular eigenvectors share a dominant product state
        with pytest.raises(ContractError, match="j = 1e\\+20"):
            pl.SequenceEngine(SystemParams(j=1e20))


class TestEsrSpectrum:
    """The engine's conditional electron lines (the other electron down)."""

    def test_zeeman_only_single_line_per_electron(self):
        p = zeeman_only()
        engine = pl.SequenceEngine(p)
        for e in sm.ELECTRONS:
            freqs = [
                engine.electron_transition(e, n1, n2).frequency_mhz
                for n1 in (0, 1)
                for n2 in (0, 1)
            ]
            # one line: the four nuclear sectors agree to within 1 Hz
            assert max(freqs) - min(freqs) < 1e-6
            assert freqs[0] == pytest.approx(p.mu_b_over_h * p.b0 * p.g1, abs=1e-3)

    def test_hyperfine_splits_electron_one(self):
        engine = pl.SequenceEngine(SystemParams(a1=111.0, a2=1e-9, j=0.0))
        freqs = sorted(
            {
                round(engine.electron_transition("e1", n1, n2).frequency_mhz, 3)
                for n1 in (0, 1)
                for n2 in (0, 1)
            }
        )
        assert len(freqs) == 2
        # split by a1 between the two nuclear orientations of n1
        assert freqs[1] - freqs[0] == pytest.approx(111.0, abs=1e-2)

    def test_swap_symmetry(self, params):
        p = params
        engine = pl.SequenceEngine(p)
        # the same system with the donors' labels exchanged
        mirror = pl.SequenceEngine(
            SystemParams(b0=p.b0, g1=p.g2, g2=p.g1, a1=p.a2, a2=p.a1, j=p.j)
        )
        for n1 in (0, 1):
            for n2 in (0, 1):
                a = engine.electron_transition("e1", n1, n2)
                b = mirror.electron_transition("e2", n2, n1)
                assert a.frequency_mhz == pytest.approx(b.frequency_mhz, abs=1e-9)
                assert a.amplitude == pytest.approx(b.amplitude, abs=1e-12)


class TestNmrSpectrum:
    """The engine's nuclear lines (every other spin down)."""

    def test_neutral_line_electron_down_leading_order(self):
        p = SystemParams(a1=111.0, a2=1e-9, j=0.0)
        line = pl.SequenceEngine(p).nuclear_transition("n1")
        expected = abs(p.gamma_n * p.b0 - p.a1 / 2)
        assert abs(abs(line.frequency_mhz) - expected) < 0.5

    def test_vanishing_hyperfine_matches_ionized(self):
        # with no hyperfine coupling both nuclei sit at the bare gamma_n b0
        p = SystemParams(a1=1e-9, a2=1e-9, j=0.0)
        engine = pl.SequenceEngine(p)
        lines = [abs(engine.nuclear_transition(n).frequency_mhz) for n in sm.NUCLEI]
        assert np.allclose(lines, p.gamma_n * p.b0, atol=1e-6)


class TestExpectationAxis:
    """The Bloch-vector oracle the tomography tests compare against."""

    def down_state(self):
        # all spins down
        idx = sm.basis_index(1, 1, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[idx] = 1.0
        return psi

    def test_down_state_z(self):
        assert bloch_vector(self.down_state(), "n1")[2] == pytest.approx(-1.0)

    def test_plus_state_x(self):
        up = sm.basis_index(0, 1, 1, 1)
        dn = sm.basis_index(1, 1, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[up] = psi[dn] = 1 / np.sqrt(2)
        assert bloch_vector(psi, "n1")[0] == pytest.approx(1.0)

    def test_entangled_marginal_has_zero_bloch_norm(self):
        # Bell pair between n1 and n2, electrons down
        a = sm.basis_index(0, 1, 1, 1)
        b = sm.basis_index(1, 0, 1, 1)
        psi = np.zeros(16, dtype=complex)
        psi[a] = psi[b] = 1 / np.sqrt(2)
        assert np.linalg.norm(bloch_vector(psi, "n1")) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(bloch_vector(psi, "n2")) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_bloch_norm_bounded(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        for spin in sm.SPINS:
            assert np.linalg.norm(bloch_vector(psi, spin)) <= 1.0 + 1e-9
