import numpy as np
import pytest
from hypothesis import given, strategies as st

from donorpair import linalg
from donorpair.linalg import (
    PSD_CLIP_TOL,
    ContractError,
    DimensionError,
    EigenSystem,
    NotPositiveSemidefiniteError,
    hermitian_eig,
    kron_all,
    nearest_physical_density,
    project_to_simplex,
    psd_sqrt,
    require_unitary,
    unitary_exp,
)

from conftest import random_density, random_hermitian
from oracles import partial_trace


class TestHermitianEig:
    def test_already_diagonal(self):
        w, v = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eig(linalg.SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstruction(self, rng, dim):
        m = random_hermitian(rng, dim)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ v.conj().T
        scale = max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(recon - m)) / scale < 1e-10
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ContractError):
            hermitian_eig(m)

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionError):
            hermitian_eig(np.eye(3))


class TestUnitaryExp:
    def test_zero_duration_is_identity(self, rng):
        m = random_hermitian(rng, 4)
        assert np.allclose(unitary_exp(m, 0.0), np.eye(4))

    def test_half_period_of_splitting(self):
        f = 0.7  # MHz
        u = unitary_exp(np.diag([0.0, f]), 1.0 / (2 * f))
        # diag(1, -1) up to global phase
        u = u / u[0, 0]
        assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_full_rotation_gives_minus_identity(self):
        # (Omega/2) sigma_x with Omega = 0.5 MHz for 2 us is a 2 pi rotation
        h = 0.25 * linalg.SIGMA_X
        u = unitary_exp(h, 2.0)
        assert np.allclose(u, -np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_unitarity(self, rng, dim):
        m = random_hermitian(rng, dim)
        u = unitary_exp(m, 3.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-10

    @given(
        t1=st.floats(0, 10), t2=st.floats(0, 10), seed=st.integers(0, 2**32 - 1)
    )
    def test_group_property(self, t1, t2, seed):
        m = random_hermitian(np.random.default_rng(seed), 4)
        lhs = unitary_exp(m, t1) @ unitary_exp(m, t2)
        rhs = unitary_exp(m, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_negative_duration_rejected(self):
        with pytest.raises(ContractError):
            unitary_exp(np.eye(2), -0.1)
        with pytest.raises(ContractError, match="negative duration -0.5 us"):
            unitary_exp(np.eye(2), [0.0, 1.0, -0.5])

    def test_durations_broadcast_against_the_stack(self, rng):
        # one matrix and a vector of durations, or one duration per matrix
        hs = np.array([random_hermitian(rng, 4) for _ in range(3)])
        ts = np.array([0.0, 0.4, 2.5])
        want = np.array([[unitary_exp(h, t) for t in ts] for h in hs])
        close = lambda a, b: np.max(np.abs(a - b)) < 1e-13
        for i, h in enumerate(hs):
            assert close(unitary_exp(h, ts), want[i])
        assert close(unitary_exp(hs, ts), want[np.arange(3), np.arange(3)])
        assert close(unitary_exp(hs, ts[:, None]), want.swapaxes(0, 1))


class TestRequireUnitary:
    def test_unitary_stack_passes_through(self, rng):
        u = unitary_exp(np.array([random_hermitian(rng, 4) for _ in range(3)]), 2.0)
        assert require_unitary(u) is u

    def test_departure_above_tolerance_rejected(self, rng):
        u = unitary_exp(random_hermitian(rng, 4), 2.0)
        stack = np.array([u, u * (1.0 + 1e-9)])
        with pytest.raises(ContractError, match="not unitary"):
            require_unitary(stack)
        assert require_unitary(u * (1.0 + 1e-12)) is not None

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, rng, bad):
        u = unitary_exp(random_hermitian(rng, 4), 2.0)
        u[1, 2] = bad
        with pytest.raises(ContractError, match="not unitary"):
            require_unitary(np.array([u, u]))


class TestRequireHermitian:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, rng, bad):
        # a NaN deviation compares False against any tolerance
        m = random_hermitian(rng, 4)
        m[0, 3] = m[3, 0] = bad
        with pytest.raises(ContractError, match="not Hermitian"):
            linalg.require_hermitian(m)
        with pytest.raises(ContractError, match="not Hermitian"):
            hermitian_eig(m)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_squaring_recovers_input(self, rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a.conj().T @ a
        m /= np.max(np.abs(m))
        s = psd_sqrt(m)
        assert np.max(np.abs(s @ s - m)) < 1e-9
        assert np.max(np.abs(s - s.conj().T)) < 1e-10
        # an eigensystem gives the root without another decomposition
        assert np.max(np.abs(psd_sqrt(hermitian_eig(m)) - s)) < 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(np.diag([1.0, -0.5]))
        # an eigensystem is held to the same clip: below -PSD_CLIP_TOL raises
        v = np.eye(2, dtype=complex)
        assert np.array_equal(psd_sqrt(EigenSystem(np.array([-PSD_CLIP_TOL, 1.0]), v)), np.diag([0.0, 1.0]))
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(EigenSystem(np.array([-2 * PSD_CLIP_TOL, 1.0]), v))


class TestSimplexProjection:
    def test_waterfilling_example(self):
        assert np.allclose(project_to_simplex(np.array([1.2, -0.2])), [1.0, 0.0])

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=16))
    def test_projection_properties(self, vals):
        vals = np.asarray(vals)
        out = project_to_simplex(vals)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_matches_brute_force_on_2d(self):
        # exhaustive grid over the 2-simplex, step 1e-4
        grid = np.linspace(0.0, 1.0, 10001)
        cand = np.stack([grid, 1.0 - grid], axis=1)
        for vals in ([1.2, -0.2], [0.9, 0.1], [2.0, -1.0], [0.55, 0.45]):
            vals = np.asarray(vals, dtype=float)
            best = cand[np.argmin(np.sum((cand - vals) ** 2, axis=1))]
            assert np.linalg.norm(project_to_simplex(vals) - best) < 2e-4


class TestNearestPhysicalDensity:
    def test_valid_density_is_fixed_point(self, rng):
        rho = random_density(rng, 4)
        assert np.max(np.abs(nearest_physical_density(rho) - rho)) < 1e-12

    def test_diagonal_example(self):
        out = nearest_physical_density(np.diag([1.2, -0.2]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_output_contracts(self, rng):
        m = random_hermitian(rng, 16)
        m = m / np.trace(m).real
        out = nearest_physical_density(m)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_published_matrix_is_projection_fixed_point(self, published_bell_matrix):
        # published to 4 decimals, so idempotent only to the rounding scale
        out = nearest_physical_density(published_bell_matrix)
        assert np.max(np.abs(out - published_bell_matrix)) < 1e-4

    def test_zero_matrix_rejected(self):
        with pytest.raises(ContractError):
            nearest_physical_density(np.zeros((2, 2)))


class TestTensor:
    def test_identity_product(self):
        assert np.allclose(kron_all(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_product(self):
        out = kron_all(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert np.allclose(out, np.diag([1, -1, -1, 1]))

    def test_mixed_product_identity(self):
        lhs = kron_all(linalg.SIGMA_X, np.eye(2)) @ kron_all(np.eye(2), linalg.SIGMA_X)
        assert np.allclose(lhs, kron_all(linalg.SIGMA_X, linalg.SIGMA_X))


class TestPartialTrace:
    def test_product_state_marginals(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        rho = np.kron(a, b)
        assert np.allclose(partial_trace(rho, (0,), 2), a)
        assert np.allclose(partial_trace(rho, (1,), 2), b)

    def test_bell_marginal_is_maximally_mixed(self):
        psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
        rho = np.outer(psi, psi)
        assert np.allclose(partial_trace(rho, (0,), 2), np.eye(2) / 2)
