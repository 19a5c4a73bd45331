import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=40)
settings.load_profile("ci")

# a measured phase-reversal trace for `options.data_csv`: twelve rows, the
# fewest that its sine fit takes
TRACE_CSV = "x_value,p_up_proportion,n_shots\n" + "".join(f"{i}.5,0.{i % 9 + 1},200\n" for i in range(1, 13))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def published_bell_matrix():
    """Reconstructed two-nucleus Bell-state density matrix used as a
    regression target (post physical projection, 4-decimal precision)."""
    return np.array(
        [
            [0.0798 + 0.0000j, 0.0918 - 0.0368j, 0.0708 - 0.0537j, 0.0267 - 0.0743j],
            [0.0918 + 0.0368j, 0.3463 + 0.0000j, 0.3733 - 0.1142j, 0.1213 + 0.0105j],
            [0.0708 + 0.0537j, 0.3733 + 0.1142j, 0.4503 + 0.0000j, 0.1090 + 0.0734j],
            [0.0267 + 0.0743j, 0.1213 - 0.0105j, 0.1090 - 0.0734j, 0.1236 + 0.0000j],
        ]
    )
