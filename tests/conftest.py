import numpy as np
import pytest

from symreg import Dataset
from symreg.solvers import _grad_B


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_symmetric(rng, p, scale=1.0):
    m = rng.standard_normal((p, p)) * scale
    return (m + m.T) / 2.0


def overflow_dataset():
    """Finite data whose responses +-1e308 overflow every fit at rank 1."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3, 3))
    y = np.where(np.arange(10) % 2 == 0, 1e308, -1e308)
    return Dataset(y, rng.standard_normal((10, 2)), (X + X.transpose(0, 2, 1)) / 2.0)


def grad_loss_B(data, gamma, factors):
    """Gradient of the unpenalized negloglik in B: sum_i w_i * 2 X_i B diag(lam).

    w_i is the derivative of the negloglik in eta_i (mu_i - y_i under the
    canonical links used here). Built on the runtime gradient the prox step
    descends along, so tests of this helper test solvers._grad_B.
    """
    eta = data.Z @ gamma + data.xop.inner(factors.to_full())
    w = data.family.dnll_deta(data.y, eta)
    return _grad_B(data, factors.B, factors.lam, w)
