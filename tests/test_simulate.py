import numpy as np
import pytest

from symreg import BERNOULLI, SHAPE_NAMES, SignalShape, SimSpec
from symreg.simulate import (
    gen_dataset,
    random_correlations,
    shape_signal,
    synth_dataset,
)


# ---------------------------------------------------------------- shapes

def test_two_box_entry_count():
    m = shape_signal(SignalShape("two_box", 64))
    assert m.sum() == 512.0  # two 16x16 all-ones diagonal blocks


@pytest.mark.parametrize("name", SHAPE_NAMES)
@pytest.mark.parametrize("p", [16, 32, 64])
def test_shapes_are_binary_symmetric(name, p):
    m = shape_signal(SignalShape(name, p))
    assert np.array_equal(m, m.T)
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert m.sum() > 0


def test_circle_far_corner_is_zero():
    m = shape_signal(SignalShape("circle", 64))
    assert m[0, 0] == 0.0


def test_shape_signal_deterministic():
    a = shape_signal(SignalShape("cross", 32))
    b = shape_signal(SignalShape("cross", 32))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [8, 17, 20])
def test_unsupported_p_rejected(p):
    with pytest.raises(ValueError):
        SignalShape("circle", p)


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        SignalShape("donut", 32)


# ---------------------------------------------------------------- correlation

def test_correlation_unit_diagonal(rng):
    for _ in range(5):
        x = random_correlations(1, 8, rng)[0]
        assert np.array_equal(np.diag(x), np.ones(8))
        assert np.array_equal(x, x.T)


def test_correlation_bounded_entries(rng):
    for _ in range(20):
        x = random_correlations(1, 6, rng)[0]
        assert np.max(np.abs(x)) <= 1.0 + 1e-12


def test_correlation_positive_semidefinite():
    for seed in range(100):
        x = random_correlations(1, 16, np.random.default_rng(seed))[0]
        assert np.linalg.eigvalsh(x).min() >= -1e-10


def test_correlation_rejects_p1(rng):
    with pytest.raises(ValueError):
        random_correlations(1, 1, rng)


def _one_at_a_time(n, p, rng):
    """n correlation matrices drawn and formed one (p, p) matrix at a time."""
    out = []
    for _ in range(n):
        a = rng.standard_normal((p, p))
        s = a @ a.T
        s = (s + s.T) / 2.0
        d = np.diag(s)
        x = s / np.sqrt(np.outer(d, d))
        np.fill_diagonal(x, 1.0)
        out.append(x)
    return np.stack(out)


@pytest.mark.parametrize("p", [2, 5, 16, 32])
@pytest.mark.parametrize("n", [1, 7, 60])
def test_correlations_batch_is_the_one_at_a_time_stream(p, n):
    batch_rng, loop_rng = np.random.default_rng(p * n), np.random.default_rng(p * n)
    x = random_correlations(n, p, batch_rng)
    assert x.tobytes() == _one_at_a_time(n, p, loop_rng).tobytes()
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class _ZeroRows:
    """A generator whose first draw has a zero row in matrices 3 and 1."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def standard_normal(self, shape):
        a = self.rng.standard_normal(shape)
        if not self.shapes:
            a[3, 0] = 0.0
            a[1, 2] = 0.0
        self.shapes.append(shape)
        return a


def test_correlations_redraw_zero_gram_diagonals_after_the_batch():
    stub = _ZeroRows(8)
    x = random_correlations(5, 4, stub)
    # one batch, then matrix 1 and then matrix 3 redrawn alone
    assert stub.shapes == [(5, 4, 4), (1, 4, 4), (1, 4, 4)]
    rng = np.random.default_rng(8)
    expected = _one_at_a_time(5, 4, rng)
    expected[1], expected[3] = _one_at_a_time(2, 4, rng)
    assert x.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- datasets

def test_dataset_all_zero_signal():
    data = synth_dataset(np.zeros((4, 4)), 10, p0=3, gamma0=np.zeros(3), sigma=0.0)
    assert np.array_equal(data.y, np.zeros(10))


def test_dataset_noiseless_identity():
    b0 = np.arange(16.0).reshape(4, 4)
    b0 = (b0 + b0.T) / 2
    data = synth_dataset(b0, 25, p0=2, sigma=0.0, seed=5)
    recomputed = data.Z @ np.ones(2) + data.x_rows @ b0.ravel()
    assert np.max(np.abs(data.y - recomputed)) <= 1e-12


def test_dataset_seed_determinism():
    b0 = np.eye(4)
    a = synth_dataset(b0, 12, seed=42)
    b = synth_dataset(b0, 12, seed=42)
    c = synth_dataset(b0, 12, seed=43)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.y, c.y)


def test_dataset_bernoulli_family():
    b0 = np.eye(4) * 0.5
    data = synth_dataset(b0, 30, seed=1, family=BERNOULLI)
    assert set(np.unique(data.y)) <= {0.0, 1.0}
    assert data.family is BERNOULLI


def test_gen_dataset_covariates_pass_invariants():
    spec = SimSpec(shape=SignalShape("two_box", 16), n=8, seed=3)
    data = gen_dataset(spec)
    assert data.n == 8 and data.p == 16 and data.p0 == 5
    for x in data.X:
        assert np.array_equal(np.diag(x), np.ones(16))
        assert np.array_equal(x, x.T)
    assert data.meta["rng"] == "numpy-pcg64"
    assert data.meta["signal_var"] > 0


def test_sim_spec_validation():
    shape = SignalShape("cross", 16)
    with pytest.raises(ValueError):
        SimSpec(shape=shape, n=0)
    with pytest.raises(ValueError):
        SimSpec(shape=shape, n=5, sigma=-1.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            SimSpec(shape=shape, n=5, sigma=sigma)
