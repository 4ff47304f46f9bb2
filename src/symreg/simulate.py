# Seeded synthetic-data generators: 0/1 signal matrices (circle, cross,
# butterfly, two_box, three_box), random correlation-matrix covariates, and
# full datasets y_i = gamma0'z_i + <B0, X_i> + sigma*eps_i. Everything is a
# pure function of (spec, seed); the RNG is numpy's PCG64 so identical seeds
# give bit-identical datasets.

import math
from dataclasses import dataclass

import numpy as np

from .glm import BERNOULLI, GAUSSIAN, Family
from .solvers import Dataset

SHAPE_NAMES = ("circle", "cross", "butterfly", "two_box", "three_box")
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class SignalShape:
    name: str
    p: int

    def __post_init__(self):
        if self.name not in SHAPE_NAMES:
            raise ValueError(f"unknown shape {self.name!r}; choose from {SHAPE_NAMES}")
        if self.p < 16 or self.p % 8 != 0:
            raise ValueError(f"p must be >= 16 and divisible by 8, got {self.p}")


def shape_signal(shape):
    """Deterministic 0/1 symmetric signal matrix for one named shape."""
    if not isinstance(shape, SignalShape):
        raise TypeError("shape_signal expects a SignalShape")
    p = shape.p
    idx = np.arange(1, p + 1, dtype=float)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    c = (p + 1) / 2.0

    if shape.name == "circle":
        # squared radii keep the mask exactly symmetric
        r2 = (I - c) ** 2 + (J - c) ** 2
        mask = (r2 >= (p / 4 - p / 16) ** 2) & (r2 <= (p / 4 + p / 16) ** 2)
    elif shape.name == "cross":
        mask = (np.abs(I - c) <= p / 16) | (np.abs(J - c) <= p / 16)
    elif shape.name == "butterfly":
        mask = (np.abs(I - J) <= np.abs(I + J - (p + 1)) / 2) & (
            np.maximum(np.abs(I - c), np.abs(J - c)) <= 3 * p / 8
        )
    elif shape.name == "two_box":
        mask = np.zeros((p, p), dtype=bool)
        mask[p // 8 : 3 * p // 8, p // 8 : 3 * p // 8] = True
        mask[5 * p // 8 : 7 * p // 8, 5 * p // 8 : 7 * p // 8] = True
    else:  # three_box
        side = p // 6
        mask = np.zeros((p, p), dtype=bool)
        for start in (p // 12, 5 * p // 12, 9 * p // 12):
            mask[start : start + side, start : start + side] = True
    return mask.astype(float)


def random_correlations(n, p, rng):
    """n random correlation matrices D^{-1/2} (A A') D^{-1/2}, A iid standard normal.

    Each is exactly symmetric, unit diagonal, positive semidefinite, with
    off-diagonals in [-1, 1]. All n A's are one (n, p, p) draw, so the stream
    is that of n (p, p) draws in turn. A zero Gram diagonal has probability
    zero; each matrix that has one is redrawn alone, in index order, after
    the batch, until its diagonal is positive. Only this case changes the
    stream from that of a draw of one matrix at a time.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    # each step writes into the draw's own memory, so at most two (n, p, p)
    # arrays are alive at once
    x = _gram(rng.standard_normal((n, p, p)))
    d = np.diagonal(x, axis1=1, axis2=2)  # a view: it sees the redraws
    for k in np.flatnonzero(~np.all(d > 0, axis=1)):
        while not np.all(d[k] > 0):
            x[k] = _gram(rng.standard_normal((1, p, p)))[0]
    scale = d[:, :, None] * d[:, None, :]
    x /= np.sqrt(scale, out=scale)
    x[:, np.arange(p), np.arange(p)] = 1.0
    return x


def _gram(a):
    """(S + S') / 2 with S = A A', for each matrix A of a stack, written into a."""
    s = a @ a.transpose(0, 2, 1)
    np.add(s, s.transpose(0, 2, 1), out=a)
    a /= 2.0
    return a


@dataclass(frozen=True)
class SimSpec:
    """One simulated design: the true B is signal_scale times the 0/1 signal
    of `shape`; sigma is the gaussian noise level (bernoulli ignores it)."""

    shape: SignalShape
    n: int
    p0: int = 5
    sigma: float = 1.0
    seed: int = 0
    family: Family = GAUSSIAN
    signal_scale: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.p0 < 0:
            raise ValueError("p0 must be nonnegative")
        if not math.isfinite(self.signal_scale):
            raise ValueError("signal_scale must be finite")


def synth_dataset(b0, n, p0=5, gamma0=None, sigma=1.0, seed=0, family=GAUSSIAN):
    """Dataset with true coefficient matrix b0 and correlation-matrix covariates.

    Draw order (fixed for reproducibility): z (n x p0), then the n covariate
    matrices as one batch (random_correlations), then the noise vector. For
    the bernoulli family, y is drawn as Bernoulli(sigmoid(eta)) and sigma is
    ignored.
    """
    b0 = np.asarray(b0, dtype=float)
    p = b0.shape[0]
    if b0.shape != (p, p):
        raise ValueError("b0 must be square")
    gamma0 = np.ones(p0) if gamma0 is None else np.asarray(gamma0, dtype=float).ravel()
    if gamma0.size != p0:
        raise ValueError("gamma0 length must equal p0")

    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p0)) if p0 > 0 else np.zeros((n, 0))
    X = random_correlations(n, p, rng)
    signal = Z @ gamma0 + X.reshape(n, -1) @ b0.ravel()
    if family == BERNOULLI:
        y = (rng.random(n) < BERNOULLI.mean(signal)).astype(float)
    else:
        y = signal + sigma * rng.standard_normal(n)
    meta = {
        "rng": RNG_ALGORITHM,
        "signal_var": float(np.var(signal)),
    }
    return Dataset(y, Z, X, family, meta)


def gen_dataset(spec):
    """Generate the full synthetic dataset for one SimSpec."""
    return synth_dataset(
        spec.signal_scale * shape_signal(spec.shape),
        spec.n,
        p0=spec.p0,
        sigma=spec.sigma,
        seed=spec.seed,
        family=spec.family,
    )
