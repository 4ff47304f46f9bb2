"""A fixed reference computation that times the machine, not the program.

The benchmark shares its machine with other work, and on the reference
machine the speed of plain numpy code moved by up to a third within minutes.
`wall_rel` divides the median time of the run's operations by the median
time of this kernel, timed in the same process just before each operation.
One timing is the median of 5 passes of about 0.1 s each, so that a short
stall in one pass does not set it. The kernel does not call symreg, so a
change to the program leaves it as it is. Its
work is shaped like the workloads' inner loops: a proximal-gradient loop on
a 500 x 96 design, as in the CP lasso, and contractions of a 500 x 32 x 32
covariate array, as in the prox step on B.
"""

import statistics
import time

import numpy as np

SEED = 12345
PASSES = 5
LASSO_STEPS = 3000
CONTRACTIONS = 80


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.Z = rng.standard_normal((500, 96))
        self.X = rng.standard_normal((500, 32, 32))
        self.B = rng.standard_normal((32, 3))
        self.y = rng.standard_normal(500)

    def seconds(self):
        """Median wall time of PASSES passes of the fixed work."""
        return statistics.median(self._pass() for _ in range(PASSES))

    def _pass(self):
        Z, X, B, y = self.Z, self.X, self.B, self.y
        start = time.perf_counter()
        coef = np.zeros(Z.shape[1])
        for _ in range(LASSO_STEPS):
            step = coef - 1e-4 * (Z.T @ (Z @ coef - y))
            coef = np.sign(step) * np.maximum(np.abs(step) - 1e-6, 0.0)
        for _ in range(CONTRACTIONS):
            np.tensordot(y, X, axes=1) @ B
        return time.perf_counter() - start
