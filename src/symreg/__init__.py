"""Sparse symmetric low-rank matrix regression with CP baselines.

Scalar responses, symmetric matrix covariates: the coefficient matrix is
modelled as B diag(lam) B' and estimated by block GLM updates of gamma and
lam plus a B block that depends on the family (one prox-linear, i.e.
Gauss-Newton, step for gaussian data; proximal gradient with
soft-thresholding for bernoulli data), next to standard and symmetrized CP
regression baselines, seeded simulation generators, and a cross-validation /
replication harness.
"""

from .glm import (
    BERNOULLI,
    GAUSSIAN,
    Family,
    GlmConvergenceError,
    GlmProblem,
    NumericalError,
    fit_glm,
    fit_glm_lasso,
    soft_threshold,
)
from .solvers import (
    CPFactors,
    Dataset,
    FitConfig,
    FitResult,
    SymCPFactors,
    construct_init,
    default_pipeline,
    fit_cp,
    fit_sym_cp,
    fit_sym_tensor,
    objective,
    prox_update_B,
)
from .simulate import (
    SHAPE_NAMES,
    SignalShape,
    SimSpec,
    gen_dataset,
    shape_signal,
    synth_dataset,
)
from .evaluate import (
    CvPlan,
    ExperimentSpec,
    cv_select,
    kfold_split,
    mse_coef,
    mse_pred,
    predict_mean,
    replicate_experiment,
)
from . import tensor_ops

__version__ = "0.1.0"
