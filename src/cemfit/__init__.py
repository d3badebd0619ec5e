"""Maximum-likelihood fitting of right-censored samples.

Supports the normal, Laplace, and Rayleigh families with three routes:

* ``fit_em``     closed-form EM iteration (normal family only),
* ``fit_mcem``   Monte Carlo EM with reproducible truncated draws,
* ``fit_direct`` direct maximization of the censored likelihood (Newton
  for normal and Rayleigh, a simplex search for Laplace), used as an
  independent cross-check of the EM fixed points.
"""

from .censoring import (
    CensoredSample,
    ensure_fittable,
    from_type2,
    observed_loglik,
    read_censored_csv,
    validate,
    write_censored_csv,
)
from .direct import (
    OptimizerReport,
    fit_direct,
    loglik_gradient_norm,
    rayleigh_mle_closed_form,
)
from .distributions import Family, Laplace, Normal, Rayleigh, make_params
from .em import NormalSuffStats, e_step, fit_em, m_step
from .exceptions import (
    DataError,
    DegenerateDataError,
    NonConvergenceError,
    NumericRangeError,
    ParameterError,
    TailUnderflowError,
)
from .fitting import (
    DEFAULT_SEED,
    Algorithm,
    FitConfig,
    FitTrace,
    TraceRow,
    default_start,
    read_trace_csv,
)
from .mcem import (
    MonteCarloAccumulator,
    fit_mcem,
    mcem_step_laplace,
    mcem_step_normal,
    mcem_step_rayleigh,
    weighted_median,
)
from .streams import RandomStream
from .truncated import (
    sample_truncated_laplace,
    sample_truncated_normal,
    sample_truncated_rayleigh,
)

__version__ = "0.1.0"


def fit(sample: CensoredSample, config: FitConfig):
    """Dispatch to the configured algorithm.

    Returns a :class:`FitTrace` for EM and Monte Carlo EM, an
    :class:`OptimizerReport` for direct maximization.
    """
    if config.algorithm is Algorithm.EM:
        return fit_em(sample, config)
    if config.algorithm is Algorithm.MCEM:
        return fit_mcem(sample, config)
    return fit_direct(sample, config)


__all__ = [
    "Algorithm",
    "CensoredSample",
    "DataError",
    "DEFAULT_SEED",
    "DegenerateDataError",
    "Family",
    "FitConfig",
    "FitTrace",
    "Laplace",
    "MonteCarloAccumulator",
    "NonConvergenceError",
    "Normal",
    "NormalSuffStats",
    "NumericRangeError",
    "OptimizerReport",
    "ParameterError",
    "RandomStream",
    "Rayleigh",
    "TailUnderflowError",
    "TraceRow",
    "default_start",
    "e_step",
    "ensure_fittable",
    "fit",
    "fit_direct",
    "fit_em",
    "fit_mcem",
    "from_type2",
    "loglik_gradient_norm",
    "m_step",
    "make_params",
    "mcem_step_laplace",
    "mcem_step_normal",
    "mcem_step_rayleigh",
    "observed_loglik",
    "read_censored_csv",
    "read_trace_csv",
    "rayleigh_mle_closed_form",
    "sample_truncated_laplace",
    "sample_truncated_normal",
    "sample_truncated_rayleigh",
    "validate",
    "weighted_median",
    "write_censored_csv",
]
