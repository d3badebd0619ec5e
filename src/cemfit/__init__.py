"""Maximum-likelihood fitting of right-censored samples.

Supports the normal, Laplace, and Rayleigh families with three routes:

* ``fit_em``     closed-form EM iteration (normal family only),
* ``fit_mcem``   Monte Carlo EM with reproducible truncated draws,
* ``fit_direct`` direct maximization of the censored likelihood (Newton
  for normal, a closed form for Rayleigh, one bisection of the exact
  location-profile slopes for Laplace), used as an independent cross-check of
  the EM fixed points.

``fit`` dispatches on the configured route, and every route returns a
``FitTrace``.  A fit that does not converge is returned with ``converged``
False, never raised.  The
package namespace holds what a user calls: the fits, sample I/O, the
families, the configuration and trace types, and the exceptions.  The EM
and MCEM steps, the truncated samplers and the random streams stay
importable from their modules.
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
from .direct import fit_direct
from .distributions import Family, Laplace, Normal, Rayleigh, make_params
from .em import fit_em
from .exceptions import DataError, ParameterError
from .fitting import DEFAULT_SEED, Algorithm, FitConfig, FitTrace, TraceRow, read_trace_csv
from .mcem import fit_mcem

__version__ = "0.1.0"


def fit(sample: CensoredSample, config: FitConfig) -> FitTrace:
    """Dispatch to the configured algorithm; every route returns a
    :class:`FitTrace`, a direct fit one with a single row."""
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
    "Family",
    "FitConfig",
    "FitTrace",
    "Laplace",
    "Normal",
    "ParameterError",
    "Rayleigh",
    "TraceRow",
    "ensure_fittable",
    "fit",
    "fit_direct",
    "fit_em",
    "fit_mcem",
    "from_type2",
    "make_params",
    "observed_loglik",
    "read_censored_csv",
    "read_trace_csv",
    "validate",
    "write_censored_csv",
]
