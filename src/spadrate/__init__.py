"""Count-rate modeling for dead-time-limited single-photon detectors."""

from .er import (
    ErParams,
    SourceParams,
    er_efficiency,
    er_interval_pdf,
    er_mean_on_time,
    er_pdf,
    er_rate_forward,
    er_rate_inverse,
)
from .exceptions import DegenerateDataError, FitError, IntegrationError, SaturationError
from .nhpp import (
    EfficiencyProfile,
    constant_profile,
    invert_rate,
    mean_on_time,
    nhpp_ccdf,
    nhpp_pdf,
    rate_forward,
    simple_rate_inverse,
)

__version__ = "0.1.0"
