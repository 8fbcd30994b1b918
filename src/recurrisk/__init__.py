"""recurrisk: survival-analysis toolkit for recurrence risk prediction.

Library + CLI covering cohort handling, radiomic feature extraction,
feature screening, four survival learners plus a temporal attention risk
encoder, and a full time-dependent evaluation and stratification suite.
"""

__version__ = "0.1.0"

from .cohort import (
    Cohort,
    SyntheticSpec,
    apply_normalization,
    generate_synthetic,
    load_cohort,
    write_cohort,
    zscore_normalize,
)
from .nonparametric import (
    LogRankResult,
    kaplan_meier,
    log_rank,
    median_survival_time,
    nelson_aalen,
)
from .stepfun import StepFunction

__all__ = [
    "Cohort",
    "LogRankResult",
    "StepFunction",
    "SyntheticSpec",
    "__version__",
    "apply_normalization",
    "generate_synthetic",
    "kaplan_meier",
    "load_cohort",
    "log_rank",
    "median_survival_time",
    "nelson_aalen",
    "write_cohort",
    "zscore_normalize",
]
