"""Gap-time distribution estimation for stationary renewal processes.

Simulates the three classical ways of observing a renewal process in
equilibrium (recurrence times around a fixed point, a finite observation
window, and lifetimes seen only through a window as line segments) and
estimates the gap-time distribution with product-limit and nonparametric
maximum likelihood estimators, including Greenwood and bootstrap
uncertainty and a Monte Carlo comparison harness.
"""

from .benchmark import McConfig, McReport, mc_compare, tail_failure_demo
from .distributions import (
    DiscreteDistribution,
    Exponential,
    GapDistribution,
    IntegrabilityReport,
    UniformInterval,
    Weibull,
    parse_distribution,
)
from .errors import DataFormatError, DistributionSpecError, EstimationError, GapestError
from .npmle import (
    EmResult,
    bin_segments,
    cox_vardi,
    cox_vardi_from_pairs,
    default_grid,
    gof_discrepancy,
    laslett_em,
    segment_loglik,
    segment_marginal_loglik,
)
from .product_limit import (
    BootstrapBand,
    StepSurvival,
    bootstrap_band,
    greenwood_variance,
    kaplan_meier,
    palmer_cox,
    window_product_limit,
    winter_foldes,
)
from .sampling import (
    Pairs,
    Segments,
    WindowRecords,
    apply_right_censoring,
    sample_equilibrium,
    sample_pooled_segments,
    sample_pooled_windows,
    sample_segment_replicates,
    sample_window_replicates,
)
from .seeding import child_seed, derived_rng

__version__ = "0.1.0"

__all__ = [
    "BootstrapBand",
    "DataFormatError",
    "DiscreteDistribution",
    "DistributionSpecError",
    "EmResult",
    "EstimationError",
    "Exponential",
    "GapDistribution",
    "GapestError",
    "IntegrabilityReport",
    "McConfig",
    "McReport",
    "Pairs",
    "Segments",
    "StepSurvival",
    "UniformInterval",
    "Weibull",
    "WindowRecords",
    "apply_right_censoring",
    "bin_segments",
    "bootstrap_band",
    "child_seed",
    "cox_vardi",
    "cox_vardi_from_pairs",
    "default_grid",
    "derived_rng",
    "gof_discrepancy",
    "greenwood_variance",
    "kaplan_meier",
    "laslett_em",
    "mc_compare",
    "palmer_cox",
    "parse_distribution",
    "sample_equilibrium",
    "sample_pooled_segments",
    "sample_pooled_windows",
    "sample_segment_replicates",
    "sample_window_replicates",
    "segment_loglik",
    "segment_marginal_loglik",
    "tail_failure_demo",
    "winter_foldes",
    "window_product_limit",
]
