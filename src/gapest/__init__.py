"""Gap-time distribution estimation for stationary renewal processes.

Simulates the three classical ways of observing a renewal process in
equilibrium (recurrence times around a fixed point, a finite observation
window, and lifetimes seen only through a window as line segments) and
estimates the gap-time distribution with product-limit and nonparametric
maximum likelihood estimators, including Greenwood and bootstrap
uncertainty and a Monte Carlo comparison harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. ``import gapest``
# loads no submodule: a name is looked up in its submodule each time it is
# read (PEP 562), so ``gapest.X`` is always the submodule's current attribute.
_MODULE = {
    "BootstrapBand": "product_limit",
    "DataFormatError": "errors",
    "DiscreteDistribution": "distributions",
    "DistributionSpecError": "errors",
    "EmResult": "npmle",
    "EstimationError": "errors",
    "Exponential": "distributions",
    "GapDistribution": "distributions",
    "GapestError": "errors",
    "IntegrabilityReport": "distributions",
    "McConfig": "benchmark",
    "McReport": "benchmark",
    "Pairs": "sampling",
    "Segments": "sampling",
    "StepSurvival": "product_limit",
    "UniformInterval": "distributions",
    "Weibull": "distributions",
    "WindowRecords": "sampling",
    "apply_right_censoring": "sampling",
    "bin_segments": "npmle",
    "bootstrap_band": "product_limit",
    "child_seed": "seeding",
    "cox_vardi": "npmle",
    "cox_vardi_from_pairs": "npmle",
    "default_grid": "npmle",
    "derived_rng": "seeding",
    "gof_discrepancy": "npmle",
    "greenwood_variance": "product_limit",
    "kaplan_meier": "product_limit",
    "laslett_em": "npmle",
    "mc_compare": "benchmark",
    "palmer_cox": "product_limit",
    "parse_distribution": "distributions",
    "sample_equilibrium": "sampling",
    "sample_pooled_segments": "sampling",
    "sample_pooled_windows": "sampling",
    "sample_segment_replicates": "sampling",
    "sample_window_replicates": "sampling",
    "segment_loglik": "npmle",
    "segment_marginal_loglik": "npmle",
    "tail_failure_demo": "benchmark",
    "winter_foldes": "product_limit",
    "window_product_limit": "product_limit",
}
__all__ = list(_MODULE)


def __getattr__(name):
    if name in _MODULE.values():  # a submodule not yet imported
        return import_module(f".{name}", __name__)
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE[name]}", __name__), name)


def __dir__():  # as if every submodule and name were imported
    own = {"_MODULE", "import_module", "__dir__", "__getattr__"}
    return sorted({*globals(), *_MODULE.values(), *__all__} - own)
