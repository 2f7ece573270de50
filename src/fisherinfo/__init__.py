"""Fisher information and MMSE estimation from i.i.d. samples, with
finite-sample error bounds and sample-complexity calculators for data
observed through additive Gaussian noise."""

# Set before the submodule imports: experiments reads it into report metadata.
__version__ = "0.1.0"

from .bounds import (
    ComplexityResult,
    TailModel,
    bhattacharya_error_bound,
    clipped_error_bound,
    confidence_bound,
    lemma2_tail,
    modified_error_bound,
    sample_complexity,
)
from .channel import (
    ChannelModel,
    InputLaw,
    binary_channel,
    gaussian_channel,
    sample_channel,
    trial_seed,
    true_density,
    true_density_deriv,
    true_fisher,
    true_mmse,
    true_score,
)
from .errors import (
    HypothesisViolationError,
    InfeasibleTargetError,
    QuadratureError,
    UnsupportedOracleError,
)
from .estimators import (
    EstimateResult,
    EstimatorConfig,
    EstimatorKind,
    constant_clip_envelope,
    default_bandwidth,
    default_truncation,
    estimate,
    lemma_clip_envelope,
    mmse_from_fisher,
)
from .experiments import (
    ExperimentConfig,
    ExperimentKind,
    ExperimentReport,
    run_complexity,
    run_density_overlay,
    run_experiment,
    run_histogram,
    run_snr_sweep,
)
from .kernels import kde_profile, sup_deviation_tail
from .quadrature import integrate, integrate_values, simpson_nodes
from .samples import SampleSet
