"""Single-RF-chain beam alignment simulations built on sliding sub-aperture
combining, with estimation-bound analysis, Bayesian angle/gain inference,
adaptive beam controllers, and a seeded Monte Carlo harness."""

from .arrays import (
    AngularGrid,
    RegionOfInterest,
    manifold_matrix,
    ula_manifold,
)
from .beams import (
    BeamSpec,
    Beamformer,
    HierarchicalCodebook,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from .channel import ChannelParams, combine
from .sensing import MeasurementHistory, svam_combiner
from .crb import (
    CrbResult,
    crb_benchmark,
    crb_general,
    crb_svam,
    crb_unknown_alpha,
    gain_condition_sufficient,
)
from .inference import (
    AlphaPosterior,
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    likelihood_terms,
    posterior_pmf,
)
from .adaptive import (
    AdaptConfig,
    Trials,
    hier_beam_search,
    node_masses,
    run_alignment,
    select_codeword_posterior_matching,
    select_next_beam,
)
from .harness import (
    ExperimentConfig,
    MetricRow,
    bootstrap_rmse_interval,
    config_from_file,
    crb_table,
    emit_csv,
    noise_variance_from_snr,
    rmse,
    run_adaptive_trials,
    run_experiment,
    write_crb_csv,
    write_trajectories,
)

__all__ = [
    "AngularGrid",
    "RegionOfInterest",
    "manifold_matrix",
    "ula_manifold",
    "BeamSpec",
    "Beamformer",
    "HierarchicalCodebook",
    "beam_gain",
    "build_hierarchical_codebook",
    "design_beamformer",
    "ChannelParams",
    "combine",
    "MeasurementHistory",
    "svam_combiner",
    "CrbResult",
    "crb_benchmark",
    "crb_general",
    "crb_svam",
    "crb_unknown_alpha",
    "gain_condition_sufficient",
    "AlphaPosterior",
    "alpha_posterior",
    "approx_log_likelihood",
    "gamma_mle",
    "likelihood_terms",
    "posterior_pmf",
    "AdaptConfig",
    "Trials",
    "hier_beam_search",
    "node_masses",
    "run_alignment",
    "select_codeword_posterior_matching",
    "select_next_beam",
    "ExperimentConfig",
    "MetricRow",
    "bootstrap_rmse_interval",
    "config_from_file",
    "crb_table",
    "emit_csv",
    "noise_variance_from_snr",
    "rmse",
    "run_adaptive_trials",
    "run_experiment",
    "write_crb_csv",
    "write_trajectories",
]

__version__ = "0.1.0"
