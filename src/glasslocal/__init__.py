"""Sampling from mixed p-spin Ising Gibbs measures by stochastic
localization, with the scalar state-evolution theory, exact small-n oracles
and experiment harnesses."""

from .mixture import MixtureSpec, binary_entropy, ons, ons_prime, onsager
from .scalar import mutual_info_scalar, phi, psi, psi_prime
from .state_evolution import (
    SEProfile,
    ThresholdReport,
    beta1,
    beta2,
    beta3,
    beta_c_rs,
    beta_dyn,
    mse_prediction,
    psi_star,
    q_schedule,
    se_recursion,
    thresholds,
)
from .disorder import (
    DisorderTensors,
    gen_planted,
    gen_random,
    grad,
    hamiltonian,
    hessian,
    interpolate,
    partition_rescaled,
    read_tensors,
    write_tensors,
)
from .amp import AmpState, amp_run
from .tap import (
    TapIterate,
    TapParams,
    ftap_grad,
    ftap_hessian,
    ftap_value,
    ngd_run,
    relative_hessian_extremes,
)
from .localization import (
    SamplerParams,
    SampleRun,
    mean_estimate,
    round_spins,
    sample,
)
from .baselines import (
    ExactGibbs,
    SampleBatch,
    empirical_w2,
    exact_gibbs,
    exact_mean_batch,
    exact_sample,
    glauber_run,
    overlap_moment,
)
from .experiments import chaos_experiment, stability_experiment

__version__ = "0.1.0"
