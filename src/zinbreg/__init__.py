"""Bayesian zero-inflated negative binomial regression for count matrices
with covariates: group-discriminating feature selection and
feature-covariate association estimation via MCMC.

The package exports what the README's Library section uses; everything
else is imported from its module."""

from .data import (
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from .evaluate import score_run
from .inference import chain_concordance, summarize
from .normalization import estimate_css
from .sampler import ChainConfig, run_chains_parallel
from .simulate import SimConfig, generate

__version__ = "0.1.0"
