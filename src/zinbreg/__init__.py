"""Bayesian zero-inflated negative binomial regression for count matrices
with covariates: group-discriminating feature selection and
feature-covariate association estimation via MCMC."""

from .data import (
    CountMatrix,
    CovariateMatrix,
    Dataset,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from .evaluate import ScoreReport, mcc, roc_auc, roc_points, score_run
from .inference import (
    ConcordanceReport,
    FdrSelection,
    PosteriorSummary,
    bayesian_fdr_threshold,
    chain_concordance,
    compute_ppi,
    summarize,
)
from .normalization import (
    METHODS,
    SizeFactors,
    estimate,
    estimate_css,
    estimate_gmpr,
    estimate_q75,
    estimate_rle,
    estimate_tmm,
)
from .sampler import ChainConfig, ChainTrace, ModelState, run_chain, run_chains_parallel
from .simulate import SimConfig, SimTruth, dirichlet_draw, generate, generate_zinb

__version__ = "0.1.0"
