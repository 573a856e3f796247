#!/usr/bin/env python3
"""Prior-only calibration report: run the sampler with the likelihood
disabled and compare empirical indicator/parameter means against their
marginal prior means. Any drift points at a broken Metropolis-Hastings
ratio.

Usage: python scripts/prior_calibration.py [--sweeps 52000] [--seed 3]
"""

import argparse

import numpy as np

from zinbreg.data import (
    CountMatrix,
    CovariateMatrix,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.sampler import ChainConfig, run_chain


def calibration_dataset():
    rng = np.random.default_rng(42)
    y = rng.integers(0, 6, size=(10, 10))
    y[rng.random((10, 10)) < 0.4] = 0
    y[:, y.sum(axis=0) == 0] = 1
    counts = CountMatrix(
        y, tuple(f"s{i}" for i in range(10)), tuple(f"f{j}" for j in range(10))
    )
    covs = standardize_covariates(
        CovariateMatrix(rng.standard_normal((10, 2)), ("c1", "c2"))
    )
    return validate_inputs(counts, covs, GroupAssignment(1 + np.arange(10) % 2, 2))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=52000)
    parser.add_argument("--burn-in", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    ds = calibration_dataset()
    hp = Hyperparameters()
    # scales sized to the prior so the walks traverse its support quickly
    scales = ProposalScales(tau_mu0=8.0, tau_mu=2.0, tau_beta=2.0, tau_phi=120.0)
    trace = run_chain(
        ds, hp, scales,
        ChainConfig(n_iter=args.sweeps, burn_in=args.burn_in, seed=args.seed,
                    prior_only=True),
    )
    t = trace.n_recorded
    rows = [
        ("gamma", trace.gamma_sums.sum() / (t * ds.p),
         hp.a_omega / (hp.a_omega + hp.b_omega)),
        ("delta", trace.delta_sums.sum() / (t * ds.p * ds.n_covariates),
         hp.a_p / (hp.a_p + hp.b_p)),
        # every sweep, burn-in included, redraws each zero cell's r
        ("r | y=0", trace.accept_counts["r"] / trace.proposal_counts["r"],
         hp.a_pi / (hp.a_pi + hp.b_pi)),
        ("phi", trace.phi_sum.sum() / (t * ds.p), hp.a_phi / hp.b_phi),
        ("mu0", trace.mu0_sum.sum() / (t * ds.p), 0.0),
    ]
    print(f"{'parameter':<10} {'empirical':>12} {'prior mean':>12}")
    for name, emp, want in rows:
        print(f"{name:<10} {emp:>12.4f} {want:>12.4f}")


if __name__ == "__main__":
    main()
