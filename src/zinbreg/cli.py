"""Command line front end.

Subcommands:

* ``fit``       -- run the sampler on count/covariate/group tables.
* ``simulate``  -- write one synthetic dataset with its ground truth.
* ``evaluate``  -- score a fit's output files against a truth table.
* ``sim-study`` -- loop generate -> fit -> score over replicates.

Configuration values resolve as: command line flag > config file entry >
built-in default. The config file is flat ``key = value`` text where keys
are the long flag names with underscores. The effective configuration is
echoed to ``run_config.resolved`` in the output directory, one
``key = value`` line per entry with its provenance in a trailing comment.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence floor
not met (outputs are still written), 4 numerical failure inside a chain.

With ``--trace-dump``, each chain writes ``trace_chain<i>.csv`` with one
row per iteration: ``iteration, log_posterior, sum_gamma`` (acceptance
counters are appended as comment lines at the end of the file).
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as zio
from .data import (
    Dataset,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from .errors import DataError, NumericalFailure, UsageError, ZinbregError
from .evaluate import ScoreReport, roc_points, score_run
from .inference import PosteriorSummary, chain_concordance, summarize
from .normalization import METHODS, estimate
from .sampler import ChainConfig, chain_pool, default_max_workers, run_chains_parallel
from .simulate import SimConfig, SimTruth, generate

__all__ = ["RunConfig", "parse_config", "main"]

_HP_KEYS = tuple(f.name for f in fields(Hyperparameters))
_SCALE_KEYS = tuple(f.name for f in fields(ProposalScales))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    subcommand: str
    counts: str | None = None
    covariates: str | None = None
    groups: str | None = None
    norm: str = "css"
    l_css: int = 50
    chains: int = 4
    iterations: int = 20000
    burn_in: int | None = None
    thin: int = 1
    seed: int = 0
    fdr: float = 0.05
    out: str = "out"
    prior_only: bool = False
    adapt_scales: bool = False
    trace_dump: bool = False
    no_filter: bool = False
    filter_min_count: int = 2
    filter_min_groups: int | None = None
    convergence_floor: float = 0.95
    threads: int | None = None
    hyperparameters: Hyperparameters = field(default_factory=Hyperparameters)
    scales: ProposalScales = field(default_factory=ProposalScales)
    # simulate / sim-study
    n: int = 60
    p: int = 300
    n_disc: int = 20
    sigma_e: float = 1.0
    pi0: float = 0.4
    n_covariates: int = 7
    m_active: int = 4
    total_min: int = 20_000_000
    total_max: int = 60_000_000
    sim_seed: int = 0
    replicates: int = 10
    pool_covariates: str | None = None
    pool_groups: str | None = None
    # evaluate
    fit_dir: str | None = None
    truth: str | None = None
    provenance: dict = field(default_factory=dict, compare=False)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="base seed for the chains")
    p.add_argument("--threads", type=int, help="max worker processes for chains")


def _add_fit_options(p):
    p.add_argument("--norm", choices=METHODS, help="size factor estimator (default: css)")
    p.add_argument("--l-css", type=int, dest="l_css", help="CSS percentile (default: 50)")
    p.add_argument("--chains", type=int, help="number of chains (default: 4)")
    p.add_argument("--iterations", type=int, help="sweeps per chain (default: 20000)")
    p.add_argument("--burn-in", type=int, dest="burn_in",
                   help="burn-in sweeps (default: iterations/2)")
    p.add_argument("--thin", type=int, help="record every thin-th sweep (default: 1)")
    p.add_argument("--fdr", type=float, help="target Bayesian FDR (default: 0.05)")
    p.add_argument("--prior-only", action="store_true", dest="prior_only", default=None,
                   help="disable the likelihood (prior calibration mode)")
    p.add_argument("--adapt-scales", action="store_true", dest="adapt_scales", default=None,
                   help="Robbins-Monro proposal adaptation during burn-in")
    p.add_argument("--trace-dump", action="store_true", dest="trace_dump", default=None,
                   help="write per-iteration diagnostics per chain")
    p.add_argument("--no-filter", action="store_true", dest="no_filter", default=None,
                   help="skip the low-abundance feature filter")
    p.add_argument("--filter-min-count", type=int, dest="filter_min_count",
                   help="samples with nonzero counts required per group (default: 2)")
    p.add_argument("--filter-min-groups", type=int, dest="filter_min_groups",
                   help="groups that must pass the filter (default: all)")
    p.add_argument("--convergence-floor", type=float, dest="convergence_floor",
                   help="minimum pairwise PPI correlation (default: 0.95)")
    for key in _HP_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key,
                       help=argparse.SUPPRESS)
    for key in _SCALE_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key,
                       help=argparse.SUPPRESS)


def _add_sim_options(p):
    p.add_argument("--n", type=int, help="samples (even; default: 60)")
    p.add_argument("--p", type=int, help="features (default: 300)")
    p.add_argument("--n-disc", type=int, dest="n_disc",
                   help="true discriminating features (default: 20)")
    p.add_argument("--sigma-e", type=float, dest="sigma_e",
                   help="log-scale noise s.d. (default: 1.0)")
    p.add_argument("--pi0", type=float, help="structural zero fraction (default: 0.4)")
    p.add_argument("--n-covariates", type=int, dest="n_covariates",
                   help="covariates (default: 7)")
    p.add_argument("--m-active", type=int, dest="m_active",
                   help="active covariates per feature (default: 4)")
    p.add_argument("--total-min", type=int, dest="total_min", help=argparse.SUPPRESS)
    p.add_argument("--total-max", type=int, dest="total_max", help=argparse.SUPPRESS)
    p.add_argument("--sim-seed", type=int, dest="sim_seed",
                   help="seed for dataset generation (default: 0)")
    p.add_argument("--pool-covariates", dest="pool_covariates",
                   help="covariate pool file to sample rows from")
    p.add_argument("--pool-groups", dest="pool_groups",
                   help="group labels for the covariate pool")


def build_parser() -> _Parser:
    parser = _Parser(prog="zinbreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to count data")
    p_fit.add_argument("--counts", help="count table (CSV/TSV)")
    p_fit.add_argument("--covariates", help="covariate table")
    p_fit.add_argument("--groups", help="group label table")
    _add_common(p_fit)
    _add_fit_options(p_fit)

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset")
    _add_common(p_sim)
    _add_sim_options(p_sim)

    p_eval = sub.add_parser("evaluate", help="score fit outputs against truth")
    p_eval.add_argument("--fit-dir", dest="fit_dir", help="directory written by fit")
    p_eval.add_argument("--truth", help="truth table written by simulate")
    _add_common(p_eval)

    p_study = sub.add_parser("sim-study", help="replicate generate/fit/score loop")
    p_study.add_argument("--replicates", type=int, help="number of replicates (default: 10)")
    _add_common(p_study)
    _add_fit_options(p_study)
    _add_sim_options(p_study)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# RunConfig fields that are not config keys: the subcommand comes from the
# command line, and the two bundles are set through their own fields' keys
_NOT_KEYS = {"subcommand", "provenance", "hyperparameters", "scales"}


def _key_types() -> dict[str, type]:
    """Config key -> the type its value is coerced to (``int`` for
    ``int | None``), from the annotations of RunConfig and the bundles."""
    hints = {
        **typing.get_type_hints(RunConfig),
        **typing.get_type_hints(Hyperparameters),
        **typing.get_type_hints(ProposalScales),
    }
    return {
        key: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        for key, hint in hints.items()
        if key not in _NOT_KEYS
    }


_KEY_TYPES = _key_types()


def _coerce(key: str, raw: str):
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise UsageError(f"unknown config key: {key}")
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise UsageError(f"invalid value for {key}: {raw!r}") from exc


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve the command line plus optional config file into a RunConfig,
    recording where each value came from."""
    args = build_parser().parse_args(argv)
    cli_values = {k: v for k, v in vars(args).items()
                  if k not in ("config", "subcommand") and v is not None}
    file_values = {}
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            file_values[key] = _coerce(key, raw)

    merged = {}
    provenance = {}
    for key, value in file_values.items():
        merged[key] = value
        provenance[key] = "file"
    for key, value in cli_values.items():
        merged[key] = value
        provenance[key] = "flag"

    hp_kwargs = {k: merged.pop(k) for k in list(merged) if k in _HP_KEYS}
    scale_kwargs = {k: merged.pop(k) for k in list(merged) if k in _SCALE_KEYS}
    known = {f.name for f in fields(RunConfig)}
    unknown = [k for k in merged if k not in known]
    if unknown:
        raise UsageError(f"unknown option(s): {', '.join(sorted(unknown))}")
    try:
        cfg = RunConfig(
            subcommand=args.subcommand,
            hyperparameters=Hyperparameters(**hp_kwargs),
            scales=ProposalScales(**scale_kwargs),
            provenance=provenance,
            **merged,
        )
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    inputs = {"fit": ("counts", "covariates", "groups"), "evaluate": ("fit_dir", "truth")}
    for key in inputs.get(cfg.subcommand, ()):
        flag, path = f"--{key.replace('_', '-')}", getattr(cfg, key)
        if path is None:
            raise UsageError(f"{cfg.subcommand} requires {flag}")
        if not Path(path).exists():
            raise UsageError(f"{flag} not found: {path}")
    if not 0 < cfg.fdr < 1:
        raise UsageError(f"--fdr must lie in (0, 1), got {cfg.fdr}")
    for key in ("chains", "iterations", "thin", "threads", "filter_min_count",
                "filter_min_groups"):
        value = getattr(cfg, key)
        if value is not None and value < 1:
            raise UsageError(f"--{key.replace('_', '-')} must be >= 1, got {value}")
    if cfg.burn_in is not None and not 0 <= cfg.burn_in < cfg.iterations:
        raise UsageError(
            f"--burn-in must lie in [0, iterations), got {cfg.burn_in}"
        )
    if not 0 <= cfg.l_css <= 100:
        raise UsageError(f"--l-css must lie in [0, 100], got {cfg.l_css}")
    if cfg.subcommand in ("sim-study",) and cfg.replicates < 1:
        raise UsageError(f"--replicates must be >= 1, got {cfg.replicates}")
    if cfg.subcommand == "sim-study" and cfg.trace_dump:
        raise UsageError("--trace-dump: only fit writes traces, sim-study does not")
    if cfg.subcommand in ("fit", "sim-study") and cfg.threads is None:
        default_max_workers()  # a bad ZINBREG_THREADS fails here, before any work
    if cfg.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg.seed}")
    if cfg.sim_seed < 0:
        raise UsageError(f"--sim-seed must be >= 0, got {cfg.sim_seed}")
    if not -1 <= cfg.convergence_floor <= 1:
        raise UsageError(
            f"--convergence-floor must lie in [-1, 1], got {cfg.convergence_floor}"
        )
    if cfg.norm not in METHODS:
        raise UsageError(f"--norm must be one of {METHODS}, got {cfg.norm}")


def _config_lines(cfg: RunConfig) -> list[str]:
    lines = [f"subcommand = {cfg.subcommand}"]
    items = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in _NOT_KEYS}
    for key in _HP_KEYS:
        items[key] = getattr(cfg.hyperparameters, key)
    for key in _SCALE_KEYS:
        items[key] = getattr(cfg.scales, key)
    for key in sorted(items):
        source = cfg.provenance.get(key, "default")
        lines.append(f"{key} = {items[key]}  # {source}")
    return lines


def _write_resolved(cfg: RunConfig, out_dir: Path) -> None:
    (out_dir / "run_config.resolved").write_text(
        "\n".join(_config_lines(cfg)) + "\n", encoding="utf-8"
    )


def _chain_seeds(seq: np.random.SeedSequence, n_chains: int) -> list[int]:
    return [int(s) for s in seq.generate_state(n_chains, dtype=np.uint64)]


def _prepare_dataset(cfg: RunConfig, counts, covariates, groups) -> Dataset:
    if groups.n_groups < 2:
        raise DataError(
            f"need at least 2 groups, got {groups.n_groups}: with one group the "
            "discrimination indicators have no likelihood and their PPIs are prior noise"
        )
    if not cfg.no_filter:
        if cfg.filter_min_groups is not None and cfg.filter_min_groups > groups.n_groups:
            raise UsageError(
                f"--filter-min-groups must be at most the {groups.n_groups} groups "
                f"in the data, got {cfg.filter_min_groups}"
            )
        counts = filter_low_abundance(
            counts, groups, cfg.filter_min_count, cfg.filter_min_groups
        )
    return validate_inputs(counts, standardize_covariates(covariates), groups)


def _fit_dataset(cfg: RunConfig, ds: Dataset, chain_seeds: list[int], workers=None):
    sf = estimate(ds.counts, cfg.norm, l_css=cfg.l_css)
    configs = [
        ChainConfig(
            n_iter=cfg.iterations,
            burn_in=cfg.burn_in,
            seed=seed,
            thin=cfg.thin,
            prior_only=cfg.prior_only,
            adapt_scales=cfg.adapt_scales,
            diagnostics=cfg.trace_dump,
        )
        for seed in chain_seeds
    ]
    traces = run_chains_parallel(
        ds, cfg.hyperparameters, cfg.scales, configs,
        size_factors=sf, max_workers=cfg.threads, pool=workers,
    )
    summary = summarize(traces, cfg.fdr)
    return sf, traces, summary


def _dump_traces(out_dir: Path, traces) -> None:
    for idx, trace in enumerate(traces):
        if trace.diagnostics is None:
            continue
        path = out_dir / f"trace_chain{idx}.csv"
        diag = trace.diagnostics
        zio.write_table(
            path, ["iteration", "log_posterior", "sum_gamma"],
            ([i, format(lp, ".10g"), s] for i, lp, s in zip(
                diag["iteration"].tolist(), diag["log_posterior"].tolist(),
                diag["sum_gamma"].tolist())),
        )
        with open(path, "a", newline="", encoding="utf-8") as fh:
            for move in sorted(trace.proposal_counts):
                fh.write(
                    f"# accept {move} = {trace.accept_counts[move]}"
                    f"/{trace.proposal_counts[move]}\n"
                )


def fit_command(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = zio.read_counts(cfg.counts)
    covariates, cov_samples = zio.read_covariates(cfg.covariates)
    groups, grp_samples = zio.read_groups(cfg.groups)
    covariates, groups = zio.align_to_counts(
        counts, covariates, cov_samples, groups, grp_samples
    )
    ds = _prepare_dataset(cfg, counts, covariates, groups)
    chain_seeds = _chain_seeds(np.random.SeedSequence(cfg.seed), cfg.chains)
    sf, traces, summary = _fit_dataset(cfg, ds, chain_seeds)

    zio.write_ppi_gamma(out_dir / "ppi_gamma.csv", ds.counts.feature_ids, summary)
    zio.write_ppi_delta(
        out_dir / "ppi_delta.csv", ds.counts.feature_ids,
        ds.covariates.covariate_ids, summary,
    )
    zio.write_posterior_summary(
        out_dir / "posterior_summary.csv", ds.counts.feature_ids, summary
    )
    zio.write_size_factors(out_dir / "size_factors.csv", ds.counts.sample_ids, sf)
    report = chain_concordance(traces, cfg.convergence_floor) if len(traces) >= 2 else None
    converged = report is None or report.converged
    zio.write_convergence(out_dir / "convergence.csv", report)
    if cfg.trace_dump:
        _dump_traces(out_dir, traces)
    _write_resolved(cfg, out_dir)
    if not converged:
        print(
            f"warning: pairwise PPI correlations below the {cfg.convergence_floor} "
            f"floor; outputs written, see convergence.csv",
            file=sys.stderr,
        )
        return 3
    return 0


def simulate_command(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim_cfg = _sim_config(cfg, cfg.sim_seed)
    pool = _load_pool(cfg)
    counts, covariates, groups, truth = generate(sim_cfg, pool)
    zio.write_counts(out_dir / "counts.csv", counts)
    zio.write_covariates(out_dir / "covariates.csv", covariates, counts.sample_ids)
    zio.write_groups(out_dir / "groups.csv", groups, counts.sample_ids)
    zio.write_truth(
        out_dir / "truth.csv", counts.feature_ids, covariates.covariate_ids, truth
    )
    _write_resolved(cfg, out_dir)
    return 0


def _sim_config(cfg: RunConfig, seed: int) -> SimConfig:
    try:
        return SimConfig(
            n=cfg.n, p=cfg.p, n_disc=cfg.n_disc, sigma_e=cfg.sigma_e, pi0=cfg.pi0,
            n_covariates=cfg.n_covariates, m_active=cfg.m_active,
            total_min=cfg.total_min, total_max=cfg.total_max, seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_pool(cfg: RunConfig):
    if cfg.pool_covariates is None:
        return None
    if cfg.pool_groups is None:
        raise UsageError("--pool-covariates requires --pool-groups")
    pool_cov, pool_samples = zio.read_covariates(cfg.pool_covariates)
    pool_grp, grp_samples = zio.read_groups(cfg.pool_groups)
    if pool_samples != grp_samples:
        order = {sid: i for i, sid in enumerate(grp_samples)}
        try:
            idx = [order[sid] for sid in pool_samples]
        except KeyError as exc:
            raise UsageError(f"pool sample {exc.args[0]!r} missing group label") from exc
        pool_grp = GroupAssignment(
            pool_grp.labels[idx], pool_grp.n_groups, pool_grp.reference_group
        )
    return pool_cov, pool_grp


_SCORE_FIELDS = (
    "auc_gamma", "auc_delta", "mcc", "sensitivity", "specificity",
    "fdr_empirical", "fpr_delta", "tp", "tn", "fp", "fn",
)


def _score_row(report: ScoreReport) -> list[str]:
    row = []
    for name in _SCORE_FIELDS:
        value = getattr(report, name)
        row.append(str(value) if isinstance(value, int) else format(value, ".10g"))
    return row


def evaluate_command(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit_dir = Path(cfg.fit_dir)
    gamma = zio.read_ppi_gamma(fit_dir / "ppi_gamma.csv")
    delta = zio.read_ppi_delta(fit_dir / "ppi_delta.csv")[:4]
    t_feat, t_cov, gamma_true, mu2_true, beta_true = zio.read_truth(cfg.truth)

    summary = _truth_grid(t_feat, t_cov, gamma, delta)
    truth = SimTruth(
        gamma_true=gamma_true,
        delta_true=(beta_true != 0).astype(np.int8),
        mu0_true=np.zeros(len(t_feat)),
        mu2_true=mu2_true,
        beta_true=beta_true,
        structural_zero_mask=np.zeros((2, len(t_feat)), dtype=np.int8),
    )
    report = score_run(summary, truth)
    zio.write_table(
        out_dir / "score_report.csv", list(_SCORE_FIELDS), [_score_row(report)]
    )
    _write_resolved(cfg, out_dir)
    return 0


def _truth_grid(t_feat, t_cov, gamma, delta) -> PosteriorSummary:
    """A fit's PPIs and selections on the truth's grid of features
    ``t_feat`` and covariates ``t_cov``, for ``evaluate`` and ``sim-study``
    alike. ``gamma`` is (feature ids, PPIs, selections) and ``delta``
    (feature ids, covariate ids, PPIs, selections) with (covariates,
    features) matrices, as ``io.read_ppi_gamma`` and ``io.read_ppi_delta``
    return them. Cells the fit lacks, such as features dropped before
    fitting, score as never selected (PPI 0). Only the PPIs and selections
    are scored, so the means and intervals are zeros."""
    g_feat, g_ppi, g_sel = gamma
    d_feat, d_cov, d_ppi, d_sel = delta
    unknown = set(g_feat).union(d_feat) - set(t_feat)
    if unknown:
        raise DataError(f"fit feature {sorted(unknown)[0]!r} absent from truth table")
    if set(d_cov) - set(t_cov):
        raise DataError("fit covariates absent from truth table")
    p, big_r = len(t_feat), len(t_cov)
    fpos = {f: j for j, f in enumerate(t_feat)}
    cpos = {c: r for r, c in enumerate(t_cov)}
    g_cells = [fpos[f] for f in g_feat]
    d_cells = np.ix_([cpos[c] for c in d_cov], [fpos[f] for f in d_feat])
    ppi_gamma, sel_gamma = np.zeros(p), np.zeros(p, dtype=bool)
    ppi_gamma[g_cells], sel_gamma[g_cells] = g_ppi, g_sel
    ppi_delta, sel_delta = np.zeros((big_r, p)), np.zeros((big_r, p), dtype=bool)
    ppi_delta[d_cells], sel_delta[d_cells] = d_ppi, d_sel
    zeros_p, zeros_kp = np.zeros(p), np.zeros((2, p))
    return PosteriorSummary(
        ppi_gamma=ppi_gamma, ppi_delta=ppi_delta,
        selected_gamma=sel_gamma, selected_delta=sel_delta,
        mu0_mean=zeros_p, mu_mean=zeros_kp, mu_lower=zeros_kp, mu_upper=zeros_kp,
        beta_mean=np.zeros((big_r, p)), phi_mean=zeros_p,
    )


def sim_study_command(cfg: RunConfig) -> int:
    _sim_config(cfg, cfg.sim_seed)  # a bad setting is a usage error, not a failed replicate
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = _load_pool(cfg)
    seed_children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)

    rows = []
    reports = []
    # one set of worker processes runs every replicate's chains
    with chain_pool(cfg.chains, cfg.threads) as workers:
        for rep in range(cfg.replicates):
            sim_seed = cfg.sim_seed + rep
            try:
                counts, covariates, groups, truth = generate(_sim_config(cfg, sim_seed), pool)
                ds = _prepare_dataset(cfg, counts, covariates, groups)
                chain_seeds = _chain_seeds(seed_children[rep], cfg.chains)
                _, traces, summary = _fit_dataset(cfg, ds, chain_seeds, workers)
                kept = ds.counts.feature_ids
                full_summary = _truth_grid(
                    counts.feature_ids, covariates.covariate_ids,
                    (kept, summary.ppi_gamma, summary.selected_gamma),
                    (kept, ds.covariates.covariate_ids,
                     summary.ppi_delta, summary.selected_delta),
                )
                report = score_run(full_summary, truth)
                reports.append(report)
                rows.append([str(rep), str(sim_seed), *_score_row(report), "ok"])
                _write_roc_files(out_dir, rep, full_summary, truth)
            except UsageError:
                raise  # a bad setting fails every replicate alike: exit 1, not failed rows
            except ZinbregError as exc:
                rows.append(
                    [str(rep), str(sim_seed)]
                    + ["nan"] * len(_SCORE_FIELDS)
                    + [f"failed: {exc}"]
                )
    zio.write_table(
        out_dir / "replicate_scores.csv",
        ["replicate", "sim_seed", *_SCORE_FIELDS, "status"],
        rows,
    )
    _write_aggregate(out_dir / "aggregate.csv", reports)
    _write_resolved(cfg, out_dir)
    return 0


def _write_roc_files(out_dir: Path, rep: int, summary: PosteriorSummary, truth: SimTruth) -> None:
    pairs = [("gamma", summary.ppi_gamma, truth.gamma_true)]
    if truth.delta_true.size:
        pairs.append(("delta", summary.ppi_delta.ravel(), truth.delta_true.ravel()))
    for name, scores, labels in pairs:
        if len(np.unique(np.asarray(labels).astype(bool))) < 2:
            continue
        fpr, tpr = roc_points(scores, labels)
        zio.write_table(
            out_dir / f"roc_{name}_rep{rep}.csv",
            ["fpr", "tpr"],
            ([format(a, ".10g"), format(b, ".10g")] for a, b in zip(fpr, tpr)),
        )


def _write_aggregate(path: Path, reports: list[ScoreReport]) -> None:
    rows = []
    for name in _SCORE_FIELDS:
        values = np.array(
            [getattr(r, name) for r in reports], dtype=np.float64
        )
        values = values[np.isfinite(values)]
        if values.size:
            mean = format(values.mean(), ".10g")
            sd = format(values.std(ddof=1) if values.size > 1 else 0.0, ".10g")
            count = str(values.size)
        else:
            mean, sd, count = "nan", "nan", "0"
        rows.append([name, mean, sd, count])
    zio.write_table(path, ["metric", "mean", "sd", "n"], rows)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        if cfg.subcommand == "fit":
            return fit_command(cfg)
        if cfg.subcommand == "simulate":
            return simulate_command(cfg)
        if cfg.subcommand == "evaluate":
            return evaluate_command(cfg)
        if cfg.subcommand == "sim-study":
            return sim_study_command(cfg)
        raise UsageError(f"unknown subcommand {cfg.subcommand!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ZinbregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
