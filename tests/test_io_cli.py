from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import small_dataset
from zinbreg import io as zio
from zinbreg.cli import _KEY_TYPES, _truth_grid, main, parse_config
from zinbreg.data import (
    CountMatrix,
    CovariateMatrix,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
)
from zinbreg.errors import (
    DataError,
    NonIntegerCount,
    ParseError,
    UnalignedSampleIds,
    UsageError,
)
from zinbreg.inference import PosteriorSummary, summarize
from zinbreg.sampler import ChainConfig, run_chains_parallel
from zinbreg.simulate import SimConfig, generate


@pytest.fixture
def tiny_files(tmp_path):
    cfg = SimConfig(n=12, p=10, n_disc=3, n_covariates=2, m_active=1,
                    total_min=20_000, total_max=40_000, pi0=0.3, seed=3)
    counts, covs, groups, truth = generate(cfg)
    zio.write_counts(tmp_path / "counts.csv", counts)
    zio.write_covariates(tmp_path / "covariates.csv", covs, counts.sample_ids)
    zio.write_groups(tmp_path / "groups.csv", groups, counts.sample_ids)
    zio.write_truth(tmp_path / "truth.csv", counts.feature_ids, covs.covariate_ids, truth)
    return tmp_path, counts, covs, groups, truth


def test_counts_round_trip(tiny_files):
    tmp, counts, *_ = tiny_files
    back = zio.read_counts(tmp / "counts.csv")
    np.testing.assert_array_equal(back.counts, counts.counts)
    assert back.sample_ids == counts.sample_ids
    assert back.feature_ids == counts.feature_ids


def test_covariates_round_trip(tiny_files):
    tmp, counts, covs, *_ = tiny_files
    back, ids = zio.read_covariates(tmp / "covariates.csv")
    np.testing.assert_allclose(back.values, covs.values, rtol=1e-9)
    assert ids == counts.sample_ids


def test_truth_round_trip(tiny_files):
    tmp, counts, covs, groups, truth = tiny_files
    fids, cids, gamma, mu2, beta = zio.read_truth(tmp / "truth.csv")
    assert fids == counts.feature_ids
    assert cids == covs.covariate_ids
    np.testing.assert_array_equal(gamma, truth.gamma_true)
    np.testing.assert_allclose(beta, truth.beta_true, rtol=1e-9)


def test_tsv_round_trip(tmp_path):
    counts = CountMatrix([[1, 2], [3, 0]], ("a", "b"), ("f1", "f2"))
    zio.write_counts(tmp_path / "c.tsv", counts)
    text = (tmp_path / "c.tsv").read_text()
    assert "\t" in text and "," not in text
    back = zio.read_counts(tmp_path / "c.tsv")
    np.testing.assert_array_equal(back.counts, counts.counts)


def test_non_integer_count_located(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,f1\ns1,3.5\ns2,1\n")
    with pytest.raises(NonIntegerCount, match="2:2"):
        zio.read_counts(tmp_path / "bad.csv")


def test_unparseable_count_is_parse_error(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,f1\ns1,xyz\ns2,1\n")
    with pytest.raises(ParseError):
        zio.read_counts(tmp_path / "bad.csv")


def test_non_ascii_digit_cells(tmp_path):
    # a Unicode decimal digit is an integer, as for int(); a superscript
    # digit is a digit to str.isdigit but not to int()
    (tmp_path / "c.csv").write_text("sample_id,f1,f2\ns1,٣,1\ns2,1,2\n", encoding="utf-8")
    assert zio.read_counts(tmp_path / "c.csv").counts[0, 0] == 3
    (tmp_path / "bad.csv").write_text("sample_id,f1,f2\ns1,1,2\ns2,1,²\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        zio.read_counts(tmp_path / "bad.csv")
    assert (err.value.line, err.value.column) == (3, 3)


def test_first_bad_count_is_reported(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,f1,f2,f3\ns1,1,2,3\ns2,4,x,2.5\n")
    with pytest.raises(ParseError, match="bad.csv:3:3: unparseable count 'x'"):
        zio.read_counts(tmp_path / "bad.csv")


@pytest.mark.parametrize("text", ["99999999999999999999", str(2**53 + 1)],
                         ids=["beyond-int64", "beyond-2**53"])
def test_count_too_large_is_data_error(tiny_files, tmp_path, capsys, text):
    src, *_ = tiny_files
    lines = (src / "counts.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[3] = text
    lines[2] = ",".join(row)
    (src / "counts.csv").write_text("\n".join(lines) + "\n")
    assert main(_fit_args(src, tmp_path / "fit")) == 2
    assert f"counts.csv:3:4: count '{text}' exceeds 2**53" in capsys.readouterr().err


def test_count_of_2_pow_53_is_read_exactly(tmp_path):
    (tmp_path / "c.csv").write_text(f"sample_id,f1\ns1,{2**53}\ns2,1\n")
    assert zio.read_counts(tmp_path / "c.csv").counts[0, 0] == 2**53


def test_ragged_row_is_parse_error(tmp_path):
    (tmp_path / "bad.csv").write_text("sample_id,f1,f2\ns1,1\n")
    with pytest.raises(ParseError):
        zio.read_counts(tmp_path / "bad.csv")


def test_alignment_reorders_rows(tiny_files):
    tmp, counts, covs, groups, _ = tiny_files
    perm = np.random.default_rng(0).permutation(counts.n)
    shuffled_ids = tuple(counts.sample_ids[i] for i in perm)
    cov_s = CovariateMatrix(covs.values[perm], covs.covariate_ids)
    grp_s = GroupAssignment(groups.labels[perm], groups.n_groups)
    cov_a, grp_a = zio.align_to_counts(counts, cov_s, shuffled_ids, grp_s, shuffled_ids)
    np.testing.assert_allclose(cov_a.values, covs.values)
    np.testing.assert_array_equal(grp_a.labels, groups.labels)


def test_alignment_missing_sample_named(tiny_files):
    tmp, counts, covs, groups, _ = tiny_files
    with pytest.raises(UnalignedSampleIds, match="sample_1"):
        zio.align_to_counts(
            counts, covs, tuple(f"x{i}" for i in range(counts.n)),
            groups, counts.sample_ids,
        )


def test_parse_config_requires_inputs():
    with pytest.raises(UsageError):
        parse_config(["fit"])


def test_parse_config_defaults_and_precedence(tmp_path, tiny_files):
    src, *_ = tiny_files
    conf = tmp_path / "run.conf"
    conf.write_text("fdr = 0.1\nchains = 3\nnorm = gmpr\n")
    cfg = parse_config([
        "fit",
        "--counts", str(src / "counts.csv"),
        "--covariates", str(src / "covariates.csv"),
        "--groups", str(src / "groups.csv"),
        "--config", str(conf),
        "--fdr", "0.2",
    ])
    assert cfg.fdr == 0.2            # flag beats file
    assert cfg.chains == 3           # file beats default
    assert cfg.norm == "gmpr"
    assert cfg.iterations == 20000   # default
    assert cfg.provenance["fdr"] == "flag"
    assert cfg.provenance["chains"] == "file"


def test_parse_config_rejects_unknown_file_key(tmp_path, tiny_files):
    src, *_ = tiny_files
    conf = tmp_path / "run.conf"
    conf.write_text("no_such_option = 1\n")
    with pytest.raises(UsageError, match="no_such_option"):
        parse_config([
            "fit",
            "--counts", str(src / "counts.csv"),
            "--covariates", str(src / "covariates.csv"),
            "--groups", str(src / "groups.csv"),
            "--config", str(conf),
        ])


def test_every_config_key_is_read_from_a_file_as_its_type(tmp_path, tiny_files):
    src, *_ = tiny_files
    # the optional fields and the two bundles' fields are config keys too
    for key in ("burn_in", "threads", "filter_min_groups"):
        assert _KEY_TYPES[key] is int
    for f in (*fields(Hyperparameters), *fields(ProposalScales)):
        assert _KEY_TYPES[f.name] is float
    sample = {bool: ("yes", True), int: ("3", 3), float: ("0.5", 0.5), str: ("x", "x")}
    special = {  # keys whose value fit validates
        "norm": "rle", "burn_in": "1",
        **{key: str(src / f"{key}.csv") for key in ("counts", "covariates", "groups")},
    }
    raw = {key: special.get(key, sample[kind][0]) for key, kind in _KEY_TYPES.items()}
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
    cfg = parse_config(["fit", "--config", str(conf)])
    for key, kind in _KEY_TYPES.items():
        holder = next(h for h in (cfg, cfg.hyperparameters, cfg.scales) if hasattr(h, key))
        value = getattr(holder, key)
        want = raw[key] if key in special else sample[kind][1]
        assert type(value) is kind and value == kind(want), key
        assert cfg.provenance[key] == "file", key


@pytest.mark.parametrize("key", ["subcommand", "provenance", "hyperparameters", "scales"])
def test_non_key_fields_in_a_config_file_are_usage_errors(tmp_path, tiny_files, capsys, key):
    src, *_ = tiny_files
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = fit\n")
    assert main(_fit_args(src, tmp_path / "out", extra=("--config", str(conf)))) == 1
    assert f"unknown config key: {key}" in capsys.readouterr().err


def test_truth_grid_places_the_ppis_and_selections_and_zeros_the_rest():
    ds = small_dataset(seed=8)
    configs = [ChainConfig(n_iter=40, burn_in=20, seed=s) for s in (1, 2)]
    summary = summarize(run_chains_parallel(ds, Hyperparameters(), ProposalScales(),
                                            configs, max_workers=1))
    p_full = ds.p + 4
    kept = np.sort(np.random.default_rng(0).choice(p_full, ds.p, replace=False))
    t_feat = tuple(f"t{j}" for j in range(p_full))
    fit_feat = tuple(t_feat[j] for j in kept)
    fit_cov = ds.covariates.covariate_ids
    t_cov = (*reversed(fit_cov), "c_unfitted")  # another order, one covariate more
    full = _truth_grid(
        t_feat, t_cov, (fit_feat, summary.ppi_gamma, summary.selected_gamma),
        (fit_feat, fit_cov, summary.ppi_delta, summary.selected_delta),
    )
    rows = [t_cov.index(c) for c in fit_cov]
    for name in ("ppi_gamma", "selected_gamma", "ppi_delta", "selected_delta"):
        value, placed = getattr(summary, name), getattr(full, name)
        cells = np.ix_(rows, kept) if value.ndim == 2 else kept
        assert placed.shape == (len(t_cov), p_full)[2 - value.ndim:], name
        np.testing.assert_array_equal(placed[cells], value, err_msg=name)
        rest = np.ones(placed.shape, dtype=bool)
        rest[cells] = False
        assert not placed[rest].any(), name
    for f in fields(PosteriorSummary):
        if not f.name.startswith(("ppi_", "selected_")):
            assert not getattr(full, f.name).any(), f.name


def test_truth_grid_rejects_a_feature_or_covariate_the_truth_lacks():
    no_gamma = ((), np.zeros(0), np.zeros(0, dtype=bool))
    no_delta = ((), (), np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))
    one = (np.ones((1, 1)), np.ones((1, 1), dtype=bool))
    for gamma, delta, message in (
        ((("f9",), np.ones(1), np.ones(1, dtype=bool)), no_delta, "fit feature 'f9' absent"),
        (no_gamma, (("f9",), ("c0",), *one), "fit feature 'f9' absent"),
        (no_gamma, (("f0",), ("c9",), *one), "fit covariates absent"),
    ):
        with pytest.raises(DataError, match=message):
            _truth_grid(("f0",), ("c0",), gamma, delta)


def test_main_usage_error_exit_code():
    assert main(["fit"]) == 1
    assert main(["fit", "--counts", "/nonexistent.csv",
                 "--covariates", "/no.csv", "--groups", "/no.csv"]) == 1


def _fit_args(src, out, extra=()):
    return [
        "fit",
        "--counts", str(src / "counts.csv"),
        "--covariates", str(src / "covariates.csv"),
        "--groups", str(src / "groups.csv"),
        "--out", str(out),
        "--chains", "2",
        "--iterations", "150",
        "--seed", "42",
        "--no-filter",
        *extra,
    ]


FIT_OUTPUTS = (
    "ppi_gamma.csv", "ppi_delta.csv", "posterior_summary.csv",
    "convergence.csv", "size_factors.csv", "run_config.resolved",
)


def test_fit_smoke_writes_all_outputs(tiny_files, tmp_path):
    src, counts, *_ = tiny_files
    out = tmp_path / "fit_out"
    code = main(_fit_args(src, out))
    assert code in (0, 3)
    for name in FIT_OUTPUTS:
        assert (out / name).exists(), name
    ids, ppi, sel = zio.read_ppi_gamma(out / "ppi_gamma.csv")
    assert ids == counts.feature_ids
    assert np.all((ppi >= 0) & (ppi <= 1))


def test_fit_without_covariates(tiny_files, tmp_path):
    # a covariates file with the sample ids alone: R = 0
    src, counts, *_ = tiny_files
    work = tmp_path / "no_covariates"
    work.mkdir()
    for name in ("counts.csv", "groups.csv"):
        (work / name).write_bytes((src / name).read_bytes())
    (work / "covariates.csv").write_text(
        "sample_id\n" + "".join(f"{sid}\n" for sid in counts.sample_ids)
    )
    out = tmp_path / "fit_out"
    assert main(_fit_args(work, out)) in (0, 3)
    for name in FIT_OUTPUTS:
        assert (out / name).exists(), name
    assert (out / "ppi_delta.csv").read_text().splitlines() == [
        "feature_id,covariate_id,ppi,selected,beta_mean"
    ]
    ids, ppi, _ = zio.read_ppi_gamma(out / "ppi_gamma.csv")
    assert ids == counts.feature_ids
    assert np.all((ppi >= 0) & (ppi <= 1))


def test_fit_data_error_exit_code(tmp_path, tiny_files):
    src, *_ = tiny_files
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,f1\ns1,2.5\ns2,1\n")
    code = main([
        "fit", "--counts", str(bad),
        "--covariates", str(src / "covariates.csv"),
        "--groups", str(src / "groups.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_fit_prior_only_gamma_ppi_near_prior_mean(tiny_files, tmp_path):
    src, *_ = tiny_files
    out = tmp_path / "prior_out"
    # 16,000 sweeps put the 0.05 band at about 3.4 s.d. of the mean over seeds
    code = main(_fit_args(src, out, extra=("--prior-only", "--iterations", "16000")))
    assert code in (0, 3)
    _, ppi, _ = zio.read_ppi_gamma(out / "ppi_gamma.csv")
    assert abs(ppi.mean() - 0.1) < 0.05


def test_fit_byte_identical_reruns(tiny_files, tmp_path, monkeypatch):
    src, *_ = tiny_files
    for d in ("run1", "run2"):
        work = tmp_path / d
        work.mkdir()
        for name in ("counts.csv", "covariates.csv", "groups.csv"):
            (work / name).write_bytes((src / name).read_bytes())
        monkeypatch.chdir(work)
        assert main(_fit_args(Path("."), Path("res"))) in (0, 3)
    for name in FIT_OUTPUTS:
        a = (tmp_path / "run1" / "res" / name).read_bytes()
        b = (tmp_path / "run2" / "res" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_simulate_then_fit_then_evaluate(tmp_path):
    sim_out = tmp_path / "sim"
    assert main([
        "simulate", "--n", "12", "--p", "10", "--n-disc", "3",
        "--n-covariates", "2", "--m-active", "1",
        "--total-min", "20000", "--total-max", "40000",
        "--pi0", "0.3", "--sim-seed", "3", "--out", str(sim_out),
    ]) == 0
    fit_out = tmp_path / "fit"
    assert main(_fit_args(sim_out, fit_out)) in (0, 3)
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--fit-dir", str(fit_out),
        "--truth", str(sim_out / "truth.csv"), "--out", str(eval_out),
    ]) == 0
    text = (eval_out / "score_report.csv").read_text().splitlines()
    assert text[0].startswith("auc_gamma,")
    assert len(text) == 2


_EVAL_TABLES = {
    "ppi_gamma.csv": ["feature_id,ppi,selected", "f0,0.5,1", "f1,0.1,0"],
    "ppi_delta.csv": [
        "feature_id,covariate_id,ppi,selected,beta_mean",
        "f0,c0,0.5,1,0.3", "f1,c0,0.1,0,0",
    ],
    "truth.csv": ["feature_id,gamma_true,mu2_true,beta_true_c0", "f0,1,0.5,0.3", "f1,0,0,0"],
}


# every cell of each table, and its 0/1 label cells
_EVAL_CELLS = [
    ("ppi_gamma.csv", 2, 2), ("ppi_gamma.csv", 3, 3),
    ("ppi_delta.csv", 2, 3), ("ppi_delta.csv", 3, 4), ("ppi_delta.csv", 2, 5),
    ("truth.csv", 3, 2), ("truth.csv", 2, 3), ("truth.csv", 3, 4),
]
_LABEL_CELLS = [("ppi_gamma.csv", 3, 3), ("ppi_delta.csv", 3, 4), ("truth.csv", 3, 2)]


@pytest.mark.parametrize("name, line, column, value", [
    *(pytest.param(*cell, "x", id="{}-{}-{}".format(*cell)) for cell in _EVAL_CELLS),
    *(pytest.param(*cell, value, id="{}-{}-{}-{}".format(*cell, value))
      for cell in _LABEL_CELLS for value in ("300", "2", "-1")),
])
def test_evaluate_names_an_unparseable_cell(tmp_path, capsys, name, line, column, value):
    for table, rows in _EVAL_TABLES.items():
        if table == name:
            cells = rows[line - 1].split(",")
            cells[column - 1] = value
            rows = [*rows[: line - 1], ",".join(cells), *rows[line:]]
        (tmp_path / table).write_text("\n".join(rows) + "\n")
    code = main([
        "evaluate", "--fit-dir", str(tmp_path), "--truth", str(tmp_path / "truth.csv"),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    if value == "x":
        assert f"{name}:{line}:{column}: unparseable" in err
    else:
        assert f"{name}:{line}:{column}: " in err and f"'{value}' is not 0 or 1" in err


def test_sim_study_smoke(tmp_path):
    out = tmp_path / "study"
    code = main([
        "sim-study", "--replicates", "1", "--n", "12", "--p", "10",
        "--n-disc", "3", "--n-covariates", "2", "--m-active", "1",
        "--total-min", "20000", "--total-max", "40000", "--pi0", "0.3",
        "--chains", "2", "--iterations", "150", "--seed", "5",
        "--sim-seed", "7", "--out", str(out), "--no-filter",
    ])
    assert code == 0
    scores = (out / "replicate_scores.csv").read_text().splitlines()
    assert len(scores) == 2
    assert (out / "aggregate.csv").exists()
    assert (out / "roc_gamma_rep0.csv").exists()
    assert (out / "roc_delta_rep0.csv").exists()


def test_sim_study_shared_pool_matches_one_process(tmp_path):
    # every replicate's chains run on one pool of two workers, or in this
    # process: the outputs are the same bytes
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"study{threads}"
        assert main([
            "sim-study", "--replicates", "2", "--n", "12", "--p", "10",
            "--n-disc", "3", "--n-covariates", "2", "--m-active", "1",
            "--total-min", "20000", "--total-max", "40000", "--pi0", "0.3",
            "--chains", "2", "--iterations", "60", "--seed", "5",
            "--sim-seed", "7", "--out", str(out), "--no-filter",
            "--threads", threads,
        ]) == 0
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir() if f.name != "run_config.resolved")
    assert "roc_gamma_rep1.csv" in names
    assert names == sorted(f.name for f in outs[1].iterdir() if f.name != "run_config.resolved")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_trace_dump_written(tiny_files, tmp_path):
    src, *_ = tiny_files
    out = tmp_path / "dump"
    assert main(_fit_args(src, out, extra=("--trace-dump",))) in (0, 3)
    dump = (out / "trace_chain0.csv").read_text().splitlines()
    assert dump[0] == "iteration,log_posterior,sum_gamma"
    assert len([l for l in dump if not l.startswith("#")]) == 151
    assert any(l.startswith("# accept") for l in dump)


def test_fit_convergence_warning_exit_code(tiny_files, tmp_path):
    src, *_ = tiny_files
    out = tmp_path / "conv"
    code = main(_fit_args(src, out, extra=(
        "--iterations", "100", "--convergence-floor", "0.9999",
    )))
    assert code == 3
    # outputs are still written on the warning path
    for name in FIT_OUTPUTS:
        assert (out / name).exists(), name


def test_fit_numerical_failure_exit_code(tiny_files, tmp_path, monkeypatch):
    import zinbreg.cli as cli_mod
    from zinbreg.errors import NumericalFailure

    def explode(*args, **kwargs):
        raise NumericalFailure(17)

    monkeypatch.setattr(cli_mod, "run_chains_parallel", explode)
    src, *_ = tiny_files
    code = main(_fit_args(src, tmp_path / "numfail"))
    assert code == 4


def test_sim_study_refuses_trace_dump_flag(tmp_path, capsys):
    code = main(["sim-study", "--replicates", "1", "--trace-dump",
                 "--out", str(tmp_path / "study")])
    assert code == 1
    assert "only fit writes traces" in capsys.readouterr().err
    assert not (tmp_path / "study").exists()


def test_sim_study_refuses_trace_dump_config_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("trace_dump = true\n")
    code = main(["sim-study", "--config", str(conf), "--out", str(tmp_path / "study")])
    assert code == 1
    assert "only fit writes traces" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_threads_env_is_usage_error(tiny_files, tmp_path, monkeypatch, capsys, value):
    src, *_ = tiny_files
    monkeypatch.setenv("ZINBREG_THREADS", value)
    assert main(_fit_args(src, tmp_path / "fit")) == 1
    assert "ZINBREG_THREADS" in capsys.readouterr().err
    study = ["sim-study", "--replicates", "1", "--out", str(tmp_path / "study")]
    assert main(study) == 1


def test_default_max_workers_follows_env_then_affinity(monkeypatch):
    import os

    from zinbreg import sampler

    monkeypatch.setenv("ZINBREG_THREADS", "3")
    assert sampler.default_max_workers() == 3
    monkeypatch.delenv("ZINBREG_THREADS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sampler.default_max_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sampler.default_max_workers() == 8


def test_cli_import_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys

    import zinbreg

    env = dict(os.environ, PYTHONPATH=str(Path(zinbreg.__file__).parents[1]))
    code = "import sys, zinbreg.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_no_scipy_module_is_loaded_by_import_or_fit(tiny_files, tmp_path):
    import os
    import subprocess
    import sys

    import zinbreg

    src, *_ = tiny_files
    env = dict(os.environ, PYTHONPATH=str(Path(zinbreg.__file__).parents[1]))
    # one worker, so the chains run in this process and a lazy import shows
    args = _fit_args(src, tmp_path / "fit", ["--iterations", "20", "--threads", "1"])
    code = f"""
import sys
import zinbreg, zinbreg.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(scipy_modules())
code = zinbreg.cli.main({args!r})
print(code, scipy_modules())
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    after_import, after_fit = out.stdout.splitlines()
    assert after_import == "[]"
    assert after_fit.split(" ", 1)[1] == "[]"
    assert (tmp_path / "fit" / "ppi_gamma.csv").exists()


def test_sim_study_bad_sim_config_is_usage_error(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(["sim-study", "--replicates", "2", "--n", "13", "--p", "20",
                 "--out", str(out)])
    assert code == 1
    assert "n must be even" in capsys.readouterr().err
    assert not (out / "replicate_scores.csv").exists()


def test_fit_refuses_a_single_group(tiny_files, tmp_path, capsys):
    src, counts, *_ = tiny_files
    one = tmp_path / "one_group"
    one.mkdir()
    for name in ("counts.csv", "covariates.csv"):
        (one / name).write_bytes((src / name).read_bytes())
    (one / "groups.csv").write_text(
        "sample_id,group\n" + "".join(f"{sid},1\n" for sid in counts.sample_ids)
    )
    out = tmp_path / "fit"
    assert main(_fit_args(one, out)) == 2
    assert "at least 2 groups" in capsys.readouterr().err
    assert not (out / "ppi_gamma.csv").exists()


@pytest.mark.parametrize("extra, message", [
    (("--threads", "0"), "--threads must be >= 1"),
    (("--threads", "-2"), "--threads must be >= 1"),
    (("--convergence-floor", "7"), "--convergence-floor must lie in [-1, 1]"),
    (("--convergence-floor", "-1.5"), "--convergence-floor must lie in [-1, 1]"),
    (("--seed", "-1"), "--seed must be >= 0"),
    (("--filter-min-count", "-1"), "--filter-min-count must be >= 1"),
    (("--filter-min-groups", "0"), "--filter-min-groups must be >= 1"),
])
def test_meaningless_option_values_are_usage_errors(tiny_files, tmp_path, capsys, extra, message):
    src, *_ = tiny_files
    out = tmp_path / "fit"
    assert main([*_fit_args(src, out), *extra]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    study = ["sim-study", "--replicates", "1", "--out", str(tmp_path / "study"), *extra]
    assert main(study) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "study").exists()


def test_negative_sim_seed_is_usage_error(tmp_path, capsys):
    for command in ("simulate", "sim-study"):
        assert main([command, "--sim-seed", "-3", "--out", str(tmp_path / command)]) == 1
        assert "--sim-seed must be >= 0" in capsys.readouterr().err


def test_filter_min_groups_above_group_count_is_usage_error(tiny_files, tmp_path, capsys):
    src, *_ = tiny_files
    args = [a for a in _fit_args(src, tmp_path / "fit") if a != "--no-filter"]
    assert main([*args, "--filter-min-groups", "9"]) == 1
    assert "--filter-min-groups must be at most the 2 groups" in capsys.readouterr().err
    out = tmp_path / "study"
    assert main([
        "sim-study", "--replicates", "2", "--n", "12", "--p", "10", "--n-disc", "3",
        "--n-covariates", "2", "--m-active", "1", "--total-min", "20000",
        "--total-max", "40000", "--chains", "1", "--iterations", "5",
        "--filter-min-groups", "9", "--out", str(out),
    ]) == 1
    assert "--filter-min-groups must be at most the 2 groups" in capsys.readouterr().err
    assert not (out / "replicate_scores.csv").exists()


def _pool_files(directory, group_rows):
    """A covariate pool of 16 samples, s0-s7 in group 1 and s8-s15 in group
    2, and its group file listing the samples ``group_rows`` in that order."""
    directory.mkdir()
    ids = tuple(f"s{i}" for i in range(16))
    pool = CovariateMatrix(np.random.default_rng(21).standard_normal((16, 2)), ("a", "b"))
    zio.write_covariates(directory / "pool.csv", pool, ids)
    zio.write_table(directory / "pool_groups.csv", ["sample_id", "group"],
                    ([ids[i], "1" if i < 8 else "2"] for i in group_rows))
    return ["--pool-covariates", str(directory / "pool.csv"),
            "--pool-groups", str(directory / "pool_groups.csv")]


def _simulate_args(out, *extra):
    return [
        "simulate", "--n", "12", "--p", "10", "--n-disc", "3",
        "--n-covariates", "2", "--m-active", "1",
        "--total-min", "20000", "--total-max", "40000",
        "--sim-seed", "3", "--out", str(out), *extra,
    ]


def test_simulate_realigns_pool_groups_by_sample_id(tmp_path):
    written = []
    for name, rows in (("aligned", range(16)), ("reversed", range(15, -1, -1))):
        pool = _pool_files(tmp_path / name, rows)
        assert main(_simulate_args(tmp_path / name / "sim", *pool)) == 0
        written.append((tmp_path / name / "sim" / "covariates.csv").read_bytes())
    assert written[0] == written[1]
    # each half of the samples drew its rows from its own pool group
    pool, _ = zio.read_covariates(tmp_path / "aligned" / "pool.csv")
    sim, _ = zio.read_covariates(tmp_path / "aligned" / "sim" / "covariates.csv")
    for half, members in ((sim.values[:6], pool.values[:8]), (sim.values[6:], pool.values[8:])):
        assert {tuple(row) for row in half} <= {tuple(row) for row in members}


def test_simulate_pool_sample_without_a_group_label_is_a_usage_error(tmp_path, capsys):
    pool = _pool_files(tmp_path / "pool", range(15))
    assert main(_simulate_args(tmp_path / "sim", *pool)) == 1
    assert "pool sample 's15' missing group label" in capsys.readouterr().err


def test_simulate_pool_covariates_need_pool_groups(tmp_path, capsys):
    pool = _pool_files(tmp_path / "pool", range(16))
    assert main(_simulate_args(tmp_path / "sim", *pool[:2])) == 1
    assert "--pool-covariates requires --pool-groups" in capsys.readouterr().err
