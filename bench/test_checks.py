"""Tests of the benchmark's output checks: each check passes the program's
real output and rejects a doctored copy of it. Short chains on small
inputs keep the whole module to a few seconds.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
from traced import ess, layer_metrics  # noqa: E402

SMALL_FIT = bench.Workload("small-fit", "fit", p=30, chains=2, threads=1, iterations=20,
                           trace_dump=True, n_disc=5, auc_floor=(0.0, 0.0))
SMALL_STUDY = bench.Workload("small-study", "sim-study", p=30, chains=1, threads=1,
                             iterations=10, replicates=2, n_disc=5, auc_floor=(0.0, 0.0))


def _run_cli(w, inputs, out):
    from zinbreg.cli import main

    return main(bench.command_args(w, 1, inputs, out, w.iterations))


@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    work = tmp_path_factory.mktemp("fit")
    inputs = bench.make_inputs(SMALL_FIT, 1, work / "inputs")
    rc = _run_cli(SMALL_FIT, inputs, work / "out")
    assert rc in (0, 3)
    return inputs, work / "out", rc


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study") / "out"
    assert _run_cli(SMALL_STUDY, None, out) == 0
    return out


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "doctored"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _fit_problems(fit, out=None, rc=None):
    inputs, real_out, real_rc = fit
    return bench.check_outputs(SMALL_FIT, inputs, out or real_out,
                               real_rc if rc is None else rc)[0]


def test_real_fit_output_passes(fit):
    assert _fit_problems(fit) == []


@pytest.mark.parametrize("table", ["ppi_gamma.csv", "ppi_delta.csv"])
@pytest.mark.parametrize("row", [1, 2, -1])
def test_flipped_selected_flag_is_rejected(fit, tmp_path, table, row):
    out = _copy(fit[1], tmp_path)
    col = 2 if table == "ppi_gamma.csv" else 3
    n_rows = len((out / table).read_text().splitlines())
    _edit_csv(out / table, row % n_rows, col, lambda v: "0" if v == "1" else "1")
    assert any("ppi_" in p for p in _fit_problems(fit, out))


def test_dropped_trace_row_is_rejected(fit, tmp_path):
    out = _copy(fit[1], tmp_path)
    path = out / "trace_chain1.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    assert any("trace_chain1.csv" in p for p in _fit_problems(fit, out))


def test_altered_trace_counter_is_rejected(fit, tmp_path):
    out = _copy(fit[1], tmp_path)
    path = out / "trace_chain0.csv"
    text = path.read_text()
    line = next(x for x in text.splitlines() if x.startswith("# accept phi = "))
    acc, prop = line.split(" = ")[1].split("/")
    path.write_text(text.replace(line, f"# accept phi = {acc}/{int(prop) + 1}"))
    assert any("phi proposed" in p for p in _fit_problems(fit, out))


def test_shifted_size_factor_is_rejected(fit, tmp_path):
    out = _copy(fit[1], tmp_path)
    _edit_csv(out / "size_factors.csv", 3, 1, lambda v: format(float(v) * 1.01, ".10g"))
    assert any("size factors" in p for p in _fit_problems(fit, out))


def test_exit_code_must_match_convergence_table(fit):
    wrong_rc = 0 if fit[2] == 3 else 3
    assert any("exit code" in p for p in _fit_problems(fit, rc=wrong_rc))


def test_auc_floor_is_enforced(fit):
    inputs, out, rc = fit
    strict = bench.Workload(**{**SMALL_FIT.__dict__, "auc_floor": (1.01, 0.0)})
    assert any("below the floor" in p
               for p in bench.check_outputs(strict, inputs, out, rc)[0])


def test_real_sim_study_output_passes(study):
    assert checks.check_sim_study_dir(study, SMALL_STUDY.replicates, {"gamma": 0, "delta": 0}) == ([], 0)


@pytest.mark.parametrize("col", [2, 3])
def test_perturbed_auc_is_rejected(study, tmp_path, col):
    out = _copy(study, tmp_path)
    _edit_csv(out / "replicate_scores.csv", 2, col, lambda v: format(float(v) - 1e-3, ".10g"))
    problems, failed = checks.check_sim_study_dir(out, SMALL_STUDY.replicates,
                                                  {"gamma": 0, "delta": 0})
    assert failed == 1 and any("differs from the area" in p for p in problems)


def test_failed_replicate_status_is_counted(study, tmp_path):
    out = _copy(study, tmp_path)
    _edit_csv(out / "replicate_scores.csv", 1, -1, lambda v: "failed: numerical failure")
    problems, failed = checks.check_sim_study_dir(out, SMALL_STUDY.replicates,
                                                  {"gamma": 0, "delta": 0})
    assert failed == 1 and problems


def test_digest_sees_one_byte(fit, tmp_path):
    out = _copy(fit[1], tmp_path)
    before = checks.digest(out)
    _edit_csv(out / "posterior_summary.csv", 1, 1, lambda v: v + "1")
    assert checks.digest(out) != before


def test_auc_pairwise_matches_brute_force():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 6, 40) / 5.0  # many ties
    labels = rng.integers(0, 2, 40)
    pos, neg = scores[labels == 1], scores[labels == 0]
    brute = np.mean([1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg])
    assert checks.auc_pairwise(scores, labels) == pytest.approx(brute, abs=1e-12)


def test_fdr_selection_rule():
    ppi = np.array([0.99, 0.97, 0.8, 0.5])
    assert checks.check_fdr_selection("x", ppi, [1, 1, 0, 0], 0.05) == []
    assert checks.check_fdr_selection("x", ppi, [1, 0, 0, 0], 0.05)   # not maximal
    assert checks.check_fdr_selection("x", ppi, [1, 1, 1, 0], 0.05)   # over the target
    assert checks.check_fdr_selection("x", ppi, [1, 0, 1, 0], 0.5)    # not an upper set


def test_ess_of_independent_and_sticky_series():
    rng = np.random.default_rng(1)
    iid = rng.standard_normal(2000)
    sticky = np.repeat(rng.standard_normal(200), 10)
    assert 1500 < ess(iid) < 2500
    assert ess(sticky) < 400


def test_traced_command_reports_every_layer(fit, tmp_path):
    """The traced run of a real fit finds every layer, passes its checks
    and writes the same tables as the plain run."""
    inputs, real_out, _ = fit
    spans, out = tmp_path / "spans.json", tmp_path / "out"
    argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans), "--",
            *bench.command_args(SMALL_FIT, 1, inputs, out, SMALL_FIT.iterations)]
    rc = subprocess.run(argv, env=bench._child_env(), check=False).returncode
    assert rc in (0, 3)
    doc = json.loads(spans.read_text())
    metrics, problems = layer_metrics(doc)
    assert doc["missing"] == [] and problems == []
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared if not m["name"].startswith("trace.")} <= set(metrics)
    assert checks.digest(out) == checks.digest(real_out)


def test_layer_metrics_rejects_bad_counters():
    doc = {"import_s": 1.0, "bytes_written": 1, "missing": [], "spans": [], "facts": [{
        "kind": "chains", "p": 3, "zeros": 2, "covariates": 1, "chains": [{
            "n_iter": 2, "burn_in": 1, "log_posterior": None, "sum_gamma": [1, 1],
            "proposed": {"r": 4, "mu0": 6, "phi": 6, "gamma_add": 3, "gamma_delete": 3,
                         "delta_add": 5, "delta_delete": 0},
            "accepted": {"r": 1, "mu0": 7, "phi": 1, "gamma_add": 1, "gamma_delete": 1,
                         "delta_add": 1, "delta_delete": 0},
        }]}]}
    problems = layer_metrics(doc)[1]
    assert any("delta_add+delta_delete proposed 5" in p for p in problems)
    assert any("mu0 accepted 7 of 6" in p for p in problems)
