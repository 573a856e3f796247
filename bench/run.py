#!/usr/bin/env python3
"""Benchmark of the ``zinbreg`` command line program.

    python3 bench/run.py --workload reference-fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Each run makes its inputs from ``--seed``, times one set-up
command (the workload cut to one sweep per chain), then repeats the
workload's command for ``--seconds`` seconds, checking every output. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``). With ``--trace 1`` each round runs the
command once plainly and once under ``bench/traced.py``, which times the
program's layers from outside; the metrics are the per-layer ones plus
the tracing overhead. ``--workload all`` runs every workload in turn.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so that the workload's own processes are
# the only parallelism (set before numpy is imported).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

FDR = 0.05
CONVERGENCE_FLOOR = 0.95  # the program's default, which the commands keep
N_SAMPLES, N_COVARIATES = 60, 7
# Commands still running this many seconds after a run started are killed,
# so a hung program cannot hold the run past three minutes.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "fit" or "sim-study"
    p: int
    chains: int
    threads: int
    iterations: int
    burn_in: int | None = None
    trace_dump: bool = False
    replicates: int = 1   # sim-study replicates per command
    n_disc: int = 20
    # (gamma, delta) AUC floors, set below the lowest AUC seen over seeds
    # 1-12 (wide-fit: 1-15) at these chain lengths; random PPIs give about 0.5.
    auc_floor: tuple[float, float] = (0.5, 0.5)


# Why these three: see README.md. Sweep counts keep one command at a few
# seconds, so that a run holds several commands and reports their median.
# Every workload runs two chains on two worker processes: on the 2-core
# machine a command that left one core idle timed about twice as unsteady
# as one that kept both busy (README.md, "Run-to-run spread").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-study", "sim-study", p=100, chains=2, threads=2,
                 iterations=80, replicates=3, n_disc=10, auc_floor=(0.8, 0.7)),
        Workload("reference-fit", "fit", p=300, chains=2, threads=2,
                 iterations=60, trace_dump=True, auc_floor=(0.85, 0.85)),
        Workload("wide-fit", "fit", p=1000, chains=2, threads=2,
                 iterations=40, burn_in=4, auc_floor=(0.8, 0.8)),
    )
}


# -- inputs ----------------------------------------------------------------

def make_inputs(w: Workload, seed: int, out: Path) -> dict:
    """Write a counts/covariates/groups CSV triple drawn from a
    zero-inflated negative binomial with planted effects, and return the
    planted truth plus the count matrix.

    Two groups of 30 samples; ``n_disc`` features shift by +-1.5 between
    the groups on the log scale; each feature has 4 of 7 covariates
    active with effects +-U(0.5, 1); per-sample depth varies by a
    log-normal factor; 30% of cells are extra zeros. Covariate and group
    rows are written in shuffled order, so the program must join them on
    sample_id.
    """
    rng = np.random.default_rng([w.p, seed])
    n, p, big_r = N_SAMPLES, w.p, N_COVARIATES
    labels = np.repeat([1, 2], n // 2)
    x = rng.standard_normal((n, big_r))
    mu0 = rng.uniform(1.5, 5.0, p)
    gamma = np.zeros(p, dtype=np.int64)
    gamma[rng.choice(p, w.n_disc, replace=False)] = 1
    shift = gamma * rng.choice([-1.5, 1.5], p)
    beta = np.zeros((big_r, p))
    for j in range(p):
        act = rng.choice(big_r, 4, replace=False)
        beta[act, j] = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 1.0, 4)
    xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    depth = np.exp(rng.normal(0.0, 0.3, n))
    eta = mu0 + (labels == 2)[:, None] * shift + xs @ beta
    lam = depth[:, None] * np.exp(eta)
    phi = 2.0
    y = rng.negative_binomial(phi, phi / (phi + lam))
    y[rng.random((n, p)) < 0.3] = 0

    sids = [f"sample_{i + 1}" for i in range(n)]
    fids = [f"taxon_{j + 1}" for j in range(p)]
    cids = [f"cov_{r + 1}" for r in range(big_r)]
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "counts.csv", ["sample_id", *fids],
           ([sids[i], *map(str, y[i])] for i in range(n)))
    order = rng.permutation(n)
    _write(out / "covariates.csv", ["sample_id", *cids],
           ([sids[i], *(format(v, ".10g") for v in x[i])] for i in order))
    _write(out / "groups.csv", ["sample_id", "group"],
           ([sids[i], str(labels[i])] for i in rng.permutation(n)))
    return {
        "dir": out,
        "counts": y,
        "labels": labels,
        "feature_ids": fids,
        "gamma": dict(zip(fids, gamma.tolist())),
        "delta": {(fids[j], cids[r]): int(beta[r, j] != 0)
                  for j in range(p) for r in range(big_r)},
    }


def _write(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def kept_features(inputs: dict, min_count: int = 2) -> np.ndarray:
    """Mask of the features with at least ``min_count`` nonzero samples in
    every group (the program's default filter, restated)."""
    nonzero = inputs["counts"] > 0
    return np.all(
        [nonzero[inputs["labels"] == g].sum(axis=0) >= min_count for g in (1, 2)], axis=0
    )


# -- commands ----------------------------------------------------------------

def command_args(w: Workload, seed: int, inputs: dict | None, out: Path, sweeps: int) -> list[str]:
    """Arguments of the workload's ``zinbreg`` command cut to ``sweeps``
    sweeps per chain."""
    args = [w.command, "--chains", str(w.chains), "--threads", str(w.threads),
            "--iterations", str(sweeps), "--seed", str(seed), "--fdr", str(FDR),
            "--out", str(out)]
    if w.burn_in is not None and sweeps == w.iterations:
        args += ["--burn-in", str(w.burn_in)]
    if w.trace_dump:
        args.append("--trace-dump")
    if w.command == "fit":
        d = inputs["dir"]
        args += ["--counts", str(d / "counts.csv"), "--covariates", str(d / "covariates.csv"),
                 "--groups", str(d / "groups.csv")]
    else:
        args += ["--replicates", str(w.replicates), "--n", str(N_SAMPLES), "--p", str(w.p),
                 "--n-covariates", str(N_COVARIATES), "--n-disc", str(w.n_disc),
                 "--sim-seed", str(1000 * seed)]
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZINBREG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run ``argv`` in its own process group from the checkout root.
    Returns (exit code, wall seconds, peak RSS in MB of the largest
    process in the tree). The group is killed at ``deadline``."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# -- checks ------------------------------------------------------------------

def check_outputs(w: Workload, inputs: dict | None, out: Path, rc: int) -> tuple[list[str], int]:
    """Check one command's outputs. Returns (problems, operations failed).
    Exit code 3 (convergence floor missed, outputs complete) counts as
    done when ``convergence.csv`` shows a pair below the floor."""
    ops = w.replicates
    if rc not in (0, 3) or (w.command == "sim-study" and rc != 0):
        return [f"exit code {rc}"], ops
    try:
        if w.command == "sim-study":
            problems, failed = checks.check_sim_study_dir(out, w.replicates, _floors(w))
            return problems, min(failed, ops)
        keep = kept_features(inputs)
        kept = [f for f, k in zip(inputs["feature_ids"], keep) if k]
        ids = [r[0] for r in checks.read_csv(out / "ppi_gamma.csv")[1]]
        problems = [] if ids == kept else [
            f"ppi_gamma.csv lists {len(ids)} features, the filter keeps {len(kept)}"
        ]
        zeros = int((inputs["counts"][:, keep] == 0).sum())
        problems += checks.check_fit_dir(
            out, inputs, FDR, _floors(w), w.iterations, zeros,
            w.chains if w.trace_dump else 0,
        )
        below = checks.pairs_below_floor(out, CONVERGENCE_FLOOR)
        if (rc == 3) != (below > 0):
            problems.append(f"exit code {rc} with {below} chain pairs below the floor")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], ops
    return problems, (ops if problems else 0)


def _floors(w: Workload) -> dict:
    return {"gamma": w.auc_floor[0], "delta": w.auc_floor[1]}


# -- one run -------------------------------------------------------------------

class Run:
    """Counts operations and collects problems and output digests.

    A problem found in a command's outputs fails that command's
    operations; ``correct`` speaks of the rest, and turns false when the
    set-up command fails or identical commands write different tables.
    """

    def __init__(self, w: Workload, seed: int, work: Path, deadline: float):
        self.w, self.seed, self.work, self.deadline = w, seed, work, deadline
        self.inputs = make_inputs(w, seed, work / "inputs") if w.command == "fit" else None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.correct = True
        self.digests: set[str] = set()
        self.n_cmd = 0

    def command(self, sweeps: int, spans: Path | None = None):
        """Run the workload's command once, under ``traced.py`` when
        ``spans`` is given. Returns (exit code, wall s, peak RSS MB, out dir)."""
        self.n_cmd += 1
        out = self.work / f"out{self.n_cmd}"
        log = self.work / f"log{self.n_cmd}.txt"
        args = command_args(self.w, self.seed, self.inputs, out, sweeps)
        if spans is None:
            argv = [sys.executable, "-m", "zinbreg.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans), "--", *args]
        rc, wall, rss = run_process(argv, log, self.deadline)
        if rc not in (0, 3):
            tail = log.read_text(errors="replace")[-2000:]
            print(f"command failed ({rc}): {' '.join(argv)}\n{tail}", file=sys.stderr)
        return rc, wall, rss, out

    def setup(self) -> float:
        """Run the command cut to one sweep per chain; returns its wall time."""
        rc, wall, _, out = self.command(1)
        if rc not in (0, 3):
            self.problems.append(f"set-up command exit code {rc}")
            self.correct = False
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def measured(self, rc: int, out: Path, extra: list[str] = ()) -> None:
        """Check a full-length command, plus problems found in its trace,
        and count its operations."""
        problems, failed = check_outputs(self.w, self.inputs, out, rc)
        if extra:
            problems, failed = problems + list(extra), self.w.replicates
        self.attempted += self.w.replicates
        self.failed += failed
        self.problems += problems
        if out.is_dir():
            self.digests.add(checks.digest(out))
            shutil.rmtree(out)

    def result(self, metrics: dict) -> dict:
        if len(self.digests) > 1:
            self.problems.append(f"identical commands wrote different tables: {sorted(self.digests)}")
            self.correct = False
        for digest in sorted(self.digests):
            print(f"digest {self.w.name} seed={self.seed} sha256={digest}")
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_untraced(run: Run, seconds: float) -> dict:
    setup_s = run.setup()
    walls, rss = [], []
    start = time.perf_counter()
    while True:
        rc, wall, peak, out = run.command(run.w.iterations)
        run.measured(rc, out)
        walls.append(wall)
        rss.append(peak)
        if time.perf_counter() - start >= seconds:
            break
    print(f"{run.w.name}: {len(walls)} commands, wall_s " + " ".join(f"{v:.3f}" for v in walls))
    return run.result({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    })


def run_traced(run: Run, seconds: float) -> dict:
    from traced import layer_metrics

    plain, traced, per_cmd, missing = [], [], [], set()
    spans = run.work / "spans.json"
    start = time.perf_counter()
    while True:
        rc, wall, _, out = run.command(run.w.iterations)
        run.measured(rc, out)
        plain.append(wall)
        rc, wall, _, out = run.command(run.w.iterations, spans=spans)
        traced.append(wall)
        problems = ["traced command wrote no spans"]
        if spans.is_file():
            doc = json.loads(spans.read_text())
            spans.unlink()
            metrics, problems = layer_metrics(doc)
            missing.update(doc["missing"])
            per_cmd.append(metrics)
        run.measured(rc, out, problems)
        if time.perf_counter() - start >= seconds:
            break
    if missing:
        print(f"{run.w.name}: not found in the program, metrics left out: "
              + ", ".join(sorted(missing)))
    out_metrics = {}
    for name in sorted({k for m in per_cmd for k in m}):
        values = [m[name][0] for m in per_cmd if name in m]
        unit = next(m[name][1] for m in per_cmd if name in m)
        out_metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    out_metrics["trace.traced_wall_s"] = {"value": traced_s, "unit": "s"}
    out_metrics["trace.untraced_wall_s"] = {"value": plain_s, "unit": "s"}
    out_metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / plain_s - 1.0), "unit": "%"}
    return run.result(out_metrics)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    work = WORK / f"{w.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(w, seed, work, t_start + RUN_LIMIT_S)
        return run_traced(run, seconds) if trace else run_untraced(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zinbreg" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'zinbreg'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Byte-compile the program first, so no timed command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        t0 = t_start if len(names) == 1 else time.perf_counter()
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), t0)
        for metric, v in sorted(results[name]["metrics"].items()):
            print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
