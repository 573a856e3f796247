#!/usr/bin/env python3
"""Check that the engine makes the same decisions as another version of it,
and time the two side by side.

PARENT_SRC is the ``src`` directory of another checkout (for example the
parent commit's, made with ``git archive``). Its ``zinbreg`` package is
loaded next to this one, under another name, and both engines run from one
seed on one data set from ``tests/_zinb.py``'s generator (n=60, 7
covariates, 2 groups, small counts with extra zeros) for 200/100/40 sweeps
at p=100/300/1000, one sweep of each in turn.

The first run checks the decisions. For each shape it prints whether the
final states and the accept counts are identical, the first sweep
(counted from 1) after which the two states differ and the parameter block
that differs first, in the order a sweep updates them (``r``, ``mu0``,
``gamma``, ``mu``, ``delta``, ``beta``, ``phi``, then the accept counts),
and the largest difference in a continuous parameter (mu0, mu, beta, phi).

Each of ``RUNS`` runs times both engines afresh, the other engine
sweeping first in every other run. Each run gives each engine's
median milliseconds per sweep and per move (``step_r`` ... ``step_phi``,
timed inside the same sweeps) and the change between them. The script
prints the median over runs of each engine's milliseconds, and the median
change with its range over the runs. The exit status is 1 when any shape
differs.

Usage:
  PYTHONPATH=src python3 scripts/same_decisions.py PARENT_SRC [--seed 1]
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from zinbreg.data import (
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.normalization import estimate_css
from zinbreg.sampler import _Engine

# the ZINB generator lives beside the tests that also use it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from _zinb import generate_zinb  # noqa: E402

SHAPES = ((100, 200), (300, 100), (1000, 40))  # (p, sweeps)
# timed runs per shape: one run's per-move medians swing by about 5%
RUNS = 3
STEPS = ("step_r", "step_mu0", "step_gamma_mu", "step_delta_beta", "step_phi")
CONTINUOUS = ("mu0", "mu", "beta", "phi")
BLOCKS = ("r", "mu0", "gamma", "mu", "delta", "beta", "phi")  # in sweep order


def load_package(src: Path, name: str = "zinbreg_parent"):
    """Import the ``zinbreg`` package under ``src`` as ``name``."""
    init = src / "zinbreg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no zinbreg package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def dataset(p: int, seed: int):
    counts, covariates, groups, _, _ = generate_zinb(
        n=60, p=p, n_disc=max(1, p // 50), n_covariates=7, m_active=4,
        pi_zero=0.3, phi=2.0, mu0_low=1.5, mu0_high=5.0, shift_size=1.5, seed=seed,
    )
    counts = filter_low_abundance(counts, groups)
    ds = validate_inputs(counts, standardize_covariates(covariates), groups)
    return ds, estimate_css(ds.counts)


def time_steps(eng) -> dict:
    """Replace the engine's step methods, on the instance, by timed ones
    that ``sweep`` calls in their place; returns name -> list of seconds."""
    times = {name: [] for name in STEPS}

    def timed(name, step):
        def wrapper(*args):
            start = time.perf_counter()
            step(*args)
            times[name].append(time.perf_counter() - start)
        return wrapper

    for name in STEPS:
        setattr(eng, name, timed(name, getattr(eng, name)))
    return times


def first_difference(eng_a, a, eng_b, b) -> str:
    """The first parameter block, in sweep order, in which the states ``a``
    and ``b`` differ, then ``accept counts``; empty when they agree."""
    for name in BLOCKS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return name
    if (eng_a.accept_counts, eng_a.proposal_counts) != (eng_b.accept_counts,
                                                        eng_b.proposal_counts):
        return "accept counts"
    return ""


def compare(engines, ds, sf, sweeps: int, seed: int, runs: int) -> dict:
    """Run each engine class from one seed, alternating sweeps, ``runs``
    times; in the first run, compare the two states after each sweep until
    they first differ. Returns the comparison and, per run, the pair
    (parent, this) of median milliseconds per sweep and per move."""
    hp, scales = Hyperparameters(), ProposalScales()
    result = {"runs": []}
    for run in range(runs):
        pair = []
        for engine_class in engines:
            eng = engine_class(ds, sf, hp, scales)
            rng = np.random.default_rng(seed)
            pair.append((eng, eng.init_state(rng), rng, [], time_steps(eng)))
        (eng_a, a, *_), (eng_b, b, *_) = pair
        diverged = None
        for sweep in range(1, sweeps + 1):
            for eng, state, rng, times, _ in pair if run % 2 == 0 else pair[::-1]:
                start = time.perf_counter()
                eng.sweep(state, rng)
                times.append(time.perf_counter() - start)
            if run == 0 and diverged is None:
                block = first_difference(eng_a, a, eng_b, b)
                if block:
                    diverged = (sweep, block)
        if run == 0:
            result["identical"] = not first_difference(eng_a, a, eng_b, b)
            result["diverged"] = diverged
            result["max_diff"] = max(
                float(np.max(np.abs(getattr(a, f) - getattr(b, f)), initial=0.0))
                for f in CONTINUOUS
            )
        ms = {"sweep": [times for _, _, _, times, _ in pair]}
        ms.update({name: [steps[name] for *_, steps in pair] for name in STEPS})
        result["runs"].append(
            {key: tuple(1e3 * statistics.median(t) for t in both) for key, both in ms.items()}
        )
    return result


def timing(runs, key: str) -> str:
    """The median over ``runs`` of the parent's and this engine's
    milliseconds for ``key``, and the median change with its range."""
    parent = statistics.median(r[key][0] for r in runs)
    this = statistics.median(r[key][1] for r in runs)
    changes = [100.0 * (r[key][1] / r[key][0] - 1.0) for r in runs]
    return (f"{parent:15.3f}  {this:13.3f}  {statistics.median(changes):+6.1f}%  "
            f"[{min(changes):+.1f}, {max(changes):+.1f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the other version")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent = load_package(args.parent_src.resolve())
    engines = (parent.sampler._Engine, _Engine)

    print("    p  sweeps  identical  first difference      max |diff|  "
          "parent ms/sweep  this ms/sweep  change  range")
    all_same = True
    runs = []
    for p, sweeps in SHAPES:
        ds, sf = dataset(p, args.seed)
        r = compare(engines, ds, sf, sweeps, args.seed, RUNS)
        all_same &= r["identical"]
        where = "-" if r["diverged"] is None else "sweep {}: {}".format(*r["diverged"])
        print(f"{ds.p:5d}  {sweeps:6d}  {'yes' if r['identical'] else 'NO':>9}  "
              f"{where:<20}  {r['max_diff']:10.3g}  {timing(r['runs'], 'sweep')}")
        runs.append((ds.p, r["runs"]))
    print(f"\n    p  move               parent ms/sweep  this ms/sweep  change  "
          f"range ({RUNS} runs)")
    for p, shape_runs in runs:
        for name in STEPS:
            print(f"{p:5d}  {name:<17}  {timing(shape_runs, name)}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
