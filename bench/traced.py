#!/usr/bin/env python3
"""Run one ``zinbreg`` command with its layers timed from outside.

    PYTHONPATH=src python3 bench/traced.py --spans spans.json -- fit --counts ...

Before calling ``zinbreg.cli.main`` in this process, wraps the public
functions of each layer and the sampler engine's step methods, so that
every call records a span (layer, start, end). Only the outermost call of
a layer records one, so a layer function that calls another of the same
layer is counted once. Chains that run in forked worker processes carry
their spans back on the trace they return. Writes the spans, plus the
values the output checks need, to ``--spans`` and exits with the
command's exit code.

``layer_metrics`` (used by ``run.py``) turns that file into the per-layer
metrics and checks. A layer whose functions the program no longer has is
listed as missing, and its metrics are left out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer -> [(module, function names)]. Functions are replaced in their
# module and in every zinbreg module that imported them by name.
LAYERS = {
    "io.read": [("zinbreg.io", ("read_counts", "read_covariates", "read_groups",
                                "align_to_counts"))],
    "io.write": [("zinbreg.io", ("write_table", "write_ppi_gamma", "write_ppi_delta",
                                 "write_posterior_summary", "write_convergence",
                                 "write_size_factors")),
                 ("zinbreg.cli", ("_dump_traces", "_write_resolved"))],
    "data.prepare": [("zinbreg.data", ("filter_low_abundance", "standardize_covariates",
                                       "validate_inputs"))],
    "normalization.estimate": [("zinbreg.normalization", ("estimate",))],
    "simulate.generate": [("zinbreg.simulate", ("generate",))],
    "evaluate.score": [("zinbreg.evaluate", ("score_run", "roc_points"))],
    "inference.summarize": [("zinbreg.inference", ("summarize",))],
    "inference.concordance": [("zinbreg.inference", ("chain_concordance",))],
    "sampler.parallel": [("zinbreg.sampler", ("run_chains_parallel",))],
    "sampler.chain": [("zinbreg.sampler", ("run_chain",))],
}
ENGINE_METHODS = ("step_r", "step_mu0", "step_gamma_mu", "step_delta_beta", "step_phi",
                  "log_posterior", "sweep")
MH_MOVES = ("mu0", "gamma_add", "gamma_delete", "mu_within", "delta_add",
            "delta_delete", "beta_within", "phi")


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float]] = []
        self.depth: Counter = Counter()
        self.facts: list[dict] = []
        self.missing: list[str] = []
        self.sum_gamma: list[int] = []

    def timed(self, layer, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self.depth[layer]
            self.depth[layer] = depth + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.depth[layer] = depth
                if depth == 0:
                    self.spans.append((layer, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import zinbreg.cli  # noqa: F401  (loads every module the CLI uses)
        from zinbreg import sampler

        for layer, groups in LAYERS.items():
            for module, names in groups:
                for name in names:
                    self._patch(layer, module, name)
        engine = getattr(sampler, "_Engine", None)
        for name in ENGINE_METHODS:
            fn = getattr(engine, name, None)
            if fn is None:
                self.missing.append(f"sampler._Engine.{name}")
                continue
            after = self._after_sweep if name == "sweep" else None
            setattr(engine, name, self.timed(f"sampler.{name}", fn, after))

    def _patch(self, layer, module, name) -> None:
        mod = sys.modules.get(module)
        fn = getattr(mod, name, None)
        if fn is None:
            self.missing.append(f"{module}.{name}")
            return
        if name == "run_chain":
            wrapped = self._chain_wrapper(fn)
        else:
            wrapped = self.timed(layer, fn, getattr(self, f"_after_{name}", None))
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("zinbreg") and \
                    getattr(other, name, None) is fn:
                setattr(other, name, wrapped)

    def _chain_wrapper(self, fn):
        timed = self.timed("sampler.chain", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = len(self.spans)
            self.sum_gamma = []
            trace = timed(*args, **kwargs)
            extra = {"bench_sum_gamma": self.sum_gamma}
            if os.getpid() != self.pid:
                # a worker process: send the chain's spans home with its trace
                extra["bench_spans"] = self.spans[first:]
                del self.spans[first:]
            for key, value in extra.items():
                try:
                    setattr(trace, key, value)
                except AttributeError:
                    pass
            return trace
        return wrapper

    # -- values for the checks, taken outside the timed calls --------------

    def _after_sweep(self, args, kwargs, result) -> None:
        gamma = getattr(args[1] if len(args) > 1 else None, "gamma", None)
        if gamma is not None:
            self.sum_gamma.append(int(gamma.sum()))

    def _after_validate_inputs(self, args, kwargs, ds) -> None:
        self.facts.append({"kind": "dataset", "features_kept": int(ds.counts.counts.shape[1])})

    def _after_estimate(self, args, kwargs, sf) -> None:
        self.facts.append({"kind": "size_factors", "values": sf.values.tolist()})

    def _after_run_chains_parallel(self, args, kwargs, traces) -> None:
        data = args[0]
        y = data.counts.counts
        chains = []
        for t in traces:
            self.spans.extend(tuple(s) for s in getattr(t, "bench_spans", ()))
            diag = t.diagnostics or {}
            lp = diag.get("log_posterior")
            chains.append({
                "n_iter": t.n_iter,
                "burn_in": t.burn_in,
                "proposed": dict(t.proposal_counts),
                "accepted": dict(t.accept_counts),
                "log_posterior": None if lp is None else [float(v) for v in lp],
                "sum_gamma": getattr(t, "bench_sum_gamma", None),
            })
        self.facts.append({
            "kind": "chains", "p": int(y.shape[1]), "zeros": int((y == 0).sum()),
            "covariates": int(data.covariates.values.shape[1]), "chains": chains,
        })

    def _after_summarize(self, args, kwargs, s) -> None:
        traces = args[0]
        fdr = args[1] if len(args) > 1 else kwargs.get("fdr_target", 0.05)
        draws = getattr(traces[0], "mu_draws", None)
        self.facts.append({
            "kind": "summary", "fdr": float(fdr),
            "ppi_gamma": s.ppi_gamma.tolist(), "selected_gamma": s.selected_gamma.astype(int).tolist(),
            "ppi_delta": s.ppi_delta.ravel().tolist(),
            "selected_delta": s.selected_delta.ravel().astype(int).tolist(),
            "draws_bytes": None if draws is None else sum(t.mu_draws.nbytes for t in traces),
        })

    def _after_chain_concordance(self, args, kwargs, report) -> None:
        c = report.corr_gamma.shape[0]
        below = sum(
            1 for a in range(c) for b in range(a + 1, c)
            if not min(report.corr_gamma[a, b], report.corr_delta[a, b]) >= report.floor
        )
        self.facts.append({"kind": "concordance", "pairs_below_floor": below})

    def _after_score_run(self, args, kwargs, report) -> None:
        summary, truth = args[0], args[1]
        self.facts.append({
            "kind": "score",
            "ppi_gamma": summary.ppi_gamma.tolist(),
            "gamma_true": truth.gamma_true.astype(int).tolist(),
            "ppi_delta": summary.ppi_delta.ravel().tolist(),
            "delta_true": truth.delta_true.ravel().astype(int).tolist(),
            "auc_gamma": report.auc_gamma, "auc_delta": report.auc_delta,
        })


def _dir_bytes(argv: list[str]) -> int:
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def main() -> int:
    t0 = time.perf_counter()
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        print("usage: traced.py --spans FILE -- <zinbreg arguments>", file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[2], sys.argv[4:]
    import zinbreg.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = cli.main(argv)
    doc = {
        "import_s": import_s,
        "bytes_written": _dir_bytes(argv),
        "missing": tracer.missing,
        "spans": tracer.spans,
        "facts": tracer.facts,
    }
    Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    return rc


# -- turning spans into metrics (parent side) ---------------------------------
# numpy and checks are imported inside the functions below: a module-level
# import would load numpy before ``main`` starts its clock, and
# ``cli.import_s`` would miss it.

def ess(x) -> float:
    """Effective sample size by Geyer's initial positive sequence."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4 or np.ptp(x) == 0:
        return 0.0
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    return float(n / tau)


def layer_metrics(doc: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: (value, unit)} of one traced command, and
    the problems its checks found."""
    import checks

    missing = set(doc["missing"])
    total = defaultdict(float)
    for layer, t0, t1 in doc["spans"]:
        total[layer] += t1 - t0
    facts = defaultdict(list)
    for fact in doc["facts"]:
        facts[fact["kind"]].append(fact)

    def found(module, name):
        return f"{module}.{name}" not in missing

    def layer_found(layer):
        return all(found(m, n) for m, names in LAYERS[layer] for n in names)

    chains = [c for f in facts["chains"] for c in f["chains"]]
    sweeps = sum(c["n_iter"] for c in chains)
    m = {"cli.import_s": (doc["import_s"], "s"), "io.bytes_written": (doc["bytes_written"], "B")}
    for layer in ("io.read", "io.write", "data.prepare", "normalization.estimate",
                  "simulate.generate", "evaluate.score", "inference.summarize",
                  "inference.concordance"):
        if layer_found(layer):
            m[f"{layer}_s"] = (total[layer], "s")
    per_sweep = 1e3 / max(sweeps, 1)
    for name in ENGINE_METHODS:
        if found("sampler._Engine", name):
            m[f"sampler.{name}_ms"] = (total[f"sampler.{name}"] * per_sweep, "ms")
    if layer_found("sampler.chain"):
        m["sampler.chains_s"] = (total["sampler.chain"], "s")
        if found("sampler._Engine", "sweep") and found("sampler._Engine", "log_posterior"):
            rest = total["sampler.chain"] - total["sampler.sweep"] - total["sampler.log_posterior"]
            m["sampler.record_ms"] = (rest * per_sweep, "ms")
    m["sampler.sweeps"] = (sweeps, "count")
    if layer_found("sampler.parallel") and layer_found("sampler.chain"):
        chain_spans = [s for s in doc["spans"] if s[0] == "sampler.chain"]
        overhead = 0.0
        for layer, a, b in doc["spans"]:
            if layer == "sampler.parallel":
                inside = [t1 - t0 for _, t0, t1 in chain_spans if a <= t0 and t1 <= b]
                overhead += (b - a) - max(inside, default=0.0)
        m["sampler.pool_overhead_s"] = (overhead, "s")

    proposed, accepted = Counter(), Counter()
    for c in chains:
        proposed.update(c["proposed"])
        accepted.update(c["accepted"])
    for move in MH_MOVES:
        if proposed[move]:
            m[f"sampler.accept_rate.{move}"] = (accepted[move] / proposed[move], "ratio")
    chain_s = total["sampler.chain"]
    for series in ("log_posterior", "sum_gamma"):
        values = [ess(c[series][c["burn_in"]:]) for c in chains if c[series]]
        m[f"sampler.ess_{series}_per_s"] = (sum(values) / chain_s if chain_s else 0.0, "1/s")

    if facts["summary"]:
        bytes_ = [f["draws_bytes"] for f in facts["summary"]]
        if None not in bytes_:
            m["inference.draws_mb"] = (sum(bytes_) / 1e6, "MB")
    else:
        m["inference.draws_mb"] = (0.0, "MB")
    m["inference.pairs_below_floor"] = (
        sum(f["pairs_below_floor"] for f in facts["concordance"]), "count")
    kept = [f["features_kept"] for f in facts["dataset"]]
    m["data.features_kept"] = (sum(kept) / len(kept) if kept else 0, "count")

    problems = []
    for f in facts["chains"]:
        for i, c in enumerate(f["chains"]):
            problems += checks.check_counters(
                f"chain {i} counters", c["proposed"], c["accepted"],
                f["p"], f["zeros"], c["n_iter"], f["covariates"] > 0)
    for f in facts["size_factors"]:
        problems += checks.check_size_factors(f["values"])
    for f in facts["summary"]:
        problems += checks.check_fdr_selection(
            "summary gamma", f["ppi_gamma"], f["selected_gamma"], f["fdr"])
        problems += checks.check_fdr_selection(
            "summary delta", f["ppi_delta"], f["selected_delta"], f["fdr"])
    for f in facts["score"]:
        for fam in ("gamma", "delta"):
            auc = checks.auc_pairwise(f[f"ppi_{fam}"], f[f"{fam}_true"])
            if not abs(auc - f[f"auc_{fam}"]) <= 1e-9:
                problems.append(
                    f"score_run auc_{fam} {f[f'auc_{fam}']!r} differs from the "
                    f"pairwise count {auc!r}")
    return m, problems


if __name__ == "__main__":
    sys.exit(main())
