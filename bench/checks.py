"""Output checks made apart from the program.

Each checker takes plain arrays or the program's output files and returns
a list of problems (empty when the output passes). Nothing here imports
``zinbreg``: the checks restate the rules the outputs must obey, so that
a fault in the program's own scoring or summary code cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Output values are written with 10 significant digits, so sums and means
# recomputed from the files carry rounding of about that size.
_TOL = 1e-6


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and body rows of a CSV file, skipping ``#`` comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return rows[0], rows[1:]


def digest(out_dir) -> str:
    """SHA-256 over the names and bytes of every CSV table in ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def auc_pairwise(scores, labels) -> float:
    """Share of (positive, negative) pairs in which the positive scores
    higher, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    pos, neg = scores[labels], np.sort(scores[~labels])
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def trapezoid_area(fpr, tpr) -> float:
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def check_auc(name: str, scores, labels, floor: float) -> list[str]:
    auc = auc_pairwise(scores, labels)
    if not auc >= floor:
        return [f"{name}: AUC {auc:.4f} below the floor {floor}"]
    return []


def check_fdr_selection(name: str, ppi, selected, target: float) -> list[str]:
    """The selection must be the largest upper set of PPIs whose mean
    1 - PPI stays at or below ``target``.

    Upper set: no unselected PPI reaches the smallest selected one.
    Largest: adding the next tie group of PPIs would push the mean over
    the target (prefix means of sorted 1 - PPI never decrease, so no
    larger upper set can pass either).
    """
    ppi = np.asarray(ppi, dtype=np.float64).ravel()
    selected = np.asarray(selected).ravel().astype(bool)
    problems = []
    q_sel = 1.0 - ppi[selected]
    rest = ppi[~selected]
    if selected.any() and rest.size and rest.max() >= ppi[selected].min():
        problems.append(
            f"{name}: not an upper set (unselected PPI {rest.max():.10g} >= "
            f"selected PPI {ppi[selected].min():.10g})"
        )
    if q_sel.size and q_sel.mean() > target + _TOL:
        problems.append(
            f"{name}: mean 1-PPI of the selection {q_sel.mean():.6g} exceeds {target}"
        )
    if rest.size:
        top = rest.max()
        grown = np.concatenate([q_sel, 1.0 - rest[rest >= top - 1e-12]])
        if grown.mean() <= target - _TOL:
            problems.append(
                f"{name}: adding the next PPI {top:.10g} keeps mean 1-PPI "
                f"{grown.mean():.6g} within {target}; the selection is not maximal"
            )
    return problems


def check_size_factors(values) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or np.any(~np.isfinite(values)) or np.any(values <= 0):
        return ["size factors: empty, non-finite or non-positive"]
    total = float(np.log(values).sum())
    if abs(total) > _TOL * max(1, values.size):
        return [f"size factors: log factors sum to {total:.3g}, not 0"]
    return []


def check_counters(
    name: str, proposed: dict, accepted: dict, p: int, zeros: int, sweeps: int,
    has_covariates: bool = True,
) -> list[str]:
    """Trace counters against the sweep design: one proposal per feature
    and sweep for the baseline, dispersion, discrimination and covariate
    add-delete moves, and one extra-zero draw per observed zero and sweep."""
    problems = []
    expect = {
        ("mu0",): p * sweeps,
        ("phi",): p * sweeps,
        ("gamma_add", "gamma_delete"): p * sweeps,
        ("r",): zeros * sweeps,
    }
    if has_covariates:
        expect[("delta_add", "delta_delete")] = p * sweeps
    for moves, want in expect.items():
        missing = [m for m in moves if m not in proposed]
        if missing:
            problems.append(f"{name}: no counter for {', '.join(missing)}")
            continue
        got = sum(int(proposed[m]) for m in moves)
        if got != want:
            problems.append(f"{name}: {'+'.join(moves)} proposed {got}, expected {want}")
    for move, n_prop in proposed.items():
        n_acc = int(accepted.get(move, -1))
        if not 0 <= n_acc <= int(n_prop):
            problems.append(f"{name}: {move} accepted {n_acc} of {n_prop} proposed")
    return problems


def read_trace_csv(path) -> tuple[list[list[str]], dict, dict]:
    """Rows plus the ``# accept <move> = a/b`` counters of a trace dump."""
    rows, proposed, accepted = [], {}, {}
    with open(path, newline="", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# accept "):
                move, frac = line[len("# accept "):].split(" = ")
                a, b = frac.split("/")
                accepted[move], proposed[move] = int(a), int(b)
            elif line:
                rows.append(line.split(","))
    return rows, proposed, accepted


def check_trace_dump(path, p: int, zeros: int, sweeps: int) -> list[str]:
    """A per-sweep trace file: one finite row per sweep, in order, and
    counters that match the sweep design."""
    name = Path(path).name
    try:
        rows, proposed, accepted = read_trace_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    if not rows or rows[0] != ["iteration", "log_posterior", "sum_gamma"]:
        return [f"{name}: missing header"]
    body = rows[1:]
    problems = []
    iters = [int(r[0]) for r in body]
    if iters != list(range(sweeps)):
        problems.append(f"{name}: {len(body)} rows, expected iterations 0..{sweeps - 1}")
    if not all(math.isfinite(float(r[1])) for r in body):
        problems.append(f"{name}: non-finite log posterior")
    if not all(0 <= int(r[2]) <= p for r in body):
        problems.append(f"{name}: sum_gamma outside [0, {p}]")
    return problems + check_counters(name, proposed, accepted, p, zeros, sweeps)


def check_fit_dir(out_dir, truth: dict, fdr: float, auc_floor: dict,
                  sweeps: int, zeros: int, trace_chains: int) -> list[str]:
    """Every check on one ``zinbreg fit`` output directory.

    ``truth`` maps ``gamma`` to a feature-id -> 0/1 dict and ``delta`` to
    a (feature-id, covariate-id) -> 0/1 dict; ``zeros`` counts the zero
    cells of the input over the features the fit kept.
    """
    out_dir = Path(out_dir)
    problems = []
    header, body = read_csv(out_dir / "ppi_gamma.csv")
    ids = [r[0] for r in body]
    ppi_g = np.array([float(r[1]) for r in body])
    sel_g = np.array([int(r[2]) for r in body], dtype=bool)
    problems += check_fdr_selection("ppi_gamma", ppi_g, sel_g, fdr)
    by_id = dict(zip(ids, ppi_g))
    problems += check_auc("ppi_gamma", [by_id.get(f, 0.0) for f in truth["gamma"]],
                          list(truth["gamma"].values()), auc_floor["gamma"])

    header, body = read_csv(out_dir / "ppi_delta.csv")
    ppi_d = {(r[0], r[1]): float(r[2]) for r in body}
    sel_d = np.array([int(r[3]) for r in body], dtype=bool)
    problems += check_fdr_selection(
        "ppi_delta", np.array([float(r[2]) for r in body]), sel_d, fdr
    )
    problems += check_auc(
        "ppi_delta", [ppi_d.get(key, 0.0) for key in truth["delta"]],
        list(truth["delta"].values()), auc_floor["delta"],
    )

    header, body = read_csv(out_dir / "size_factors.csv")
    problems += check_size_factors([float(r[1]) for r in body])

    for c in range(trace_chains):
        problems += check_trace_dump(out_dir / f"trace_chain{c}.csv", len(ids), zeros, sweeps)
    return problems


def pairs_below_floor(out_dir, floor: float) -> int:
    """Chain pairs in ``convergence.csv`` whose PPI correlation misses the
    floor (a NaN correlation counts as missing it)."""
    header, body = read_csv(Path(out_dir) / "convergence.csv")
    return sum(1 for r in body if not min(float(r[2]), float(r[3])) >= floor)


def check_sim_study_dir(out_dir, replicates: int, auc_floor: dict) -> tuple[list[str], int]:
    """Checks on one ``zinbreg sim-study`` output directory. Returns the
    problems and the number of replicates that failed."""
    out_dir = Path(out_dir)
    header, body = read_csv(out_dir / "replicate_scores.csv")
    problems = []
    if len(body) != replicates:
        problems.append(f"replicate_scores.csv: {len(body)} rows, expected {replicates}")
    failed = replicates - len(body) if len(body) < replicates else 0
    col = {name: i for i, name in enumerate(header)}
    for row in body:
        rep = row[col["replicate"]]
        bad = []
        if row[col["status"]] != "ok":
            bad.append(f"replicate {rep}: status {row[col['status']]!r}")
        for fam in ("gamma", "delta"):
            auc = float(row[col[f"auc_{fam}"]])
            if not auc >= auc_floor[fam]:
                bad.append(f"replicate {rep}: auc_{fam} {auc:.4f} below {auc_floor[fam]}")
            roc = out_dir / f"roc_{fam}_rep{rep}.csv"
            if not roc.is_file():
                bad.append(f"replicate {rep}: {roc.name} missing")
                continue
            _, pts = read_csv(roc)
            fpr = [float(r[0]) for r in pts]
            tpr = [float(r[1]) for r in pts]
            if (fpr[0], tpr[0], fpr[-1], tpr[-1]) != (0.0, 0.0, 1.0, 1.0) or (
                np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0)
            ):
                bad.append(f"replicate {rep}: {roc.name} is not a ROC curve")
            area = trapezoid_area(fpr, tpr)
            if abs(area - auc) > _TOL:
                bad.append(
                    f"replicate {rep}: auc_{fam} {auc:.10g} differs from the "
                    f"area {area:.10g} under {roc.name}"
                )
        problems += bad
        failed += bool(bad)
    return problems, failed
