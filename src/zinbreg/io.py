"""File input/output for the command line front end.

All tables are UTF-8 CSV (or TSV, sniffed by extension) with a header
row. Counts are parsed strictly as non-negative integers; rows across the
three input files are joined on sample_id, so row order does not need to
match.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

from .data import CountMatrix, CovariateMatrix, GroupAssignment
from .errors import DataError, NonIntegerCount, ParseError, UnalignedSampleIds
from .inference import ConcordanceReport, PosteriorSummary
from .normalization import SizeFactors

__all__ = [
    "read_counts",
    "read_covariates",
    "read_groups",
    "sample_order",
    "align_to_counts",
    "write_counts",
    "write_covariates",
    "write_groups",
    "write_truth",
    "read_truth",
    "write_ppi_gamma",
    "write_ppi_delta",
    "read_ppi_gamma",
    "read_ppi_delta",
    "write_posterior_summary",
    "write_convergence",
    "write_size_factors",
    "write_table",
]

# the sampler works on counts as float64, where integers above 2**53 are not exact
_MAX_COUNT = 2**53


def _fmt(x) -> str:
    return format(float(x), ".10g")


def _delimiter(path) -> str:
    return "\t" if Path(path).suffix.lower() in (".tsv", ".tab") else ","


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh, delimiter=_delimiter(path)))
    except OSError as exc:
        raise ParseError(str(path), 0, 0, f"cannot read file: {exc}") from exc
    if not rows:
        raise ParseError(str(path), 1, 1, "empty file, header row required")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body, start=2):
        if len(row) != width:
            raise ParseError(str(path), i, 1, f"expected {width} fields, found {len(row)}")
    return header, body


def read_counts(path) -> CountMatrix:
    """Read a count table: sample_id column followed by one integer column
    per feature."""
    header, body = _read_table(path)
    if len(header) < 2:
        raise ParseError(str(path), 1, 1, "counts need a sample_id column plus features")
    feature_ids = tuple(header[1:])
    rows = []
    for i, row in enumerate(body, start=2):
        cells = [cell.strip() for cell in row[1:]]
        # str.isdecimal accepts exactly the text whose every character is a
        # Unicode decimal digit, and int() parses all of it; isdigit would
        # also pass '²', which int() refuses
        if all(map(str.isdecimal, cells)):
            try:
                values = list(map(int, cells))
            except ValueError:  # beyond int()'s digit limit
                values = None
            if values is not None and max(values) <= _MAX_COUNT:
                rows.append(values)
                continue
        _raise_bad_count(path, i, row)
    values = np.array(rows, dtype=np.int64).reshape(len(body), len(feature_ids))
    return CountMatrix(values, tuple(row[0] for row in body), feature_ids)


def _raise_bad_count(path, line: int, row: list[str]) -> None:
    """Raise the error for the first cell of a count row that is not an
    integer in [0, 2**53]."""
    for col, cell in enumerate(row[1:], start=2):
        text = cell.strip()
        if not text.isdecimal():
            try:
                float(text)
            except ValueError:
                raise ParseError(str(path), line, col, f"unparseable count {cell!r}") from None
            raise NonIntegerCount(
                f"{path}:{line}:{col}: count {cell!r} is not a non-negative integer"
            )
        try:
            value = int(text)
        except ValueError:  # beyond int()'s digit limit
            value = _MAX_COUNT + 1
        if value > _MAX_COUNT:
            raise DataError(
                f"{path}:{line}:{col}: count {cell!r} exceeds 2**53, the largest "
                "integer exact in float64"
            )


def _cell(path, line: int, column: int, text: str, parse, what: str):
    """``parse(text)``, or a ParseError naming the cell at ``line`` and
    ``column`` (both from 1) when it refuses the text."""
    try:
        return parse(text)
    except ValueError:
        raise ParseError(str(path), line, column, f"unparseable {what} {text!r}") from None


def _label(path, line: int, column: int, text: str, what: str) -> int:
    """The 0 or 1 in the cell at ``line`` and ``column``, or a ParseError
    naming the cell when it holds anything else."""
    value = _cell(path, line, column, text, int, what)
    if value not in (0, 1):
        raise ParseError(str(path), line, column, f"{what} {text!r} is not 0 or 1")
    return value


def read_covariates(path) -> tuple[CovariateMatrix, tuple[str, ...]]:
    """Read a covariate table: sample_id column followed by real columns.
    Returns the matrix and its row sample ids."""
    header, body = _read_table(path)
    if len(header) < 1:
        raise ParseError(str(path), 1, 1, "covariates need a sample_id column")
    covariate_ids = tuple(header[1:])
    sample_ids = []
    values = np.zeros((len(body), len(covariate_ids)))
    for i, row in enumerate(body):
        sample_ids.append(row[0])
        for j, cell in enumerate(row[1:]):
            values[i, j] = _cell(path, i + 2, j + 2, cell, float, "covariate value")
    return CovariateMatrix(values, covariate_ids), tuple(sample_ids)


def read_groups(path) -> tuple[GroupAssignment, tuple[str, ...]]:
    """Read group labels: sample_id and integer group columns. Returns the
    assignment and its row sample ids."""
    header, body = _read_table(path)
    if len(header) < 2:
        raise ParseError(str(path), 1, 1, "groups need sample_id and group columns")
    sample_ids = []
    labels = np.zeros(len(body), dtype=np.int64)
    for i, row in enumerate(body):
        sample_ids.append(row[0])
        text = row[1].strip()
        if not text.isdecimal():
            raise ParseError(str(path), i + 2, 2, f"unparseable group label {row[1]!r}")
        labels[i] = int(text)
    k = int(labels.max()) if labels.size else 0
    return GroupAssignment(labels, n_groups=k), tuple(sample_ids)


def sample_order(
    sample_ids: tuple[str, ...], ids: tuple[str, ...], name: str, base: str = "counts"
) -> list[int]:
    """The row of the table ``name``, whose rows are the samples ``ids``, of
    each of ``sample_ids``, the samples of ``base``: the join on sample_id.
    Raises ``UnalignedSampleIds`` on a sample listed twice in ``ids`` or on
    one side only."""
    index = {sid: i for i, sid in enumerate(ids)}
    if len(index) != len(ids):
        raise UnalignedSampleIds(f"duplicate sample ids in {name}")
    missing = [sid for sid in sample_ids if sid not in index]
    if missing:
        raise UnalignedSampleIds(f"sample {missing[0]!r} missing from {name}")
    known = set(sample_ids)
    extra = [sid for sid in ids if sid not in known]
    if extra:
        raise UnalignedSampleIds(f"sample {extra[0]!r} in {name} but not in {base}")
    return [index[sid] for sid in sample_ids]


def align_to_counts(
    counts: CountMatrix,
    covariates: CovariateMatrix,
    covariate_samples: tuple[str, ...],
    groups: GroupAssignment,
    group_samples: tuple[str, ...],
) -> tuple[CovariateMatrix, GroupAssignment]:
    """Reorder covariate and group rows to the count matrix's sample order,
    joining on sample_id."""
    cov_order = sample_order(counts.sample_ids, covariate_samples, "covariates")
    grp_order = sample_order(counts.sample_ids, group_samples, "groups")
    covariates = CovariateMatrix(covariates.values[cov_order], covariates.covariate_ids)
    groups = GroupAssignment(
        groups.labels[grp_order], groups.n_groups, groups.reference_group
    )
    return covariates, groups


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` whole or not at all: into
    ``<path>.tmp`` beside it, then moved into place. On any error the temp
    file is removed and an existing ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=_delimiter(path), lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_counts(path, counts: CountMatrix) -> None:
    rows = (
        [sid, *map(str, counts.counts[i].tolist())]
        for i, sid in enumerate(counts.sample_ids)
    )
    write_table(path, ["sample_id", *counts.feature_ids], rows)


def write_covariates(path, covariates: CovariateMatrix, sample_ids) -> None:
    rows = (
        [sid, *map(_fmt, covariates.values[i])]
        for i, sid in enumerate(sample_ids)
    )
    write_table(path, ["sample_id", *covariates.covariate_ids], rows)


def write_groups(path, groups: GroupAssignment, sample_ids) -> None:
    rows = ([sid, str(int(g))] for sid, g in zip(sample_ids, groups.labels))
    write_table(path, ["sample_id", "group"], rows)


def write_truth(path, feature_ids, covariate_ids, truth) -> None:
    header = ["feature_id", "gamma_true", "mu2_true"] + [
        f"beta_true_{cid}" for cid in covariate_ids
    ]
    rows = (
        [
            fid,
            str(int(truth.gamma_true[j])),
            _fmt(truth.mu2_true[j]),
            *map(_fmt, truth.beta_true[:, j]),
        ]
        for j, fid in enumerate(feature_ids)
    )
    write_table(path, header, rows)


def read_truth(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Read a truth table back: (feature_ids, covariate_ids, gamma_true,
    mu2_true, beta_true)."""
    header, body = _read_table(path)
    if header[:3] != ["feature_id", "gamma_true", "mu2_true"]:
        raise ParseError(str(path), 1, 1, "not a truth table")
    covariate_ids = tuple(h.removeprefix("beta_true_") for h in header[3:])
    feature_ids = tuple(row[0] for row in body)
    gamma, mu2, beta = [], [], []
    for line, row in enumerate(body, start=2):
        gamma.append(_label(path, line, 2, row[1], "gamma_true"))
        mu2.append(_cell(path, line, 3, row[2], float, "mu2_true"))
        beta.append([_cell(path, line, col, v, float, "beta_true")
                     for col, v in enumerate(row[3:], start=4)])
    gamma = np.array(gamma, dtype=np.int8)
    beta = np.array(beta).T.reshape(len(covariate_ids), len(feature_ids))
    return feature_ids, covariate_ids, gamma, np.array(mu2), beta


def write_ppi_gamma(path, feature_ids, summary: PosteriorSummary) -> None:
    rows = (
        [fid, _fmt(summary.ppi_gamma[j]), str(int(summary.selected_gamma[j]))]
        for j, fid in enumerate(feature_ids)
    )
    write_table(path, ["feature_id", "ppi", "selected"], rows)


def write_ppi_delta(path, feature_ids, covariate_ids, summary: PosteriorSummary) -> None:
    rows = (
        [
            fid,
            cid,
            _fmt(summary.ppi_delta[r, j]),
            str(int(summary.selected_delta[r, j])),
            _fmt(summary.beta_mean[r, j]),
        ]
        for j, fid in enumerate(feature_ids)
        for r, cid in enumerate(covariate_ids)
    )
    write_table(path, ["feature_id", "covariate_id", "ppi", "selected", "beta_mean"], rows)


def read_ppi_gamma(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    header, body = _read_table(path)
    if header != ["feature_id", "ppi", "selected"]:
        raise ParseError(str(path), 1, 1, "not a ppi_gamma table")
    ids = tuple(row[0] for row in body)
    ppi = [_cell(path, line, 2, row[1], float, "ppi") for line, row in enumerate(body, start=2)]
    selected = [_label(path, line, 3, row[2], "selected flag")
                for line, row in enumerate(body, start=2)]
    return ids, np.array(ppi), np.array(selected, dtype=bool)


def read_ppi_delta(path):
    """Read a ppi_delta table into (feature_ids, covariate_ids, ppi,
    selected, beta_mean) with (R, p) matrices."""
    header, body = _read_table(path)
    if header != ["feature_id", "covariate_id", "ppi", "selected", "beta_mean"]:
        raise ParseError(str(path), 1, 1, "not a ppi_delta table")
    # ids in order of first appearance
    feature_ids = tuple(dict.fromkeys(row[0] for row in body))
    covariate_ids = tuple(dict.fromkeys(row[1] for row in body))
    p, big_r = len(feature_ids), len(covariate_ids)
    ppi = np.zeros((big_r, p))
    selected = np.zeros((big_r, p), dtype=bool)
    beta = np.zeros((big_r, p))
    fidx = {f: j for j, f in enumerate(feature_ids)}
    cidx = {c: r for r, c in enumerate(covariate_ids)}
    for line, row in enumerate(body, start=2):
        r, j = cidx[row[1]], fidx[row[0]]
        ppi[r, j] = _cell(path, line, 3, row[2], float, "ppi")
        selected[r, j] = _label(path, line, 4, row[3], "selected flag")
        beta[r, j] = _cell(path, line, 5, row[4], float, "beta_mean")
    return feature_ids, covariate_ids, ppi, selected, beta


def write_posterior_summary(path, feature_ids, summary: PosteriorSummary) -> None:
    k_groups = summary.mu_mean.shape[0]
    header = ["feature_id", "mu0_mean"]
    for k in range(1, k_groups + 1):
        header += [f"mu_k{k}_mean", f"mu_k{k}_q025", f"mu_k{k}_q975"]
    header.append("phi_mean")
    rows = []
    for j, fid in enumerate(feature_ids):
        row = [fid, _fmt(summary.mu0_mean[j])]
        for k in range(k_groups):
            row += [
                _fmt(summary.mu_mean[k, j]),
                _fmt(summary.mu_lower[k, j]),
                _fmt(summary.mu_upper[k, j]),
            ]
        row.append(_fmt(summary.phi_mean[j]))
        rows.append(row)
    write_table(path, header, rows)


def write_convergence(path, report: ConcordanceReport | None) -> None:
    """The pairwise PPI correlations of ``report``; no rows for ``None``, a
    fit with one chain."""
    rows = []
    c = 0 if report is None else report.corr_gamma.shape[0]
    for a in range(c):
        for b in range(a + 1, c):
            rows.append(
                [
                    str(a),
                    str(b),
                    _fmt(report.corr_gamma[a, b]),
                    _fmt(report.corr_delta[a, b]),
                    str(int(report.converged)),
                ]
            )
    write_table(path, ["chain_a", "chain_b", "corr_gamma", "corr_delta", "converged"], rows)


def write_size_factors(path, sample_ids, sf: SizeFactors) -> None:
    rows = ([sid, _fmt(sf.values[i]), sf.method] for i, sid in enumerate(sample_ids))
    write_table(path, ["sample_id", "size_factor", "method"], rows)
