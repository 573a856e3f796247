import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinbreg.data import (
    CountMatrix,
    CovariateMatrix,
    GroupAssignment,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.errors import (
    AllZeroFeature,
    ConstantCovariate,
    DataError,
    DimensionMismatch,
)

from conftest import make_counts


def test_validate_accepts_consistent_bundle():
    counts = make_counts([[1, 0], [0, 2], [3, 4]])
    covs = CovariateMatrix([[1.0], [2.0], [3.0]], ("c",))
    groups = GroupAssignment(np.array([1, 1, 2]), 2)
    ds = validate_inputs(counts, covs, groups)
    assert ds.n == 3 and ds.p == 2 and ds.n_covariates == 1


def test_validate_rejects_row_mismatch():
    counts = make_counts([[1, 0], [0, 2], [3, 4]])
    covs = CovariateMatrix([[1.0], [2.0], [3.0], [4.0]], ("c",))
    groups = GroupAssignment(np.array([1, 1, 2]), 2)
    with pytest.raises(DimensionMismatch):
        validate_inputs(counts, covs, groups)


def test_validate_rejects_all_zero_feature():
    counts = make_counts([[1, 0], [2, 0], [3, 0]])
    covs = CovariateMatrix([[1.0], [2.0], [3.0]], ("c",))
    groups = GroupAssignment(np.array([1, 1, 2]), 2)
    with pytest.raises(AllZeroFeature, match="f1"):
        validate_inputs(counts, covs, groups)


def test_validate_accepts_feature_whose_counts_sum_past_int64():
    # 2048 counts of 2**53 sum to 2**64, which an int64 column sum wraps to 0
    n = 2048
    y = np.zeros((n, 2), dtype=np.int64)
    y[:, 0] = 2**53
    y[: n // 2, 1] = 1
    assert y[:, 0].sum() == 0
    covs = CovariateMatrix(np.arange(n, dtype=float)[:, None], ("c",))
    groups = GroupAssignment(1 + np.arange(n) % 2, 2)
    assert validate_inputs(make_counts(y), covs, groups).counts.p == 2


def test_validate_rejects_constant_covariate():
    counts = make_counts([[1, 2], [3, 4], [5, 6]])
    covs = CovariateMatrix([[7.0], [7.0], [7.0]], ("c",))
    groups = GroupAssignment(np.array([1, 1, 2]), 2)
    with pytest.raises(ConstantCovariate):
        validate_inputs(counts, covs, groups)


def test_count_matrix_rejects_bad_values():
    with pytest.raises(DataError):
        make_counts([[1, -1], [2, 3]])
    with pytest.raises(DataError):
        make_counts([[1.5, 1], [2, 3]])
    with pytest.raises(DataError):
        CountMatrix([[1, 2], [3, 4]], ("a", "a"), ("f0", "f1"))


def test_group_assignment_requires_every_group():
    with pytest.raises(DataError):
        GroupAssignment(np.array([1, 1, 3]), 3)
    g = GroupAssignment(np.array([1, 2, 2]), 2)
    assert g.zero_based().tolist() == [0, 1, 1]


def test_standardize_simple_column():
    covs = CovariateMatrix([[1.0], [2.0], [3.0]], ("c",))
    out = standardize_covariates(covs)
    assert out.standardized
    np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)


def test_standardize_rejects_constant():
    covs = CovariateMatrix([[5.0], [5.0], [5.0]], ("c",))
    with pytest.raises(ConstantCovariate):
        standardize_covariates(covs)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=4),
        min_size=3,
        max_size=8,
    )
)
def test_standardize_idempotent(rows):
    width = len(rows[0])
    rows = [row[:width] + [0.0] * (width - len(row)) for row in rows]
    values = np.asarray(rows)
    if np.any(np.ptp(values, axis=0) < 1e-6):
        return
    covs = CovariateMatrix(values, tuple(f"c{r}" for r in range(width)))
    once = standardize_covariates(covs)
    twice = standardize_covariates(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def test_filter_keeps_feature_present_in_both_groups():
    y = np.zeros((10, 1), dtype=int)
    y[[0, 1, 2, 3, 4], 0] = 5   # five group-1 samples
    y[[5, 6, 7, 8, 9], 0] = 7   # five group-2 samples
    groups = GroupAssignment(np.array([1] * 5 + [2] * 5), 2)
    kept = filter_low_abundance(make_counts(y), groups, min_count=2, min_groups=2)
    assert kept.p == 1


def test_filter_drops_single_group_feature():
    y = np.array([[3, 1], [4, 1], [0, 1], [0, 1]])
    groups = GroupAssignment(np.array([1, 1, 2, 2]), 2)
    kept = filter_low_abundance(make_counts(y), groups, min_count=1, min_groups=2)
    assert kept.feature_ids == ("f1",)


def test_filter_preserves_order_and_never_grows():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, size=(12, 20))
    counts = make_counts(y)
    groups = GroupAssignment(1 + np.arange(12) % 2, 2)
    kept = filter_low_abundance(counts, groups, min_count=2, min_groups=2)
    assert kept.p <= counts.p
    positions = [counts.feature_ids.index(f) for f in kept.feature_ids]
    assert positions == sorted(positions)


def test_pipeline_deterministic(tiny_dataset):
    from conftest import small_dataset

    ds1 = tiny_dataset
    ds2 = small_dataset()
    np.testing.assert_array_equal(ds1.counts.counts, ds2.counts.counts)
    np.testing.assert_array_equal(ds1.covariates.values, ds2.covariates.values)


def test_containers_are_immutable(tiny_dataset):
    with pytest.raises(ValueError):
        tiny_dataset.counts.counts[0, 0] = 99
    with pytest.raises(ValueError):
        tiny_dataset.covariates.values[0, 0] = 99.0
