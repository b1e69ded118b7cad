import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dedsid.artifacts import to_plain
from dedsid.vif import matrix_rank, select_features, vif_single

# Hand-worked instance (columns already zero-mean):
#   x1 = [ 1, -1,  1, -1]
#   x2 = [ 1,  1, -1, -1]
#   x3 = [ 2,  0,  1, -3]
# Regressing each column on the others gives R^2 of 0.9, 0.8, and 13/14,
# hence VIFs of exactly 10, 5, and 14.
HAND_X = np.array(
    [
        [1.0, 1.0, 2.0],
        [-1.0, 1.0, 0.0],
        [1.0, -1.0, 1.0],
        [-1.0, -1.0, -3.0],
    ]
)
HAND_VIFS = (10.0, 5.0, 14.0)


def random_standardized(n, k, seed):
    x = np.random.default_rng(seed).normal(size=(n, k))
    x -= x.mean(axis=0)
    x /= x.std(axis=0)
    return x


class TestVifSingle:
    def test_hand_instance(self):
        for j, expected in enumerate(HAND_VIFS):
            assert vif_single(HAND_X, j) == pytest.approx(expected, rel=1e-9)

    def test_matches_inverse_correlation_diagonal(self):
        # For centered columns, VIF equals the diagonal of the inverse
        # correlation matrix; an independent route through np.corrcoef.
        x = random_standardized(500, 6, seed=11)
        x[:, 5] = 0.6 * x[:, 0] + x[:, 5] * 0.2
        expected = np.diag(np.linalg.inv(np.corrcoef(x.T)))
        got = [vif_single(x, j) for j in range(6)]
        assert np.allclose(got, expected, rtol=1e-8)

    def test_independent_columns_near_one(self):
        x = random_standardized(4000, 5, seed=1)
        for j in range(5):
            assert 1.0 <= vif_single(x, j) < 1.05

    def test_exact_duplicate_is_infinite(self):
        x = random_standardized(100, 2, seed=2)
        x = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        assert vif_single(x, 0) == np.inf
        assert vif_single(x, 1) == np.inf
        assert np.isfinite(vif_single(x, 2))

    def test_constant_column_is_infinite(self):
        x = np.column_stack([np.zeros(10), np.arange(10.0)])
        assert vif_single(x, 0) == np.inf

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            vif_single(np.ones((5, 1)), 0)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=500))
    def test_scale_invariance(self, column, scale):
        x = random_standardized(60, 5, seed=7)
        scaled = x.copy()
        scaled[:, column] *= scale
        for j in range(5):
            assert vif_single(scaled, j) == pytest.approx(vif_single(x, j), rel=1e-6)


class TestMatrixRank:
    def test_full_rank(self):
        assert matrix_rank(random_standardized(50, 4, seed=3)) == 4

    def test_planted_deficiency(self):
        x = random_standardized(50, 4, seed=4)
        x[:, 3] = x[:, 0] + x[:, 1]
        assert matrix_rank(x) == 3

    def test_zero_matrix(self):
        assert matrix_rank(np.zeros((5, 3))) == 0


class TestSelectFeatures:
    def test_hand_instance_trace(self):
        report = select_features(HAND_X, ["x1", "x2", "x3"])
        assert len(report.iterations) == 1
        step = report.iterations[0]
        assert step.iteration_index == 1
        assert step.excluded_feature == "x3"
        assert step.column_count == 3
        assert step.matrix_rank == 3
        assert step.vif_values["x1"] == pytest.approx(10.0, rel=1e-9)
        assert report.surviving_features == ("x1", "x2")
        assert report.final_rank == 2
        assert report.final_vif["x1"] == pytest.approx(1.0, abs=1e-12)
        assert report.final_vif["x2"] == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_to_earliest_column(self):
        base = random_standardized(200, 3, seed=5)
        x = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 2]])
        report = select_features(x, ["dup_a", "dup_b", "v1", "v2"])
        assert report.iterations[0].excluded_feature == "dup_a"
        assert "dup_b" in report.surviving_features

    def test_no_iterations_when_clean(self):
        x = random_standardized(500, 4, seed=6)
        report = select_features(x, ["a", "b", "c", "d"])
        assert report.iterations == ()
        assert report.surviving_features == ("a", "b", "c", "d")
        assert report.final_rank == 4

    def test_deterministic(self):
        x = random_standardized(300, 6, seed=8)
        x[:, 4] = x[:, 0] - x[:, 1]
        names = [f"f{j}" for j in range(6)]
        a = select_features(x, names)
        b = select_features(x, names)
        assert to_plain(a) == to_plain(b)

    def test_single_surviving_feature_allowed(self):
        base = random_standardized(100, 1, seed=9)
        x = np.column_stack([base[:, 0], base[:, 0]])
        report = select_features(x, ["a", "b"])
        assert report.surviving_features == ("b",)
        assert report.final_vif["b"] == 1.0

    def test_report_serializes_infinities(self):
        base = random_standardized(100, 2, seed=10)
        x = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
        report = select_features(x, ["a", "b", "c"])
        payload = to_plain(report)
        assert payload["iterations"][0]["vif_values"]["a"] == "inf"
