import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarefuse.estimators import EstimatorResult
from rarefuse.fusion import (
    CovarianceMatrix,
    SingularCovarianceError,
    dominance_criterion,
    fuse,
    optimal_weights,
    optimal_weights_diagonal,
)

from helpers_oracles import (
    componentwise_weight_residual,
    qp_bruteforce_weights,
    random_spd,
)


def result(estimate, n, sample_variance, density_id="q", hits=1, kind="IS"):
    return EstimatorResult(estimate, n, sample_variance, hits, density_id, kind)


class TestOptimalWeights:
    def test_equal_variances(self):
        w, lam, v = optimal_weights(CovarianceMatrix(np.diag([1.0, 1.0])))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)
        assert v == pytest.approx(0.5, abs=1e-14)

    def test_inverse_variance(self):
        w, lam, v = optimal_weights(CovarianceMatrix(np.diag([1.0, 4.0])))
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-14)
        assert v == pytest.approx(0.8, abs=1e-14)

    def test_symmetric_correlated(self):
        cov = CovarianceMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        w, lam, v = optimal_weights(cov)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)
        assert v == pytest.approx(0.75, abs=1e-14)
        assert lam == pytest.approx(-0.75, abs=1e-14)

    def test_matches_bruteforce_qp_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            sigma = random_spd(rng, k)
            w, lam, v = optimal_weights(CovarianceMatrix(sigma))
            oracle = qp_bruteforce_weights(sigma)
            assert np.max(np.abs(w - oracle)) < 1e-8

    def test_matches_scipy_cho_solve(self):
        # SciPy is the reference only; the package solves with NumPy
        import scipy.linalg

        rng = np.random.default_rng(11)
        for _ in range(210):
            k = int(rng.integers(2, 9))
            sigma = random_spd(rng, k)
            x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sigma), np.ones(k))
            w, lam, v = optimal_weights(CovarianceMatrix(sigma))
            ref = x / x.sum()
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert v == pytest.approx(1.0 / x.sum(), rel=1e-12, abs=0.0)
            assert lam == pytest.approx(-1.0 / x.sum(), rel=1e-12, abs=0.0)

    def test_kkt_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            sigma = random_spd(rng, k)
            w, lam, v = optimal_weights(CovarianceMatrix(sigma))
            residual = sigma @ w + lam * np.ones(k)
            assert np.max(np.abs(residual)) <= 1e-10 * np.abs(sigma).max()
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_negative_weight_with_heavy_offdiagonal(self):
        # strong correlation with unequal variances drives a weight negative
        cov = CovarianceMatrix(np.array([[1.0, 1.8], [1.8, 4.0]]))
        w, lam, v = optimal_weights(cov)
        assert w.min() < 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        oracle = qp_bruteforce_weights(cov.entries)
        np.testing.assert_allclose(w, oracle, atol=1e-8)

    def test_singular_matrix_rejected(self):
        cov = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularCovarianceError, match="diagonal"):
            optimal_weights(cov)

    def test_indefinite_matrix_rejected(self):
        # well conditioned but indefinite: 1' S^-1 1 < 0 would give weights
        # [0.5, 0.5] with "variance" -0.5
        indefinite = np.array([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            optimal_weights(CovarianceMatrix(indefinite))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            optimal_weights(CovarianceMatrix(np.diag([1.0, 0.0])))

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(np.array([[1.0, 0.3], [0.2, 1.0]]))

    @pytest.mark.parametrize(
        "entries",
        [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [0.5, 1.0]], [[1.0, 0.0], [0.0, np.inf]]],
    )
    def test_non_finite_entries_rejected_by_name(self, entries):
        # NaN passed the symmetry check and then read as ill-conditioned
        with pytest.raises(ValueError, match="entries must be finite"):
            CovarianceMatrix(np.array(entries))


class TestDiagonalWeights:
    def test_equal_variances_third_each(self):
        w, v = optimal_weights_diagonal([1.0, 1.0, 1.0])
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
        assert abs(v - 1 / 3) <= 1e-14

    def test_harmonic_arithmetic(self):
        w, v = optimal_weights_diagonal([2.0, 3.0, 6.0])
        np.testing.assert_allclose(w, [0.5, 1 / 3, 1 / 6], atol=1e-14)
        assert abs(v - 1.0) <= 1e-14

    def test_dominant_estimator(self):
        w, v = optimal_weights_diagonal([1e-6, 1.0, 1.0])
        assert v == pytest.approx(1e-6, rel=1e-5)
        assert w[0] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_weights_diagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            optimal_weights_diagonal([np.nan, 1.0])

    def test_consistent_with_kkt_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = np.exp(rng.uniform(-3, 3, size=rng.integers(2, 7)))
            w_diag, var_diag = optimal_weights_diagonal(v)
            w_kkt, _, var_kkt = optimal_weights(CovarianceMatrix(np.diag(v)))
            np.testing.assert_allclose(w_diag, w_kkt, atol=1e-12)
            assert var_diag == pytest.approx(var_kkt, rel=1e-12)

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=8),
    )
    @settings(deadline=None, max_examples=300)
    def test_variance_dominance_property(self, variances):
        w, fused = optimal_weights_diagonal(variances)
        assert fused < min(variances)
        assert np.all(w > 0)

    @given(st.integers(0, 10**6), st.floats(1e-3, 1e3))
    @settings(deadline=None, max_examples=100)
    def test_scale_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        sigma = random_spd(rng, int(rng.integers(2, 6)))
        w1, _, v1 = optimal_weights(CovarianceMatrix(sigma))
        w2, _, v2 = optimal_weights(CovarianceMatrix(c * sigma))
        np.testing.assert_allclose(w1, w2, atol=1e-9)
        assert v2 == pytest.approx(c * v1, rel=1e-9)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=100)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        sigma = random_spd(rng, k)
        perm = rng.permutation(k)
        w, _, v = optimal_weights(CovarianceMatrix(sigma))
        wp, _, vp = optimal_weights(
            CovarianceMatrix(sigma[np.ix_(perm, perm)])
        )
        np.testing.assert_allclose(wp, w[perm], atol=1e-9)
        assert vp == pytest.approx(v, rel=1e-9)


class TestComponentwiseResidual:
    def test_inverse_variance_weights_have_zero_residual(self):
        assert componentwise_weight_residual(np.diag([1.0, 4.0]), [0.8, 0.2]) <= 1e-12

    def test_random_spd_weights_self_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma = random_spd(rng, int(rng.integers(2, 7)))
            w, _, _ = optimal_weights(CovarianceMatrix(sigma))
            assert componentwise_weight_residual(sigma, w) <= 1e-10

    def test_suboptimal_weights_flagged(self):
        assert componentwise_weight_residual(np.diag([1.0, 1.0]), [1.0, 0.0]) == pytest.approx(0.5)


class TestDominanceCriterion:
    def test_equality_boundary_is_false(self):
        assert dominance_criterion([1.0, 1.0, 1.0], 1.0) is False

    def test_slightly_above_is_true(self):
        assert dominance_criterion([1.0, 1.0, 1.0], 1.01) is True

    def test_hand_arithmetic(self):
        # k/sum(1/v) = 3/1.02 ~ 2.941; candidate 2.9 does not dominate
        assert dominance_criterion([1.0, 100.0, 100.0], 2.9) is False

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dominance_criterion([1.0, -1.0], 2.0)
        with pytest.raises(ValueError):
            dominance_criterion([1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            dominance_criterion([np.nan, 1.0], 2.0)
        with pytest.raises(ValueError):
            dominance_criterion([1.0, 1.0], np.nan)


class TestFuse:
    def test_single_estimator_identity(self):
        r = result(0.01, 100, 0.04)
        f = fuse([r])
        assert f.estimate == 0.01
        np.testing.assert_array_equal(f.weights, [1.0])
        assert f.variance == pytest.approx(0.04 / 100, rel=1e-12)

    def test_fused_variance_below_min_individual(self):
        rs = [result(0.01, 100, 0.04, "a"), result(0.012, 200, 0.02, "b")]
        f = fuse(rs)
        assert f.variance < min(r.variance for r in rs)

    def test_weights_sum_to_one(self):
        rs = [
            result(0.01, 100, 0.04, "a"),
            result(0.012, 200, 0.02, "b"),
            result(0.009, 50, 0.08, "c"),
        ]
        f = fuse(rs)
        assert f.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert f.variance == pytest.approx(
            sum(w**2 * r.variance for w, r in zip(f.weights, rs)), rel=1e-12
        )

    def test_degenerate_input_excluded(self):
        rs = [
            result(0.01, 100, 0.04, "a"),
            result(0.0, 100, 0.0, "dead", hits=0),
            result(0.012, 200, 0.02, "b"),
        ]
        f = fuse(rs)
        assert f.excluded == [1]
        assert f.weights[1] == 0.0
        assert f.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_degenerate_flags_no_information(self):
        rs = [result(0.0, 10, 0.0, hits=0), result(0.0, 20, 0.0, hits=0)]
        f = fuse(rs)
        assert f.no_information is True
        assert f.estimate == 0.0

    def test_zero_variance_positive_estimate_floored(self):
        rs = [result(1.0, 10, 0.0, "pathological"), result(0.5, 10, 0.1, "b")]
        f = fuse(rs)
        assert f.floored == [0]
        # the floored estimator dominates the weights
        assert f.weights[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "results",
        [
            [],
            [result(np.nan, 100, 0.04, "a"), result(0.012, 200, 0.02, "b")],
            [result(0.01, 100, np.nan, "a"), result(0.012, 200, 0.02, "b")],
            [result(np.inf, 100, 0.04, "a")],
        ],
        ids=["empty", "nan-estimate", "nan-variance", "inf-estimate"],
    )
    def test_unusable_input_rejected(self, results):
        with pytest.raises(ValueError):
            fuse(results)
