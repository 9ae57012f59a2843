import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from rarefuse.densities import (
    GaussianMixture,
    InsufficientSamplesError,
    UniformBox,
    density_from_dict,
    fit_gaussian,
)

from helpers_oracles import (
    gaussian_mixture_pdf_solve,
    midpoint_quadrature_1d,
    midpoint_quadrature_2d,
    random_spd,
)


class TestUniformBoxPdf:
    def test_inside_box(self):
        box = UniformBox([0, 0], [2, 2])
        assert box.pdf(np.array([[1.0, 1.0]])) == 0.25

    def test_outside_box(self):
        box = UniformBox([0, 0], [2, 2])
        assert box.pdf(np.array([[3.0, 1.0]])) == 0.0

    def test_batch_evaluation(self):
        box = UniformBox([0, 0], [2, 2])
        vals = box.pdf(np.array([[1.0, 1.0], [3.0, 1.0], [0.5, 1.9]]))
        np.testing.assert_array_equal(vals, [0.25, 0.0, 0.25])

    def test_dimension_mismatch(self):
        box = UniformBox([0, 0], [2, 2])
        with pytest.raises(ValueError):
            box.pdf(np.array([[1.0, 1.0, 1.0]]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformBox([0, 2], [2, 1])


class TestGaussianMixturePdf:
    def test_standard_normal_at_origin(self):
        # 1/sqrt(2*pi) evaluated to 10 digits
        gm = GaussianMixture([(1.0, [0.0], [[1.0]])])
        assert gm.pdf(np.array([[0.0]])) == pytest.approx(0.3989422804, abs=5e-11)

    def test_full_support(self):
        gm = GaussianMixture([(1.0, [0.0, 0.0], np.eye(2))])
        assert gm.pdf(np.array([[8.0, -8.0]])) > 0.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="weight"):
            GaussianMixture([(0.5, [0.0], [[1.0]])])

    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            GaussianMixture([(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])])


class TestPdfAgainstSolveReference:
    """The whitened pdf agrees with the solve-based form to 1e-12 relative."""

    @staticmethod
    def check(gm, pts):
        np.testing.assert_allclose(
            gm.pdf(pts), gaussian_mixture_pdf_solve(gm, pts), rtol=1e-12, atol=0.0
        )

    def test_arrhenius_scaled_fitted_covariance(self):
        # axis scales 1e13 and 1e3 with strong correlation, as fitted to
        # the failure samples of arrhenius-2d
        rng = np.random.default_rng(1)
        u = rng.standard_normal((400, 2))
        cloud = np.column_stack(
            [1.4e13 + 5e11 * u[:, 0], 2.0e3 + 3e2 * (0.95 * u[:, 0] + 0.3 * u[:, 1])]
        )
        gm = fit_gaussian(cloud)
        self.check(gm, gm.sample(rng, 2000))

    def test_random_spd_d50(self):
        rng = np.random.default_rng(2)
        cov = random_spd(rng, 50)
        gm = GaussianMixture([(1.0, rng.standard_normal(50), cov)])
        self.check(gm, gm.sample(rng, 2000))


class TestPdfNormalization:
    """Tensor-grid quadrature of the pdf must integrate to 1 within 1e-4."""

    def test_gaussian_1d(self):
        gm = GaussianMixture([(1.0, [-2.0], [[0.5]])])
        total = midpoint_quadrature_1d(lambda x: gm.pdf(x.reshape(-1, 1)), -20, 20)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_2d(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        gm = GaussianMixture([(1.0, [0.5, -0.5], cov)])
        # 10-sigma bounding box
        total = midpoint_quadrature_2d(gm.pdf, [-14, -14], [14, 14], n=500)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_uniform_box(self):
        box = UniformBox([-1.0, 2.0], [3.0, 5.0])
        total = midpoint_quadrature_2d(box.pdf, [-1, 2], [3, 5], n=200)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_count_zero(self):
        box = UniformBox([0, 0], [2, 2])
        rng = np.random.default_rng(0)
        assert box.sample(rng, 0).shape == (0, 2)

    def test_uniform_mean_within_clt_bound(self):
        box = UniformBox([0.0, -3.0], [2.0, 1.0])
        rng = np.random.default_rng(123)
        pts = box.sample(rng, 100_000)
        widths = box.upper - box.lower
        centers = 0.5 * (box.lower + box.upper)
        bound = 4.0 * widths / math.sqrt(12 * 100_000)
        assert np.all(np.abs(pts.mean(axis=0) - centers) < bound)

    def test_same_seed_identical(self):
        gm = GaussianMixture([(1.0, [3.0, 3.0], [[0.5, 0.2], [0.2, 1.0]])])
        a = gm.sample(np.random.default_rng(7), 1000)
        b = gm.sample(np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_sample_is_mean_plus_normals_times_cholesky(self, d):
        # bit for bit: one normal block through the Cholesky factor
        rng = np.random.default_rng(10 * d + 1)
        mean, cov = rng.standard_normal(d), random_spd(rng, d)
        gm = GaussianMixture([(1.0, mean, cov)])
        got = gm.sample(np.random.default_rng(3), 1000)
        normals = np.random.default_rng(3).standard_normal((1000, d))
        expected = mean + normals @ np.linalg.cholesky(cov).T
        np.testing.assert_array_equal(got, expected)

    def test_sample_pdf_consistency_uniform(self):
        box = UniformBox([0.0, 0.0], [2.0, 2.0])
        rng = np.random.default_rng(5)
        pts = box.sample(rng, 100_000)
        sub_lo, sub_hi = np.array([0.2, 0.5]), np.array([1.0, 1.5])
        frac = np.all((pts >= sub_lo) & (pts <= sub_hi), axis=1).mean()
        p = np.prod(sub_hi - sub_lo) / box.volume
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(frac - p) < 4 * se

    def test_sample_pdf_consistency_mixture(self):
        gm = GaussianMixture([(1.0, [2.0], [[4.0]])])
        rng = np.random.default_rng(11)
        pts = gm.sample(rng, 100_000)[:, 0]
        lo, hi = -0.5, 1.5
        frac = ((pts >= lo) & (pts <= hi)).mean()
        p = ndtr((hi - 2) / 2) - ndtr((lo - 2) / 2)
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(frac - p) < 4 * se

    def test_samples_have_positive_pdf(self):
        gm = GaussianMixture([(1.0, [0.0, 0.0], np.eye(2))])
        pts = gm.sample(np.random.default_rng(3), 5000)
        assert np.all(gm.pdf(pts) > 0.0)


class TestFitGaussian:
    def test_square_corners(self):
        samples = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        gm = fit_gaussian(samples)
        np.testing.assert_allclose(gm.mean, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            gm.covariance, np.diag([4.0 / 3.0, 4.0 / 3.0]), rtol=1e-9
        )

    def test_one_dimensional_pair(self):
        gm = fit_gaussian(np.array([[-1.0], [1.0], [0.0]]))
        # mean 0; variance of {-1, 1, 0} with n-1 divisor is 1
        assert gm.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert gm.covariance[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_one_dimensional_array_rejected(self):
        # a 1-d array is not read as n samples of dimension 1
        with pytest.raises(ValueError, match=r"shape \(n, d\)"):
            fit_gaussian(np.array([-1.0, 1.0, 0.0]))

    def test_minimum_sample_count(self):
        with pytest.raises(InsufficientSamplesError, match="insufficient"):
            fit_gaussian(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))

    def test_identical_samples_degenerate(self):
        samples = np.ones((10, 2))
        with pytest.raises(ValueError):
            fit_gaussian(samples)

    def test_recovers_known_gaussian(self):
        rng = np.random.default_rng(99)
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        truth = GaussianMixture([(1.0, mean, cov)])
        n = 10_000
        gm = fit_gaussian(truth.sample(rng, n))
        sigma = np.sqrt(np.diag(cov))
        assert np.all(np.abs(gm.mean - mean) < 4 * sigma / math.sqrt(n))
        np.testing.assert_allclose(gm.covariance, cov, rtol=0.10, atol=0.02)


class TestUnitCubeTransform:
    def test_uniform_box(self):
        box = UniformBox([1.0, -2.0], [3.0, 0.0])
        np.testing.assert_allclose(
            box.from_unit_cube(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])),
            [[1.0, -2.0], [3.0, 0.0], [2.0, -1.0]],
        )

    def test_gaussian_quantiles(self):
        gm = GaussianMixture([(1.0, [1.0, 0.0], np.diag([4.0, 1.0]))])
        mid = gm.from_unit_cube(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(mid, [[1.0, 0.0]], atol=1e-12)
        # 0.8413... quantile of the first coordinate is mean + one sigma
        q = gm.from_unit_cube(np.array([[float(ndtr(1.0)), 0.5]]))
        assert q[0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_multicomponent_rejected(self):
        with pytest.raises(ValueError, match="expected one component"):
            GaussianMixture([(0.5, [0.0], [[1.0]]), (0.5, [2.0], [[1.0]])])


class TestSerialization:
    def test_uniform_roundtrip(self):
        box = UniformBox([0.25, -1.5], [2.0, 3.5])
        doc = json.dumps(box.to_dict())
        assert density_from_dict(json.loads(doc)) == box

    def test_mixture_roundtrip(self):
        gm = GaussianMixture([(1.0, [2.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])])
        doc = json.dumps(gm.to_dict())
        assert density_from_dict(json.loads(doc)) == gm

    def test_type_tags(self):
        assert UniformBox([0], [1]).to_dict()["type"] == "uniform_box"
        gm = GaussianMixture([(1.0, [0.0], [[1.0]])])
        assert gm.to_dict()["type"] == "gaussian_mixture"

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown density type"):
            density_from_dict({"type": "cauchy"})
