import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from rarefuse.cli import _generator, _stream
from rarefuse.densities import (
    GaussianMixture,
    InsufficientSamplesError,
    UniformBox,
    fit_gaussian,
)
from rarefuse.estimators import _CHUNK
from rarefuse.mfis import build_biasing_density
from rarefuse.models import benchmark_names, get_benchmark, make_linear_gaussian

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

    @pytest.mark.parametrize(
        "lower, upper", [([-math.inf, 0.0], [0.0, 1.0]), ([0.0, -1e308], [1.0, 1e308])]
    )
    def test_infinite_width_rejected(self, lower, upper):
        # sample would draw inf or nan, where rng.uniform refused the range
        with pytest.raises(ValueError, match="finite"):
            UniformBox(lower, upper)

    def test_matches_where_form_inside_outside_and_on_the_edges(self):
        box = UniformBox([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.5, 3.5, (400, 3))
        pts[:100] = box.sample(rng, 100)
        pts[100] = box.lower
        pts[101] = box.upper
        pts[102:110, 0] = box.upper[0]  # on a face
        pts[110:120] = np.nextafter(box.upper, math.inf)  # just outside
        pts[120:130] = np.nextafter(box.lower, -math.inf)
        pts[130, 1] = math.nan
        inside = np.all((pts >= box.lower) & (pts <= box.upper), axis=1)
        expected = np.where(inside, 1.0 / box.volume, 0.0)
        assert 100 < inside.sum() < 300
        assert box.pdf(pts).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize(
        "mean, cov, name",
        [
            ([math.nan, 0.0], np.eye(2), "mean"),
            ([math.inf, 0.0], np.eye(2), "mean"),
            ([0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]], "covariance"),
            # a NaN off-diagonal passes the symmetry check: nan > tol is false
            ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]], "covariance"),
            ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]], "covariance"),
        ],
    )
    def test_non_finite_parameters_rejected_by_name(self, mean, cov, name):
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            GaussianMixture([(1.0, mean, cov)])


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

    @pytest.mark.parametrize("count", [0, 1, 75, 1000])
    @pytest.mark.parametrize(
        "box",
        [get_benchmark("arrhenius-2d").nominal, UniformBox([-3.0, 0.5, -1e-3], [2.0, 7.0, 1e-3])],
        ids=["arrhenius-2d", "3d"],
    )
    def test_uniform_sample_matches_rng_uniform(self, box, count):
        # bit for bit, and the generator is left at the same stream position
        a, b = np.random.default_rng(count), np.random.default_rng(count)
        got = box.sample(a, count)
        expected = b.uniform(box.lower, box.upper, size=(count, box.d))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert a.random() == b.random()

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

    def test_non_finite_sample_rejected(self):
        samples = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [math.nan, 1.0]])
        with pytest.raises(ValueError, match="mean entries must be finite"):
            fit_gaussian(samples)

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


class TestStoredFactors:
    """sample, pdf and from_unit_cube through the stored C-contiguous
    factors give the bits of the plain forms through ``L.T`` and
    ``inv(L).T``, on every Gaussian density the runner builds.

    The plain forms agree with them for two or more points.  For one point
    NumPy hands the product to BLAS as a matrix-vector product, and through
    the transposed view that product could differ in the last bit from the
    same row of a batch; through the stored factors it does not, so a point
    gets the same bits whatever chunk it falls in.
    """

    @pytest.fixture(scope="class")
    def densities(self):
        out = []
        for name in ("linear-gaussian", "linear-gaussian-2.5", "arrhenius-2d"):
            b = get_benchmark(name)
            if isinstance(b.nominal, GaussianMixture):
                out.append((b, b.nominal))
            models = [*enumerate(b.surrogates), (1000, b.high_fidelity)]
            for seed in (1, 3, 7, 11):
                seeds = _stream(seed, [(1, key) for key, _ in models])
                for (_, model), words in zip(models, seeds):
                    rep = build_biasing_density(
                        model, b.limit_state, b.nominal, 20_000, _generator(words)
                    )
                    if not rep.fell_back_to_nominal:
                        out.append((b, rep.density))
        assert len(out) > 20
        return out

    @pytest.mark.parametrize("n", [2, 1000, 5000])
    def test_match_plain_forms(self, densities, n):
        for b, gm in densities:
            L = np.linalg.cholesky(gm.covariance)
            log_norm = -0.5 * (gm.d * math.log(2.0 * math.pi) + 2.0 * np.sum(np.log(np.diag(L))))

            want = np.random.default_rng(n).standard_normal((n, gm.d)) @ L.T
            want += gm.mean
            got = gm.sample(np.random.default_rng(n), n)
            assert got.tobytes() == want.tobytes()

            # at the density's own draws and at nominal draws, far out in its tails
            pts = np.concatenate([got, b.nominal.sample(np.random.default_rng(n + 1), n)])
            y = (pts - gm.mean) @ np.linalg.inv(L).T
            want = np.exp(log_norm - 0.5 * np.einsum("ij,ij->i", y, y))
            assert gm.pdf(pts).tobytes() == want.tobytes()

            u = np.random.default_rng(n + 2).random((n, gm.d))
            want = gm.mean + ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)) @ L.T
            assert gm.from_unit_cube(u).tobytes() == want.tobytes()

    def test_one_point_matches_its_row_in_a_batch(self, densities):
        n = 300
        for b, gm in densities:
            rng = np.random.default_rng(5)
            batch = gm.sample(np.random.default_rng(5), n)
            single = np.concatenate([gm.sample(rng, 1) for _ in range(n)])
            assert single.tobytes() == batch.tobytes()
            pts = np.concatenate([batch, b.nominal.sample(np.random.default_rng(6), n)])
            single = np.concatenate([gm.pdf(pts[i : i + 1]) for i in range(2 * n)])
            assert single.tobytes() == gm.pdf(pts).tobytes()
            u = np.random.default_rng(7).random((n, gm.d))
            single = np.concatenate([gm.from_unit_cube(u[i : i + 1]) for i in range(n)])
            assert single.tobytes() == gm.from_unit_cube(u).tobytes()


def _layout_densities():
    """Each registered nominal, a Gaussian fitted in its domain, and two
    3-d densities."""
    rng = np.random.default_rng(0)
    out = [
        UniformBox([-3.0, 0.5, -1e-3], [2.0, 7.0, 1e-3]),
        GaussianMixture([(1.0, [1.0, -2.0, 0.5], random_spd(rng, 3))]),
    ]
    for name in benchmark_names():
        nominal = get_benchmark(name).nominal
        out += [nominal, fit_gaussian(nominal.sample(rng, 50))]
    return out


class TestColumnMajorBatches:
    """``sample`` and ``from_unit_cube`` hand out (n, d) batches column-major,
    and memory order changes no value at d <= 2: pdf, every registered
    model and every limit state give the same bits on a C copy and an F
    copy of the same points."""

    @pytest.mark.parametrize("n", [2, 300])
    @pytest.mark.parametrize(
        "density", _layout_densities(), ids=lambda q: f"{type(q).__name__}-d{q.d}"
    )
    def test_batches_are_column_major(self, density, n):
        rng = np.random.default_rng(n)
        u = rng.random((2 * n, density.d))
        # from_unit_cube of a C-ordered and of a strided unit-cube batch
        batches = [density.from_unit_cube(u[:n]), density.from_unit_cube(u[::2])]
        for pts in (density.sample(rng, n), *batches):
            assert pts.shape == (n, density.d)
            assert pts.flags.f_contiguous

    @pytest.mark.parametrize("n", [1, 300, _CHUNK + 3])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_pdf_same_bits_in_either_order(self, name, n):
        nominal = get_benchmark(name).nominal
        rng = np.random.default_rng(n)
        gm = fit_gaussian(nominal.sample(rng, 50))
        own = gm.sample(rng, n)
        # draws of both, and points three times as far from the fitted mean
        pts = np.concatenate([nominal.sample(rng, n), own, gm.mean + 3.0 * (own - gm.mean)])
        c, f = np.ascontiguousarray(pts), np.asfortranarray(pts)
        for density in (nominal, gm):
            assert density.pdf(c).tobytes() == density.pdf(f).tobytes()

    @pytest.mark.parametrize("n", [1, 300, _CHUNK + 3])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_models_and_limit_state_same_bits_in_either_order(self, name, n):
        b = get_benchmark(name)
        pts = b.nominal.sample(np.random.default_rng(n), n)
        c, f = np.ascontiguousarray(pts), np.asfortranarray(pts)
        for model in (b.high_fidelity, *b.surrogates):
            qoi = model.evaluate(c)
            assert qoi.tobytes() == model.evaluate(f).tobytes()
            g = b.limit_state.evaluate(np.ascontiguousarray(qoi))
            assert g.tobytes() == b.limit_state.evaluate(np.asfortranarray(qoi)).tobytes()

    @pytest.mark.parametrize("d", [3, 50])
    def test_pdf_near_the_row_major_form_above_two_dimensions(self, d):
        # At d >= 3 the quadratic form over a column-major batch may round
        # some rows differently from the same form over a C-ordered one;
        # at a density's own draws the pdfs differ by a few ulps.
        rng = np.random.default_rng(d)
        gm = GaussianMixture([(1.0, rng.standard_normal(d), random_spd(rng, d))])
        pts = gm.sample(rng, 5000)
        L = np.linalg.cholesky(gm.covariance)
        log_norm = -0.5 * (d * math.log(2.0 * math.pi) + 2.0 * np.sum(np.log(np.diag(L))))
        y = (np.ascontiguousarray(pts) - gm.mean) @ np.ascontiguousarray(np.linalg.inv(L).T)
        want = np.exp(log_norm - 0.5 * np.einsum("ij,ij->i", y, y))
        np.testing.assert_allclose(gm.pdf(pts), want, rtol=1e-12, atol=0.0)


class TestStandardNormal:
    """A Gaussian with mean exactly 0 and covariance exactly I stores no
    factor.  Its sample, pdf and from_unit_cube give the bits of the general
    path, formed here by hand through ``np.linalg.cholesky(np.eye(d))``
    with the densities' column-major products, on C- and F-ordered input."""

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("d", [2, 3, 50])
    def test_same_bits_as_the_general_path(self, d, n):
        L = np.linalg.cholesky(np.eye(d))
        chol_t = np.ascontiguousarray(L.T)
        whiten = np.ascontiguousarray(np.linalg.inv(L).T)
        log_norm = -0.5 * (d * math.log(2.0 * math.pi) + 2.0 * float(np.sum(np.log(np.diag(L)))))
        mean = np.zeros(d)

        def color(normals):
            out = np.matmul(normals, chol_t, out=np.empty((d, len(normals))).T)
            out += mean
            return out

        gm = GaussianMixture([(1.0, np.zeros(d), np.eye(d))])
        got = gm.sample(np.random.default_rng(n), n)
        want = color(np.random.default_rng(n).standard_normal((n, d)))
        assert got.tobytes() == want.tobytes() and got.flags.f_contiguous

        rng = np.random.default_rng(d)
        pts = 3.0 * rng.standard_normal((n, d))
        y = np.matmul(pts - mean, whiten, out=np.empty((d, n)).T)
        want = np.einsum("ij,ij->i", y, y)
        want *= -0.5
        want += log_norm
        np.exp(want, out=want)
        u = rng.random((n, d))
        cube = color(ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)))
        for order in (np.ascontiguousarray, np.asfortranarray):
            assert gm.pdf(order(pts)).tobytes() == want.tobytes()
            got = gm.from_unit_cube(order(u))
            assert got.tobytes() == cube.tobytes() and got.flags.f_contiguous

    @pytest.mark.parametrize(
        "change",
        ["diagonal up", "diagonal down", "off-diagonal", "mean one ulp", "mean"],
    )
    def test_anything_else_takes_the_general_path(self, monkeypatch, change):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        GaussianMixture([(1.0, np.zeros(3), np.eye(3))])
        assert calls == []
        mean, cov = np.zeros(3), np.eye(3)
        if change == "diagonal up":
            cov[1, 1] = np.nextafter(1.0, 2.0)
        elif change == "diagonal down":
            cov[1, 1] = np.nextafter(1.0, 0.0)
        elif change == "off-diagonal":
            cov[0, 2] = cov[2, 0] = 5e-324
        else:
            mean[2] = 5e-324 if change == "mean one ulp" else -1.5
        GaussianMixture([(1.0, mean, cov)])
        assert len(calls) == 1

    def test_nominal_at_d1500_has_no_factor(self, monkeypatch):
        def refuse(a):
            raise AssertionError("no factor for a standard normal")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        nominal = make_linear_gaussian(d=1500).nominal
        pts = nominal.sample(np.random.default_rng(0), 4)
        assert pts.tobytes() == np.random.default_rng(0).standard_normal((4, 1500)).tobytes()
        assert nominal.pdf(pts).tolist() == [0.0] * 4  # underflows at d = 1500


class TestSerialization:
    def test_uniform_fields(self):
        doc = json.loads(json.dumps(UniformBox([0.25, -1.5], [2.0, 3.5]).to_dict()))
        assert doc == {"type": "uniform_box", "lower": [0.25, -1.5], "upper": [2.0, 3.5]}

    def test_mixture_fields(self):
        cov = [[2.0, 0.3], [0.3, 1.0]]
        gm = GaussianMixture([(1.0, [2.0, 2.0], cov)])
        assert json.loads(json.dumps(gm.to_dict())) == {
            "type": "gaussian_mixture",
            "components": [{"weight": 1.0, "mean": [2.0, 2.0], "covariance": cov}],
        }

    def test_type_tags(self):
        assert UniformBox([0], [1]).to_dict()["type"] == "uniform_box"
        gm = GaussianMixture([(1.0, [0.0], [[1.0]])])
        assert gm.to_dict()["type"] == "gaussian_mixture"


class TestUnitCubeBatches:
    """``from_unit_cube`` takes (n, d) batches of any memory layout and
    refuses every other shape."""

    @pytest.mark.parametrize("n", [1, 200, 2**14 + 3])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_box_gives_the_bits_of_the_affine_map(self, n, layout):
        box = UniformBox([1.0e13, -2.0, 0.25], [3.7e13, 5.0, 0.5])
        u = np.random.default_rng(n).random((2 * n, 6))
        u = {"C": np.ascontiguousarray(u[:n, :3]), "F": np.asfortranarray(u[:n, :3]),
             "strided": u[::2, ::2]}[layout]
        want = box.lower + (box.upper - box.lower) * u
        got = box.from_unit_cube(u)
        assert got.shape == (n, 3) and got.flags.f_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "density",
        [UniformBox([0.0, 0.0], [1.0, 2.0]), GaussianMixture([(1.0, [0.0, 1.0], np.eye(2))])],
        ids=["box", "gaussian"],
    )
    @pytest.mark.parametrize(
        "u", [[[0.5], [0.25]], [0.5, 0.25], [[0.5, 0.25, 0.1]]], ids=["(n, 1)", "1-d", "(n, d+1)"]
    )
    def test_wrong_shape_refused(self, density, u):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
            density.from_unit_cube(np.array(u))


class TestSymmetryCheck:
    def test_d1500_nominal_builds_without_a_square_temporary(self):
        cov = np.eye(1500)  # 18 MB, allocated before the trace
        tracemalloc.start()
        try:
            GaussianMixture([(1.0, np.zeros(1500), cov)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6  # measured 3.1 MB; a d x d float temporary is 18 MB

    def test_asymmetry_in_the_last_block_refused(self):
        cov = np.eye(300)
        cov[299, 290] = 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixture([(1.0, np.zeros(300), cov)])
        cov[290, 299] = 1e-9
        GaussianMixture([(1.0, np.zeros(300), cov)])
