import math

import numpy as np
import pytest

from rarefuse import benchmark_constants as bc
from rarefuse.densities import GaussianMixture, UniformBox
from rarefuse.estimators import importance_sampling_estimate, monte_carlo_estimate
from rarefuse.models import (
    LimitState,
    Model,
    benchmark_names,
    get_benchmark,
    make_arrhenius_2d,
    make_linear_gaussian,
    oracle_failure_probability,
)


def failing(b, z):
    """The failure indicator g(hf(z)) < 0 at a batch of points (n, d)."""
    return b.limit_state.evaluate(b.high_fidelity.evaluate(z)) < 0.0


class TestIndicator:
    def test_origin_is_safe_on_linear_gaussian(self):
        b = make_linear_gaussian()
        np.testing.assert_array_equal(failing(b, np.zeros((1, 2))), [False])

    def test_tie_counts_as_safe(self):
        # g == 0 exactly at every point: both estimators count no failure
        model = Model(lambda pts: np.zeros(pts.shape[0]), 1, 1)
        ls = LimitState(lambda y: y[:, 0])
        nominal = UniformBox([0.0], [1.0])
        pts = nominal.sample(np.random.default_rng(0), 100)
        assert np.all(ls.evaluate(model.evaluate(pts)) == 0.0)
        mc = monte_carlo_estimate(model, ls, nominal, 100, np.random.default_rng(1))
        biasing = GaussianMixture([(1.0, [0.5], [[1.0]])])
        is_ = importance_sampling_estimate(
            model, ls, nominal, biasing, 100, np.random.default_rng(2)
        )
        for result in (mc, is_):
            assert (result.estimate, result.hits) == (0.0, 0)

    def test_far_point_fails(self):
        beta, d = 3.5, 2
        b = make_linear_gaussian(beta=beta, d=d)
        z = np.zeros((1, d))
        z[0, 0] = 2 * beta * math.sqrt(d)
        np.testing.assert_array_equal(failing(b, z), [True])

    def test_batch(self):
        b = make_linear_gaussian()
        z = np.array([[0.0, 0.0], [10.0, 10.0]])
        np.testing.assert_array_equal(failing(b, z), [False, True])


class TestOracle:
    def test_linear_gaussian_closed_form(self):
        b = make_linear_gaussian(beta=3.5)
        p = oracle_failure_probability(b)
        # independent check through the complementary error function
        expected = 0.5 * math.erfc(3.5 / math.sqrt(2))
        assert p == pytest.approx(expected, rel=1e-12)
        assert p == pytest.approx(2.32629e-4, rel=1e-5)

    def test_arrhenius_matches_frozen_value(self):
        b = make_arrhenius_2d()
        p = oracle_failure_probability(b, bc.B2_ORACLE_RESOLUTION)
        assert p == pytest.approx(bc.B2_ORACLE_P_4001, rel=1e-6)
        assert 5e-4 <= p <= 5e-3

    def test_arrhenius_grid_refinement_stable(self):
        b = make_arrhenius_2d()
        p_coarse = oracle_failure_probability(b, 2001)
        p_fine = oracle_failure_probability(b, 4001)
        assert abs(p_coarse - p_fine) / p_fine < 0.05

    def test_empty_failure_set_gives_zero(self):
        # threshold above the response's global maximum: nothing fails
        b = make_arrhenius_2d(tau=3000.0)
        assert oracle_failure_probability(b, 501) == 0.0

    def test_resolution_validated(self):
        b = make_arrhenius_2d()
        with pytest.raises(ValueError):
            oracle_failure_probability(b, 50)


class TestBenchmarkStructure:
    def test_registry(self):
        names = benchmark_names()
        assert names == ["arrhenius-2d", "linear-gaussian", "linear-gaussian-2.5"]
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("nope")

    def test_all_models_share_input_dim(self):
        for name in ("linear-gaussian", "arrhenius-2d"):
            b = get_benchmark(name)
            dims = {b.high_fidelity.input_dim} | {s.input_dim for s in b.surrogates}
            assert dims == {b.input_dim}

    def test_useless_surrogate_has_empty_failure_set(self):
        b = make_linear_gaussian()
        rng = np.random.default_rng(0)
        pts = b.nominal.sample(rng, 50_000)
        g = b.limit_state.evaluate(b.surrogates[2].evaluate(pts))
        assert np.all(g > 0)

    def test_evaluation_deterministic(self):
        for name in ("linear-gaussian", "arrhenius-2d"):
            b = get_benchmark(name)
            pts = b.nominal.sample(np.random.default_rng(1), 100)
            first = b.high_fidelity.evaluate(pts)
            second = b.high_fidelity.evaluate(pts.copy())
            np.testing.assert_array_equal(first, second)

    def test_arrhenius_response_range(self):
        # calibration keeps the response smooth and bounded over the domain
        b = make_arrhenius_2d()
        rng = np.random.default_rng(2)
        vals = b.high_fidelity.evaluate(b.nominal.sample(rng, 10_000))
        assert vals.min() > 2300.0
        assert vals.max() < 2500.0


class TestModelValidation:
    def test_input_dim_checked(self):
        m = Model(lambda pts: pts.sum(axis=1), 2, 1)
        with pytest.raises(ValueError):
            m.evaluate(np.zeros((1, 3)))

    def test_single_point_rejected(self):
        m = Model(lambda pts: pts.sum(axis=1), 2, 1)
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            m.evaluate(np.array([1.0, 2.0]))

    def test_limit_state_must_return_one_value_per_row(self):
        # tau - y keeps the QoI column: shape (n, 1), not (n,)
        ls = LimitState(lambda y: 1.0 - y)
        with pytest.raises(ValueError, match=r"shape \(5,\), got \(5, 1\)"):
            ls.evaluate(np.zeros((5, 1)))
        with pytest.raises(ValueError, match="QoI must have shape"):
            LimitState(lambda y: 1.0 - y[:, 0]).evaluate(np.zeros(5))
