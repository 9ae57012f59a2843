import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from rarefuse.densities import GaussianMixture, UniformBox
from rarefuse.models import LimitState, Model, get_benchmark, make_linear_gaussian
from rarefuse.models import oracle_failure_probability
from rarefuse.subset_sim import (
    _chain_correlation_factor,
    _grow_chains,
    mcmc_conditional_step,
    subset_simulation,
    unit_cube_transform,
)

from helpers_oracles import chain_correlation_factor_loop


def cube_model(fn, d=2):
    """Model acting directly on unit-cube coordinates."""
    return Model(fn, d, 1)


class TestUnitCubeTransform:
    def test_uniform_box(self):
        box = UniformBox([1.0, -2.0], [3.0, 0.0])
        transform, d = unit_cube_transform(box)
        np.testing.assert_allclose(
            transform(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])),
            [[1.0, -2.0], [3.0, 0.0], [2.0, -1.0]],
        )

    def test_gaussian_quantiles(self):
        gm = GaussianMixture([(1.0, [1.0, 0.0], np.diag([4.0, 1.0]))])
        transform, d = unit_cube_transform(gm)
        mid = transform(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(mid, [[1.0, 0.0]], atol=1e-12)
        # 0.8413... quantile of the first coordinate is mean + one sigma
        from scipy.special import ndtr

        q = transform(np.array([[float(ndtr(1.0)), 0.5]]))
        assert q[0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_multicomponent_rejected(self):
        gm = GaussianMixture(
            [(0.5, [0.0], [[1.0]]), (0.5, [2.0], [[1.0]])]
        )
        with pytest.raises(ValueError, match="transformable"):
            unit_cube_transform(gm)


class TestMcmcConditionalStep:
    def test_zero_width_returns_input(self):
        model = cube_model(lambda pts: pts.sum(axis=1))
        ls = LimitState(lambda y: y[:, 0])
        state = np.array([0.3, 0.7])
        out = mcmc_conditional_step(
            state, 2.0, model, ls, 0.0, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(out, state)

    def test_never_leaves_conditioning_set(self):
        model = cube_model(lambda pts: pts.sum(axis=1))
        ls = LimitState(lambda y: y[:, 0])  # g(u) = u1 + u2
        threshold = 0.6
        state = np.array([0.1, 0.1])
        rng = np.random.default_rng(1)
        for _ in range(500):
            state = mcmc_conditional_step(state, threshold, model, ls, 0.5, rng)
            assert model.evaluate(state)[0] <= threshold
            assert np.all((state >= 0.0) & (state <= 1.0))

    def test_unconstrained_walk_is_uniform(self):
        # threshold +inf: pure reflected random walk, stationary law uniform;
        # chi-square over a 10x10 binning at the 1% level
        model = cube_model(lambda pts: np.zeros(pts.shape[0]))
        ls = LimitState(lambda y: y[:, 0])
        rng = np.random.default_rng(42)
        state = np.full(2, 0.5)
        counts = np.zeros((10, 10))
        steps = 100_000
        for _ in range(steps):
            state = mcmc_conditional_step(state, math.inf, model, ls, 0.5, rng)
            i = min(int(state[0] * 10), 9)
            j = min(int(state[1] * 10), 9)
            counts[i, j] += 1
        expected = steps / 100
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, 99)


class TestSubsetSimulation:
    def test_single_level_degenerates_to_plain_mc(self):
        # failure probability ~0.24 > p0: level 1 already crosses zero
        b = make_linear_gaussian(beta=0.7)
        rng = np.random.default_rng(0)
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 2000, 0.1, 12, rng,
            keep_samples=True,
        )
        assert res.levels == 1
        assert res.thresholds == [0.0]
        hits = int((res.level_stats[0]["g_values"] < 0).sum())
        assert res.estimate == hits / 2000

    def test_level_count_brackets_linear_gaussian(self):
        b = make_linear_gaussian(beta=3.5)
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 2000, 0.1, 12,
            np.random.default_rng(1000),
        )
        # P ~ 2.33e-4 lies between p0^4 and p0^3, so four levels are expected
        assert res.levels == 4
        assert res.converged

    def test_modal_level_count_over_ten_seeds(self):
        b = make_linear_gaussian(beta=3.5)
        p = oracle_failure_probability(b)
        expected_levels = math.ceil(math.log(p) / math.log(0.1))
        counts = Counter(
            subset_simulation(
                b.high_fidelity, b.limit_state, b.nominal, 2000, 0.1, 12,
                np.random.default_rng(1000 + s),
            ).levels
            for s in range(10)
        )
        modal = counts.most_common(1)[0][0]
        assert modal == expected_levels == 4

    def test_estimate_form_is_exact(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(3), keep_samples=True,
        )
        hits = int((res.level_stats[-1]["g_values"] < 0.0).sum())
        assert res.estimate == 0.1 ** (res.levels - 1) * (hits / 1000)

    def test_thresholds_strictly_decreasing_to_zero(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(8),
        )
        assert res.converged
        assert res.thresholds[-1] == 0.0
        diffs = np.diff(res.thresholds)
        assert np.all(diffs < 0)

    def test_nestedness_of_seed_sets(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(2), keep_samples=True,
        )
        for level, stats in enumerate(res.level_stats[:-1]):
            b_next = res.thresholds[level]
            seeds_g = stats["g_values"][stats["seed_mask"]]
            # seeds for the next level lie inside this level's failure set
            assert np.all(seeds_g <= b_next)
            if level > 0:
                assert b_next < res.thresholds[level - 1]

    def test_model_eval_accounting(self):
        b = get_benchmark("arrhenius-2d")
        calls = {"n": 0}
        inner = b.high_fidelity

        class Probe:
            input_dim = inner.input_dim
            output_dim = inner.output_dim
            cost_tag = inner.cost_tag

            def evaluate(self, z):
                z = np.asarray(z)
                calls["n"] += 1 if z.ndim == 1 else z.shape[0]
                return inner.evaluate(z)

        res = subset_simulation(
            Probe(), b.limit_state, b.nominal, 500, 0.1, 12,
            np.random.default_rng(4),
        )
        assert res.total_model_evals == calls["n"]

    def test_not_converged_flagged(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 500, 0.1, 2,
            np.random.default_rng(0),
        )
        assert res.converged is False
        assert res.levels == 2
        assert math.isinf(res.approx_cv)

    def test_input_validation(self):
        b = get_benchmark("arrhenius-2d")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            subset_simulation(b.high_fidelity, b.limit_state, b.nominal, 50, 0.1, 12, rng)
        with pytest.raises(ValueError):
            subset_simulation(b.high_fidelity, b.limit_state, b.nominal, 500, 1.5, 12, rng)

    def test_csv_row_columns(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 500, 0.1, 12,
            np.random.default_rng(1),
        )
        row = res.csv_row()
        assert row["samples"] == 500 * res.levels
        assert row["samples_each_level"] == 500
        assert set(row) == {
            "samples",
            "samples_each_level",
            "levels",
            "estimate",
            "approx_cv",
        }

    def test_gaussian_nominal_supported(self):
        b = make_linear_gaussian(beta=2.0)
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(6),
        )
        p = oracle_failure_probability(b)
        assert res.converged
        assert abs(res.estimate - p) < 4 * res.approx_cv * p


class TestChainKernel:
    def test_gamma_matches_loop_reference_exactly(self):
        rng = np.random.default_rng(11)
        shorter_than_lag = 0
        for trial in range(300):
            n_chains = int(rng.integers(1, 40))
            if trial % 2:
                # _grow_chains layout: floor(N/Nc), remainder to the first chains
                base = int(rng.integers(1, 30))
                rem = int(rng.integers(0, n_chains))
                lengths = [base + 1 if c < rem else base for c in range(n_chains)]
            else:
                lengths = rng.integers(1, 40, size=n_chains).tolist()
            n = sum(lengths)
            if rng.random() < 0.5:
                ind = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
            else:  # sticky runs, as correlated chains produce
                flips = rng.random(n) < 0.1
                ind = (np.cumsum(flips) % 2).astype(float)
            if n // n_chains - 1 > min(lengths):
                shorter_than_lag += 1
            assert _chain_correlation_factor(ind, lengths) == (
                chain_correlation_factor_loop(ind, lengths)
            )
        assert shorter_than_lag > 0

    def test_grow_chains_contract(self):
        threshold, width = 0.8, 0.3
        rng = np.random.default_rng(5)
        candidates = rng.random((200, 2))
        seeds = candidates[candidates.sum(axis=1) <= threshold][:10]
        n_seeds, n_total = seeds.shape[0], 103
        assert n_seeds == 10
        call_sizes = []

        def g_of_points(u):
            call_sizes.append(u.shape[0])
            return u.sum(axis=1)

        points, g_vals, evals, lengths = _grow_chains(
            seeds, seeds.sum(axis=1), threshold, n_total, width, rng, g_of_points
        )
        # 103 = 10 * 10 + 3: all ten chains take nine moves, the first three one more
        assert lengths == [11] * 3 + [10] * 7
        assert call_sizes == [10] * 9 + [3]
        assert evals == n_total - n_seeds == sum(call_sizes)
        assert points.shape == (n_total, 2)
        np.testing.assert_array_equal(g_vals, points.sum(axis=1))
        assert np.all(g_vals <= threshold)
        assert np.all((points >= 0.0) & (points <= 1.0))
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        np.testing.assert_array_equal(points[starts], seeds)
