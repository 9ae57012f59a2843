import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from rarefuse.cli import _subset_row
from rarefuse.models import get_benchmark, make_linear_gaussian
from rarefuse.models import oracle_failure_probability
from rarefuse.subset_sim import (
    _chain_correlation_factor,
    _grow_chains,
    _metropolis_move,
    subset_simulation,
)

from helpers_oracles import chain_correlation_factor_loop, subset_simulation_loop


NO_G = np.full(1, np.nan)  # the current g of a single chain; never asserted on


def g_sum(pts):
    return pts.sum(axis=1)


class TestMcmcConditionalStep:
    def test_zero_width_returns_input(self):
        state = np.array([[0.3, 0.7]])
        out, _ = _metropolis_move(
            state, NO_G, 2.0, 0.0, np.random.default_rng(0), g_sum
        )
        np.testing.assert_array_equal(out, state)

    def test_never_leaves_conditioning_set(self):
        threshold = 0.6  # g(u) = u1 + u2
        state = np.array([[0.1, 0.1]])
        rng = np.random.default_rng(1)
        for _ in range(500):
            state, _ = _metropolis_move(state, NO_G, threshold, 0.5, rng, g_sum)
            assert g_sum(state)[0] <= threshold
            assert np.all((state >= 0.0) & (state <= 1.0))

    def test_unconstrained_walk_is_uniform(self):
        # threshold +inf: pure reflected random walk, stationary law uniform;
        # chi-square over a 10x10 binning at the 1% level
        rng = np.random.default_rng(42)
        state = np.full((1, 2), 0.5)
        counts = np.zeros((10, 10))
        steps = 100_000
        for _ in range(steps):
            state, _ = _metropolis_move(
                state, NO_G, math.inf, 0.5, rng, lambda u: np.zeros(u.shape[0])
            )
            i = min(int(state[0, 0] * 10), 9)
            j = min(int(state[0, 1] * 10), 9)
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
        )
        assert res.levels == 1
        assert [s["threshold"] for s in res.level_stats] == [0.0]
        hits = res.level_stats[0]["failures"]
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
            np.random.default_rng(3),
        )
        hits = res.level_stats[-1]["failures"]
        assert res.estimate == 0.1 ** (res.levels - 1) * (hits / 1000)

    def test_thresholds_strictly_decreasing_to_zero(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(8),
        )
        assert res.converged
        thresholds = [s["threshold"] for s in res.level_stats]
        assert thresholds[-1] == 0.0
        diffs = np.diff(thresholds)
        assert np.all(diffs < 0)

    def test_nestedness_of_seed_sets(self):
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 1000, 0.1, 12,
            np.random.default_rng(2),
        )
        stats = res.level_stats
        assert len(stats) == res.levels > 2
        for level in range(len(stats) - 1):
            b_next = stats[level]["threshold"]
            # the next level, grown from this level's seeds, stays inside
            # this level's failure set
            assert stats[level + 1]["g_max"] <= b_next
            if level > 0:
                assert b_next < stats[level - 1]["threshold"]

    def test_model_eval_accounting(self):
        b = get_benchmark("arrhenius-2d")
        calls = {"n": 0}
        inner = b.high_fidelity

        class Probe:
            input_dim = inner.input_dim
            output_dim = inner.output_dim

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

    def test_first_level_record_describes_the_nominal_draws(self):
        # level 1 is the first N unit-cube draws of the generator, mapped to
        # the input space; its record counts their failures and largest g
        b = get_benchmark("arrhenius-2d")
        res = subset_simulation(
            b.high_fidelity, b.limit_state, b.nominal, 500, 0.1, 2,
            np.random.default_rng(0),
        )
        u = np.random.default_rng(0).random((500, b.nominal.d))
        g = b.limit_state.evaluate(b.high_fidelity.evaluate(b.nominal.from_unit_cube(u)))
        first = res.level_stats[0]
        assert first["failures"] == np.count_nonzero(g < 0.0)
        assert first["g_max"] == g.max()
        assert first["threshold"] == np.sort(g)[49]
        assert first["p_level"] == np.count_nonzero(g <= first["threshold"]) / 500
        assert first["gamma"] == 0.0

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
        row = _subset_row(res, 500)
        assert row["samples"] == 500 * res.levels
        assert row["samples_each_level"] == 500
        assert set(row) == {
            "samples",
            "samples_each_level",
            "levels",
            "estimate",
            "approx_cv",
            "converged",
            "model_evals",
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

    def test_duck_typed_nominal(self):
        # the nominal needs only its dimension and the unit-cube map
        b = get_benchmark("arrhenius-2d")

        class CubeMap:
            d = b.nominal.d

            def from_unit_cube(self, u):
                return b.nominal.from_unit_cube(u)

        runs = [
            subset_simulation(
                b.high_fidelity, b.limit_state, nominal, 500, 0.1, 12,
                np.random.default_rng(5),
            )
            for nominal in (b.nominal, CubeMap())
        ]
        assert runs[0] == runs[1]


    @pytest.mark.parametrize(
        "name, N, p0, max_levels, seed, converged",
        [
            ("arrhenius-2d", 1000, 0.1, 12, 3, True),
            ("arrhenius-2d", 500, 0.1, 2, 0, False),
            ("arrhenius-2d", 1001, 0.13, 12, 4, True),  # p0 * N = 130.13
            ("linear-gaussian", 1000, 0.1, 12, 1, True),
            # stalls: from level 6 on every sample is a seed and b repeats
            ("linear-gaussian", 700, 0.15, 12, 1, False),
            ("linear-gaussian", 333, 0.17, 3, 2, False),  # p0 * N = 56.61
        ],
    )
    def test_matches_flat_loop_reference(self, name, N, p0, max_levels, seed, converged):
        b = get_benchmark(name)
        runs = [
            run(b.high_fidelity, b.limit_state, b.nominal, N, p0, max_levels,
                np.random.default_rng(seed))
            for run in (subset_simulation, subset_simulation_loop)
        ]
        assert runs[0].converged is converged
        for attr in ("estimate", "levels", "total_model_evals", "approx_cv",
                     "converged", "level_stats"):
            assert getattr(runs[0], attr) == getattr(runs[1], attr), attr


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
            # the same chains as rows of a grid, zero past each chain's end
            filled = np.arange(max(lengths)) < np.array(lengths)[:, None]
            ind_grid = np.zeros(filled.shape)
            ind_grid[filled] = ind
            assert _chain_correlation_factor(ind_grid, filled) == (
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

        grid, g_grid, filled = _grow_chains(
            seeds, seeds.sum(axis=1), threshold, n_total, width, rng, g_of_points
        )
        # 103 = 10 * 10 + 3: all ten chains take nine moves, the first three one more
        assert filled.sum(axis=1).tolist() == [11] * 3 + [10] * 7
        assert call_sizes == [10] * 9 + [3]
        assert n_total - n_seeds == sum(call_sizes)
        points, g_vals = grid[filled], g_grid[filled]
        assert points.shape == (n_total, 2)
        np.testing.assert_array_equal(g_vals, points.sum(axis=1))
        assert np.all(g_vals <= threshold)
        assert np.all((points >= 0.0) & (points <= 1.0))
        np.testing.assert_array_equal(grid[:, 0], seeds)
