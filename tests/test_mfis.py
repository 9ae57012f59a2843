import json
import math

import numpy as np
import pytest

import rarefuse.estimators as est
from rarefuse.cli import _generator, _stream
from rarefuse.densities import GaussianMixture
from rarefuse.mfis import build_biasing_density
from rarefuse.models import LimitState, get_benchmark, make_linear_gaussian

from helpers_oracles import build_biasing_density_once


class TestFallback:
    def test_useless_surrogate_falls_back(self):
        b = make_linear_gaussian()
        rep = build_biasing_density(
            b.surrogates[2], b.limit_state, b.nominal, 5000, np.random.default_rng(0)
        )
        assert rep.fell_back_to_nominal is True
        assert rep.failures_found == 0
        assert rep.density is b.nominal

    def test_zero_budget_falls_back(self):
        b = make_linear_gaussian()
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 0, np.random.default_rng(0)
        )
        assert rep.fell_back_to_nominal is True
        assert rep.samples_drawn == 0

    def test_too_few_failures_falls_back(self):
        # beta large enough that m = 200 draws find < d+2 failures
        b = make_linear_gaussian(beta=3.5)
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 200, np.random.default_rng(1)
        )
        assert rep.fell_back_to_nominal == (rep.failures_found < 4)

    def test_fallback_iff_below_fit_minimum(self):
        b = make_linear_gaussian(beta=2.5)
        for seed in range(5):
            rep = build_biasing_density(
                b.surrogates[1], b.limit_state, b.nominal, 3000,
                np.random.default_rng(seed),
            )
            assert rep.fell_back_to_nominal == (rep.failures_found < 4)


class TestBuild:
    def test_regression_fixture(self):
        # frozen run: default B1, biased surrogate, m = 2e4, seed 0
        b = make_linear_gaussian()
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 20_000,
            np.random.default_rng(0),
        )
        assert rep.failures_found == 9
        assert rep.fell_back_to_nominal is False
        assert isinstance(rep.density, GaussianMixture)

    def test_counts_are_consistent(self):
        b = make_linear_gaussian(beta=2.5)
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 10_000,
            np.random.default_rng(3),
        )
        assert 0 < rep.failures_found <= rep.samples_drawn

    def test_fitted_density_reproducible_from_stream(self):
        # re-derive the failure set from the same stream and check that every
        # contributing point satisfies the relaxed condition, and that the
        # fitted moments match
        b = make_linear_gaussian(beta=2.5)
        relax = 0.3
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 10_000,
            np.random.default_rng(17), threshold_relax=relax,
        )
        pts = b.nominal.sample(np.random.default_rng(17), 10_000)
        g = b.limit_state.evaluate(b.surrogates[0].evaluate(pts))
        failing = pts[g < relax]
        assert failing.shape[0] == rep.failures_found
        assert np.all(
            b.limit_state.evaluate(b.surrogates[0].evaluate(failing)) < relax
        )
        np.testing.assert_allclose(rep.density.mean, failing.mean(axis=0))

    def test_relaxation_monotonicity(self):
        b = make_linear_gaussian(beta=2.5)
        counts = []
        for relax in (0.0, 0.2, 0.5, 1.0):
            rep = build_biasing_density(
                b.surrogates[1], b.limit_state, b.nominal, 10_000,
                np.random.default_rng(9), threshold_relax=relax,
            )
            counts.append(rep.failures_found)
        assert counts == sorted(counts)

    def test_relaxation_must_be_nonnegative(self):
        b = make_linear_gaussian()
        with pytest.raises(ValueError):
            build_biasing_density(
                b.surrogates[0], b.limit_state, b.nominal, 100,
                np.random.default_rng(0), threshold_relax=-0.1,
            )

    @pytest.mark.parametrize("relax", [math.nan, math.inf])
    def test_relaxation_must_be_finite(self, relax):
        # NaN would find no failures and fall back to the nominal silently
        b = make_linear_gaussian()
        with pytest.raises(ValueError, match="finite"):
            build_biasing_density(
                b.surrogates[0], b.limit_state, b.nominal, 100,
                np.random.default_rng(0), threshold_relax=relax,
            )

    def test_limit_state_must_return_one_value_per_row(self):
        # g returning (n, 1) used to crash deep inside on a boolean index
        b = make_linear_gaussian(beta=2.5)
        column = LimitState(lambda y: 2.5 - y)
        with pytest.raises(ValueError, match=r"shape \(1000,\)"):
            build_biasing_density(
                b.surrogates[0], column, b.nominal, 1000, np.random.default_rng(0)
            )

    def test_gaussian_fit_has_full_support(self):
        # fitted biasing density must cover the whole nominal support; a
        # Gaussian has full support by construction (the pdf can
        # underflow to 0.0 only tens of sigmas out, far beyond any draw)
        b = get_benchmark("arrhenius-2d")
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 20_000,
            np.random.default_rng(4),
        )
        assert isinstance(rep.density, GaussianMixture)
        probe = np.array(
            [[1.5e13, 1.5e3], [7.775e12, 5.5e3], [1.4e13, 2.5e3]]
        )
        assert np.all(rep.density.pdf(probe) > 0.0)
        draws = rep.density.sample(np.random.default_rng(0), 5000)
        assert np.all(rep.density.pdf(draws) > 0.0)

    def test_report_serializes(self):
        b = make_linear_gaussian(beta=2.5)
        rep = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 5000,
            np.random.default_rng(2),
        )
        doc = rep.to_dict()
        assert doc["samples_drawn"] == 5000
        assert doc["density"]["type"] == "gaussian_mixture"


class TestChunkedBuild:
    """Bit for bit against the one-shot build: drawing, evaluating and
    filtering in chunks changes no draw, no surrogate value and no fit."""

    RELAX = {"linear-gaussian-2.5": 0.5, "arrhenius-2d": 2.0}

    @pytest.mark.parametrize("name", sorted(RELAX))
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize(
        "chunk, m",
        [(37, 0), (37, 20), (37, 20_000),
         (est._CHUNK, 0), (est._CHUNK, 20_000), (est._CHUNK, 2 * est._CHUNK + 5)],
    )
    def test_matches_one_shot_build(self, monkeypatch, name, relaxed, chunk, m):
        # every model the runner builds from, on the runner's streams
        b = get_benchmark(name)
        relax = self.RELAX[name] if relaxed else None
        monkeypatch.setattr(est, "_CHUNK", chunk)
        models = [*enumerate(b.surrogates), (1000, b.high_fidelity)]
        seeds = _stream(1, [(1, key) for key, _ in models])
        for (_, model), words in zip(models, seeds):
            got, want = (
                build(model, b.limit_state, b.nominal, m, _generator(words), relax)
                for build in (build_biasing_density, build_biasing_density_once)
            )
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            assert got.failures_found == want.failures_found
            assert got.fell_back_to_nominal == want.fell_back_to_nominal

    def test_relaxation_widens_the_compared_builds(self):
        # the relaxed cases above differ from the strict ones
        (words,) = _stream(1, [(1, 0)])
        for name, relax in self.RELAX.items():
            b = get_benchmark(name)
            strict, relaxed = (
                build_biasing_density(
                    b.surrogates[0], b.limit_state, b.nominal, 20_000, _generator(words), r
                ).failures_found
                for r in (None, relax)
            )
            assert relaxed > strict

    def test_draws_in_chunks_read_at_call_time(self, monkeypatch):
        b = get_benchmark("arrhenius-2d")
        cls = type(b.nominal)
        sizes = []
        original = cls.sample

        def spy(self, rng, count):
            sizes.append(count)
            return original(self, rng, count)

        monkeypatch.setattr(cls, "sample", spy)
        monkeypatch.setattr(est, "_CHUNK", 1000)
        build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 2500, np.random.default_rng(0)
        )
        assert sizes == [1000, 1000, 500]
