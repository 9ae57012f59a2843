import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import rarefuse.estimators as est
from rarefuse.cli import _estimate_row, _generator, _stream
from rarefuse.densities import GaussianMixture, UniformBox, fit_gaussian
from rarefuse.estimators import (
    BrokenBiasingDensityError,
    UndefinedCVError,
    cv,
    importance_sampling_estimate,
    monte_carlo_estimate,
    rmse,
    theoretical_mc_cv,
)
from rarefuse.mfis import build_biasing_density
from rarefuse.models import LimitState, Model, get_benchmark, make_linear_gaussian
from rarefuse.subset_sim import subset_simulation

from helpers_oracles import importance_sampling_loop


def shifted_gaussian(beta, d=2):
    """Biasing density centered on the failure boundary of the sum benchmark."""
    return GaussianMixture([(1.0, (beta / math.sqrt(d)) * np.ones(d), np.eye(d))])


def always_failing():
    model = Model(lambda pts: pts.sum(axis=1), 2, 1)
    ls = LimitState(lambda y: -np.ones(y.shape[0]))
    return model, ls


def never_failing():
    model = Model(lambda pts: pts.sum(axis=1), 2, 1)
    ls = LimitState(lambda y: np.ones(y.shape[0]))
    return model, ls


def failing_where_first_coordinate_positive():
    model = Model(lambda pts: pts[:, 0], 2, 1)
    ls = LimitState(lambda y: -y[:, 0])
    return model, ls


class Flat:
    """Full-support density on R^2 that draws standard normals and reports
    the pdf ``value(points)``, or a constant."""

    full_support = True

    def __init__(self, value):
        self.value = value

    def sample(self, rng, count):
        return rng.standard_normal((count, 2))

    def pdf(self, z):
        if callable(self.value):
            return self.value(z)
        return np.full(np.shape(z)[0], self.value)


class TestMonteCarlo:
    def test_never_failing_gives_zero(self):
        model, ls = never_failing()
        box = UniformBox([0, 0], [1, 1])
        r = monte_carlo_estimate(model, ls, box, 500, np.random.default_rng(0))
        assert r.estimate == 0.0 and r.hits == 0 and r.sample_variance == 0.0

    def test_always_failing_gives_one(self):
        model, ls = always_failing()
        box = UniformBox([0, 0], [1, 1])
        for n in (1, 500):  # n=1 has no n-1 divisor
            r = monte_carlo_estimate(model, ls, box, n, np.random.default_rng(0))
            assert r.estimate == 1.0 and r.sample_variance == 0.0

    def test_estimate_is_hits_over_n(self):
        b = make_linear_gaussian(beta=2.0)
        r = monte_carlo_estimate(
            b.high_fidelity, b.limit_state, b.nominal, 4000, np.random.default_rng(1)
        )
        assert r.estimate == r.hits / r.n

    def test_matches_normal_tail_at_beta_two(self):
        b = make_linear_gaussian(beta=2.0)
        n = 1_000_000
        r = monte_carlo_estimate(
            b.high_fidelity, b.limit_state, b.nominal, n, np.random.default_rng(42)
        )
        p = float(ndtr(-2.0))
        assert abs(r.estimate - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_sample_variance_formula(self):
        b = make_linear_gaussian(beta=1.0)
        r = monte_carlo_estimate(
            b.high_fidelity, b.limit_state, b.nominal, 100, np.random.default_rng(5)
        )
        expected = (100 / 99) * r.estimate * (1 - r.estimate)
        assert r.sample_variance == pytest.approx(expected, rel=1e-15)

    def test_n_validation(self):
        b = make_linear_gaussian()
        with pytest.raises(ValueError):
            monte_carlo_estimate(
                b.high_fidelity, b.limit_state, b.nominal, 0, np.random.default_rng(0)
            )


class TestImportanceSampling:
    def test_nominal_biasing_equals_monte_carlo(self):
        # likelihood ratio is identically 1, so feeding the identical sample
        # stream must reproduce the plain MC estimate exactly
        for name in ("linear-gaussian", "arrhenius-2d"):
            b = get_benchmark(name)
            for seed, n in ((0, 500), (7, 2000)):
                mc = monte_carlo_estimate(
                    b.high_fidelity, b.limit_state, b.nominal, n,
                    np.random.default_rng(seed),
                )
                is_ = importance_sampling_estimate(
                    b.high_fidelity, b.limit_state, b.nominal, b.nominal, n,
                    np.random.default_rng(seed),
                )
                assert is_.estimate == mc.estimate
                assert is_.hits == mc.hits

    def test_close_to_oracle_with_shifted_biasing(self):
        b = make_linear_gaussian(beta=3.5)
        q = shifted_gaussian(3.5)
        r = importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, q, 10_000,
            np.random.default_rng(21),
        )
        p = float(ndtr(-3.5))
        assert abs(r.estimate - p) < 4 * rmse(r)

    def test_regression_fixture(self):
        # frozen run: beta 3.5, shifted biasing, n = 1e4, seed 21
        b = make_linear_gaussian(beta=3.5)
        q = shifted_gaussian(3.5)
        r = importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, q, 10_000,
            np.random.default_rng(21),
        )
        assert r.estimate == pytest.approx(2.3505727872760122e-04, rel=1e-12)
        assert rmse(r) == pytest.approx(4.617861863188655e-06, rel=1e-12)
        assert r.hits == 5046

    def test_two_safe_samples(self):
        model, ls = never_failing()
        box = UniformBox([0, 0], [1, 1])
        r = importance_sampling_estimate(
            model, ls, box, box, 2, np.random.default_rng(0)
        )
        assert r.estimate == 0.0 and r.sample_variance == 0.0

    def test_identical_weights_give_exactly_zero_variance(self):
        # every draw fails and the likelihood ratio is 1: zero scatter
        model, ls = always_failing()
        box = UniformBox([0, 0], [1, 1])
        r = importance_sampling_estimate(
            model, ls, box, box, 100, np.random.default_rng(0)
        )
        assert r.estimate == 1.0
        assert r.sample_variance == 0.0
        assert r.hits == 100

    def test_needs_two_samples(self):
        b = make_linear_gaussian()
        with pytest.raises(ValueError):
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, b.nominal, 1,
                np.random.default_rng(0),
            )

    def test_out_of_domain_samples_carry_zero_weight(self):
        # biasing mass far outside the box: those draws never contribute
        b = get_benchmark("arrhenius-2d")
        wide = GaussianMixture(
            [(1.0, [1.5e13, 5.5e3], np.diag([1.0e24, 4.0e6]))]
        )
        r = importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, wide, 2000,
            np.random.default_rng(3),
        )
        assert r.estimate >= 0.0
        assert r.hits <= r.n

    def test_model_evals_counts_only_in_domain_points(self):
        # draws outside the nominal box skip the model and cost nothing
        b = get_benchmark("arrhenius-2d")
        seen = []

        def fn(pts):
            seen.append(pts.shape[0])
            return b.high_fidelity.fn(pts)

        hf = Model(fn, 2, 1)
        q = GaussianMixture([(1.0, [1.4e13, 2.0e3], np.diag([1.0e24, 1.0e6]))])
        n = 5000
        r = importance_sampling_estimate(
            hf, b.limit_state, b.nominal, q, n, np.random.default_rng(5)
        )
        assert r.model_evals == sum(seen)
        assert 0 < r.model_evals < n
        seen.clear()
        mc = monte_carlo_estimate(hf, b.limit_state, b.nominal, n, np.random.default_rng(5))
        assert mc.model_evals == sum(seen) == n

    def test_partial_support_biasing_rejected(self):
        b = get_benchmark("arrhenius-2d")
        shrunk = UniformBox([6e11, 2e3], [1e13, 9e3])
        with pytest.raises(ValueError, match="full support"):
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, shrunk, 100,
                np.random.default_rng(0),
            )

    def test_nominal_recognised_by_identity_not_by_value(self):
        # a fallback build hands back the nominal object itself; an
        # equal-valued copy is just another density
        b = get_benchmark("arrhenius-2d")
        copy = UniformBox(b.nominal.lower, b.nominal.upper)
        with pytest.raises(ValueError, match="full support"):
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, copy, 3000, np.random.default_rng(4)
            )
        # an equal Gaussian copy takes the pdf path, where q/q is exactly 1
        g = make_linear_gaussian(beta=2.5)
        copy = GaussianMixture([(1.0, g.nominal.mean, g.nominal.covariance)])
        same, equal = (
            importance_sampling_estimate(
                g.high_fidelity, g.limit_state, g.nominal, q, 3000, np.random.default_rng(4)
            )
            for q in (g.nominal, copy)
        )
        assert same == equal
        assert same.hits > 0

    def test_declared_full_support_accepted(self):
        # support is read from the density's flag, not from its type
        class WrappedGaussian:
            full_support = True

            def __init__(self, inner):
                self._inner = inner

            def sample(self, rng, count):
                return self._inner.sample(rng, count)

            def pdf(self, z):
                return self._inner.pdf(z)

        b = make_linear_gaussian(beta=2.0, d=2)
        q = shifted_gaussian(2.0)
        args = (b.high_fidelity, b.limit_state, b.nominal)
        wrapped = importance_sampling_estimate(
            *args, WrappedGaussian(q), 500, np.random.default_rng(4)
        )
        plain = importance_sampling_estimate(*args, q, 500, np.random.default_rng(4))
        assert wrapped == plain

    def test_broken_density_detected(self):
        class BrokenDensity(GaussianMixture):
            def pdf(self, z):
                out = super().pdf(z)
                return out * 0.0

        b = make_linear_gaussian()
        broken = BrokenDensity([(1.0, [0.0, 0.0], np.eye(2))])
        with pytest.raises(BrokenBiasingDensityError):
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, broken, 10,
                np.random.default_rng(0),
            )

    def test_chunking_does_not_change_result(self, monkeypatch):
        # accumulation is exact, so any work partition gives the same bits
        b = make_linear_gaussian(beta=2.5)
        q = shifted_gaussian(2.5)

        def run():
            return importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, q, 5000,
                np.random.default_rng(13),
            )

        baseline = run()
        for chunk in (1 << 8, 1 << 10, 1 << 20):
            monkeypatch.setattr(est, "_CHUNK", chunk)
            r = run()
            assert r.estimate == baseline.estimate
            assert r.sample_variance == baseline.sample_variance


class TestHighDimensionalFallback:
    """A standard normal nominal's pdf underflows to 0 at most of its own
    draws from d of about 530 on, and at all of them from about 600; IS on
    the nominal itself evaluates no pdf."""

    P = float(ndtr(-2.5))

    def mean_within_3_se(self, results):
        mean = sum(r.estimate for r in results) / len(results)
        se = math.sqrt(sum(r.variance for r in results)) / len(results)
        assert abs(mean - self.P) < 3.0 * se

    def test_fallback_build_at_d700(self):
        b = make_linear_gaussian(beta=2.5, d=700)
        build = build_biasing_density(
            b.surrogates[0], b.limit_state, b.nominal, 20000, np.random.default_rng(1)
        )
        assert build.fell_back_to_nominal and build.density is b.nominal
        assert b.nominal.pdf(b.nominal.sample(np.random.default_rng(0), 5)).max() == 0.0
        self.mean_within_3_se([
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, build.density, 1000,
                np.random.default_rng(seed),
            )
            for seed in range(20)
        ])

    def test_nominal_at_d1500(self):
        b = make_linear_gaussian(beta=2.5, d=1500)
        self.mean_within_3_se([
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, b.nominal, 1000,
                np.random.default_rng(seed),
            )
            for seed in range(10)
        ])

    def test_fitted_density_whose_pdf_underflows_still_refused(self):
        b = make_linear_gaussian(beta=2.5, d=700)
        q = fit_gaussian(b.nominal.sample(np.random.default_rng(2), 1000))
        with pytest.raises(BrokenBiasingDensityError, match="evaluated to 0"):
            importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, q, 100, np.random.default_rng(3)
            )


class TestNonFiniteWeights:
    def test_overflowing_likelihood_ratio_rejected(self):
        # p/q = 1e300 / 1e-300 overflows to inf at every failing draw
        model, ls = always_failing()
        with pytest.raises(BrokenBiasingDensityError, match=r"500 non-finite importance weight"):
            importance_sampling_estimate(
                model, ls, Flat(1e300), Flat(1e-300), 500, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("p_bad, q_bad", [(1e300, 1e-300), (np.inf, np.inf)])
    def test_some_non_finite_weights_counted(self, p_bad, q_bad):
        # where the second coordinate is positive, p/q is 1e300/1e-300 = inf
        # or inf/inf = NaN; every other weight is 1, and only the bad ones
        # are counted
        model, ls = always_failing()
        positive = np.random.default_rng(0).standard_normal((500, 2))[:, 1] > 0
        p = Flat(lambda z: np.where(z[:, 1] > 0, p_bad, 1.0))
        q = Flat(lambda z: np.where(z[:, 1] > 0, q_bad, 1.0))
        message = rf"^{positive.sum()} non-finite importance weight\(s\) p/q out of 500 "
        with pytest.raises(BrokenBiasingDensityError, match=message):
            importance_sampling_estimate(model, ls, p, q, 500, np.random.default_rng(0))

    @pytest.mark.parametrize("zero", [True, False])
    def test_nan_q_beside_zero_q(self, zero):
        # a zero q is refused even beside a NaN one; a NaN q alone is a
        # NaN weight where the draw fails and no weight where it does not
        def q_pdf(z):
            q = np.where(z[:, 1] > 1.0, np.nan, 1.0)
            q[(z[:, 1] < -1.0) & zero] = 0.0
            return q

        model, ls = failing_where_first_coordinate_positive()
        message = "evaluated to 0" if zero else "non-finite"
        with pytest.raises(BrokenBiasingDensityError, match=message):
            importance_sampling_estimate(
                model, ls, Flat(1.0), Flat(q_pdf), 500, np.random.default_rng(0)
            )

    # Finite weights p/q whose sums overflow; at seed 3, 527 of 1000 draws
    # fail, so n=1000 takes the exact-sum kernel and n=100 math.fsum.
    # weights 1e155: estimate**2 overflows in the variance sum;
    # weights 1e307: the sum of the weights overflows.
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("q, largest", [(1e145, "1e+155"), (1e-7, "1e+307")])
    def test_overflowing_weight_sums_rejected(self, q, largest, n):
        model, ls = failing_where_first_coordinate_positive()
        with pytest.raises(BrokenBiasingDensityError, match=re.escape(largest)):
            importance_sampling_estimate(
                model, ls, Flat(1e300), Flat(q), n, np.random.default_rng(3)
            )

    def test_overflowing_squared_deviation_rejected_without_warning(self):
        # about 2% of draws fail with weight 1e155: estimate**2 is finite but
        # each (w - estimate)**2 overflows in NumPy, whose warning is an
        # error under this suite's filterwarnings
        model = Model(lambda pts: pts[:, 0], 2, 1)
        ls = LimitState(lambda y: 2.0 - y[:, 0])
        with pytest.raises(BrokenBiasingDensityError, match=re.escape("1e+155")):
            importance_sampling_estimate(
                model, ls, Flat(1e300), Flat(1e145), 1000, np.random.default_rng(3)
            )


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


# Finite doubles over about 600 binades, with zeros and subnormals mixed in.
_finite_doubles = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(-1e-306, 1e-306),
    st.just(0.0),
)


class TestExactSum:
    """The NumPy exact-sum kernel is bit-identical to math.fsum."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_finite_doubles, max_size=40), st.integers(0, 20))
    def test_matches_fsum_either_side_of_small_threshold(self, values, small):
        # a lowered threshold sends short lists down both paths
        x = np.array(values, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est, "_SUM_SMALL", small)
            assert same_bits(est._exact_sum([x]), math.fsum(x))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([est._SUM_SMALL - 1, est._SUM_SMALL, est._SUM_SMALL + 1, 5000]),
        st.integers(0, 600),
        st.floats(0.0, 1.0),
    )
    def test_matches_fsum_on_long_arrays(self, seed, n, binades, zero_frac):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-binades // 2, binades // 2 + 1, n))
        x[rng.random(n) < zero_frac] = 0.0
        x[: n // 7] *= 2.0**-1070  # some subnormals
        assert same_bits(est._exact_sum([x]), math.fsum(x))

    @pytest.mark.parametrize("offset", ["block-1", "block", "block+1", "2*block+1"])
    def test_block_boundaries(self, monkeypatch, offset):
        block = 1024
        monkeypatch.setattr(est, "_SUM_BLOCK", block)
        n = {"block-1": block - 1, "block": block, "block+1": block + 1,
             "2*block+1": 2 * block + 1}[offset]
        rng = np.random.default_rng(n)
        # a narrow exponent range, so that every value moves the sum
        x = rng.standard_normal(n) * np.exp2(rng.integers(-20, 20, n))
        assert same_bits(est._exact_sum([x]), math.fsum(x))

    @pytest.mark.parametrize("n", [10, 2000])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused(self, n, bad):
        x = np.ones(n)
        x[n // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            est._exact_sum([x])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_finite_doubles, max_size=40),
        st.integers(0, 2000),
        _finite_doubles,
        st.integers(0, 20),
    )
    def test_repeated_value_matches_fsum_of_the_list(self, values, repeat, value, small):
        x = np.array(values, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est, "_SUM_SMALL", small)
            assert same_bits(est._exact_sum([x], repeat, value), math.fsum(values + [value] * repeat))

    # lengths on both sides of the small-list threshold and of the blocks
    # the tests below patch in (64 and the default)
    _lengths = st.one_of(
        st.integers(0, 3000),
        st.sampled_from([63, 64, 65, 128, 129, 511, 512, 513, 2049]),
    )

    @staticmethod
    def split(seed, n, cuts):
        """n values over ~600 binades with zeros and subnormals, and the same
        values cut into consecutive arrays (repeated cuts give empty ones)."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-300, 301, n))
        x[rng.random(n) < 0.2] = 0.0
        x[: n // 7] *= 2.0**-1070
        return x, np.split(x, sorted(min(c, n) for c in cuts))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        _lengths,
        st.lists(st.integers(0, 3000), max_size=6),
        st.sampled_from([0, 20, est._SUM_SMALL]),
        st.sampled_from([64, est._SUM_BLOCK]),
    )
    def test_list_of_arrays_matches_fsum_of_concatenation(self, seed, n, cuts, small, block):
        x, parts = self.split(seed, n, cuts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est, "_SUM_SMALL", small)
            mp.setattr(est, "_SUM_BLOCK", block)
            assert same_bits(est._exact_sum(parts), math.fsum(x))
            assert same_bits(est._exact_sum([]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        _lengths,
        st.lists(st.integers(0, 3000), max_size=6),
        st.integers(0, 600),
        st.sampled_from([0, est._SUM_SMALL]),
        st.sampled_from([64, est._SUM_BLOCK]),
    )
    def test_centered_squares_match_fsum(self, seed, n, cuts, repeat, small, block):
        # the variance pass: (x - center)**2 per value, plus repeated center**2
        x, parts = self.split(seed, n, cuts)
        x = x * 2.0**-400  # keeps every square finite
        parts = [p * 2.0**-400 for p in parts]
        center = float(x[n // 2]) if n else 0.25
        expected = math.fsum(((x - center) ** 2).tolist() + [center * center] * repeat)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est, "_SUM_SMALL", small)
            mp.setattr(est, "_SUM_BLOCK", block)
            got = est._exact_sum(parts, repeat, center * center, center=center)
        assert same_bits(got, expected)

    @pytest.mark.parametrize("case", ["round up", "subnormals beside 2**1000", "mixed signs"])
    def test_split_edge_cases(self, monkeypatch, case):
        # each mantissa m is split into m rounded to a multiple of 2**-27,
        # which may round up to +-1.0, and an exact rest
        monkeypatch.setattr(est, "_SUM_SMALL", 0)
        top = 1.0 - 2.0**-53  # the largest mantissa
        exps = np.arange(-1073, 1024, 23)
        if case == "round up":
            # and ties of the rounding, which go to even
            mants = [top, 0.5 + 2.0**-28, 0.5 + 3 * 2.0**-28, 1.0 - 2.0**-28]
            x = np.concatenate([np.ldexp(m, exps) for m in mants])
            x = np.concatenate([x, -x[::3]])
        elif case == "subnormals beside 2**1000":
            x = np.array([5e-324, top * 2.0**1000, -(2.0**1000), 3 * 5e-324, 2.0**-1030, -5e-324])
        else:
            rng = np.random.default_rng(0)
            x = rng.uniform(0.5, 1.0, 5000) * np.exp2(rng.integers(-60, 60, 5000))
            x *= rng.choice([-1.0, 1.0], 5000)
            x = np.concatenate([x, -x[::2], np.ldexp(-top, exps)])
        assert same_bits(est._exact_sum([x]), math.fsum(x))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("mant", [1.0 - 2.0**-53, 0.5 + 2.0**-28 - 2.0**-53, 0.5 + 2.0**-28])
    def test_full_block_of_equal_values(self, sign, mant):
        # every value of a full block at one exponent: the per-exponent sums
        # of both parts take their largest terms (the top mantissa's high
        # part rounds up to 1, the others' rest is near 2**-28)
        x = np.full(est._SUM_BLOCK, sign * mant * 2.0**1000)
        assert same_bits(est._exact_sum([x]), math.fsum(x))

    @pytest.mark.parametrize("n", [10, 2000])
    def test_overflowing_square_refused(self, n):
        x = np.ones(n)
        x[n // 2] = 1e200
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            est._exact_sum([x[:3], x[3:]], center=0.0)

    @pytest.mark.parametrize("repeat", [1, 2000])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_repeated_value_refused(self, repeat, bad):
        with pytest.raises(ValueError, match="finite"):
            est._exact_sum([np.ones(10)], repeat, bad)


class TestRepeatedTerm:
    """Beside at most ``_SUM_SMALL`` array values, the repeated value enters
    fsum as one exact term per set bit of ``repeat``."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, est._SUM_SMALL),
        st.integers(1, 5000),
        _finite_doubles,
    )
    def test_matches_fsum_of_the_copies(self, seed, n, repeat, value):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-300, 301, n))
        assert same_bits(
            est._exact_sum([x], repeat, value), math.fsum(x.tolist() + [value] * repeat)
        )

    @pytest.mark.parametrize("value", [0.1, 3.0, 1e-300, 5e-324])
    def test_huge_repeat_is_rounded_once(self, value):
        x = np.array([1.0, -2.5e-17, 7.0e20])
        total = sum(map(Fraction, x.tolist())) + 2**40 * Fraction(value)
        assert same_bits(est._exact_sum([x], 2**40, value), float(total))

    def test_overflowing_repeated_term_raises(self):
        with pytest.raises(OverflowError):
            est._exact_sum([np.ones(3)], 2**20, 1e305)

    def test_overflowing_repeated_term_breaks_the_density(self):
        # at seed 3 about half of 100 draws fail with weight 1e154: each
        # squared deviation is finite, their sum is not, and the ~50 copies
        # of estimate**2 (about 2.5e307) overflow once doubled
        model, ls = failing_where_first_coordinate_positive()
        with pytest.raises(BrokenBiasingDensityError, match=re.escape("1e+154")):
            importance_sampling_estimate(
                model, ls, Flat(1e300), Flat(1e146), 100, np.random.default_rng(3)
            )


class TestAgainstReferenceLoop:
    """Bit for bit against the plain loop: two pdf calls, a dense array of
    all n weights ind*p/q, fsum."""

    CHUNK = 1000
    N = 2500

    def check(self, monkeypatch, model, ls, nominal, biasing, seed, n=N, chunk=CHUNK):
        monkeypatch.setattr(est, "_CHUNK", chunk)
        r = importance_sampling_estimate(
            model, ls, nominal, biasing, n, np.random.default_rng(seed)
        )
        estimate, sample_variance, hits, evals = importance_sampling_loop(
            model, ls, nominal, biasing, n, np.random.default_rng(seed), chunk
        )
        assert same_bits(r.estimate, estimate)
        assert same_bits(r.sample_variance, sample_variance)
        assert (r.hits, r.model_evals) == (hits, evals)
        return r

    def test_gaussian_nominal_fitted_biasing(self, monkeypatch):
        b = make_linear_gaussian(beta=2.5)
        pts = b.nominal.sample(np.random.default_rng(0), 20_000)
        fails = pts[b.limit_state.evaluate(b.high_fidelity.evaluate(pts)) < 0.0]
        q = fit_gaussian(fails)
        r = self.check(monkeypatch, b.high_fidelity, b.limit_state, b.nominal, q, 1)
        assert 0 < r.hits < r.n

    def test_uniform_nominal_gaussian_biasing_outside_box(self, monkeypatch):
        b = get_benchmark("arrhenius-2d")
        q = GaussianMixture([(1.0, [1.45e13, 1.7e3], np.diag([1.0e24, 1.6e5]))])
        r = self.check(monkeypatch, b.high_fidelity, b.limit_state, b.nominal, q, 2)
        assert 0 < r.hits
        assert 0 < r.model_evals < r.n

    @pytest.mark.parametrize("name", ["linear-gaussian-2.5", "arrhenius-2d"])
    def test_nominal_biasing_calls_no_pdf(self, monkeypatch, name):
        b = get_benchmark(name)
        cls = type(b.nominal)
        calls = []
        original = cls.pdf

        def spy(self, z):
            calls.append(np.shape(z)[0])
            return original(self, z)

        monkeypatch.setattr(est, "_CHUNK", self.CHUNK)
        monkeypatch.setattr(cls, "pdf", spy)
        r = importance_sampling_estimate(
            b.high_fidelity, b.limit_state, b.nominal, b.nominal, self.N,
            np.random.default_rng(3),
        )
        assert calls == []
        monkeypatch.setattr(cls, "pdf", original)
        ref = importance_sampling_loop(
            b.high_fidelity, b.limit_state, b.nominal, b.nominal, self.N,
            np.random.default_rng(3), self.CHUNK,
        )
        assert (r.estimate, r.sample_variance, r.hits, r.model_evals) == ref
        assert r.hits > 0

    @pytest.fixture(scope="class")
    def cases(self):
        # per benchmark: a density from each model, as the runner builds
        # them, and the nominal itself
        out = []
        for name in ("linear-gaussian-2.5", "arrhenius-2d"):
            b = get_benchmark(name)
            models = [*b.surrogates, b.high_fidelity]
            seeds = _stream(1, [(1, k) for k in range(len(models))])
            for model, words in zip(models, seeds):
                build = build_biasing_density(
                    model, b.limit_state, b.nominal, 20000, _generator(words)
                )
                out.append((b, build.density))
            out.append((b, b.nominal))
        return out

    @pytest.mark.parametrize("chunk", [37, est._CHUNK])
    def test_runner_densities_over_many_seeds(self, monkeypatch, cases, chunk):
        hit_counts = []
        for b, q in cases:
            for seed in range(12):
                n = (30, 75, est._SUM_SMALL, est._SUM_SMALL + 1)[seed % 4]
                r = self.check(
                    monkeypatch, b.high_fidelity, b.limit_state, b.nominal, q, seed, n, chunk
                )
                hit_counts.append((r.hits, r.n))
        assert any(h == 0 for h, _ in hit_counts)
        assert any(0 < h < size for h, size in hit_counts)

    @pytest.mark.parametrize("n", [2, est._SUM_SMALL, est._SUM_SMALL + 1, 3000])
    @pytest.mark.parametrize(
        "case",
        [
            "no hits",
            "all hits, weight 1",
            "all hits, equal weights",
            "all hit weights underflow",
            "some hit weights underflow",
            "half hits, weight 1",
        ],
    )
    def test_edge_cases(self, monkeypatch, case, n):
        box = UniformBox([-1.0, -1.0], [1.0, 1.0])
        half = failing_where_first_coordinate_positive()
        model, ls, nominal, biasing = {
            "no hits": (*never_failing(), box, box),
            "all hits, weight 1": (*always_failing(), box, box),
            "all hits, equal weights": (*always_failing(), Flat(2.0), Flat(4.0)),
            # p/q = 1e-300 / 1e300 rounds to 0 at every hit
            "all hit weights underflow": (*always_failing(), Flat(1e-300), Flat(1e300)),
            # p/q is 1e-400, rounded to 0, or 5e-101
            "some hit weights underflow": (
                *half,
                Flat(lambda z: np.where(z[:, 1] > 0.0, 1e-300, 0.5)),
                Flat(1e100),
            ),
            "half hits, weight 1": (*half, box, box),
        }[case]
        r = self.check(monkeypatch, model, ls, nominal, biasing, n, n)
        if case.startswith(("no hits", "all hit")):
            assert r.sample_variance == 0.0
        else:
            assert r.sample_variance > 0.0 or r.hits in (0, n)


class TestStream:
    """``_stream`` gives each spawn key the seed its ``SeedSequence`` would."""

    # keys of each length 0-4 hashed in one call; the longest hold one
    # many-small budget's keys, 300 repetitions of slots 0-2, 900 and 901
    KEYS = {
        0: [()],
        1: [(0,), (1000,), (2**32 - 1,)],
        2: [(1, 0), (1, 1), (1, 1000), (3, 7), (3, 299)],
        3: [(2, 0, 0), (2**32 - 1, 5, 2**31)],
        4: [
            (2, 0, 0, 0),
            *((2, 3, rep, slot) for rep in range(300) for slot in (0, 1, 2, 900, 901)),
        ],
    }

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**128 + 5, 2**170 + 12345])
    @pytest.mark.parametrize("width", sorted(KEYS))
    def test_matches_spawn_key_form(self, seed, width):
        keys = self.KEYS[width]
        seeds = _stream(seed, keys)
        assert seeds.shape == (len(keys), 4) and seeds.dtype == np.uint64
        for key, words in zip(keys, seeds):
            expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            assert _generator(words).bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize(
        "keys, error",
        [
            ([(1, 2), (1,)], ValueError),
            ([(1,), (1, 2)], ValueError),
            ([], ValueError),
            ([(1, 2**32)], OverflowError),
            ([(0,), (-1,)], OverflowError),
        ],
    )
    def test_ragged_keys_and_words_past_32_bits_raise(self, keys, error):
        with pytest.raises(error):
            _stream(1, keys)


class TestNonFiniteLimitState:
    @pytest.mark.parametrize("estimator", ["mc", "is", "subset"])
    def test_nan_model_output_rejected(self, estimator):
        # NaN compares as neither failing nor safe; it must not count as safe
        b = make_linear_gaussian(beta=2.0, d=2)
        model = Model(lambda pts: np.where(pts[:, 0] > 1.0, np.nan, pts.sum(axis=1)), 2, 1)
        rng = np.random.default_rng(0)
        run = {
            "mc": lambda: monte_carlo_estimate(model, b.limit_state, b.nominal, 1000, rng),
            "is": lambda: importance_sampling_estimate(
                model, b.limit_state, b.nominal, shifted_gaussian(2.0), 1000, rng
            ),
            "subset": lambda: subset_simulation(
                model, b.limit_state, b.nominal, 500, 0.1, 12, rng
            ),
        }[estimator]
        with pytest.raises(ValueError, match=r"\d+ non-finite value"):
            run()


class TestUnbiasednessAndConvergence:
    def test_mean_over_200_seeds_hits_oracle(self):
        b = make_linear_gaussian(beta=2.5)
        q = shifted_gaussian(2.5)
        p = float(ndtr(-2.5))
        estimates = np.array(
            [
                importance_sampling_estimate(
                    b.high_fidelity, b.limit_state, b.nominal, q, 2000,
                    np.random.default_rng(1000 + s),
                ).estimate
                for s in range(200)
            ]
        )
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - p) < 4 * se

    def test_cv_decays_with_sqrt_n(self):
        b = make_linear_gaussian(beta=2.5)
        q = shifted_gaussian(2.5)
        ns = [100, 1000, 10_000, 100_000]
        cvs = []
        for i, n in enumerate(ns):
            r = importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, q, n,
                np.random.default_rng(50 + i),
            )
            cvs.append(cv(r))
        slope = np.polyfit(np.log10(ns), np.log10(cvs), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_everything_nonnegative(self):
        b = make_linear_gaussian(beta=2.5)
        q = shifted_gaussian(2.5)
        for s in range(5):
            r = importance_sampling_estimate(
                b.high_fidelity, b.limit_state, b.nominal, q, 500,
                np.random.default_rng(s),
            )
            assert r.estimate >= 0 and r.sample_variance >= 0 and rmse(r) >= 0
            if r.estimate > 0:
                assert cv(r) >= 0


class TestErrorMeasures:
    def test_rmse_zero_variance(self):
        r = est.EstimatorResult(0.0, 10, 0.0, 0, "q", "IS")
        assert rmse(r) == 0.0

    def test_rmse_arithmetic(self):
        r = est.EstimatorResult(0.5, 100, 4.0, 50, "q", "MC")
        assert rmse(r) == pytest.approx(0.2, abs=1e-15)

    def test_cv_arithmetic(self):
        r = est.EstimatorResult(0.5, 100, 0.25, 50, "q", "MC")
        assert cv(r) == pytest.approx(0.1, abs=1e-15)

    def test_cv_undefined_for_zero_estimate(self):
        r = est.EstimatorResult(0.0, 100, 0.0, 0, "q", "IS")
        with pytest.raises(UndefinedCVError):
            cv(r)

    def test_theoretical_mc_cv_values(self):
        assert theoretical_mc_cv(1e-4, 10**6) == pytest.approx(0.0999949999, abs=1e-9)
        assert theoretical_mc_cv(0.5, 2) == pytest.approx(0.70710678, abs=1e-8)

    def test_theoretical_mc_cv_quadruple_n_halves(self):
        for p, n in ((1e-3, 100), (0.2, 50)):
            assert theoretical_mc_cv(p, 4 * n) == pytest.approx(
                theoretical_mc_cv(p, n) / 2, rel=1e-12
            )

    def test_theoretical_mc_cv_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                theoretical_mc_cv(bad, 100)


class TestCsvRow:
    def test_row_fields(self):
        r = est.EstimatorResult(0.5, 100, 0.25, 50, "q2", "IS")
        row = _estimate_row(r)
        assert row["density_id"] == "q2"
        assert row["kind"] == "IS"
        assert row["cv"] == pytest.approx(0.1)

    def test_zero_estimate_writes_nan_cv(self):
        r = est.EstimatorResult(0.0, 100, 0.0, 0, "q", "IS")
        assert math.isnan(_estimate_row(r)["cv"])
