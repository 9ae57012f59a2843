"""Plain Monte Carlo and importance-sampling failure probability estimators.

Both estimators return an :class:`EstimatorResult` carrying the estimate,
its unbiased sample variance (n-1 divisor), and the raw failure-hit count.
The variance of the *estimator* is ``sample_variance / n``; that is the
quantity consumed by the fusion stage.

Weighted indicators are summed exactly and rounded once (the result is
bit-identical to ``math.fsum``), so results do not depend on the order in
which sample chunks are reduced -- partitioning the work across any number
of workers reproduces the same floating-point result.  Importance sampling
keeps only the weights of the failing draws, one array per chunk: the mean
sums those arrays as they are, and the variance sum squares their
deviations one block at a time and adds the ``n - hits`` zero weights
exactly as that many copies of ``estimate**2``.  Draws are taken and
evaluated ``_CHUNK`` at a time (``mfis`` builds densities the same way), so
the transient memory of a call is bounded by the chunk plus the hit
weights, not by ``n``.  The runner may run two bulk calls at once, one
per lane; the chunk is small enough that two of them hold less than one
call did at the former 2**16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LimitState, Model

__all__ = [
    "EstimatorResult",
    "monte_carlo_estimate",
    "importance_sampling_estimate",
    "rmse",
    "cv",
    "theoretical_mc_cv",
    "UndefinedCVError",
    "BrokenBiasingDensityError",
]

# Points drawn, evaluated and dropped together by the estimators and by
# density builds.  It bounds their transient memory (a few arrays of this
# many points) and changes no result: draws come off the generator in the
# same order, each point is evaluated on its own, and sums are exact.  The
# runner runs two bulk calls at once, so the chunk is 2**14: two lanes of it
# hold less than one lane of 2**16 did, and the smaller chunk alone costs
# no time.
_CHUNK = 1 << 14

# Values per block of the exact-sum kernel.  The kernel's temporaries are a
# few arrays of this length, so 2**16 keeps them in cache (about 3x faster
# than one pass over 500k values).  The block must stay <= 2**26: mantissas
# are split into halves below 2**27, so a per-exponent sum over one block
# stays below 2**53 and every partial sum is an exactly representable
# integer.
_SUM_BLOCK = 1 << 16
# At or below this length math.fsum is faster than the kernel.
_SUM_SMALL = 512


class UndefinedCVError(ValueError):
    """Coefficient of variation requested for a zero estimate."""


class BrokenBiasingDensityError(RuntimeError):
    """A biasing density returned pdf 0 at one of its own samples, or
    likelihood ratios p/q that are not finite or whose sums overflow."""


@dataclass(frozen=True)
class EstimatorResult:
    """One unbiased probability estimate and its sampling diagnostics.

    ``hits`` counts raw indicator successes even in IS mode; the hit rate
    does not show weight health, since a few heavy weights can carry the
    estimate while most draws hit.
    ``model_evals`` counts the points handed to the model: ``n`` for MC,
    only the draws inside the nominal support for IS.
    """

    estimate: float
    n: int
    sample_variance: float
    hits: int
    density_id: str
    kind: str  # "MC" | "IS"
    model_evals: int = 0

    @property
    def variance(self) -> float:
        """Variance of the estimator itself: sample_variance / n."""
        return self.sample_variance / self.n


def _batches(n: int):
    """Sizes of the successive chunks that cover ``n`` points, each at most
    ``_CHUNK`` (read when the first size is taken)."""
    chunk = _CHUNK
    for start in range(0, n, chunk):
        yield min(chunk, n - start)


def _exact_sum(chunks, repeat: int = 0, value: float = 0.0, center=None) -> float:
    """Correctly rounded sum of the values in a list of 1-d float arrays plus
    ``repeat`` copies of ``value``, bit-identical to ``math.fsum`` of the
    concatenated values and the copies (an exact zero sum is +0.0).  With
    ``center``, each array value x counts as ``(x - center) ** 2``, formed
    one block at a time, so no squared copy of the arrays is ever held.

    Each value is m * 2**e with m * 2**53 an integer below 2**53 in
    magnitude (subnormals included).  The arrays are cut into blocks of at
    most ``_SUM_BLOCK`` values; in each block the integer is split into a
    high and a low half and each half is summed per exponent with
    ``np.bincount``; those sums are exact integers.  They are combined as
    Python ints with the repeated value's exact integer multiple, and one
    int/int division rounds the exact total once.  Short lists go to
    ``math.fsum`` directly, which gives the same bits faster.  Non-finite
    values, the repeated one included, raise ``ValueError``.
    """
    if repeat and not math.isfinite(value):
        raise ValueError("exact sum needs finite values")
    if sum(map(len, chunks)) + repeat <= _SUM_SMALL:
        terms = [value] * repeat
        for values in chunks:
            if center is not None:
                values = (values - center) ** 2
            if not np.isfinite(values).all():
                raise ValueError("exact sum needs finite values")
            terms += values.tolist()
        return math.fsum(terms)
    # the exact sum so far, times 2**(1074 + 53); den is a power of two
    # <= 2**1074, so the floor division is exact
    num, den = value.as_integer_ratio()
    total = repeat * num * (1 << (1074 + 53)) // den
    for values in chunks:
        for start in range(0, values.shape[0], _SUM_BLOCK):
            block = values[start : start + _SUM_BLOCK]
            if center is not None:
                block = (block - center) ** 2
            if not np.isfinite(block).all():
                raise ValueError("exact sum needs finite values")
            mant, exps = np.frexp(block)
            mant *= 2.0**53
            high = np.trunc(mant * 2.0**-26)
            mant -= high * 2.0**26
            exps += 1074  # frexp exponents of finite doubles are >= -1073
            high_sums = np.bincount(exps, weights=high)
            low_sums = np.bincount(exps, weights=mant)
            for k in np.flatnonzero((high_sums != 0.0) | (low_sums != 0.0)).tolist():
                total += ((int(high_sums[k]) << 26) + int(low_sums[k])) << k
    return total / (1 << (1074 + 53))  # int / int true division rounds correctly


def monte_carlo_estimate(
    model: Model,
    ls: LimitState,
    nominal,
    n: int,
    rng: np.random.Generator,
    density_id: str = "nominal",
) -> EstimatorResult:
    """Standard Monte Carlo estimate: fraction of nominal draws that fail."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = 0
    for batch in _batches(n):
        g = ls.evaluate(model.evaluate(nominal.sample(rng, batch)))
        hits += int((g < 0.0).sum())
    p_hat = hits / n
    if n == 1:
        sample_variance = 0.0
    else:
        sample_variance = (n / (n - 1.0)) * p_hat * (1.0 - p_hat)
    return EstimatorResult(p_hat, n, sample_variance, hits, density_id, "MC", n)


def importance_sampling_estimate(
    model: Model,
    ls: LimitState,
    nominal,
    biasing,
    n: int,
    rng: np.random.Generator,
    density_id: str = "q",
) -> EstimatorResult:
    """Importance sampling estimate with likelihood-ratio weights.

    Draws from ``biasing`` and averages I(failure) * p(z)/q(z).  Samples
    where the nominal density vanishes lie outside the input domain, carry
    zero weight, and skip the model evaluation entirely.  The biasing
    density must have full support (its ``full_support`` flag is set) or
    equal the nominal density; in the latter case the ratio is 1 and the
    nominal pdf is not evaluated a second time.

    Raises
    ------
    BrokenBiasingDensityError
        The biasing pdf is 0 at one of its own samples, or some weight p/q is
        not finite (q underflows where p does not) or the weight sums overflow.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for the unbiased sample variance")
    same = biasing is nominal or biasing == nominal
    if not biasing.full_support and not same:
        raise ValueError(
            "biasing density must have full support or equal the nominal density"
        )

    hit_chunks = []  # p/q at the failing draws of each chunk; every other weight is 0
    hits = evals = 0
    low, high = math.inf, 0.0  # the extreme hit weights
    for batch in _batches(n):
        pts = biasing.sample(rng, batch)
        q_vals = biasing.pdf(pts)
        if (q_vals <= 0.0).any():
            raise BrokenBiasingDensityError(
                "biasing density evaluated to 0 at one of its own samples"
            )
        p_vals = q_vals if same else nominal.pdf(pts)
        inside = p_vals > 0.0
        n_inside = int(np.count_nonzero(inside))
        evals += n_inside
        if n_inside == batch:
            failed = ls.evaluate(model.evaluate(pts)) < 0.0
        else:
            failed = np.zeros(batch, dtype=bool)
            if n_inside:
                failed[inside] = ls.evaluate(model.evaluate(pts[inside])) < 0.0
        if not failed.any():
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            ratio = p_vals[failed] / q_vals[failed]
        bad = int(np.count_nonzero(~np.isfinite(ratio)))
        if bad:
            raise BrokenBiasingDensityError(
                f"{bad} non-finite importance weight(s) p/q out of {ratio.size} "
                "failure samples"
            )
        hit_chunks.append(ratio)
        hits += ratio.size
        low, high = min(low, ratio.min()), max(high, ratio.max())

    try:
        estimate = _exact_sum(hit_chunks) / n
        if high == 0.0 or (low == high and hits == n):
            # zero scatter by definition: every weight is 0 (weights are >= 0,
            # so the largest hit weight being 0 suffices), or all n draws hit
            # with one weight
            sample_variance = 0.0
        else:
            # each hit adds (w - estimate)**2, each of the n - hits zero
            # weights (0 - estimate)**2
            with np.errstate(over="ignore"):  # refused just below
                sample_variance = _exact_sum(
                    hit_chunks, n - hits, estimate * estimate, center=estimate
                ) / (n - 1.0)
    except (ValueError, OverflowError):  # finite weights whose sums overflow
        raise BrokenBiasingDensityError(
            f"the sums of the hit weights overflow; the largest is {high:.6g}"
        ) from None
    return EstimatorResult(estimate, n, sample_variance, hits, density_id, "IS", evals)


def rmse(result: EstimatorResult) -> float:
    """Root-mean-squared error sqrt(sample_variance / n)."""
    return math.sqrt(result.sample_variance / result.n)


def cv(result: EstimatorResult) -> float:
    """Coefficient of variation sqrt(sample_variance / (n * estimate^2))."""
    if result.estimate <= 0.0:
        raise UndefinedCVError("coefficient of variation undefined for estimate 0")
    return math.sqrt(result.sample_variance / (result.n * result.estimate**2))


def theoretical_mc_cv(p: float, n: int) -> float:
    """Coefficient of variation sqrt((1-P)/(n P)) of plain MC at probability P."""
    if not 0.0 < p < 1.0:
        raise ValueError("P must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt((1.0 - p) / (n * p))
