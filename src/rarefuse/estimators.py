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
per lane, so the chunk must keep the two together within the memory
bound that one call is held to.
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
# runner runs two bulk calls at once, so the chunk must keep the two within
# the peak-memory bound of one call (tests/test_memory.py).  2**14 does.
# A chunk of 2**15 runs the bulk benchmark faster in two lanes, but raises
# the peak resident memory of a fresh process by 3 MB (see README).
_CHUNK = 1 << 14

# Values per block of the exact-sum kernel.  The kernel's temporaries are a
# few arrays of this length, so 2**16 keeps them in cache (about 3x faster
# than one pass over 500k values).  The block must stay <= 2**26: each
# mantissa is split into a multiple of 2**-27 of magnitude <= 1 and a rest
# of magnitude <= 2**-28, so a per-exponent sum of either part over one
# block is at most 2**53 of its unit and every partial sum is exact.
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

    Each value is m * 2**e with |m| < 1 and m a multiple of 2**-53
    (subnormals included).  The arrays are cut into blocks of at most
    ``_SUM_BLOCK`` values; in each block m is rounded to a multiple of
    2**-27 (adding and subtracting 1.5 * 2**25), the rest is exact, and
    each part is summed per exponent with ``np.bincount``; those sums are
    exact, and exact integers once scaled by 2**53.  They are combined as
    Python ints with the repeated value's exact integer multiple, and one
    int/int division rounds the exact total once.  Arrays of at most
    ``_SUM_SMALL`` values in all go to ``math.fsum`` directly, which gives
    the same bits faster; there the repeated value enters as one exact term
    ``value * 2**k`` per set bit k of ``repeat`` (``OverflowError`` past
    the float range).  Non-finite values, the repeated one included, raise
    ``ValueError``.
    """
    if repeat and not math.isfinite(value):
        raise ValueError("exact sum needs finite values")
    if sum(map(len, chunks)) <= _SUM_SMALL:
        terms = []
        for k in range(repeat.bit_length()):  # a loop: no comprehension frame per call
            if repeat >> k & 1:
                terms.append(math.ldexp(value, k))
        for values in chunks:
            terms += (values if center is None else (values - center) ** 2).tolist()
        try:  # a non-finite term makes fsum return inf or NaN, or raise
            total = math.fsum(terms)
            if math.isfinite(total):
                return total
        except (ValueError, OverflowError):  # -inf + inf, or an intermediate overflow
            if all(map(math.isfinite, terms)):
                raise  # finite terms whose sum overflows
        raise ValueError("exact sum needs finite values")
    # the exact sum so far, times 2**(1074 + 53); den is a power of two
    # <= 2**1074, so the floor division is exact
    num, den = value.as_integer_ratio()
    total = repeat * num * (1 << (1074 + 53)) // den
    for values in chunks:
        for start in range(0, values.shape[0], _SUM_BLOCK):
            block = values[start : start + _SUM_BLOCK]
            if center is not None:
                block = block - center
                block *= block
            if not np.isfinite(block).all():
                raise ValueError("exact sum needs finite values")
            mant, exps = np.frexp(block)
            high = mant + 1.5 * 2.0**25  # rounds m to a multiple of 2**-27
            high -= 1.5 * 2.0**25
            mant -= high  # the exact rest, a multiple of 2**-53
            exps += 1074  # frexp exponents of finite doubles are >= -1073
            high_sums = np.bincount(exps, weights=high) * 2.0**53
            low_sums = np.bincount(exps, weights=mant) * 2.0**53
            for k in np.flatnonzero((high_sums != 0.0) | (low_sums != 0.0)).tolist():
                total += (int(high_sums[k]) + int(low_sums[k])) << k
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
    density must have full support (its ``full_support`` flag is set), or
    be the nominal density itself, as a fallback build returns it: then
    every hit weight is exactly 1, the hits are counted on the draws and
    model calls of ``monte_carlo_estimate``, and no pdf is evaluated.

    Raises
    ------
    BrokenBiasingDensityError
        The biasing pdf is 0 at one of its own samples, or some weight p/q is
        not finite (q underflows where p does not) or the weight sums overflow.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for the unbiased sample variance")
    if biasing is nominal:
        hits = monte_carlo_estimate(model, ls, nominal, n, rng).hits
        hit_chunks, evals = [np.ones(hits)], n
        high = 1.0  # the largest hit weight
    elif not biasing.full_support:
        raise ValueError(
            "biasing density must have full support, or be the nominal density itself"
        )
    else:
        hit_chunks = []  # p/q at the failing draws of each chunk; every other weight is 0
        hits = evals = 0
        high = 0.0  # the largest hit weight
        for batch in _batches(n):
            pts = biasing.sample(rng, batch)
            q_vals = biasing.pdf(pts)
            if np.fmin.reduce(q_vals) <= 0.0:  # fmin skips NaN, as q <= 0 does
                raise BrokenBiasingDensityError(
                    "biasing density evaluated to 0 at one of its own samples"
                )
            p_vals = nominal.pdf(pts)
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
                ratio = (p_vals / q_vals)[failed]
            top = ratio.max()  # p > 0 and q > 0 here, so a bad weight is +inf or NaN
            if not math.isfinite(top):  # NaN propagates through the max
                bad = int(np.count_nonzero(~np.isfinite(ratio)))
                raise BrokenBiasingDensityError(
                    f"{bad} non-finite importance weight(s) p/q out of {ratio.size} "
                    "failure samples"
                )
            hit_chunks.append(ratio)
            hits += ratio.size
            high = max(high, top)

    try:
        estimate = _exact_sum(hit_chunks) / n
        if high == 0.0 or (hits == n and min(c.min() for c in hit_chunks) == high):
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
