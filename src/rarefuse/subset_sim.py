"""Subset simulation baseline with adaptive intermediate failure levels.

The failure probability is factored into a product of larger conditional
probabilities over nested intermediate events g < b_1 > b_2 > ... > b_L = 0.
Thresholds are picked adaptively as the p0-quantile of each level's
limit-state values; conditional levels are populated by Metropolis
chains seeded with the surviving samples, all advancing in lockstep.

All sampling happens in the unit hypercube, which the nominal density's
``from_unit_cube`` maps to the model's domain; this makes the proposal
scale domain-independent.  In that space the nominal density is uniform,
so the coordinate-wise Metropolis acceptance ratio is identically one and
a move is accepted exactly when the transformed candidate stays inside
the current intermediate failure set.

The subset estimate is biased for finite N (unlike the importance-sampling
estimators in this package); no bias correction is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import LimitState, Model

__all__ = ["SubsetResult", "subset_simulation"]

PROPOSAL_WIDTH = 0.5


@dataclass(frozen=True)
class SubsetResult:
    """Outcome of one subset-simulation run.

    ``level_stats`` holds one record of scalars per level: its
    ``threshold`` b_j (0 at the last level of a converged run), ``p_level``
    (the fraction of its samples in the next conditioning set, g <= b_j,
    or g < 0 at that last level), the chain correlation factor ``gamma``,
    ``failures`` (its samples with g < 0) and ``g_max`` (its largest g).
    """

    estimate: float
    levels: int
    total_model_evals: int
    approx_cv: float
    converged: bool
    level_stats: list[dict] = field(repr=False)


def _reflect(x: np.ndarray) -> np.ndarray:
    """Fold coordinates in [-1, 2] back into [0, 1] by reflection at the
    boundaries: x itself inside, else the bits of ``abs(mod(x + 1, 2) - 1)``,
    formed with y = x + 1 as 1 - y below 0 and 3 - y (exact) above 1.
    """
    y = x + 1.0
    return np.where(x > 1.0, 3.0 - y, np.where(x < 0.0, 1.0 - y, x))


def _metropolis_move(states, g_states, threshold, width, rng, g_of_points):
    """One Metropolis move of a batch of chains conditioned on g <= threshold.

    ``states`` is an (n, d) array of unit-cube points whose limit-state
    values are ``g_states``.  Every coordinate is perturbed by a uniform
    window of half-width ``width``, reflected at the cube boundaries; a
    candidate is kept iff its g stays at or below ``threshold``, otherwise
    its chain repeats the current state.  All candidates are evaluated in
    one ``g_of_points`` call.  Returns the new states and their g values.
    ``width`` must lie in [0, 1], so that every candidate lies in [-1, 2],
    the domain of :func:`_reflect`.
    """
    if not 0.0 <= width <= 1.0:
        raise ValueError("the proposal width must lie in [0, 1]")
    candidates = _reflect(states + rng.uniform(-width, width, size=states.shape))
    g_cand = g_of_points(candidates)
    accept = g_cand <= threshold
    return (
        np.where(accept[:, None], candidates, states),
        np.where(accept, g_cand, g_states),
    )


def _grow_chains(seeds_u, seeds_g, threshold, n_total, width, rng, g_of_points):
    """Grow Metropolis chains from the seeds until n_total samples exist.

    Each seed spawns one chain; chain lengths are floor(N / n_seeds) with
    the remainder given to the first chains, so the chains still growing
    at any step form a prefix.  All of them advance in lockstep, one
    :func:`_metropolis_move` (one model call) per step.  Chains include
    their seed, so each contributes length-1 new model evaluations.
    Returns (grid, g_grid, filled): chain c is row c of the (n_seeds,
    steps, d) points and the (n_seeds, steps) g values, seed first, and
    ``filled`` marks its first length entries; the entries past a chain's
    end hold no sample.
    """
    n_seeds, d = seeds_u.shape
    base, rem = divmod(n_total, n_seeds)
    steps = base + (rem > 0)
    grid = np.empty((n_seeds, steps, d))
    g_grid = np.zeros((n_seeds, steps))
    grid[:, 0], g_grid[:, 0] = seeds_u, seeds_g
    for t in range(1, steps):
        active = n_seeds if t < base else rem
        grid[:active, t], g_grid[:active, t] = _metropolis_move(
            grid[:active, t - 1], g_grid[:active, t - 1], threshold, width, rng, g_of_points
        )
    lengths = base + (np.arange(n_seeds) < rem)
    return grid, g_grid, np.arange(steps) < lengths[:, None]


def _chain_correlation_factor(ind: np.ndarray, filled: np.ndarray) -> float:
    """Autocorrelation inflation factor gamma of a chain-sampled indicator.

    Frozen estimator: with N samples in Nc chains of average length
    Nl = floor(N/Nc), gamma = 2 * sum_{lag=1}^{Nl-1} (1 - lag*Nc/N) * rho(lag)
    where rho(lag) is the sample autocorrelation of the indicator sequence
    at that lag, pooled over chains (products of pairs lag apart within a
    chain, minus the squared level probability, normalized by the lag-0
    variance).  Independent samples give gamma = 0.
    ``ind`` and ``filled`` are (chains, steps) grids with one chain per
    row, as :func:`_grow_chains` returns them; ``ind`` is 0 outside
    ``filled``.  Sums of 0/1 products are exact, so the result does not
    depend on the summation order.  Each lag takes one dot of the rows
    padded with ``steps`` zeros and raveled: no pair spans two chains.
    """
    n = int(np.count_nonzero(filled))
    n_chains, steps = filled.shape
    p = float(ind.sum()) / n
    r0 = p * (1.0 - p)
    if r0 == 0.0 or n // n_chains <= 1:  # no scatter, or no lag (N chains of one)
        return 0.0
    padded = np.zeros((n_chains, 2 * steps))
    padded[:, :steps] = ind
    flat = padded.ravel()
    # pairs_from[lag] is the number of filled entries at or past column lag
    pairs_from = np.cumsum(np.count_nonzero(filled, axis=0)[::-1])[::-1].tolist()
    gamma = 0.0
    for lag in range(1, n // n_chains):
        # lag < N/Nc <= the longest chain, so pairs > 0
        num = float(np.dot(flat[:-lag], flat[lag:]))
        rho = (num / pairs_from[lag] - p * p) / r0
        gamma += 2.0 * (1.0 - lag * n_chains / n) * rho
    return gamma


def subset_simulation(
    model: Model,
    ls: LimitState,
    nominal,
    N: int,
    p0: float,
    max_levels: int,
    rng: np.random.Generator,
) -> SubsetResult:
    """Estimate the failure probability by subset simulation.

    Level 1 draws N nominal samples; each subsequent threshold b_j is the
    ceil(p0*N)-th smallest limit-state value of the level (clamped to 0,
    which terminates), and the next level grows from the samples at or
    below b_j via Metropolis chains.  The estimate is p0^(L-1) times the
    final level's failure fraction.  ``nominal`` needs only ``d`` and
    ``from_unit_cube``, the map from the unit cube to the model's domain.

    The reported coefficient of variation follows the standard
    approximation: cv^2 = sum_j (1-p_j)/(N p_j) * (1+gamma_j) with gamma_j
    from :func:`_chain_correlation_factor` (0 at the independent first
    level).  A run that exhausts ``max_levels`` before reaching the true
    failure threshold, or stalls at a level whose ``p_level`` is 1 (its
    chains could only repeat it), stops there and is flagged
    ``converged=False`` with approx_cv inf.
    """
    if N < 100:
        raise ValueError("N must be >= 100")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")

    def g_of_points(u):
        return ls.evaluate(model.evaluate(nominal.from_unit_cube(u)))

    # level 1: N independent nominal draws, held as N chains of length 1
    u = rng.random((N, nominal.d))
    grid, g_grid, filled = u[:, None], g_of_points(u)[:, None], np.ones((N, 1), dtype=bool)
    total_evals = N
    quantile_idx = math.ceil(p0 * N) - 1
    stats: list[dict] = []

    while True:
        g_vals = g_grid[filled]
        b = float(np.sort(g_vals)[quantile_idx])
        converged = b <= 0.0
        if converged:
            b = 0.0
            seed_mask = filled & (g_grid < 0.0)
        else:
            seed_mask = filled & (g_grid <= b)
        n_seeds = int(np.count_nonzero(seed_mask))
        stats.append(
            {
                "threshold": b,
                "p_level": n_seeds / N,
                "gamma": _chain_correlation_factor(seed_mask.astype(float), filled),
                "failures": int(np.count_nonzero(g_vals < 0.0)),
                "g_max": float(g_vals.max()),
            }
        )
        # a level whose every sample is a seed grows into the same set again
        if converged or len(stats) >= max_levels or n_seeds == N:
            break
        grid, g_grid, filled = _grow_chains(
            grid[seed_mask], g_grid[seed_mask], b, N, PROPOSAL_WIDTH, rng, g_of_points
        )
        total_evals += N - n_seeds

    # a run stopped by max_levels or by a stall never reached the true failure
    # threshold, so its last level counts g < 0, not g <= its threshold
    p_fail = stats[-1]["failures"] / N
    approx_cv = math.inf
    if converged and p_fail > 0.0:  # so every level's p_level is positive
        terms = ((1.0 - s["p_level"]) / (N * s["p_level"]) * (1.0 + s["gamma"]) for s in stats)
        approx_cv = math.sqrt(math.fsum(terms))
    return SubsetResult(
        estimate=p0 ** (len(stats) - 1) * p_fail,
        levels=len(stats),
        total_model_evals=total_evals,
        approx_cv=approx_cv,
        converged=converged,
        level_stats=stats,
    )
