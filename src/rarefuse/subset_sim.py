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
    samples_per_level: int
    total_model_evals: int
    approx_cv: float
    converged: bool
    level_stats: list[dict] = field(repr=False)

    def csv_row(self) -> dict:
        return {
            "samples": self.samples_per_level * self.levels,
            "samples_each_level": self.samples_per_level,
            "levels": self.levels,
            "estimate": self.estimate,
            "approx_cv": self.approx_cv,
        }


def _reflect(x: np.ndarray) -> np.ndarray:
    """Fold coordinates back into [0, 1] by reflection at the boundaries.

    Coordinates already inside pass through bit-exactly.
    """
    folded = np.abs(np.mod(x + 1.0, 2.0) - 1.0)
    return np.where((x >= 0.0) & (x <= 1.0), x, folded)


def _metropolis_move(states, g_states, threshold, width, rng, g_of_points):
    """One Metropolis move of a batch of chains conditioned on g <= threshold.

    ``states`` is an (n, d) array of unit-cube points whose limit-state
    values are ``g_states``.  Every coordinate is perturbed by a uniform
    window of half-width ``width``, reflected at the cube boundaries; a
    candidate is kept iff its g stays at or below ``threshold``, otherwise
    its chain repeats the current state.  All candidates are evaluated in
    one ``g_of_points`` call.  Returns the new states and their g values.
    """
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
    Returns (points, g_values, model_evals, chain_lengths) with the points
    stored chain after chain.
    """
    n_seeds, d = seeds_u.shape
    base, rem = divmod(n_total, n_seeds)
    lengths = [base + 1 if c < rem else base for c in range(n_seeds)]
    steps = lengths[0]
    grid = np.empty((n_seeds, steps, d))
    g_grid = np.empty((n_seeds, steps))
    grid[:, 0], g_grid[:, 0] = seeds_u, seeds_g
    for t in range(1, steps):
        active = n_seeds if t < base else rem
        grid[:active, t], g_grid[:active, t] = _metropolis_move(
            grid[:active, t - 1], g_grid[:active, t - 1], threshold, width, rng, g_of_points
        )
    filled = np.arange(steps) < np.array(lengths)[:, None]
    return grid[filled], g_grid[filled], n_total - n_seeds, lengths


def _chain_correlation_factor(ind: np.ndarray, lengths: list[int]) -> float:
    """Autocorrelation inflation factor gamma of a chain-sampled indicator.

    Frozen estimator: with N samples in Nc chains of average length
    Nl = floor(N/Nc), gamma = 2 * sum_{lag=1}^{Nl-1} (1 - lag*Nc/N) * rho(lag)
    where rho(lag) is the sample autocorrelation of the indicator sequence
    at that lag, pooled over chains (products of pairs lag apart within a
    chain, minus the squared level probability, normalized by the lag-0
    variance).  Independent samples give gamma = 0.
    Chains are rows of a zero-padded grid; sums of 0/1 products are exact,
    so the result does not depend on the summation order.
    """
    n = ind.size
    n_chains = len(lengths)
    p = float(ind.mean())
    r0 = p * (1.0 - p)
    if r0 == 0.0:
        return 0.0
    max_lag = n // n_chains
    lengths_arr = np.asarray(lengths)
    grid = np.zeros((n_chains, lengths_arr.max()))
    grid[np.arange(grid.shape[1]) < lengths_arr[:, None]] = ind
    gamma = 0.0
    for lag in range(1, max_lag):
        # lag < N/Nc <= the longest chain, so pairs > 0
        pairs = int(np.maximum(lengths_arr - lag, 0).sum())
        num = float(np.vdot(grid[:, :-lag], grid[:, lag:]))
        rho = (num / pairs - p * p) / r0
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
    failure threshold is flagged ``converged=False`` with approx_cv inf.
    """
    if N < 100:
        raise ValueError("N must be >= 100")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")

    def g_of_points(u):
        return ls.evaluate(model.evaluate(nominal.from_unit_cube(u)))

    points = rng.random((N, nominal.d))
    g_vals = g_of_points(points)
    total_evals = N

    quantile_idx = math.ceil(p0 * N) - 1
    delta_sq: list[float] = []
    stats: list[dict] = []
    lengths: list[int] | None = None  # None marks the independent first level
    level = 1

    while True:
        b = float(np.sort(g_vals)[quantile_idx])
        converged = b <= 0.0
        if converged:
            b = 0.0
            seed_mask = g_vals < 0.0
        else:
            seed_mask = g_vals <= b
        p_level = float(seed_mask.mean())
        gamma = (
            0.0
            if lengths is None
            else _chain_correlation_factor(seed_mask.astype(float), lengths)
        )
        if p_level > 0.0:
            delta_sq.append((1.0 - p_level) / (N * p_level) * (1.0 + gamma))
        stats.append(
            {
                "threshold": b,
                "p_level": p_level,
                "gamma": gamma,
                "failures": int(np.count_nonzero(g_vals < 0.0)),
                "g_max": float(g_vals.max()),
            }
        )
        if converged or level >= max_levels:
            break
        points, g_vals, new_evals, lengths = _grow_chains(
            points[seed_mask], g_vals[seed_mask], b, N, PROPOSAL_WIDTH, rng, g_of_points
        )
        total_evals += new_evals
        level += 1

    # a run stopped by max_levels never reached the true failure threshold,
    # so its last level counts g < 0, not g <= its threshold
    p_fail = stats[-1]["failures"] / N
    return SubsetResult(
        estimate=p0 ** (level - 1) * p_fail,
        levels=level,
        samples_per_level=N,
        total_model_evals=total_evals,
        approx_cv=(
            math.sqrt(math.fsum(delta_sq))
            if converged and p_fail > 0.0
            else float("inf")
        ),
        converged=converged,
        level_stats=stats,
    )
