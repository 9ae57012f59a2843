"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the quadratic-program
solver below is a plain projected-gradient iteration, not a linear solve.
The Gaussian-mixture pdf, the importance-sampling loop, the one-shot
biasing-density build and the subset simulation level loop are the plain
forms the package once used, kept as references for the faster ones.
"""

import math

import numpy as np

from rarefuse.densities import InsufficientSamplesError, fit_gaussian
from rarefuse.mfis import BiasingBuildReport
from rarefuse.subset_sim import PROPOSAL_WIDTH, SubsetResult, _metropolis_move


def random_spd(rng: np.random.Generator, k: int, eig_low=0.1, eig_high=10.0):
    """Random SPD matrix with log-uniform eigenvalues in [eig_low, eig_high]."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), k))
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def qp_bruteforce_weights(sigma: np.ndarray, tol=1e-13, max_iter=500_000):
    """Minimize a' S a subject to sum(a) = 1 by projected gradient descent.

    The step size comes from the largest eigenvalue; the iterate is
    projected back onto the affine constraint after every step.  Converges
    linearly for SPD matrices, no linear system is ever solved.
    """
    k = sigma.shape[0]
    x = np.full(k, 1.0 / k)
    step = 0.5 / float(np.linalg.eigvalsh(sigma)[-1])
    for _ in range(max_iter):
        y = x - step * 2.0 * (sigma @ x)
        y += (1.0 - y.sum()) / k
        if np.max(np.abs(y - x)) < tol:
            return y
        x = y
    return x


def componentwise_weight_residual(sigma: np.ndarray, weights) -> float:
    """Check a weight vector against the component-wise optimality formula.

    Each optimal weight satisfies

        alpha_i = (1/S_ii) * [ (1 + T) / sum_l (1/S_ll) - sum_{j!=i} alpha_j S_ij ]

    with T = sum_l (1/S_ll) sum_{j!=l} alpha_j S_lj, i.e. the weights are
    inversely proportional to the individual variances with corrections
    from the cross-covariances.  Returns max_i |alpha_i - rhs_i|; optimal
    weights reproduce themselves to ~1e-10.
    """
    alpha = np.asarray(weights, dtype=float)
    m = np.asarray(sigma, dtype=float)
    diag = np.diag(m)
    if np.any(diag <= 0.0):
        raise ValueError("covariance diagonal must be strictly positive")
    if abs(alpha.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    off = m - np.diag(diag)
    cross = off @ alpha  # sum_{j != i} alpha_j S_ij, for every i
    inv_sum = float((1.0 / diag).sum())
    t_corr = float((cross / diag).sum())
    rhs = ((1.0 + t_corr) / inv_sum - cross) / diag
    return float(np.max(np.abs(alpha - rhs)))


def midpoint_quadrature_1d(fn, lo, hi, n=4000):
    """Midpoint-rule integral of fn over [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return float(fn(mid).sum() * (hi - lo) / n)


def midpoint_quadrature_2d(fn, lo, hi, n=400):
    """Midpoint-rule integral of fn over the box [lo, hi]^2 (vectorized)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = np.linspace(lo[0], hi[0], n + 1)
    ys = np.linspace(lo[1], hi[1], n + 1)
    xm = 0.5 * (xs[:-1] + xs[1:])
    ym = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(xm, ym, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / n**2
    return float(fn(pts).sum() * cell)


def chain_correlation_factor_loop(ind: np.ndarray, lengths) -> float:
    """Chain-correlation factor gamma by an explicit loop over lag and chain.

    The pooled lag-k products are accumulated chain by chain from the
    contiguous segments of ``ind`` (chains stored one after another).
    """
    n = ind.size
    n_chains = len(lengths)
    p = float(ind.mean())
    r0 = p * (1.0 - p)
    if r0 == 0.0:
        return 0.0
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    gamma = 0.0
    for lag in range(1, n // n_chains):
        num = 0.0
        pairs = 0
        for c in range(n_chains):
            seg = ind[offsets[c] : offsets[c + 1]]
            if seg.size > lag:
                num += float(seg[:-lag] @ seg[lag:])
                pairs += seg.size - lag
        if pairs == 0:
            break
        rho = (num / pairs - p * p) / r0
        gamma += 2.0 * (1.0 - lag * n_chains / n) * rho
    return gamma


def subset_simulation_loop(model, ls, nominal, N, p0, max_levels, rng) -> SubsetResult:
    """Subset simulation with each level stored flat, chain after chain.

    Every level is a flat array of N samples plus the list of its chain
    lengths (none at the independent first level, whose gamma is 0); the
    chains of the next level grow in lockstep from the seeds, one
    ``_metropolis_move`` per step, and gamma comes from
    :func:`chain_correlation_factor_loop`.  The squared CV terms are summed
    as the levels are made.
    """

    def g_of_points(u):
        return ls.evaluate(model.evaluate(nominal.from_unit_cube(u)))

    points = rng.random((N, nominal.d))
    g_vals = g_of_points(points)
    total_evals = N
    quantile_idx = math.ceil(p0 * N) - 1
    delta_sq, stats = [], []
    lengths = None
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
        gamma = 0.0
        if lengths is not None:
            gamma = chain_correlation_factor_loop(seed_mask.astype(float), lengths)
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
        seeds_u, seeds_g = points[seed_mask], g_vals[seed_mask]
        n_seeds = seeds_g.size
        base, rem = divmod(N, n_seeds)
        lengths = [base + 1 if c < rem else base for c in range(n_seeds)]
        chains_u = [[u] for u in seeds_u]
        chains_g = [[g] for g in seeds_g]
        for t in range(1, lengths[0]):
            active = [c for c in range(n_seeds) if lengths[c] > t]
            new_u, new_g = _metropolis_move(
                np.array([chains_u[c][-1] for c in active]),
                np.array([chains_g[c][-1] for c in active]),
                b,
                PROPOSAL_WIDTH,
                rng,
                g_of_points,
            )
            for c, u, g in zip(active, new_u, new_g):
                chains_u[c].append(u)
                chains_g[c].append(g)
        points = np.array([u for chain in chains_u for u in chain])
        g_vals = np.array([g for chain in chains_g for g in chain])
        total_evals += N - n_seeds
        level += 1

    p_fail = stats[-1]["failures"] / N
    return SubsetResult(
        estimate=p0 ** (level - 1) * p_fail,
        levels=level,
        total_model_evals=total_evals,
        approx_cv=(
            math.sqrt(math.fsum(delta_sq)) if converged and p_fail > 0.0 else math.inf
        ),
        converged=converged,
        level_stats=stats,
    )


def gaussian_mixture_pdf_solve(gm, pts: np.ndarray) -> np.ndarray:
    """Gaussian pdf at points (n, d) by a general linear solve against the
    Cholesky factor of the covariance."""
    L = np.linalg.cholesky(gm.covariance)
    y = np.linalg.solve(L, (pts - gm.mean).T)
    quad = np.einsum("ij,ij->j", y, y)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    log_norm = -0.5 * (gm.d * math.log(2.0 * math.pi) + log_det)
    return np.exp(log_norm - 0.5 * quad)


def importance_sampling_loop(model, ls, nominal, biasing, n, rng, chunk):
    """Importance-sampling estimate by the plain chunked loop: both pdfs on
    every draw, a dense array of all n weights ``ind * p / q`` (zero at
    every safe draw) and ``math.fsum`` over all n values for both sums.

    Returns (estimate, sample_variance, hits, model_evals).
    """
    weights = np.empty(n)
    hits = evals = done = 0
    while done < n:
        batch = min(chunk, n - done)
        pts = biasing.sample(rng, batch)
        q_vals = biasing.pdf(pts)
        p_vals = nominal.pdf(pts)
        ind = np.zeros(batch)
        inside = p_vals > 0.0
        evals += int(inside.sum())
        if inside.any():
            ind[inside] = ls.evaluate(model.evaluate(pts[inside])) < 0.0
        weights[done : done + batch] = ind * p_vals / q_vals
        hits += int(ind.sum())
        done += batch
    estimate = math.fsum(weights) / n
    if weights.max() == weights.min():
        sample_variance = 0.0
    else:
        sample_variance = math.fsum((weights - estimate) ** 2) / (n - 1.0)
    return estimate, sample_variance, hits, evals


def build_biasing_density_once(surrogate, ls, nominal, m, rng, threshold_relax=None):
    """Biasing-density build in one shot: all ``m`` nominal draws, their
    surrogate QoI and limit-state values held at once, then the failing
    points fitted (the nominal when fewer than d+2 fail)."""
    relax = 0.0 if threshold_relax is None else float(threshold_relax)
    pts = nominal.sample(rng, m)
    failing = pts[ls.evaluate(surrogate.evaluate(pts)) < relax]
    try:
        density = fit_gaussian(failing)
    except InsufficientSamplesError:
        return BiasingBuildReport(m, failing.shape[0], True, nominal, relax)
    return BiasingBuildReport(m, failing.shape[0], False, density, relax)
