"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the quadratic-program
solver below is a plain projected-gradient iteration, not a linear solve.
The Gaussian-mixture pdf and the importance-sampling loop are the plain
forms the package once used, kept as references for the faster ones.
"""

import math

import numpy as np


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


def gaussian_mixture_pdf_solve(gm, pts: np.ndarray) -> np.ndarray:
    """Mixture pdf at points (n, d) by a general linear solve against each
    component's Cholesky factor and a log-sum-exp over components."""
    logs = np.empty((gm.n_components, pts.shape[0]))
    for i, (w, mean, cov) in enumerate(zip(gm.weights, gm.means, gm.covariances)):
        L = np.linalg.cholesky(cov)
        y = np.linalg.solve(L, (pts - mean).T)
        quad = np.einsum("ij,ij->j", y, y)
        log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        log_norm = -0.5 * (gm.d * math.log(2.0 * math.pi) + log_det)
        logs[i] = math.log(w) + log_norm - 0.5 * quad
    top = logs.max(axis=0)
    return np.exp(top) * np.exp(logs - top).sum(axis=0)


def importance_sampling_loop(model, ls, nominal, biasing, n, rng, chunk):
    """Importance-sampling estimate by the plain chunked loop: both pdfs on
    every draw, weights ``ind * p / q`` and ``math.fsum`` for both sums.

    Returns (estimate, sample_variance, hits, model_evals).
    """
    weights = np.empty(n)
    hits = evals = done = 0
    while done < n:
        batch = min(chunk, n - done)
        pts = biasing.sample(rng, batch)
        q_vals = np.atleast_1d(biasing.pdf(pts))
        p_vals = np.atleast_1d(nominal.pdf(pts))
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
