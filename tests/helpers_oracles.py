"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the quadratic-program
solver below is a plain projected-gradient iteration, not a linear solve.
"""

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
