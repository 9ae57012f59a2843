"""Probability densities over the input domain.

Two density families are supported: a uniform distribution on an
axis-aligned box (the usual nominal input law) and a Gaussian mixture
(the biasing densities fitted to failure samples).  Both evaluate their
pdf at single points or at batches of points and draw reproducible
samples from a ``numpy.random.Generator``.  The class attribute
``full_support`` says whether the density is positive on all of R^d,
which importance sampling requires of a biasing density; subset
simulation samples the unit cube and maps it through ``from_unit_cube``.

Densities are immutable after construction and safe to share across
threads; every sampling call owns its generator.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import ndtri

__all__ = [
    "UniformBox",
    "GaussianMixture",
    "fit_gaussian",
    "density_from_dict",
    "density_from_json",
    "InsufficientSamplesError",
    "DEFAULT_REGULARIZATION",
]

# Relative ridge added to each diagonal entry of fitted covariances.  Keeps
# the Cholesky factor well defined for near-degenerate failure clouds.
DEFAULT_REGULARIZATION = 1e-10

_LOG_2PI = math.log(2.0 * math.pi)


class InsufficientSamplesError(ValueError):
    """Raised when too few failure samples are available to fit a Gaussian."""


def _as_points(z, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize input to shape (n, dim); returns (points, was_single)."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        if z.shape[0] != dim:
            raise ValueError(f"point has dimension {z.shape[0]}, expected {dim}")
        return z.reshape(1, dim), True
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim}), got {z.shape}")
    return z, False


class UniformBox:
    """Uniform density on the axis-aligned box [lower, upper].

    pdf is 1/volume inside the box and exactly 0 outside.
    """

    full_support = False

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if not np.all(lower < upper):
            raise ValueError("lower[i] < upper[i] must hold for every coordinate")
        self.lower = lower
        self.upper = upper
        self.d = lower.shape[0]
        self.volume = float(np.prod(upper - lower))
        self._pdf_value = 1.0 / self.volume
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def pdf(self, z):
        """Density value at a point (d,) or batch (n, d)."""
        pts, single = _as_points(z, self.d)
        inside = np.all((pts >= self.lower) & (pts <= self.upper), axis=1)
        out = np.where(inside, self._pdf_value, 0.0)
        return float(out[0]) if single else out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` i.i.d. points, shape (count, d)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return rng.uniform(self.lower, self.upper, size=(count, self.d))

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube points (n, d) affinely onto the box."""
        return self.lower + u * (self.upper - self.lower)

    def to_dict(self) -> dict:
        return {
            "type": "uniform_box",
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, UniformBox)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )

    def __repr__(self):
        return f"UniformBox(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class GaussianMixture:
    """Gaussian mixture density with full support on R^d.

    Components are (weight, mean, covariance) triples.  Weights must be
    positive and sum to one; every covariance must be symmetric positive
    definite.  Full support guarantees supp(p) is contained in supp(q)
    for any nominal density p, which importance sampling requires.
    """

    full_support = True

    _WEIGHT_TOL = 1e-12
    _SYM_TOL = 1e-12

    def __init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights, means, covs = [], [], []
        for w, mean, cov in components:
            weights.append(float(w))
            means.append(np.asarray(mean, dtype=float))
            covs.append(np.asarray(cov, dtype=float))
        d = means[0].shape[0]
        for mean, cov in zip(means, covs):
            if mean.shape != (d,) or cov.shape != (d, d):
                raise ValueError("component shapes inconsistent with dimension")
            scale = max(1.0, float(np.abs(cov).max()))
            if np.abs(cov - cov.T).max() > self._SYM_TOL * scale:
                raise ValueError("covariance must be symmetric")
        w = np.asarray(weights)
        if np.any(w <= 0.0):
            raise ValueError("component weights must be positive")
        if abs(w.sum() - 1.0) > self._WEIGHT_TOL:
            raise ValueError("component weights must sum to 1 within 1e-12")

        self.d = d
        self.weights = w
        self.means = means
        self.covariances = covs
        # Cholesky factors double as the positive-definiteness check.  Each
        # factor L draws samples (z = mean + normals @ L.T); its inverse,
        # transposed, whitens points (y = (z - mean) @ inv(L).T).
        self._chols = []
        self._whitens = []
        self._log_norms = []
        for cov in covs:
            try:
                L = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("covariance must be positive definite") from None
            self._chols.append(L)
            self._whitens.append(np.linalg.inv(L).T)
            log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
            self._log_norms.append(-0.5 * (d * _LOG_2PI + log_det))
        for arr in (self.weights, *self.means, *self.covariances):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return len(self.means)

    def pdf(self, z):
        """Density value at a point (d,) or batch (n, d)."""
        pts, single = _as_points(z, self.d)
        # log-sum-exp across components for tail stability
        logs = np.empty((self.n_components, pts.shape[0]))
        for i, (mean, whiten) in enumerate(zip(self.means, self._whitens)):
            y = (pts - mean) @ whiten
            quad = np.einsum("ij,ij->i", y, y)
            logs[i] = math.log(self.weights[i]) + self._log_norms[i] - 0.5 * quad
        if self.n_components == 1:
            out = np.exp(logs[0])
        else:
            top = logs.max(axis=0)
            out = np.exp(top) * np.exp(logs - top).sum(axis=0)
        return float(out[0]) if single else out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` points: categorical component pick, then a Gaussian
        draw through the component's Cholesky factor."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        normals = rng.standard_normal((count, self.d))
        if self.n_components == 1:
            out = normals @ self._chols[0].T
            out += self.means[0]
            return out
        idx = rng.choice(self.n_components, size=count, p=self.weights)
        out = np.empty((count, self.d))
        for i in range(self.n_components):
            mask = idx == i
            out[mask] = self.means[i] + normals[mask] @ self._chols[i].T
        return out

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube points (n, d) through the coordinate-wise normal
        quantile, then the Cholesky factor; single-component mixtures only."""
        if self.n_components != 1:
            raise ValueError(
                "only single-component Gaussian nominals are transformable"
            )
        z = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
        return self.means[0] + z @ self._chols[0].T

    def to_dict(self) -> dict:
        return {
            "type": "gaussian_mixture",
            "components": [
                {
                    "weight": float(w),
                    "mean": mean.tolist(),
                    "covariance": cov.tolist(),
                }
                for w, mean, cov in zip(self.weights, self.means, self.covariances)
            ],
        }

    def __eq__(self, other):
        if not isinstance(other, GaussianMixture):
            return False
        return (
            self.n_components == other.n_components
            and np.array_equal(self.weights, other.weights)
            and all(np.array_equal(a, b) for a, b in zip(self.means, other.means))
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.covariances, other.covariances)
            )
        )

    def __repr__(self):
        return f"GaussianMixture(d={self.d}, n_components={self.n_components})"


def fit_gaussian(samples) -> GaussianMixture:
    """Fit a one-component Gaussian mixture to the given samples.

    Uses the sample mean and the unbiased (n-1 divisor) sample covariance,
    then inflates each diagonal entry by the relative ridge
    ``DEFAULT_REGULARIZATION * cov[i, i]``.  The ridge is applied per
    coordinate rather than as an isotropic trace/d multiple: parameter
    domains can mix wildly different scales (e.g. 1e13 against 1e3), and
    an isotropic ridge would swamp the small-scale coordinates.  Requires
    at least d+2 samples, which makes the sample covariance almost surely
    nonsingular for continuous data.

    Raises
    ------
    InsufficientSamplesError
        Fewer than d+2 samples ("insufficient failure samples"); callers
        building biasing densities fall back to the nominal density.
    ValueError
        Degenerate samples whose regularized covariance is still singular.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n, d = pts.shape
    if n < d + 2:
        raise InsufficientSamplesError(
            f"insufficient failure samples: need at least {d + 2}, got {n}"
        )
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    cov[np.diag_indices(d)] *= 1.0 + DEFAULT_REGULARIZATION
    return GaussianMixture([(1.0, mean, cov)])


def density_from_dict(doc: dict):
    """Rebuild a density from its dict form (see ``to_dict``)."""
    kind = doc.get("type")
    if kind == "uniform_box":
        return UniformBox(doc["lower"], doc["upper"])
    if kind == "gaussian_mixture":
        comps = [(c["weight"], c["mean"], c["covariance"]) for c in doc["components"]]
        return GaussianMixture(comps)
    raise ValueError(f"unknown density type: {kind!r}")


def density_from_json(text: str):
    return density_from_dict(json.loads(text))
