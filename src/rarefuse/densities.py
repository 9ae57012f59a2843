"""Probability densities over the input domain.

Two density families are supported: a uniform distribution on an
axis-aligned box (the usual nominal input law) and a Gaussian (the
biasing densities fitted to failure samples, stored as a one-component
mixture).  Both evaluate their pdf at batches of points, shape (n, d),
and draw reproducible samples from a ``numpy.random.Generator``.  The
class attribute ``full_support`` says whether the density is positive on
all of R^d, which importance sampling requires of a biasing density;
subset simulation samples the unit cube and maps it through
``from_unit_cube``.

Batches come back column-major: ``sample`` and ``from_unit_cube`` write
their (n, d) result into a Fortran-ordered buffer, and so does ``pdf``
with the whitened points.  With d = 2 every later broadcast (``+ mean``,
``- mean``, the box test) and every axis-1 reduction (a model's
``sum(axis=1)``, the quadratic form) would otherwise run an inner loop two
elements long; column-major, the loops run over n.  Per batch of 65 536
two-dimensional points, C order against F order (2-core sandbox, NumPy
2.4): ``sum(axis=1)`` 1.70 against 0.09 ms, ``z - mean`` 0.67 against
0.10 ms, the box test 3.36 against 0.09 ms, the quadratic form 0.48
against 0.10 ms and the Gaussian sampling transform 0.73 against 0.18 ms,
next to 2.4 ms for ``standard_normal`` itself.  The box map broadcasts a
(d,) vector per row in either order (1.08 against 1.04 ms); on the (d, n)
transpose, one scalar per row, it takes 0.17 ms.  No random stream
depends on the order, and at d <= 2 no value does either; from d = 3 the
quadratic form may round a row differently in its last bits (pdf within
1e-12 relative of the C-order form at d = 50).

Densities are immutable after construction and safe to share across
threads; every sampling call owns its generator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "UniformBox",
    "GaussianMixture",
    "fit_gaussian",
    "InsufficientSamplesError",
    "DEFAULT_REGULARIZATION",
]

# Relative ridge added to each diagonal entry of fitted covariances.  Keeps
# the Cholesky factor well defined for near-degenerate failure clouds.
DEFAULT_REGULARIZATION = 1e-10

_LOG_2PI = math.log(2.0 * math.pi)


class InsufficientSamplesError(ValueError):
    """Raised when too few failure samples are available to fit a Gaussian."""


def _as_points(z, dim: int) -> np.ndarray:
    """The points as a float array, checked to have shape (n, dim)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim}), got {z.shape}")
    return z


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
        with np.errstate(over="ignore"):  # refused just below
            widths = upper - lower
        if not np.isfinite(widths).all():
            raise ValueError("every width upper[i] - lower[i] must be finite")
        self.lower = lower
        self.upper = upper
        self.d = lower.shape[0]
        self.volume = float(np.prod(widths))
        self._width = widths
        self._pdf_value = 1.0 / self.volume
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def pdf(self, z) -> np.ndarray:
        """Density values at a batch of points (n, d)."""
        pts = _as_points(z, self.d)
        inside = ((pts >= self.lower) & (pts <= self.upper)).all(axis=1)
        return inside * self._pdf_value

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` i.i.d. points, shape (count, d).

        The same values and stream position as
        ``rng.uniform(lower, upper, (count, d))``, which also computes
        ``lower + (upper - lower) * u`` per draw.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self.from_unit_cube(rng.random((count, self.d)))

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube points (n, d) affinely onto the box: ``lower +
        width * u``, formed on the (d, n) transpose (see the module notes)."""
        u = _as_points(u, self.d)
        out = np.multiply(u.T, self._width[:, None], out=np.empty((self.d, len(u))))
        out += self.lower[:, None]
        return out.T

    def to_dict(self) -> dict:
        return {
            "type": "uniform_box",
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }

    def __repr__(self):
        return f"UniformBox(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class GaussianMixture:
    """Gaussian density with full support on R^d, stored as a one-component
    mixture.

    The constructor takes one (weight, mean, covariance) triple in a list;
    the weight must be 1 within 1e-12 and the covariance symmetric positive
    definite.  Full support guarantees supp(p) is contained in supp(q) for
    any nominal density p, which importance sampling requires.
    """

    full_support = True

    _WEIGHT_TOL = 1e-12
    _SYM_TOL = 1e-12

    def __init__(self, components):
        if len(components) != 1:
            raise ValueError(f"expected one component, got {len(components)}")
        ((weight, mean, cov),) = components
        if not abs(float(weight) - 1.0) <= self._WEIGHT_TOL:
            raise ValueError("the component weight must be 1 within 1e-12")
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        d = mean.size
        if mean.shape != (d,) or cov.shape != (d, d):
            raise ValueError("mean and covariance shapes are inconsistent")
        for name, value in (("mean", mean), ("covariance", cov)):
            if not np.isfinite(value).all():  # NaN passes the checks below
                raise ValueError(f"{name} entries must be finite")
        # row blocks against column blocks, so no d x d temporary is made
        tol = self._SYM_TOL * max(1.0, float(cov.max()), -float(cov.min()))
        for i in range(0, d, 128):
            asym = cov[i : i + 128] - cov[:, i : i + 128].T
            if np.abs(asym, out=asym).max() > tol:
                raise ValueError("covariance must be symmetric")

        self.d = d
        self.mean = mean
        self.covariance = cov
        # The Cholesky factor doubles as the positive-definiteness check.  It
        # draws samples (z = mean + normals @ L.T); its inverse, transposed,
        # whitens points (y = (z - mean) @ inv(L).T).  Both transposes are
        # stored C-contiguous, whatever the order of the batches they
        # multiply (the products are written column-major): the (n, d) @
        # (d, d) product runs about 4x faster than through a transposed
        # view, with the same bits, and a one-row product gives the bits of
        # that row in a batch (through the view BLAS took another path for
        # it).  A standard normal (mean exactly 0, covariance exactly I) has
        # L = I, and a product with I is exact: it stores no factor, and its
        # batches are only copied column-major (at d = 1500 the factor and
        # its inverse would cost 200 ms and 36 MB).
        self._chol_t = self._whiten = None
        log_det = 0.0
        if mean.any() or np.count_nonzero(cov) != d or not (np.diagonal(cov) == 1.0).all():
            try:
                L = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("covariance must be positive definite") from None
            self._chol_t = np.ascontiguousarray(L.T)
            self._whiten = np.ascontiguousarray(np.linalg.inv(L).T)
            log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        self._log_norm = -0.5 * (d * _LOG_2PI + log_det)
        self.mean.setflags(write=False)
        self.covariance.setflags(write=False)

    def pdf(self, z) -> np.ndarray:
        """Density values at a batch of points (n, d)."""
        pts = _as_points(z, self.d)
        if self._whiten is None:  # column-major as below: einsum may round by layout
            y = np.asfortranarray(pts)
        else:
            y = np.matmul(pts - self.mean, self._whiten, out=np.empty((self.d, len(pts))).T)
        # exp(log_norm - 0.5 * quad), formed in the array einsum returns
        out = np.einsum("ij,ij->i", y, y)
        out *= -0.5
        out += self._log_norm
        return np.exp(out, out=out)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` points through the Cholesky factor, shape (count, d)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._from_normals(rng.standard_normal((count, self.d)))

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube points (n, d) through the coordinate-wise normal
        quantile, then the Cholesky factor."""
        from scipy.special import ndtri  # here, so only this call loads SciPy

        u = _as_points(u, self.d)
        return self._from_normals(ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)))

    def _from_normals(self, normals: np.ndarray) -> np.ndarray:
        """mean + normals @ L.T, written column-major."""
        if self._chol_t is None:
            out = np.asfortranarray(normals)  # a fresh array, or normals itself
        else:
            out = np.matmul(normals, self._chol_t, out=np.empty((self.d, len(normals))).T)
        out += self.mean
        return out

    def to_dict(self) -> dict:
        return {
            "type": "gaussian_mixture",
            "components": [
                {
                    "weight": 1.0,
                    "mean": self.mean.tolist(),
                    "covariance": self.covariance.tolist(),
                }
            ],
        }

    def __repr__(self):
        return f"GaussianMixture(d={self.d})"


def fit_gaussian(samples) -> GaussianMixture:
    """Fit a Gaussian to an (n, d) batch of samples.

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
        Samples not of shape (n, d), non-finite samples, or degenerate
        samples whose regularized covariance is still singular.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"samples must have shape (n, d), got {pts.shape}")
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
