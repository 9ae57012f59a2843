"""Model and limit-state abstractions plus built-in benchmark problems.

A ``Model`` maps a batch of input points z in R^d, shape (n, d), to
quantity-of-interest vectors in R^d', shape (n, d'); a ``LimitState`` maps
the QoI batch to one scalar g per row, shape (n,), whose strictly negative
values define failure. ``Benchmark`` bundles a nominal density, a
high-fidelity model, a suite of surrogates of varying quality, and an
independent oracle for the true failure probability.

Two desk-scale benchmarks are built in:

* ``linear-gaussian``: standard-Gaussian inputs, normalized-sum QoI,
  closed-form tail-probability oracle.
* ``arrhenius-2d``: uniform inputs on a rectangle, saturating
  log-response QoI, midpoint-quadrature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import benchmark_constants as bc
from .densities import GaussianMixture, UniformBox

__all__ = [
    "Model",
    "LimitState",
    "Benchmark",
    "oracle_failure_probability",
    "make_linear_gaussian",
    "make_arrhenius_2d",
    "get_benchmark",
    "benchmark_names",
]


@dataclass(frozen=True)
class Model:
    """Deterministic map from parameter points to a QoI vector.

    ``fn`` is the vectorized implementation: it receives an (n, d) float
    array in any memory order (the densities hand out column-major
    batches), so it must not assume C order, for example through
    ``reshape`` or ``view`` tricks, and it returns an (n, d') array (a
    plain (n,) return is accepted for scalar QoIs).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    input_dim: int
    output_dim: int = 1

    def evaluate(self, z) -> np.ndarray:
        """Evaluate a batch of points (n, input_dim) -> (n, output_dim)."""
        pts = np.asarray(z, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.input_dim:
            raise ValueError(
                f"points must have shape (n, {self.input_dim}), got {pts.shape}"
            )
        out = np.asarray(self.fn(pts), dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.shape != (pts.shape[0], self.output_dim):
            raise ValueError("model returned QoI of unexpected shape")
        return out


@dataclass(frozen=True)
class LimitState:
    """Scalar limit-state function; failure holds iff g(qoi) < 0 (strict),
    so g == 0 counts as safe.

    ``g`` maps a QoI batch (n, d') to one value per row, shape (n,).  A
    different shape or a non-finite value raises ``ValueError``: NaN < 0 is
    false, so every estimator would otherwise count a NaN silently as safe.
    """

    g: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, qoi) -> np.ndarray:
        qoi = np.asarray(qoi, dtype=float)
        if qoi.ndim != 2:
            raise ValueError(f"QoI must have shape (n, d'), got {qoi.shape}")
        vals = np.asarray(self.g(qoi), dtype=float)
        if vals.shape != (qoi.shape[0],):
            raise ValueError(
                f"limit state must return shape ({qoi.shape[0]},), got {vals.shape}"
            )
        bad = int(np.count_nonzero(~np.isfinite(vals)))
        if bad:
            raise ValueError(
                f"limit state returned {bad} non-finite value(s) out of {vals.size}"
            )
        return vals


@dataclass(frozen=True)
class Benchmark:
    name: str
    nominal: object
    high_fidelity: Model
    surrogates: list[Model]
    limit_state: LimitState
    _oracle: Callable[[int], float] = field(repr=False, default=None)

    @property
    def input_dim(self) -> int:
        return self.high_fidelity.input_dim


def oracle_failure_probability(benchmark: Benchmark, resolution: int = 4001) -> float:
    """Reference failure probability from the benchmark's registered oracle.

    For ``linear-gaussian`` the oracle is the standard-normal tail and the
    resolution argument is ignored; for ``arrhenius-2d`` it is a tensor-grid
    midpoint quadrature with ``resolution`` points per axis (>= 101).
    """
    if benchmark._oracle is None:
        raise ValueError(f"benchmark {benchmark.name!r} has no registered oracle")
    return benchmark._oracle(resolution)


# ---------------------------------------------------------------------------
# linear-gaussian
# ---------------------------------------------------------------------------

def make_linear_gaussian(
    beta: float = bc.B1_DEFAULT_BETA, d: int = bc.B1_DEFAULT_DIM
) -> Benchmark:
    """Normalized-sum benchmark with closed-form failure probability.

    Inputs are d independent standard Gaussians, the QoI is
    f(z) = sum(z)/sqrt(d) ~ N(0, 1), and failure occurs when f exceeds
    ``beta``, so P = Phi(-beta).  Surrogates: an additively biased copy,
    a down-scaled copy, and a constant model whose failure set is empty
    for every threshold (it exercises the nominal-fallback path).
    """
    if d < 1:
        raise ValueError("d must be positive")
    scale = 1.0 / np.sqrt(d)
    nominal = GaussianMixture([(1.0, np.zeros(d), np.eye(d))])

    def hf(pts):
        return pts.sum(axis=1) * scale

    def surr_biased(pts):
        return pts.sum(axis=1) * scale + bc.B1_SURROGATE_BIAS

    def surr_scaled(pts):
        return pts.sum(axis=1) * scale * bc.B1_SURROGATE_GAIN

    def surr_constant(pts):
        return np.zeros(pts.shape[0])

    def oracle(resolution: int) -> float:
        from scipy.special import ndtr  # here, so only an oracle call loads SciPy

        return float(ndtr(-beta))

    return Benchmark(
        name="linear-gaussian",
        nominal=nominal,
        high_fidelity=Model(hf, d),
        surrogates=[
            Model(surr_biased, d),
            Model(surr_scaled, d),
            Model(surr_constant, d),
        ],
        limit_state=LimitState(lambda y: beta - y[:, 0]),
        _oracle=oracle,
    )


# ---------------------------------------------------------------------------
# arrhenius-2d
# ---------------------------------------------------------------------------

def _b2_response(A, E):
    rate = A * np.exp(-E / (bc.B2_R_GAS * bc.B2_T_A))
    return bc.B2_T_B + bc.B2_C1 * np.log1p(rate)


def make_arrhenius_2d(tau: float = bc.B2_TAU) -> Benchmark:
    """Two-parameter reaction-rate benchmark on a rectangular domain.

    z = (A, E) is uniform on the domain; the QoI is a smooth saturating
    response mimicking a peak temperature, and failure occurs when it
    exceeds ``tau``.  The oracle is a midpoint quadrature of the failure
    indicator.  Surrogates: a first-order expansion around the domain
    midpoint, the response with E inflated by 5%, and a constant model.
    """
    a_lo, a_hi = bc.B2_A_BOUNDS
    e_lo, e_hi = bc.B2_E_BOUNDS
    nominal = UniformBox([a_lo, e_lo], [a_hi, e_hi])

    a_mid, e_mid = 0.5 * (a_lo + a_hi), 0.5 * (e_lo + e_hi)
    # Analytic gradient of the response at the midpoint.
    rt = bc.B2_R_GAS * bc.B2_T_A
    rate0 = a_mid * np.exp(-e_mid / rt)
    f0 = float(_b2_response(a_mid, e_mid))
    gA = bc.B2_C1 * np.exp(-e_mid / rt) / (1.0 + rate0)
    gE = -bc.B2_C1 * (a_mid / rt) * np.exp(-e_mid / rt) / (1.0 + rate0)

    def hf(pts):
        return _b2_response(pts[:, 0], pts[:, 1])

    def surr_taylor(pts):
        return f0 + gA * (pts[:, 0] - a_mid) + gE * (pts[:, 1] - e_mid)

    def surr_perturbed(pts):
        return _b2_response(pts[:, 0], bc.B2_E_PERTURBATION * pts[:, 1])

    def surr_constant(pts):
        return np.full(pts.shape[0], f0)

    def oracle(resolution: int) -> float:
        if resolution < 101:
            raise ValueError("quadrature oracle needs resolution >= 101")
        a_edges = np.linspace(a_lo, a_hi, resolution + 1)
        e_edges = np.linspace(e_lo, e_hi, resolution + 1)
        a_cells = 0.5 * (a_edges[:-1] + a_edges[1:])
        e_cells = 0.5 * (e_edges[:-1] + e_edges[1:])
        failing = 0
        for start in range(0, resolution, 512):
            block = e_cells[start : start + 512]
            vals = _b2_response(a_cells[None, :], block[:, None])
            failing += int((vals > tau).sum())
        return failing / float(resolution) ** 2

    return Benchmark(
        name="arrhenius-2d",
        nominal=nominal,
        high_fidelity=Model(hf, 2),
        surrogates=[
            Model(surr_taylor, 2),
            Model(surr_perturbed, 2),
            Model(surr_constant, 2),
        ],
        limit_state=LimitState(lambda y: tau - y[:, 0]),
        _oracle=oracle,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], Benchmark]] = {
    "linear-gaussian": make_linear_gaussian,
    # Milder tail variant used for studies that need more failure samples.
    "linear-gaussian-2.5": lambda: make_linear_gaussian(beta=2.5),
    "arrhenius-2d": make_arrhenius_2d,
}


def get_benchmark(name: str) -> Benchmark:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown benchmark {name!r}; known: {known}") from None
    return factory()


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)
