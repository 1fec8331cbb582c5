"""Frechet distance between Gaussian moment fits of two sample populations.

FD(a, b) = |mu_a - mu_b|^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}). The matrix
square root is taken through the symmetric similarity form
S_a^{1/2} S_b S_a^{1/2}, which is positive semi-definite by construction, so
a plain symmetric eigendecomposition suffices and no non-symmetric square
root is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

EIGENVALUE_FLOOR = -1e-10
ROUNDOFF_FLOOR = -1e-8


@dataclass(frozen=True)
class MomentFit:
    """Mean, unbiased covariance, and sample count of one population."""

    mean: Array
    cov: Array
    count: int


def fit_moments(samples) -> MomentFit:
    """Gaussian moment fit; covariance is the unbiased (n - 1) estimate.

    Samples that hold a NaN or an infinity have no finite moments, so they
    raise ValueError rather than fit a mean or covariance that is not finite.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be 2-d (n, dim), got {x.ndim}-d")
    n, dim = x.shape
    bad_rows = int(np.count_nonzero(~np.isfinite(x).all(axis=1)))
    if bad_rows:
        raise ValueError(f"{bad_rows} of {n} samples hold a non-finite value")
    if n < 2:
        raise ValueError(f"need at least 2 samples to fit a covariance, got {n}")
    if dim < 1:
        raise ValueError("need at least 1 dimension")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return MomentFit(mean=mean, cov=cov, count=n)


def _spd_sqrt(mat: Array) -> Array:
    """Square root of a symmetric PSD matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    if np.any(vals < EIGENVALUE_FLOOR * max(1.0, float(np.abs(vals).max()))):
        raise ValueError(f"matrix is not PSD: eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: MomentFit, b: MomentFit) -> float:
    """Squared-mean gap plus the covariance transport term; always >= 0."""
    if a.mean.shape != b.mean.shape:
        raise ValueError(
            f"dimension mismatch: {a.mean.shape[0]} vs {b.mean.shape[0]}"
        )
    diff = a.mean - b.mean
    sqrt_a = _spd_sqrt(a.cov)
    inner = sqrt_a @ b.cov @ sqrt_a
    inner = 0.5 * (inner + inner.T)
    vals = np.linalg.eigvalsh(inner)
    trace_sqrt = np.sqrt(np.clip(vals, 0.0, None)).sum()
    fd = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * trace_sqrt)
    if fd < ROUNDOFF_FLOOR:
        raise ValueError(f"frechet distance evaluated to {fd}, below round-off floor")
    return max(fd, 0.0)
