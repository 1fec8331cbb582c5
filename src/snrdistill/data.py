"""Synthetic class-conditional dataset with known ground-truth moments.

Each class is an isotropic Gaussian around a center on a circle of radius R
in the first two latent coordinates (extra coordinates, if any, are centered
at zero). The mixture moments are available in closed form, which is what
makes the Frechet-distance evaluation checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

Array = np.ndarray

# Rows of updates a training loop draws ahead in one stack.
LOOKAHEAD_ROWS = 4096


@dataclass(frozen=True)
class ToyDataset:
    num_classes: int = 8
    latent_dim: int = 2
    radius: float = 2.0
    stddev: float = 0.15

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.latent_dim < 2:
            raise ValueError("latent_dim must be >= 2 for the circular layout")
        if self.stddev < 0:
            raise ValueError("stddev must be >= 0")

    @cached_property
    def centers(self) -> Array:
        """(num_classes, latent_dim) array of exact mode centers. It is computed
        once per dataset and read-only, so no caller can change later draws."""
        angles = 2.0 * np.pi * np.arange(self.num_classes) / self.num_classes
        centers = np.zeros((self.num_classes, self.latent_dim), dtype=np.float64)
        centers[:, 0] = self.radius * np.cos(angles)
        centers[:, 1] = self.radius * np.sin(angles)
        centers.flags.writeable = False
        return centers


def draw_batch(dataset: ToyDataset, batch_size: int, rng: np.random.Generator
               ) -> tuple[Array, Array]:
    """Uniform class ids plus Gaussian latents around the class centers."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cond = rng.integers(0, dataset.num_classes, size=batch_size)
    z0 = dataset.centers[cond] + dataset.stddev * rng.standard_normal(
        (batch_size, dataset.latent_dim)
    )
    return cond, z0


def _draw_stacks(dataset: ToyDataset, batch_size: int, updates: int, rng: np.random.Generator,
                 draw_times):
    """Yields (first, (cond, z0, times, eps)) for each stack of up to
    K = max(1, LOOKAHEAD_ROWS // batch_size) updates: the index of its first
    update, and the rows of its updates stacked in update order.

    Each update draws its batch, then `draw_times(rng, batch_size)`, then its
    noise: the same rng calls in the same order as drawing one update at a
    time, so every update gets the same rows whatever K is.
    """
    lookahead = max(1, LOOKAHEAD_ROWS // batch_size)
    for first in range(0, updates, lookahead):
        draws = []
        for _ in range(min(lookahead, updates - first)):
            cond, z0 = draw_batch(dataset, batch_size, rng)
            times = draw_times(rng, batch_size)
            draws.append((cond, z0, times, rng.standard_normal(z0.shape)))
        yield first, tuple(np.concatenate(parts) for parts in zip(*draws))


def reference_population(dataset: ToyDataset, n: int, rng: np.random.Generator) -> Array:
    """n i.i.d. draws from the full class mixture, for evaluation references."""
    _, z0 = draw_batch(dataset, n, rng)
    return z0


def mixture_moments(dataset: ToyDataset) -> tuple[Array, Array]:
    """Exact mean and covariance of the uniform class mixture."""
    centers = dataset.centers
    mean = centers.mean(axis=0)
    centered = centers - mean
    cov = centered.T @ centered / dataset.num_classes
    cov += dataset.stddev**2 * np.eye(dataset.latent_dim)
    return mean, cov
