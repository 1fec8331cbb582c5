import numpy as np
import pytest

from snrdistill.data import ToyDataset, draw_batch, mixture_moments, reference_population


def test_zero_stddev_draws_equal_centers():
    ds = ToyDataset(stddev=0.0)
    cond, z0 = draw_batch(ds, 64, np.random.default_rng(0))
    np.testing.assert_array_equal(z0, ds.centers[cond])


def test_fixed_seed_reproduces_batches():
    ds = ToyDataset()
    a_cond, a_z = draw_batch(ds, 32, np.random.default_rng(123))
    b_cond, b_z = draw_batch(ds, 32, np.random.default_rng(123))
    np.testing.assert_array_equal(a_cond, b_cond)
    np.testing.assert_array_equal(a_z, b_z)


def test_centers_lie_on_circle():
    ds = ToyDataset(num_classes=8, radius=2.0)
    radii = np.linalg.norm(ds.centers, axis=1)
    np.testing.assert_allclose(radii, 2.0, atol=1e-12)
    np.testing.assert_allclose(ds.centers[0], [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(ds.centers[2], [0.0, 2.0], atol=1e-12)


def test_centers_are_computed_once_and_read_only():
    ds = ToyDataset()
    assert ds.centers is ds.centers
    cond, z0 = draw_batch(ds, 64, np.random.default_rng(3))
    mean, cov = mixture_moments(ds)
    with pytest.raises(ValueError, match="read-only"):
        ds.centers[0, 0] = 99.0
    again_cond, again_z0 = draw_batch(ds, 64, np.random.default_rng(3))
    again_mean, again_cov = mixture_moments(ds)
    assert np.array_equal(again_cond, cond) and np.array_equal(again_z0, z0)
    assert np.array_equal(again_mean, mean) and np.array_equal(again_cov, cov)


def test_class_zero_mean_within_lln_bound():
    # law of large numbers: mean of n draws is within 3 s / sqrt(n) of the
    # center (per coordinate) except with ~0.3% probability
    ds = ToyDataset(radius=2.0, num_classes=8, stddev=0.15)
    rng = np.random.default_rng(42)
    cond, z0 = draw_batch(ds, 1_000_000, rng)
    class0 = z0[cond == 0][:100_000]
    assert class0.shape[0] == 100_000
    bound = 3 * ds.stddev / np.sqrt(class0.shape[0])
    mean = class0.mean(axis=0)
    assert abs(mean[0] - 2.0) < bound
    assert abs(mean[1] - 0.0) < bound


def test_mixture_moments_closed_form_symmetric_layout():
    ds = ToyDataset(num_classes=8, latent_dim=2, radius=2.0, stddev=0.15)
    mean, cov = mixture_moments(ds)
    np.testing.assert_allclose(mean, 0.0, atol=1e-14)
    expected = (ds.radius**2 / 2 + ds.stddev**2) * np.eye(2)
    np.testing.assert_allclose(cov, expected, atol=1e-12)


def test_empirical_moments_match_closed_form_within_one_percent():
    ds = ToyDataset()
    mean, cov = mixture_moments(ds)
    z = reference_population(ds, 1_000_000, np.random.default_rng(7))
    emp_mean = z.mean(axis=0)
    centered = z - emp_mean
    emp_cov = centered.T @ centered / (z.shape[0] - 1)
    scale = cov[0, 0]
    assert np.max(np.abs(emp_mean - mean)) < 0.01 * ds.radius
    assert np.max(np.abs(emp_cov - cov)) < 0.01 * scale


def test_reference_population_shape_and_determinism():
    ds = ToyDataset()
    a = reference_population(ds, 100, np.random.default_rng(5))
    b = reference_population(ds, 100, np.random.default_rng(5))
    assert a.shape == (100, 2)
    np.testing.assert_array_equal(a, b)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ToyDataset(num_classes=0)
    with pytest.raises(ValueError):
        ToyDataset(latent_dim=1)
    with pytest.raises(ValueError):
        ToyDataset(stddev=-0.1)
    with pytest.raises(ValueError):
        draw_batch(ToyDataset(), 0, np.random.default_rng(0))
