import numpy as np
import pytest
import scipy.linalg

from snrdistill.frechet import MomentFit, _spd_sqrt, fit_moments, frechet_distance


def random_spd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + 0.1 * np.eye(dim))


def sqrtm_trace_oracle(cov_a, cov_b):
    """Independent route: scipy's Schur-based matrix square root of the
    (generally non-symmetric) product, as used by the classic FID scripts."""
    covmean = scipy.linalg.sqrtm(cov_a @ cov_b)
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    return float(np.trace(covmean))


def eig_trace_oracle(cov_a, cov_b):
    """Second route, written out locally: eigendecompose A, form
    A^1/2 B A^1/2, and sum the square roots of its eigenvalues."""
    vals_a, vecs_a = np.linalg.eigh(cov_a)
    sqrt_a = vecs_a @ np.diag(np.sqrt(np.clip(vals_a, 0, None))) @ vecs_a.T
    inner = sqrt_a @ cov_b @ sqrt_a
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    return float(np.sum(np.sqrt(np.clip(vals, 0, None))))


def test_fit_two_identical_points_zero_covariance():
    fit = fit_moments(np.array([[1.0, 2.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(fit.mean, [1.0, 2.0])
    np.testing.assert_array_equal(fit.cov, np.zeros((2, 2)))
    assert fit.count == 2


def test_fit_unbiased_covariance_in_one_dimension():
    fit = fit_moments(np.array([[-1.0], [1.0]]))
    assert fit.mean[0] == 0.0
    assert fit.cov[0, 0] == 2.0  # divide by n - 1


def test_fit_standard_normal_covariance_near_identity():
    z = np.random.default_rng(0).standard_normal((100_000, 2))
    fit = fit_moments(z)
    assert np.max(np.abs(fit.cov - np.eye(2))) < 0.03


def test_fit_rejects_tiny_or_misshaped_input():
    with pytest.raises(ValueError):
        fit_moments(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        fit_moments(np.ones(5))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_rejects_samples_that_are_not_finite(value):
    # A non-finite sample would give a NaN mean or covariance, and with it a
    # NaN distance where a value >= 0 is promised.
    z = np.random.default_rng(2).standard_normal((10, 2))
    z[3, 1] = value
    z[7] = value
    with pytest.raises(ValueError, match="^2 of 10 samples hold a non-finite value"):
        fit_moments(z)


def test_distance_of_fit_to_itself_is_zero():
    rng = np.random.default_rng(1)
    fit = fit_moments(rng.normal(size=(50, 3)))
    assert frechet_distance(fit, fit) < 1e-9


def test_equal_covariances_leave_only_mean_gap():
    rng = np.random.default_rng(2)
    cov = random_spd(rng, 3)
    d = np.array([0.3, -1.2, 0.5])
    a = MomentFit(mean=np.zeros(3), cov=cov, count=10)
    b = MomentFit(mean=d, cov=cov.copy(), count=10)
    assert frechet_distance(a, b) == pytest.approx(float(d @ d), abs=1e-9)


def test_commuting_diagonal_case():
    a = MomentFit(mean=np.zeros(2), cov=np.eye(2), count=10)
    b = MomentFit(mean=np.zeros(2), cov=4.0 * np.eye(2), count=10)
    # (1 + 4 - 2 * 2) per dimension, two dimensions
    assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-9)


def test_matches_both_square_root_oracles_on_random_spd_pairs():
    rng = np.random.default_rng(3)
    for trial in range(100):
        dim = int(rng.integers(1, 9))
        cov_a = random_spd(rng, dim, scale=float(rng.uniform(0.2, 3.0)))
        cov_b = random_spd(rng, dim, scale=float(rng.uniform(0.2, 3.0)))
        mu_a = rng.normal(size=dim)
        mu_b = rng.normal(size=dim)
        a = MomentFit(mean=mu_a, cov=cov_a, count=10)
        b = MomentFit(mean=mu_b, cov=cov_b, count=10)
        got = frechet_distance(a, b)
        diff = mu_a - mu_b
        base = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b))
        assert abs(got - (base - 2 * sqrtm_trace_oracle(cov_a, cov_b))) < 1e-8
        assert abs(got - (base - 2 * eig_trace_oracle(cov_a, cov_b))) < 1e-8


def test_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = MomentFit(mean=rng.normal(size=4), cov=random_spd(rng, 4), count=10)
        b = MomentFit(mean=rng.normal(size=4), cov=random_spd(rng, 4), count=10)
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-9


def test_dimension_mismatch_rejected():
    a = MomentFit(mean=np.zeros(2), cov=np.eye(2), count=5)
    b = MomentFit(mean=np.zeros(3), cov=np.eye(3), count=5)
    with pytest.raises(ValueError):
        frechet_distance(a, b)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_distance_that_is_not_finite_is_a_value_error(value):
    # A metrics row must hold a finite fd, so the evaluation that would write
    # this one fails instead.
    a = MomentFit(mean=np.array([value, 0.0]), cov=np.eye(2), count=5)
    b = MomentFit(mean=np.zeros(2), cov=np.eye(2), count=5)
    with pytest.raises(ValueError, match=f"^frechet distance evaluated to {value}, "):
        frechet_distance(a, b)


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for dim in range(1, 9):
        cov = random_spd(rng, dim)
        root = _spd_sqrt(cov)
        assert np.linalg.norm(root @ root - cov) < 1e-8


def test_non_negative_on_noisy_near_equal_fits():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2000, 2))
    a = fit_moments(z[:1000])
    b = fit_moments(z[1000:])
    assert frechet_distance(a, b) >= 0.0
