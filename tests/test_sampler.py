import math

import numpy as np
import pytest

from snrdistill.errors import SingularTimeError
from snrdistill.nnet import DenoiserModel, Parameterization
from snrdistill.sampler import SamplerConfig, ddim_step, eps_to_x, predict_x, sample
from snrdistill.schedule import CosineSchedule

SCHEDULE = CosineSchedule()


class ConstModel:
    """Test stub: always predicts the same value, in either parameterization."""

    def __init__(self, value, latent_dim=1, parameterization=Parameterization.X):
        self.value = value
        self.latent_dim = latent_dim
        self.num_classes = 8
        self.parameterization = parameterization

    def forward(self, z, t, cond):
        z = np.asarray(z, dtype=np.float64)
        return np.full_like(z, self.value)


def test_eps_to_x_identity_at_clean_endpoint():
    z = np.array([[0.3, -0.7]])
    np.testing.assert_array_equal(eps_to_x(z, np.zeros_like(z), 1.0, 0.0), z)


def test_eps_to_x_exactly_inverts_forward_noising():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 2))
    eps = rng.normal(size=(8, 2))
    for t in (0.1, 0.5, 0.9):
        a, s = SCHEDULE.alpha_sigma(t)
        z_t = a * x + s * eps
        recovered = eps_to_x(z_t, eps, a, s)
        assert np.max(np.abs(recovered - x)) < 1e-12


def test_eps_to_x_hand_value():
    out = eps_to_x(np.array([[1.0]]), np.array([[0.5]]), 0.8, 0.6)
    assert out[0, 0] == pytest.approx((1.0 - 0.6 * 0.5) / 0.8, abs=1e-15)
    assert out[0, 0] == pytest.approx(0.875)


def test_eps_to_x_singular_alpha_raises():
    z = np.ones((1, 1))
    with pytest.raises(SingularTimeError):
        eps_to_x(z, z, 1e-7, 1.0)

def test_ddim_step_pure_signal_moves_to_alpha_s():
    x_hat = np.array([[0.4, -1.2]])
    t, s = 0.6, 0.2
    a_t, _ = SCHEDULE.alpha_sigma(t)
    a_s, _ = SCHEDULE.alpha_sigma(s)
    z_t = a_t * x_hat
    out = ddim_step(z_t, x_hat, t, s, SCHEDULE)
    np.testing.assert_allclose(out, a_s * x_hat, atol=1e-15)


def test_ddim_step_identity_when_s_equals_t():
    rng = np.random.default_rng(2)
    z_t = rng.normal(size=(5, 2))
    x_hat = rng.normal(size=(5, 2))
    out = ddim_step(z_t, x_hat, 0.5, 0.5, SCHEDULE)
    np.testing.assert_allclose(out, z_t, atol=1e-14)


def test_ddim_step_hand_value():
    # alpha/sigma at t = 0.5 and s = 0.25 written out longhand
    a_t, s_t = math.cos(math.pi / 4), math.sin(math.pi / 4)
    a_s, s_s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    expected = a_s * 0.5 + (s_s / s_t) * (1.0 - a_t * 0.5)
    out = ddim_step(np.array([[1.0]]), np.array([[0.5]]), 0.5, 0.25, SCHEDULE)
    assert out[0, 0] == pytest.approx(expected, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.8118, abs=1e-4)


def test_ddim_step_rejects_zero_sigma_t_and_bad_order():
    z = np.ones((1, 1))
    with pytest.raises(SingularTimeError):
        ddim_step(z, z, 0.0, 0.0, SCHEDULE)
    with pytest.raises(ValueError):
        ddim_step(z, z, 0.3, 0.5, SCHEDULE)


def test_ddim_semigroup_for_constant_predictor():
    # one step t -> s equals two chained steps t -> m -> s when the
    # prediction never changes: the noise coefficient composes multiplicatively
    rng = np.random.default_rng(3)
    z_t = rng.normal(size=(6, 2))
    x_hat = np.full_like(z_t, 0.37)
    for (t, m, s) in [(1.0, 0.6, 0.2), (0.9, 0.45, 0.0), (0.5, 0.4, 0.3)]:
        direct = ddim_step(z_t, x_hat, t, s, SCHEDULE)
        chained = ddim_step(ddim_step(z_t, x_hat, t, m, SCHEDULE), x_hat, m, s, SCHEDULE)
        assert np.max(np.abs(direct - chained)) < 1e-12


def test_predict_x_converts_epsilon_models():
    model = ConstModel(0.0, latent_dim=1, parameterization=Parameterization.EPSILON)
    z = np.array([[0.8]])
    t = 0.5
    a, _ = SCHEDULE.alpha_sigma(t)
    out = predict_x(model, z, t, 0, SCHEDULE, max_query_t=1.0)
    assert out[0, 0] == pytest.approx(0.8 / a, abs=1e-14)
    # at t = 1 the conversion needs the clip
    with pytest.raises(SingularTimeError):
        predict_x(model, z, 1.0, 0, SCHEDULE, max_query_t=1.0)
    clipped = predict_x(model, z, 1.0, 0, SCHEDULE, max_query_t=0.75)
    a_q, _ = SCHEDULE.alpha_sigma(0.75)
    assert clipped[0, 0] == pytest.approx(0.8 / a_q, abs=1e-14)


def test_sample_single_step_x_model_is_one_shot_prediction():
    model = ConstModel(0.42, latent_dim=2)
    config = SamplerConfig(steps=1, seed=5)
    out = sample(model, np.zeros(4, dtype=np.int64), config, SCHEDULE)
    np.testing.assert_array_equal(out, np.full((4, 2), 0.42))


def test_sample_rejects_one_step_of_an_epsilon_model_before_drawing(monkeypatch):
    # One step would query the model at t = 1/2 for a pure-noise latent at t = 1.
    model = ConstModel(0.0, parameterization=Parameterization.EPSILON)
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match="steps >= 2, got 1"):
        sample(model, np.zeros(4, dtype=np.int64), SamplerConfig(steps=1), SCHEDULE)


def test_sample_is_seed_deterministic():
    model = ConstModel(0.1, latent_dim=2)
    config = SamplerConfig(steps=4, seed=11)
    a = sample(model, np.arange(3) % 2, config, SCHEDULE)
    b = sample(model, np.arange(3) % 2, config, SCHEDULE)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("steps", [1, 2, 5, 16])
def test_sample_constant_predictor_returns_constant(steps):
    # the noise coefficient telescopes to sigma(0) = 0, leaving exactly c
    model = ConstModel(-0.73, latent_dim=1)
    out = sample(model, np.zeros(8, dtype=np.int64), SamplerConfig(steps=steps, seed=3), SCHEDULE)
    np.testing.assert_allclose(out, np.full((8, 1), -0.73), atol=1e-12)


def test_sample_epsilon_model_two_steps_matches_longhand():
    # zero noise prediction: x_hat = z / alpha at the (clipped) query time
    model = ConstModel(0.0, latent_dim=1, parameterization=Parameterization.EPSILON)
    seed = 21
    z = np.random.default_rng(seed).standard_normal((6, 1))
    # step 1: t=1 -> s=0.5; conversion clipped to tq = 1 - 0.25
    aq = math.cos(math.pi / 2 * 0.75)
    a_s, s_s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    x_hat = z / aq
    z1 = a_s * x_hat + s_s * z  # alpha(1) = 0, sigma(1) = 1 exactly
    # step 2: t=0.5 -> s=0; x_hat = z1 / alpha(0.5); lands exactly on x_hat
    z0 = z1 / a_s
    out = sample(model, np.zeros(6, dtype=np.int64),
                 SamplerConfig(steps=2, seed=seed), SCHEDULE)
    np.testing.assert_allclose(out, z0, atol=1e-12)

class GaussianDenoiser:
    """Exact latent prediction E[x | z_t] for data x ~ N(mu, s^2 I)."""

    num_classes = 1
    parameterization = Parameterization.X

    def __init__(self, mu, s):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.s = s
        self.latent_dim = self.mu.size

    def forward(self, z, t, cond):
        a, sigma = SCHEDULE.alpha_sigma(t)
        gain = a * self.s**2 / (a**2 * self.s**2 + sigma**2)
        return self.mu + gain * (np.asarray(z, dtype=np.float64) - a * self.mu)


def test_sample_with_exact_gaussian_denoiser_recovers_the_data():
    # Given the exact denoiser, DDIM must land on N(mu, s^2 I).
    mu, s = np.array([2.0, -1.0]), 0.15
    out = sample(GaussianDenoiser(mu, s), np.zeros(20000, dtype=np.int64),
                 SamplerConfig(steps=64, seed=4), SCHEDULE)
    np.testing.assert_allclose(out.mean(axis=0), mu, atol=0.02)
    np.testing.assert_allclose(out.std(axis=0), s, rtol=0.2)

@pytest.mark.parametrize("parameterization", list(Parameterization))
def test_ddim_sample_keeps_the_deterministic_step_bitwise(parameterization):
    # 4097 latents run the threaded forward split.
    model = DenoiserModel.init(seed=0, parameterization=parameterization)
    conds = np.random.default_rng(1).integers(0, model.num_classes, size=4097)
    n, seed = 8, 3
    z = np.random.default_rng(seed).standard_normal((conds.size, model.latent_dim))
    for i in range(n, 0, -1):
        t, s = i / n, (i - 1) / n
        x_hat = predict_x(model, z, t, conds, SCHEDULE, max_query_t=1.0 - 0.5 / n)
        a_t, s_t = SCHEDULE.alpha_sigma(t)
        a_s, s_s = SCHEDULE.alpha_sigma(s)
        z = a_s * x_hat + (s_s / s_t) * (z - a_t * x_hat)
    out = sample(model, conds, SamplerConfig(steps=n, seed=seed), SCHEDULE)
    assert np.array_equal(out, z)

def test_sampler_config_validates_steps():
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)


@pytest.mark.parametrize("conditions", [np.array([2.7, 0.4]), np.array([1.0, np.nan]), 1.5])
def test_sample_rejects_fractional_conditions_before_stepping(conditions):
    # The stub's forward checks nothing, so only sample itself can reject.
    with pytest.raises(ValueError, match="integers"):
        sample(ConstModel(0.0), conditions, SamplerConfig(steps=2), SCHEDULE)


def test_sample_accepts_integral_float_conditions():
    model = DenoiserModel.init(seed=0)
    config = SamplerConfig(steps=2, seed=1)
    np.testing.assert_array_equal(
        sample(model, np.array([2.0, 0.0]), config, SCHEDULE),
        sample(model, np.array([2, 0]), config, SCHEDULE),
    )
