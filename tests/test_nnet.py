import math

import numpy as np
import pytest
from scipy.special import expit

from snrdistill import autodiff as ad
from snrdistill.errors import ShapeMismatchError
from snrdistill.nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
    time_features,
)
from snrdistill.sampler import SamplerConfig, sample
from snrdistill.schedule import CosineSchedule


def tiny_model(seed=0, hidden=(4,), parameterization=Parameterization.EPSILON):
    return DenoiserModel.init(
        latent_dim=1, num_classes=2, hidden=hidden, embed_dim=2,
        num_frequencies=1, parameterization=parameterization, seed=seed,
    )


def finite_difference_grads(model, loss_value_fn, h=1e-5):
    """Central differences through the plain-numpy forward path."""
    grads = {}
    for name, p in model.params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value_fn()
            flat[i] = orig - h
            fm = loss_value_fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads[name] = g
    return grads


def reference_forward(model, z, t, cond):
    """Plain full-batch forward: one concat, then silu(h @ w + b) per layer."""
    batch = z.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (batch,))
    cond = np.broadcast_to(np.asarray(cond, dtype=np.int64), (batch,))
    p = model.params
    h = np.concatenate(
        [z, time_features(t, model.num_frequencies), p["embed"][cond]], axis=1
    )
    for k in range(len(model.hidden)):
        a = h @ p[f"w{k}"] + p[f"b{k}"]
        h = a * expit(a)
    k = len(model.hidden)
    return h @ p[f"w{k}"] + p[f"b{k}"]


# (100,) is a width whose row blocks would round differently from the full
# batch, so the forward must leave such a model unblocked.
@pytest.mark.parametrize("hidden", [(), (4,), (100,), (128, 128)])
@pytest.mark.parametrize("batch", [0, 1, 2, 255, 256, 257, 258, 513, 4096, 4097])
def test_blocked_forward_matches_full_batch_reference_bitwise(hidden, batch):
    model = DenoiserModel.init(hidden=hidden, seed=4)
    rng = np.random.default_rng(batch)
    z = rng.normal(size=(batch, model.latent_dim))
    t_rows = rng.uniform(0.0, 1.0, size=batch)
    cond_rows = rng.integers(0, model.num_classes, size=batch)
    for t in (0.37, t_rows):
        for cond in (5, cond_rows):
            out = model.forward(z, t, cond)
            assert out.shape == (batch, model.latent_dim)
            assert np.array_equal(out, reference_forward(model, z, t, cond))


def test_sample_matches_reference_forward_loop_bitwise(monkeypatch):
    model = DenoiserModel.init(seed=6)
    reference = model.copy_with()
    monkeypatch.setattr(
        reference, "forward", lambda z, t, cond: reference_forward(reference, z, t, cond)
    )
    conds = np.random.default_rng(0).integers(0, model.num_classes, size=4097)
    config = SamplerConfig(steps=4, seed=3)
    out = sample(model, conds, config, CosineSchedule())
    np.testing.assert_array_equal(out, sample(reference, conds, config, CosineSchedule()))


def test_forward_output_shape_matches_latent():
    model = DenoiserModel.init(latent_dim=3, num_classes=4, hidden=(8, 8), seed=1)
    z = np.random.default_rng(0).normal(size=(5, 3))
    out = model.forward(z, 0.3, 2)
    assert out.shape == (5, 3)


def test_forward_is_deterministic_bitwise():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 1))
    t = rng.uniform(0, 1, size=4)
    a = model.forward(z, t, np.array([0, 1, 0, 1]))
    b = model.forward(z, t, np.array([0, 1, 0, 1]))
    np.testing.assert_array_equal(a, b)


def test_zero_weight_model_outputs_zero():
    model = tiny_model(seed=0)
    for k in model.params:
        model.params[k] = np.zeros_like(model.params[k])
    out = model.forward(np.array([[0.7], [-2.0]]), 0.5, 1)
    np.testing.assert_array_equal(out, np.zeros((2, 1)))


def test_forward_hand_computed_single_hidden_layer():
    # 2-layer formula evaluated longhand: out = w1 . silu(x @ w0 + b0) + b1
    # with x = [z, sin(pi t), cos(pi t), e0, e1].
    model = tiny_model(seed=0, hidden=(2,))
    model.params["embed"] = np.array([[0.5, -1.0], [0.25, 0.75]])
    model.params["w0"] = np.array([
        [0.1, -0.2],
        [0.3, 0.4],
        [-0.5, 0.6],
        [0.7, -0.8],
        [0.9, 1.0],
    ])
    model.params["b0"] = np.array([0.05, -0.15])
    model.params["w1"] = np.array([[1.5], [-2.5]])
    model.params["b1"] = np.array([0.125])

    z, t, cond = 0.7, 0.25, 1
    feats = [math.sin(math.pi * t), math.cos(math.pi * t)]
    x = [z, feats[0], feats[1], 0.25, 0.75]
    pre = [
        sum(x[i] * model.params["w0"][i, j] for i in range(5)) + model.params["b0"][j]
        for j in range(2)
    ]
    silu = [p / (1.0 + math.exp(-p)) for p in pre]
    expected = 1.5 * silu[0] - 2.5 * silu[1] + 0.125

    out = model.forward(np.array([[z]]), t, cond)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(expected, abs=1e-12)


def test_forward_shape_errors_name_the_axis():
    model = tiny_model()
    with pytest.raises(ShapeMismatchError) as err:
        model.forward(np.zeros((3, 2)), 0.5, 0)
    assert err.value.axis == 1
    assert err.value.expected == 1
    assert err.value.got == 2
    with pytest.raises(ShapeMismatchError):
        model.forward(np.zeros((3, 1)), np.zeros(2), 0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, 1)), 0.5, 7)  # condition id out of range


@pytest.mark.parametrize("t", [float("nan"), np.array([0.5, float("nan"), 0.5])])
def test_forward_rejects_non_finite_time(t):
    model = tiny_model()
    with pytest.raises(ValueError, match="lie in"):
        model.forward(np.zeros((3, 1)), t, 0)


@pytest.mark.parametrize("cond", [0.5, np.array([0.0, 1.5, 1.0]), float("nan")])
def test_forward_rejects_fractional_condition(cond):
    model = tiny_model()
    with pytest.raises(ValueError, match="integers"):
        model.forward(np.zeros((3, 1)), 0.5, cond)


def test_forward_accepts_integral_float_condition():
    model = tiny_model(seed=1)
    z = np.array([[0.3], [-0.2]])
    np.testing.assert_array_equal(model.forward(z, 0.5, 1.0), model.forward(z, 0.5, 1))


def test_forward_finite_for_large_inputs():
    model = tiny_model(seed=5)
    z = np.array([[1e3], [-1e3]])
    out = model.forward(z, 0.9, 0)
    assert np.all(np.isfinite(out))


def test_constant_loss_gives_zero_gradients():
    model = tiny_model()
    loss, grads = loss_and_gradients(model, lambda forward: ad.Var(3.5))
    assert loss == 3.5
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(model.params[name]))


def test_loss_at_exact_minimum_gives_zero_gradients():
    model = tiny_model(seed=2)
    z = np.random.default_rng(0).normal(size=(3, 1))
    target = model.forward(z, 0.4, 1)

    def loss_fn(forward):
        diff = forward(z, 0.4, 1) - target
        return ad.sum_all(ad.square(diff)) * 2.0

    loss, grads = loss_and_gradients(model, loss_fn)
    assert loss == 0.0
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
def test_gradients_match_central_finite_differences(hidden):
    model = tiny_model(seed=7, hidden=hidden)
    assert model.num_params <= 200
    rng = np.random.default_rng(11)
    batch = 6
    z = rng.normal(size=(batch, 1))
    t = rng.uniform(0.05, 0.95, size=batch)
    cond = rng.integers(0, 2, size=batch)
    target = rng.normal(size=(batch, 1))
    w = rng.uniform(0.5, 2.0, size=batch)

    def loss_fn(forward):
        diff = forward(z, t, cond) - target
        return ad.sum_all(ad.sum_rows(ad.square(diff)) * w) / batch

    def loss_value():
        diff = model.forward(z, t, cond) - target
        return float((np.square(diff).sum(axis=1) * w).sum() / batch)

    _, grads = loss_and_gradients(model, loss_fn)
    numeric = finite_difference_grads(model, loss_value, h=1e-5)
    for name in model.params:
        err = np.abs(grads[name] - numeric[name])
        bound = 1e-4 * np.maximum(np.abs(grads[name]), np.abs(numeric[name])) + 1e-7
        assert np.all(err <= bound), f"gradient mismatch in {name}"


def test_adam_zero_gradient_leaves_params_unchanged():
    model = tiny_model()
    state = AdamState.fresh(model.params, lr=0.1)
    zero = {k: np.zeros_like(v) for k, v in model.params.items()}
    new_params, new_state = adam_step(model.params, zero, state)
    for k in model.params:
        np.testing.assert_array_equal(new_params[k], model.params[k])
    assert new_state.step == 1


def test_adam_identical_calls_identical_results():
    params = {"p": np.array([0.3, -0.4])}
    grads = {"p": np.array([0.1, 0.2])}
    s0 = AdamState.fresh(params, lr=0.01)
    a_params, a_state = adam_step(params, grads, s0)
    s1 = AdamState.fresh(params, lr=0.01)
    b_params, b_state = adam_step(params, grads, s1)
    np.testing.assert_array_equal(a_params["p"], b_params["p"])
    np.testing.assert_array_equal(a_state.m["p"], b_state.m["p"])
    np.testing.assert_array_equal(a_state.v["p"], b_state.v["p"])


def test_adam_first_step_hand_computed():
    # Bias correction makes m_hat = v_hat = 1 on the first unit-gradient
    # step, so the update is exactly lr / (1 + eps).
    params = {"p": np.array([0.5])}
    grads = {"p": np.array([1.0])}
    state = AdamState.fresh(params, lr=0.1)
    new_params, _ = adam_step(params, grads, state)
    expected = 0.5 - 0.1 / (1.0 + 1e-8)
    assert new_params["p"][0] == pytest.approx(expected, abs=1e-16)


def test_adam_shape_mismatch_rejected():
    params = {"p": np.zeros(3)}
    grads = {"p": np.zeros(2)}
    with pytest.raises(ShapeMismatchError):
        adam_step(params, grads, AdamState.fresh(params))


def test_time_features_shape_and_range():
    feats = time_features(np.array([0.0, 0.5, 1.0]), num_frequencies=8)
    assert feats.shape == (3, 16)
    assert np.all(np.abs(feats) <= 1.0)
    np.testing.assert_allclose(feats[0, 1::2], 1.0)  # cos(0) columns


def test_init_is_seed_deterministic():
    a = DenoiserModel.init(seed=42)
    b = DenoiserModel.init(seed=42)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
