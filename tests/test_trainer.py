import numpy as np
import pytest

from snrdistill.data import LOOKAHEAD_ROWS, ToyDataset, draw_batch
from snrdistill.errors import TrainingDivergedError
from snrdistill.nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
    weighted_squared_error,
)
from snrdistill.sampler import eps_to_x
from snrdistill.schedule import CosineSchedule
from snrdistill.trainer import DIVERGENCE_BOUND, TrainConfig, train_base
from snrdistill.util import child_rng
from snrdistill.weighting import strategy_from_name

SCHEDULE = CosineSchedule()


def test_zero_updates_returns_initialized_model():
    ds = ToyDataset()
    config = TrainConfig(updates=0, seed=4, hidden=(8,), embed_dim=4, num_frequencies=2)
    result = train_base(config, ds, SCHEDULE)
    fresh = DenoiserModel.init(
        latent_dim=ds.latent_dim, num_classes=ds.num_classes, hidden=(8,),
        embed_dim=4, num_frequencies=2,
        parameterization=Parameterization.EPSILON,
        seed=int(child_rng(4, "init").integers(0, 2**31 - 1)),
    )
    assert len(result.loss_history) == 0
    for k in fresh.params:
        np.testing.assert_array_equal(result.model.params[k], fresh.params[k])


def test_loss_decreases_on_single_point_dataset():
    ds = ToyDataset(num_classes=1, stddev=0.0, radius=1.0)
    config = TrainConfig(updates=800, batch_size=64, seed=0,
                         hidden=(32,), embed_dim=4, num_frequencies=4)
    result = train_base(config, ds, SCHEDULE)
    first = result.loss_history[:50].mean()
    last = result.loss_history[-50:].mean()
    assert last < first


def test_loss_history_is_seed_reproducible_and_finite():
    ds = ToyDataset()
    config = TrainConfig(updates=60, batch_size=32, seed=9, hidden=(16,))
    a = train_base(config, ds, SCHEDULE)
    b = train_base(config, ds, SCHEDULE)
    np.testing.assert_array_equal(a.loss_history, b.loss_history)
    assert np.all(np.isfinite(a.loss_history))


def test_x_parameterization_trains():
    ds = ToyDataset()
    config = TrainConfig(updates=200, batch_size=64, seed=2, hidden=(16,),
                         parameterization=Parameterization.X, strategy=strategy_from_name("bsa"))
    result = train_base(config, ds, SCHEDULE)
    assert result.model.parameterization is Parameterization.X
    assert result.loss_history[-20:].mean() < result.loss_history[:20].mean()


def test_divergence_aborts():
    ds = ToyDataset()
    config = TrainConfig(updates=50, batch_size=16, seed=0, lr=1e40, hidden=(8,))
    with pytest.raises(TrainingDivergedError) as err:
        train_base(config, ds, SCHEDULE)
    assert err.value.loss > 1e6 or not np.isfinite(err.value.loss)
    with pytest.raises(TrainingDivergedError) as reference:
        reference_train(config, ds, SCHEDULE)
    assert err.value.update == reference.value.update
    np.testing.assert_equal(err.value.loss, reference.value.loss)


def reference_train(config, dataset, schedule):
    """train_base one update at a time: draw, noise, weight, Adam step.

    Returns (model, losses): the per-update loop the stacked draws replace.
    """
    model = DenoiserModel.init(
        latent_dim=dataset.latent_dim, num_classes=dataset.num_classes,
        hidden=config.hidden, embed_dim=config.embed_dim,
        num_frequencies=config.num_frequencies, parameterization=config.parameterization,
        seed=int(child_rng(config.seed, "init").integers(0, 2**31 - 1)),
    )
    rng = child_rng(config.seed, "train-batches")
    state = AdamState.fresh(model.flat, lr=config.lr)
    losses = np.zeros(config.updates)
    for update in range(config.updates):
        cond, z0 = draw_batch(dataset, config.batch_size, rng)
        t = rng.uniform(schedule.t_min, 1.0, size=config.batch_size)
        eps = rng.standard_normal(z0.shape)
        alpha, sigma = schedule.alpha_sigma(t)
        z_t = alpha[:, None] * z0 + sigma[:, None] * eps
        snr = np.square(alpha) / np.square(sigma)
        if config.parameterization is Parameterization.EPSILON:
            target, w = eps, config.strategy.noise_weight(snr)
        else:
            target, w = z0, config.strategy.weight(snr)
        loss, grad, *_ = loss_and_gradients(model, z_t, t, cond, target, w)
        if not np.isfinite(loss) or loss > DIVERGENCE_BOUND:
            raise TrainingDivergedError(update=update, loss=loss)
        adam_step(model.flat, grad, state)
        losses[update] = loss
    return model, losses


def _stacked_training_cases():
    cases = []
    for batch in (128, 100, 300):
        k = max(1, LOOKAHEAD_ROWS // batch)
        cases += [(batch, updates) for updates in (1, k - 1, k, k + 1, 2 * k + 3)]
    # One update per stack, and each training pass deals its rows to threads.
    return cases + [(5000, 3)]


@pytest.mark.parametrize("parameterization", ["epsilon", "x"])
@pytest.mark.parametrize("batch, updates", _stacked_training_cases())
def test_stacked_training_equals_the_per_update_loop(batch, updates, parameterization):
    assert max(1, LOOKAHEAD_ROWS // 5000) == 1
    x = parameterization == "x"
    config = TrainConfig(
        updates=updates, batch_size=batch, seed=7, hidden=(16, 8), embed_dim=4,
        num_frequencies=2, parameterization=Parameterization(parameterization),
        strategy=strategy_from_name("bsa" if x else "min-snr"),
    )
    ds = ToyDataset()
    result = train_base(config, ds, SCHEDULE)
    model, losses = reference_train(config, ds, SCHEDULE)
    assert np.array_equal(result.loss_history, losses)
    assert np.array_equal(result.model.flat, model.flat)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_a_batch_of_no_rows_is_rejected(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(updates=0, batch_size=batch_size)


def test_noise_loss_equivalence_identity():
    # |eps - eps_hat|^2 == snr(t) * |x - x_hat|^2 once x_hat is recovered
    # from the noise prediction, for random draws across the time range
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = rng.uniform(SCHEDULE.t_min, 0.999)
        alpha, sigma = SCHEDULE.alpha_sigma(t)
        x = rng.normal(size=(1, 3))
        eps = rng.normal(size=(1, 3))
        eps_hat = rng.normal(size=(1, 3))
        z_t = alpha * x + sigma * eps
        x_hat = eps_to_x(z_t, eps_hat, alpha, sigma)
        lhs = float(np.sum((eps - eps_hat) ** 2))
        rhs = SCHEDULE.snr(t) * float(np.sum((x - x_hat) ** 2))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)


def test_non_default_strategy_weights_noise_loss():
    # a capped x-space strategy must change the realized losses
    ds = ToyDataset()
    base = TrainConfig(updates=30, batch_size=32, seed=5, hidden=(8,))
    capped = TrainConfig(updates=30, batch_size=32, seed=5, hidden=(8,),
                         strategy=strategy_from_name("min-snr"))
    a = train_base(base, ds, SCHEDULE)
    b = train_base(capped, ds, SCHEDULE)
    assert not np.allclose(a.loss_history, b.loss_history)
    assert np.all(np.isfinite(b.loss_history))


@pytest.mark.parametrize("t_min", [1e-4, 0.05])
def test_weights_use_the_schedule_snr_bit_for_bit(monkeypatch, t_min):
    # train_base takes snr once per stack of updates; for the times each
    # update draws, its weights must equal those of schedule.snr(t) exactly.
    from snrdistill import trainer

    schedule = CosineSchedule(t_min=t_min)
    seen = []
    real = trainer.loss_and_gradients

    def grads(model, z, t, cond, target, w):
        seen.append((t, w))
        return real(model, z, t, cond, target, w)

    monkeypatch.setattr(trainer, "loss_and_gradients", grads)
    config = TrainConfig(updates=40, batch_size=256, seed=1, hidden=(8,), embed_dim=4,
                         num_frequencies=2, strategy=strategy_from_name("min-snr"))
    train_base(config, ToyDataset(), schedule)
    assert len(seen) == 40
    for t, w in seen:
        np.testing.assert_array_equal(w, config.strategy.noise_weight(schedule.snr(t)))


@pytest.mark.parametrize("name", ["eps-snr", "trunc-snr", "snr-plus-one"])
def test_x_parameterization_rejects_uncapped_strategies(name):
    # The x-space weight of these reaches snr(t_min), about 4e8, and base
    # training diverged on seeds 1 and 3 at the default batch.
    with pytest.raises(ValueError, match="finite cap"):
        TrainConfig(parameterization=Parameterization.X, strategy=strategy_from_name(name))


@pytest.mark.parametrize("name", ["trunc-snr", "snr-plus-one", "bsa"])
def test_epsilon_parameterization_rejects_strategies_that_weight_zero_snr(name):
    with pytest.raises(ValueError, match="w\\(0\\) = 0"):
        TrainConfig(strategy=strategy_from_name(name))


def eps_hat_chain(model, z_t, t, cond, eps, w, alpha, sigma):
    """The x-parameterized loss as it was computed before: the noise the
    latent prediction implies, eps_hat = (z_t - alpha x_hat) / sigma, against
    eps under the noise-space weight, chained back to the output."""
    out, backward = model.forward_backward(z_t, t, cond)
    inv_sigma = (1.0 / sigma)[:, None]
    alpha_col = alpha[:, None]
    eps_hat = (z_t - alpha_col * out) * inv_sigma
    loss, d_eps_hat = weighted_squared_error(eps_hat, eps, w)[:2]
    return loss, backward((-(d_eps_hat * inv_sigma)) * alpha_col)


@pytest.mark.parametrize("name", ["min-snr", "bsa"])
def test_x_loss_matches_the_eps_hat_chain(monkeypatch, name):
    from snrdistill import trainer

    ds = ToyDataset()
    config = TrainConfig(updates=3, batch_size=128, seed=3, hidden=(16, 8),
                         parameterization=Parameterization.X, strategy=strategy_from_name(name))
    calls = []
    real = trainer.loss_and_gradients

    def capture(model, z, t, cond, target, w):
        result = real(model, z, t, cond, target, w)
        calls.append((model.copy_with(), z, t, cond, target, w, result))
        return result

    monkeypatch.setattr(trainer, "loss_and_gradients", capture)
    train_base(config, ds, SCHEDULE)
    rng = child_rng(config.seed, "train-batches")
    for model, z_t, t, cond, target, w, (loss, grad, _, _) in calls:
        _, z0 = draw_batch(ds, config.batch_size, rng)
        assert np.array_equal(t, rng.uniform(SCHEDULE.t_min, 1.0, size=config.batch_size))
        eps = rng.standard_normal(z0.shape)
        assert np.array_equal(target, z0)
        alpha, sigma = SCHEDULE.alpha_sigma(t)
        snr = SCHEDULE.snr(t)
        assert np.array_equal(w, config.strategy.weight(snr))
        old_w = config.strategy.weight(snr) / np.maximum(snr, 1e-12)
        ref_loss, ref_grad = eps_hat_chain(model, z_t, t, cond, eps, old_w, alpha, sigma)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        ref_grads = model.views(ref_grad)
        for k, g in model.views(grad).items():
            assert np.max(np.abs(g - ref_grads[k])) <= 1e-12 * np.max(np.abs(ref_grads[k])), k
