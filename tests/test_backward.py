# Gradients of DenoiserModel's hand-written backward and of the weighted
# squared error, one operation at a time: the broadcast bias, the matmul,
# SiLU, the square and the weight, the input concat, the embedding gather
# and the per-row sum. The backward returns one flat gradient, read here by
# name through the model's views.
import numpy as np
import pytest

from snrdistill.errors import ShapeMismatchError
from snrdistill.nnet import DenoiserModel, time_features, weighted_squared_error


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of one array.

    `x` is perturbed in place and restored, so it may be a model parameter
    that `f` reads."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def small_model(latent_dim=1, num_classes=4, hidden=(), embed_dim=2, seed=0):
    return DenoiserModel.init(latent_dim=latent_dim, num_classes=num_classes, hidden=hidden,
                              embed_dim=embed_dim, num_frequencies=1, seed=seed)


def test_add_broadcast_bias():
    # The bias is added to every row, so its gradient sums d_out over rows.
    model = small_model(latent_dim=3)
    z = np.random.default_rng(0).normal(size=(5, 3))
    _, backward = model.forward_backward(z, 0.5, 0)
    grads = model.views(backward(np.ones((5, 3))))
    np.testing.assert_array_equal(grads["b0"], np.full(3, 5.0))


def test_matmul_grads_match_finite_differences():
    # out = x @ w0 + b0 with x = [z, time features, embed[cond]]: w0 takes
    # x.T @ d_out and the embedding takes its columns of d_out @ w0.T.
    model = small_model(latent_dim=2, seed=1)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 2))
    t = rng.uniform(size=4)
    cond = np.array([0, 1, 2, 3])
    out, backward = model.forward_backward(z, t, cond)
    grads = model.views(backward(2.0 * out))  # d/d(out) of sum(out^2)

    def loss(_):
        return np.square(model.forward(z, t, cond)).sum()

    for name in ("w0", "embed"):
        expected = numeric_grad(loss, model.params[name])
        np.testing.assert_allclose(grads[name], expected, rtol=1e-6, atol=1e-8)


def test_silu_gradient():
    model = small_model(hidden=(6,), seed=2)
    rng = np.random.default_rng(2)
    model.params["b0"][:] = rng.normal(0.0, 2.0, size=6)  # pre-activations of both signs
    z = rng.normal(size=(5, 1))
    t = rng.uniform(size=5)
    cond = rng.integers(0, 4, size=5)
    out, backward = model.forward_backward(z, t, cond)
    grads = model.views(backward(np.ones_like(out)))  # d/d(out) of sum(out)

    def loss(_):
        return model.forward(z, t, cond).sum()

    for name in ("w0", "b0"):
        expected = numeric_grad(loss, model.params[name])
        np.testing.assert_allclose(grads[name], expected, rtol=1e-6, atol=1e-7)


def test_square_and_mul_gradients():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(3, 5))
    target = rng.normal(size=(3, 5))
    w = rng.uniform(0.5, 2.0, size=3)
    _, d_pred, _ = weighted_squared_error(pred, target, w)
    expected = numeric_grad(lambda p: weighted_squared_error(p, target, w)[0], pred.copy())
    np.testing.assert_allclose(d_pred, expected, rtol=1e-6, atol=1e-7)


def test_concat_routes_gradients_to_segments():
    # The input row is [z | time features | embed[cond]]: each segment gets
    # its own rows of w0's gradient, and the embedding its columns of the
    # input gradient.
    model = small_model(latent_dim=3, num_classes=2, seed=4)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 3))
    t = np.array([0.2, 0.7])
    cond = np.array([1, 0])
    d_out = np.arange(6.0).reshape(2, 3)
    _, backward = model.forward_backward(z, t, cond)
    grads = model.views(backward(d_out))
    segments = [z, time_features(t, 1), model.params["embed"][cond]]
    rows = np.cumsum([0] + [s.shape[1] for s in segments])
    for seg, lo, hi in zip(segments, rows[:-1], rows[1:]):
        np.testing.assert_allclose(grads["w0"][lo:hi], seg.T @ d_out, rtol=1e-14)
    d_x = d_out @ model.params["w0"].T
    np.testing.assert_array_equal(grads["embed"][cond], d_x[:, rows[2]:])


def test_take_rows_scatter_adds_repeated_indices():
    # With no hidden layer the input gradient is d_out @ w0.T, and rows that
    # share a class id add up in that id's embedding row.
    model = small_model()
    cond = np.array([1, 1, 3])
    _, backward = model.forward_backward(np.zeros((3, 1)), 0.5, cond)
    d_out = np.array([[1.0], [2.0], [-0.5]])
    grads = model.views(backward(d_out))
    w_embed = model.params["w0"][-2:, 0]
    expected = np.zeros((4, 2))
    expected[1] = 3.0 * w_embed
    expected[3] = -0.5 * w_embed
    np.testing.assert_allclose(grads["embed"], expected, rtol=1e-15)


def test_sum_rows_gradient_shape():
    # A row's squared error sums its columns, so the row's weight reaches
    # every column of the gradient.
    pred = np.arange(6.0).reshape(2, 3)
    w = np.array([2.0, -1.0])
    _, d_pred, weighted = weighted_squared_error(pred, pred - 1.0, w)
    np.testing.assert_array_equal(weighted, [6.0, -3.0])
    np.testing.assert_array_equal(d_pred, np.array([[2.0] * 3, [-1.0] * 3]))


def test_backward_rejects_non_scalar():
    # backward takes the gradient of one scalar loss in the output, so
    # d_out must have the output's shape.
    model = small_model()
    _, backward = model.forward_backward(np.zeros((3, 1)), 0.5, 0)
    with pytest.raises(ShapeMismatchError):
        backward(np.zeros((2, 1)))
