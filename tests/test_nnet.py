import copy
import functools
import math
import multiprocessing
import operator
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from snrdistill import nnet
from snrdistill.checkpoint import load_checkpoint, save_checkpoint
from snrdistill.errors import ShapeMismatchError
from snrdistill.nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
    time_features,
    weighted_squared_error,
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


def full_batch_forward(model, z, t, cond):
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
        h = a * (1.0 / (1.0 + np.exp(-a)))
    k = len(model.hidden)
    return h @ p[f"w{k}"] + p[f"b{k}"]


def row_blocks(batch):
    """(lo, hi) of 256-row blocks, with a trailing 1-row block folded into
    the one before it."""
    bounds = [*range(0, batch, 256), batch]
    if batch > 1 and batch % 256 == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def reference_forward(model, z, t, cond):
    """The full-batch forward applied to each row block on its own."""
    batch = z.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (batch,))
    cond = np.broadcast_to(np.asarray(cond, dtype=np.int64), (batch,))
    blocks = [full_batch_forward(model, z[lo:hi], t[lo:hi], cond[lo:hi])
              for lo, hi in row_blocks(batch)]
    return np.concatenate([np.empty((0, model.latent_dim)), *blocks])


def model_with_biases(hidden, seed):
    """`DenoiserModel.init`'s model with N(0, 1) biases in place of its zero
    ones, so that a bias added twice or not at all changes the output."""
    model = DenoiserModel.init(hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for k in range(len(hidden) + 1):
        model.params[f"b{k}"][...] = rng.normal(size=model.params[f"b{k}"].shape)
    return model


# Every model shape is blocked alike: none of these may round its blocks
# differently from the stand-alone calls. (4,) and (100,) have widths that
# are not a multiple of the 8-double vector, and (400, 8) feeds its second
# layer more inputs than one 384-deep BLAS panel holds.
SHAPES = [(), (4,), (100,), (128, 128), (400, 8)]


# The reference is the plain full-batch forward, run on each block's rows.
@pytest.mark.parametrize("hidden", SHAPES)
@pytest.mark.parametrize("batch", [0, 1, 2, 255, 256, 257, 258, 513, 4096, 4097])
def test_blocked_forward_matches_full_batch_reference_bitwise(hidden, batch):
    model = model_with_biases(hidden, seed=4)
    rng = np.random.default_rng(batch)
    z = rng.normal(size=(batch, model.latent_dim))
    t_rows = rng.uniform(0.0, 1.0, size=batch)
    cond_rows = rng.integers(0, model.num_classes, size=batch)
    for t in (0.37, t_rows):
        for cond in (5, cond_rows):
            out = model.forward(z, t, cond)
            assert out.shape == (batch, model.latent_dim)
            assert np.array_equal(out, reference_forward(model, z, t, cond))
            if batch <= 257:  # one block
                assert np.array_equal(out, full_batch_forward(model, z, t, cond))


def test_sample_matches_reference_forward_loop_bitwise(monkeypatch):
    model = DenoiserModel.init(seed=6)
    reference = copy.deepcopy(model)
    monkeypatch.setattr(
        reference, "forward", lambda z, t, cond: reference_forward(reference, z, t, cond)
    )
    conds = np.random.default_rng(0).integers(0, model.num_classes, size=4097)
    config = SamplerConfig(steps=4, seed=3)
    out = sample(model, conds, config, CosineSchedule())
    np.testing.assert_array_equal(out, sample(reference, conds, config, CosineSchedule()))


def recording_expit(monkeypatch, before=None):
    """Replaces the forward's expit with one that logs (thread, rows) per call
    and first runs `before(a)`; returns the log."""
    calls = []
    real = nnet.expit

    def wrapped(a, out=None):
        if before is not None:
            before(a)
        result = real(a, out=out)
        calls.append((threading.get_ident(), a.shape[0]))
        return result

    monkeypatch.setattr(nnet, "expit", wrapped)
    return calls


# The reference is the plain full-batch forward, run on each block's rows,
# so the result cannot depend on the number of threads or on how a chunk's
# blocks are grouped for the gate. Among these batches, 769, 1300 and 1537
# give chunks of an odd number of blocks, so a trailing group of one block,
# and 769, 1537 and 4097 a 1-row fold inside a chunk's last group.
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("batch", [512, 513, 769, 1024, 1300, 1537, 4097, 8192])
def test_split_forward_matches_full_batch_reference_bitwise(monkeypatch, workers, batch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: workers)
    rng = np.random.default_rng(batch)
    z = rng.normal(size=(batch, 2))
    cond = rng.integers(0, 8, size=batch)
    blocks = row_blocks(batch)
    chunks = min(workers, len(blocks))
    # Each chunk gates its blocks GATE_BLOCKS at a time.
    chunk_blocks = [(j + 1) * len(blocks) // chunks - j * len(blocks) // chunks
                    for j in range(chunks)]
    groups = sum(math.ceil(n / nnet.GATE_BLOCKS) for n in chunk_blocks)
    for hidden in SHAPES:
        model = model_with_biases(hidden, seed=7)
        for t in (0.61, rng.uniform(0.0, 1.0, size=batch)):
            calls = recording_expit(monkeypatch)
            out = model.forward(z, t, cond)
            assert np.array_equal(out, reference_forward(model, z, t, cond))
            # Every row passes each hidden layer once: no chunk overlaps another.
            assert sum(rows for _, rows in calls) == batch * len(hidden)
            assert len(calls) == groups * len(hidden)
            if hidden:
                assert (len({thread for thread, _ in calls}) > 1) == (workers > 1)


# A stack of slabs that start on block boundaries, the last one longer than
# one row, equals one stand-alone call per slab: 4096 rows are 16 slabs of
# 256 rows, the stack a distill round's teacher forward runs at its default
# batch.
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(128, 128), (100,), (), (4,), (400, 8)])
@pytest.mark.parametrize("batch", [4096, 4100, 8192])
def test_slab_forward_equals_stand_alone_slab_calls_bitwise(monkeypatch, workers, hidden, batch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: workers)
    model = model_with_biases(hidden, seed=11)
    rng = np.random.default_rng(batch)
    z = rng.normal(size=(batch, model.latent_dim))
    t = rng.uniform(0.0, 1.0, size=batch)
    cond = rng.integers(0, model.num_classes, size=batch)
    out = model.forward(z, t, cond)
    for rows in (256, 512):
        alone = [model.forward(z[lo: lo + rows], t[lo: lo + rows], cond[lo: lo + rows])
                 for lo in range(0, batch, rows)]
        assert np.array_equal(out, np.concatenate(alone))


def test_single_block_forward_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 4)
    calls = recording_expit(monkeypatch)
    model = DenoiserModel.init(seed=7)
    model.forward(np.zeros((257, model.latent_dim)), 0.5, 0)
    assert {thread for thread, _ in calls} == {threading.get_ident()}


def test_concurrent_callers_each_get_their_own_result(monkeypatch):
    model = DenoiserModel.init(seed=9)
    rng = np.random.default_rng(9)
    inputs = [(rng.normal(size=(batch, model.latent_dim)), t,
               rng.integers(0, model.num_classes, size=batch))
              for batch, t in ((1500, 0.2), (2049, 0.7), (770, 0.45))]
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    expected = [model.forward(*args) for args in inputs]
    # More callers and chunks than this machine's cores, switching often.
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 3)
    barrier = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]

    def call(k):
        barrier.wait()
        for _ in range(8):
            results[k].append(model.forward(*inputs[k]))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for outs, want in zip(results, expected):
        assert len(outs) == 8
        assert all(np.array_equal(out, want) for out in outs)


def test_forward_waits_for_the_pool_when_its_own_chunk_raises(monkeypatch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    caller = threading.get_ident()

    def fail_on_caller(a):
        if threading.get_ident() == caller:
            raise RuntimeError("caller chunk failed")
        time.sleep(0.005)

    calls = recording_expit(monkeypatch, fail_on_caller)
    model = DenoiserModel.init(seed=8)
    with pytest.raises(RuntimeError, match="caller chunk failed"):
        model.forward(np.zeros((2048, model.latent_dim)), 0.5, 0)
    # The pool's chunk, the last 4 of 8 blocks, had run to its end.
    assert sum(rows for _, rows in calls) == 4 * 256 * len(model.hidden)


def test_forward_raises_a_pool_chunk_error_once_the_other_chunks_finish(monkeypatch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 3)
    caller = threading.get_ident()
    lock = threading.Lock()
    failed = []

    def fail_first_pool_call(a):
        if threading.get_ident() == caller:
            return
        with lock:
            first = not failed
            failed.append(first)
        if first:
            raise RuntimeError("pool chunk failed")
        time.sleep(0.005)

    calls = recording_expit(monkeypatch, fail_first_pool_call)
    model = DenoiserModel.init(seed=8)
    with pytest.raises(RuntimeError, match="pool chunk failed"):
        model.forward(np.zeros((9 * 256, model.latent_dim)), 0.5, 0)
    # 9 blocks in 3 chunks of 3: the caller's and the other pool chunk ran to
    # their ends before the error came back.
    assert sum(rows for _, rows in calls) == 2 * 3 * 256 * len(model.hidden)


def _split_forward_in_child(queue):
    model = DenoiserModel.init(seed=8)
    queue.put(model.forward(np.zeros((1024, model.latent_dim)), 0.5, 0))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_a_split_forward(monkeypatch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    model = DenoiserModel.init(seed=8)
    want = model.forward(np.zeros((1024, model.latent_dim)), 0.5, 0)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_split_forward_in_child, args=(queue,))
    child.start()
    try:
        np.testing.assert_array_equal(queue.get(timeout=20), want)
    finally:
        child.join(timeout=20)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_gate_is_scipy_expit_within_two_ulp():
    special = [1e3, -1e3, np.inf, -np.inf, 0.0, -0.0]
    a = np.concatenate([special, np.random.default_rng(0).normal(0.0, 3.0, size=100_000)])
    kept = a.copy()
    want = scipy.special.expit(a)
    out = np.empty_like(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nnet.expit(a, out=out) is out
        got = nnet.expit(a)
    assert np.array_equal(a, kept)
    assert np.array_equal(got, out)
    assert np.array_equal(got[: len(special)], [1.0, 0.0, 1.0, 0.0, 0.5, 0.5])
    # Gates lie in [0, 1], where a double's int64 bits count its ULPs.
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
    assert np.isnan(nnet.expit(np.array([np.nan, -np.nan]))).all()


def test_saturated_gates_warn_on_no_thread(monkeypatch):
    # Pool threads do not inherit the caller's np.errstate, so the gate must
    # silence its own overflow on whichever thread runs it.
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    calls = recording_expit(monkeypatch)
    model = DenoiserModel.init(seed=8)
    n_hidden = len(model.hidden)
    for k in range(n_hidden):
        model.params[f"b{k}"][:] = -1000.0
    z = np.random.default_rng(8).normal(size=(1024, model.latent_dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = model.forward(z, 0.5, 0)
        train_out, _ = model.forward_backward(z, 0.5, 0)
    assert len({thread for thread, _ in calls}) == 2
    # Every gate is exactly 0, so only the output bias is left.
    bias = np.broadcast_to(model.params[f"b{n_hidden}"], out.shape)
    assert np.array_equal(out, bias)
    assert np.array_equal(train_out, bias)


def test_the_package_imports_without_scipy():
    src = str(Path(nnet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import importlib, pkgutil, sys, snrdistill, snrdistill.cli\n"
        "for m in pkgutil.iter_modules(snrdistill.__path__):\n"
        "    importlib.import_module('snrdistill.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_weight_gradients_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long reduction over its threads, so a 5000-row h.T @ g
    # rounded differently on one thread and on two; per block it does not.
    src = str(Path(nnet.__file__).parents[1])
    code = (
        "import hashlib, numpy as np\n"
        "from snrdistill.nnet import DenoiserModel, loss_and_gradients\n"
        "model = DenoiserModel.init(seed=2)\n"
        "rng = np.random.default_rng(3)\n"
        "z = rng.normal(size=(5000, model.latent_dim))\n"
        "cond = rng.integers(0, model.num_classes, size=5000)\n"
        "grad = loss_and_gradients(model, z, rng.uniform(size=5000), cond, rng.normal(\n"
        "    size=z.shape), rng.uniform(size=5000))[1]\n"
        "print(hashlib.sha256(grad.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]


def test_sample_is_the_same_on_one_thread_and_by_default(monkeypatch):
    model = DenoiserModel.init(seed=6)
    conds = np.random.default_rng(1).integers(0, model.num_classes, size=4096)
    config = SamplerConfig(steps=8, seed=5)
    default = sample(model, conds, config, CosineSchedule())
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    np.testing.assert_array_equal(default, sample(model, conds, config, CosineSchedule()))


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
    model.flat[:] = 0.0
    out = model.forward(np.array([[0.7], [-2.0]]), 0.5, 1)
    np.testing.assert_array_equal(out, np.zeros((2, 1)))


def test_forward_hand_computed_single_hidden_layer():
    # 2-layer formula evaluated longhand: out = w1 . silu(x @ w0 + b0) + b1
    # with x = [z, sin(pi t), cos(pi t), e0, e1].
    model = tiny_model(seed=0, hidden=(2,))
    model.params["embed"][...] = np.array([[0.5, -1.0], [0.25, 0.75]])
    model.params["w0"][...] = np.array([
        [0.1, -0.2],
        [0.3, 0.4],
        [-0.5, 0.6],
        [0.7, -0.8],
        [0.9, 1.0],
    ])
    model.params["b0"][...] = np.array([0.05, -0.15])
    model.params["w1"][...] = np.array([[1.5], [-2.5]])
    model.params["b1"][...] = np.array([0.125])

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


@pytest.mark.parametrize("t, cond, name", [
    (np.full((4, 1), 0.5), 0, "t"),
    (0.5, np.zeros((4, 1), dtype=np.int64), "condition"),
    (np.full(3, 0.5), 0, "t"),
])
def test_a_misshapen_time_or_condition_names_both_shapes(t, cond, name):
    model = tiny_model()
    got = np.shape(t if name == "t" else cond)
    with pytest.raises(ShapeMismatchError) as err:
        model.forward(np.zeros((4, 1)), t, cond)
    assert str(err.value) == f"{name} must have shape () or (4,), got shape {got}"


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


def x_form_of_chain(target, w, chain):
    """The clean-latent target and weight whose plain loss equals the loss
    of the noise eps_hat = (z_t - alpha x_hat) / sigma against `target`
    under `w`, with chain = (z_t, alpha, sigma): since
    |eps - eps_hat|^2 = snr |x - x_hat|^2, x = (z_t - sigma eps) / alpha
    and the weight is w snr."""
    z_t, alpha, sigma = chain
    return (z_t - sigma[:, None] * target) / alpha[:, None], w * np.square(alpha / sigma)


def reference_loss_and_gradients(model, z, t, cond, target, w, chain=None):
    """Plain allocating backward, in the order the reverse-mode graph used:
    loss, dL/d(pred), then each layer from the top, then the embedding.
    With `chain`, the loss is on the noise the output implies, as the
    x-parameterized trainer once computed it (see `x_form_of_chain`)."""
    batch = z.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (batch,))
    cond = np.broadcast_to(np.asarray(cond, dtype=np.int64), (batch,))
    p = model.params
    inputs = [np.concatenate(
        [z, time_features(t, model.num_frequencies), p["embed"][cond]], axis=1
    )]
    pre = []
    for k in range(len(model.hidden)):
        pre.append(inputs[-1] @ p[f"w{k}"] + p[f"b{k}"])
        inputs.append(pre[-1] * (1.0 / (1.0 + np.exp(-pre[-1]))))
    k = len(model.hidden)
    out = inputs[-1] @ p[f"w{k}"] + p[f"b{k}"]
    pred = out
    if chain is not None:
        z_t, alpha, sigma = chain
        pred = (z_t - alpha[:, None] * out) * (1.0 / sigma)[:, None]
    diff = pred - target
    loss = (np.square(diff).sum(axis=1) * w).sum() * (1.0 / batch)
    g = (w * (1.0 / batch))[:, None] * (2.0 * diff)
    if chain is not None:
        g = (-(g * (1.0 / sigma)[:, None])) * alpha[:, None]
    grads = {}
    for k in range(len(model.hidden), -1, -1):
        # The weight gradient sums its forward blocks' products in block order.
        products = [inputs[k][lo:hi].T @ g[lo:hi] for lo, hi in row_blocks(batch)]
        grads[f"w{k}"] = functools.reduce(operator.add, products)
        grads[f"b{k}"] = g.sum(axis=0)
        g = g @ p[f"w{k}"].T
        if k:
            a = pre[k - 1]
            s = 1.0 / (1.0 + np.exp(-a))
            g = g * (s * (1.0 + a * (1.0 - s)))
    grads["embed"] = np.zeros_like(p["embed"])
    np.add.at(grads["embed"], cond, g[:, -model.embed_dim:])
    return float(loss), grads


# Batch 100 is not a power of two, so dividing by it instead of multiplying
# by its inverse would change the bits. 600 and 1300 rows are three and five
# blocks; for these shapes the blocked forward rounds as a full-batch one.
@pytest.mark.parametrize("chained", [False, True])
@pytest.mark.parametrize("hidden", [(), (4,), (5, 3), (128, 128)])
@pytest.mark.parametrize("batch", [1, 2, 100, 128, 256, 600, 1300])
def test_hand_backward_matches_reference_bitwise(batch, hidden, chained):
    model = DenoiserModel.init(hidden=hidden, seed=batch)
    rng = np.random.default_rng(len(hidden) + 10 * batch)
    z = rng.normal(size=(batch, model.latent_dim))
    cond = rng.integers(0, 3, size=batch)  # few ids, so most repeat
    target = rng.normal(size=(batch, model.latent_dim))
    w = rng.uniform(0.1, 3.0, size=batch)
    chain = (z, rng.uniform(0.1, 1.0, size=batch), rng.uniform(0.1, 1.0, size=batch))
    x_target, x_w = x_form_of_chain(target, w, chain) if chained else (target, w)
    for t in (0.37, rng.uniform(0.0, 1.0, size=batch)):
        loss, grad, *_ = loss_and_gradients(model, z, t, cond, x_target, x_w)
        ref_loss, ref_grads = reference_loss_and_gradients(model, z, t, cond, x_target, x_w)
        assert loss == ref_loss
        assert grad.shape == model.flat.shape
        grads = model.views(grad)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name
        if chained:
            # The same loss as the old chain through eps_hat, up to rounding.
            ref_loss, ref_grads = reference_loss_and_gradients(
                model, z, t, cond, target, w, chain)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            for name, g in grads.items():
                scale = np.max(np.abs(ref_grads[name]), initial=0.0)
                assert np.max(np.abs(g - ref_grads[name]), initial=0.0) <= 1e-12 * scale, name


# The training pass runs the forward's blocks, so its output is the
# forward's at every batch size; over 257 rows, a full-batch pass rounds
# otherwise for some of these shapes.
@pytest.mark.parametrize("batch", [1, 2, 128, 257, 600, 1300])
def test_forward_backward_output_matches_forward_bitwise(batch):
    rng = np.random.default_rng(batch)
    z = rng.normal(size=(batch, 2))
    t = rng.uniform(size=batch)
    cond = rng.integers(0, 8, size=batch)
    for hidden in SHAPES:
        model = model_with_biases(hidden, seed=2)
        assert np.array_equal(model.forward_backward(z, t, cond)[0], model.forward(z, t, cond))


def training_batch(batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, 2)), rng.uniform(size=batch), rng.integers(0, 8, size=batch),
            rng.normal(size=(batch, 2)), rng.uniform(0.1, 3.0, size=batch))


# The blocks of a training call are dealt to threads like an inference
# call's, and its backward runs on the calling thread.
@pytest.mark.parametrize("batch", [513, 600, 1300])
def test_training_pass_is_the_same_on_any_number_of_threads(monkeypatch, batch):
    args = training_batch(batch, seed=batch)
    for hidden in SHAPES:
        model = model_with_biases(hidden, seed=3)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(nnet, "_available_cpus", lambda: workers)
            calls = recording_expit(monkeypatch)
            results.append(loss_and_gradients(model, *args))
            if hidden:
                assert (len({thread for thread, _ in calls}) > 1) == (workers > 1)
        for loss, grad, weighted in results[1:]:
            assert loss == results[0][0]
            assert np.array_equal(grad, results[0][1])
            assert np.array_equal(weighted, results[0][2])


@pytest.mark.parametrize("batch", [100, 600])
def test_backward_reads_only_its_own_pass(batch):
    model = model_with_biases((16, 8), seed=4)
    z, t, cond, target, w = training_batch(batch, seed=1)
    out, backward = model.forward_backward(z, t, cond)
    d_out = weighted_squared_error(out, target, w)[1]
    want = backward(d_out)
    other = training_batch(batch, seed=2)
    model.forward_backward(*other[:3])
    model.forward(*other[:3])
    assert np.array_equal(backward(d_out), want)


def test_a_single_block_training_pass_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 4)
    submitted = []

    class Pool:
        def submit(self, fn):
            submitted.append(fn)
            raise AssertionError("a pool thread was asked to run a chunk")

    monkeypatch.setattr(nnet, "_forward_pool", Pool)
    model = DenoiserModel.init(seed=7)
    for batch in (1, 128, 256, 257):
        loss_and_gradients(model, *training_batch(batch, seed=batch))
    assert submitted == []


def test_training_does_not_call_the_public_forward(monkeypatch):
    # A benchmark span on `forward` counts inference calls only.
    def fail(*args):
        raise AssertionError("forward was called")

    monkeypatch.setattr(DenoiserModel, "forward", fail)
    model = DenoiserModel.init(hidden=(8,), seed=1)
    for batch in (8, 600):
        loss, grad, *_ = loss_and_gradients(model, *training_batch(batch, seed=batch))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_weighted_squared_error_terms():
    pred = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]])
    target = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 2.0]])
    w = np.array([2.0, 0.5, 1.0])
    loss, d_pred, weighted = weighted_squared_error(pred, target, w)
    np.testing.assert_array_equal(weighted, [10.0, 2.0, 1.0])  # squared errors 5, 4 and 1
    assert loss == pytest.approx(13.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(d_pred, 2.0 * w[:, None] * (pred - target) / 3.0, rtol=1e-15)


def test_an_empty_batch_is_a_value_error_that_names_the_batch():
    empty = np.zeros((0, 1))
    with pytest.raises(ValueError, match="^batch must hold at least 1 row, got 0$"):
        weighted_squared_error(empty, empty, np.zeros(0))
    with pytest.raises(ValueError, match="^batch must hold at least 1 row, got 0$"):
        loss_and_gradients(tiny_model(), empty, 0.4, 1, empty, np.zeros(0))


def test_constant_loss_gives_zero_gradients():
    model = tiny_model()
    z = np.random.default_rng(0).normal(size=(3, 1))
    target = np.random.default_rng(1).normal(size=(3, 1))
    loss, grad, *_ = loss_and_gradients(model, z, 0.4, 1, target, np.zeros(3))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(model.flat))


def test_loss_at_exact_minimum_gives_zero_gradients():
    model = tiny_model(seed=2)
    z = np.random.default_rng(0).normal(size=(3, 1))
    target = model.forward(z, 0.4, 1)
    loss, grad, *_ = loss_and_gradients(model, z, 0.4, 1, target, np.full(3, 2.0))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(model.flat))


def check_against_finite_differences(hidden, chained):
    model = tiny_model(seed=7, hidden=hidden)
    assert model.num_params <= 200
    rng = np.random.default_rng(11)
    batch = 6
    z = rng.normal(size=(batch, 1))
    t = rng.uniform(0.05, 0.95, size=batch)
    cond = rng.integers(0, 2, size=batch)
    target = rng.normal(size=(batch, 1))
    w = rng.uniform(0.5, 2.0, size=batch)
    alpha, sigma = rng.uniform(0.2, 1.0, size=batch), rng.uniform(0.2, 1.0, size=batch)
    x_target, x_w = x_form_of_chain(target, w, (z, alpha, sigma)) if chained else (target, w)

    def loss_value():
        # Chained, the differences are those of the old loss through eps_hat.
        out = model.forward(z, t, cond)
        if chained:
            out = (z - alpha[:, None] * out) / sigma[:, None]
        return weighted_squared_error(out, target, w)[0]

    _, grad, *_ = loss_and_gradients(model, z, t, cond, x_target, x_w)
    grads = model.views(grad)
    numeric = finite_difference_grads(model, loss_value, h=1e-5)
    for name in model.params:
        err = np.abs(grads[name] - numeric[name])
        bound = 1e-4 * np.maximum(np.abs(grads[name]), np.abs(numeric[name])) + 1e-7
        assert np.all(err <= bound), f"gradient mismatch in {name}"


@pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
def test_gradients_match_central_finite_differences(hidden):
    check_against_finite_differences(hidden, chained=False)


@pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
def test_chained_gradients_match_central_finite_differences(hidden):
    check_against_finite_differences(hidden, chained=True)


def reference_adam(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam update the flat one replaced."""
    t = step + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        new_params[k] = p - lr * (new_m[k] / bc1) / (np.sqrt(new_v[k] / bc2) + eps)
    return new_params, new_m, new_v


def test_flat_adam_matches_per_array_reference_over_chained_steps():
    model = DenoiserModel.init(hidden=(16, 8), seed=3)
    rng = np.random.default_rng(5)
    ref = {k: p.copy() for k, p in model.params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = AdamState.fresh(model.flat, lr=3e-3)
    for step in range(6):
        grads = {k: rng.normal(scale=10.0 ** (step - 3), size=p.shape) for k, p in ref.items()}
        adam_step(model.flat, np.concatenate([grads[k].ravel() for k in ref]), state)
        ref, ref_m, ref_v = reference_adam(ref, grads, ref_m, ref_v, step, lr=3e-3)
        assert state.step == step + 1
        for k in ref:
            assert np.array_equal(model.params[k], ref[k]), k
        assert np.array_equal(state.m, np.concatenate([ref_m[k].ravel() for k in ref]))
        assert np.array_equal(state.v, np.concatenate([ref_v[k].ravel() for k in ref]))


@pytest.mark.parametrize("build", ["constructor", "init", "replace", "load_checkpoint"])
def test_a_model_copies_the_arrays_it_is_built_from_into_its_flat_vector(build, tmp_path):
    source = tiny_model(seed=4, hidden=(3,))
    caller = {k: p.copy() for k, p in source.params.items()}
    if build == "constructor":
        model = DenoiserModel(latent_dim=1, num_classes=2, hidden=(3,), embed_dim=2,
                              num_frequencies=1, parameterization=Parameterization.EPSILON,
                              params=caller)
    elif build == "init":
        model = source
    elif build == "replace":  # as progressive_distill makes each round's student
        model = replace(source, parameterization=Parameterization.X)
    else:
        save_checkpoint(tmp_path / "m.ckpt", source, CosineSchedule())
        model, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert model.flat.dtype == np.float64 and model.flat.size == model.num_params
    assert list(model.params) == list(caller)
    lo = 0
    for k, p in model.params.items():  # views of `flat`, in layout order
        np.testing.assert_array_equal(p, caller[k])
        assert np.shares_memory(p, model.flat)
        np.testing.assert_array_equal(p.ravel(), model.flat[lo: lo + p.size])
        lo += p.size
    assert lo == model.flat.size
    state = AdamState.fresh(model.flat, lr=0.1)
    adam_step(model.flat, np.ones_like(model.flat), state)
    for k, p in model.params.items():  # the step moves every view ...
        assert np.all(p < caller[k]), k
    if build != "init":  # ... and writes neither the caller's arrays nor the source's
        for k, p in source.params.items():
            np.testing.assert_array_equal(p, caller[k])


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_or_unpickled_model_owns_its_own_flat_vector(duplicate):
    model = model_with_biases((16, 8), seed=5)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(600, model.latent_dim))
    t = rng.uniform(0.0, 1.0, size=600)
    cond = rng.integers(0, model.num_classes, size=600)
    want = model.forward(z, t, cond)
    dup = duplicate(model)
    assert dup.parameterization is model.parameterization
    assert list(dup.params) == list(model.params)
    for k, p in dup.params.items():
        assert np.shares_memory(p, dup.flat), k
    assert not np.shares_memory(dup.flat, model.flat)
    assert not any(np.shares_memory(p, q) for p in dup.params.values()
                   for q in (model.flat, *model.params.values()))
    with pytest.raises(TypeError, match="read-only"):
        dup.params["b0"] = np.zeros(16)
    assert np.array_equal(dup.forward(z, t, cond), want)
    adam_step(dup.flat, np.ones_like(dup.flat), AdamState.fresh(dup.flat, lr=0.1))
    assert not np.array_equal(dup.forward(z, t, cond), want)
    assert np.array_equal(model.forward(z, t, cond), want)


def test_a_model_rejects_missing_extra_and_misshapen_arrays():
    params = tiny_model().params
    dims = dict(latent_dim=1, num_classes=2, hidden=(4,), embed_dim=2, num_frequencies=1,
                parameterization=Parameterization.EPSILON)
    for bad in ({k: p for k, p in params.items() if k != "b1"},
                {**params, "w9": np.zeros(1)},
                {**params, "b0": np.zeros(5)}):
        with pytest.raises(ValueError, match="params must have the shapes"):
            DenoiserModel(params=bad, **dims)


def test_params_cannot_be_replaced_added_or_removed():
    model = tiny_model()
    before = model.flat.copy()
    names = list(model.params)
    for change in (
        lambda p: p.__setitem__("b1", np.zeros(1)),
        lambda p: p.__setitem__("w9", np.zeros(1)),
        lambda p: p.__delitem__("b1"),
        lambda p: p.update(b1=np.zeros(1)),
        lambda p: p.pop("b1"),
        lambda p: p.popitem(),
        lambda p: p.clear(),
        lambda p: p.setdefault("w9", np.zeros(1)),
        lambda p: operator.ior(p, {"b1": np.zeros(1)}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change(model.params)
    assert isinstance(model.params, dict)
    assert list(model.params) == names
    np.testing.assert_array_equal(model.flat, before)
    # An entry is still a view of `flat`, writable in place.
    model.params["b1"][...] = 2.5
    assert model.flat[-1] == 2.5
    adam_step(model.flat, np.ones_like(model.flat), AdamState.fresh(model.flat, lr=0.1))
    assert model.params["b1"][0] == model.flat[-1] < 2.5


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        AdamState.fresh(np.zeros(3), lr=lr)


def test_adam_zero_gradient_leaves_params_unchanged():
    model = tiny_model()
    before = model.flat.copy()
    state = AdamState.fresh(model.flat, lr=0.1)
    adam_step(model.flat, np.zeros_like(model.flat), state)
    np.testing.assert_array_equal(model.flat, before)
    assert state.step == 1


def test_adam_identical_calls_identical_results():
    grad = np.array([0.1, 0.2])
    a, b = np.array([0.3, -0.4]), np.array([0.3, -0.4])
    a_state, b_state = AdamState.fresh(a, lr=0.01), AdamState.fresh(b, lr=0.01)
    adam_step(a, grad, a_state)
    adam_step(b, grad, b_state)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a_state.m, b_state.m)
    np.testing.assert_array_equal(a_state.v, b_state.v)


def test_adam_first_step_hand_computed():
    # Bias correction makes m_hat = v_hat = 1 on the first unit-gradient
    # step, so the update is exactly lr / (1 + eps).
    params = np.array([0.5])
    adam_step(params, np.array([1.0]), AdamState.fresh(params, lr=0.1))
    expected = 0.5 - 0.1 / (1.0 + 1e-8)
    assert params[0] == pytest.approx(expected, abs=1e-16)


def test_adam_shape_mismatch_rejected():
    params = np.zeros(3)
    with pytest.raises(ShapeMismatchError):
        adam_step(params, np.zeros(2), AdamState.fresh(params))
    with pytest.raises(ShapeMismatchError):
        adam_step(params, np.zeros(3), AdamState.fresh(np.zeros(4)))


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


# OpenBLAS takes the first of its thread variables set above 0, and with
# none, one thread per CPU.
@pytest.mark.parametrize("env, cpus, one", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "4"}, 2, False),
    ({}, 2, False),
    ({}, 1, True),
])
def test_one_blas_thread_reads_openblas_variables_in_its_order(monkeypatch, env, cpus, one):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(nnet, "_available_cpus", lambda: cpus)
    assert nnet._one_blas_thread() is one


# Importing the package before numpy sets OPENBLAS_NUM_THREADS=1 unless a
# BLAS variable is set above 0; after numpy it can no longer take effect and
# is left unset.
@pytest.mark.parametrize("env, numpy_first, one, variable", [
    ({}, False, "True", "1"),
    ({"OPENBLAS_NUM_THREADS": "0"}, False, "True", "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, "False", "2"),
    ({"OMP_NUM_THREADS": "2"}, False, "False", "None"),
    ({}, True, None, "None"),
])
def test_the_package_takes_one_blas_thread_unless_told_otherwise(env, numpy_first, one,
                                                                 variable):
    src = str(Path(nnet.__file__).parents[1])
    base = {name: value for name, value in os.environ.items()
            if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    code = (
        ("import numpy\n" if numpy_first else "")
        + "import os\n"
        "from snrdistill import nnet\n"
        "print(nnet._one_blas_thread(), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(
        base, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=60, check=True)
    # Left unset, OpenBLAS takes one thread per CPU.
    expected = one if one is not None else str(nnet._available_cpus() == 1)
    assert result.stdout.split() == [expected, variable]
