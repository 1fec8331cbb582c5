"""Conditional MLP denoiser, its hand-derived gradients, and a flat Adam optimizer.

The network maps a noisy latent, a diffusion time in [0, 1], and a class id
to a prediction with the same shape as the latent. Conditioning is plain
concatenation at the input: [latent, sinusoidal time features, learned class
embedding]. The `parameterization` tag records whether the output is read as
predicted noise or as the predicted clean latent; the forward pass itself is
identical for both.

The inference forward runs the hidden layers over blocks of
FORWARD_BLOCK_ROWS rows. A block of 256 rows keeps one layer's input,
pre-activation and gate (about 0.8 MB at width 128) inside a 2 MB L2 cache,
where a full 4096-row batch would stream 4 MB temporaries through memory;
batches of up to 256 rows stay one block. The blocked result is
bit-identical to the full-batch one because each output element of a
hidden-layer matmul sums its products in the same order whatever the number
of rows, with three exceptions, measured with OpenBLAS 0.3.31 on AVX-512:
- A 1-row product goes through numpy's matrix-vector path, whose rounding
  differs, so a trailing 1-row remainder joins the block before it.
- The narrow output layer (width = latent_dim) rounds differently when its
  rows are split, from 4096 rows on, so it stays one matmul per call (per
  slab, below).
- A hidden width that is not a multiple of 8, or a hidden layer with more
  than 384 inputs, sends small blocks through a kernel that rounds
  differently from the full batch's, so such models run as one block.

The blocks of one call are dealt, in contiguous chunks, to as many threads
as the process has CPUs (at most one thread per block); the calling thread
runs the first chunk, a module-level pool the rest. numpy's matmul and
elementwise ufuncs release the GIL, so on two CPUs (a 2-vCPU Xeon, one
BLAS thread) a 4096-row forward takes about 60% of its one-thread time.
The split cannot change a bit: each block is the same rows computed by the
same calls as on one thread, into its own rows of the last hidden layer's
array and into buffers that belong to its chunk alone, so the number of
threads only decides which thread computes a block. The narrow output layer runs
after every chunk has finished, as the one matmul above. A call of at most
257 rows is one block and stays on the calling thread: split into two
128-row halves on two threads, a 256-row forward measured slower on the
same machine (1.73 against 1.61 ms), so at that size the hand-off to a
second thread costs more than it saves. The caller allocates every chunk's
buffers before any chunk starts, so the pool's threads allocate no array
and open no allocator arena of their own.

`forward(z, t, cond, slab_rows=S)` runs a stack of independent batches as
one call. Its result equals, bit for bit, the concatenation of stand-alone
calls on consecutive S-row slabs (the last one may be shorter): each slab is
cut into blocks exactly as a stand-alone call on it would be, the blocks of
all slabs are dealt to the threads as above, and after the join the output
layer runs one matmul per slab. One output matmul over the whole stack
would not do: over 4096 stacked rows it differs from 16 stand-alone
256-row calls (by up to 9e-16 on random inputs) while 3840 rows still
agree, a cut-off of the BLAS kernel. A distill round stacks the teacher
forwards of 16 updates this way (4096 rows at batch 256), so their hidden
layers run on every CPU.

Training runs `forward_backward`: one full-batch pass whose backward is
written out for this network under a weighted squared-error loss. It
performs, in the same order and grouping, the operations of the general
reverse-mode graph it replaced, so the gradients, and with them every
trained parameter and experiment CSV, stay bit-for-bit the same. Float
products and sums are commutative but not associative, so an elementwise
step may run in place or with its operands swapped, but its grouping and
every reduction must not change:
- The loss sum_i w_i |pred_i - target_i|^2 is multiplied by 1.0 / batch,
  never divided by batch; the two round differently unless batch is a
  power of two.
- dL/d(pred) is (w * (1/batch))[:, None] * (2.0 * diff).
- Per layer, the bias gradient is g.sum(axis=0), the weight gradient
  h.T @ g, and the input gradient g @ w.T over the full input width: the
  same reductions and BLAS calls on the same operand layouts.
- The SiLU slope is s * (1 + a * (1 - s)) with s = 1 / (1 + exp(-a)),
  in that grouping (`expit`).
- The embedding gradient scatter-adds the input gradient's embedding
  columns with np.add.at, in row order, so repeated class ids sum in the
  order they appear.
The backward writes each gradient into its view of one vector laid out
like the model's parameter vector `flat` (`out=`; zeros, then np.add.at).
`adam_step` updates `flat` in place and keeps each element's grouping:
m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
p - (lr*m_hat) / (sqrt(v_hat) + eps).

numpy chooses its `exp` kernel by CPU feature when it is imported (an
AVX512F kernel where the CPU has one), as OpenBLAS chooses its matmul
kernels. So the numbers are reproducible bit for bit on one machine, but
not across CPU families.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError

Array = np.ndarray

# Rows per block of the inference forward; see the module docstring.
FORWARD_BLOCK_ROWS = 256
# Hidden-layer shapes whose row blocks round exactly like the full batch:
# widths a multiple of the 8-double vector, inputs within one 384-deep panel.
_EXACT_WIDTH_MULTIPLE = 8
_EXACT_MAX_INPUTS = 384
# Adam's moment decays and denominator guard, the same for every optimizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def expit(a: Array, out: Array | None = None) -> Array:
    """The logistic gate 1 / (1 + exp(-a)), elementwise, written into `out`
    if given and returned.

    With numpy's vectorized exp this is about four times as fast as
    scipy.special.expit, which calls the scalar libm exp; on N(0, 9) inputs
    about 2% of the gates differ from scipy's, by at most 2 units in the
    last place. Each element is computed on its own, so its bits do not
    depend on the rows or the thread it is computed with. For a < -709,
    exp(-a) overflows to inf and the gate is exactly 0; that overflow is
    expected and not reported.
    """
    out = np.negative(a, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class Parameterization(enum.Enum):
    EPSILON = "epsilon"
    X = "x"


def time_features(t, num_frequencies: int) -> Array:
    """Sinusoidal features [sin(pi 2^k t), cos(pi 2^k t)] for k < num_frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    freqs = np.pi * (2.0 ** np.arange(num_frequencies))
    angles = t[:, None] * freqs[None, :]
    out = np.empty((t.shape[0], 2 * num_frequencies), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def class_ids(cond) -> Array:
    """`cond` as int64 class ids; ValueError for a fractional or NaN id.

    A plain int64 cast would truncate, turning class 2.7 into class 2.
    """
    cond = np.asarray(cond)
    if cond.dtype.kind == "f" and not np.all(np.isfinite(cond) & (cond == np.trunc(cond))):
        raise ValueError(f"condition ids must be integers, got {cond}")
    return cond.astype(np.int64, copy=False)


def param_shapes(latent_dim: int, num_classes: int, hidden: tuple[int, ...],
                 embed_dim: int, num_frequencies: int) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes: `embed`, then `w{k}`/`b{k}` over the layer
    widths [latent_dim + 2 num_frequencies + embed_dim, *hidden, latent_dim]."""
    dims = [latent_dim + 2 * num_frequencies + embed_dim, *hidden, latent_dim]
    shapes = {"embed": (num_classes, embed_dim)}
    for k in range(len(dims) - 1):
        shapes[f"w{k}"] = (dims[k], dims[k + 1])
        shapes[f"b{k}"] = (dims[k + 1],)
    return shapes


@dataclass
class DenoiserModel:
    """Conditional denoiser: 2-hidden-layer MLP by default, SiLU activations.

    Construction copies the arrays of `params`, by name, into one new
    float64 vector `flat` and replaces them with named views of it.
    """

    latent_dim: int
    num_classes: int
    hidden: tuple[int, ...]
    embed_dim: int
    num_frequencies: int
    parameterization: Parameterization
    params: dict[str, Array] = field(repr=False)
    flat: Array = field(init=False, repr=False)

    def __post_init__(self):
        shapes = self._shapes()
        got = {name: np.shape(value) for name, value in self.params.items()}
        if got != shapes:  # a missing, extra or misshapen array
            raise ValueError(f"params must have the shapes {shapes}, got {got}")
        self.flat = np.concatenate(
            [np.reshape(self.params[name], -1) for name in shapes], dtype=np.float64)
        self.params = self.views(self.flat)

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return param_shapes(self.latent_dim, self.num_classes, self.hidden,
                            self.embed_dim, self.num_frequencies)

    def views(self, vec: Array) -> dict[str, Array]:
        """Named views of a parameter-sized vector, in the layout of `flat`."""
        out, lo = {}, 0
        for name, shape in self._shapes().items():
            out[name] = vec[lo: lo + math.prod(shape)].reshape(shape)
            lo += math.prod(shape)
        return out

    @classmethod
    def init(
        cls,
        latent_dim: int = 2,
        num_classes: int = 8,
        hidden: tuple[int, ...] = (128, 128),
        embed_dim: int = 16,
        num_frequencies: int = 8,
        parameterization: Parameterization = Parameterization.EPSILON,
        seed: int = 0,
    ) -> "DenoiserModel":
        rng = np.random.default_rng(seed)
        params: dict[str, Array] = {}
        for name, shape in param_shapes(latent_dim, num_classes, hidden, embed_dim,
                                        num_frequencies).items():
            if name == "embed":
                params[name] = rng.normal(0.0, 1.0, size=shape)
            elif name.startswith("w"):
                params[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
            else:
                params[name] = np.zeros(shape, dtype=np.float64)
        return cls(
            latent_dim=latent_dim,
            num_classes=num_classes,
            hidden=tuple(hidden),
            embed_dim=embed_dim,
            num_frequencies=num_frequencies,
            parameterization=parameterization,
            params=params,
        )

    @property
    def num_params(self) -> int:
        return self.flat.size

    def copy_with(self, parameterization: Parameterization | None = None) -> "DenoiserModel":
        """Deep copy; optionally retag the output parameterization."""
        return DenoiserModel(
            latent_dim=self.latent_dim,
            num_classes=self.num_classes,
            hidden=self.hidden,
            embed_dim=self.embed_dim,
            num_frequencies=self.num_frequencies,
            parameterization=parameterization or self.parameterization,
            params=self.params,
        )

    def _validate(self, z: Array, t, cond) -> tuple[Array, Array, Array]:
        """Checked float64 `z`, `t` clipped to [0, 1] and int64 `cond`.

        A scalar `t` comes back 0-d, so the time features of a shared time
        are computed once; `cond` always comes back with one id per row.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2:
            raise ShapeMismatchError("z_t", 0, "(batch, latent_dim)", f"{z.ndim}-d array")
        if z.shape[1] != self.latent_dim:
            raise ShapeMismatchError("z_t", 1, self.latent_dim, z.shape[1])
        batch = z.shape[0]
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 0 and t.shape != (batch,):
            raise ShapeMismatchError("t", 0, batch, t.shape[0])
        # Written so that NaN, which fails every comparison, fails the test.
        if not np.all((t >= -1e-12) & (t <= 1.0 + 1e-12)):
            raise ValueError(f"t must lie in [0, 1], got range [{t.min()}, {t.max()}]")
        t = np.clip(t, 0.0, 1.0)
        cond = class_ids(cond)
        if cond.ndim == 0:
            cond = np.full(batch, int(cond), dtype=np.int64)
        elif cond.shape != (batch,):
            raise ShapeMismatchError("condition", 0, batch, cond.shape[0])
        if np.any(cond < 0) or np.any(cond >= self.num_classes):
            raise ValueError(
                f"condition ids must lie in [0, {self.num_classes}), "
                f"got range [{cond.min()}, {cond.max()}]"
            )
        return z, t, cond

    def forward(self, z, t, cond, slab_rows: int | None = None) -> Array:
        """Network prediction for a batch, shape (batch, latent_dim).

        `t` and `cond` may be scalars (broadcast over the batch) or arrays
        of length batch.

        Inference only, bit-identical to `forward_backward`'s output. The hidden
        layers run over blocks of FORWARD_BLOCK_ROWS rows, sized so a block's
        working set stays in L2; batches of up to 256 rows are one block, and
        so is every batch of a model whose hidden shapes would round blocks
        differently (see the module docstring). A trailing 1-row remainder
        is folded into the block before it, since a 1-row matmul takes
        numpy's matrix-vector path and rounds differently. The blocks are
        dealt in contiguous chunks to one thread per available CPU, at most
        one per block: the calling thread runs the first chunk and a shared
        pool the rest. The last hidden layer writes its block into one
        full-batch array, and once every chunk has finished the output
        layer is a single matmul over that array, because splitting the
        narrow output matmul by rows changes its bits.

        With `slab_rows`, the rows are consecutive slabs of that many rows
        (the last may be shorter), and the result is bit-identical to one
        stand-alone call per slab, concatenated: each slab is blocked as on
        its own and gets its own output matmul. ValueError if it is < 1.
        """
        z, t, cond = self._validate(z, t, cond)
        batch = z.shape[0]
        if slab_rows is not None and slab_rows < 1:
            raise ValueError(f"slab_rows must be >= 1, got {slab_rows}")
        n_hidden = len(self.hidden)
        in_dim = self.latent_dim + 2 * self.num_frequencies + self.embed_dim
        exact = max((in_dim, *self.hidden[:-1])) <= _EXACT_MAX_INPUTS and all(
            width % _EXACT_WIDTH_MULTIPLE == 0 for width in self.hidden
        )
        step = slab_rows or max(batch, 1)
        slabs = [(lo, min(lo + step, batch)) for lo in range(0, batch, step)]
        # Each slab is cut into blocks as a stand-alone call on it would be.
        blocks = [(lo + b_lo, lo + b_hi) for lo, hi in slabs
                  for b_lo, b_hi in _row_blocks(hi - lo, FORWARD_BLOCK_ROWS if exact else hi - lo)]
        workers = min(_available_cpus(), len(blocks))
        # One row of features for a scalar t, broadcast into every block.
        feats = time_features(t, self.num_frequencies)
        # With no hidden layer the assembled input is the last activation.
        last = np.empty((batch, self.hidden[-1] if n_hidden else in_dim))
        # Every buffer is allocated here, before any chunk runs, so that the
        # pool's threads allocate no array.
        chunks = []
        for j in range(workers):
            chunk = blocks[j * len(blocks) // workers: (j + 1) * len(blocks) // workers]
            rows = max(hi - lo for lo, hi in chunk)
            buffers = (
                np.empty((rows, in_dim)) if n_hidden else None,
                [np.empty((rows, width)) for width in self.hidden[:-1]],
                np.empty(rows * max(self.hidden, default=0)),
            )
            chunks.append(functools.partial(
                self._hidden_rows, chunk, buffers, z, feats, cond, last))
        _run_chunks(chunks)
        w, b = self.params[f"w{n_hidden}"], self.params[f"b{n_hidden}"]
        out = np.empty((batch, w.shape[1]))
        for lo, hi in slabs:
            np.matmul(last[lo:hi], w, out=out[lo:hi])
            out[lo:hi] += b
        return out

    def _hidden_rows(self, blocks, buffers, z, feats, cond, last) -> None:
        """Writes the last hidden activation of the rows of `blocks` into
        `last`, one block at a time through the preallocated `buffers`."""
        params = self.params
        n_hidden = len(self.hidden)
        time_cols = slice(self.latent_dim, self.latent_dim + 2 * self.num_frequencies)
        embed_cols = slice(time_cols.stop, None)
        x_buf, act_bufs, gate_buf = buffers
        for lo, hi in blocks:
            m = hi - lo
            x = x_buf[:m] if n_hidden else last[lo:hi]
            x[:, : time_cols.start] = z[lo:hi]
            x[:, time_cols] = feats if len(feats) == 1 else feats[lo:hi]
            # The ids are validated, so "clip" changes none; unlike "raise",
            # it writes into `out` without a temporary copy.
            np.take(params["embed"], cond[lo:hi], axis=0, out=x[:, embed_cols], mode="clip")
            h = x
            for k in range(n_hidden):
                a = last[lo:hi] if k == n_hidden - 1 else act_bufs[k][:m]
                np.matmul(h, params[f"w{k}"], out=a)
                a += params[f"b{k}"]
                gate = gate_buf[: a.size].reshape(a.shape)
                expit(a, out=gate)
                a *= gate
                h = a

    def forward_backward(self, z, t, cond) -> tuple[Array, Callable[[Array], Array]]:
        """Training pass: the output and the function that maps dL/d(output)
        to the gradient of every parameter.

        One full-batch pass that keeps each layer's input and SiLU slope;
        `backward(d_out)` returns the gradient as one new vector laid out
        like `flat` (read it by name through `views`). It follows the
        op-order rules of the module docstring, so the gradients are
        bit-for-bit those of the reverse-mode graph they replace, and the
        output is bit-identical to `forward`'s.
        """
        z, t, cond = self._validate(z, t, cond)
        params = self.params
        batch = z.shape[0]
        n_hidden = len(self.hidden)
        time_cols = slice(self.latent_dim, self.latent_dim + 2 * self.num_frequencies)
        embed_cols = slice(time_cols.stop, None)

        x = np.empty((batch, embed_cols.start + self.embed_dim))
        x[:, : time_cols.start] = z
        x[:, time_cols] = time_features(t, self.num_frequencies)
        np.take(params["embed"], cond, axis=0, out=x[:, embed_cols])
        inputs = [x]
        slopes = []
        for k in range(n_hidden):
            a = inputs[-1] @ params[f"w{k}"]
            a += params[f"b{k}"]
            s = expit(a)
            inputs.append(a * s)
            # SiLU slope s * (1 + a * (1 - s)), built in a's buffer.
            a *= 1.0 - s
            a += 1.0
            a *= s
            slopes.append(a)
        k = n_hidden
        out = inputs[-1] @ params[f"w{k}"] + params[f"b{k}"]

        def backward(d_out) -> Array:
            g = np.asarray(d_out, dtype=np.float64)
            if g.shape != out.shape:
                raise ShapeMismatchError("d_out", 0, out.shape, g.shape)
            grad = np.empty_like(self.flat)
            grads = self.views(grad)
            for k in range(n_hidden, -1, -1):
                np.matmul(inputs[k].T, g, out=grads[f"w{k}"])
                g.sum(axis=0, out=grads[f"b{k}"])
                g = g @ params[f"w{k}"].T
                if k:
                    g *= slopes[k - 1]
            grads["embed"][...] = 0.0
            np.add.at(grads["embed"], cond, g[:, embed_cols])
            return grad

        return out, backward


def _row_blocks(batch: int, block_rows: int):
    """(lo, hi) bounds of `block_rows`-row blocks; never a 1-row tail."""
    lo = 0
    while lo < batch:
        hi = min(lo + block_rows, batch)
        if batch - hi == 1:
            hi = batch
        yield lo, hi
        lo = hi


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forward_pool() -> ThreadPoolExecutor:
    """The threads that run the inference forward's chunks after the first."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, (os.cpu_count() or 1) - 1),
                                       thread_name_prefix="snrdistill-forward")
        return _pool


def _forget_pool_in_child() -> None:
    # A forked child has none of its parent's pool threads, so a pool it
    # inherited would queue work that nothing runs.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _run_chunks(chunks: list[Callable[[], None]]) -> None:
    """Runs the first chunk on the calling thread and the rest on the pool.

    Returns, or raises the first error in chunk order, only once every chunk
    has finished, so that no chunk still writes when the caller goes on.
    """
    futures = []
    try:
        for chunk in chunks[1:]:
            futures.append(_forward_pool().submit(chunk))
        if chunks:
            chunks[0]()
    finally:
        if futures:
            wait(futures)
    for future in futures:
        future.result()


def weighted_squared_error(pred: Array, target: Array, w: Array
                           ) -> tuple[float, Array, Array, Array]:
    """The loss sum_i w_i |pred_i - target_i|^2 / batch and its gradient in `pred`.

    Returns (loss, dL/d(pred), per-row squared error, per-row weighted
    error), in the op order of the module docstring.
    """
    batch = len(w)
    diff = pred - target
    sq_err = (diff * diff).sum(axis=1)
    weighted = sq_err * w
    loss = float(weighted.sum() * (1.0 / batch))
    d_pred = (w * (1.0 / batch))[:, None] * (2.0 * diff)
    return loss, d_pred, sq_err, weighted


def loss_and_gradients(model, z, t, cond, target, w) -> tuple[float, Array, Array, Array]:
    """The weighted squared error of the model's output against `target`
    and its gradient in every parameter.

    Returns (loss, gradient, per-row squared error, per-row weighted
    error); the gradient is one vector laid out like `model.flat`.
    """
    out, backward = model.forward_backward(z, t, cond)
    loss, d_out, sq_err, weighted = weighted_squared_error(out, target, w)
    return loss, backward(d_out), sq_err, weighted


@dataclass
class AdamState:
    """Flat first/second moment accumulators, step count and learning rate.

    `m` and `v` are laid out like the parameter vector they update.
    """

    m: Array
    v: Array
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def fresh(cls, params: Array, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(params: Array, grad: Array, state: AdamState) -> None:
    """One bias-corrected Adam update of the vector `params`, in place.

    `grad`, `state.m` and `state.v` must have the shape of `params`; the
    state's moments and step advance in place too.
    """
    for name, arr in (("grad", grad), ("adam m", state.m), ("adam v", state.v)):
        if arr.shape != params.shape:
            raise ShapeMismatchError(name, 0, params.shape, arr.shape)
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    a = np.multiply(grad, 1.0 - ADAM_BETA1)
    m += a
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    b = np.divide(m, bc1)
    b *= state.lr
    b /= a
    params -= b
    state.step = t
