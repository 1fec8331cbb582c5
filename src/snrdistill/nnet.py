"""Conditional MLP denoiser, its hand-derived gradients, and a flat Adam optimizer.

The network maps a noisy latent, a diffusion time in [0, 1], and a class id
to a prediction with the same shape as the latent. Conditioning is plain
concatenation at the input: [latent, sinusoidal time features, learned class
embedding]. The `parameterization` tag records whether the output is read as
predicted noise or as the predicted clean latent; the forward pass itself is
identical for both.

The forward cuts a batch into blocks of FORWARD_BLOCK_ROWS rows,
and each block runs every layer's matmul, the output layer's included, on
its own rows; batches of up to 256 rows stay one block. The matmul per
block is the rounding unit. Everything else is elementwise: the input
assembly, each hidden layer's bias add, gate and SiLU product, and the
output bias, so their bits do not depend on the rows they run over. So a
call's result is, by construction, its blocks' stand-alone results
concatenated, whatever the model's shape, with one exception: a 1-row
product goes through numpy's matrix-vector path, whose rounding differs,
so a trailing 1-row remainder joins the block before it. A call of at most
257 rows is one block, and a stack of 256-row batches equals one call per
batch.

The blocks of one call are dealt, in contiguous chunks, to as many threads
as the process has CPUs (at most one thread per block); the calling thread
runs the first chunk, a module-level pool the rest. numpy's matmul and
elementwise ufuncs release the GIL while they run, but each call takes it
back on return, and with two threads each hand-off is a wake-up on the
other CPU: on a 2-vCPU Xeon a loop of expit, copy and multiply on 256 x 128
arrays ran only 1.45x as fast on two threads, a loop of matmuls 2.0x. So a
chunk makes few numpy calls. It writes its rows' inputs, time features
included, once into one array, and it gates its blocks
GATE_BLOCKS at a time: per hidden layer, one matmul per block into the
group's rows, then the bias add, gate and SiLU product once over the group,
whose pre-activation and gate (1 MB at width 128) stay in a 2 MB L2 cache.
Elementwise calls over a group change no bit, so neither the group size nor
the number of threads does: each block's rows go through the same matmul
calls as on one thread, through buffers that belong to its chunk alone, and
its output is written by its own thread into its own rows. With one BLAS
thread a 4096-row forward took 9.8-11.1 ms on one CPU and 6.7-7.7 ms on two
(five processes each), where gating each block alone took 9.1-14.1 and
9.4-9.7 ms. A call of at most 257 rows stays on the calling thread: split
into two 128-row halves on two threads, a 256-row forward measured slower
on the same machine (1.73 against 1.61 ms), so at that size the hand-off to
a second thread costs more than it saves. The caller allocates every
chunk's buffers before any chunk starts, so the pool's threads allocate no
array of their own except numpy's ufunc buffer, at most 64 KB, which each
broadcast bias add takes.

Training runs `forward_backward`. Its forward is this blocked, threaded
pass at every batch size, so its output is `forward`'s bit for bit. It runs
with `keep`: the first layer's input goes into a full-batch array; each
hidden layer's pre-activation goes into another, which the SiLU product
then turns into the layer's output; and the layer's SiLU slope goes into a
third, written before that product. Its backward is written out for this
network under a weighted squared-error loss. It performs, in the same order
and grouping, the operations of the general reverse-mode graph it replaced,
except that it sums each weight gradient over the forward's blocks. So up
to 257 rows, where the forward is one block, the gradients stay bit-for-bit
that graph's, and with them every trained parameter and experiment CSV at
the default batch sizes. Over 257 rows no BLAS call reduces over more than
one block, so OpenBLAS splits none over its threads: a 5000-row gradient is
the same on one BLAS thread and on two, as one full-batch h.T @ g was not.
Float products and sums are commutative but not associative, so an
elementwise step may run in place or with its operands swapped, but its
grouping and every reduction must not change:
- The loss sum_i w_i |pred_i - target_i|^2 is multiplied by 1.0 / batch,
  never divided by batch; the two round differently unless batch is a
  power of two.
- dL/d(pred) is (w * (1/batch))[:, None] * (2.0 * diff).
- Per layer, the bias gradient is g.sum(axis=0), the weight gradient the
  sum of the blocks' h[lo:hi].T @ g[lo:hi] in block order, and the input
  gradient g @ w.T over the full input width: the same reductions and BLAS
  calls on the same operand layouts.
- The SiLU slope is s * (1 + a * (1 - s)) with s = 1 / (1 + exp(-a)),
  in that grouping (`expit`).
- The embedding gradient sums the input gradient's embedding columns into
  (class, column) bins with one np.bincount, which starts each bin at 0.0
  and adds its terms in row order, so repeated class ids sum in the order
  they appear.
The backward writes each gradient into its view of one vector laid out
like the model's parameter vector `flat` (`out=`, or a copy of the
bincount).
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

from . import _blas_threads
from .errors import ShapeMismatchError
from .schedule import check_unit_interval

Array = np.ndarray

# Rows per block of the forward; see the module docstring.
FORWARD_BLOCK_ROWS = 256
# Blocks per gate group of the forward; see the module docstring.
# Measured against gating each block alone, its inputs written per block, in
# two passes of 20 alternating in-process pairs of a 32-step sample of 4096
# latents (2-vCPU Xeon, 2 MB L2 per core, one BLAS thread): 1 block, with
# the inputs written once per chunk, ran +5.2% and +3.3% (17 and 14 of 20
# pairs won); 2 blocks +15.7% and +13.8% (20, 18); 3 blocks +12.5% and
# +17.0% (20, 19); 4 blocks +14.5% and +10.2% (20, 18); the whole 8-block
# chunk +6.3% and +6.0% (19, 14), as its 2 MB pre-activation and gate spill
# L2. 2 and 3 tie within the noise; 2 keeps a group's buffers at 1 MB.
GATE_BLOCKS = 2
# Adam's moment decays and denominator guard, the same for every optimizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@np.errstate(over="ignore")  # cheaper per call than a `with` block
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
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class Parameterization(enum.Enum):
    EPSILON = "epsilon"
    X = "x"


def time_features(t, num_frequencies: int) -> Array:
    """Sinusoidal features [sin(pi 2^k t), cos(pi 2^k t)] for k < num_frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty((t.shape[0], 2 * num_frequencies), dtype=np.float64)
    _write_time_features(t, _frequencies(num_frequencies), np.empty(out.size), out)
    return out


@functools.cache
def _frequencies(num_frequencies: int) -> Array:
    # Shared by every call, so read-only.
    freqs = np.pi * (2.0 ** np.arange(num_frequencies))
    freqs.flags.writeable = False
    return freqs


def _write_time_features(t: Array, freqs: Array, scratch: Array, out: Array) -> None:
    """Writes the features of the 1-d `t` at `freqs` into the rows of `out`,
    which may be strided, allocating no array.

    The angles and each wave go through two contiguous runs of the flat
    `scratch` (at least 2 len(t) len(freqs) doubles), as through the fresh
    arrays numpy would allocate for them: numpy may choose another sin or
    cos loop for a strided output.
    """
    shape = (t.shape[0], freqs.shape[0])
    n = math.prod(shape)
    angles = scratch[:n].reshape(shape)
    wave = scratch[n: 2 * n].reshape(shape)
    np.multiply(t[:, None], freqs, out=angles)
    out[:, 0::2] = np.sin(angles, out=wave)
    out[:, 1::2] = np.cos(angles, out=wave)


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
    widths [latent_dim + 2 num_frequencies + embed_dim, *hidden, latent_dim].
    ValueError, its message led by the argument's name, for a hidden width < 1
    or a negative `embed_dim` or `num_frequencies`."""
    if min(hidden, default=1) < 1:
        raise ValueError(f"hidden widths must be >= 1, got {hidden}")
    for name, value in (("embed_dim", embed_dim), ("num_frequencies", num_frequencies)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    dims = [latent_dim + 2 * num_frequencies + embed_dim, *hidden, latent_dim]
    shapes = {"embed": (num_classes, embed_dim)}
    for k in range(len(dims) - 1):
        shapes[f"w{k}"] = (dims[k], dims[k + 1])
        shapes[f"b{k}"] = (dims[k + 1],)
    return shapes


class ParamViews(dict):
    """Named views of a parameter vector: a dict whose entries cannot be
    added, replaced or removed, so that they always alias the vector.

    Writing into an entry in place (`views[name][...] = x`) stays allowed.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            "parameter views are read-only as a mapping; write into an entry in place")

    __setitem__ = __delitem__ = update = pop = popitem = clear = setdefault = _read_only
    __ior__ = _read_only


@dataclass
class DenoiserModel:
    """Conditional denoiser: 2-hidden-layer MLP by default, SiLU activations.

    Construction copies the arrays of `params`, by name, into one new
    float64 vector `flat` and replaces them with named views of it, a
    `ParamViews`.
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

    def __reduce__(self):
        # Copies and pickles rebuild the model through its constructor, so a
        # copy's `params` are views of its own new `flat`; `params` goes as a
        # plain dict, since a `ParamViews` cannot be filled item by item.
        return DenoiserModel, (self.latent_dim, self.num_classes, self.hidden, self.embed_dim,
                               self.num_frequencies, self.parameterization, dict(self.params))

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return param_shapes(self.latent_dim, self.num_classes, self.hidden,
                            self.embed_dim, self.num_frequencies)

    def views(self, vec: Array) -> ParamViews:
        """Named views of a parameter-sized vector, in the layout of `flat`."""
        out, lo = [], 0
        for name, shape in self._shapes().items():
            out.append((name, vec[lo: lo + math.prod(shape)].reshape(shape)))
            lo += math.prod(shape)
        return ParamViews(out)

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

    def _validate(self, z: Array, t, cond) -> tuple[Array, Array, Array]:
        """Checked float64 `z`, `t` clipped to [0, 1] and int64 `cond`.

        A scalar `t` comes back 0-d, so the time features of a shared time
        are computed once; `cond` always comes back with one id per row.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2:
            raise ShapeMismatchError("z_t", None, f"(batch, {self.latent_dim})", z.shape)
        if z.shape[1] != self.latent_dim:
            raise ShapeMismatchError("z_t", 1, self.latent_dim, z.shape[1])
        batch = z.shape[0]
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 0 and t.shape != (batch,):
            raise ShapeMismatchError("t", None, f"() or ({batch},)", t.shape)
        t = check_unit_interval(t, "t")
        cond = class_ids(cond)
        if cond.ndim == 0:
            cond = np.full(batch, int(cond), dtype=np.int64)
        elif cond.shape != (batch,):
            raise ShapeMismatchError("condition", None, f"() or ({batch},)", cond.shape)
        # The array method skips the Python dispatch of np.any, which costs
        # more than the check on a small batch.
        if ((cond < 0) | (cond >= self.num_classes)).any():
            raise ValueError(
                f"condition ids must lie in [0, {self.num_classes}), "
                f"got range [{cond.min()}, {cond.max()}]"
            )
        return z, t, cond

    def forward(self, z, t, cond) -> Array:
        """Network prediction for a batch, shape (batch, latent_dim).

        `t` and `cond` may be scalars (broadcast over the batch) or arrays
        of length batch.

        The rows run in blocks of FORWARD_BLOCK_ROWS, and each layer's
        matmul runs once per block; a trailing 1-row remainder is folded
        into the block before it, since a 1-row matmul takes numpy's
        matrix-vector path and rounds differently. All else is elementwise,
        so the result is the concatenation of the blocks' stand-alone
        results. The blocks are dealt in contiguous chunks to one thread per
        available CPU, at most one per block: the calling thread runs the
        first chunk and a shared pool the rest. Each chunk writes its inputs
        once and gates its blocks GATE_BLOCKS at a time (see the module
        docstring). `forward_backward` runs the same pass, so its output is
        this one's, bit for bit.
        """
        return self._forward(*self._validate(z, t, cond), keep=False)[0]

    def _forward(self, z, t, cond, keep: bool) -> tuple[Array, list[Array], list[Array]]:
        """The blocked pass of `forward` and `forward_backward`, on validated
        inputs: the output, then each layer's input and each hidden layer's
        SiLU slope as full-batch arrays with `keep`, or two empty lists.
        """
        batch = z.shape[0]
        in_dim = self.latent_dim + 2 * self.num_frequencies + self.embed_dim
        out = np.empty((batch, self.latent_dim))
        inputs, slopes = [], []
        if keep:
            # Arrays of their own, not views of the workspace below: carved
            # from it, they made an in-process distill phase fault about
            # twice as many pages in.
            inputs = [np.empty((batch, width)) for width in (in_dim, *self.hidden)]
            slopes = [np.empty((batch, width)) for width in self.hidden]
        # A call of at most FORWARD_BLOCK_ROWS + 1 rows is one block.
        cpus = _available_cpus() if batch > FORWARD_BLOCK_ROWS + 1 else 1
        scratch_dim = max(self.embed_dim, 2 * self.num_frequencies)
        widest = max(self.hidden, default=0)
        plan, size = _chunk_plan(batch, cpus, in_dim, scratch_dim, widest, keep)
        # A scalar t has one row of features, computed here once and
        # broadcast into every chunk; otherwise each chunk computes its own.
        feats = time_features(t, self.num_frequencies) if t.ndim == 0 else None
        # Every chunk's buffers are views of one workspace, allocated here
        # before any chunk runs, so that the pool's threads allocate no
        # array. As one block it stays mapped between calls; as separate
        # chunk-sized arrays the allocator gave it back and faulted it in
        # anew on each call (624 minor faults per 4096-row call on one CPU,
        # which made the call about 12% slower).
        work = np.empty(size)
        calls = []
        for edges, bounds in plan:
            bufs = [work[lo:hi] for lo, hi in bounds]
            x = inputs[0][edges[0]: edges[-1]] if keep else bufs.pop().reshape(-1, in_dim)
            calls.append(functools.partial(self._forward_rows, edges, x, bufs, z, t, feats, cond,
                                           out, inputs, slopes))
        _run_chunks(calls)
        return out, inputs, slopes

    def _forward_rows(self, edges, x, bufs, z, t, feats, cond, out, inputs, slopes) -> None:
        """Writes the output of the blocks with row `edges` into `out`,
        through `x`, their rows of the first layer's input, and the
        preallocated flat buffers `bufs`.

        The chunk's inputs are written once into `x`: the latents, the time
        features (the shared row `feats`, or computed here from `t` when
        `feats` is None) and the embeddings, the last two through the first
        buffer as scratch. The blocks then go through the layers GATE_BLOCKS
        at a time. Each hidden layer runs one matmul per block, the rounding
        unit, and the bias, gate and SiLU product once over the group. The
        pre-activation goes into the group's rows of one of the two
        ping-pong buffers and the gate into the other, whose input the
        matmuls have consumed; with kept `inputs` and `slopes`, it goes into
        the layer's kept output and the gate into the one buffer, and the
        slope is written into the layer's kept slope before the product.
        The output matmul runs per block and its bias once over the chunk.
        """
        params = self.params
        n_hidden = len(self.hidden)
        time_cols = slice(self.latent_dim, self.latent_dim + 2 * self.num_frequencies)
        embed_cols = slice(time_cols.stop, None)
        start, stop = edges[0], edges[-1]
        x[:, : time_cols.start] = z[start:stop]
        # The ids are validated, so "clip" changes none. Unlike "raise", it
        # writes into a contiguous `out` without a temporary copy; a strided
        # `out` would get one.
        embed = bufs[0][: (stop - start) * self.embed_dim].reshape(stop - start, self.embed_dim)
        x[:, embed_cols] = params["embed"].take(cond[start:stop], axis=0, out=embed, mode="clip")
        if feats is None:
            freqs = _frequencies(self.num_frequencies)
            _write_time_features(t[start:stop], freqs, bufs[0], x[:, time_cols])
        else:
            x[:, time_cols] = feats
        for i in range(0, len(edges) - 1, GATE_BLOCKS):
            group = edges[i: i + GATE_BLOCKS + 1]
            lo, hi = group[0], group[-1]
            blocks = [slice(b_lo - lo, b_hi - lo) for b_lo, b_hi in zip(group, group[1:])]
            h = x[lo - start: hi - start]
            for k, width in enumerate(self.hidden):
                if slopes:
                    a = inputs[k + 1][lo:hi]
                    gate = bufs[0][: a.size].reshape(a.shape)
                else:
                    a = bufs[k % 2][: (hi - lo) * width].reshape(hi - lo, width)
                    gate = bufs[(k + 1) % 2][: a.size].reshape(a.shape)
                for rows in blocks:
                    np.matmul(h[rows], params[f"w{k}"], out=a[rows])
                a += params[f"b{k}"]
                expit(a, out=gate)
                if slopes:  # s * (1 + a * (1 - s)), grouped so
                    slope = np.subtract(1.0, gate, out=slopes[k][lo:hi])
                    slope *= a
                    slope += 1.0
                    slope *= gate
                a *= gate
                h = a
            for rows in blocks:
                np.matmul(h[rows], params[f"w{n_hidden}"], out=out[lo:hi][rows])
        out[start:stop] += params[f"b{n_hidden}"]

    def forward_backward(self, z, t, cond) -> tuple[Array, Callable[[Array], Array]]:
        """Training pass: the output and the function that maps dL/d(output)
        to the gradient of every parameter.

        The output is `forward`'s, from the same blocked pass, which here
        keeps each layer's full-batch input and SiLU slope;
        `backward(d_out)` returns the gradient as one new vector laid out
        like `flat` (read it by name through `views`). The backward follows
        the op-order rules of the module docstring, so up to 257 rows the
        gradients are bit-for-bit those of the reverse-mode graph they replace.
        """
        z, t, cond = self._validate(z, t, cond)
        params = self.params
        n_hidden = len(self.hidden)
        out, inputs, slopes = self._forward(z, t, cond, keep=True)
        edges = _block_edges(z.shape[0])
        embed_cols = slice(inputs[0].shape[1] - self.embed_dim, None)

        def backward(d_out) -> Array:
            g = np.asarray(d_out, dtype=np.float64)
            if g.shape != out.shape:
                raise ShapeMismatchError("d_out", None, out.shape, g.shape)
            grad = np.empty_like(self.flat)
            grads = self.views(grad)
            for k in range(n_hidden, -1, -1):
                w_grad = np.matmul(inputs[k][:edges[1]].T, g[:edges[1]], out=grads[f"w{k}"])
                for lo, hi in zip(edges[1:], edges[2:]):
                    w_grad += inputs[k][lo:hi].T @ g[lo:hi]
                g.sum(axis=0, out=grads[f"b{k}"])
                g = g @ params[f"w{k}"].T
                if k:
                    g *= slopes[k - 1]
            grads["embed"][...] = np.bincount(
                (cond[:, None] * self.embed_dim + np.arange(self.embed_dim)).ravel(),
                g[:, embed_cols].ravel(), self.num_classes * self.embed_dim,
            ).reshape(self.num_classes, self.embed_dim)
            return grad

        return out, backward


def _block_edges(batch: int) -> list[int]:
    """Row edges of the blocks of a `batch`-row forward and of its weight
    gradients: FORWARD_BLOCK_ROWS rows each, a trailing 1-row remainder joined
    to the block before it, and one empty block for no rows."""
    return [0, *range(FORWARD_BLOCK_ROWS, batch - 1, FORWARD_BLOCK_ROWS), batch]


@functools.lru_cache(maxsize=64)
def _chunk_plan(batch: int, cpus: int, in_dim: int, scratch_dim: int, widest: int, keep: bool):
    """How the forward of `batch` rows runs on at most `cpus` threads.

    Returns one (edges, bounds) per chunk, the row edges of its blocks and
    the (lo, hi) of its buffers in the workspace, then the workspace's size
    in doubles. Chunk j runs blocks [j n / chunks, (j + 1) n / chunks) of n.
    Its buffers are two ping-pong buffers, the first of which is the input
    scratch until the first layer, and its x; a gate group has at most
    GATE_BLOCKS * FORWARD_BLOCK_ROWS + 1 rows. With `keep` the kept arrays
    take the layers' outputs and x, and the first buffer holds each gate.
    The plan is cached: made on every call, it took about 2 of the 50 us
    of an 8-row training pass of a `hidden=(4,)` model.
    """
    edges = _block_edges(batch)
    n = len(edges) - 1
    chunks = min(cpus, n)
    plan, size = [], 0
    for j in range(chunks):
        chunk = edges[j * n // chunks: (j + 1) * n // chunks + 1]
        rows = chunk[-1] - chunk[0]
        gate = min(rows, GATE_BLOCKS * FORWARD_BLOCK_ROWS + 1) * widest
        sizes = [max(rows * scratch_dim, gate)]
        if not keep:
            sizes += [gate, rows * in_dim]
        bounds = []
        for n_doubles in sizes:
            bounds.append((size, size + n_doubles))
            size += n_doubles
        plan.append((tuple(chunk), tuple(bounds)))
    return tuple(plan), size


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_blas_thread() -> bool:
    """Whether numpy's OpenBLAS runs each call on one thread."""
    threads = _blas_threads()
    return threads == 1 if threads is not None else _available_cpus() == 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forward_pool() -> ThreadPoolExecutor:
    """The threads that run the forward's chunks after the first."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, (os.cpu_count() or 1) - 1),
                                       thread_name_prefix="snrdistill-forward")
        return _pool


def _stop_pool() -> None:
    # Joins the pool's idle threads before a fork, so that the process forks
    # with one thread (Python 3.12+ warns on a fork with several); the next
    # forward starts a new pool.
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


def _forget_pool_in_child() -> None:
    # A forked child has none of its parent's pool threads, so a pool it
    # inherited would queue work that nothing runs.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_pool, after_in_child=_forget_pool_in_child)


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
                           ) -> tuple[float, Array, Array]:
    """The loss sum_i w_i |pred_i - target_i|^2 / batch and its gradient in `pred`.

    Returns (loss, dL/d(pred), per-row weighted error), in the op order of
    the module docstring. An empty batch has no mean: ValueError.
    """
    batch = len(w)
    if batch == 0:
        raise ValueError("batch must hold at least 1 row, got 0")
    diff = pred - target
    weighted = (diff * diff).sum(axis=1) * w
    loss = float(weighted.sum() * (1.0 / batch))
    d_pred = (w * (1.0 / batch))[:, None] * (2.0 * diff)
    return loss, d_pred, weighted


def loss_and_gradients(model, z, t, cond, target, w) -> tuple[float, Array, Array]:
    """The weighted squared error of the model's output against `target`
    and its gradient in every parameter.

    Returns (loss, gradient, per-row weighted error); the gradient is one
    vector laid out like `model.flat`.
    """
    out, backward = model.forward_backward(z, t, cond)
    loss, d_out, weighted = weighted_squared_error(out, target, w)
    return loss, backward(d_out), weighted


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
        """Zero moments for `params`; ValueError unless `lr` is finite and > 0."""
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {lr}")
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(params: Array, grad: Array, state: AdamState) -> None:
    """One bias-corrected Adam update of the vector `params`, in place.

    `grad`, `state.m` and `state.v` must have the shape of `params`; the
    state's moments and step advance in place too.
    """
    for name, arr in (("grad", grad), ("adam m", state.m), ("adam v", state.v)):
        if arr.shape != params.shape:
            raise ShapeMismatchError(name, None, params.shape, arr.shape)
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
