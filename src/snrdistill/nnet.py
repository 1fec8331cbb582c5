"""Conditional MLP denoiser, its gradients, and a functional Adam optimizer.

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
batches of up to 256 rows, such as the teacher forwards of a distill update,
stay one block. The blocked result is bit-identical to the full-batch one
because each output element of a hidden-layer matmul sums its products in
the same order whatever the number of rows, with three exceptions, measured
with OpenBLAS 0.3.31 on AVX-512:
- A 1-row product goes through numpy's matrix-vector path, whose rounding
  differs, so a trailing 1-row remainder joins the block before it.
- The narrow output layer (width = latent_dim) rounds differently when its
  rows are split, from 4096 rows on, so it stays one full-batch matmul.
- A hidden width that is not a multiple of 8, or a hidden layer with more
  than 384 inputs, sends small blocks through a kernel that rounds
  differently from the full batch's, so such models run as one block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .errors import ShapeMismatchError

Array = np.ndarray

# Rows per block of the inference forward; see the module docstring.
FORWARD_BLOCK_ROWS = 256
# Hidden-layer shapes whose row blocks round exactly like the full batch:
# widths a multiple of the 8-double vector, inputs within one 384-deep panel.
_EXACT_WIDTH_MULTIPLE = 8
_EXACT_MAX_INPUTS = 384


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


@dataclass
class DenoiserModel:
    """Conditional denoiser: 2-hidden-layer MLP by default, SiLU activations."""

    latent_dim: int
    num_classes: int
    hidden: tuple[int, ...]
    embed_dim: int
    num_frequencies: int
    parameterization: Parameterization
    params: dict[str, Array] = field(repr=False)

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
        in_dim = latent_dim + 2 * num_frequencies + embed_dim
        dims = [in_dim, *hidden, latent_dim]
        params: dict[str, Array] = {
            "embed": rng.normal(0.0, 1.0, size=(num_classes, embed_dim))
        }
        for k in range(len(dims) - 1):
            scale = 1.0 / np.sqrt(dims[k])
            params[f"w{k}"] = rng.normal(0.0, scale, size=(dims[k], dims[k + 1]))
            params[f"b{k}"] = np.zeros(dims[k + 1], dtype=np.float64)
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
        return sum(v.size for v in self.params.values())

    def copy_with(self, parameterization: Parameterization | None = None) -> "DenoiserModel":
        """Deep copy; optionally retag the output parameterization."""
        return DenoiserModel(
            latent_dim=self.latent_dim,
            num_classes=self.num_classes,
            hidden=self.hidden,
            embed_dim=self.embed_dim,
            num_frequencies=self.num_frequencies,
            parameterization=parameterization or self.parameterization,
            params={k: v.copy() for k, v in self.params.items()},
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
        cond = np.asarray(cond)
        # The int64 cast below truncates, which would turn class 2.7 into 2.
        if cond.dtype.kind == "f" and not np.all(np.isfinite(cond) & (cond == np.trunc(cond))):
            raise ValueError(f"condition ids must be integers, got {cond}")
        cond = cond.astype(np.int64, copy=False)
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

    def forward(self, z, t, cond) -> Array:
        """Network prediction for a batch, shape (batch, latent_dim).

        `t` and `cond` may be scalars (broadcast over the batch) or arrays
        of length batch.

        Inference only, bit-identical to `graph_forward`'s values. The hidden
        layers run over blocks of FORWARD_BLOCK_ROWS rows, sized so a block's
        working set stays in L2; batches of up to 256 rows are one block, and
        so is every batch of a model whose hidden shapes would round blocks
        differently (see the module docstring). A trailing 1-row remainder
        is folded into the block before it, since a 1-row matmul takes
        numpy's matrix-vector path and rounds differently. The last hidden
        layer writes its block into one full-batch array, and the output
        layer is a single matmul over that array, because splitting the
        narrow output matmul by rows changes its bits.
        """
        z, t, cond = self._validate(z, t, cond)
        params = self.params
        batch = z.shape[0]
        n_hidden = len(self.hidden)
        time_cols = slice(self.latent_dim, self.latent_dim + 2 * self.num_frequencies)
        embed_cols = slice(time_cols.stop, None)
        shared_feats = time_features(t, self.num_frequencies) if t.ndim == 0 else None

        in_dim = embed_cols.start + self.embed_dim
        exact = max((in_dim, *self.hidden[:-1])) <= _EXACT_MAX_INPUTS and all(
            width % _EXACT_WIDTH_MULTIPLE == 0 for width in self.hidden
        )
        block_rows = FORWARD_BLOCK_ROWS if exact else batch
        rows = min(batch, block_rows + 1)
        # With no hidden layer the assembled input is the last activation.
        last = np.empty((batch, self.hidden[-1] if n_hidden else in_dim))
        x_buf = np.empty((rows, in_dim)) if n_hidden else None
        act_bufs = [np.empty((rows, width)) for width in self.hidden[:-1]]
        gate_buf = np.empty(rows * max(self.hidden, default=0))

        for lo, hi in _row_blocks(batch, block_rows):
            m = hi - lo
            x = x_buf[:m] if n_hidden else last[lo:hi]
            x[:, : time_cols.start] = z[lo:hi]
            x[:, time_cols] = (
                shared_feats if shared_feats is not None
                else time_features(t[lo:hi], self.num_frequencies)
            )
            np.take(params["embed"], cond[lo:hi], axis=0, out=x[:, embed_cols])
            h = x
            for k in range(n_hidden):
                a = last[lo:hi] if k == n_hidden - 1 else act_bufs[k][:m]
                np.matmul(h, params[f"w{k}"], out=a)
                a += params[f"b{k}"]
                gate = gate_buf[: a.size].reshape(a.shape)
                expit(a, out=gate)
                a *= gate
                h = a
        k = n_hidden
        return last @ params[f"w{k}"] + params[f"b{k}"]

    def graph_forward(self, param_vars: dict[str, ad.Var], z, t, cond) -> ad.Var:
        """Same forward pass, recorded on the autodiff tape for `param_vars`."""
        z, t, cond = self._validate(z, t, cond)
        feats = np.broadcast_to(
            time_features(t, self.num_frequencies), (z.shape[0], 2 * self.num_frequencies)
        )
        h = ad.concat([z, feats, ad.take_rows(param_vars["embed"], cond)], axis=1)
        for k in range(len(self.hidden)):
            h = ad.silu(h @ param_vars[f"w{k}"] + param_vars[f"b{k}"])
        k = len(self.hidden)
        return h @ param_vars[f"w{k}"] + param_vars[f"b{k}"]


def _row_blocks(batch: int, block_rows: int):
    """(lo, hi) bounds of `block_rows`-row blocks; never a 1-row tail."""
    lo = 0
    while lo < batch:
        hi = min(lo + block_rows, batch)
        if batch - hi == 1:
            hi = batch
        yield lo, hi
        lo = hi


def loss_and_gradients(model: DenoiserModel, loss_fn):
    """Evaluate a scalar loss and its gradients w.r.t. every model parameter.

    `loss_fn(forward)` must build the loss from tracked forward passes:
    `forward(z, t, cond)` returns a Var, and the result must be a scalar Var
    (or a plain constant, which yields all-zero gradients). Gradients come
    back as a dict mirroring `model.params`.
    """
    param_vars = {k: ad.Var(v) for k, v in model.params.items()}

    def forward(z, t, cond):
        return model.graph_forward(param_vars, z, t, cond)

    loss = ad.lift(loss_fn(forward))
    ad.backward(loss)
    grads = {
        k: (pv.grad if pv.grad is not None else np.zeros_like(pv.value))
        for k, pv in param_vars.items()
    }
    return float(loss.value), grads


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3

    @classmethod
    def fresh(cls, params: dict[str, Array], lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            lr=lr,
        )


def adam_step(
    params: dict[str, Array], grads: dict[str, Array], state: AdamState
) -> tuple[dict[str, Array], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    for k, p in params.items():
        if state.m[k].shape != p.shape:
            raise ShapeMismatchError(f"adam m[{k}]", 0, p.shape, state.m[k].shape)
        if grads[k].shape != p.shape:
            raise ShapeMismatchError(f"grad[{k}]", 0, p.shape, grads[k].shape)
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params: dict[str, Array] = {}
    new_m: dict[str, Array] = {}
    new_v: dict[str, Array] = {}
    for k, p in params.items():
        g = grads[k]
        m = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[k] = m
        new_v[k] = v
    new_state = AdamState(
        m=new_m, v=new_v, step=t,
        beta1=state.beta1, beta2=state.beta2, eps=state.eps, lr=state.lr,
    )
    return new_params, new_state
