"""Progressive step-halving distillation.

Each round initializes a student from the current teacher, then trains it so
that one student step at grid spacing 1/N reproduces two teacher DDIM
half-steps of spacing 0.5/N. The two half-steps are collapsed into a single
clean-latent regression target

    z0_tilde = (z_t'' - (sigma_t''/sigma_t) z_t) / (alpha_t'' - (sigma_t''/sigma_t) alpha_t),

the unique latent prediction for which one DDIM step t -> t'' from z_t lands
exactly on z_t''. The per-sample squared error is weighted by the configured
SNR strategy. Every round runs exactly `steps_per_round` updates, so each
weighting gets the same budget (Salimans & Ho, arXiv:2202.00512). After a
round the student becomes the next teacher and the step count halves.

A round's draws (batch, grid time t = i/N, noise) come from its seed
alone, and its targets from the frozen teacher and those draws; only the
loss depends on the student. So a round draws its updates in the noised
stacks base training draws (see the data module's docstring), 16 updates
at batch 256, and computes each stack's targets in one teacher call over
its stacked rows. The teacher's forward runs each layer's matmul once per
256-row block, the blocks run on every CPU, and each thread computes its own
chunk's time features; the other per-call costs (validation, the schedule,
the DDIM arithmetic) are paid once per call. When the batch is a multiple
of 256 (the default), or a stack holds one update, each update's targets
are bit-identical to a call of its own. At other batches a block can hold
the rows of two updates, so a target may differ from its own call's in the
last place; it still depends only on the round's draws, not on the number
of threads.
A trial at 8192 rows per stack was no faster than 4096.

While the student trains, a second CPU can compute the teacher's targets
for the updates ahead. Where the platform has `os.fork`, the process may
run on more than one CPU and numpy's BLAS runs on one thread, a round
without a cache that draws at least PREFETCH_MIN_STACKS stacks forks one
child as it starts. The child (`_send_targets`) draws the round's stacks
and computes each stack's targets one forward block at a time
(`nnet._block_edges`, at most 257 rows), writing each block's targets to a
pipe as raw float64 bytes as soon as it has them. A forward of one block
runs on its calling thread, so the child keeps to one CPU and leaves the
other to the student. A forward is its blocks' stand-alone results joined
and every step of `teacher_target` after it is elementwise, so the blocks'
targets are the whole stack's call's, bit for bit. The round draws the
same stacks from the same seed and, before each update, reads the targets
of the rows up to the end of that update and not one byte more
(`_StreamedTargets`). So a round waits for the child only until its first
block is done: in train-distill's rounds (7 stacks of up to 4096 rows, on
a 2-vCPU Xeon) the first wait was 3-5 ms and the waits of a 3-round
`progressive_distill` 18-29 ms in all, against 17-25 ms and 62-74 ms when
the round read each whole stack before training on it.
A round of one or two stacks forks no child. bench/experiment.cfg's
30-update rounds draw two stacks each, and its cells already run in
forked children, one per CPU, so a child of each round would be a third
process on two CPUs. It measured no faster: over 8 alternating pairs of
processes of 7 `run_experiment` runs each, the median run took 0.96-1.32 s
with a threshold of 3 and 1.00-1.19 s with 2, and 3 won 5 of the 8 pairs.
OpenBLAS's own threads, one per CPU unless it is told otherwise, already
keep the second CPU busy, and a child competing with them for it made
rounds slower: `snrdistill distill` of a 3-round, 100-update config took
3.0-3.4 s with a child against 0.78-0.81 s without. A thread would need no
fork, but the benchmark's tracer keeps one span stack per process, and a
traced forward on a second thread could close its spans out of order
(ROADMAP item 1).
The child only makes a round faster. A round that cannot fork one
computes its targets itself. From the child's first short read, because
it failed or died, the round computes that stack's targets in one call
over the stack, which rewrites the rows it has trained on already with the
same bits, and every later stack's targets itself. So an error such as
DegenerateTargetError is raised by the round, at the stack and with the
trace the inline round gives, though the round may by then have trained
on the stack's first updates. The child leaves only through os._exit, and
the round kills and reaps it before it returns or raises.

Round 1 is also where strategies share work: every strategy distilled from
one teacher with one seed meets the same round-1 targets, because the
weighting only enters the loss; later rounds differ, because their teachers
are the strategies' own students. A `TeacherTargetCache` holds one whole
round's targets for one teacher: one z0_tilde array per stack,
steps_per_round x batch_size x latent_dim doubles in all (123 KB at
30 x 256 x 2, 16 MB at the default 4000 x 256 x 2). It has one writer,
`cache_round_targets`, which draws the round's stacks as `distill_round`
does (`_round_stacks`) and makes the same teacher calls, so a round that
reads the cache trains on the bits it would have computed. A round only
reads it, so a round that fails cannot leave a part-filled cache behind.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import nnet
from .data import ToyDataset, _draw_stacks, _lookahead
from .errors import DegenerateTargetError, DistillationDivergedError
from .nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
)
from .sampler import ddim_path
from .schedule import CosineSchedule
from .util import _fork, _kill, child_rng
from .weighting import WeightStrategy, strategy_from_name

Array = np.ndarray

DENOMINATOR_FLOOR = 1e-9
GRID_TOL = 1e-9  # in units of the grid index i = t * N
# The fewest stacks a round draws for its targets to be computed in a
# prefetch child (see the module docstring).
PREFETCH_MIN_STACKS = 3


@dataclass
class DistillConfig:
    """Knobs for one full progressive-distillation run."""

    iterations: int = 3            # K: number of halvings
    n_start: int = 64              # full step count of the initial teacher
    steps_per_round: int = 4000    # optimizer updates in every round
    batch_size: int = 256
    strategy: WeightStrategy = field(default_factory=lambda: strategy_from_name("bsa"))
    lr: float = 1e-3
    seed: int = 0                  # the run's root seed; round k draws from round_seed(seed, k)

    def __post_init__(self):
        check_halvings(self.n_start, self.iterations)
        # A round of no updates would hand back its teacher as the student,
        # and a batch of no rows has no loss.
        for name in ("steps_per_round", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def check_halvings(n_start: int, iterations: int) -> None:
    """Raise ValueError unless every round's student, at n_start / 2^k steps for
    k = 1..iterations, has a whole step count >= 2, as 200 -> 25 in 3 has."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    unit = 2 ** iterations
    if n_start % unit != 0 or n_start // unit < 2:
        raise ValueError(
            f"n_start={n_start} must be a multiple of 2^iterations={unit}, and "
            f"n_start / 2^iterations, the last student's steps, must be >= 2"
        )


@dataclass
class RoundRecord:
    """One halving round: its student, at `student_steps` steps, and the loss
    of every update. `distill_round` returns it; `progressive_distill` fills
    in the round index, the round's seconds and its checkpoint path."""

    student_steps: int
    student: DenoiserModel = field(repr=False)
    losses: Array = field(repr=False)
    round_index: int | None = None
    seconds: float | None = None
    checkpoint: str | None = None

    @property
    def teacher_steps(self) -> int:
        return 2 * self.student_steps

    @property
    def updates_run(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


@dataclass
class DistillTrace:
    rounds: list[RoundRecord] = field(default_factory=list)


@dataclass(frozen=True)
class TeacherTargetCache:
    """One round's targets z0_tilde by stack, for one teacher, grid, seed, batch and budget.

    `cache_round_targets` makes it, with the round's (teacher, n_steps,
    seed, batch_size, steps_per_round) as `key`. A round that reads it
    never calls the teacher, and `read` rejects a round whose key differs.
    The teacher is recorded by identity and must not change in place while
    the cache is in use; the dataset and schedule must stay the same too.
    """

    key: tuple
    z0_tilde: list[Array] = field(repr=False)

    def read(self, teacher, n_steps: int, seed: int, batch_size: int,
             steps_per_round: int) -> list[Array]:
        """The stored targets of the round these arguments name."""
        held_teacher, *held = self.key
        if teacher is not held_teacher or [n_steps, seed, batch_size, steps_per_round] != held:
            raise ValueError(
                f"target cache holds (n_steps, seed, batch_size, steps_per_round) = "
                f"{tuple(held)}, got ({n_steps}, {seed}, {batch_size}, {steps_per_round})"
                + ("" if teacher is held_teacher else " and another teacher")
            )
        return self.z0_tilde


def round_seed(root_seed: int, k: int) -> int:
    """The seed of round k's draws in a progressive run seeded by `root_seed`."""
    return int(child_rng(root_seed, "round", k).integers(0, 2**31 - 1))


def teacher_target(teacher, z_t, t, n_steps: int, cond, schedule: CosineSchedule
                   ) -> tuple[Array, Array]:
    """Two teacher half-steps from z_t, collapsed to a one-step target.

    `t` must lie on the student grid {i/N : 1 <= i <= N} (scalar or
    per-sample array); any other time, NaN included, raises ValueError.
    Returns (z0_tilde, z_t''). The half-steps are the DDIM loop `sample`
    runs, so a latent-predicting teacher's z_t'' from t = 1 is the first two
    steps of its own 2N-step `sample` from the same noise. A
    noise-predicting teacher's is not: its query time is clipped to
    1 - 0.5/N, the student's grid, which keeps the conversion away from its
    t = 1 singularity, while its own 2N-step sampler clips to 1 - 0.25/N.
    Every step after the teacher's forward is elementwise, so a row's
    result depends only on the rows its forward computes it with.
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    i = t * n_steps
    # Written so that NaN, which fails every comparison, fails the test.
    on_grid = ((i >= 1.0 - GRID_TOL) & (i <= n_steps + GRID_TOL)
               & (np.abs(i - np.rint(i)) <= GRID_TOL))
    if not np.all(on_grid):
        bad = np.ravel(t)[~np.ravel(on_grid)][0]
        raise ValueError(
            f"t must lie on the grid i/{n_steps} with 1 <= i <= {n_steps}, got {bad}")
    half = 0.5 / n_steps
    t_pp = np.clip(t - 2.0 * half, 0.0, 1.0)
    z_pp = ddim_path(teacher, z_t, (t, np.clip(t - half, 0.0, 1.0), t_pp), cond, schedule,
                     max_query_t=1.0 - half)

    alpha_t, sigma_t = schedule.alpha_sigma(t)
    alpha_pp, sigma_pp = schedule.alpha_sigma(t_pp)
    ratio = np.asarray(sigma_pp) / np.asarray(sigma_t)
    denom = np.asarray(alpha_pp) - ratio * np.asarray(alpha_t)
    if np.any(np.abs(denom) <= DENOMINATOR_FLOOR):
        bad = t if t.ndim == 0 else t[np.abs(denom) <= DENOMINATOR_FLOOR][0]
        raise DegenerateTargetError(float(bad), n_steps)
    if np.ndim(ratio) == 1:
        ratio = ratio[:, None]
        denom = denom[:, None]
    z0_tilde = (z_pp - ratio * z_t) / denom
    return z0_tilde, z_pp


def _round_stacks(config: DistillConfig, n_steps: int, dataset: ToyDataset,
                  schedule: CosineSchedule, seed: int):
    """The noised stacks of a round's draws: its rng and its grid times t = i/N."""
    rng = child_rng(seed, "distill-round", n_steps)
    return _draw_stacks(dataset, schedule, config.batch_size, config.steps_per_round, rng,
                        lambda rng, size: rng.integers(1, n_steps + 1, size=size) / n_steps)


def _stack_targets(teacher, config: DistillConfig, n_steps: int, dataset: ToyDataset,
                   schedule: CosineSchedule, seed: int, pipe=None):
    """Yields (stack, z0_tilde) for each stack of a round's draws: the stack
    as `_round_stacks` yields it, and its targets from one teacher call over
    its stacked rows.

    With `pipe`, the read end of a `_send_targets` child's pipe, z0_tilde is
    a `_StreamedTargets` of the stack instead, read from the pipe as its
    rows are taken, up to the first short read; from the stack of that read
    on, every stack's targets are computed here.
    """
    for stack in _round_stacks(config, n_steps, dataset, schedule, seed):
        cond, _, t, _, z_t, _ = stack
        whole = partial(teacher_target, teacher, z_t, t, n_steps, cond, schedule)
        if pipe is None:
            yield stack, whole()[0]
            continue
        streamed = _StreamedTargets(pipe, z_t.shape, whole)
        yield stack, streamed
        pipe = streamed.pipe


class _StreamedTargets:
    """One stack's targets as a prefetch child sends them, row by row.

    Taking rows [lo, hi) first reads every row before hi from `pipe`, and
    not one row more, since `readinto` fills the whole view it is given.
    A short read means the child has stopped: the stack's targets then come
    from `whole()`, one teacher call over the stack, whose rows the child
    sent are the same bits, and `pipe` becomes None.
    """

    def __init__(self, pipe, shape: tuple[int, ...], whole):
        self.pipe = pipe
        self.z0_tilde = np.empty(shape)
        self._whole = whole
        self._read = 0  # bytes of z0_tilde read so far

    def __getitem__(self, rows: slice) -> Array:
        stop = rows.indices(len(self.z0_tilde))[1] * self.z0_tilde.strides[0]
        if self.pipe is not None and self._read < stop:
            self._read += self.pipe.readinto(self.z0_tilde.data.cast("B")[self._read: stop])
            if self._read < stop:
                self.pipe = None
                self.z0_tilde = self._whole()[0]
        return self.z0_tilde[rows]


def _send_targets(teacher, config: DistillConfig, n_steps: int, dataset: ToyDataset,
                  schedule: CosineSchedule, seed: int, pipe) -> None:
    """A prefetch child's work: writes each stack's targets to `pipe` as raw
    float64 bytes, in row order, one teacher call and one write per forward
    block of the stack (`nnet._block_edges`). A block has at most 257 rows,
    so its forward runs on this thread alone, and its targets are the
    stack's call's rows, bit for bit. It stops before a target that would
    not read back bit for bit into its block's rows of the stack's array."""
    for cond, _, t, _, z_t, _ in _round_stacks(config, n_steps, dataset, schedule, seed):
        edges = nnet._block_edges(len(t))
        for lo, hi in zip(edges, edges[1:]):
            z0_tilde = teacher_target(teacher, z_t[lo:hi], t[lo:hi], n_steps, cond[lo:hi],
                                      schedule)[0]
            if z0_tilde.dtype != np.float64 or z0_tilde.shape != z_t[lo:hi].shape:
                return
            pipe.write(z0_tilde.tobytes())
            pipe.flush()


def cache_round_targets(teacher, config: DistillConfig, n_steps: int, dataset: ToyDataset,
                        schedule: CosineSchedule, seed: int) -> TeacherTargetCache:
    """The targets of the round of `distill_round` these arguments name.

    Each stack's targets come from one teacher call over its stacked rows,
    the call the round itself would make, so they are its bits.
    """
    z0_tilde = [z0 for _, z0 in _stack_targets(teacher, config, n_steps, dataset, schedule,
                                               seed)]
    return TeacherTargetCache(
        key=(teacher, n_steps, seed, config.batch_size, config.steps_per_round),
        z0_tilde=z0_tilde)


@contextlib.contextmanager
def _round_targets(teacher, config: DistillConfig, n_steps: int, dataset: ToyDataset,
                   schedule: CosineSchedule, seed: int, cached: list[Array] | None):
    """Gives the (stack, z0_tilde) of each stack of the round, its targets
    read from `cached`, from a prefetch child, or computed here (see the
    module docstring). No child outlives the block."""
    if cached is not None:
        yield zip(_round_stacks(config, n_steps, dataset, schedule, seed), cached)
        return
    stacks = -(-config.steps_per_round // _lookahead(config.batch_size))
    pid = pipe = None
    if (hasattr(os, "fork") and nnet._available_cpus() > 1 and nnet._one_blas_thread()
            and stacks >= PREFETCH_MIN_STACKS):
        # A round that cannot fork, at the process limit say, computes its
        # targets itself, as a child only makes it faster.
        with contextlib.suppress(OSError):
            pid, pipe = _fork(partial(_send_targets, teacher, config, n_steps, dataset,
                                      schedule, seed))
    try:
        yield _stack_targets(teacher, config, n_steps, dataset, schedule, seed, pipe)
    finally:
        if pid is not None:
            _kill(pid, pipe)


def distill_round(teacher, student, config: DistillConfig, n_steps: int, dataset: ToyDataset,
                  schedule: CosineSchedule, seed: int,
                  targets: TeacherTargetCache | None = None) -> RoundRecord:
    """Train `student` in place against two-step teacher targets at grid size 1/N.

    The models only need the small surface used here (the test suite
    exercises linear and constant families through the same loop):
    - the teacher is read, through `parameterization` and
      `forward(z, t, cond)` alone;
    - the student is trained, through `parameterization`, which must be
      clean-latent prediction, `flat`, its parameters as one float64
      vector, and `forward_backward(z, t, cond) -> (out, backward)`, where
      `backward(d_out)` returns a flat gradient laid out like `flat`.
    The student must not be the teacher object, whose targets would move
    under its own updates. It trains for exactly `steps_per_round` updates
    of draws from `seed`, the round's seed.

    The round draws its updates in noised stacks and computes each stack's
    targets in one teacher call, or streams them from a prefetch child one
    forward block at a time where that pays (see the module docstring);
    draws and targets do not depend on the student. With `targets`, a cache
    of this round's targets, every stack reads its targets from it instead.
    """
    # At N = 1 an eps teacher would be queried at t = 0.5 for a latent at t = 1.
    if n_steps < 2:
        raise ValueError(f"student steps must be >= 2, got {n_steps}")
    if student is teacher or student.parameterization is not Parameterization.X:
        raise ValueError("the student must predict clean latents and not be the teacher object")
    cached = None if targets is None else targets.read(
        teacher, n_steps, seed, config.batch_size, config.steps_per_round)
    state = AdamState.fresh(student.flat, lr=config.lr)
    batch = config.batch_size

    losses: list[float] = []
    with _round_targets(teacher, config, n_steps, dataset, schedule, seed, cached) as stacks:
        for (cond, _, t, _, z_t, snr), z0_tilde in stacks:
            w = config.strategy.weight(snr)
            for j in range(0, len(t), batch):
                rows = slice(j, j + batch)
                loss, grad, weighted = loss_and_gradients(
                    student, z_t[rows], t[rows], cond[rows], z0_tilde[rows], w[rows])
                if not np.isfinite(loss):
                    bad = j + int(np.argmax(~np.isfinite(weighted)))
                    raise DistillationDivergedError(t=float(t[bad]), weight=float(w[bad]),
                                                    loss=loss)
                adam_step(student.flat, grad, state)
                losses.append(loss)

    return RoundRecord(student_steps=n_steps, student=student, losses=np.asarray(losses))


def progressive_distill(teacher, config: DistillConfig, dataset: ToyDataset,
                        schedule: CosineSchedule, checkpoint_dir: str | Path | None = None,
                        seed: int | None = None, targets: TeacherTargetCache | None = None,
                        ) -> tuple[DenoiserModel, DistillTrace]:
    """Run K halving rounds: round k trains a student at n_start / 2^k steps.

    Each round's student starts as a bit-exact parameter copy of its teacher,
    retagged to predict clean latents; this is the one place a student is
    made. The teacher's effective grid in round k is n_start / 2^(k-1): its two
    half-steps have spacing 1/(that grid). After each round the student is
    promoted to teacher. Each round's record holds its student and the
    loss of every update; when `checkpoint_dir` is given, the student is
    also saved as round_<k>.ckpt as its round ends, and the record names
    that file.
    An exception raised in a round carries the trace of the rounds that
    completed before it as its `distill_trace` attribute.
    `targets`, a cache of this run's round 1 (`cache_round_targets` at
    n_start / 2 steps and `round_seed(seed, 1)`), serves round 1 only.
    """
    # Looked up per call, so a wrapper installed on checkpoint.save_checkpoint
    # (the benchmark's tracer installs one) sees every round's save.
    from .checkpoint import save_checkpoint

    root_seed = config.seed if seed is None else seed
    trace = DistillTrace()
    current = teacher
    try:
        for k in range(1, config.iterations + 1):
            started = time.perf_counter()
            student = replace(current, parameterization=Parameterization.X)
            record = distill_round(current, student, config, config.n_start >> k, dataset,
                                   schedule, round_seed(root_seed, k),
                                   targets=targets if k == 1 else None)
            record.round_index = k
            record.seconds = time.perf_counter() - started
            if checkpoint_dir is not None:
                path = Path(checkpoint_dir) / f"round_{k}.ckpt"
                save_checkpoint(path, record.student, schedule, provenance={
                    "round": k,
                    "steps": record.student_steps,
                    "strategy": config.strategy.name,
                    "seed": root_seed,
                })
                record.checkpoint = str(path)
            trace.rounds.append(record)
            current = record.student
    except Exception as exc:
        exc.distill_trace = trace
        raise
    return current, trace
