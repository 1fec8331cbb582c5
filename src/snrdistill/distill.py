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

The teacher call for the next stack does not yet run on a second thread
while the student trains on this one, although that CPU sits idle during
every student update. The benchmark's tracer keeps one span stack per
process, so a traced call on a second thread could close its spans out of
order (ROADMAP item 1).

Round 1 is also where strategies share work: every strategy distilled from
one teacher with one seed meets the same round-1 targets, because the
weighting only enters the loss; later rounds differ, because their teachers
are the strategies' own students. A `TeacherTargetCache` holds one whole
round's targets for one teacher: one z0_tilde array per stack,
steps_per_round x batch_size x latent_dim doubles in all (123 KB at
30 x 256 x 2, 16 MB at the default 4000 x 256 x 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import ToyDataset, _draw_stacks
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
from .util import child_rng
from .weighting import WeightStrategy, strategy_from_name

Array = np.ndarray

DENOMINATOR_FLOOR = 1e-9
GRID_TOL = 1e-9  # in units of the grid index i = t * N


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


class TeacherTargetCache:
    """Round-1 targets z0_tilde by stack, for one teacher, grid, seed, batch and budget.

    The cache is empty or holds one whole round. A round that meets it empty
    computes its targets and, once it has completed, stores them with its
    (teacher, n_steps, seed, batch_size, steps_per_round) as `key`; a round
    that raises stores nothing. A round that meets it full reads every
    stack's targets from it and never calls the teacher, and `read` rejects
    a round whose key differs.
    The teacher is recorded by identity and must not change in place while
    the cache is in use; the dataset and schedule must stay the same too.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.z0_tilde: list[Array] = []

    def read(self, teacher, n_steps: int, seed: int, batch_size: int,
             steps_per_round: int) -> list[Array] | None:
        """The stored targets of the round these arguments name; None while empty."""
        if self.key is None:
            return None
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
    targets in one teacher call (see the module docstring); draws and
    targets do not depend on the student.
    With `targets` full, every stack reads its targets from it; with
    `targets` empty, the round fills it once it has completed.
    """
    # At N = 1 an eps teacher would be queried at t = 0.5 for a latent at t = 1.
    if n_steps < 2:
        raise ValueError(f"student steps must be >= 2, got {n_steps}")
    if student is teacher or student.parameterization is not Parameterization.X:
        raise ValueError("the student must predict clean latents and not be the teacher object")
    key = (teacher, n_steps, seed, config.batch_size, config.steps_per_round)
    cached = None if targets is None else targets.read(*key)
    rng = child_rng(seed, "distill-round", n_steps)
    state = AdamState.fresh(student.flat, lr=config.lr)
    batch = config.batch_size

    losses: list[float] = []
    round_targets: list[Array] = []
    stacks = _draw_stacks(dataset, schedule, batch, config.steps_per_round, rng,
                          lambda rng, size: rng.integers(1, n_steps + 1, size=size) / n_steps)
    for stack, (cond, _, t, _, z_t, snr) in enumerate(stacks):
        w = config.strategy.weight(snr)
        if cached is None:
            z0_tilde, _ = teacher_target(teacher, z_t, t, n_steps, cond, schedule)
        else:
            z0_tilde = cached[stack]
        if targets is not None:
            round_targets.append(z0_tilde)
        for j in range(0, len(t), batch):
            rows = slice(j, j + batch)
            loss, grad, weighted = loss_and_gradients(
                student, z_t[rows], t[rows], cond[rows], z0_tilde[rows], w[rows])
            if not np.isfinite(loss):
                bad = j + int(np.argmax(~np.isfinite(weighted)))
                raise DistillationDivergedError(t=float(t[bad]), weight=float(w[bad]), loss=loss)
            adam_step(student.flat, grad, state)
            losses.append(loss)

    # A full cache gets back the arrays it held, under the key it held.
    if targets is not None:
        targets.key, targets.z0_tilde = key, round_targets
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
    `targets`, a cache that is empty or holds this run's round 1, serves
    round 1 only.
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
