import copy
import errno
import io
import math
import os
from dataclasses import replace
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest

from snrdistill.data import LOOKAHEAD_ROWS, ToyDataset, _draw_stacks, draw_batch
from snrdistill import distill, nnet, sampler
from snrdistill.config import parse_config
from snrdistill.distill import (
    DistillConfig,
    cache_round_targets,
    distill_round,
    progressive_distill,
    round_seed,
    teacher_target,
)
from snrdistill.errors import DistillationDivergedError
from snrdistill.experiment import build_distill_config
from snrdistill.nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
)
from snrdistill.sampler import SamplerConfig, ddim_step, sample
from snrdistill.schedule import CosineSchedule
from snrdistill.util import child_rng
from snrdistill.weighting import strategy_from_name

SCHEDULE = CosineSchedule()


class AffineModel:
    """Scalar test family x_hat = a * z + b; same training surface as the MLP."""

    latent_dim = 1
    num_classes = 8

    def __init__(self, a, b, parameterization=Parameterization.X):
        self.flat = np.array([a, b], dtype=np.float64)
        self.params = {"a": self.flat[0:1], "b": self.flat[1:2]}
        self.parameterization = parameterization

    def forward(self, z, t, cond):
        z = np.asarray(z, dtype=np.float64)
        return z * self.params["a"] + self.params["b"]

    def forward_backward(self, z, t, cond):
        z = np.asarray(z, dtype=np.float64)

        def backward(d_out):
            # d(a z + b)/da = z and d/db = 1, summed over every element
            return np.array([(d_out * z).sum(), d_out.sum()])

        return self.forward(z, t, cond), backward


def random_teacher(seed=0):
    return DenoiserModel.init(
        latent_dim=2, num_classes=4, hidden=(8,), embed_dim=3,
        num_frequencies=2, parameterization=Parameterization.X, seed=seed,
    )


def student_of(teacher):
    """The student progressive_distill starts a round from: a copy of the
    teacher's parameters that predicts clean latents."""
    return replace(teacher, parameterization=Parameterization.X)


def small_dataset():
    return ToyDataset(num_classes=4, latent_dim=2, radius=1.5, stddev=0.2)


def test_constant_teacher_recovers_x_exactly():
    teacher = AffineModel(0.0, 0.8125)
    rng = np.random.default_rng(0)
    for n in (2, 4, 16, 64):
        i = rng.integers(1, n + 1, size=32)
        t = i / n
        z_t = rng.normal(size=(32, 1))
        z0_tilde, _ = teacher_target(teacher, z_t, t, n, np.zeros(32, dtype=np.int64), SCHEDULE)
        assert np.max(np.abs(z0_tilde - 0.8125)) < 1e-12


def test_target_inverts_one_ddim_step_for_random_teachers():
    rng = np.random.default_rng(1)
    dataset = small_dataset()
    for seed in range(4):
        teacher = random_teacher(seed)
        for n in (4, 8, 32):
            batch = 64
            i = rng.integers(1, n + 1, size=batch)
            t = i / n
            z_t = rng.normal(size=(batch, 2), scale=1.5)
            cond = rng.integers(0, dataset.num_classes, size=batch)
            z0_tilde, z_pp = teacher_target(teacher, z_t, t, n, cond, SCHEDULE)
            t_pp = np.clip(t - 1.0 / n, 0.0, 1.0)
            landed = ddim_step(z_t, z0_tilde, t, t_pp, SCHEDULE)
            assert np.max(np.abs(landed - z_pp)) < 1e-9


def test_scalar_target_matches_longhand_two_step_oracle():
    # N=4, t=1, z_t=1, noise-predicting teacher with eps_hat = 0; both
    # half-steps and the final quotient written out with math.* only.
    class ZeroEps:
        latent_dim = 1
        num_classes = 8
        parameterization = Parameterization.EPSILON

        def forward(self, z, t, cond):
            return np.zeros_like(np.asarray(z, dtype=np.float64))

    n = 4
    z_t = 1.0
    tq = 1.0 - 0.5 / n  # conversion clip for the noise->latent query at t=1

    def alpha(u):
        return math.cos(math.pi * u / 2)

    def sigma(u):
        return math.sin(math.pi * u / 2)

    # first half step: t=1 -> t'=0.875; alpha(1)=0, sigma(1)=1 exactly
    x1 = z_t / alpha(tq)
    z_p = alpha(0.875) * x1 + (sigma(0.875) / 1.0) * (z_t - 0.0 * x1)
    # second half step: t'=0.875 -> t''=0.75 (query time 0.875 needs no clip)
    x2 = z_p / alpha(0.875)
    z_pp = alpha(0.75) * x2 + (sigma(0.75) / sigma(0.875)) * (z_p - alpha(0.875) * x2)
    ratio = sigma(0.75) / 1.0
    expected = (z_pp - ratio * z_t) / (alpha(0.75) - ratio * 0.0)

    z0_tilde, z_pp_got = teacher_target(
        ZeroEps(), np.array([[z_t]]), 1.0, n, 0, SCHEDULE
    )
    assert z_pp_got[0, 0] == pytest.approx(z_pp, abs=1e-12)
    assert z0_tilde[0, 0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n, tol", [(4, 0.0), (8, 0.0), (3, 1e-12)])
def test_target_is_the_first_two_steps_of_the_teachers_own_sampler(monkeypatch, n, tol):
    # From the same noise at t = 1, an x teacher's z_t'' is where its own
    # 2N-step sample stands after two steps. At N = 3 the target's t'' =
    # 1 - 2 (0.5/3) and the sampler's 4/6 differ in the last place.
    teacher = DenoiserModel.init(parameterization=Parameterization.X, seed=5)
    conds = np.random.default_rng(0).integers(0, teacher.num_classes, size=300)
    seed = 11
    z = np.random.default_rng(seed).standard_normal((conds.size, teacher.latent_dim))
    landed = []
    step = sampler.ddim_step

    def recording_step(*args, **kwargs):
        landed.append(step(*args, **kwargs))
        return landed[-1]

    monkeypatch.setattr(sampler, "ddim_step", recording_step)
    sample(teacher, conds, SamplerConfig(steps=2 * n, seed=seed), SCHEDULE)
    assert len(landed) == 2 * n
    _, z_pp = teacher_target(teacher, z, np.ones(conds.size), n, conds, SCHEDULE)
    if tol == 0.0:
        assert np.array_equal(z_pp, landed[1])
    else:
        assert np.max(np.abs(z_pp - landed[1])) <= tol


def test_teacher_target_rejects_off_grid_times():
    teacher = AffineModel(0.0, 1.0)
    with pytest.raises(ValueError):
        teacher_target(teacher, np.ones((1, 1)), 0.1, 4, 0, SCHEDULE)  # below 1/N


@pytest.mark.parametrize("t", [0.3, 0.26, 1.25, float("nan"), [0.25, 0.3], [0.5, float("nan")]])
def test_teacher_target_rejects_times_between_grid_points_and_nan(t):
    teacher = AffineModel(0.0, 1.0)
    z_t = np.ones((np.size(t), 1))
    with pytest.raises(ValueError, match="grid i/4"):
        teacher_target(teacher, z_t, np.asarray(t), 4, np.zeros(np.size(t), dtype=np.int64),
                       SCHEDULE)


def test_teacher_target_accepts_every_grid_time():
    teacher = AffineModel(0.0, 1.0)
    for n in (2, 4, 64, 4096):
        t = np.arange(1, n + 1) / n
        z0_tilde, _ = teacher_target(teacher, np.ones((n, 1)), t, n,
                                     np.zeros(n, dtype=np.int64), SCHEDULE)
        assert z0_tilde.shape == (n, 1)


def test_zero_updates_student_is_bitwise_teacher_copy(monkeypatch):
    # The student progressive_distill makes, as its first update meets it,
    # before any Adam step.
    seen = []
    real = distill.loss_and_gradients

    def first(student, *args):
        if not seen:
            seen.append((student, student.flat.copy()))
        return real(student, *args)

    monkeypatch.setattr(distill, "loss_and_gradients", first)
    teacher = random_teacher(3)
    before = teacher.flat.copy()
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=1, batch_size=4)
    final, _ = progressive_distill(teacher, config, small_dataset(), SCHEDULE, seed=0)
    student, start = seen[0]
    assert student is final
    assert student.parameterization is Parameterization.X
    np.testing.assert_array_equal(start, before)
    # and the copy is independent storage: its update left the teacher alone
    assert not np.array_equal(student.flat, before)
    np.testing.assert_array_equal(teacher.flat, before)


def test_reachable_target_drives_loss_to_zero():
    # constant teacher -> constant target; the affine family contains it
    teacher = AffineModel(0.0, 1.3)
    config = DistillConfig(
        iterations=1, n_start=8, steps_per_round=400, batch_size=64, lr=0.05,
        strategy=strategy_from_name("bsa"),
    )
    result = distill_round(teacher, AffineModel(0.0, 1.3), config, 4, small_dataset(), SCHEDULE,
                           seed=1)
    assert result.final_loss < 1e-10


def weighted_least_squares(z, target, w):
    """Brute-force 2x2 normal equations for target ~ a z + b with weights w."""
    sw = w.sum()
    swz = (w * z).sum()
    swzz = (w * z * z).sum()
    swt = (w * target).sum()
    swzt = (w * z * target).sum()
    mat = np.array([[swzz, swz], [swz, sw]])
    rhs = np.array([swzt, swt])
    return np.linalg.solve(mat, rhs)


class BareTeacher:
    """The constant clean-latent predictor x_hat = value, with no attribute
    but `parameterization` and `forward`. It appends the name of every
    attribute read from it to `reads`."""

    def __init__(self, value, reads):
        self._state = value, reads

    def __getattribute__(self, name):
        value, reads = object.__getattribute__(self, "_state")
        reads.append(name)
        if name == "parameterization":
            return Parameterization.X
        if name == "forward":
            return lambda z, t, cond: np.full(np.shape(z), value)
        raise AttributeError(name)


def test_affine_round_matches_normal_equations(monkeypatch):
    # one round over the affine family reduces to weighted least squares on
    # the sampled (z_t, target, weight) triples; the trained (a, b) must land
    # on the brute-force normal-equations solution. The student starts far
    # off, so the round has genuine optimization work, and the round reads
    # its teacher only through `parameterization` and `forward`. The reads
    # are recorded in this process, so the round makes them here, on one CPU.
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    reads = []
    teacher, student = BareTeacher(1.3, reads), AffineModel(0.6, -0.4)
    config = DistillConfig(
        iterations=1, n_start=8, steps_per_round=2000, batch_size=512, lr=2e-2,
        strategy=strategy_from_name("bsa"),
    )
    result = distill_round(teacher, student, config, 4, _OneDimDataset(), SCHEDULE, seed=5)
    assert set(reads) == {"parameterization", "forward"}
    assert result.student is student
    assert result.updates_run == config.steps_per_round

    # The round's (z_t, target, weight) draws, replayed from its rng.
    stacks = list(_draw_stacks(_OneDimDataset(), SCHEDULE, config.batch_size,
                               config.steps_per_round, child_rng(5, "distill-round", 4),
                               lambda rng, size: rng.integers(1, 5, size=size) / 4))
    z = np.concatenate([z_t[:, 0] for *_, z_t, _ in stacks])
    assert len(z) == config.steps_per_round * config.batch_size
    target = np.concatenate([teacher_target(teacher, z_t, t, 4, cond, SCHEDULE)[0][:, 0]
                             for cond, _, t, _, z_t, _ in stacks])
    w = np.concatenate([config.strategy.weight(snr) for *_, snr in stacks])
    a_star, b_star = weighted_least_squares(z, target, w)

    a_hat = result.student.params["a"][0]
    b_hat = result.student.params["b"][0]
    assert abs(a_hat - a_star) < 1e-3
    assert abs(b_hat - b_star) < 1e-3
    # the constant target makes the optimum explicit as well
    assert abs(a_star) < 1e-9 and abs(b_star - 1.3) < 1e-9


class _OneDimDataset:
    """Minimal stand-in with latent_dim 1 for the affine-family tests."""

    num_classes = 2
    latent_dim = 1
    centers = np.array([[1.0], [-1.0]])
    stddev = 0.3


def test_log_records_apply_weights_bit_for_bit(monkeypatch):
    # Every update's loss weighs its rows by the strategy's weight of the
    # schedule's snr at their grid times.
    calls = []
    real = distill.loss_and_gradients

    def capturing(model, z, t, cond, target, w):
        diff = model.forward(z, t, cond) - target  # before the update moves the model
        out = real(model, z, t, cond, target, w)
        calls.append((t, w, diff, out))
        return out

    monkeypatch.setattr(distill, "loss_and_gradients", capturing)
    teacher = random_teacher(7)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=5, batch_size=16)
    result = distill_round(teacher, student_of(teacher), config, 4, small_dataset(), SCHEDULE,
                           seed=2)
    assert len(calls) == 5
    for (t, w, diff, (loss, _, weighted)), recorded in zip(calls, result.losses):
        assert np.array_equal(w, config.strategy.weight(SCHEDULE.snr(t)))
        np.testing.assert_array_equal(weighted, (diff * diff).sum(axis=1) * w)
        assert loss == np.mean(weighted) == recorded


def test_a_flat_loss_runs_the_whole_budget(monkeypatch):
    # A loss that never improves still runs every one of the round's updates.
    real = distill.loss_and_gradients

    def flat(*args):
        _, grads, weighted = real(*args)
        return 0.5, np.zeros_like(grads), weighted

    monkeypatch.setattr(distill, "loss_and_gradients", flat)
    teacher = AffineModel(0.3, -0.2)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=600, batch_size=8)
    result = distill_round(teacher, AffineModel(0.3, -0.2), config, 4, _OneDimDataset(),
                           SCHEDULE, seed=6)
    assert result.updates_run == len(result.losses) == 600
    assert np.all(result.losses == 0.5)
    for k in teacher.params:
        np.testing.assert_array_equal(result.student.params[k], teacher.params[k])


def test_round_losses_are_seed_deterministic():
    teacher = random_teacher(9)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=20, batch_size=16)
    a, b = (distill_round(teacher, student_of(teacher), config, 4, small_dataset(), SCHEDULE,
                          seed=11) for _ in range(2))
    np.testing.assert_array_equal(a.losses, b.losses)
    for k in a.student.params:
        np.testing.assert_array_equal(a.student.params[k], b.student.params[k])


def test_non_finite_loss_aborts_with_diagnostics():
    teacher = random_teacher(4)
    teacher.params["b1"][0] = np.nan
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=3, batch_size=8)
    with pytest.raises(DistillationDivergedError) as err:
        distill_round(teacher, student_of(teacher), config, 4, small_dataset(), SCHEDULE, seed=3)
    assert 0.0 < err.value.t <= 1.0
    assert np.isnan(err.value.loss) or np.isinf(err.value.loss)


@pytest.mark.parametrize("name", ["steps_per_round", "batch_size"])
def test_a_round_of_no_updates_or_no_rows_is_rejected(name):
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {bad}"):
            DistillConfig(**{name: bad})
    assert getattr(DistillConfig(**{name: 1}), name) == 1


def test_round_step_count_validation():
    teacher = random_teacher(0)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=1)
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            distill_round(teacher, student_of(teacher), config, bad, small_dataset(), SCHEDULE,
                          seed=0)


@pytest.mark.parametrize("which", ["teacher", "epsilon"])
def test_a_round_rejects_the_teacher_or_a_noise_predicting_student_before_drawing(
        monkeypatch, which):
    monkeypatch.setattr(distill, "_draw_stacks", None)  # any draw would raise TypeError
    teacher = random_teacher(0)
    calls = counting_forward(monkeypatch, teacher)
    student = teacher if which == "teacher" else replace(
        teacher, parameterization=Parameterization.EPSILON)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=1)
    with pytest.raises(ValueError, match="must predict clean latents and not be the teacher"):
        distill_round(teacher, student, config, 4, small_dataset(), SCHEDULE, seed=0)
    assert calls == []


def test_config_requires_divisible_n_start():
    with pytest.raises(ValueError):
        DistillConfig(iterations=3, n_start=100)  # 100 % 8 != 0
    with pytest.raises(ValueError):
        DistillConfig(iterations=0)
    # the last student, at n_start >> iterations steps, must have >= 2 steps
    with pytest.raises(ValueError, match=">= 2"):
        DistillConfig(iterations=3, n_start=8)
    assert DistillConfig(iterations=2, n_start=8).n_start == 8
    # but it may have an odd number of them: 12 -> 6 -> 3, 200 -> 100 -> 50 -> 25
    assert DistillConfig(iterations=2, n_start=12).n_start == 12
    assert DistillConfig(iterations=3, n_start=200).n_start == 200


def test_progressive_trace_halves_steps_exactly():
    teacher = random_teacher(5)
    config = DistillConfig(iterations=3, n_start=64, steps_per_round=2, batch_size=8)
    final, trace = progressive_distill(teacher, config, small_dataset(), SCHEDULE, seed=1)
    assert [r.teacher_steps for r in trace.rounds] == [64, 32, 16]
    assert [r.student_steps for r in trace.rounds] == [32, 16, 8]
    assert [r.round_index for r in trace.rounds] == [1, 2, 3]
    for r in trace.rounds:
        assert r.teacher_steps == config.n_start >> (r.round_index - 1)
        assert r.student_steps * 2 == r.teacher_steps
    assert final.parameterization is Parameterization.X


def test_every_round_record_keeps_its_loss_curve_and_derives_its_counts():
    config = DistillConfig(iterations=3, n_start=24, steps_per_round=7, batch_size=8)
    _, trace = progressive_distill(random_teacher(3), config, small_dataset(), SCHEDULE, seed=2)
    assert len(trace.rounds) == 3
    for r in trace.rounds:
        assert r.updates_run == len(r.losses) == config.steps_per_round
        assert r.final_loss == r.losses[-1]
        assert r.teacher_steps == 2 * r.student_steps
        assert r.seconds >= 0.0
    # A round on its own is the same record, before progressive_distill
    # numbers and times it.
    teacher = random_teacher(3)
    alone = distill_round(teacher, student_of(teacher), config, 12, small_dataset(), SCHEDULE,
                          seed=round_seed(2, 1))
    np.testing.assert_array_equal(alone.losses, trace.rounds[0].losses)
    assert (alone.round_index, alone.seconds, alone.checkpoint) == (None, None, None)


def test_progressive_single_iteration_equals_one_round():
    teacher = random_teacher(6)
    config = DistillConfig(iterations=1, n_start=16, steps_per_round=15, batch_size=8)
    final, trace = progressive_distill(teacher, config, small_dataset(), SCHEDULE, seed=21)
    round_seed = int(child_rng(21, "round", 1).integers(0, 2**31 - 1))
    manual = distill_round(teacher, student_of(teacher), config, 8, small_dataset(), SCHEDULE,
                           seed=round_seed)
    for k in final.params:
        np.testing.assert_array_equal(final.params[k], manual.student.params[k])
    assert trace.rounds[0].final_loss == manual.final_loss


def test_progressive_distills_to_an_odd_step_count(tmp_path):
    from snrdistill.checkpoint import load_checkpoint

    config = DistillConfig(iterations=2, n_start=12, steps_per_round=3, batch_size=8)
    _, trace = progressive_distill(random_teacher(10), config, small_dataset(), SCHEDULE,
                                   checkpoint_dir=tmp_path, seed=3)
    assert [r.student_steps for r in trace.rounds] == [6, 3]
    assert [load_checkpoint(tmp_path / f"round_{k}.ckpt")[2]["steps"]
            for k in (1, 2)] == ["6", "3"]


def test_progressive_writes_round_checkpoints(tmp_path):
    from snrdistill.checkpoint import load_checkpoint

    teacher = random_teacher(8)
    config = DistillConfig(iterations=2, n_start=16, steps_per_round=3, batch_size=8)
    final, trace = progressive_distill(teacher, config, small_dataset(), SCHEDULE,
                                       checkpoint_dir=tmp_path, seed=2)
    assert (tmp_path / "round_1.ckpt").exists()
    assert (tmp_path / "round_2.ckpt").exists()
    assert trace.rounds[-1].student is final
    for record in trace.rounds:
        loaded, _, provenance = load_checkpoint(record.checkpoint)
        assert provenance["round"] == str(record.round_index)
        assert provenance["steps"] == str(record.student_steps)
        for k in record.student.params:
            np.testing.assert_array_equal(loaded.params[k], record.student.params[k])


def test_a_failed_round_leaves_the_earlier_round_checkpoints(tmp_path, monkeypatch):
    real = distill.distill_round
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DistillationDivergedError(t=0.5, weight=1.0, loss=float("nan"))
        return real(*args, **kwargs)

    monkeypatch.setattr(distill, "distill_round", failing_second)
    config = DistillConfig(iterations=2, n_start=16, steps_per_round=3, batch_size=8)
    with pytest.raises(DistillationDivergedError):
        progressive_distill(random_teacher(8), config, small_dataset(), SCHEDULE,
                            checkpoint_dir=tmp_path, seed=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["round_1.ckpt"]


def _strategy_config(name, **overrides):
    kw = dict(iterations=3, n_start=16, steps_per_round=6, batch_size=8)
    kw.update(overrides)
    return DistillConfig(strategy=strategy_from_name(name, 5.0), **kw)


def _distill_strategies(tmp_path, tag, teacher, configs, targets):
    """Checkpoint bytes and traces of one progressive run per config."""
    out = []
    for j, config in enumerate(configs):
        ckpt_dir = tmp_path / f"{tag}-{j}"
        ckpt_dir.mkdir()
        _, trace = progressive_distill(teacher, config, small_dataset(), SCHEDULE,
                                       checkpoint_dir=ckpt_dir, seed=4, targets=targets)
        out.append(([Path(r.checkpoint).read_bytes() for r in trace.rounds], trace))
    return out


def stack_rows(cache):
    """The row count of each stack's targets in a cache."""
    return [len(z0_tilde) for z0_tilde in cache.z0_tilde]


def round_one_cache(teacher, config, seed):
    """The cache of round 1 of a progressive run of `config` with root seed `seed`."""
    return cache_round_targets(teacher, config, config.n_start >> 1, small_dataset(), SCHEDULE,
                               round_seed(seed, 1))


def _assert_cache_changes_nothing(tmp_path, teacher, configs):
    cache = round_one_cache(teacher, configs[0], 4)
    # The cache is keyed by round 1's grid, seed, batch and budget.
    assert cache.key[0] is teacher
    assert cache.key[1:] == (configs[0].n_start >> 1, round_seed(4, 1), configs[0].batch_size,
                             configs[0].steps_per_round)
    shared = _distill_strategies(tmp_path, "shared", teacher, configs, cache)
    alone = _distill_strategies(tmp_path, "alone", teacher, configs, None)
    for (shared_bytes, shared_trace), (alone_bytes, alone_trace) in zip(shared, alone):
        assert len(shared_bytes) == configs[0].iterations
        assert shared_bytes == alone_bytes
        assert ([r.final_loss for r in shared_trace.rounds]
                == [r.final_loss for r in alone_trace.rounds])
    # 6 updates of 8 rows fill one stack.
    assert stack_rows(cache) == [configs[0].steps_per_round * configs[0].batch_size]
    return [trace.rounds[0].updates_run for _, trace in shared]


def test_shared_target_cache_leaves_every_round_checkpoint_bit_identical(tmp_path):
    configs = [_strategy_config(name) for name in ("trunc-snr", "min-snr", "bsa")]
    round1 = _assert_cache_changes_nothing(tmp_path, random_teacher(4), configs)
    assert round1 == [6, 6, 6]


def test_cached_updates_skip_the_teacher(monkeypatch):
    calls = []
    real = distill.teacher_target

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(distill, "teacher_target", counting)
    teacher = random_teacher(2)
    config = _strategy_config("bsa", iterations=1)
    cache = round_one_cache(teacher, config, 5)
    # The round's 6 updates fit one look-ahead chunk: one stacked call.
    assert len(calls) == 1
    for name in ("bsa", "min-snr"):
        progressive_distill(teacher, _strategy_config(name, iterations=1), small_dataset(),
                            SCHEDULE, seed=5, targets=cache)
    assert len(calls) == 1


def test_target_cache_rejects_another_teacher_seed_grid_or_batch():
    teacher = random_teacher(6)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=2, batch_size=8)
    cache = cache_round_targets(teacher, config, 4, small_dataset(), SCHEDULE, seed=9)
    assert cache.key == (teacher, 4, 9, 8, 2)
    assert stack_rows(cache) == [2 * 8]
    # The same teacher, grid, seed, batch and budget read the cache back.
    distill_round(teacher, student_of(teacher), config, 4, small_dataset(), SCHEDULE, seed=9,
                  targets=cache)
    same_params = copy.deepcopy(teacher)
    for other_teacher, n_steps, seed, batch, steps in [
        (same_params, 4, 9, 8, 2),
        (random_teacher(7), 4, 9, 8, 2),
        (teacher, 4, 10, 8, 2),
        (teacher, 2, 9, 8, 2),
        (teacher, 4, 9, 16, 2),
        (teacher, 4, 9, 8, 3),  # a longer round would read past the cache's end
    ]:
        other = DistillConfig(iterations=1, n_start=8, steps_per_round=steps, batch_size=batch)
        with pytest.raises(ValueError, match="target cache"):
            distill_round(other_teacher, student_of(other_teacher), other, n_steps,
                          small_dataset(), SCHEDULE, seed=seed, targets=cache)
    assert cache.key == (teacher, 4, 9, 8, 2)
    assert stack_rows(cache) == [2 * 8]
    # progressive_distill seeds round 1 from its own seed, not the cache's
    with pytest.raises(ValueError, match="target cache"):
        progressive_distill(teacher, _strategy_config("bsa", iterations=1, n_start=8,
                                                      batch_size=8),
                            small_dataset(), SCHEDULE, seed=9, targets=cache)


def test_rounds_after_the_first_never_see_the_cache(monkeypatch):
    seen = []
    real = distill.distill_round

    def recording(*args, targets=None, **kwargs):
        seen.append(targets)
        return real(*args, targets=targets, **kwargs)

    monkeypatch.setattr(distill, "distill_round", recording)
    teacher = random_teacher(3)
    config = _strategy_config("bsa")
    cache = round_one_cache(teacher, config, 8)
    progressive_distill(teacher, config, small_dataset(), SCHEDULE, seed=8, targets=cache)
    assert seen == [cache, None, None]
    assert stack_rows(cache) == [6 * 8]


def reference_round(teacher, config, n_steps, dataset, seed):
    """distill_round one update at a time: draw, teacher target, Adam step.

    Returns (student, losses, targets): the per-update loop the look-ahead
    chunks replace, with one teacher call per update.
    """
    student = student_of(teacher)
    rng = child_rng(seed, "distill-round", n_steps)
    state = AdamState.fresh(student.flat, lr=config.lr)
    losses, targets = [], []
    for _ in range(config.steps_per_round):
        cond, z0 = draw_batch(dataset, config.batch_size, rng)
        i = rng.integers(1, n_steps + 1, size=config.batch_size)
        t = i / n_steps
        eps = rng.standard_normal(z0.shape)
        alpha, sigma = SCHEDULE.alpha_sigma(t)
        z_t = alpha[:, None] * z0 + sigma[:, None] * eps
        z0_tilde, _ = teacher_target(teacher, z_t, t, n_steps, cond, SCHEDULE)
        targets.append(z0_tilde)
        w = config.strategy.weight(SCHEDULE.snr(t))
        loss, grad, *_ = loss_and_gradients(student, z_t, t, cond, z0_tilde, w)
        adam_step(student.flat, grad, state)
        losses.append(loss)
    return student, np.asarray(losses), targets


def counting_forward(monkeypatch, model):
    """Counts the calls of `model.forward`; returns the list of their row counts."""
    calls = []
    real = model.forward

    def forward(z, t, cond):
        calls.append(len(z))
        return real(z, t, cond)

    monkeypatch.setattr(model, "forward", forward)
    return calls


def assert_round_matches_reference(result, reference):
    student, losses, _ = reference
    assert result.updates_run == len(losses)
    assert np.array_equal(result.losses, losses)
    for k in student.params:
        assert np.array_equal(result.student.params[k], student.params[k])


def lookahead(batch_size):
    return max(1, LOOKAHEAD_ROWS // batch_size)


def _lookahead_cases():
    k = lookahead(256)
    cases = [(256, steps) for steps in (1, k - 1, k, k + 1, 2 * k + 3)]
    return cases + [(5000, 3)]


def chunk_rows(batch, steps):
    """The rows of each look-ahead chunk of a round, in order."""
    k = lookahead(batch)
    return [batch * min(k, steps - first) for first in range(0, steps, k)]


# Batches of 256 fill whole forward blocks, and a 5000-row update is a chunk
# of its own, so every update's targets are those of a call of its own.
@pytest.mark.parametrize("batch, steps", _lookahead_cases())
def test_lookahead_round_equals_the_per_update_loop(monkeypatch, batch, steps):
    assert lookahead(5000) == 1
    teacher = DenoiserModel.init(seed=13)
    config = DistillConfig(iterations=1, n_start=16, steps_per_round=steps, batch_size=batch,
                           strategy=strategy_from_name("bsa"))
    dataset = ToyDataset()
    reference = reference_round(teacher, config, 8, dataset, seed=21)
    # The calls are counted in this process, so the round makes them here.
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    calls = counting_forward(monkeypatch, teacher)
    result = distill_round(teacher, student_of(teacher), config, 8, dataset, SCHEDULE, seed=21)
    assert_round_matches_reference(result, reference)
    # Two half-steps per chunk, each over the chunk's stacked rows.
    assert calls == [rows for rows in chunk_rows(batch, steps) for _ in range(2)]


# At batch 100 a forward block holds the rows of up to four updates, so the
# targets need not equal per-update calls; they must not depend on the
# number of threads the teacher's forward runs on.
def test_a_round_of_unaligned_batches_is_the_same_on_one_thread_and_three(monkeypatch):
    teacher = DenoiserModel.init(seed=13)
    config = DistillConfig(iterations=1, n_start=16, steps_per_round=lookahead(100) + 1,
                           batch_size=100, strategy=strategy_from_name("bsa"))
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(nnet, "_available_cpus", lambda: workers)
        calls = counting_forward(monkeypatch, teacher)
        cache = cache_round_targets(teacher, config, 8, ToyDataset(), SCHEDULE, seed=21)
        results.append((distill_round(teacher, student_of(teacher), config, 8, ToyDataset(),
                                      SCHEDULE, seed=21), cache.z0_tilde))
        # The cache's teacher calls, then the round's own.
        assert calls == [4000, 4000, 100, 100] * 2
    (one, one_targets), (three, three_targets) = results
    assert np.array_equal(one.losses, three.losses)
    assert np.array_equal(one.student.flat, three.student.flat)
    for a, b in zip(one_targets, three_targets, strict=True):
        assert np.array_equal(a, b)


def test_lookahead_cache_is_filled_once_then_read_across_strategies(monkeypatch):
    # K = 16, so the first strategy's 40 updates take 3 stacks, with two
    # teacher forwards each. The next two read all 3 stacks' targets back and
    # never call the teacher.
    teacher = DenoiserModel.init(seed=15)
    dataset = ToyDataset()
    configs = [DistillConfig(iterations=1, n_start=16, steps_per_round=40, batch_size=256,
                             strategy=strategy_from_name(name))
               for name in ("trunc-snr", "min-snr", "bsa")]
    references = [reference_round(teacher, config, 8, dataset, seed=23) for config in configs]
    calls = counting_forward(monkeypatch, teacher)
    cache = cache_round_targets(teacher, configs[0], 8, dataset, SCHEDULE, seed=23)
    assert len(calls) == 6
    for config, reference in zip(configs, references):
        result = distill_round(teacher, student_of(teacher), config, 8, dataset, SCHEDULE,
                               seed=23, targets=cache)
        assert result.updates_run == 40
        assert_round_matches_reference(result, reference)
        assert len(calls) == 6
    assert stack_rows(cache) == chunk_rows(256, 40) == [4096, 4096, 2048]
    assert np.array_equal(np.concatenate(cache.z0_tilde), np.concatenate(references[0][2]))


@pytest.mark.parametrize("batch, steps", [(256, 2 * lookahead(256) + 3), (5000, 3)])
def test_cached_targets_are_the_per_update_loop_targets(batch, steps):
    teacher = DenoiserModel.init(seed=13)
    config = DistillConfig(iterations=1, n_start=16, steps_per_round=steps, batch_size=batch)
    dataset = ToyDataset()
    _, _, targets = reference_round(teacher, config, 8, dataset, seed=21)
    cache = cache_round_targets(teacher, config, 8, dataset, SCHEDULE, seed=21)
    assert cache.key == (teacher, 8, 21, batch, steps)
    assert stack_rows(cache) == chunk_rows(batch, steps)
    assert np.array_equal(np.concatenate(cache.z0_tilde), np.concatenate(targets))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def counting_forks(monkeypatch):
    """Counts the forks this process makes; returns the list of child pids."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def on_cpus(monkeypatch, cpus):
    """The process may run on `cpus` CPUs, and its BLAS on one thread."""
    monkeypatch.setattr(nnet, "_available_cpus", lambda: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def three_stack_config(batch=256, iterations=1):
    return DistillConfig(iterations=iterations, n_start=16,
                         steps_per_round=2 * lookahead(batch) + 3, batch_size=batch,
                         strategy=strategy_from_name("bsa"))


# On 2 CPUs a round of 3 stacks computes its targets in a forked child, and
# on 1 CPU in the round's own process; every bit is the same. At batch 100
# a forward block holds the rows of several updates.
@needs_fork
@pytest.mark.parametrize("batch", [256, 100])
def test_a_prefetched_round_is_the_inline_round_bit_for_bit(monkeypatch, batch):
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config(batch)
    assert len(chunk_rows(batch, config.steps_per_round)) == distill.PREFETCH_MIN_STACKS == 3
    rounds = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        forks = counting_forks(monkeypatch)
        rounds[cpus] = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(),
                                     SCHEDULE, seed=21)
        assert len(forks) == cpus - 1
    assert rounds[2].updates_run == config.steps_per_round
    assert np.array_equal(rounds[1].losses, rounds[2].losses)
    assert np.array_equal(rounds[1].student.flat, rounds[2].student.flat)
    assert_no_child()


def block_edges(rows):
    """The (lo, hi) of each forward block of a call over `rows` rows."""
    return list(pairwise(nnet._block_edges(rows)))


class RecordingWriter(io.BytesIO):
    """An in-memory pipe that keeps the bytes of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


def sent_targets(teacher, config, seed):
    """The writes of a prefetch child's work, run in this process."""
    pipe = RecordingWriter()
    distill._send_targets(teacher, config, 4, ToyDataset(), SCHEDULE, seed, pipe)
    return pipe.writes


# The child sends each forward block's targets as soon as it has them. At
# batch 100 a block ends inside an update: [0, 256) ends in the third.
@pytest.mark.parametrize("batch", [256, 100])
def test_the_child_writes_once_per_forward_block(monkeypatch, batch):
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config(batch)
    calls = counting_forward(monkeypatch, teacher)
    writes = sent_targets(teacher, config, seed=21)
    blocks = [hi - lo for rows in chunk_rows(batch, config.steps_per_round)
              for lo, hi in block_edges(rows)]
    row_bytes = teacher.latent_dim * 8
    assert [len(data) // row_bytes for data in writes] == blocks
    # Stacks of 4096, 4096 and 768 rows at batch 256; of 4000, 4000 and 300
    # at batch 100, whose last blocks have 160 and 44 rows.
    assert len(writes) == (16 + 16 + 3 if batch == 256 else 16 + 16 + 2)
    # Two half-steps per block, each one block, so no forward leaves the
    # child's own thread.
    assert calls == [rows for rows in blocks for _ in range(2)]
    assert max(calls) <= nnet.FORWARD_BLOCK_ROWS + 1


@pytest.mark.parametrize("parameterization", list(Parameterization))
@pytest.mark.parametrize("batch", [256, 100])
def test_the_childs_blocks_are_the_cached_targets_bit_for_bit(monkeypatch, batch,
                                                              parameterization):
    teacher = DenoiserModel.init(seed=13, parameterization=parameterization)
    config = three_stack_config(batch)
    # The cache's whole-stack calls deal their blocks to two threads.
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    cache = cache_round_targets(teacher, config, 4, ToyDataset(), SCHEDULE, seed=21)
    assert sent_targets(teacher, config, seed=21) == [
        z0_tilde[lo:hi].tobytes() for z0_tilde in cache.z0_tilde
        for lo, hi in block_edges(len(z0_tilde))]


class RecordingReader:
    """A pipe's read end that records how far into the stream the reads
    it is asked for reach."""

    def __init__(self, pipe):
        self.pipe = pipe
        self.read = 0
        self.reach = 0

    def readinto(self, view):
        self.reach = max(self.reach, self.read + len(view))
        n = self.pipe.readinto(view)
        self.read += n
        return n

    def close(self):
        self.pipe.close()


# Before each update the round has asked the child for the rows up to the
# end of that update, and for not one byte more.
@needs_fork
@pytest.mark.parametrize("batch", [256, 100])
def test_a_round_reads_no_byte_past_the_update_it_trains(monkeypatch, batch):
    on_cpus(monkeypatch, 2)
    readers = []
    real_fork = distill._fork

    def recording_fork(work):
        pid, pipe = real_fork(work)
        readers.append(RecordingReader(pipe))
        return pid, readers[-1]

    reach = []
    real_loss = distill.loss_and_gradients

    def recording_loss(*args):
        reach.append(readers[0].reach)
        return real_loss(*args)

    monkeypatch.setattr(distill, "_fork", recording_fork)
    monkeypatch.setattr(distill, "loss_and_gradients", recording_loss)
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config(batch)
    result = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE,
                           seed=21)
    assert len(readers) == 1 and result.updates_run == config.steps_per_round
    row_bytes = teacher.latent_dim * 8
    assert reach == [(u + 1) * batch * row_bytes for u in range(config.steps_per_round)]
    assert readers[0].read == reach[-1]
    assert_no_child()


@needs_fork
def test_no_round_forks_with_a_cache_blas_threads_or_under_three_stacks(monkeypatch):
    on_cpus(monkeypatch, 2)
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config()
    cache = cache_round_targets(teacher, config, 4, ToyDataset(), SCHEDULE, seed=21)
    forks = counting_forks(monkeypatch)
    distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE, seed=21,
                  targets=cache)
    # OpenBLAS's own threads keep the second CPU busy.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE, seed=21)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # bench/experiment.cfg's 30 updates of 256 rows make 2 stacks a round.
    path = Path(__file__).resolve().parents[1] / "bench" / "experiment.cfg"
    cfg = parse_config(path.read_text(encoding="utf-8"))
    dconfig = build_distill_config(cfg, "bsa", 1)
    assert len(chunk_rows(dconfig.batch_size, dconfig.steps_per_round)) == 2
    _, trace = progressive_distill(teacher, dconfig, cfg.dataset, cfg.schedule, seed=1)
    assert len(trace.rounds) == 3
    assert forks == []


def fail_forward_on(monkeypatch, stacks):
    """Makes `DenoiserModel.forward` raise, in every process, when it is
    given the z_t rows of one of `stacks`."""
    first_rows = {z_t[:1].tobytes() for *_, z_t, _ in stacks}
    real = DenoiserModel.forward

    def forward(model, z, t, cond):
        if np.asarray(z)[:1].tobytes() in first_rows:
            raise RuntimeError(f"no targets for the {len(z)} rows from {z[0]}")
        return real(model, z, t, cond)

    monkeypatch.setattr(DenoiserModel, "forward", forward)


@needs_fork
def test_a_teacher_failing_in_the_child_fails_the_round_as_inline(monkeypatch):
    # Round 2's teacher raises from its third stack on: the child stops
    # there, and the round computes that stack itself and raises.
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config(iterations=2)
    stacks = list(distill._round_stacks(config, 4, ToyDataset(), SCHEDULE, round_seed(5, 2)))
    fail_forward_on(monkeypatch, stacks[2:])
    failures = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        forks = counting_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="no targets for the") as err:
            progressive_distill(teacher, config, ToyDataset(), SCHEDULE, seed=5)
        assert len(forks) == 2 * (cpus - 1)
        failures[cpus] = err.value
    one, two = failures[1], failures[2]
    assert type(one) is type(two) and str(one) == str(two)
    assert [r.student_steps for r in two.distill_trace.rounds] == [8]
    for a, b in zip(one.distill_trace.rounds, two.distill_trace.rounds, strict=True):
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.student.flat, b.student.flat)
    assert_no_child()


@needs_fork
def test_a_child_that_dies_mid_stack_leaves_the_round_unchanged(monkeypatch):
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config()
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    inline = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE,
                           seed=21)
    blocks = [len(block_edges(rows)) for rows in chunk_rows(256, config.steps_per_round)]
    assert blocks == [16, 16, 3]
    parent = os.getpid()
    real = distill.teacher_target
    in_child, here = [], []

    def exit_in_stack_one(teacher, z_t, *args):
        if os.getpid() != parent:
            if len(in_child) == blocks[0] + 3:
                os._exit(3)
            in_child.append(len(z_t))
        else:
            here.append(len(z_t))
        return real(teacher, z_t, *args)

    monkeypatch.setattr(distill, "teacher_target", exit_in_stack_one)
    on_cpus(monkeypatch, 2)
    forks = counting_forks(monkeypatch)
    result = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE,
                           seed=21)
    assert len(forks) == 1
    # The child sent stack 0 and three blocks of stack 1. The round trained
    # on them, then computed stacks 1 and 2 itself, one call each; stack 1's
    # call rewrote the rows the child had sent with the same bits.
    assert here == chunk_rows(256, config.steps_per_round)[1:] == [4096, 768]
    assert np.array_equal(result.losses, inline.losses)
    assert np.array_equal(result.student.flat, inline.student.flat)
    assert_no_child()


@needs_fork
def test_a_round_that_cannot_fork_computes_its_targets_itself(monkeypatch):
    teacher = DenoiserModel.init(seed=13)
    config = three_stack_config()
    on_cpus(monkeypatch, 1)
    inline = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE,
                           seed=21)
    tried = []

    def no_process():
        tried.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_process)
    on_cpus(monkeypatch, 2)
    result = distill_round(teacher, student_of(teacher), config, 4, ToyDataset(), SCHEDULE,
                           seed=21)
    assert tried == [1]
    assert np.array_equal(result.losses, inline.losses)
    assert np.array_equal(result.student.flat, inline.student.flat)


@needs_fork
def test_a_round_that_diverges_leaves_no_child(monkeypatch):
    real = distill.loss_and_gradients
    calls = []

    def nan_at_update_20(*args):
        loss, grad, weighted = real(*args)
        calls.append(1)
        if len(calls) == 20:
            return np.nan, grad, np.full_like(weighted, np.nan)
        return loss, grad, weighted

    monkeypatch.setattr(distill, "loss_and_gradients", nan_at_update_20)
    on_cpus(monkeypatch, 2)
    forks = counting_forks(monkeypatch)
    teacher = DenoiserModel.init(seed=13)
    with pytest.raises(DistillationDivergedError):
        distill_round(teacher, student_of(teacher), three_stack_config(), 4, ToyDataset(),
                      SCHEDULE, seed=21)
    assert len(forks) == 1 and len(calls) == 20
    assert_no_child()
