import copy
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snrdistill.data import LOOKAHEAD_ROWS, ToyDataset, _draw_stacks, draw_batch
from snrdistill import distill, nnet, sampler
from snrdistill.distill import (
    DistillConfig,
    TeacherTargetCache,
    distill_round,
    progressive_distill,
    round_seed,
    teacher_target,
)
from snrdistill.errors import DistillationDivergedError
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


def test_affine_round_matches_normal_equations():
    # one round over the affine family reduces to weighted least squares on
    # the sampled (z_t, target, weight) triples; the trained (a, b) must land
    # on the brute-force normal-equations solution. The student starts far
    # off, so the round has genuine optimization work, and the round reads
    # its teacher only through `parameterization` and `forward`.
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


def _assert_cache_changes_nothing(tmp_path, teacher, configs):
    cache = TeacherTargetCache()
    shared = _distill_strategies(tmp_path, "shared", teacher, configs, cache)
    # progressive_distill keys the cache by round 1's grid, seed, batch and budget.
    assert cache.key[0] is teacher
    assert cache.key[1:] == (configs[0].n_start >> 1, round_seed(4, 1), configs[0].batch_size,
                             configs[0].steps_per_round)
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


def test_a_round_that_diverges_leaves_the_cache_empty(tmp_path, monkeypatch):
    # trunc-snr's round 1 diverges at its 4th of 6 updates, after the teacher
    # has computed all 6 targets. min-snr, next, must fill the cache itself
    # and write the bytes it writes without one.
    real = distill.loss_and_gradients
    calls = []

    def diverging(*args):
        loss, grads, weighted = real(*args)
        calls.append(loss)
        if len(calls) == 4:
            return float("nan"), grads, np.full_like(weighted, np.nan)
        return loss, grads, weighted

    monkeypatch.setattr(distill, "loss_and_gradients", diverging)
    teacher = random_teacher(1)
    cache = TeacherTargetCache()
    with pytest.raises(DistillationDivergedError):
        _distill_strategies(tmp_path, "diverged", teacher, [_strategy_config("trunc-snr")], cache)
    assert len(calls) == 4
    assert cache.key is None and cache.z0_tilde == []
    configs = [_strategy_config("min-snr")]
    [(shared, _)] = _distill_strategies(tmp_path, "shared", teacher, configs, cache)
    [(alone, _)] = _distill_strategies(tmp_path, "alone", teacher, configs, None)
    assert shared == alone
    assert stack_rows(cache) == [6 * 8]


def test_cached_updates_skip_the_teacher(monkeypatch):
    calls = []
    real = distill.teacher_target

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(distill, "teacher_target", counting)
    teacher = random_teacher(2)
    config = _strategy_config("bsa", iterations=1)
    cache = TeacherTargetCache()
    progressive_distill(teacher, config, small_dataset(), SCHEDULE, seed=5, targets=cache)
    # The round's 6 updates fit one look-ahead chunk: one stacked call.
    assert len(calls) == 1
    progressive_distill(teacher, _strategy_config("min-snr", iterations=1), small_dataset(),
                        SCHEDULE, seed=5, targets=cache)
    assert len(calls) == 1


def test_target_cache_rejects_another_teacher_seed_grid_or_batch():
    teacher = random_teacher(6)
    config = DistillConfig(iterations=1, n_start=8, steps_per_round=2, batch_size=8)
    cache = TeacherTargetCache()
    assert cache.key is None
    distill_round(teacher, student_of(teacher), config, 4, small_dataset(), SCHEDULE, seed=9,
                  targets=cache)
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
    cache = TeacherTargetCache()
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
        cache = TeacherTargetCache()
        calls = counting_forward(monkeypatch, teacher)
        results.append((distill_round(teacher, student_of(teacher), config, 8, ToyDataset(),
                                      SCHEDULE, seed=21, targets=cache), cache.z0_tilde))
        assert calls == [4000, 4000, 100, 100]
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
    cache = TeacherTargetCache()
    calls = counting_forward(monkeypatch, teacher)
    for config, reference, forwards in zip(configs, references, (6, 0, 0)):
        before = len(calls)
        result = distill_round(teacher, student_of(teacher), config, 8, dataset, SCHEDULE,
                               seed=23, targets=cache)
        assert result.updates_run == 40
        assert_round_matches_reference(result, reference)
        assert len(calls) - before == forwards
        assert stack_rows(cache) == chunk_rows(256, 40) == [4096, 4096, 2048]
        assert np.array_equal(np.concatenate(cache.z0_tilde), np.concatenate(reference[2]))
