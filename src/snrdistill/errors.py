"""Exception types shared across the package."""

from __future__ import annotations


class ShapeMismatchError(ValueError):
    """An array argument has the wrong size along a named axis, or, with
    `axis` None, the wrong shape."""

    def __init__(self, argument: str, axis: int | None, expected, got):
        self.argument = argument
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(
            f"{argument} must have shape {expected}, got shape {got}" if axis is None
            else f"{argument}: axis {axis} must have size {expected}, got {got}"
        )


class ScheduleRangeError(ValueError):
    """Diffusion time outside the valid domain of a noise schedule."""


class SingularTimeError(ValueError):
    """A reverse-process coefficient hit its singular endpoint."""


class DegenerateTargetError(ValueError):
    """Two-step target denominator too close to zero to invert."""

    def __init__(self, t, n_steps: int):
        self.t = t
        self.n_steps = n_steps
        super().__init__(
            f"degenerate two-step target at t={t} with {n_steps} student steps"
        )


class TrainingDivergedError(RuntimeError):
    """Base-model training loss exceeded the divergence bound."""

    def __init__(self, update: int, loss: float):
        self.update = update
        self.loss = loss
        super().__init__(f"training diverged at update {update}: loss={loss}")


class DistillationDivergedError(RuntimeError):
    """Non-finite loss encountered during a distillation round."""

    def __init__(self, t: float, weight: float, loss: float):
        self.t = t
        self.weight = weight
        self.loss = loss
        super().__init__(
            f"non-finite distillation loss {loss} (sample t={t}, weight={weight})"
        )


class CheckpointFormatError(ValueError):
    """Checkpoint file could not be parsed."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class ConfigError(ValueError):
    """Run-configuration text is invalid."""
