"""Checkpoint persistence: a `DenoiserModel` and its schedule on disk.

Plain-text format: a version line, `key = value` header lines describing the
schedule, architecture and training provenance, then one block per parameter
(`param <name> <shape>` followed by hex-encoded little-endian float64 data,
64 values per line) and a final `end` line. Hex encoding round-trips every
bit of the parameters, and the parser reports byte offsets on any damage.

Provenance is free-form `provenance.<key> = <value>` lines, read back as
strings. A run writes four keys: `round` (0 for the base teacher, k for the
student of halving round k), `steps` (the model's sampling step count),
`strategy` (the loss weighting it was trained under) and `seed` (the run's
training seed).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import CheckpointFormatError
from .nnet import DenoiserModel, Parameterization, param_shapes
from .schedule import CosineSchedule
from .util import fmt_float

FORMAT_VERSION = 1
MAGIC = "snrdistill checkpoint"
VALUES_PER_LINE = 64

Array = np.ndarray


def save_checkpoint(path: str | Path, model: DenoiserModel, schedule: CosineSchedule,
                    provenance: dict | None = None) -> None:
    """Write `model` and `schedule`, with `provenance` keys in sorted order."""
    provenance = provenance or {}
    lines = [f"{MAGIC} v{FORMAT_VERSION}"]
    lines.append(f"model.parameterization = {model.parameterization.value}")
    lines.append(f"model.latent_dim = {model.latent_dim}")
    lines.append(f"model.num_classes = {model.num_classes}")
    lines.append(f"model.embed_dim = {model.embed_dim}")
    lines.append(f"model.num_frequencies = {model.num_frequencies}")
    lines.append(f"model.hidden = {','.join(str(h) for h in model.hidden)}")
    lines.append("schedule.kind = cosine")
    lines.append(f"schedule.t_min = {fmt_float(schedule.t_min)}")
    for key in sorted(provenance):
        lines.append(f"provenance.{key} = {provenance[key]}")
    for name, value in model.params.items():
        shape = ",".join(str(s) for s in value.shape)
        lines.append(f"param {name} {shape}")
        flat = np.ascontiguousarray(value, dtype="<f8").reshape(-1)
        raw = flat.tobytes()
        step = VALUES_PER_LINE * 8
        for lo in range(0, len(raw), step):
            lines.append(raw[lo:lo + step].hex())
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


class _Reader:
    """Line reader that tracks the byte offset of the current line."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0
        self.line_start = 0

    def next_line(self) -> str | None:
        if self.pos >= len(self.blob):
            return None
        self.line_start = self.pos
        end = self.blob.find(b"\n", self.pos)
        if end == -1:
            end = len(self.blob)
            self.pos = end
        else:
            self.pos = end + 1
        try:
            return self.blob[self.line_start:end].decode("ascii")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError("non-ascii bytes in checkpoint", self.line_start) from exc

    def fail(self, message: str):
        raise CheckpointFormatError(message, self.line_start)


def _parse_header_value(reader: _Reader, line: str) -> tuple[str, str]:
    if "=" not in line:
        reader.fail(f"expected 'key = value', got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def load_checkpoint(path: str | Path) -> tuple[DenoiserModel, CosineSchedule, dict[str, str]]:
    """The model, schedule and provenance (values as strings) saved at `path`.

    Any damage raises CheckpointFormatError with the byte offset of the line
    at fault.
    """
    reader = _Reader(Path(path).read_bytes())
    first = reader.next_line()
    if first is None:
        reader.fail("empty checkpoint file")
    if not first.startswith(MAGIC + " v"):
        reader.fail(f"bad magic line {first!r}")
    try:
        version = int(first[len(MAGIC) + 2:])
    except ValueError:
        reader.fail(f"bad version in {first!r}")
    if version != FORMAT_VERSION:
        reader.fail(f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})")

    header: dict[str, str] = {}
    offsets: dict[str, int] = {}  # of each header key's line
    provenance: dict[str, str] = {}
    line = reader.next_line()
    while line is not None and not line.startswith("param ") and line != "end":
        key, value = _parse_header_value(reader, line)
        if key.startswith("provenance."):
            provenance[key[len("provenance."):]] = value
        else:
            header[key] = value
            offsets[key] = reader.line_start
        line = reader.next_line()

    required = [
        "model.parameterization", "model.latent_dim", "model.num_classes",
        "model.embed_dim", "model.num_frequencies", "model.hidden",
        "schedule.kind", "schedule.t_min",
    ]
    for key in required:
        if key not in header:
            reader.fail(f"missing header field {key}")

    def parsed(key: str, convert):
        """`convert` of header `key`'s value; a ValueError names the key's line."""
        try:
            return convert(header[key])
        except ValueError as exc:
            raise CheckpointFormatError(
                f"bad header value {key} = {header[key]!r}: {exc}", offsets[key]) from exc

    parameterization = parsed("model.parameterization", Parameterization)
    if header["schedule.kind"] != "cosine":
        raise CheckpointFormatError(f"unknown schedule kind {header['schedule.kind']!r}",
                                    offsets["schedule.kind"])
    dims = dict(
        latent_dim=parsed("model.latent_dim", int),
        num_classes=parsed("model.num_classes", int),
        # An empty value is a model with no hidden layer.
        hidden=parsed("model.hidden",
                      lambda value: tuple(int(h) for h in value.split(",")) if value else ()),
        embed_dim=parsed("model.embed_dim", int),
        num_frequencies=parsed("model.num_frequencies", int),
    )
    schedule = CosineSchedule(t_min=parsed("schedule.t_min", float))
    expected = param_shapes(**dims)
    params: dict[str, Array] = {}

    while line is not None and line.startswith("param "):
        parts = line.split()
        if len(parts) != 3:
            reader.fail(f"malformed param line {line!r}")
        name = parts[1]
        try:
            shape = tuple(int(s) for s in parts[2].split(","))
        except ValueError:
            reader.fail(f"malformed shape in {line!r}")
        if name in params:
            reader.fail(f"param {name} appears twice")
        if expected.get(name) != shape:
            reader.fail(f"param {name} has shape {shape}, but the header implies "
                        f"{expected.get(name, 'no such param')}")
        raw = bytearray()
        while len(raw) < 8 * math.prod(shape):
            data_line = reader.next_line()
            if data_line is None:
                reader.fail(f"unexpected end of file inside param {name}")
            try:
                chunk = bytes.fromhex(data_line)
            except ValueError:
                reader.fail(f"bad hex data in param {name}")
            if len(chunk) % 8 != 0:
                reader.fail(f"hex line in param {name} is not a whole number of float64s")
            raw += chunk
        if len(raw) > 8 * math.prod(shape):
            reader.fail(f"too many values in param {name}")
        # The model copies it into its own vector, in native byte order.
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        line = reader.next_line()

    if line != "end":
        reader.fail(f"expected 'end', got {line!r}")

    missing = [name for name in expected if name not in params]
    if missing:
        reader.fail(f"params {', '.join(missing)} implied by the header are missing")
    model = DenoiserModel(parameterization=parameterization, params=params, **dims)
    return model, schedule, provenance
