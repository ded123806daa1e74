"""Deterministic synthetic videos and prompt embeddings for the harness.

Patterns:

* ``static`` — one random token direction broadcast to the whole video.
  Spatial spread and temporal change are both zero, so adaptive pruning
  collapses every frame (the first included) to its floor of one token
  and the retention ratio is exactly 1/f. A static video *with* internal
  variety is ``burst:0`` (fresh frame 0, every later frame a copy).
* ``uniform:RATE`` — every token is a unit vector living in its own fixed
  2-plane and rotates by RATE radians per frame. Adjacent-frame token
  dissimilarity is exactly the chord 2*sin(RATE/2), which makes the
  adaptive threshold analytically sin(RATE/2) for every frame after the
  first.
* ``burst:I,J,...`` — the listed frames (0-based) are redrawn from fresh
  random directions; all other frames copy their predecessor. Thresholds
  spike at the listed frames and are zero elsewhere.
* ``mixed:SEG+SEG+...`` with SEG = ``PATTERN@COUNT`` — concatenation of
  independently generated segments (inner pattern anything but mixed).
  Each segment starts from fresh randomness, so segment boundaries look
  like bursts.

Generation is pure: the same (spec, seed) always yields bit-identical
tensors. Values are quantized to float32 so the on-disk tensor format
round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pruner import VideoTokens
from .tensorio import MAX_ELEMENTS

# RNG stream ids, kept distinct so video/prompt draws never collide.
_STREAM_VIDEO = 0
_STREAM_SYSTEM = 1
_STREAM_INSTRUCTION = 2


@dataclass(frozen=True)
class Static:
    pass


@dataclass(frozen=True)
class UniformMotion:
    rate: float  # radians of rotation per frame

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ConfigError(f"rate must be a finite value >= 0, got {self.rate}")


@dataclass(frozen=True)
class Burst:
    frames: tuple[int, ...]  # 0-based frame indices redrawn from scratch


@dataclass(frozen=True)
class Mixed:
    segments: tuple[tuple[object, int], ...]  # (inner pattern, frame count)


@dataclass(frozen=True)
class SyntheticVideoSpec:
    n: int
    f: int
    d: int
    seed: int
    pattern: object = Static()


def parse_pattern(text: str) -> object:
    """Parse the CLI pattern grammar; raises ConfigError on anything malformed."""
    text = text.strip()
    if text == "static":
        return Static()
    if text.startswith("uniform:"):
        try:
            return UniformMotion(rate=float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad uniform rate in {text!r}") from exc
    if text.startswith("burst:"):
        body = text.split(":", 1)[1]
        try:
            frames = tuple(int(part) for part in body.split(",") if part != "")
        except ValueError as exc:
            raise ConfigError(f"bad burst frame list in {text!r}") from exc
        if not frames or any(i < 0 for i in frames):
            raise ConfigError(f"burst needs non-negative frame indices, got {text!r}")
        return Burst(frames=frames)
    if text.startswith("mixed:"):
        segments = []
        for part in text.split(":", 1)[1].split("+"):
            if "@" not in part:
                raise ConfigError(f"mixed segment {part!r} is missing '@COUNT'")
            inner_text, count_text = part.rsplit("@", 1)
            try:
                count = int(count_text)
            except ValueError as exc:
                raise ConfigError(f"bad segment count in {part!r}") from exc
            if count < 1:
                raise ConfigError(f"segment count must be >= 1 in {part!r}")
            inner = parse_pattern(inner_text)
            if isinstance(inner, Mixed):
                raise ConfigError("mixed segments cannot nest another mixed pattern")
            segments.append((inner, count))
        return Mixed(segments=tuple(segments))
    raise ConfigError(f"unknown pattern {text!r}")


def _orthonormal_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    # Gram-Schmidt on two fresh gaussian draws; degenerate draws have
    # probability zero but are retried anyway.
    while True:
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        na = np.linalg.norm(a)
        if na < 1e-9:
            continue
        u = a / na
        b = b - np.dot(b, u) * u
        nb = np.linalg.norm(b)
        if nb < 1e-9:
            continue
        return u, b / nb


def _gen_frames(pattern: object, n: int, f: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(pattern, Static):
        # one direction everywhere: zero spatial spread and zero motion, so
        # every frame (including the first) prunes down to the 1-token floor
        token = rng.standard_normal(d)
        return np.broadcast_to(token, (n, f, d)).copy()

    if isinstance(pattern, UniformMotion):
        if d < 2:
            raise ConfigError("uniform motion needs d >= 2 for a rotation plane")
        planes = np.empty((f, 2, d))
        for j in range(f):
            planes[j, 0], planes[j, 1] = _orthonormal_pair(rng, d)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=f)
        steps = np.arange(n)[:, None]  # (n, 1)
        angles = phase[None, :] + steps * pattern.rate  # (n, f)
        return (
            np.cos(angles)[..., None] * planes[None, :, 0, :]
            + np.sin(angles)[..., None] * planes[None, :, 1, :]
        )

    if isinstance(pattern, Burst):
        bad = [i for i in pattern.frames if i >= n]
        if bad:
            raise ConfigError(f"burst frames {bad} out of range for n={n}")
        fresh = set(pattern.frames) | {0}
        out = np.empty((n, f, d))
        for t in range(n):
            out[t] = rng.standard_normal((f, d)) if t in fresh else out[t - 1]
        return out

    if isinstance(pattern, Mixed):
        total = sum(count for _, count in pattern.segments)
        if total != n:
            raise ConfigError(f"mixed segments cover {total} frames but n={n}")
        parts = []
        for i, (inner, count) in enumerate(pattern.segments):
            seg_rng = np.random.default_rng([_child_seed(rng), i])
            parts.append(_gen_frames(inner, count, f, d, seg_rng))
        return np.concatenate(parts, axis=0)

    raise ConfigError(f"unknown pattern object {pattern!r}")


def _child_seed(rng: np.random.Generator) -> int:
    # One draw from the parent keeps segment streams tied to the top-level
    # seed without sharing state between segments.
    return int(rng.integers(0, 2**63 - 1))


def gen_synthetic_video(spec: SyntheticVideoSpec) -> VideoTokens:
    """Generate the video described by spec; bit-reproducible from the seed."""
    if spec.n < 1 or spec.f < 1 or spec.d < 1:
        raise ConfigError(f"counts must be >= 1, got n={spec.n} f={spec.f} d={spec.d}")
    if spec.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.seed}")
    if spec.n * spec.f * spec.d > MAX_ELEMENTS:
        raise ConfigError(
            f"n*f*d = {spec.n * spec.f * spec.d} exceeds the element budget of {MAX_ELEMENTS}"
        )
    rng = np.random.default_rng([spec.seed, _STREAM_VIDEO])
    frames = _gen_frames(spec.pattern, spec.n, spec.f, spec.d, rng)
    data = frames.reshape(spec.n * spec.f, spec.d).astype(np.float32)
    return VideoTokens(spec.n, spec.f, spec.d, data.astype(np.float64))


def gen_prompt_embeddings(seed: int, system_len: int, instruction_len: int, d: int):
    """Deterministic system/instruction embedding blocks for the toy pipeline."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if system_len < 0 or instruction_len < 0:
        raise ConfigError("prompt lengths must be >= 0")
    sys_rng = np.random.default_rng([seed, _STREAM_SYSTEM])
    ins_rng = np.random.default_rng([seed, _STREAM_INSTRUCTION])
    system = sys_rng.standard_normal((system_len, d))
    instruction = ins_rng.standard_normal((instruction_len, d))
    return system, instruction
