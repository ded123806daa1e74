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

Each pattern type checks its own fields when it is built, so a pattern
made in code gets the same checks as one ``parse_pattern`` reads from
text, and draws its own frames into an ``(n, f, d)`` array in
``generate``; ``parse_pattern`` holds only the text grammar.

Generation is pure: the same (spec, seed) always yields bit-identical
tensors. Values are quantized to float32 so the on-disk tensor format
round-trips exactly.

Generation holds the video and one bounded chunk (``row_chunks``), never
a second video: every pattern writes into the one output array, a
``mixed`` segment into its own frames of it, and the float32 rounding
is done in place, chunk by chunk. The output lives in its own anonymous
mapping, outside the malloc heap.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pruner import VideoTokens
from .tensorio import MAX_ELEMENTS
from .vecmath import row_chunks

# RNG stream ids, kept distinct so video/prompt draws never collide.
_STREAM_VIDEO = 0
_STREAM_SYSTEM = 1
_STREAM_INSTRUCTION = 2


@dataclass(frozen=True)
class Static:
    def generate(self, out: np.ndarray, rng: np.random.Generator) -> None:
        # one direction everywhere: zero spatial spread and zero motion, so
        # every frame (including the first) prunes down to the 1-token floor
        out[...] = rng.standard_normal(out.shape[2])


@dataclass(frozen=True)
class UniformMotion:
    rate: float  # radians of rotation per frame

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ConfigError(f"rate must be a finite value >= 0, got {self.rate}")

    def generate(self, out: np.ndarray, rng: np.random.Generator) -> None:
        n, f, d = out.shape
        if d < 2:
            raise ConfigError("uniform motion needs d >= 2 for a rotation plane")
        planes = np.empty((f, 2, d))
        for j in range(f):
            planes[j, 0], planes[j, 1] = _orthonormal_pair(rng, d)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=f)
        # the largest angle, in Python floats, which overflow without a
        # warning; cos and sin of inf are NaN
        if not np.isfinite(float(phase.max()) + (n - 1) * self.rate):
            raise ConfigError(f"rate {self.rate} over {n} frames overflows the rotation angle")
        angles = phase[None, :] + np.arange(n)[:, None] * self.rate  # (n, f)
        # cos * plane 0 + sin * plane 1, the sine term added a few frames
        # at a time
        np.multiply(np.cos(angles)[..., None], planes[None, :, 0, :], out=out)
        for frames in row_chunks(n, f * d):
            out[frames] += np.sin(angles[frames])[..., None] * planes[None, :, 1, :]


@dataclass(frozen=True)
class Burst:
    frames: tuple[int, ...]  # 0-based frame indices redrawn from scratch

    def __post_init__(self):
        if not self.frames or any(type(i) is not int or i < 0 for i in self.frames):
            raise ConfigError(f"burst needs integer frame indices >= 0, got {self.frames}")

    def generate(self, out: np.ndarray, rng: np.random.Generator) -> None:
        n, f, d = out.shape
        bad = [i for i in self.frames if i >= n]
        if bad:
            raise ConfigError(f"burst frames {bad} out of range for n={n}")
        fresh = set(self.frames) | {0}
        for t in range(n):
            out[t] = rng.standard_normal((f, d)) if t in fresh else out[t - 1]


_SEGMENT_PATTERNS = (Static, UniformMotion, Burst)


@dataclass(frozen=True)
class Mixed:
    segments: tuple[tuple[object, int], ...]  # (inner pattern, frame count)

    def __post_init__(self):
        for segment in self.segments:
            if type(segment) is not tuple or len(segment) != 2 or type(segment[1]) is not int:
                raise ConfigError(f"mixed segment {segment!r} must be a (pattern, int) pair")
            if not isinstance(segment[0], _SEGMENT_PATTERNS):
                raise ConfigError(f"mixed segment {segment[0]!r} must be static, uniform or burst")
            if segment[1] < 1:
                raise ConfigError(f"segment count must be >= 1, got {segment[1]}")

    def generate(self, out: np.ndarray, rng: np.random.Generator) -> None:
        total = sum(count for _, count in self.segments)
        if total != len(out):
            raise ConfigError(f"mixed segments cover {total} frames but n={len(out)}")
        # One draw from the parent per segment keeps segment streams tied
        # to the top-level seed without sharing state between segments.
        start = 0
        for i, (inner, count) in enumerate(self.segments):
            seed = int(rng.integers(0, 2**63 - 1))
            inner.generate(out[start:start + count], np.random.default_rng([seed, i]))
            start += count


@dataclass(frozen=True)
class SyntheticVideoSpec:
    n: int
    f: int
    d: int
    seed: int
    pattern: object = Static()


def parse_pattern(text: str) -> object:
    """Parse the CLI pattern grammar; raises ConfigError on anything malformed
    (each pattern type checks its own values)."""
    text = text.strip()
    if text == "static":
        return Static()
    if text.startswith("uniform:"):
        try:
            return UniformMotion(rate=float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad uniform rate in {text!r}") from exc
    if text.startswith("burst:"):
        try:
            frames = tuple(int(part) for part in text.split(":", 1)[1].split(",") if part)
        except ValueError as exc:
            raise ConfigError(f"bad burst frame list in {text!r}") from exc
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
            segments.append((parse_pattern(inner_text), count))
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


def gen_synthetic_video(spec: SyntheticVideoSpec) -> VideoTokens:
    """Generate the video described by spec; bit-reproducible from the seed."""
    if spec.n < 1 or spec.f < 1 or spec.d < 1:
        raise ConfigError(f"counts must be >= 1, got n={spec.n} f={spec.f} d={spec.d}")
    if spec.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.seed}")
    if (size := spec.n * spec.f * spec.d) > MAX_ELEMENTS:
        raise ConfigError(f"n*f*d = {size} exceeds the element budget of {MAX_ELEMENTS}")
    if not isinstance(spec.pattern, (*_SEGMENT_PATTERNS, Mixed)):
        raise ConfigError(f"unknown pattern object {spec.pattern!r}")
    rng = np.random.default_rng([spec.seed, _STREAM_VIDEO])
    # The video gets its own private anonymous mapping rather than a malloc
    # heap block: a generated video is often written out and dropped
    # (`sharpv gen`), and dropping a mapped array returns its pages at once
    # instead of leaving a video-sized hole in the heap below later
    # allocations. ACCESS_COPY makes the mapping private (copy-on-write
    # across a fork), as heap memory is.
    buffer = mmap.mmap(-1, 8 * size, access=mmap.ACCESS_COPY)
    frames = np.frombuffer(buffer, dtype=np.float64).reshape(spec.n, spec.f, spec.d)
    spec.pattern.generate(frames, rng)
    values = frames.reshape(-1)
    for chunk in row_chunks(values.size, 1):
        values[chunk] = values[chunk].astype(np.float32)
    return VideoTokens(spec.n, spec.f, spec.d, frames.reshape(spec.n * spec.f, spec.d))


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
