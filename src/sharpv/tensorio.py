"""Binary tensor file format for video tokens.

Layout (little-endian throughout):

    bytes 0..7    magic "SHRPVID1"
    bytes 8..19   three uint32: n frames, f tokens per frame, d dims
    bytes 20..    n*f*d IEEE-754 float32 values, frame-major row-major

Values are stored as float32; values between float32 grid points are
rounded on write, and values beyond the float32 range are rejected
before the file is opened. Each failure mode gets its own exception so
callers can distinguish a wrong file from a damaged one.

Both directions convert the payload one bounded chunk at a time
(``row_chunks``), so a write holds no copy of the video and a read holds
the float64 video plus one float32 chunk.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import BadMagicError, DimensionError, TensorFormatError, TruncatedFileError
from .pruner import VideoTokens
from .vecmath import in_float32_range, row_chunks

MAGIC = b"SHRPVID1"
_HEADER = struct.Struct("<8s3I")

# Hard cap on element count (1 GiB of float32 payload).
MAX_ELEMENTS = 1 << 28


def _check_dims(n: int, f: int, d: int) -> None:
    if n < 1 or f < 1 or d < 1:
        raise DimensionError(f"dimensions must be >= 1, got n={n} f={f} d={d}")
    if n * f * d > MAX_ELEMENTS:
        raise DimensionError(
            f"n*f*d = {n * f * d} exceeds the element budget of {MAX_ELEMENTS}"
        )


def write_video(path: str | Path, video: VideoTokens) -> None:
    """Write a video token tensor; see module docstring for the layout."""
    _check_dims(video.n, video.f, video.d)
    values = video.data.reshape(-1)
    if not in_float32_range(values):
        # read_video would reject the file, so do not write it
        raise TensorFormatError(f"values exceed the float32 range, not written: {path}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, video.n, video.f, video.d))
        for chunk in row_chunks(values.size, 1):
            fh.write(values[chunk].astype("<f4"))


def read_video(path: str | Path) -> VideoTokens:
    """Read a video token tensor, validating magic, dimensions, and length.

    The header is checked before any payload is read, a regular file's
    length before its payload is read, and at most one byte past the
    payload is ever read, so memory stays within the element budget
    whatever the path holds (a pipe or a device included).
    """
    with open(path, "rb") as fh:
        n, f, d = read_video_header(fh, path)
        return read_video_payload(fh, n, f, d, path)


def read_video_header(fh: BinaryIO, path: str | Path) -> tuple[int, int, int]:
    """(n, f, d) from the header at the start of the open file ``fh``,
    checked as ``read_video`` checks it; no payload byte is read, so a
    caller can reject the shape before ``read_video_payload``. ``path``
    only names the file in errors."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        if header[: len(MAGIC)] != MAGIC[: len(header)]:
            raise BadMagicError(f"not a video tensor file: {path}")
        raise TruncatedFileError(f"file ends inside the header: {path}")
    magic, n, f, d = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r} in {path}")
    _check_dims(n, f, d)
    return n, f, d


def read_video_payload(fh: BinaryIO, n: int, f: int, d: int, path: str | Path) -> VideoTokens:
    """The video whose header ``read_video_header`` has just read from the
    same ``fh``, with ``read_video``'s length and value checks.

    The float32 payload is read with ``fh.readinto`` into one reused
    chunk and widened into the float64 video chunk by chunk; a short read
    is retried until the file ends.
    """
    size = n * f * d
    expected = _HEADER.size + size * 4
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        _check_length(st.st_size, expected, path)
    data = np.empty(size)
    chunk = np.empty(next(row_chunks(size, 1)).stop, dtype="<f4")  # the longest chunk
    view = memoryview(chunk).cast("B")
    for values in row_chunks(size, 1):
        part = chunk[:values.stop - values.start]
        got = _read_into(fh, view[:part.nbytes])
        if got < part.nbytes:  # the file ends inside the payload
            _check_length(_HEADER.size + 4 * values.start + got, expected, path)
        data[values] = part
    _check_length(expected + len(fh.read(1)), expected, path)
    try:  # VideoTokens scans the values once, for NaN and Inf
        return VideoTokens(n, f, d, data.reshape(n * f, d))
    except ValueError as exc:
        raise TensorFormatError(f"payload contains NaN or Inf: {path}") from exc


def _read_into(fh: BinaryIO, view: memoryview) -> int:
    # bytes read into view: all of it, unless the file ends first
    got = 0
    while got < len(view):
        step = fh.readinto(view[got:])
        if not step:
            break
        got += step
    return got


def _check_length(size: int, expected: int, path: str | Path) -> None:
    if size < expected:
        raise TruncatedFileError(f"expected {expected} bytes but file has {size}: {path}")
    if size > expected:
        raise TensorFormatError(f"trailing data after the {expected}-byte payload: {path}")
