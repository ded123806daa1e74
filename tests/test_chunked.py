"""Whole-video passes hold the video plus one bounded chunk.

Generation, the tensor file's write and read, and stage-1 scoring each
work through ``vecmath.row_chunks``. Their traced peaks are bounded as a
share of the video's bytes plus a fixed allowance for the chunk and the
per-token arrays, and their outputs do not depend on the chunk size.
Generation's own output lives in an anonymous mapping, which
``tracemalloc`` does not see, so only its temporaries are traced.
"""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import sharpv.vecmath as vecmath
from sharpv.errors import TruncatedFileError
from sharpv.pruner import PrunerConfig, prune_video
from sharpv.synth import SyntheticVideoSpec, gen_synthetic_video, parse_pattern
from sharpv.tensorio import MAGIC, read_video, read_video_header, read_video_payload, write_video

PATTERNS = ["static", "uniform:0.5", "burst:1,3", "mixed:static@16+uniform:0.5@16"]
N, F, D = 32, 256, 128  # an 8 MiB float64 video
VIDEO_BYTES = N * F * D * 8
# two float64 chunks: the chunk itself, the per-token and per-frame arrays
# (angles, planes, scores) and numpy's own buffers
ALLOWANCE = 2 * 8 * vecmath.CHUNK_VALUES


def generate(text, n=N, f=F, d=D):
    return gen_synthetic_video(SyntheticVideoSpec(n=n, f=f, d=d, seed=0,
                                                  pattern=parse_pattern(text)))


def traced_peak(fn, *args):
    """fn's traced peak in bytes, after one untraced call warms up its
    first-call allocations (lazy imports, caches)."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def within(peak, share):
    return peak <= share * VIDEO_BYTES + ALLOWANCE


def feed_pipe(blob):
    """(read end, writer thread) of a pipe that a thread fills with blob."""
    read_end, write_end = os.pipe()

    def write():
        view = memoryview(blob)
        while view:
            view = view[os.write(write_end, view):]
        os.close(write_end)

    thread = threading.Thread(target=write)
    thread.start()
    return read_end, thread


def read_pipe(blob):
    read_end, thread = feed_pipe(blob)
    try:
        with os.fdopen(read_end, "rb") as fh:
            return read_video_payload(fh, *read_video_header(fh, "pipe"), "pipe")
    finally:
        thread.join()


@pytest.fixture(scope="module")
def video_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chunked") / "v.svt"
    write_video(path, generate("uniform:0.5"))
    return path


class TestPeaks:
    @pytest.mark.parametrize("text", PATTERNS)
    def test_generation_holds_one_video(self, text):
        # the video itself, in its mapping, plus at most 0.1x of temporaries
        assert within(traced_peak(generate, text), 0.1)

    def test_write_holds_no_copy(self, video_file, tmp_path):
        video = read_video(video_file)
        assert within(traced_peak(write_video, tmp_path / "w.svt", video), 0.1)

    def test_read_of_a_file_holds_one_video(self, video_file):
        assert within(traced_peak(read_video, video_file), 1.05)

    def test_read_of_a_pipe_holds_one_video(self, video_file):
        blob = video_file.read_bytes()
        assert within(traced_peak(read_pipe, blob), 1.05)

    def test_prune_holds_one_video(self, video_file):
        video = read_video(video_file)
        assert within(traced_peak(prune_video, video, PrunerConfig()), 1.15)


def outputs(tmp_path):
    """Everything the chunked passes make from small videos."""
    got = []
    for text in PATTERNS[:3] + ["mixed:burst:1@2+uniform:0.3@3"]:
        video = generate(text, n=5, f=4, d=6)
        path = tmp_path / "v.svt"
        write_video(path, video)
        blob = path.read_bytes()
        pruned = prune_video(video, PrunerConfig())
        got += [video.data, np.frombuffer(blob, np.uint8), read_video(path).data,
                read_pipe(blob).data, pruned.tokens, pruned.kept, pruned.thresholds]
    return got


class TestChunkSize:
    @pytest.mark.parametrize("chunk", [3, 1], ids=["a-few-values", "one-value"])
    def test_outputs_do_not_depend_on_it(self, monkeypatch, tmp_path, chunk):
        # at these sizes a chunk is one frame where a pass chunks frames
        want = outputs(tmp_path)
        monkeypatch.setattr(vecmath, "CHUNK_VALUES", chunk)
        got = outputs(tmp_path)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_chunks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(vecmath, "CHUNK_VALUES", 10)
        assert list(vecmath.row_chunks(7, 3)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert list(vecmath.row_chunks(2, 11)) == [slice(0, 1), slice(1, 2)]


class ShortReads:
    """A file whose readinto returns at most 3 bytes per call."""

    def __init__(self, fh):
        self.fh = fh
        self.fileno, self.read = fh.fileno, fh.read

    def readinto(self, view):
        return self.fh.readinto(view[:3])


class TestShortReads:
    def test_short_reads_still_read_the_video(self, tmp_path):
        video = generate("burst:1,3", n=5, f=4, d=6)
        path = tmp_path / "v.svt"
        write_video(path, video)
        with open(path, "rb") as fh:
            back = read_video_payload(ShortReads(fh), *read_video_header(fh, path), path)
        assert np.array_equal(back.data, video.data)

    def test_pipe_cut_mid_value_is_truncated(self):
        video = generate("static", n=2, f=3, d=4)
        header = MAGIC + struct.pack("<3I", 2, 3, 4)
        blob = header + video.data.astype("<f4").tobytes()[:-6]  # half a value short
        expected = len(header) + 24 * 4
        with pytest.raises(TruncatedFileError,
                           match=f"expected {expected} bytes but file has {expected - 6}: pipe"):
            read_pipe(blob)
