import struct
import tracemalloc

import numpy as np
import pytest

from sharpv.errors import BadMagicError, DimensionError, TensorFormatError, TruncatedFileError
from sharpv.pruner import VideoTokens
from sharpv.synth import SyntheticVideoSpec, UniformMotion, gen_synthetic_video
from sharpv.tensorio import MAGIC, read_video, write_video


def sample_video(seed=0, n=3, f=4, d=5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n * f, d)).astype(np.float32).astype(np.float64)
    return VideoTokens(n, f, d, data)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        v = sample_video()
        path = tmp_path / "v.svt"
        write_video(path, v)
        back = read_video(path)
        assert (back.n, back.f, back.d) == (v.n, v.f, v.d)
        assert np.array_equal(back.data, v.data)

    def test_synthetic_round_trip(self, tmp_path):
        spec = SyntheticVideoSpec(n=4, f=6, d=16, seed=11, pattern=UniformMotion(0.3))
        v = gen_synthetic_video(spec)
        path = tmp_path / "v.svt"
        write_video(path, v)
        assert np.array_equal(read_video(path).data, v.data)

    def test_layout(self, tmp_path):
        v = sample_video(n=2, f=2, d=3)
        path = tmp_path / "v.svt"
        write_video(path, v)
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        n, f, d = struct.unpack_from("<3I", blob, 8)
        assert (n, f, d) == (2, 2, 3)
        payload = np.frombuffer(blob, dtype="<f4", offset=20)
        assert payload.shape == (12,)
        assert np.array_equal(payload.astype(np.float64), v.data.reshape(-1))


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 12)
        with pytest.raises(BadMagicError):
            read_video(path)

    def test_short_header_with_wrong_prefix(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(b"XYZ")
        with pytest.raises(BadMagicError):
            read_video(path)

    def test_short_header_with_good_prefix(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TruncatedFileError):
            read_video(path)

    def test_truncated_payload(self, tmp_path):
        v = sample_video()
        path = tmp_path / "v.svt"
        write_video(path, v)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TruncatedFileError):
            read_video(path)

    def test_trailing_garbage(self, tmp_path):
        v = sample_video()
        path = tmp_path / "v.svt"
        write_video(path, v)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TensorFormatError):
            read_video(path)

    def test_oversized_file_fails_before_its_payload_is_read(self, tmp_path):
        # a valid 4-element header on a 64 MiB sparse file: the length
        # check must come before any read of the payload
        path = tmp_path / "big.svt"
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<3I", 1, 2, 2) + bytes(16))
            fh.truncate(64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match="trailing data"):
                read_video(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(MAGIC + struct.pack("<3I", 0, 4, 4))
        with pytest.raises(DimensionError):
            read_video(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "bad.svt"
        path.write_bytes(MAGIC + struct.pack("<3I", 2**30, 2**30, 2**30))
        with pytest.raises(DimensionError):
            read_video(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "bad.svt"
        payload = np.array([1.0, np.inf, 0.0, 2.0], dtype="<f4")
        path.write_bytes(MAGIC + struct.pack("<3I", 1, 2, 2) + payload.tobytes())
        with pytest.raises(TensorFormatError):
            read_video(path)

    def test_value_beyond_float32_range_writes_nothing(self, tmp_path):
        # 1e300 is finite as float64 but casts to inf as float32; the file
        # would fail read_video's NaN/Inf check. VideoTokens rejects it, so
        # it is set after construction to reach write_video's own guard.
        video = sample_video()
        video.data[3, 2] = 1e300
        path = tmp_path / "v.svt"
        with pytest.raises(TensorFormatError):
            write_video(path, video)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        data = sample_video().data.copy()
        data[3, 2], data[0, 0] = big, -big
        path = tmp_path / "v.svt"
        write_video(path, VideoTokens(3, 4, 5, data))
        assert np.array_equal(read_video(path).data, data)

    def test_error_types_are_distinct(self):
        assert issubclass(BadMagicError, TensorFormatError)
        assert issubclass(TruncatedFileError, TensorFormatError)
        assert issubclass(DimensionError, TensorFormatError)
        assert not issubclass(BadMagicError, TruncatedFileError)
