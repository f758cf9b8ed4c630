import hashlib
import math

import numpy as np
import pytest

from twinbeam import fileio
from twinbeam.errors import TraceFormatError


def sample_channels(n=64, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return {f"ch{i}": rng.standard_normal(n) for i in range(count)}


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        channels = sample_channels()
        path = tmp_path / "t.twbm"
        fileio.write_trace(path, 1e8, channels)
        rate, back = fileio.read_trace(path)
        assert rate == 1e8
        assert list(back) == list(channels)
        for name in channels:
            np.testing.assert_allclose(back[name],
                                       channels[name].astype(np.float32), rtol=0)

    def test_encoding_is_deterministic(self):
        channels = sample_channels()
        assert fileio.encode_trace(1e8, channels) == fileio.encode_trace(1e8, channels)

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError) as err:
            fileio.decode_trace(b"NOPE" + bytes(32))
        assert err.value.byte_offset == 0

    def test_truncated_payload_reports_offset(self):
        data = fileio.encode_trace(1e8, sample_channels())
        with pytest.raises(TraceFormatError) as err:
            fileio.decode_trace(data[:-10])
        assert err.value.byte_offset is not None
        assert err.value.byte_offset <= len(data) - 10

    def test_trailing_garbage_rejected(self):
        data = fileio.encode_trace(1e8, sample_channels())
        with pytest.raises(TraceFormatError):
            fileio.decode_trace(data + b"\x00")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_reports_its_offset(self, bad):
        channels = sample_channels()
        channels["ch1"][5] = bad
        data = fileio.encode_trace(1e8, channels)
        with pytest.raises(TraceFormatError) as err:
            fileio.decode_trace(data)
        payload_start = len(data) - 3 * 4 * 64
        assert err.value.byte_offset == payload_start + 4 * (64 + 5)

    def test_read_trace_digest_is_of_the_file(self, tmp_path):
        path = tmp_path / "t.twbm"
        fileio.write_trace(path, 1e8, sample_channels())
        trace = fileio.read_trace(path)
        assert trace.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_mixed_lengths_rejected(self):
        with pytest.raises(TraceFormatError):
            fileio.encode_trace(1e8, {"a": np.zeros(4), "b": np.zeros(5)})


def test_write_json_rejects_nonfinite(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        fileio.write_json(path, {"x": math.nan})
    assert not path.exists()


class TestSpectrumCsv:
    def test_round_trip_both_channels(self, tmp_path):
        path = tmp_path / "s.csv"
        freqs = np.linspace(1e6, 50e6, 11)
        s_i = np.linspace(0.3, 0.9, 11)
        s_p = np.linspace(0.6, 0.95, 11)
        fileio.write_spectrum_csv(path, freqs, amplitude=s_i, phase=s_p)
        f2, i2, p2 = fileio.read_spectrum_csv(path)
        # 17 significant digits round-trip doubles exactly
        np.testing.assert_array_equal(f2, freqs)
        np.testing.assert_array_equal(i2, s_i)
        np.testing.assert_array_equal(p2, s_p)

    def test_single_channel(self, tmp_path):
        path = tmp_path / "s.csv"
        freqs = np.linspace(1e6, 50e6, 5)
        fileio.write_spectrum_csv(path, freqs, amplitude=np.full(5, 0.5))
        _, s_i, s_p = fileio.read_spectrum_csv(path)
        assert s_p is None
        np.testing.assert_array_equal(s_i, np.full(5, 0.5))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("f_hz,value\n1.0,2.0\n")
        with pytest.raises(TraceFormatError):
            fileio.read_spectrum_csv(path)

    def test_line_endings_and_header(self, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_spectrum_csv(path, [1e6], amplitude=[0.5])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"f_hz,s_i,s_p,s_i_db,s_p_db\n")
