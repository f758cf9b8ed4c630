import hashlib
import math
import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import fileio
from twinbeam.errors import TraceFormatError

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY_SUBNORMAL = float(np.finfo(np.float32).smallest_subnormal)
# the edge values are drawn often, not left to chance
float32_samples = st.one_of(
    st.sampled_from([-0.0, 0.0, F32_TINY_SUBNORMAL, -F32_TINY_SUBNORMAL,
                     F32_TINY_SUBNORMAL * 1000, F32_MAX, -F32_MAX]),
    st.floats(width=32, allow_nan=False, allow_infinity=False))
channel_names = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)


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

    def test_read_trace_views_are_writable_float32(self, tmp_path):
        path = tmp_path / "t.twbm"
        fileio.write_trace(path, 1e8, sample_channels())
        _, channels = fileio.read_trace(path)
        for series in channels.values():
            assert series.dtype == np.float32
            assert series.flags.writeable
            series[0] = 1.0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(TraceFormatError):
            fileio.encode_trace(1e8, {"a": np.zeros(4), "b": np.zeros(5)})


class TestTraceWriter:
    def blocks(self, series, size):
        return (series[start:start + size] for start in range(0, len(series), size))

    def test_channels_in_any_order_and_blocks_give_the_encoded_bytes(self, tmp_path):
        channels = sample_channels(n=1000)
        path = tmp_path / "t.twbm"
        with fileio.trace_writer(path, 1e8, list(channels), 1000) as writer:
            for name, size in (("ch2", 7), ("ch0", 1000), ("ch1", 333)):
                writer.write_channel(name, self.blocks(channels[name], size))
        data = path.read_bytes()
        assert data == fileio.encode_trace(1e8, channels)
        assert writer.sha256 == hashlib.sha256(data).hexdigest()

    def test_concurrent_channel_writes_lose_nothing(self, tmp_path):
        # more writer threads than cores, switching as often as possible: an
        # unlocked seek-then-write would put blocks at another thread's offset
        channels = sample_channels(n=5000, count=6, seed=3)
        path = tmp_path / "t.twbm"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fileio.trace_writer(path, 1e8, list(channels), 5000) as writer:
                threads = [threading.Thread(target=writer.write_channel,
                                            args=(name, self.blocks(series, 7)))
                           for name, series in channels.items()]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert path.read_bytes() == fileio.encode_trace(1e8, channels)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_short_or_long_channel_leaves_no_file(self, tmp_path, extra):
        channels = sample_channels(n=1000)
        channels["ch1"] = np.resize(channels["ch1"], 1000 + extra)
        with pytest.raises(TraceFormatError, match="ch1"):
            with fileio.trace_writer(tmp_path / "t.twbm", 1e8, list(channels), 1000) as writer:
                for name, series in channels.items():
                    writer.write_channel(name, [series])
        assert os.listdir(tmp_path) == []

    def test_failure_inside_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.twbm"
        with pytest.raises(RuntimeError):
            with fileio.trace_writer(path, 1e8, ["a"], 10) as writer:
                writer.write_channel("a", [np.zeros(5)])
                raise RuntimeError("stop")
        assert os.listdir(tmp_path) == []


class TestTraceProperties:
    @settings(deadline=None)
    @given(names=st.lists(channel_names, min_size=1, max_size=4, unique=True),
           sample_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           samples=st.lists(float32_samples, max_size=40))
    def test_round_trip_is_bit_exact(self, names, sample_rate, samples):
        base = np.array(samples, dtype=np.float32)
        channels = {name: np.roll(base, i) for i, name in enumerate(names)}
        rate, back = fileio.decode_trace(fileio.encode_trace(sample_rate, channels))
        assert rate == sample_rate
        assert list(back) == names
        for name in names:
            assert back[name].dtype == np.float32
            assert back[name].tobytes() == channels[name].tobytes()

    @settings(deadline=None)
    @given(data=st.data())
    def test_corrupt_bytes_raise_only_trace_format_error(self, data):
        channels = {"amp_signal": np.linspace(-1.0, 1.0, 6),
                    "snl": np.array([0.0, -0.0, F32_MAX, -F32_MAX, 1e-40, 3.5])}
        encoded = fileio.encode_trace(1e8, channels)
        if data.draw(st.booleans(), label="truncate"):
            corrupt = encoded[:data.draw(st.integers(0, len(encoded) - 1), label="keep")]
        else:
            position = data.draw(st.integers(0, len(encoded) - 1), label="position")
            flip = data.draw(st.integers(1, 255), label="xor")
            corrupt = bytearray(encoded)
            corrupt[position] ^= flip
            corrupt = bytes(corrupt)
        try:
            fileio.decode_trace(corrupt)
        except TraceFormatError as exc:
            assert exc.byte_offset is not None
            assert 0 <= exc.byte_offset <= len(corrupt)


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

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        min_size=1, max_size=20))
    def test_round_trip_is_exact_for_any_double(self, rows):
        freqs, s_i, s_p = (np.array(col) for col in zip(*rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            fileio.write_spectrum_csv(path, freqs, amplitude=s_i, phase=s_p)
            back = fileio.read_spectrum_csv(path)
        for written, read in zip((freqs, s_i, s_p), back):
            assert read.tobytes() == written.tobytes()

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
