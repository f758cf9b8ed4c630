import hashlib
import math
import os
import pathlib
import shutil
import struct
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinbeam import fileio
from twinbeam.errors import DomainError, TraceFormatError
from twinbeam.series import BlockSeries

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


def encode_trace(sample_rate, channels):
    """The trace-file bytes of an ordered {name: series} mapping of equal
    lengths, packed by hand from the layout in fileio's docstring."""
    names = [name.encode("utf-8") for name in channels]
    num_samples = len(next(iter(channels.values()), ()))
    header = b"TWBM" + struct.pack("<IdIQ", 1, sample_rate, len(names), num_samples)
    table = b"".join(struct.pack("<I", len(raw)) + raw for raw in names)
    return header + table + b"".join(np.asarray(series, dtype="<f4").tobytes()
                                     for series in channels.values())


def write(path, channels, sample_rate=1e8):
    """write_trace of channels to path; returns (the file's bytes, the returned sha256)."""
    digest = fileio.write_trace(path, sample_rate, channels)
    return pathlib.Path(path).read_bytes(), digest


def in_blocks(series, size):
    """series as a BlockSeries of blocks of `size` samples, the last one maybe shorter."""
    return BlockSeries(len(series), (series[start:start + size]
                                     for start in range(0, len(series), size)))


def with_sample(data, channel, index, value, n=64, count=3):
    """Trace bytes `data` of `count` channels of n samples, with sample `index`
    of the channel-th channel set to value, which the writer may refuse."""
    offset = len(data) - 4 * n * (count - channel) + 4 * index
    return data[:offset] + np.array([value], dtype="<f4").tobytes() + data[offset + 4:]


def read_bytes(directory, data):
    """read_trace of a file holding data, with every channel read whole."""
    path = os.path.join(directory, "t.twbm")
    with open(path, "wb") as handle:
        handle.write(data)
    rate, channels = fileio.read_trace(path)
    return rate, {name: series.array() for name, series in channels.items()}


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        channels = sample_channels()
        path = tmp_path / "t.twbm"
        path.write_bytes(encode_trace(1e8, channels))
        rate, back = fileio.read_trace(path)
        assert rate == 1e8
        assert list(back) == list(channels)
        for name in channels:
            assert len(back[name]) == 64
            blocks = list(back[name].blocks())
            assert all(block.dtype == np.float32 for block in blocks)
            np.testing.assert_array_equal(np.concatenate(blocks),
                                          channels[name].astype(np.float32))

    def test_writing_is_deterministic(self, tmp_path):
        channels = sample_channels()
        assert write(tmp_path / "a.twbm", channels) == write(tmp_path / "b.twbm", channels)

    def test_bad_magic(self, tmp_path):
        with pytest.raises(TraceFormatError) as err:
            read_bytes(tmp_path, b"NOPE" + bytes(32))
        assert err.value.byte_offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        # found from the header and the file size, before any sample is read
        data = encode_trace(1e8, sample_channels())
        path = tmp_path / "t.twbm"
        path.write_bytes(data[:-10])
        with pytest.raises(TraceFormatError) as err:
            fileio.read_trace(path)
        assert err.value.byte_offset is not None
        assert err.value.byte_offset <= len(data) - 10

    def test_trailing_garbage_rejected(self, tmp_path):
        data = encode_trace(1e8, sample_channels())
        path = tmp_path / "t.twbm"
        path.write_bytes(data + b"\x00")
        with pytest.raises(TraceFormatError) as err:
            fileio.read_trace(path)
        assert err.value.byte_offset == len(data)

    def test_repeated_channel_name_rejected(self, tmp_path):
        data = encode_trace(1e8, {"ab": np.zeros(4), "ac": np.zeros(4)})
        second = data.index(b"ac")
        with pytest.raises(TraceFormatError) as err:
            read_bytes(tmp_path, data[:second] + b"ab" + data[second + 2:])
        assert err.value.byte_offset == second

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_reports_its_offset(self, tmp_path, bad):
        data = with_sample(encode_trace(1e8, sample_channels()), 1, 5, bad)
        with pytest.raises(TraceFormatError) as err:
            read_bytes(tmp_path, data)
        payload_start = len(data) - 3 * 4 * 64
        assert err.value.byte_offset == payload_start + 4 * (64 + 5)

    def test_nonfinite_sample_in_a_later_block(self, tmp_path, monkeypatch):
        # the blocks before it are handed out; the block holding it raises
        monkeypatch.setattr(fileio, "_READ_SAMPLES", 7)
        path = tmp_path / "t.twbm"
        path.write_bytes(with_sample(encode_trace(1e8, sample_channels()), 2, 40, np.nan))
        _, back = fileio.read_trace(path)
        blocks = back["ch2"].blocks()
        for _ in range(40 // 7):
            assert len(next(blocks)) == 7
        with pytest.raises(TraceFormatError) as err:
            next(blocks)
        payload_start = path.stat().st_size - 3 * 4 * 64
        assert err.value.byte_offset == payload_start + 4 * (2 * 64 + 40)

    def test_file_cut_short_after_the_header_check(self, tmp_path, monkeypatch):
        # read_trace checked the size, then the file lost half of channel ch1:
        # the block that comes back short raises at its own offset
        monkeypatch.setattr(fileio, "_READ_SAMPLES", 7)
        data = encode_trace(1e8, sample_channels(count=2))
        path = tmp_path / "t.twbm"
        path.write_bytes(data)
        _, back = fileio.read_trace(path)
        path.write_bytes(data[:-4 * 32])
        blocks = back["ch1"].blocks()
        for _ in range(32 // 7):
            assert len(next(blocks)) == 7
        with pytest.raises(TraceFormatError, match="truncated while reading samples of "
                                                   "channel 'ch1'") as err:
            next(blocks)
        assert err.value.byte_offset == len(data) - 4 * 64 + 4 * (32 // 7 * 7)

    def test_concurrent_channel_reads_see_their_own_samples(self, tmp_path, monkeypatch):
        # more reader threads than cores, switching as often as possible:
        # each channel must come back whole from its own offset
        monkeypatch.setattr(fileio, "_READ_SAMPLES", 7)
        channels = sample_channels(n=5000, count=6, seed=3)
        path = tmp_path / "t.twbm"
        path.write_bytes(encode_trace(1e8, channels))
        _, back = fileio.read_trace(path)
        read = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda name=name: read.update(
                {name: back[name].array()})) for name in channels]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for name, series in channels.items():
            np.testing.assert_array_equal(read[name], series.astype(np.float32))

    def test_file_sha256_is_of_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_HASH_CHUNK", 100)  # many chunks, the last one short
        path = tmp_path / "t.twbm"
        path.write_bytes(encode_trace(1e8, sample_channels()))
        assert fileio.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriteTrace:
    def test_blocks_and_arrays_give_the_encoded_bytes(self, tmp_path):
        channels = sample_channels(n=1000, count=4)
        series = {"ch0": in_blocks(channels["ch0"], 7), "ch1": channels["ch1"],
                  "ch2": in_blocks(channels["ch2"], 1000), "ch3": in_blocks(channels["ch3"], 333)}
        data, digest = write(tmp_path / "t.twbm", series)
        assert data == encode_trace(1e8, channels)
        assert digest == hashlib.sha256(data).hexdigest()

    def test_concurrent_channel_writes_lose_nothing(self, tmp_path):
        # both workers switching as often as possible: a block written at the
        # wrong offset, or a worker's write lost, would change the bytes
        channels = sample_channels(n=5000, count=6, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            data, _ = write(tmp_path / "t.twbm", {name: in_blocks(series, 7)
                                                  for name, series in channels.items()})
        finally:
            sys.setswitchinterval(interval)
        assert data == encode_trace(1e8, channels)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_channel_of_another_length_writes_nothing(self, tmp_path, extra, monkeypatch):
        # refused from the lengths alone, before the temp file is made
        monkeypatch.setattr(fileio, "atomic_file", None)
        channels = sample_channels(n=1000)
        channels["ch1"] = in_blocks(np.resize(channels["ch1"], 1000 + extra), 333)
        with pytest.raises(DomainError, match=f"channel 'ch1' has {1000 + extra} samples, "
                                              "not the 1000 of the first channel"):
            fileio.write_trace(tmp_path / "t.twbm", 1e8, channels)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("num_samples", [2 ** 61, 2 ** 64], ids=["2^61", "2^64"])
    def test_trace_too_large_for_a_file_writes_nothing(self, tmp_path, num_samples):
        # BlockSeries.length, as len() raises OverflowError past 2^63 - 1
        with pytest.raises(DomainError, match="too large for a file"):
            fileio.write_trace(tmp_path / "t.twbm", 1e8, {"a": BlockSeries(num_samples, ())})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("spare", [-1, 0], ids=["one-byte-short", "exact-fit"])
    def test_trace_beyond_the_free_bytes_writes_nothing(self, tmp_path, monkeypatch, spare):
        size = len(encode_trace(1e8, {"a": np.zeros(10)}))
        usage = shutil.disk_usage(tmp_path)._replace(free=size + spare)
        monkeypatch.setattr(shutil, "disk_usage", lambda where: usage)
        path = tmp_path / "t.twbm"
        if spare < 0:
            with pytest.raises(DomainError, match=f"a trace of {size} bytes does not fit in "
                                                  f"the {size - 1} bytes free for it"):
                fileio.write_trace(path, 1e8, {"a": np.zeros(10)})
            assert os.listdir(tmp_path) == []
        else:
            assert write(path, {"a": np.zeros(10)})[0] == encode_trace(1e8, {"a": np.zeros(10)})

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan], ids=["float32-overflow",
                                                                   "-inf", "nan"])
    def test_sample_not_finite_as_float32_leaves_no_file(self, tmp_path, value):
        # 1e39 is finite as a float64 but overflows the trace's float32
        series = np.zeros(1000)
        series[700] = value
        with pytest.raises(DomainError, match="channel 'a' sample 700 is"):
            fileio.write_trace(tmp_path / "t.twbm", 1e8, {"a": in_blocks(series, 333)})
        assert os.listdir(tmp_path) == []

    def test_failure_inside_leaves_no_file(self, tmp_path):
        def blocks():
            yield np.zeros(5)
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            fileio.write_trace(tmp_path / "t.twbm", 1e8, {"a": np.zeros(10),
                                                          "b": BlockSeries(10, blocks())})
        assert os.listdir(tmp_path) == []


class TestTraceProperties:
    @settings(deadline=None)
    @given(names=st.lists(channel_names, min_size=1, max_size=4, unique=True),
           sample_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           samples=st.lists(float32_samples, max_size=40))
    def test_round_trip_is_bit_exact(self, names, sample_rate, samples):
        base = np.array(samples, dtype=np.float32)
        channels = {name: np.roll(base, i) for i, name in enumerate(names)}
        with tempfile.TemporaryDirectory() as tmp:
            rate, back = read_bytes(tmp, encode_trace(sample_rate, channels))
        assert rate == sample_rate
        assert list(back) == names
        for name in names:
            # float32 -> float64 -> float32 is exact, signed zeros and subnormals too
            assert back[name].astype(np.float32).tobytes() == channels[name].tobytes()

    @settings(deadline=None)
    @given(names=st.lists(channel_names, max_size=4, unique=True),
           samples=st.lists(float32_samples, max_size=40))
    def test_write_trace_gives_the_reference_bytes(self, names, samples):
        base = np.array(samples, dtype=np.float32)
        channels = {name: np.roll(base, i) for i, name in enumerate(names)}
        with tempfile.TemporaryDirectory() as tmp:
            data, _ = write(os.path.join(tmp, "t.twbm"), channels, sample_rate=3e7)
        assert data == encode_trace(3e7, channels)

    @settings(deadline=None)
    @given(data=st.data())
    def test_corrupt_bytes_raise_only_trace_format_error(self, data):
        channels = {"amp_signal": np.linspace(-1.0, 1.0, 6),
                    "snl": np.array([0.0, -0.0, F32_MAX, -F32_MAX, 1e-40, 3.5])}
        encoded = encode_trace(1e8, channels)
        if data.draw(st.booleans(), label="truncate"):
            corrupt = encoded[:data.draw(st.integers(0, len(encoded) - 1), label="keep")]
        else:
            position = data.draw(st.integers(0, len(encoded) - 1), label="position")
            flip = data.draw(st.integers(1, 255), label="xor")
            corrupt = bytearray(encoded)
            corrupt[position] ^= flip
            corrupt = bytes(corrupt)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                read_bytes(tmp, corrupt)
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

    def test_repeated_column_rejected(self, tmp_path):
        # DictReader would read s_i from its last copy, the fourth column
        path = tmp_path / "s.csv"
        path.write_text("f_hz,s_i,s_p,s_i\n1.0,0.5,0.7,0.9\n2.0,0.6,0.8,0.95\n")
        with pytest.raises(TraceFormatError, match="spectrum CSV header repeats column 's_i'"):
            fileio.read_spectrum_csv(path)

    def test_repeated_unread_column_accepted(self, tmp_path):
        # a spreadsheet can pad the header with empty names
        path = tmp_path / "s.csv"
        path.write_text("f_hz,s_i,s_p,,\n1.0,0.5,0.7,,\n")
        freqs, s_i, s_p = fileio.read_spectrum_csv(path)
        assert (freqs.tolist(), s_i.tolist(), s_p.tolist()) == ([1.0], [0.5], [0.7])

    def test_line_endings_and_header(self, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_spectrum_csv(path, [1e6], amplitude=[0.5])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"f_hz,s_i,s_p,s_i_db,s_p_db\n")
