"""On-disk formats: the binary trace file, the spectrum CSV, and atomic writes.

Trace file layout (all little-endian):
    magic "TWBM" | version u32 | sample_rate f64 | channel_count u32 |
    sample_count u64 | channel name table (u32 byte length + UTF-8, repeated) |
    payload: channels sequential, samples as f32, every sample finite.

The format takes any ordered set of named channels.  The CLI writes the four
measured channels analyze reads (pipeline.TRACE_CHANNELS); the combinations
behind them are not stored (synth.measured_combinations returns them), and
per-beam series are not modelled.
Each channel sits at a fixed offset, so a TraceWriter fills the payload as
the channels are produced, block by block and from more than one thread,
and trace_writer hashes the finished file and renames it into place.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import struct
import tempfile
import threading

import numpy as np

from .errors import TraceFormatError

TRACE_MAGIC = b"TWBM"
TRACE_VERSION = 1


@contextlib.contextmanager
def _atomic_file(path):
    """A sibling temp file, opened for reading and writing, that is renamed
    onto path if the block succeeds and removed if it does not, so readers
    never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".twinbeam-")
    try:
        with os.fdopen(fd, "w+b") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data):
    """Write via a sibling temp file and rename, so readers never see partial output."""
    with _atomic_file(path) as handle:
        handle.write(data)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# binary trace format

class TraceWriter:
    """A trace being written to a seekable binary handle, channel by channel.

    The header goes out at once.  write_channel puts a channel's samples at
    that channel's fixed offset, in the order its blocks come, so channels
    can be written in any order and from several threads at once.
    check_complete raises unless every channel got exactly num_samples.
    """

    def __init__(self, handle, sample_rate, names, num_samples):
        self._handle = handle
        self._num_samples = num_samples
        self._lock = threading.Lock()
        handle.write(TRACE_MAGIC)
        handle.write(struct.pack("<IdIQ", TRACE_VERSION, sample_rate, len(names), num_samples))
        for name in names:
            raw = name.encode("utf-8")
            handle.write(struct.pack("<I", len(raw)))
            handle.write(raw)
        payload = handle.tell()
        self._offsets = {name: payload + 4 * num_samples * i for i, name in enumerate(names)}
        self._written = dict.fromkeys(names, 0)

    def write_channel(self, name, blocks):
        """Write the float series `blocks`, in order, as channel `name`'s samples."""
        count = 0
        for block in blocks:
            data = np.ascontiguousarray(block, dtype="<f4")
            with self._lock:
                self._handle.seek(self._offsets[name] + 4 * count)
                self._handle.write(data)
            count += len(data)
        self._written[name] = count

    def check_complete(self):
        short = {name: count for name, count in self._written.items()
                 if count != self._num_samples}
        if short:
            raise TraceFormatError(
                f"channels {short} written, expected {self._num_samples} samples each")


def encode_trace(sample_rate, channels):
    """Serialize an ordered {name: series} mapping to trace-file bytes."""
    names = list(channels)
    lengths = {len(channels[name]) for name in names}
    if len(lengths) != 1:
        raise TraceFormatError(f"channels have mixed lengths {sorted(lengths)}")
    (num_samples,) = lengths
    buf = io.BytesIO()
    writer = TraceWriter(buf, sample_rate, names, num_samples)
    for name in names:
        writer.write_channel(name, [channels[name]])
    return buf.getvalue()


@contextlib.contextmanager
def trace_writer(path, sample_rate, names, num_samples):
    """A TraceWriter for a new trace file at path.

    The file appears at path only if the block succeeds and every channel
    is complete; the writer's sha256 then holds the hex digest of its bytes,
    read back from the temp file before the rename.  On failure no file is
    left behind.
    """
    with _atomic_file(path) as handle:
        writer = TraceWriter(handle, sample_rate, names, num_samples)
        yield writer
        writer.check_complete()
        handle.flush()
        handle.seek(0)
        digest = hashlib.sha256()
        chunk = bytearray(2 ** 22)
        view = memoryview(chunk)
        while count := handle.readinto(chunk):
            digest.update(view[:count])
        writer.sha256 = digest.hexdigest()


def write_trace(path, sample_rate, channels):
    atomic_write_bytes(path, encode_trace(sample_rate, channels))


def _require(data, offset, count, what):
    if offset + count > len(data):
        raise TraceFormatError(
            f"trace truncated while reading {what}: need {count} bytes at offset {offset}, "
            f"file has {len(data)}", byte_offset=offset)


def _take(data, offset, count, what):
    _require(data, offset, count, what)
    return data[offset:offset + count], offset + count


def decode_trace(data):
    """Parse trace-file bytes into (sample_rate, {name: float32 series}).

    Each series is a float32 view into `data` (np.frombuffer), not a copy:
    it keeps `data` alive, and it is writable only if `data` is (a bytearray,
    as read_trace passes; a bytes object gives read-only views).  A
    non-finite sample is a format error; its byte_offset is the sample's.
    """
    chunk, offset = _take(data, 0, 4, "magic")
    if chunk != TRACE_MAGIC:
        raise TraceFormatError(f"bad magic {chunk!r} at offset 0", byte_offset=0)
    chunk, offset = _take(data, offset, struct.calcsize("<IdIQ"), "header")
    version, sample_rate, channel_count, num_samples = struct.unpack("<IdIQ", chunk)
    if version != TRACE_VERSION:
        raise TraceFormatError(f"unsupported trace version {version}", byte_offset=4)
    if not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise TraceFormatError(f"invalid sample rate {sample_rate}", byte_offset=8)
    names = []
    for i in range(channel_count):
        chunk, offset = _take(data, offset, 4, f"name length of channel {i}")
        (name_len,) = struct.unpack("<I", chunk)
        start = offset
        chunk, offset = _take(data, offset, name_len, f"name of channel {i}")
        try:
            names.append(chunk.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"channel {i} name is not valid UTF-8 at offset {start}",
                byte_offset=start) from exc
    channels = {}
    for name in names:
        _require(data, offset, 4 * num_samples, f"samples of channel {name!r}")
        series = np.frombuffer(data, dtype="<f4", count=num_samples, offset=offset)
        finite = np.isfinite(series)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise TraceFormatError(
                f"channel {name!r} sample {bad} is {series[bad]}, not finite",
                byte_offset=offset + 4 * bad)
        channels[name] = series
        offset += 4 * num_samples
    if offset != len(data):
        raise TraceFormatError(
            f"{len(data) - offset} trailing bytes after payload", byte_offset=offset)
    return sample_rate, channels


class TraceFile(tuple):
    """read_trace's result: unpacks as (sample_rate, channels), and carries
    sha256, the hex digest of the file bytes they were decoded from.  The
    digest is computed when first read, so it can run beside other work."""

    def __new__(cls, sample_rate, channels, data):
        trace = super().__new__(cls, (sample_rate, channels))
        trace._data = data
        return trace

    @functools.cached_property
    def sha256(self):
        return hashlib.sha256(self._data).hexdigest()


def read_trace(path):
    """Read and decode a trace file in one pass over its bytes.

    The file is read into one bytearray, and the channels are writable
    float32 views into it (see decode_trace): no sample is copied.
    """
    with open(path, "rb") as handle:
        data = bytearray(os.fstat(handle.fileno()).st_size)
        del data[handle.readinto(data):]
    return TraceFile(*decode_trace(data), data)


# ---------------------------------------------------------------------------
# spectrum CSV

SPECTRUM_COLUMNS = ("f_hz", "s_i", "s_p", "s_i_db", "s_p_db")


def _fmt(value):
    return "" if value is None else format(float(value), ".17g")


def write_spectrum_csv(path, frequencies, amplitude=None, phase=None):
    """Write the shared spectrum CSV; either channel column may be absent."""
    rows = [",".join(SPECTRUM_COLUMNS)]
    n = len(frequencies)
    for i in range(n):
        s_i = None if amplitude is None else amplitude[i]
        s_p = None if phase is None else phase[i]
        rows.append(",".join([
            _fmt(frequencies[i]), _fmt(s_i), _fmt(s_p),
            _fmt(None if s_i is None else 10.0 * math.log10(s_i)),
            _fmt(None if s_p is None else 10.0 * math.log10(s_p)),
        ]))
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_spectrum_csv(path):
    """Read the spectrum CSV back into (frequencies, amplitude|None, phase|None).

    Text that is not UTF-8 or a cell that is not a number raises
    TraceFormatError, naming the byte offset or the row.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError("spectrum CSV is not UTF-8 text", byte_offset=exc.start) from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = set(SPECTRUM_COLUMNS[:3]) - set(reader.fieldnames or ())
    if missing:
        raise TraceFormatError(f"spectrum CSV missing columns {sorted(missing)}")
    freqs, s_i, s_p = [], [], []
    for row in reader:
        try:
            freqs.append(float(row["f_hz"]))
            s_i.append(float(row["s_i"]) if row["s_i"] else None)
            s_p.append(float(row["s_p"]) if row["s_p"] else None)
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"spectrum CSV line {reader.line_num} holds a cell that is not a number: {exc}"
            ) from exc
    def collapse(col):
        if all(v is None for v in col):
            return None
        if any(v is None for v in col):
            raise TraceFormatError("spectrum CSV has a partially filled channel column")
        return np.array(col, dtype=float)
    return np.array(freqs, dtype=float), collapse(s_i), collapse(s_p)


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
