"""On-disk formats: the binary trace file and the spectrum CSV.

Trace file layout (all little-endian):
    magic "TWBM" | version u32 | sample_rate f64 | channel_count u32 |
    sample_count u64 | channel name table (u32 byte length + UTF-8, repeated) |
    payload: channels sequential, samples as f32, every sample finite.

The format takes any ordered set of named channels.  The CLI writes the four
measured channels analyze reads (pipeline.TRACE_CHANNELS); the combinations
behind them and per-beam series are not stored.
Each channel sits at a fixed offset, so write_trace fills the payload as
the channels' BlockSeries are produced, on two workers (on_two_workers),
each channel through a handle of its own that starts at the channel's
offset and writes its blocks in order; it then hashes the finished file and
renames it into place.  read_trace mirrors it: it checks the header and the
file size, then hands out each channel as a BlockSeries that reads and
checks float32 blocks from the channel's offset, through a handle of its
own, as they are taken, so no whole channel is held and channels can be
read from more than one thread.  file_sha256 hashes a file in fixed-size
chunks, apart from the channel reads.  hashlib and concurrent.futures are
imported by the one function that uses each, so `twinbeam fit`, which reads
only a spectrum CSV here, loads neither.
"""

import csv
import io
import math
import os
import re
import shutil
import struct
from reprlib import repr as _brief  # a long outside value prints cut short

import numpy as np

from .atomic import atomic_file, atomic_write_text, write_json  # write_json: fileio's name for it
from .errors import DomainError, TraceFormatError
from .series import BlockSeries

TRACE_MAGIC = b"TWBM"
TRACE_VERSION = 1
_READ_SAMPLES = 2 ** 16  # samples per block read_trace reads from a channel
_HASH_CHUNK = 2 ** 20  # bytes per read while hashing a file


# ---------------------------------------------------------------------------
# binary trace format

def on_two_workers(calls):
    """Run each call, a (function, *args) tuple, on two worker threads, in order.

    Each call is queued as soon as the iterable `calls` yields it, so a
    worker can start on it while the next is made.  Returns the results in
    call order.  A failure cancels the calls still queued, and the first
    failure in call order is raised here, once the calls already running
    are done.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: fit imports fileio and needs none

    pool = ThreadPoolExecutor(max_workers=2)
    try:
        futures = [pool.submit(*call) for call in calls]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def write_trace(path, sample_rate, channels):
    """Write the ordered {name: series} `channels` as a new trace file at path.

    Each series is an array or a BlockSeries; an array is wrapped as a
    BlockSeries of one block.  Channels of unequal length, a trace whose
    bytes would pass the largest file offset, 2^63 - 1, and a trace larger
    than the free space of path's directory are refused with DomainError
    before anything is written.  The channels are then written on two
    workers, each through a handle of its own on the temp file that starts
    at the channel's fixed offset and writes the blocks in order as
    blocks() yields them; blocks() refuses a series of another length
    (RuntimeError).  A sample that is not finite as a float32 raises
    DomainError, naming it, so no trace holds one.  The file appears at path only once every channel is
    written, and no file is left behind on failure.  Returns the hex sha256
    of its bytes, read back from the temp file before the rename.
    """
    channels = {name: series if isinstance(series, BlockSeries)
                else BlockSeries(len(series), (np.asarray(series),))
                for name, series in channels.items()}
    num_samples = next(iter(channels.values())).length if channels else 0
    for name, series in channels.items():
        if series.length != num_samples:
            raise DomainError(f"channel {name!r} has {series.length} samples, "
                              f"not the {num_samples} of the first channel")
    table = b"".join(struct.pack("<I", len(raw)) + raw
                     for raw in (name.encode("utf-8") for name in channels))
    payload = len(TRACE_MAGIC) + struct.calcsize("<IdIQ") + len(table)
    size = payload + 4 * num_samples * len(channels)
    if size > 2 ** 63 - 1:  # the largest file offset
        raise DomainError(f"a trace of {len(channels)} channels of {num_samples} samples "
                          "is too large for a file")
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    if size > free:
        raise DomainError(f"a trace of {size} bytes does not fit in the {free} bytes free for it")

    def write_channel(name, offset, series):
        with open(handle.name, "r+b") as out:
            out.seek(offset)
            count = 0
            for block in series.blocks():
                with np.errstate(over="ignore"):  # an overflow is reported below
                    data = np.ascontiguousarray(block, dtype="<f4")
                finite = np.isfinite(data)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise DomainError(f"channel {name!r} sample {count + bad} is {block[bad]}, "
                                      "not finite as a float32")
                out.write(data)
                count += len(data)

    with atomic_file(path) as handle:
        handle.write(TRACE_MAGIC)
        handle.write(struct.pack("<IdIQ", TRACE_VERSION, sample_rate, len(channels), num_samples))
        handle.write(table)
        on_two_workers((write_channel, name, payload + 4 * num_samples * i, series)
                       for i, (name, series) in enumerate(channels.items()))
        handle.flush()
        return _sha256(handle)


def _require(size, offset, count, what):
    if offset + count > size:
        raise TraceFormatError(
            f"trace truncated while reading {what}: need {count} bytes at offset {offset}, "
            f"file has {size}", byte_offset=offset)


def _take(handle, size, count, what):
    _require(size, handle.tell(), count, what)
    return handle.read(count)


def _read_header(handle, size):
    """(sample_rate, channel names, num_samples) from the header of a trace
    file of `size` bytes, leaving handle at the payload's start."""
    chunk = _take(handle, size, 4, "magic")
    if chunk != TRACE_MAGIC:
        raise TraceFormatError(f"bad magic {chunk!r} at offset 0", byte_offset=0)
    chunk = _take(handle, size, struct.calcsize("<IdIQ"), "header")
    version, sample_rate, channel_count, num_samples = struct.unpack("<IdIQ", chunk)
    if version != TRACE_VERSION:
        raise TraceFormatError(f"unsupported trace version {version}", byte_offset=4)
    if not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise TraceFormatError(f"invalid sample rate {sample_rate}", byte_offset=8)
    names = {}  # ordered, and a repeat is found in O(1)
    for i in range(channel_count):
        (name_len,) = struct.unpack("<I", _take(handle, size, 4, f"name length of channel {i}"))
        start = handle.tell()
        chunk = _take(handle, size, name_len, f"name of channel {i}")
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"channel {i} name is not valid UTF-8 at offset {start}",
                byte_offset=start) from exc
        if name in names:
            raise TraceFormatError(f"channel name {_brief(name)} repeats at offset {start}",
                                   byte_offset=start)
        names[name] = None
    return sample_rate, list(names), num_samples


def _channel_blocks(path, name, offset, num_samples):
    """The float32 samples of channel `name`, read from `offset` in blocks of
    _READ_SAMPLES through a handle of its own; a block holding a non-finite
    sample raises TraceFormatError at that sample's byte offset."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        for start in range(0, num_samples, _READ_SAMPLES):
            at = offset + 4 * start
            block = np.empty(min(_READ_SAMPLES, num_samples - start), dtype="<f4")
            if handle.readinto(block) != block.nbytes:
                raise TraceFormatError(
                    f"trace truncated while reading samples of channel {_brief(name)}",
                    byte_offset=at)
            finite = np.isfinite(block)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise TraceFormatError(
                    f"channel {_brief(name)} sample {start + bad} is {block[bad]}, not finite",
                    byte_offset=at + 4 * bad)
            yield block


def read_trace(path):
    """Open a trace file as (sample_rate, {name: BlockSeries of float32 samples}).

    The header is parsed and the file size checked against it here, before
    any sample is read: bad magic, a bad name, a truncated payload or
    trailing bytes raise TraceFormatError with the offending byte offset.
    Each channel is read only as its blocks are taken, _READ_SAMPLES
    samples at a time from its fixed offset through a handle of its own, so
    channels can be read at once from several threads; every block is
    checked finite as it is read (see _channel_blocks).  The file must not
    change while its channels are read.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        sample_rate, names, num_samples = _read_header(handle, size)
        offset = handle.tell()
    channels = {}
    for name in names:
        _require(size, offset, 4 * num_samples, f"samples of channel {_brief(name)}")
        channels[name] = BlockSeries(num_samples,
                                     _channel_blocks(path, name, offset, num_samples))
        offset += 4 * num_samples
    if offset != size:
        raise TraceFormatError(
            f"{size - offset} trailing bytes after payload", byte_offset=offset)
    return sample_rate, channels


def _sha256(handle):
    """The hex sha256 of handle's bytes, read from its start in _HASH_CHUNK pieces."""
    import hashlib  # here: fit imports fileio and hashes nothing

    handle.seek(0)
    digest = hashlib.sha256()
    chunk = bytearray(_HASH_CHUNK)
    view = memoryview(chunk)
    while count := handle.readinto(chunk):
        digest.update(view[:count])
    return digest.hexdigest()


def file_sha256(path):
    """The hex sha256 of the file at path, read in fixed-size chunks."""
    with open(path, "rb") as handle:
        return _sha256(handle)


# ---------------------------------------------------------------------------
# spectrum CSV

SPECTRUM_COLUMNS = ("f_hz", "s_i", "s_p", "s_i_db", "s_p_db")
_NOT_IN_A_NUMBER = re.compile(r"[^!-~]|_")  # a character outside visible ASCII, or "_"


def _fmt(value):
    return "" if value is None else format(float(value), ".17g")


def _db(value):
    return None if not value else 10.0 * math.log10(value)


def write_spectrum_csv(path, frequencies, amplitude=None, phase=None):
    """Write the shared spectrum CSV; either channel column may be absent.

    A dB cell is empty where its channel is absent or its linear value is 0.
    """
    rows = [",".join(SPECTRUM_COLUMNS)]
    n = len(frequencies)
    for i in range(n):
        s_i = None if amplitude is None else amplitude[i]
        s_p = None if phase is None else phase[i]
        rows.append(",".join([_fmt(frequencies[i]), _fmt(s_i), _fmt(s_p), _fmt(_db(s_i)),
                              _fmt(_db(s_p))]))
    atomic_write_text(path, "\n".join(rows) + "\n")


def _number(cell):
    """float(cell), but ValueError for spellings float reads and no CSV tool
    writes: a character that is not visible ASCII (whitespace, non-ASCII
    digits) or an underscore.  The error shows a long cell cut short."""
    try:
        return float("" if _NOT_IN_A_NUMBER.search(cell) else cell)  # float("") refuses too
    except ValueError:  # float's own message would repeat the cell whole
        raise ValueError(f"could not convert string to float: {_brief(cell)}") from None


def read_spectrum_csv(path):
    """Read the spectrum CSV back into (frequencies, amplitude|None, phase|None).

    Text that is not UTF-8, a header that names a column it reads twice, a
    cell that is not a number (see _number) or a field past the csv
    module's size limit raises TraceFormatError, naming the byte offset, the
    column or the line; nan and inf are numbers here, for the reader's
    caller to refuse.  Other columns may repeat, such as the empty names of
    the trailing cells a spreadsheet can write.  A leading UTF-8 byte-order
    mark, as spreadsheets write, is skipped.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise TraceFormatError("spectrum CSV is not UTF-8 text", byte_offset=exc.start) from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    freqs, s_i, s_p = [], [], []
    try:
        header = reader.fieldnames or []
        for name in SPECTRUM_COLUMNS[:3]:  # DictReader would read the last copy alone
            if header.count(name) > 1:
                raise TraceFormatError(f"spectrum CSV header repeats column {name!r}")
        missing = set(SPECTRUM_COLUMNS[:3]) - set(header)
        if missing:
            raise TraceFormatError(f"spectrum CSV missing columns {sorted(missing)}")
        for row in reader:
            freqs.append(_number(row["f_hz"]))
            s_i.append(_number(row["s_i"]) if row["s_i"] else None)
            s_p.append(_number(row["s_p"]) if row["s_p"] else None)
    except (TypeError, ValueError, csv.Error) as exc:  # csv.Error: a cell past its size limit
        raise TraceFormatError(  # the csv reader's count: the DictReader's lags on csv.Error
            f"spectrum CSV line {reader.reader.line_num} holds a cell that is not a number: {exc}"
        ) from exc
    def collapse(col):
        if all(v is None for v in col):
            return None
        if any(v is None for v in col):
            raise TraceFormatError("spectrum CSV has a partially filled channel column")
        return np.array(col, dtype=float)
    return np.array(freqs, dtype=float), collapse(s_i), collapse(s_p)
