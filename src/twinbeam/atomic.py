"""Atomic file writes: output appears whole at its path, or not at all.

Plain standard library, so `twinbeam certify --out` writes its report
without loading numpy; fileio writes its traces and CSVs through it too.
"""

import contextlib
import json
import os
import tempfile

# The umask is read only by setting it, for the whole process, so it is read
# once here, at import, where no worker thread of this program can race it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


@contextlib.contextmanager
def atomic_file(path):
    """A sibling temp file, opened for reading and writing, that is renamed
    onto path if the block succeeds and removed if it does not, so readers
    never see partial output.  The file gets the mode open(path, "w") would
    give it, 0o666 less the umask, not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".twinbeam-")
    try:
        with os.fdopen(fd, "w+b") as handle:
            yield handle
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write text as UTF-8 via a sibling temp file and rename, so readers never
    see partial output."""
    with atomic_file(path) as handle:
        handle.write(text.encode("utf-8"))


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
