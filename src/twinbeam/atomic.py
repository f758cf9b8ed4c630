"""Atomic file writes: output appears whole at its path, or not at all.

Plain standard library, so `twinbeam certify --out` writes its report
without loading numpy; fileio writes its traces and CSVs through it too.
Importing it changes no process-wide state.  json_text gives every JSON
artifact its text, and every JSON document the cli reads, the config and
certify's analysis, is parsed with unique_keys as its object_pairs_hook.
"""

import contextlib
import json
import os
from reprlib import repr as _brief  # a long outside value prints cut short

from .errors import UsageError


@contextlib.contextmanager
def atomic_file(path):
    """A new sibling temp file, .twinbeam-<16 hex digits>, opened for reading
    and writing, that is renamed onto path if the block succeeds and removed
    if it does not, so readers never see partial output.  Mode "x+b" creates
    it or fails, so no other file is opened or removed, and gives it the
    mode open(path, "w") would: 0o666 less the umask.  The yielded handle's
    name is the temp file's path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".twinbeam-{os.urandom(8).hex()}")
    handle = open(tmp, "x+b")
    try:
        with handle:
            yield handle
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


def json_text(payload):
    """payload as strict JSON (no NaN or Infinity), indented, with sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def unique_keys(pairs):
    """json.load's object_pairs_hook: the object as a dict, or UsageError if
    a key repeats, where json.load would keep its last value alone."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise UsageError(f"JSON object repeats key {_brief(key)}")
        document[key] = value
    return document


def write_json(path, payload):
    atomic_write_text(path, json_text(payload) + "\n")
