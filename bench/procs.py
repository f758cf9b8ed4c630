"""Child processes for the benchmark: one at a time, each with its own peak RSS.

`os.wait4` reaps the child and returns the rusage of that child alone.
`RUSAGE_CHILDREN` would instead keep a single maximum over every child the
benchmark ever waited for, so one large `synth` would hide the peak of each
later `analyze`.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

# The console-script entry point of the package, spelled out so the CLI runs
# from the source tree without an installed `twinbeam` command.
CLI_MAIN = "import sys; from twinbeam.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def child_env(src_dir):
    """The caller's environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + old if old else "")
    return env


def _kill(pidfd):
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv, cwd, env, timeout_s):
    """Run argv to completion; wall time covers spawn, interpreter start and exit.

    A child still running after timeout_s is killed and reported with the
    signal's negative return code.  The pidfd makes the kill safe against
    pid reuse once the child has been reaped.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        timer = threading.Timer(timeout_s, _kill, (pidfd,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(pidfd)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            returncode=proc.returncode,
            wall_s=wall,
            peak_rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def cli(args, cwd, env, timeout_s):
    """One `twinbeam <args>` invocation as a fresh process."""
    return run([sys.executable, "-c", CLI_MAIN, *args], cwd, env, timeout_s)
