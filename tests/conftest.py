"""Shared pytest plumbing for the suite.

The acceptance gate records one PASS/FAIL verdict line per release
criterion; emit them in the terminal summary so they survive output
capturing in a plain ``pytest -v`` run.

Hypothesis runs with no example database, so a run replays no example
saved by an earlier one against other code.
"""

from hypothesis import settings

settings.register_profile("twinbeam", database=None)
settings.load_profile("twinbeam")

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
