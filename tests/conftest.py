import hashlib
import re
import sys

import pytest

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if match and report.when == "call":
        _ACCEPTANCE[int(match.group(1))] = (match.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        name, outcome = _ACCEPTANCE[number]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{word}] {name}")


class _HashingStdout:
    """A stdout that keeps only the sha256 of the text written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writelines(self, chunks):
        for text in chunks:
            self.sha.update(text.encode())

    def flush(self):
        pass


@pytest.fixture
def hashed_main(monkeypatch):
    """``main`` with ``sys.stdout`` a ``_HashingStdout`` while it runs (set
    in the test's own call, where pytest's capture no longer swaps it):
    returns the exit code and the sha256 hex digest of the output."""
    from quasih.cli import main

    def run(argv):
        sink = _HashingStdout()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            code = main(argv)
        return code, sink.sha.hexdigest()

    return run
