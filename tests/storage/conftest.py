"""Shared helpers for the storage tests."""

import pytest


class _CountingFile:
    """A journal's log file object with its ``write`` calls counted."""

    def __init__(self, fh):
        self._fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def count_writes():
    """``count_writes(journal)`` wraps the open log file; returns the counter."""

    def wrap(journal):
        journal._fh = counting = _CountingFile(journal._fh)
        return counting

    return wrap
