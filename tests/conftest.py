"""A per-test time limit, so that a test that hangs fails instead.

Every test gets ``TEST_TIME_LIMIT_S`` seconds of wall time through stdlib
``signal.alarm``.  The limit sits well above the slowest test and above every
acceptance bound a test asserts itself, so it shortens none of them; it only
turns a run that would never end into a failure that names the test.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 300


def _expire(signum, frame):
    pytest.fail(f"test ran past the {TEST_TIME_LIMIT_S} s per-test limit", pytrace=False)


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm on this platform: run unguarded
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
