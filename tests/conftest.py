"""Test-suite settings: property tests draw the same examples on every
run (derandomized hypothesis profile, no per-example deadline), and a
``time_limit`` fixture for regression tests of former hangs."""

import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("flatcover", derandomize=True, deadline=None)
settings.load_profile("flatcover")


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` raises TimeoutError once the block has run
    for s seconds, so a hang fails its test instead of stalling the run."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
