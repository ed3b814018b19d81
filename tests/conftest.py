"""Fixtures shared across test modules."""

import inspect
import sys
import threading

import pytest


class RowCache:
    """Each benchmark row function's rows, computed once per argument set.

    ``cache(fn, *args, **kwargs)`` returns ``fn(*args, **kwargs)``, from the
    first call with the same arguments, defaults filled in, when there was
    one.  The acceptance gate and the golden oracle read the same paper
    rows through it, so the suite runs each paper table once.
    """

    def __init__(self):
        self.rows = {}

    def __call__(self, fn, *args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn.__qualname__, repr(tuple(bound.arguments.items())))
        if key not in self.rows:
            self.rows[key] = fn(*args, **kwargs)
        return self.rows[key]


@pytest.fixture(scope="session")
def paper_rows():
    return RowCache()


@pytest.fixture()
def run_threads():
    """``run_threads(work)`` calls ``work(seed)`` for seeds 0-5, each in its
    own thread, all at once and switching every microsecond, so that their
    first calls of a cached kernel generator overlap; every thread must end
    within 60 s."""
    def run(work):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    return run
