"""How work is split over two workers: the calling thread and one
long-lived worker thread.

pair(a, b) runs a on the worker thread while the caller runs b, and
split_rows runs a function over the two halves of a row range the same
way.  The split is fixed (the first n // 2 rows on the worker, the rest on
the caller), never a function of the core count, so the results do not
depend on it.  numpy releases the interpreter lock inside BLAS and most
array loops, so the two run at once.

There is one worker thread.  A pair started while another is under way
(nested inside either part, or from another thread) runs both its parts
in turn on its own thread, with the same results.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_busy = threading.Lock()


def _new_worker():
    # the thread starts at the first submit, not at import
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spinrbm")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread: give it a fresh one
    os.register_at_fork(after_in_child=_new_worker)


def pair(on_worker, on_caller):
    """Return (on_worker(), on_caller()), the first run on the worker thread
    beside the second.  An error in either is raised only after both have
    finished, the worker's first.  Where the worker thread is taken, both
    run in turn on the calling thread, and an error in the first ends the
    call."""
    if not _busy.acquire(blocking=False):
        return on_worker(), on_caller()
    try:
        future = _worker.submit(on_worker)
        try:
            mine = on_caller()
        finally:
            theirs = future.result()
    finally:
        _busy.release()
    return theirs, mine


def split_rows(fn, n):
    """[fn(0, n // 2), fn(n // 2, n)], the first half on the worker; a range
    of fewer than 2 rows has no halves and gives [fn(0, n)]."""
    if n < 2:
        return [fn(0, n)]
    half = n // 2
    return list(pair(lambda: fn(0, half), lambda: fn(half, n)))


def matmul(a, b):
    """a @ b for matrices, its two row halves on the two workers.  Float
    overflow is not reported: callers check the result."""
    out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))

    def rows(lo, hi):
        # the error state is per thread: set it on the thread that computes
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(a[lo:hi], b, out=out[lo:hi])

    split_rows(rows, a.shape[0])
    return out
