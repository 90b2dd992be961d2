"""The shared IO runtime: one bounded executor for all blocking storage work.

IO plans never touch this executor: ``StorageEngine.execute_plan_async``
runs each plan stage as one op group on the event loop (wall-clock engines
overlap the group's ops over their ``*_async`` twins), and the sync facade
``execute_plan`` applies a stage's ops in order on the calling thread (see
:mod:`repro.storage.base`).  What remains here is the blocking work that has
no async twin: the node's pipeline-off sequential paths, which the async
entry points move off the event loop, and the fault manager's parallel
per-shard recovery replay, which runs through :func:`run_blocking_group`
instead of spinning up a private ``ThreadPoolExecutor`` per recovery.  All of
it shares one process-wide executor, so the number of in-flight blocking
requests is bounded no matter how many nodes or event loops are active.  The
executor's size is also the default per-stage op bound of the plan path
(:attr:`~repro.storage.base.StorageEngine.effective_io_concurrency`).

Re-entrancy: work submitted to the executor is marked with a thread-local
flag.  Code that would otherwise dispatch *more* work to the executor (a
nested fan-out inside a recovery replay, say) detects the flag via
:func:`in_io_worker` and runs inline instead — the classic nested-pool
deadlock (all workers blocked waiting for queue slots that only workers can
free) cannot occur.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

#: Default bound on concurrently executing storage requests.  Mirrors the
#: default of :attr:`repro.config.AftConfig.io_concurrency`.
DEFAULT_IO_CONCURRENCY = 16

_lock = threading.Lock()
_executor: ThreadPoolExecutor | None = None
_executor_size = DEFAULT_IO_CONCURRENCY

_worker_state = threading.local()


def io_executor() -> ThreadPoolExecutor:
    """Return the process-wide bounded IO executor (created on first use)."""
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=_executor_size, thread_name_prefix="aft-io"
            )
        return _executor


def io_executor_size() -> int:
    """Current worker bound of the shared executor."""
    return _executor_size


def configure_io_executor(max_workers: int) -> None:
    """Resize the shared executor (benchmarks sizing it to their client swarm).

    Safe to call at quiet points only: a live executor is shut down without
    waiting, so callers must not have work in flight.
    """
    global _executor, _executor_size
    if max_workers < 1:
        raise ValueError("io executor needs max_workers >= 1")
    with _lock:
        if max_workers == _executor_size and _executor is not None:
            return
        if _executor is not None:
            _executor.shutdown(wait=False)
            _executor = None
        _executor_size = int(max_workers)


def in_io_worker() -> bool:
    """True when the calling thread is one of the shared executor's workers."""
    return getattr(_worker_state, "active", False)


def run_marked(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` with the worker flag set (so nested dispatch stays inline)."""
    _worker_state.active = True
    try:
        return fn()
    finally:
        _worker_state.active = False


def marked(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap ``fn`` for executor dispatch: worker flag + context snapshot.

    ``ThreadPoolExecutor`` (and hence ``loop.run_in_executor``) does *not*
    carry :mod:`contextvars` into the worker thread, unlike asyncio tasks.
    Capturing a context snapshot at the dispatch site keeps context-local
    state — the observability plane's trace context, the storage ledger
    attachment — flowing across the thread hop, so a span opened around a
    dispatch still parents the work it does on a worker.
    """
    ctx = contextvars.copy_context()
    return lambda: ctx.run(run_marked, fn)


def submit_io(fn: Callable[[], Any]) -> Future:
    """Submit one blocking callable to the shared executor."""
    return io_executor().submit(marked(fn))


def run_blocking_group(
    fns: Sequence[Callable[[], Any]], concurrency: int | None = None
) -> list[Any]:
    """Run blocking callables concurrently on the shared executor.

    Results are returned in submission order.  At most ``concurrency``
    callables are in flight at once (default: the executor's own bound);
    the first exception is re-raised after the in-flight wave drains.  When
    called *from* an executor worker the callables run inline sequentially —
    see the module docstring on re-entrancy.
    """
    fns = list(fns)
    if len(fns) <= 1 or in_io_worker():
        return [fn() for fn in fns]
    limit = concurrency if concurrency is not None else _executor_size
    limit = max(1, int(limit))
    results: list[Any] = [None] * len(fns)
    for start in range(0, len(fns), limit):
        wave = {submit_io(fn): start + offset for offset, fn in enumerate(fns[start : start + limit])}
        for future, index in wave.items():
            results[index] = future.result()
    return results
