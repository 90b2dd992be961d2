"""In-process replay: the core protocol and storage timed with no transport.

The same generated inputs the process run used are replayed sequentially
through one :class:`~repro.core.node.AftNode` over an ``InMemoryStorage``
subclass that times every call; the subclass is both the data engine and the
``CommitSetStore`` engine.  Per-call wall time of the node's public methods
gives ``core.*``; time inside storage calls gives ``storage.busy_ms_per_txn``.
"""

from __future__ import annotations

import statistics
import time

from repro.core.commit_set import CommitSetStore
from repro.core.node import AftNode
from repro.storage.memory import InMemoryStorage
from workloads import PRELOAD_CHUNK, Txn, Workload


class TimedStorage(InMemoryStorage):
    """``InMemoryStorage`` that sums the wall time spent in its calls."""

    def __init__(self) -> None:
        super().__init__()
        self.busy_s = 0.0
        self.calls = 0

    def _timed(self, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy_s += time.perf_counter() - t
            self.calls += 1

    def get(self, key):
        return self._timed(super().get, key)

    def put(self, key, value):
        return self._timed(super().put, key, value)

    def delete(self, key):
        return self._timed(super().delete, key)

    def list_keys(self, prefix=""):
        return self._timed(super().list_keys, prefix)

    def multi_get(self, keys):
        return self._timed(super().multi_get, keys)

    def multi_put(self, items):
        return self._timed(super().multi_put, items)

    def multi_delete(self, keys):
        return self._timed(super().multi_delete, keys)


def replay(workload: Workload, txns: list[Txn], tag) -> dict:
    """Preload, then run ``txns`` one after another; per-call timings in ms.

    ``tag(txid, key, writes)`` builds the same tagged values the process
    run wrote.
    """
    storage = TimedStorage()
    node = AftNode(storage=storage, commit_store=CommitSetStore(storage), node_id="replay")
    node.start()
    try:
        keys = workload.keys
        for i in range(0, len(keys), PRELOAD_CHUNK):
            txid = node.start_transaction()
            for key in keys[i : i + PRELOAD_CHUNK]:
                node.put(txid, key, tag(txid, key, frozenset()).to_bytes())
            node.commit_transaction(txid)

        storage.busy_s = 0.0
        calls: dict[str, list[float]] = {"start": [], "get": [], "put": [], "commit": []}
        clock = time.perf_counter
        began = clock()
        for txn in txns:
            t = clock()
            txid = node.start_transaction()
            calls["start"].append(clock() - t)
            if workload.read_many:
                t = clock()
                node.get_many(txid, list(txn.reads))
                calls["get"].append(clock() - t)
            else:
                for key in txn.reads:
                    t = clock()
                    node.get(txid, key)
                    calls["get"].append(clock() - t)
            writes = frozenset(txn.writes)
            for key in txn.writes:
                value = tag(txid, key, writes).to_bytes()
                t = clock()
                node.put(txid, key, value)
                calls["put"].append(clock() - t)
            t = clock()
            node.commit_transaction(txid)
            calls["commit"].append(clock() - t)
        elapsed = clock() - began
    finally:
        node.stop()
    n = len(txns)
    in_calls = sum(sum(v) for v in calls.values())
    return {
        "txns": n,
        # Means, not medians: the amortised cost of periodic work (index
        # compaction every so many commits) belongs in the per-call figure.
        "get_ms": statistics.fmean(calls["get"]) * 1e3,
        "commit_ms": statistics.fmean(calls["commit"]) * 1e3,
        # Core + storage time per transaction: the node's public calls.
        "ms_per_txn": in_calls / n * 1e3,
        "storage_busy_ms_per_txn": storage.busy_s / n * 1e3,
        "elapsed_s": elapsed,
    }
