"""Cross-transaction group commit.

The commit protocol of Section 3.3 persists a transaction's data first and
its commit record second.  When several transactions commit on the same node
at (nearly) the same time, those two steps can be shared: one combined
:class:`~repro.core.io_plan.IOPlan` persists *every* transaction's data in
stage one and *every* commit record in stage two.  The write-ordering
invariant is preserved — conservatively strengthened, even: no commit record
of the batch becomes durable before all data of the batch is durable, so a
crash mid-flush can never expose a fractured read.

The :class:`GroupCommitter` implements the classic leader-based protocol:

* A committing thread enqueues its :class:`PendingCommit`.  If no flush is in
  progress it becomes the *leader*; otherwise it waits for a leader to flush
  on its behalf.
* The leader optionally waits up to ``window`` seconds for more committers to
  arrive (bounded by ``max_txns`` per batch), drains the queue, and executes
  one combined commit plan per batch.

With a single caller the committer degenerates gracefully into the plain
two-stage commit plan — batching is purely opportunistic.  The explicit
:meth:`commit_batch` entry point lets deterministic callers (benchmarks, the
simulator's preload, tests) coalesce a known set of transactions without
relying on thread timing.

:class:`AsyncGroupCommitter` is the event-loop counterpart used by the async
node entry points: the first commit to open a batch schedules a flush task
that sleeps the window on the loop (``asyncio.sleep``) instead of parking a
leader thread, and the flush persists the batch through
:func:`execute_commit_plan_async`.  Waiter cancellation never cancels the
flush — the flush runs in its own task, so a client timing out mid-commit
cannot abandon other members' durability.  Both committers share one copy of
the batch rule (fence check, merge, flush accounting) in :class:`_Committer`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.io_plan import IOPlan
from repro.observability import trace as tr
from repro.storage.base import StorageEngine


def execute_commit_plan(
    storage: StorageEngine,
    commit_store: CommitSetStore,
    data: Mapping[str, bytes],
    records: Mapping[str, bytes],
) -> None:
    """Persist ``data`` then ``records`` with write ordering preserved (§3.3).

    The single place that encodes the invariant for the pipelined path —
    used by both the per-transaction commit and the group-commit flush.  When
    data and records share an engine, one two-stage plan carries the ordering
    in its stage barrier; with a separate metadata engine the sequential plan
    executions provide it.
    """
    if commit_store.engine is storage:
        storage.execute_plan(IOPlan.commit(data, records))
    else:
        if data:
            storage.execute_plan(IOPlan.writes(data, name="data"))
        commit_store.engine.execute_plan(IOPlan.writes(records, name="commit-records"))


async def execute_commit_plan_async(
    storage: StorageEngine,
    commit_store: CommitSetStore,
    data: Mapping[str, bytes],
    records: Mapping[str, bytes],
) -> None:
    """Async twin of :func:`execute_commit_plan` — same §3.3 ordering.

    The stage barrier inside ``execute_plan_async`` (stage two's gather only
    starts after stage one's gather completed) carries the invariant; with a
    separate metadata engine the sequential awaits do.  Cancellation between
    the stages leaves data durable but no commit record — invisible garbage
    for the GC, never a fractured read.
    """
    if commit_store.engine is storage:
        await storage.execute_plan_async(IOPlan.commit(data, records))
    else:
        if data:
            await storage.execute_plan_async(IOPlan.writes(data, name="data"))
        await commit_store.engine.execute_plan_async(IOPlan.writes(records, name="commit-records"))


@dataclass
class GroupCommitStats:
    """Counters maintained by the committer (all under its lock)."""

    flushes: int = 0
    transactions_flushed: int = 0
    largest_batch: int = 0


@dataclass
class PendingCommit:
    """One transaction's contribution to a group-commit batch.

    ``data`` maps storage keys to payloads still in need of persistence
    (already-spilled versions are excluded — their keys are referenced by the
    record but need no rewrite).  ``record`` is the commit record to persist
    after the whole batch's data is durable.
    """

    txid: str
    record: CommitRecord
    data: Mapping[str, bytes] = field(default_factory=dict)
    #: Signalled once the flush containing this commit completed (or failed).
    done: threading.Event = field(default_factory=threading.Event)
    error: BaseException | None = None
    #: Size of the flush batch this commit rode in (set by the leader).
    batch_size: int = 0
    #: Trace context captured at enqueue, so the flush span (which runs on
    #: the leader's thread / its own task) can join a member's trace.
    trace: "tr.TraceContext | None" = None


class _Committer:
    """The state and the §3.3 batch rule both group committers share.

    A flush merges its members into one combined commit plan
    (:meth:`_merge`), persists it under one span (:meth:`_flush_span`), and
    accounts for it (:meth:`_flushed`); only *how* a batch forms and waits
    differs between the threaded and the event-loop committer.
    """

    def __init__(
        self,
        storage: StorageEngine,
        commit_store: CommitSetStore,
        window: float = 0.0,
        max_txns: int = 8,
        on_flush: Callable[[int], None] | None = None,
    ) -> None:
        if max_txns < 1:
            raise ValueError("group_commit_max_txns must be >= 1")
        self._storage = storage
        self._commit_store = commit_store
        self.window = float(window)
        self.max_txns = int(max_txns)
        #: Called after every flush with the batch size (used by the node to
        #: maintain its NodeStats counters under its own lock).
        self._on_flush = on_flush
        self._lock = threading.Lock()
        self.stats = GroupCommitStats()

    def _merge(self, batch: list[PendingCommit]) -> tuple[dict[str, bytes], dict[str, bytes]]:
        """Fence-check every member and merge the batch's data and records."""
        data: dict[str, bytes] = {}
        records: dict[str, bytes] = {}
        for pending in batch:
            # A fenced member poisons the whole batch: a combined plan cannot
            # be partially flushed, and a fenced node should not be flushing
            # at all — the error propagates to every member, which retries
            # on a live node.
            self._commit_store.check_record_fence(pending.record)
            data.update(pending.data)
            records[self._commit_store.record_storage_key(pending.record.txid)] = (
                pending.record.to_bytes()
            )
        return data, records

    @staticmethod
    def _flush_span(batch: list[PendingCommit], data: Mapping[str, bytes]):
        # A shared flush belongs to every member; the span joins the first
        # member's trace (the others keep causality via their enqueue spans).
        return tr.span(
            "gc.flush",
            txid=batch[0].txid,
            parent=batch[0].trace,
            n_txns=len(batch),
            n_keys=len(data),
        )

    def _flushed(self, batch_size: int) -> None:
        """Account for one successful flush."""
        with self._lock:
            self.stats.flushes += 1
            self.stats.transactions_flushed += batch_size
            self.stats.largest_batch = max(self.stats.largest_batch, batch_size)
        if self._on_flush is not None:
            self._on_flush(batch_size)


class GroupCommitter(_Committer):
    """Coalesces concurrent commits on one node into shared storage batches."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._queue: list[PendingCommit] = []
        self._leader_active = False
        self._arrival = threading.Event()

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def commit(self, pending: PendingCommit) -> PendingCommit:
        """Submit one commit; returns once it is durable (or raises).

        The calling thread either leads a flush (possibly carrying other
        queued commits with it) or waits for the current leader to flush on
        its behalf.
        """
        return self._submit([pending])[0]

    def commit_batch(self, pendings: list[PendingCommit]) -> list[PendingCommit]:
        """Submit several commits at once, guaranteeing they share batches.

        This is the deterministic path: callers that already hold a set of
        commit-ready transactions (the ablation benchmark, bulk loaders)
        coalesce them without depending on concurrent arrival timing.
        """
        if not pendings:
            return []
        return self._submit(pendings)

    # ------------------------------------------------------------------ #
    # Leader/follower machinery
    # ------------------------------------------------------------------ #
    def _submit(self, pendings: list[PendingCommit]) -> list[PendingCommit]:
        for pending in pendings:
            if pending.trace is None:
                pending.trace = tr.current_context()
            tr.annotate("gc.enqueue", txid=pending.txid)
        with self._lock:
            self._queue.extend(pendings)
            self._arrival.set()
            is_leader = not self._leader_active
            if is_leader:
                self._leader_active = True
        if is_leader:
            self._wait_for_window()
            self._run_leader()
        else:
            for pending in pendings:
                pending.done.wait()
        for pending in pendings:
            if pending.error is not None:
                raise pending.error
        return pendings

    def _wait_for_window(self) -> None:
        """Give followers up to ``window`` seconds to join the first batch."""
        if self.window <= 0:
            return
        deadline = time.monotonic() + self.window
        while True:
            with self._lock:
                if len(self._queue) >= self.max_txns:
                    return
                self._arrival.clear()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._arrival.wait(timeout=remaining)

    def _run_leader(self) -> None:
        """Flush batches until the queue is empty, then release leadership."""
        while True:
            with self._lock:
                if not self._queue:
                    # Leadership must be released in the same critical section
                    # as the emptiness check, or a committer arriving between
                    # the two would wait forever on a departed leader.
                    self._leader_active = False
                    return
                batch = self._queue[: self.max_txns]
                del self._queue[: self.max_txns]
            try:
                self._flush(batch)
            except BaseException as exc:  # noqa: BLE001 - propagated per commit
                for pending in batch:
                    pending.error = exc
            finally:
                for pending in batch:
                    pending.batch_size = len(batch)
                    pending.done.set()

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #
    def _flush(self, batch: list[PendingCommit]) -> None:
        """Persist one batch with the combined two-stage commit plan."""
        data, records = self._merge(batch)
        with self._flush_span(batch, data):
            execute_commit_plan(self._storage, self._commit_store, data, records)
        self._flushed(len(batch))


class _AsyncBatch:
    """One open event-loop batch: its members and the future they await."""

    __slots__ = ("members", "future")

    def __init__(self, future: "asyncio.Future[None]") -> None:
        self.members: list[PendingCommit] = []
        self.future = future


class AsyncGroupCommitter(_Committer):
    """Event-loop group commit: an ``asyncio.sleep`` timer replaces the leader.

    All state transitions happen on the event loop with no ``await`` between
    checking the open batch and appending to it, so no lock is needed for the
    batching itself (stats still take one — they are shared with sync-side
    readers).  The flush runs as its own task: member cancellation cannot
    interrupt it, and each member still gets ``done`` / ``error`` /
    ``batch_size`` set on its :class:`PendingCommit` exactly like the
    threaded committer, so callers can share the finalize logic.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open: _AsyncBatch | None = None
        #: Strong references to in-flight flush tasks (the event loop only
        #: keeps weak ones; an unreferenced task may be garbage collected).
        self._flush_tasks: set[asyncio.Task] = set()

    async def commit(self, pending: PendingCommit) -> PendingCommit:
        """Submit one commit; returns once its batch flushed (or raises)."""
        return (await self.commit_batch([pending]))[0]

    async def commit_batch(self, pendings: list[PendingCommit]) -> list[PendingCommit]:
        """Submit several commits, guaranteeing they share (chunked) batches."""
        if not pendings:
            return []
        loop = asyncio.get_running_loop()
        batches: list[_AsyncBatch] = []
        for pending in pendings:
            if pending.trace is None:
                pending.trace = tr.current_context()
            tr.annotate("gc.enqueue", txid=pending.txid)
            batch = self._open
            if batch is None or len(batch.members) >= self.max_txns:
                batch = _AsyncBatch(future=loop.create_future())
                self._open = batch
                task = loop.create_task(self._flush_after_window(batch))
                self._flush_tasks.add(task)
                task.add_done_callback(self._flush_tasks.discard)
            batch.members.append(pending)
            if not batches or batches[-1] is not batch:
                batches.append(batch)
        await asyncio.gather(*(batch.future for batch in batches))
        for pending in pendings:
            if pending.error is not None:
                raise pending.error
        return pendings

    async def _flush_after_window(self, batch: _AsyncBatch) -> None:
        """Flush task: wait the window, close the batch, persist it."""
        if self.window > 0:
            await asyncio.sleep(self.window)
        if self._open is batch:
            self._open = None
        members = batch.members
        try:
            data, records = self._merge(members)
            with self._flush_span(members, data):
                await execute_commit_plan_async(self._storage, self._commit_store, data, records)
            self._flushed(len(members))
        except BaseException as exc:  # noqa: BLE001 - propagated per commit
            for pending in members:
                pending.error = exc
        finally:
            for pending in members:
                pending.batch_size = len(members)
                pending.done.set()
            if not batch.future.done():
                batch.future.set_result(None)
