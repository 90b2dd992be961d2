"""Tests for the async IO runtime (PR 6).

Three properties anchor the runtime:

* **parity** — the async core and the sync facade are the same protocol:
  one plan on identical engines yields identical values, stage latencies,
  request counts, and stats counters either way;
* **ordering** — §3.3 survives the fan-out: a stage is a barrier, so no
  commit record is ever issued before the whole data stage finished, even
  with requests overlapping inside a stage;
* **cancellation** — a client timeout mid-plan kills the transaction, not
  the invariant: the commit-record stage simply never starts, so storage
  holds at most invisible (unreferenced) data.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import runtime
from repro.clock import LogicalClock
from repro.config import AftConfig
from repro.core.io_plan import IOPlan
from repro.core.node import AftNode
from repro.core.transaction import TransactionStatus
from repro.ids import TransactionId, commit_record_key, data_key, is_commit_record_key, is_data_key
from repro.nemesis.faults import TornWriteError, TornWriteStorage
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.latency import ConstantLatency, LatencyModel, ZeroLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage
from repro.storage.rediscluster import SimulatedRedisCluster
from repro.storage.s3 import SimulatedS3


def make_engine(kind: str):
    clock = LogicalClock(start=10.0, auto_step=0.001)
    latency = ConstantLatency(0.004)
    if kind == "memory":
        return InMemoryStorage(latency_model=latency, clock=clock)
    if kind == "dynamodb":
        return SimulatedDynamoDB(latency_model=latency, clock=clock, seed=3)
    if kind == "s3":
        return SimulatedS3(latency_model=latency, clock=clock, seed=3)
    if kind == "redis":
        return SimulatedRedisCluster(latency_model=latency, clock=clock, shard_count=2)
    raise ValueError(kind)


def commit_shaped_plan() -> IOPlan:
    data = {f"data/k{i}": f"v{i}".encode() for i in range(7)}
    records = {"commit/r1": b"record"}
    return IOPlan.commit(data, records)


class TestSyncAsyncParity:
    """One plan, two execution modes, identical observable outcomes."""

    @pytest.mark.parametrize("kind", ["memory", "dynamodb", "s3", "redis"])
    def test_plan_results_and_stats_match(self, kind):
        sync_engine = make_engine(kind)
        async_engine = make_engine(kind)

        sync_result = sync_engine.execute_plan(commit_shaped_plan())
        async_result = asyncio.run(async_engine.execute_plan_async(commit_shaped_plan()))

        assert async_result.values == sync_result.values
        assert async_result.stage_latencies == sync_result.stage_latencies
        assert async_result.requests_issued == sync_result.requests_issued
        assert async_result.total_latency == sync_result.total_latency
        assert async_engine.stats.snapshot() == sync_engine.stats.snapshot()

    @pytest.mark.parametrize("kind", ["memory", "s3"])
    def test_read_plan_parity(self, kind):
        sync_engine = make_engine(kind)
        async_engine = make_engine(kind)
        for engine in (sync_engine, async_engine):
            engine.multi_put({f"k{i}": b"x" * (i + 1) for i in range(5)})

        plan = IOPlan.reads([f"k{i}" for i in range(5)], name="parity-read")
        sync_result = sync_engine.execute_plan(plan)
        plan2 = IOPlan.reads([f"k{i}" for i in range(5)], name="parity-read")
        async_result = asyncio.run(async_engine.execute_plan_async(plan2))

        assert async_result.values == sync_result.values
        assert async_result.stage_latencies == sync_result.stage_latencies
        assert async_engine.stats.snapshot() == sync_engine.stats.snapshot()

    def test_node_level_read_parity(self):
        def build():
            node = AftNode(
                InMemoryStorage(),
                config=AftConfig(enable_data_cache=False),
                clock=LogicalClock(start=50.0, auto_step=0.001),
                node_id="parity-node",
            )
            node.start()
            txid = node.start_transaction("seed")
            for i in range(6):
                node.put(txid, f"key-{i}", f"value-{i}".encode())
            node.commit_transaction(txid)
            return node

        keys = [f"key-{i}" for i in range(6)]
        sync_node = build()
        t1 = sync_node.start_transaction("read")
        sync_values = sync_node.get_many(t1, keys)

        async_node = build()
        t2 = async_node.start_transaction("read")
        async_values = asyncio.run(async_node.get_many_async(t2, keys))

        assert async_values == sync_values
        assert async_node.stats.storage_value_reads == sync_node.stats.storage_value_reads


def run_sync(engine, plan):
    return engine.execute_plan(plan)


def run_async(engine, plan):
    return asyncio.run(engine.execute_plan_async(plan))


class TestErrorSemantics:
    """A failed data stage aborts the plan before its record stage — both facades."""

    @pytest.mark.parametrize("run", [run_sync, run_async], ids=["sync", "async"])
    @pytest.mark.parametrize("kind", ["memory", "s3"])
    def test_data_stage_failure_leaves_no_commit_record(self, run, kind):
        # memory batches (the multi_put is torn); s3 does not (a point put fails).
        inner = make_engine(kind)
        engine = TornWriteStorage(inner, mode="abort")
        engine.arm()
        txid = TransactionId(timestamp=1.0, uuid="torn")
        data = {data_key(f"k{i}", txid): b"v" for i in range(4)}
        plan = IOPlan.commit(data, {commit_record_key(txid): b"record"})

        with pytest.raises(TornWriteError):
            run(engine, plan)

        assert engine.torn_writes == 1
        stored = inner.list_keys()
        assert any(is_data_key(key) for key in stored)
        assert not any(is_commit_record_key(key) for key in stored)


class TestWallClockOverlap:
    """Wall-clock engines really overlap a stage's ops in the async core."""

    def overlap_engine(self, sleep_s: float = 0.02) -> LatencyInjectedStorage:
        # SimulatedS3 has no batch APIs, so an 8-key stage is 8 ops; the
        # injected sleeps are real.
        inner = SimulatedS3(latency_model=ZeroLatency(), clock=LogicalClock(auto_step=1e-6))
        return LatencyInjectedStorage(inner, injected=ConstantLatency(sleep_s))

    def test_async_core_overlaps_groups(self):
        engine = self.overlap_engine()
        items = {f"k{i}": b"v" for i in range(8)}

        async def run():
            start = time.monotonic()
            await engine.execute_plan_async(IOPlan.writes(items, name="overlap"))
            return time.monotonic() - start

        assert asyncio.run(run()) < 0.120

    def test_io_concurrency_bounds_the_fanout(self):
        engine = self.overlap_engine(sleep_s=0.02)
        engine.io_concurrency = 1
        items = {f"k{i}": b"v" for i in range(4)}

        async def run():
            start = time.monotonic()
            await engine.execute_plan_async(IOPlan.writes(items, name="bounded"))
            return time.monotonic() - start

        # A concurrency bound of one degenerates to the serial sum.
        assert asyncio.run(run()) >= 0.065
        assert engine.stats.writes == 4


class SizeLatency(LatencyModel):
    """``slow`` seconds for payloads of ``threshold`` bytes or more, else ``fast``."""

    def __init__(self, fast: float, slow: float, threshold: int) -> None:
        self.fast, self.slow, self.threshold = fast, slow, threshold

    def sample(self, op: str, n_items: int = 1, total_bytes: int = 0) -> float:
        return self.slow if total_bytes >= self.threshold else self.fast


class RecordingStorage(LatencyInjectedStorage):
    """Timestamps the completion of every write, sync or async."""

    def __init__(self, injected: LatencyModel) -> None:
        inner = SimulatedS3(latency_model=ZeroLatency(), clock=LogicalClock(auto_step=1e-6))
        super().__init__(inner, injected=injected)
        self.completions: list[tuple[str, float]] = []
        self._completions_lock = threading.Lock()

    def _record(self, keys) -> None:
        with self._completions_lock:
            now = time.monotonic()
            self.completions.extend((key, now) for key in keys)

    def put(self, key, value):
        super().put(key, value)
        self._record([key])

    async def put_async(self, key, value):
        await super().put_async(key, value)
        self._record([key])

    async def multi_put_async(self, items):
        await super().multi_put_async(items)
        self._record(items)


class TestWriteOrderingUnderFanout:
    def test_commit_record_lands_after_all_data(self):
        # Data writes take 30 ms, the record 1 ms: issued together, the
        # record would complete first; only the stage barrier orders it last.
        engine = RecordingStorage(injected=SizeLatency(fast=0.001, slow=0.03, threshold=1024))
        data = {f"data/k{i}": b"x" * 2048 for i in range(6)}
        records = {"commit/r": b"record"}

        asyncio.run(engine.execute_plan_async(IOPlan.commit(data, records)))

        data_times = [t for key, t in engine.completions if key in data]
        record_times = [t for key, t in engine.completions if key in records]
        # Every data write was observed completing: the ordering check
        # below compares real timestamps, not an empty list.
        assert len(data_times) == 6 and len(record_times) == 1
        # The stage barrier: every data write completed before the record
        # write even started (completion-before-completion is implied).
        assert max(data_times) <= min(record_times)


class TestCancellation:
    def make_slow_node(self) -> tuple[AftNode, RecordingStorage]:
        # Small payloads land in 1 ms, large ones take 500 ms: a commit of
        # both is cancelled mid-data-stage with some data already durable.
        engine = RecordingStorage(injected=SizeLatency(fast=0.001, slow=0.5, threshold=1024))
        node = AftNode(
            engine,
            config=AftConfig(enable_data_cache=False),
            node_id="cancel-node",
        )
        node.start()
        return node, engine

    def test_client_timeout_mid_commit_leaves_no_record(self):
        node, engine = self.make_slow_node()

        async def run():
            txid = node.start_transaction("doomed")
            for i in range(4):
                value = b"v" if i % 2 == 0 else b"x" * 4096
                node.put(txid, f"key-{i}", value)
            with pytest.raises(asyncio.TimeoutError):
                # The large data writes sleep 500 ms; cancel long before.
                await asyncio.wait_for(node.commit_transaction_async(txid), timeout=0.05)
            return txid

        txid = asyncio.run(run())
        # The data stage really ran: its small writes completed before the
        # cancellation, the large ones were cancelled with it.
        data_keys = [key for key, _ in engine.completions if is_data_key(key)]
        assert len(data_keys) == 2
        # The record stage never ran, so the transaction is invisible.
        assert not any(is_commit_record_key(key) for key, _ in engine.completions)
        transaction = node._transactions[txid]
        assert transaction.status is not TransactionStatus.COMMITTED


class TestAsyncGroupCommit:
    def make_group_node(self) -> AftNode:
        node = AftNode(
            InMemoryStorage(),
            config=AftConfig(
                enable_group_commit=True,
                group_commit_window=0.005,
                group_commit_max_txns=8,
            ),
            node_id="async-gc-node",
        )
        node.start()
        return node

    def test_concurrent_commits_share_flushes(self):
        node = self.make_group_node()

        async def one(i: int):
            txid = node.start_transaction(f"t{i}")
            await node.put_async(txid, f"key-{i}", b"v")
            return await node.commit_transaction_async(txid)

        async def run():
            return await asyncio.gather(*[one(i) for i in range(8)])

        commit_ids = asyncio.run(run())
        assert len(commit_ids) == 8
        assert node.stats.group_commit_batched_txns == 8
        # Coalescing happened: strictly fewer flushes than transactions.
        assert 0 < node.stats.group_commits < 8
        # All committed data is durably visible afterwards.
        txid = node.start_transaction("check")
        values = node.get_many(txid, [f"key-{i}" for i in range(8)])
        assert all(value == b"v" for value in values.values())

    def test_commit_transactions_async_batches(self):
        node = self.make_group_node()

        async def run():
            txids = []
            for i in range(5):
                txid = node.start_transaction(f"b{i}")
                await node.put_async(txid, f"bk-{i}", b"w")
                txids.append(txid)
            return await node.commit_transactions_async(txids)

        results = asyncio.run(run())
        assert len(results) == 5
        assert node.stats.group_commit_batched_txns == 5


class TestLatencyInjectedStorage:
    def make(self, sleep_s: float = 0.0) -> LatencyInjectedStorage:
        return LatencyInjectedStorage(InMemoryStorage(), injected=ConstantLatency(sleep_s))

    def test_full_engine_surface_delegates(self):
        engine = self.make()
        assert engine.wall_clock_io
        # Batch capabilities mirror the inner engine.
        assert engine.supports_batch_writes and engine.supports_batch_reads

        engine.put("a/1", b"x")
        engine.multi_put({"a/2": b"y", "b/1": b"z"})
        assert engine.get("a/1") == b"x"
        fetched = engine.multi_get(["a/2", "b/1", "missing"])
        assert fetched["a/2"] == b"y" and fetched["b/1"] == b"z"
        assert fetched.get("missing") is None
        assert sorted(engine.list_keys("a/")) == ["a/1", "a/2"]
        assert engine.size() == 3
        engine.delete("a/1")
        engine.multi_delete(["a/2", "b/1"])
        assert engine.size() == 0
        assert engine.stats.writes == 1 and engine.stats.batch_writes == 1
        assert engine.stats.reads == 1 and engine.stats.batch_reads == 1
        # One point delete + one multi_delete request (3 items total).
        assert engine.stats.deletes == 2 and engine.stats.items_deleted == 3
        assert engine.stats.lists == 1

    def test_injected_latency_really_sleeps(self):
        engine = self.make(sleep_s=0.02)
        start = time.monotonic()
        engine.put("k", b"v")
        assert time.monotonic() - start >= 0.015
        # Charged latency stays zero: the cost ledger sees nothing.
        assert engine.latency_model.sample("write", 1, 1) == 0.0


class TestRuntimeHelpers:
    def test_configure_io_executor_validates(self):
        with pytest.raises(ValueError):
            runtime.configure_io_executor(0)

    def test_worker_flag_marks_pool_threads(self):
        assert not runtime.in_io_worker()
        flags = runtime.run_blocking_group([runtime.in_io_worker] * 3)
        assert all(flags)
        assert not runtime.in_io_worker()

    def test_nested_dispatch_runs_inline(self):
        def outer():
            # A nested fan-out from inside a worker must not wait on the
            # same pool it occupies — it degrades to inline execution.
            return runtime.run_blocking_group([lambda: threading.current_thread().name] * 2)

        (names,) = runtime.run_blocking_group([outer])
        assert len(set(names)) == 1  # both inner thunks ran on the one worker

    def test_config_validates_io_concurrency(self):
        with pytest.raises(ValueError):
            AftConfig(io_concurrency=0)
        config = AftConfig(io_concurrency=4)
        assert config.as_dict()["io_concurrency"] == 4

    def test_node_applies_io_concurrency_to_engines(self):
        engine = InMemoryStorage()
        node = AftNode(engine, config=AftConfig(io_concurrency=3), node_id="knob-node")
        assert engine.io_concurrency == 3
        assert engine.effective_io_concurrency == 3
        assert node.config.io_concurrency == 3
