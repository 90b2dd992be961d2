"""The load generator: one asyncio loop, a few ``AsyncRouterClient`` connections.

Every value written is a :class:`~repro.consistency.metadata.TaggedValue`
naming its writer, so after the run the swarm's observations are replayed
through the :class:`~repro.consistency.checker.AnomalyChecker` and a sample
of written keys is read back through every node.
"""

from __future__ import annotations

import asyncio
import random
import time
import zlib
from dataclasses import dataclass, field

from repro.consistency.checker import AnomalyChecker, TransactionLog
from repro.consistency.metadata import TaggedValue
from repro.ids import TransactionId
from repro.rpc import messages as m
from repro.rpc.client import AsyncRouterClient
from workloads import PAYLOAD_BYTES, PRELOAD_CHUNK, InputGenerator, Txn, Workload

OPS = ("start", "get", "put", "commit")


@dataclass
class Outcome:
    """One finished transaction, as the generator saw it."""

    txn: Txn
    txid: str = ""
    token: str = ""
    #: (key, raw value) per read, decoded only after the run.
    reads: list[tuple[str, bytes | None]] = field(default_factory=list)
    writes: dict[str, TransactionId] = field(default_factory=dict)
    error: str = ""
    end: float = 0.0


class Swarm:
    """Issues transactions and keeps everything the checks need."""

    def __init__(self, workload: Workload, gen: InputGenerator, clients: list[AsyncRouterClient]):
        self.workload = workload
        self.gen = gen
        self.clients = clients
        self.block = gen.payload_block()
        self.outcomes: list[Outcome] = []
        self.preload_orders: dict[str, TransactionId] = {}
        #: Per-call wall time in seconds, by operation, when timing is on.
        self.call_s: dict[str, list[float]] = {op: [] for op in OPS}

    def tag(self, txid: str, key: str, writes: frozenset[str]) -> TaggedValue:
        """The tagged value a transaction writing ``writes`` puts at ``key``."""
        start = zlib.crc32(key.encode()) % (len(self.block) - PAYLOAD_BYTES)
        return TaggedValue(
            payload=self.block[start : start + PAYLOAD_BYTES],
            timestamp=time.time(),
            uuid=txid,
            cowritten=writes,
        )

    # ------------------------------------------------------------------ #
    async def preload(self, concurrency: int = 4) -> None:
        """Write every key once, ``PRELOAD_CHUNK`` keys per transaction."""
        keys = self.workload.keys
        pending = [keys[i : i + PRELOAD_CHUNK] for i in range(0, len(keys), PRELOAD_CHUNK)][::-1]

        async def worker(client: AsyncRouterClient) -> None:
            while pending:
                chunk = pending.pop()
                txid = await client.start_transaction()
                # The preload writes each key's first version: nothing older
                # exists to fracture against, so its tags name no cowrites
                # (a 500-key cowritten list would swamp 64 B values).
                items = {key: self.tag(txid, key, frozenset()).to_bytes() for key in chunk}
                await client.put_many(txid, items)
                token = await client.commit_transaction(txid)
                self.preload_orders[txid] = TransactionId.from_token(token)

        await asyncio.gather(*(worker(self.clients[i % len(self.clients)]) for i in range(concurrency)))

    # ------------------------------------------------------------------ #
    async def run_txn(self, client: AsyncRouterClient, txn: Txn, timed: bool) -> Outcome:
        out = Outcome(txn=txn)
        clock = time.perf_counter
        calls = self.call_s
        try:
            t = clock()
            txid = out.txid = await client.start_transaction()
            if timed:
                calls["start"].append(clock() - t)
            if self.workload.read_many:
                t = clock()
                values = await client.get_many(txid, list(txn.reads))
                if timed:
                    calls["get"].append(clock() - t)
                out.reads = [(key, values[key]) for key in txn.reads]
            else:
                for key in txn.reads:
                    t = clock()
                    raw = await client.get(txid, key)
                    if timed:
                        calls["get"].append(clock() - t)
                    out.reads.append((key, raw))
            writes = frozenset(txn.writes)
            for key in txn.writes:
                tag = self.tag(txid, key, writes)
                t = clock()
                await client.put(txid, key, tag.to_bytes())
                if timed:
                    calls["put"].append(clock() - t)
                out.writes[key] = tag.version
            t = clock()
            out.token = await client.commit_transaction(txid)
            if timed:
                calls["commit"].append(clock() - t)
        except Exception as exc:  # a failed txn is counted, never fatal
            out.error = f"{type(exc).__name__}: {exc}"
        out.end = clock()
        self.outcomes.append(out)
        return out

    # ------------------------------------------------------------------ #
    async def open_loop(self, arrivals: list[tuple[float, Txn]], t0: float, timed_at) -> tuple[list, list]:
        """Fire each arrival at ``t0 + offset``, regardless of completions.

        Returns, per arrival, the latency from its *due* time (``None`` if it
        failed) and how late the generator started it.
        """
        clock = time.perf_counter
        latencies: list[float | None] = [None] * len(arrivals)
        lags: list[float] = [0.0] * len(arrivals)

        async def session(i: int, due: float, txn: Txn) -> None:
            lags[i] = clock() - due
            out = await self.run_txn(self.clients[i % len(self.clients)], txn, timed_at(due - t0))
            if not out.error:
                latencies[i] = out.end - due

        tasks = []
        for i, (offset, txn) in enumerate(arrivals):
            due = t0 + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(session(i, due, txn)))
        await asyncio.gather(*tasks)
        return latencies, lags

    async def closed_loop(self, n_sessions: int, duration: float, timed_at) -> tuple[float, list[float]]:
        """``n_sessions`` back-to-back sessions for ``duration`` seconds.

        Returns the phase start and the ack time of every commit that landed
        inside the window.
        """
        clock = time.perf_counter
        t0 = clock()
        deadline = t0 + duration
        acks: list[float] = []

        async def session(s: int) -> None:
            rng = self.gen.rng(f"closed:{s}")
            client = self.clients[s % len(self.clients)]
            while clock() < deadline:
                out = await self.run_txn(client, self.gen.txn(rng), timed_at(clock() - t0))
                if not out.error and out.end <= deadline:
                    acks.append(out.end)

        await asyncio.gather(*(session(s) for s in range(n_sessions)))
        return t0, acks

    # ------------------------------------------------------------------ #
    def check(self) -> dict:
        """Anomaly-check every committed transaction's observations."""
        checker = AnomalyChecker()
        for txid, order in self.preload_orders.items():
            checker.register_commit_order(txid, order)
        for out in self.outcomes:
            if out.error:
                continue
            checker.register_commit_order(out.txid, TransactionId.from_token(out.token))
            log = TransactionLog(txn_uuid=out.txid)
            for op_index, (key, raw) in enumerate(out.reads):
                log.record_read(key, TaggedValue.try_from_bytes(raw), op_index)
            for op_index, (key, version) in enumerate(out.writes.items(), start=len(out.reads)):
                log.record_write(key, version, op_index)
            checker.add(log)
        return checker.counts().as_dict()

    async def read_back(self, n_nodes: int, sample: int, seed: int) -> dict:
        """Read a sample of written keys through every node.

        Each key must return the version of its highest committed writer.
        Keys a failed transaction tried to write are skipped: whether that
        write landed is unknown.
        """
        latest: dict[str, tuple[TransactionId, str]] = {}
        doubtful: set[str] = set()
        for out in self.outcomes:
            if out.error:
                doubtful.update(out.txn.writes)
                continue
            order = TransactionId.from_token(out.token)
            for key in out.writes:
                if key not in latest or latest[key][0] < order:
                    latest[key] = (order, out.txid)
        candidates = sorted(set(latest) - doubtful)
        keys = random.Random(f"{seed}:readback").sample(candidates, min(sample, len(candidates)))
        # Start transactions until one lands on every node: the reply names it.
        conn = self.clients[0]._conn
        by_node: dict[str, str] = {}
        for _ in range(4 * n_nodes):
            if len(by_node) == n_nodes:
                break
            reply = await conn.request(m.ClientStart(txid=""))
            if reply.node_id in by_node:
                await self.clients[0].abort_transaction(reply.txid)
            else:
                by_node[reply.node_id] = reply.txid
        mismatches = []
        for node_id, txid in sorted(by_node.items()):
            for i in range(0, len(keys), 64):
                values = await self.clients[0].get_many(txid, keys[i : i + 64])
                for key, raw in values.items():
                    tag = TaggedValue.try_from_bytes(raw)
                    if tag is None or tag.uuid != latest[key][1]:
                        mismatches.append((node_id, key))
            await self.clients[0].abort_transaction(txid)
        return {
            "nodes": len(by_node),
            "keys": len(keys),
            "mismatches": len(mismatches),
            "mismatch_samples": mismatches[:5],
        }


async def connect(port: int, n_clients: int, n_nodes: int) -> list[AsyncRouterClient]:
    clients = [await AsyncRouterClient.connect("127.0.0.1", port) for _ in range(n_clients)]
    await clients[0].wait_ready(n_nodes)
    return clients
