"""Benchmark — the wire hot path: binary framing and storage-op batching.

Two measurements back the wire's design:

* **Codec microbench.**  One payload-heavy ``storage_batch`` frame is
  encoded and decoded.  The frame JSON-encodes only a compact header and
  carries the payloads raw, so its size stays within a few percent of the
  payload bytes it carries (``binary_bytes_per_payload_byte``).
* **Storage ops per frame.**  An in-process cluster (real localhost
  sockets: one router + three node servers, the same objects the
  ``repro-router``/``repro-node`` processes run) is driven by a closed-loop
  swarm of concurrent client sessions.  The router's own ``storage_ops`` and
  ``storage_batches`` counters, read over the ``info`` RPC, give the exact
  number of storage ops each ``storage_batch`` frame carried: plan stages
  ship their request groups whole, and concurrent sessions' ops share
  frames.  The acceptance criterion is **>= 2 ops per frame**, i.e. at
  least half the round trips a one-op-per-frame wire would need.

Results land in ``benchmarks/results/BENCH_rpc.json`` and are gated by
``scripts/check_bench_trend.py``; CI runs this under ``BENCH_FAST=1``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from bench_utils import emit, emit_json, run_once

from repro.harness.report import format_rows
from repro.rpc import messages as m
from repro.rpc.client import AsyncRouterClient
from repro.rpc.framing import decode_frame, frame_bytes
from repro.rpc.node_server import NodeServer
from repro.rpc.router import RouterServer
from repro.storage.base import StorageOp

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")

N_NODES = 3
N_CONNECTIONS = 4
N_WORKERS = 48
TXNS_PER_WORKER = 6 if FAST_MODE else 25
N_KEYS = 32
PAYLOAD = b"\x42" * 256
SEED = 23
#: Opportunistic coalescing window (the ``--coalesce-window`` node knob):
#: up to 1 ms of stage latency buys cross-session op merging even when the
#: swarm de-synchronises.
COALESCE_WINDOW = 0.001

#: Codec microbench shape: one storage_batch frame carrying a group-commit
#: sized op group with data-blob payloads.
CODEC_OPS = 16
CODEC_BLOB = bytes(range(256)) * 8  # 2 KiB, full byte alphabet
CODEC_ITERATIONS = 200 if FAST_MODE else 2000


# --------------------------------------------------------------------- #
# Codec microbench
# --------------------------------------------------------------------- #
def _codec_bench() -> dict:
    ops = [
        StorageOp(op="put", keys=(f"aft.data/k{i}/t{i}",), items={f"aft.data/k{i}/t{i}": CODEC_BLOB})
        for i in range(CODEC_OPS)
    ]
    msg_type, body = m.encode_body(m.encode_storage_ops(ops))
    envelope = {"id": 1, "type": msg_type, "body": body}
    frame = frame_bytes(envelope)
    payload_bytes = CODEC_OPS * len(CODEC_BLOB)

    def timed_us(fn) -> float:
        start = time.perf_counter()
        for _ in range(CODEC_ITERATIONS):
            fn()
        return (time.perf_counter() - start) / CODEC_ITERATIONS * 1e6

    return {
        "iterations": CODEC_ITERATIONS,
        "message": f"storage_batch: {CODEC_OPS} puts x {len(CODEC_BLOB)} B",
        "payload_bytes": payload_bytes,
        "binary_frame_bytes": len(frame),
        "binary_bytes_per_payload_byte": round(len(frame) / payload_bytes, 3),
        "binary_encode_us": round(timed_us(lambda: frame_bytes(envelope)), 2),
        "binary_decode_us": round(timed_us(lambda: decode_frame(frame[4:])), 2),
    }


# --------------------------------------------------------------------- #
# The in-process cluster
# --------------------------------------------------------------------- #
def _storage_counters(info: m.InfoReply) -> tuple[int, int]:
    counters = info.metrics.get("counters", {})
    return int(counters.get("storage_batches", 0)), int(counters.get("storage_ops", 0))


async def _drive(port: int) -> dict:
    """Closed-loop swarm: N_WORKERS concurrent read-2/write-2 sessions."""
    keys = [f"acct:{i}" for i in range(N_KEYS)]
    clients = [await AsyncRouterClient.connect("127.0.0.1", port) for _ in range(N_CONNECTIONS)]
    await clients[0].wait_ready(N_NODES)

    # Preload so steady-state reads resolve real versions from storage.
    tx = await clients[0].start_transaction()
    await clients[0].put_many(tx, {key: PAYLOAD for key in keys})
    await clients[0].commit_transaction(tx)

    rng = random.Random(SEED)
    plans = [
        [(rng.sample(keys, 2), rng.sample(keys, 2)) for _ in range(TXNS_PER_WORKER)]
        for _ in range(N_WORKERS)
    ]

    async def worker(worker_id: int) -> None:
        client = clients[worker_id % len(clients)]
        for reads, writes in plans[worker_id]:
            tx = await client.start_transaction()
            await client.get_many(tx, reads)
            await client.put_many(tx, {key: PAYLOAD for key in writes})
            await client.commit_transaction(tx)

    # Snapshot the storage counters after the preload so node bootstrap and
    # preload traffic stay out of the per-transaction metric.
    frames_before, ops_before = _storage_counters(await clients[0].info())
    started = time.perf_counter()
    await asyncio.gather(*(worker(w) for w in range(N_WORKERS)))
    elapsed = time.perf_counter() - started
    frames_after, ops_after = _storage_counters(await clients[0].info())
    for client in clients:
        await client.close()

    txns = N_WORKERS * TXNS_PER_WORKER
    storage_frames = frames_after - frames_before
    storage_ops = ops_after - ops_before
    return {
        "txns": txns,
        "elapsed_s": round(elapsed, 3),
        "txn_per_s": round(txns / elapsed, 1) if elapsed else 0.0,
        "storage_frames": storage_frames,
        "storage_ops": storage_ops,
        "round_trips_per_txn": round(storage_frames / txns, 3),
        "storage_ops_per_txn": round(storage_ops / txns, 3),
        "ops_per_storage_frame": round(storage_ops / storage_frames, 3) if storage_frames else 0.0,
    }


def _run_cluster() -> dict:
    """Boot router + nodes on one loop and drive the swarm through them."""

    async def scenario() -> dict:
        router = RouterServer(port=0, lease_duration=5.0, heartbeat_interval=1.0)
        await router.start()
        nodes = []
        try:
            for i in range(N_NODES):
                node = NodeServer(f"n{i}", router_port=router.port, coalesce_window=COALESCE_WINDOW)
                await node.start()
                nodes.append(node)
            return await _drive(router.port)
        finally:
            for node in nodes:
                await node.stop()
            await router.stop()

    return asyncio.run(scenario())


def run_rpc_hotpath_bench() -> dict:
    return {
        "fast_mode": FAST_MODE,
        "workload": {
            "nodes": N_NODES,
            "workers": N_WORKERS,
            "txns_per_worker": TXNS_PER_WORKER,
            "keys": N_KEYS,
            "payload_bytes": len(PAYLOAD),
        },
        "codec": _codec_bench(),
        "after": _run_cluster(),
    }


# --------------------------------------------------------------------- #
def test_rpc_hotpath(benchmark):
    summary = run_once(benchmark, run_rpc_hotpath_bench)

    after, codec = summary["after"], summary["codec"]
    rows = [
        {"metric": name, "value": after[name]}
        for name in (
            "txns",
            "txn_per_s",
            "storage_frames",
            "storage_ops",
            "round_trips_per_txn",
            "ops_per_storage_frame",
        )
    ]
    table = format_rows(
        rows,
        ["metric", "value"],
        title=(
            f"RPC hot path ({'fast' if FAST_MODE else 'full'} mode): "
            f"{after['ops_per_storage_frame']} storage ops per frame, "
            f"{codec['binary_bytes_per_payload_byte']} frame bytes per payload byte"
        ),
    )
    emit("rpc_hotpath", table)
    emit_json("BENCH_rpc", summary)

    # Batching must at least halve the round trips a one-op-per-frame wire
    # would need...
    assert after["ops_per_storage_frame"] >= 2.0, summary
    # ... and bulk bytes must travel raw: the header costs a few percent.
    assert codec["binary_bytes_per_payload_byte"] <= 1.05, codec


if __name__ == "__main__":
    print(run_rpc_hotpath_bench())
