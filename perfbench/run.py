"""The repo benchmark: real ``repro-router`` + ``repro-node`` processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rw-uniform --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload in turn.  Each run boots one router
and two node processes from ``src/``, preloads the workload's keys, and
drives the cluster from this process (one asyncio loop, two client
connections) in two phases:

* an open-loop Poisson phase at a fixed rate for 60% of ``--seconds``:
  CPU, memory, frames and storage round trips per transaction, and latency
  timed from each arrival's due time;
* a closed-loop phase with 32 sessions in flight for the rest: ``peak_tps``,
  the median of eight equal windows (robust to the ramp and to bursts).

The end-to-end metrics are the ones that hold still on a shared two-core
host: ``peak_tps``, ``cpu_ms_per_txn``, ``rss_mb`` and ``setup_s`` (spawn +
preload, repeated three times, median).  Latency moves with the hypervisor's
CPU steal by far more than any usable bound, so ``p50_ms``/``p99_ms`` are
printed on every run and reported per layer, not gated.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that times every client call (in the middle two quarters of each phase
only, so the timing's own cost is measured against the outer quarters), adds
an idle window and an in-process replay of the same inputs, and prints the
per-layer metrics; ``layers.json`` says what each should move.  Every run
checks its outputs: no read-atomicity anomaly or null read over the whole
swarm, and a sample of written keys read back through each node returns its
highest committed writer.  The last stdout line is one JSON object; the exit
code is 1 when the outputs are wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

N_NODES = 2
N_CLIENTS = 2
N_SESSIONS = 32
#: Share of ``--seconds`` given to the fixed-rate phase; the rest is closed loop.
FIXED_SHARE = 0.6
#: Open-loop arrival rate of the fixed-rate phase: a fifth to a quarter of
#: either workload's peak on two cores, where CPU per txn is comparable
#: across changes and queueing stays short.
FIXED_TPS = 105.0
#: Samples the latency percentiles are taken over: >= 10 beyond p99.
MIN_LATENCY_SAMPLES = 1000
SETUP_REPEATS = 3
IDLE_S = 3.0
READBACK_KEYS = 200
PEAK_WINDOWS = 8


def _pct(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def _cpu(readings: dict, who: str) -> float:
    """Summed CPU seconds of the router (``who="router"``) or of the nodes."""
    return sum(r.cpu_s for name, r in readings.items() if (name == "router") == (who == "router"))


def _host_cpu() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (steal is field 8)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _quarter(offset: float, duration: float) -> int:
    return min(3, int(4 * offset / duration))


def _client_frames(clients) -> int:
    return sum(c._conn.stats.frames_sent + c._conn.stats.frames_received for c in clients)


class Counters:
    """Router-side wire and storage counters, as the ``info`` RPC reports them."""

    def __init__(self, info) -> None:
        self.frames = self.bytes = self.batched = 0
        for stats in info.wire.values():
            self.frames += stats["frames_in"] + stats["frames_out"]
            self.bytes += stats["bytes_in"] + stats["bytes_out"]
            self.batched += stats["batched_ops_in"]
        counters = info.metrics.get("counters", {})
        self.storage_ops = counters.get("storage_ops", 0)
        self.storage_batches = counters.get("storage_batches", 0)


async def _boot(src_dir: str):
    from cluster import Cluster
    from drive import connect

    cluster = Cluster(src_dir, N_NODES).start()
    try:
        return cluster, await connect(cluster.port, N_CLIENTS, N_NODES)
    except BaseException:
        cluster.close()
        raise


async def _teardown(cluster, clients) -> None:
    for client in clients:
        await client.close()
    cluster.close()


async def _fixed_phase(res: dict, cluster, clients, swarm, arrivals, trace: bool) -> None:
    """Open loop at ``FIXED_TPS``: latency, CPU, memory and counters per txn."""
    clock = time.perf_counter
    duration = arrivals[-1][0]
    t0 = clock() + 0.02
    timed_at = (lambda off: _quarter(off, duration) in (1, 2)) if trace else (lambda off: False)
    before = Counters(await clients[0].info())
    frames0, procs0, gen_cpu0, host0 = _client_frames(clients), cluster.read(), time.process_time(), _host_cpu()
    readings = [procs0]

    async def read_quarter_bounds() -> None:
        for k in (1, 2, 3):
            await asyncio.sleep(max(0.0, t0 + k * duration / 4 - clock()))
            readings.append(cluster.read())

    bounds = asyncio.create_task(read_quarter_bounds()) if trace else None
    latencies, lags = await swarm.open_loop(arrivals, t0, timed_at)
    if bounds is not None:
        await bounds
    gen_cpu1, host1, procs1 = time.process_time(), _host_cpu(), cluster.read()
    # Client frames before the info call, so its own frames stay out.
    frames1 = _client_frames(clients)
    after = Counters(await clients[0].info())
    readings.append(procs1)

    # Memory after a fixed amount of work (preload + the phase's txns): the
    # closed loop's txn count varies with the host, and no GC runs.
    res["rss"] = {w: sum(r.rss_mb for name, r in procs1.items() if (name == "router") == (w == "router"))
                  for w in ("router", "node")}
    res["rss_mb"] = res["rss"]["router"] + res["rss"]["node"]
    ok = sorted(x for x in latencies if x is not None)
    res["latency_samples"] = len(ok)
    res["p50_ms"] = _pct(ok, 0.50) * 1e3 if ok else 0.0
    res["p99_ms"] = _pct(ok, 0.99) * 1e3 if ok else 0.0
    per_txn = 1.0 / max(len(ok), 1)
    res["lag_p99_ms"] = _pct(sorted(lags), 0.99) * 1e3
    host = [b - a for a, b in zip(host0, host1)]
    res["steal_pct"] = 100.0 * host[7] / max(sum(host), 1)
    res["router_cpu"] = (_cpu(procs1, "router") - _cpu(procs0, "router")) * 1e3 * per_txn
    res["node_cpu"] = (_cpu(procs1, "node") - _cpu(procs0, "node")) * 1e3 * per_txn
    res["cpu_ms_per_txn"] = res["router_cpu"] + res["node_cpu"]
    res["client_cpu"] = (gen_cpu1 - gen_cpu0) * 1e3 * per_txn
    res["client_frames"] = (frames1 - frames0) * per_txn
    res["rpc_frames"] = (after.frames - before.frames) * per_txn
    res["rpc_bytes"] = (after.bytes - before.bytes) * per_txn
    ops = after.storage_ops - before.storage_ops
    # A round trip is a storage_batch frame or a single-op storage frame.
    round_trips = (after.storage_batches - before.storage_batches) + ops - (after.batched - before.batched)
    res["storage_round_trips"] = round_trips * per_txn
    res["storage_ops"] = ops * per_txn
    res["ops_per_batch"] = ops / max(round_trips, 1)
    # Per-call timings describe this phase, like p50_ms.
    res["calls_ms"] = {op: statistics.median(v) * 1e3 if v else 0.0 for op, v in swarm.call_s.items()}
    if trace:
        # Server CPU per txn in the timed (2nd, 3rd) vs untimed quarters.
        txns = [0, 0, 0, 0]
        for lat, (offset, _) in zip(latencies, arrivals):
            if lat is not None:
                txns[_quarter(offset, duration)] += 1
        cpu = [
            _cpu(readings[k + 1], "router") + _cpu(readings[k + 1], "node")
            - _cpu(readings[k], "router") - _cpu(readings[k], "node")
            for k in range(4)
        ]
        untimed = (cpu[0] + cpu[3]) / max(txns[0] + txns[3], 1)
        timed = (cpu[1] + cpu[2]) / max(txns[1] + txns[2], 1)
        res["cpu_overhead_pct"] = (timed - untimed) / untimed * 100.0 if untimed else 0.0


async def _closed_phase(res: dict, swarm, duration: float, trace: bool) -> None:
    """``N_SESSIONS`` back-to-back sessions: committed txns per second."""
    timed_at = (lambda off: _quarter(off, duration) in (1, 2)) if trace else (lambda off: False)
    t0, acks = await swarm.closed_loop(N_SESSIONS, duration, timed_at)
    per_window = [0] * PEAK_WINDOWS
    for at in acks:
        per_window[min(PEAK_WINDOWS - 1, int(PEAK_WINDOWS * (at - t0) / duration))] += 1
    # The median window: robust to the ramp and to bursts of host noise.
    res["peak_tps"] = statistics.median(per_window) * PEAK_WINDOWS / duration
    # Timed windows are the middle half; medians keep the ramp out here too.
    timed = statistics.median(per_window[PEAK_WINDOWS // 4 : 3 * PEAK_WINDOWS // 4])
    untimed = statistics.median(per_window[: PEAK_WINDOWS // 4] + per_window[3 * PEAK_WINDOWS // 4 :])
    res["tps_overhead_pct"] = (untimed - timed) / max(untimed, 1) * 100.0


async def measure(workload, seed: int, seconds: float, trace: bool, src_dir: str) -> dict:
    from drive import Swarm
    from workloads import InputGenerator

    gen = InputGenerator(workload, seed)
    fixed_s = seconds * FIXED_SHARE
    arrivals = gen.arrivals(FIXED_TPS, round(FIXED_TPS * fixed_s))
    res: dict = {"setups": []}
    live = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if live is not None:
                await _teardown(*live)
                live = None
            began = time.perf_counter()
            live = cluster, clients = await _boot(src_dir)
            swarm = Swarm(workload, gen, clients)
            await swarm.preload()
            res["setups"].append(time.perf_counter() - began)
        res["setup_s"] = statistics.median(res["setups"])
        # The generator's own collector must not stall arrivals: what exists
        # now is long-lived, and the phases allocate few cycles.
        gc.collect()
        gc.freeze()
        gc.disable()
        if trace:
            idle0 = cluster.read()
            await asyncio.sleep(IDLE_S)
            idle1 = cluster.read()
            res["idle"] = {w: (_cpu(idle1, w) - _cpu(idle0, w)) * 1e3 / IDLE_S for w in ("router", "node")}
        else:
            await asyncio.sleep(0.3)
        await _fixed_phase(res, cluster, clients, swarm, arrivals, trace)
        swarm.call_s = {op: [] for op in swarm.call_s}
        await _closed_phase(res, swarm, seconds - fixed_s, trace)
        res["readback"] = await swarm.read_back(N_NODES, READBACK_KEYS, seed)
    finally:
        gc.enable()
        if live is not None:
            await _teardown(*live)

    res["anomalies"] = swarm.check()
    res["attempted"] = len(swarm.outcomes)
    res["failed"] = sum(1 for out in swarm.outcomes if out.error)
    res["failure_samples"] = [out.error for out in swarm.outcomes if out.error][:3]
    if trace:
        from replay import replay

        res["replay"] = replay(workload, [txn for _, txn in arrivals], swarm.tag)
    return res


def verdict(res: dict, trace: bool) -> list[str]:
    """Every reason the run's outputs are wrong (empty when correct)."""
    problems = []
    counts = res["anomalies"]
    for name in ("ryw_anomalies", "fractured_read_anomalies", "null_reads"):
        if counts[name]:
            problems.append(f"{name}={counts[name]}")
    rb = res["readback"]
    if rb["nodes"] != N_NODES or rb["mismatches"] or not rb["keys"]:
        problems.append(f"read-back: {rb}")
    if res["latency_samples"] < MIN_LATENCY_SAMPLES:
        problems.append(f"latency over {res['latency_samples']} samples < {MIN_LATENCY_SAMPLES}")
    if trace and res["replay"]["ms_per_txn"] > res["node_cpu"]:
        problems.append(
            f"in-process core+storage {res['replay']['ms_per_txn']:.3f} ms/txn exceeds "
            f"node process CPU {res['node_cpu']:.3f} ms/txn"
        )
    return problems


def metrics(res: dict, trace: bool) -> dict[str, tuple[float, str]]:
    """The end-to-end (``trace=False``) or per-layer metrics: name -> (value, unit)."""
    if not trace:
        return {
            "peak_tps": (res["peak_tps"], "txn/s"),
            "cpu_ms_per_txn": (res["cpu_ms_per_txn"], "ms"),
            "rss_mb": (res["rss_mb"], "MB"),
            "setup_s": (res["setup_s"], "s"),
        }
    rp = res["replay"]
    return {
        "router.cpu_ms_per_txn": (res["router_cpu"], "ms"),
        "node.cpu_ms_per_txn": (res["node_cpu"], "ms"),
        "client.cpu_ms_per_txn": (res["client_cpu"], "ms"),
        "rpc.frames_per_txn": (res["rpc_frames"], "count"),
        "rpc.bytes_per_txn": (res["rpc_bytes"], "B"),
        "client.frames_per_txn": (res["client_frames"], "count"),
        "storage.batches_per_txn": (res["storage_round_trips"], "count"),
        "storage.ops_per_txn": (res["storage_ops"], "count"),
        "storage.ops_per_batch": (res["ops_per_batch"], "count"),
        "storage.busy_ms_per_txn": (rp["storage_busy_ms_per_txn"], "ms"),
        "core.get_ms": (rp["get_ms"], "ms"),
        "core.commit_ms": (rp["commit_ms"], "ms"),
        "core.ms_per_txn": (rp["ms_per_txn"], "ms"),
        "router.rss_mb": (res["rss"]["router"], "MB"),
        "node.rss_mb": (res["rss"]["node"], "MB"),
        "router.idle_cpu_ms_per_s": (res["idle"]["router"], "ms/s"),
        "node.idle_cpu_ms_per_s": (res["idle"]["node"], "ms/s"),
        "client.start_ms": (res["calls_ms"]["start"], "ms"),
        "client.get_ms": (res["calls_ms"]["get"], "ms"),
        "client.put_ms": (res["calls_ms"]["put"], "ms"),
        "client.commit_ms": (res["calls_ms"]["commit"], "ms"),
        "client.txn_p50_ms": (res["p50_ms"], "ms"),
        "client.txn_p99_ms": (res["p99_ms"], "ms"),
        "gen.lag_p99_ms": (res["lag_p99_ms"], "ms"),
        "trace.overhead_pct": (res["tps_overhead_pct"], "%"),
        "trace.cpu_overhead_pct": (res["cpu_overhead_pct"], "%"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, src_dir: str) -> dict:
    from workloads import WORKLOADS

    res = asyncio.run(measure(WORKLOADS[name], seed, seconds, trace, src_dir))
    problems = verdict(res, trace)
    values = metrics(res, trace)
    print(f"# {name} seed={seed} trace={int(trace)} setups_s={[round(s, 3) for s in res['setups']]}")
    for metric, (value, unit) in values.items():
        print(f"{name:12s} {metric:26s} {value:12.4f} {unit}")
    # Printed on every run, gated by none: latency moves with host contention
    # far beyond any usable bound, error_rate is 0 on a healthy run.
    print(f"{name:12s} {'p50_ms':26s} {res['p50_ms']:12.4f} ms (fixed-rate phase, from due time)")
    print(f"{name:12s} {'p99_ms':26s} {res['p99_ms']:12.4f} ms (over {res['latency_samples']} txns)")
    print(f"{name:12s} {'error_rate':26s} {res['failed'] / max(res['attempted'], 1):12.4f} ratio")
    print(f"{name:12s} {'gen.lag_p99_ms':26s} {res['lag_p99_ms']:12.4f} ms (validity)")
    print(f"{name:12s} {'host.steal_pct':26s} {res['steal_pct']:12.4f} % (fixed-rate phase)")
    for problem in problems:
        print(f"{name:12s} INCORRECT: {problem}")
    if res["failure_samples"]:
        print(f"{name:12s} failures: {res['failure_samples']}")
    return {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src_dir = Path.cwd() / "src"
    if not (src_dir / "repro" / "rpc" / "router.py").is_file():
        print(f"error: no repro source tree at {src_dir}; run from the repository root", file=sys.stderr)
        return 2
    # After this file's own directory, so the benchmark's modules come first.
    sys.path.insert(1, str(src_dir))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), str(src_dir)) for name in names}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
