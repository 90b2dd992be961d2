"""The real deployment shape as OS processes, observed from the outside.

One ``repro-router`` and ``n_nodes`` ``repro-node`` processes on localhost
TCP, started from the checkout's ``src/`` tree.  Nothing inside them is
patched or subclassed: CPU and memory come from ``/proc/<pid>/stat`` and
``/proc/<pid>/status``, wire and storage counters from the router's ``info``
RPC.  The entrypoints exit cleanly only on SIGINT (a SIGTERM'd process
reports nothing), so every reading is taken before teardown.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ProcReading:
    """One process's accounting at one instant."""

    cpu_s: float
    rss_mb: float


def read_proc(pid: int) -> ProcReading:
    """utime+stime (all threads) from ``stat``, VmRSS from ``status``."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; the fields after it do not.
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu_s = (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    rss_mb = 0.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                rss_mb = int(line.split()[1]) / 1024.0
                break
    return ProcReading(cpu_s=cpu_s, rss_mb=rss_mb)


class _Process:
    """A child started with ``python -m``; stdout is drained on a thread."""

    def __init__(self, args: list[str], src_dir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.output: list[str] = []
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def await_line(self, marker: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.1)
            except queue.Empty:
                continue
            if line is None:
                break
            self.output.append(line.rstrip())
            if marker in line:
                return line
        raise RuntimeError(f"{marker!r} never appeared; output so far: {self.output[-20:]}")

    def interrupt(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def reap(self, grace: float) -> None:
        """Wait ``grace`` seconds after :meth:`interrupt`, then kill."""
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join()
        self.proc.stdout.close()


class Cluster:
    """A router plus ``n_nodes`` node processes."""

    def __init__(self, src_dir: str, n_nodes: int) -> None:
        self.src_dir = src_dir
        self.n_nodes = n_nodes
        self.router: _Process | None = None
        self.nodes: list[_Process] = []
        self.port = 0

    def start(self) -> "Cluster":
        """Spawn the router, then each node, waiting for their ready lines."""
        try:
            self.router = _Process(["repro.rpc.router", "--port", "0"], self.src_dir)
            ready = self.router.await_line("REPRO_ROUTER_READY", timeout=30.0)
            self.port = int(ready.split("port=")[1].split()[0])
            for i in range(self.n_nodes):
                node = _Process(
                    ["repro.rpc.node_server", "--node-id", f"n{i}", "--router-port", str(self.port)],
                    self.src_dir,
                )
                self.nodes.append(node)
                node.await_line("REPRO_NODE_READY", timeout=30.0)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        procs = [p for p in (*self.nodes, self.router) if p is not None]
        # Every reading is taken before teardown, so a process that does not
        # leave promptly on SIGINT loses nothing by being killed.
        for proc in procs:
            proc.interrupt()
        for proc in procs:
            proc.reap(grace=3.0)
        self.router, self.nodes = None, []

    def read(self) -> dict[str, ProcReading]:
        """``router`` and ``n<i>`` readings, taken back to back."""
        readings = {"router": read_proc(self.router.proc.pid)}
        for i, node in enumerate(self.nodes):
            readings[f"n{i}"] = read_proc(node.proc.pid)
        return readings
