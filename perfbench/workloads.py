"""The benchmark's workloads and their seeded input generators.

A workload fixes the keyspace, the read skew and the shape of one
transaction; the seed fixes everything drawn from it — the open-loop arrival
schedule, every transaction's keys and the value bytes.  The program under
test only ever sees these generated inputs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Txn:
    """One transaction's inputs: keys to read, then keys to write."""

    reads: tuple[str, ...]
    writes: tuple[str, ...]


#: Application payload of every value written, before its tag envelope.
PAYLOAD_BYTES = 64
#: Keys per preload transaction.
PRELOAD_CHUNK = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_keys: int
    n_reads: int
    n_writes: int
    #: One ``get_many`` for the whole read set instead of one ``get`` per key.
    read_many: bool
    #: Zipf exponent of the read-key draw (0 = uniform).
    zipf_theta: float

    def key(self, i: int) -> str:
        return f"k{i:05d}"

    @property
    def keys(self) -> list[str]:
        return [self.key(i) for i in range(self.n_keys)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rw-uniform",
            why="per-op Table-1 pattern: 2 gets + 2 puts of 64 B, uniform over 10k keys; "
            "transport and router dispatch dominate, the core does little",
            n_keys=10_000,
            n_reads=2,
            n_writes=2,
            read_many=False,
            zipf_theta=0.0,
        ),
        Workload(
            name="read-skew",
            why="one 16-key get_many, Zipf(1.0) over 1k keys, + 1 put: the core read protocol "
            "and data cache work, hot keys grow version chains, rpc work is light",
            n_keys=1_000,
            n_reads=16,
            n_writes=1,
            read_many=True,
            zipf_theta=1.0,
        ),
    )
}


class InputGenerator:
    """Seeded transaction inputs for one workload.

    Independent streams (arrivals, each closed-loop session) derive their
    own ``random.Random`` from the seed, so a stream's inputs do not depend
    on how many transactions another stream consumed.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        keys = workload.keys
        self._keys = keys
        if workload.zipf_theta > 0:
            weights = [1.0 / (rank + 1) ** workload.zipf_theta for rank in range(len(keys))]
            total = 0.0
            self._cum: list[float] | None = []
            for w in weights:
                total += w
                self._cum.append(total)
            # Which key is hot is itself drawn from the seed.
            self._ranked = list(keys)
            random.Random(f"{seed}:rank").shuffle(self._ranked)
        else:
            self._cum = None

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.workload.name}:{stream}")

    def _draw_distinct(self, rng: random.Random, n: int, skewed: bool) -> tuple[str, ...]:
        if not skewed or self._cum is None:
            return tuple(rng.sample(self._keys, n))
        chosen: dict[str, None] = {}
        top = self._cum[-1]
        while len(chosen) < n:
            index = bisect.bisect_left(self._cum, rng.random() * top)
            chosen[self._ranked[min(index, len(self._ranked) - 1)]] = None
        return tuple(chosen)

    def txn(self, rng: random.Random) -> Txn:
        w = self.workload
        reads = self._draw_distinct(rng, w.n_reads, skewed=True)
        # Writes are uniform: skew shapes the read set only.
        writes = self._draw_distinct(rng, w.n_writes, skewed=False)
        return Txn(reads=reads, writes=writes)

    def arrivals(self, rate: float, count: int) -> list[tuple[float, Txn]]:
        """``count`` Poisson arrivals at ``rate``: (offset seconds, inputs)."""
        rng = self.rng("open-loop")
        t = 0.0
        out = []
        for _ in range(count):
            t += rng.expovariate(rate)
            out.append((t, self.txn(rng)))
        return out

    def payload_block(self) -> bytes:
        """Seeded filler that value payloads are sliced from."""
        return self.rng("payload").randbytes(1 << 16)
