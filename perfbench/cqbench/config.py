"""The benchmark's fixed configuration and its workloads.

Changing any value here changes what the benchmark measures; a change
that claims a gain must leave this file alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: The largest IBM library: 669 pulses, 601,664 samples, 9.6 MB decoded.
DEVICE = "washington"
#: ``repro serve-net``/``save_store`` defaults.
WINDOW_SIZE = 16
CODEC = "int-DCT-W"
N_SHARDS = 4
#: Keys per ``fetch_batch``.
BATCH = 32
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Which keys are hot is part of a workload, not of its seed: pulse
#: lengths differ 10x between gates (144 samples for x/sx, ~1360 for
#: cx/measure), so drawing the Zipf ranking per seed moved warm_hits
#: pulses/s by +-15% between seeds.  Seeds still draw every batch.
POPULARITY_SEED = 0
CLIENT_TIMEOUT_S = 20.0
#: Batches generated per connection and round; replayed if a round outlasts them.
TRACE_BATCHES = 2048
#: The read window runs as rounds of this many seconds.  Throughput and
#: fetch percentiles are taken per round and reported as the median over
#: the rounds: the machine changes speed for seconds at a time, and a
#: round that falls in a slow phase then moves the result less than it
#: moves a percentile of the pooled window.
ROUND_S = 2.0
#: A traced run alternates this many untraced/traced round pairs.
TRACE_PAIRS = 5
#: Recalibration: each step drifts this many short pulses (x/sx, 144
#: samples) and as many long ones (cx/measure, ~1,360 samples): compile
#: time grows with length, and with freely drawn keys a step took 4 to
#: 106 ms to compile, which moved recal_p50_ms by up to 0.28 between seeds.
KEYS_PER_LENGTH_CLASS = 2
SHORT_PULSE_SAMPLES = 512
#: Commits between compactions.
COMPACT_EVERY = 25
#: The closed-loop workloads have no writer beside their reads: the
#: writer runs this many steps between two read rounds, so that their
#: commit and recalibration times sample the whole run rather than the
#: machine's speed in one stretch after it.
STEPS_PER_ROUND = 4
#: Untimed writer steps first: a fresh writer process runs its first
#: steps up to 2x slower (first calls into the compiler and store).
WRITER_WARMUP_STEPS = 10
MAX_STEPS = 1000


@dataclass(frozen=True)
class Workload:
    why: str
    connections: int
    #: The decoded cache holds 1/cache_share of the library.
    cache_share: int
    #: Zipf exponent of key popularity; 0 draws keys uniformly.
    zipf_s: float
    #: Untimed batches per connection before the window.
    warmup_batches: int
    #: Open-loop Poisson rate in requests/s; 0 runs a closed loop.
    read_rate: float = 0.0
    #: Writer cadence beside the reads; 0 runs the writer after the window.
    writer_period_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "warm_hits": Workload(
        why="controller steady state: whole library cached, every key hits, so "
        "client codec, socket, event loop, executor hop and cache lookup dominate",
        connections=2,
        cache_share=1,
        zipf_s=1.1,
        warmup_batches=50,
    ),
    "cold_misses": Workload(
        why="working set 8x the decoded cache, ~88% of keys miss, so mmap read, "
        "fused decode and cache insert/evict dominate",
        connections=2,
        cache_share=8,
        zipf_s=0.0,
        warmup_batches=30,
    ),
    "recalibrate": Workload(
        why="Poisson reads beside a drift-compile-commit-adopt writer: commits "
        "invalidate cache entries and grow the shard table under read load",
        connections=1,
        cache_share=1,
        zipf_s=1.1,
        warmup_batches=50,
        read_rate=75.0,
        writer_period_s=0.2,
    ),
}
