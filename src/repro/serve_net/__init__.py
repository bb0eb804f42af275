"""The CQN1 network serving tier: a socket in front of the pulse store.

Everything below :mod:`repro.store` is in-process; this package is the
room-temperature side of the link a scaled control stack assumes
between gate issue and the compressed waveform memory -- a real server
on a real socket, with the serving-tier policies that keep it stable
under load:

- :mod:`repro.serve_net.protocol` -- the ``CQN1`` length-prefixed
  binary wire protocol (request = pulse-key batch, response = status +
  raw ``CQW1`` record bytes or decoded-sample payloads) with a total
  parser: malformed bytes always raise
  :class:`~repro.errors.ProtocolError`, never yield garbage.
- :mod:`repro.serve_net.server` -- :class:`NetPulseServer`, an asyncio
  front end over :class:`~repro.store.PulseServer` with bounded
  admission control (explicit overload responses, no unbounded
  queueing) and graceful drain-on-shutdown.  A fetch is one executor
  hop into the store layer, which decodes the fetch's misses in one
  fused fill on that thread; its per-shard single-flight dedupes
  concurrent cold fetches.
- :mod:`repro.serve_net.client` -- :class:`PulseClient`, the one
  client: a blocking socket with optional seeded retry-with-backoff
  on overload replies and every failure typed.
- :mod:`repro.serve_net.loadgen` -- closed- and open-loop load
  generators, both on :class:`PulseClient` threads, reporting
  p50/p95/p99 latency, throughput, overload and retry counts (and the
  open loop's own lateness); the measurement half of
  ``BENCH_network.json``.

Quickstart::

    from repro.serve_net import PulseClient, serve_in_thread
    from repro.store import PulseServer, open_store

    with PulseServer(open_store("guadalupe.cqs")) as serving:
        with serve_in_thread(serving) as handle:
            with PulseClient(*handle.address) as client:
                pulse = client.fetch("sx", (0,))
"""

from repro.serve_net.protocol import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    OBS_EXT_VERSION,
    MODE_RECORD,
    MODE_SAMPLES,
    STATUS_OK,
    STATUS_OVERLOAD,
    STATUS_ERROR,
    MAX_FRAME_BYTES,
    MAX_REQUEST_FRAME_BYTES,
    MAX_KEYS_PER_REQUEST,
    MAX_TRACES_PER_REQUEST,
)
from repro.serve_net.server import (
    NetPulseServer,
    NetServerHandle,
    serve_in_thread,
)
from repro.serve_net.client import PulseClient, parse_address
from repro.serve_net.loadgen import (
    LoadReport,
    latency_summary,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "MODE_RECORD",
    "MODE_SAMPLES",
    "STATUS_OK",
    "STATUS_OVERLOAD",
    "STATUS_ERROR",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_FRAME_BYTES",
    "MAX_KEYS_PER_REQUEST",
    "MAX_TRACES_PER_REQUEST",
    "OBS_EXT_VERSION",
    "NetPulseServer",
    "NetServerHandle",
    "serve_in_thread",
    "PulseClient",
    "parse_address",
    "LoadReport",
    "latency_summary",
    "run_closed_loop",
    "run_open_loop",
]
